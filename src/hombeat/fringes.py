"""Closed-form fringe model, synthetic counting data, and parameter recovery.

The beating pattern of the second interferometer stage is modelled as a sum
of cosine components, one per frequency-bin pair, under a shared triangular
coherence envelope on a flat 1/2 baseline. Fitting works on an internal
unconstrained parameterization (log coherence time, logistic component
amplitudes) so the damped least-squares core never sees bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lm import MAX_ITERATIONS, levenberg_marquardt

__all__ = [
    "FringePairParams",
    "FringeModelParams",
    "FringeScan",
    "FitResult",
    "fringe_model_eval",
    "sample_scan",
    "synth_scan",
    "seed_guess",
    "fit_fringe_scan",
]


@dataclass(frozen=True)
class FringePairParams:
    """One oscillating component of the fringe model."""

    weight: float
    detuning_thz: float
    visibility: float
    phase_deg: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.weight, self.detuning_thz,
                                       self.visibility, self.phase_deg))):
            raise ValueError("fringe pair parameters must be finite")
        if self.weight < 0:
            raise ValueError("weight must be non-negative")
        if self.detuning_thz <= 0:
            raise ValueError("detuning must be positive")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError("visibility must lie in [0, 1]")

    @property
    def amplitude(self) -> float:
        """Product weight * visibility; the directly identifiable quantity."""
        return self.weight * self.visibility


@dataclass(frozen=True)
class FringeModelParams:
    """Full fringe model: shared envelope plus per-pair components.

    The baseline outside the triangular envelope is the uncorrelated-photon
    value 1/2. Weights are normalized to sum to 1.
    """

    coherence_time_ps: float
    pairs: tuple[FringePairParams, ...]

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))
        if not np.isfinite(self.coherence_time_ps) or self.coherence_time_ps <= 0:
            raise ValueError("coherence time must be positive")
        if len(self.pairs) == 0:
            raise ValueError("need at least one pair")
        total = sum(p.weight for p in self.pairs)
        if abs(total - 1.0) > 1e-3:
            raise ValueError(f"pair weights must sum to 1 within 1e-3, got {total:.6f}")

    @property
    def dimension_m(self) -> int:
        return 2 * len(self.pairs)


def fringe_model_eval(params: FringeModelParams, tau2_ps):
    """Evaluate the fringe probability model at tau2 (scalar or array).

    P(tau2) = 1/2 - sum_j (A_j V_j / 2) cos(2 pi mu_j tau2 + phi_j) * env,
    with env the triangle 1 - |2 tau2 / tau_c| inside |tau2| <= tau_c / 2
    and zero outside. Continuous everywhere.
    """
    out = _fringe_sum(np.asarray(tau2_ps, dtype=float), params.coherence_time_ps,
                      ((p.detuning_thz, p.amplitude, np.deg2rad(p.phase_deg))
                       for p in params.pairs))
    return float(out) if np.isscalar(tau2_ps) else out


def _fringe_sum(t: np.ndarray, tau_c, components) -> np.ndarray:
    """The one fringe formula: 1/2 minus, per (mu, amplitude, phase_rad)
    component, (amplitude / 2) cos(2 pi mu t + phase) under the triangle
    envelope of width tau_c."""
    env = np.clip(1.0 - np.abs(2.0 * t / tau_c), 0.0, None)
    out = np.full_like(t, 0.5)
    for mu, c, phi in components:
        out = out - 0.5 * c * np.cos(2.0 * np.pi * mu * t + phi) * env
    return out


@dataclass(frozen=True)
class FringeScan:
    """Sampled fringe data, either noiseless probabilities or counts.

    ``counts_per_point = 0`` marks a noiseless scan, whose ``values`` are
    probabilities. Otherwise ``values`` holds Poisson-distributed
    coincidence counts, which cannot be negative.
    """

    tau2_ps: np.ndarray
    values: np.ndarray
    counts_per_point: int = 0

    def __post_init__(self):
        t = np.asarray(self.tau2_ps, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "tau2_ps", t)
        object.__setattr__(self, "values", v)
        if t.size != v.size:
            raise ValueError("scan arrays must have equal lengths")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValueError("scan arrays must be finite")
        if self.counts_per_point < 0:
            raise ValueError("counts_per_point must not be negative")
        if self.counts_per_point and np.any(v < 0):
            raise ValueError("counts must not be negative")

    @property
    def n_points(self) -> int:
        return self.tau2_ps.size

    @property
    def uncertainties(self) -> np.ndarray:
        """Square roots of the counts with a floor of one count, so empty
        bins never produce zero weights downstream; zeros when noiseless."""
        if self.counts_per_point:
            return np.sqrt(np.maximum(self.values, 1.0))
        return np.zeros_like(self.values)

    def probabilities(self) -> np.ndarray:
        if self.counts_per_point:
            return self.values / self.counts_per_point
        return self.values


def sample_scan(probability, tau2_min_ps: float, tau2_max_ps: float,
                n_points: int, counts_per_point: int = 0,
                seed: int = 0) -> tuple[FringeScan, np.ndarray]:
    """Delay scan of a probability curve on a uniform tau2 grid.

    ``probability`` maps the tau2 array (ps) to the model probabilities.
    With counts_per_point >= 1 each sample draws from a Poisson law with
    mean counts_per_point times the probability (reproducible for a fixed
    seed); counts_per_point = 0 returns the noiseless curve and ignores the
    seed. Returns the scan and the probability curve it was drawn from.
    """
    if n_points < 3:
        raise ValueError("scan needs at least 3 points")
    if not np.isfinite(tau2_max_ps - tau2_min_ps):
        raise ValueError("scan range must be finite")
    if tau2_max_ps <= tau2_min_ps:
        raise ValueError("scan range is empty")
    if counts_per_point < 0:
        raise ValueError("counts_per_point must not be negative")
    tau2 = np.linspace(tau2_min_ps, tau2_max_ps, n_points)
    probs = probability(tau2)
    values = probs
    if counts_per_point:
        values = np.random.default_rng(seed).poisson(
            counts_per_point * probs).astype(float)
    scan = FringeScan(tau2_ps=tau2, values=values,
                      counts_per_point=int(counts_per_point))
    return scan, probs


def synth_scan(params: FringeModelParams, tau2_min_ps: float, tau2_max_ps: float,
               n_points: int, counts_per_point: int, seed: int = 0) -> FringeScan:
    """Synthetic delay scan of the fringe model (see ``sample_scan``)."""
    scan, _ = sample_scan(lambda tau2: fringe_model_eval(params, tau2),
                          tau2_min_ps, tau2_max_ps, n_points,
                          counts_per_point, seed)
    return scan


def _significant_dft_peaks(scan: FringeScan) -> np.ndarray:
    """Frequencies of the oscillation spectrum's local maxima that clear the
    noise floor, strongest first, ties broken toward lower frequency."""
    y = scan.probabilities() - 0.5
    n = y.size
    dt = scan.tau2_ps[1] - scan.tau2_ps[0]
    steps = np.diff(scan.tau2_ps)
    if np.max(np.abs(steps - dt)) > 1e-9 * max(abs(dt), 1.0):
        raise ValueError("spectral seeding needs a uniform tau2 grid")
    mag = np.abs(np.fft.rfft(y))
    freqs = np.fft.rfftfreq(n, dt)
    # Two floors: the median term rejects the shot-noise background of a
    # counted scan, the relative term rejects spectral-leakage sidelobes of
    # a noiseless one (the first triangle-window sidelobe sits near 5% of
    # its line, genuine comb lines well above 10% of the strongest).
    floor = max(4.0 * np.median(mag[1:]), 0.1 * np.max(mag[1:]))
    idx = [k for k in range(1, mag.size - 1)
           if mag[k] >= mag[k - 1] and mag[k] >= mag[k + 1]
           and mag[k] >= floor and mag[k] > 1e-12]
    idx.sort(key=lambda k: (-mag[k], k))
    return freqs[np.asarray(idx, dtype=int)]


def seed_guess(scan: FringeScan, m: int) -> FringeModelParams:
    """Starting parameters for a fringe fit with m frequency bins.

    Detuning seeds come from the m/2 strongest non-DC peaks of the discrete
    Fourier transform of (data - 1/2); the coherence-time seed from the base
    width of the oscillation envelope; weights are uniform, visibilities 0.5
    and phases 180 degrees.
    """
    if m < 2 or m % 2:
        raise ValueError("m must be a positive even integer")
    n_pairs = m // 2
    if scan.n_points < 2 * m + 2:
        raise ValueError(f"scan too short: need at least {2 * m + 2} samples "
                         f"for m={m}, got {scan.n_points}")
    freqs = _significant_dft_peaks(scan)
    if freqs.size < n_pairs:
        raise ValueError(f"found {freqs.size} significant spectral peaks, "
                         f"need {n_pairs}")
    mus = np.sort(freqs[:n_pairs])

    y = np.abs(scan.probabilities() - 0.5)
    win = max(3, scan.n_points // 50)
    kernel = np.ones(win) / win
    env = np.convolve(y, kernel, mode="same")
    active = env >= 0.1 * env.max()
    base = 2.0 * float(np.max(np.abs(scan.tau2_ps[active])))
    dt = scan.tau2_ps[1] - scan.tau2_ps[0]
    tau_c = max(base, 4.0 * dt)

    pairs = tuple(
        FringePairParams(weight=1.0 / n_pairs, detuning_thz=float(mu),
                         visibility=0.5, phase_deg=180.0)
        for mu in mus
    )
    return FringeModelParams(coherence_time_ps=tau_c, pairs=pairs)


@dataclass
class FitResult:
    """Outcome of a fringe-model fit.

    ``covariance`` is over the free external parameters in the order listed
    by ``param_names``: the coherence time, then per pair (sorted by
    detuning) the detuning, the component amplitude A*V and the phase in
    degrees. The split of an amplitude into weight and visibility adds no
    information beyond the supplied weights or the shared-visibility
    convention, so it carries no separate covariance entries.
    """

    params: FringeModelParams
    covariance: np.ndarray
    param_names: tuple[str, ...]
    residual_norm: float
    n_iterations: int
    converged: bool
    message: str
    seed_params: FringeModelParams
    weights_supplied: bool


def _sigmoid(z):
    """Logistic function, stable against overflow for large |z|."""
    return np.exp(-np.logaddexp(0.0, -z))


def _pack(params: FringeModelParams) -> np.ndarray:
    theta = [np.log(params.coherence_time_ps)]
    for p in params.pairs:
        c = np.clip(p.amplitude, 1e-6, 1.0 - 1e-6)
        theta += [p.detuning_thz, np.log(c / (1.0 - c)), np.deg2rad(p.phase_deg)]
    return np.asarray(theta, dtype=float)


def _unpack(theta: np.ndarray):
    comps = [(float(mu), float(_sigmoid(z)), float(np.rad2deg(phi) % 360.0))
             for mu, z, phi in theta[1:].reshape(-1, 3)]
    return float(np.exp(theta[0])), comps


def _theta_model(tau2_ps: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Fringe model evaluated on the internal parameter vector.

    Layout: theta[0] is the log coherence time, followed by one triple
    (detuning_thz, logit amplitude, phase_rad) per pair, where amplitude
    is the weight-visibility product.
    """
    return _fringe_sum(tau2_ps, np.exp(theta[0]),
                       ((mu, _sigmoid(z), phi)
                        for mu, z, phi in theta[1:].reshape(-1, 3)))


def _theta_jacobian(tau2_ps: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Closed-form derivatives of ``_theta_model``, one column per theta entry.

    At the triangle's edge |2 tau2| = tau_c the envelope has a kink; there
    the outside (zero) derivative is taken, as the model's envelope is zero.
    """
    tau_c = np.exp(theta[0])
    mu, z, phi = theta[1:].reshape(-1, 3).T
    c = _sigmoid(z)
    x = np.abs(2.0 * tau2_ps / tau_c)
    inside = x < 1.0
    env = np.where(inside, 1.0 - x, 0.0)[:, None]
    arg = 2.0 * np.pi * tau2_ps[:, None] * mu + phi
    half_c_cos = 0.5 * c * np.cos(arg)
    half_c_sin_env = 0.5 * c * np.sin(arg) * env
    jac = np.empty((tau2_ps.size, theta.size))
    jac[:, 0] = -np.where(inside, x, 0.0) * half_c_cos.sum(axis=1)
    jac[:, 1::3] = 2.0 * np.pi * tau2_ps[:, None] * half_c_sin_env
    jac[:, 2::3] = -(1.0 - c) * half_c_cos * env
    jac[:, 3::3] = half_c_sin_env
    return jac


def fit_fringe_scan(scan: FringeScan, m: int | None = None,
                    known_weights=None, initial: FringeModelParams | None = None,
                    max_iterations: int = MAX_ITERATIONS) -> FitResult:
    """Weighted least-squares fit of the fringe model to a scan.

    Parameters
    ----------
    scan:
        The data; counts are fitted as probabilities with Poisson weights,
        noiseless scans unweighted.
    m:
        Number of frequency bins, from the source's bins (extracted or
        predicted); the starting point then comes from seed_guess. One of
        ``m`` and ``initial`` is required.
    known_weights:
        Per-pair weights in ascending-detuning order, when an independent
        spectral measurement provides them. The fit itself determines only
        the product A*V per pair; with weights given, visibilities follow
        as V = (A*V)/A, otherwise every pair is assigned the shared
        visibility V = sum(A*V) and weights proportional to the amplitudes.
    initial:
        Explicit starting parameters, in place of the automatic seed.
    max_iterations:
        Accepted LM steps after which the fit stops unconverged.
    """
    if m is None and initial is None:
        raise ValueError("the fit needs the bin count m or initial parameters")
    if initial is not None and m not in (None, 2 * len(initial.pairs)):
        raise ValueError("m disagrees with the initial parameter count")
    seed = initial if initial is not None else seed_guess(scan, m)
    theta0 = _pack(seed)
    n_pairs = len(seed.pairs)
    if scan.n_points <= theta0.size:
        raise ValueError("scan shorter than the free parameter count")

    y = scan.probabilities()
    sig = (scan.uncertainties / scan.counts_per_point if scan.counts_per_point
           else np.ones_like(y))
    t = scan.tau2_ps

    def residual(theta):
        return (_theta_model(t, theta) - y) / sig

    def jacobian(theta):
        return _theta_jacobian(t, theta) / sig[:, None]

    lm_res = levenberg_marquardt(residual, theta0, max_iterations, jacobian)

    # cos(2 pi mu tau + phi) = cos(2 pi (-mu) tau - phi): each negative-mu
    # pair is unpacked as (-mu, -phi), with its covariance rows and columns.
    sign = np.ones(theta0.size)
    sign[1::3] = sign[3::3] = np.where(lm_res.params[1::3] < 0, -1.0, 1.0)
    tau_c, comps = _unpack(lm_res.params * sign)
    order = np.argsort([c[0] for c in comps])
    comps = [comps[k] for k in order]
    amps = np.array([c[1] for c in comps])

    if known_weights is not None:
        weights = np.asarray(known_weights, dtype=float)
        if weights.size != n_pairs:
            raise ValueError("known_weights length must match the pair count")
        if abs(weights.sum() - 1.0) > 1e-3:
            raise ValueError("known_weights must sum to 1")
        if np.any(weights <= 0):
            raise ValueError("known_weights must be positive")
        vis = np.minimum(amps / weights, 1.0)
    else:
        total = float(amps.sum())
        if total <= 0:
            raise ValueError("fit collapsed to zero amplitude everywhere")
        weights = amps / total
        vis = np.full(n_pairs, min(total, 1.0))

    pairs = tuple(
        FringePairParams(weight=float(weights[j]), detuning_thz=comps[j][0],
                         visibility=float(vis[j]), phase_deg=comps[j][2])
        for j in range(n_pairs)
    )
    fitted = FringeModelParams(coherence_time_ps=tau_c, pairs=pairs)

    # Delta-method transform of the internal covariance to external units,
    # with rows permuted into ascending-detuning order.
    n_free = 1 + 3 * n_pairs
    dmat = np.zeros((n_free, n_free))
    dmat[0, 0] = tau_c
    names = ["coherence_time_ps"]
    for new_j, old_j in enumerate(order):
        mu, c, _ = comps[new_j]
        base_new, base_old = 1 + 3 * new_j, 1 + 3 * old_j
        dmat[base_new + 0, base_old + 0] = 1.0
        dmat[base_new + 1, base_old + 1] = c * (1.0 - c)
        dmat[base_new + 2, base_old + 2] = 180.0 / np.pi
        names += [f"detuning_thz_{new_j}", f"amplitude_{new_j}", f"phase_deg_{new_j}"]
    covariance = dmat @ (lm_res.covariance * np.outer(sign, sign)) @ dmat.T

    return FitResult(
        params=fitted,
        covariance=covariance,
        param_names=tuple(names),
        residual_norm=lm_res.residual_norm,
        n_iterations=lm_res.n_iterations,
        converged=lm_res.converged,
        message=lm_res.message,
        seed_params=seed,
        weights_supplied=known_weights is not None,
    )
