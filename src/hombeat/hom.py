"""Two-photon interference probabilities for the cascaded delay interferometer.

The first delay tau1 modulates the joint spectrum with the anti-bunching
comb; the second delay tau2 produces spatial-beating fringes between the
anti-bunched components. Every delay-domain probability here is a closed
form in G(tau), the Fourier transform of the model's detuning density
(``BiphotonSpectrumModel.detuning_coherence``), which is exact for any pump
width. Only the wavelength-domain maps are sampled on a grid: the exact
pump integral over each cell lives here, the span comes from the model's
``detuning_reach_thz``, and the rest of each cell's value is the model's
``phase_matching`` factor.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .fringes import FringeScan, sample_scan
from .spectral import BiphotonSpectrumModel, JointSpectrumMap
from .units import C_NM_PER_PS

__all__ = [
    "coincidence_spectrum",
    "coincidence_probability",
    "bunching_probability",
    "fringe_probability",
    "fringe_scan",
]

# math.erf(x) is exactly +-1.0 in double precision for |x| >= 5.9216, so
# erf is evaluated only inside this reach.
_ERF_REACH = 6.0

# exp(-z^2 / (2 sig_p^2)) is exactly 0.0 in double precision for
# |z| > 38.61 sig_p, and erf(z / (sig_p sqrt 2)) is +-1 there too, so the
# pump antiderivative T needs its full formula only inside this many sig_p.
_PUMP_REACH = 40.0


def _erf(x: np.ndarray) -> np.ndarray:
    """Elementwise math.erf, called only where the result is not +-1."""
    out = np.sign(x)
    near = np.abs(x) < _ERF_REACH
    out[near] = [math.erf(v) for v in x[near]]
    return out


def _fold_delay(tau_ps: float) -> float:
    if not np.isfinite(tau_ps):
        raise ValueError("tau1 must be finite")
    if tau_ps < 0:
        warnings.warn("negative tau1 folded to |tau1|; the interference "
                      "pattern is symmetric in the delay", stacklevel=3)
        return -tau_ps
    return float(tau_ps)


def coincidence_probability(model: BiphotonSpectrumModel,
                            tau1_ps: float) -> float:
    """Coincidence probability after the first beamsplitter.

    P(tau1) = (1/4) * integral of f * |1 - exp(i*2*pi*d*tau1)|^2
    = (1 - G(tau1)) / 2, which is zero at tau1 = 0 (the interference dip)
    and approaches 1/2 once the delay exceeds the pair coherence time.
    """
    return 0.5 * (1.0 - model.detuning_coherence(_fold_delay(tau1_ps)))


def bunching_probability(model: BiphotonSpectrumModel,
                         tau1_ps: float) -> float:
    """Complementary both-photons-one-port probability, (1 + G(tau1)) / 2."""
    return 0.5 * (1.0 + model.detuning_coherence(_fold_delay(tau1_ps)))


def _first_column(nu_edges: np.ndarray, zp: float, level: float) -> np.ndarray:
    """First column c of each corner row k where z = nu_edges[k] +
    nu_edges[c] - zp < level. z falls along each row, in floats too, so
    searchsorted finds c up to rounding and the loop moves it onto the
    floats the corners are evaluated at."""
    n1 = nu_edges.size

    def below(c):
        return nu_edges + nu_edges[np.clip(c, 0, n1 - 1)] - zp < level
    c = np.searchsorted(-nu_edges, nu_edges - zp - level)
    while (move := ((c < n1) & ~below(c)) * 1 - ((c > 0) & below(c - 1))).any():
        c += move
    return c


def _pump_cell_mass(nu_edges: np.ndarray, zp: float, sig_p: float):
    """Rows, columns and pump masses of the cells in the pump band.

    Cell (i, j) spans [nu_edges[i + 1], nu_edges[i]] x [nu_edges[j + 1],
    nu_edges[j]]; its mass is t00 - t10 - t01 + t11, with t the double
    antiderivative T of exp(-z^2 / (2 sig_p^2)) at its corners, z = nu1 +
    nu2 - zp. Beyond R = _PUMP_REACH sig_p, T is exactly 0.0 (z <= -R) or
    exactly linear, z * 2K with K = sig_p sqrt(pi/2) (z >= R), so a cell
    with all four corners on one side has mass exactly 0. The other cells,
    the band, form one column range per row since z falls along both axes;
    T is taken once per band corner, and each keeps the dense bits.
    """
    def T(z):
        gz = np.exp(-z * z / (2.0 * sig_p**2))
        phi = sig_p * np.sqrt(np.pi / 2.0) * (
            1.0 + _erf(z / (sig_p * np.sqrt(2.0))))
        return z * phi + sig_p**2 * gz

    reach = _PUMP_REACH * sig_p
    n = nu_edges.size - 1
    # Cell (i, j) is in the band when its lowest corner (i + 1, j + 1) lies
    # below R and its highest corner (i, j) not below -R (at -R, T is 0.0).
    lo = np.maximum(_first_column(nu_edges, zp, reach)[1:] - 1, 0)
    hi = np.minimum(_first_column(nu_edges, zp, -reach)[:-1], n)
    # Corner row k holds the top corners of cell row k and the bottom ones
    # of cell row k - 1, from column first[k]; corner (k, c) is t[origin[k] + c].
    first = np.append(lo, lo[-1])
    count = np.maximum(np.insert(hi, 0, hi[0]) + 1 - first, 0)
    origin = np.cumsum(count) - count - first
    k = np.repeat(np.arange(n + 1), count)
    z = nu_edges[k] + nu_edges[np.arange(k.size) - origin[k]] - zp
    t = np.where(z > 0, z * (sig_p * np.sqrt(np.pi / 2.0) * 2.0), 0.0)
    near = np.abs(z) < reach
    t[near] = T(z[near])
    width = np.maximum(hi - lo, 0)
    i = np.repeat(np.arange(n), width)
    j = np.arange(i.size) - (np.cumsum(width) - width - lo)[i]
    top, bottom = origin[i] + j, origin[i + 1] + j
    return i, j, t[top] - t[bottom] - t[top + 1] + t[bottom + 1]


def map_problem(model: BiphotonSpectrumModel, n_points: int = 512) -> str | None:
    """Why no map of ``model`` with ``n_points`` per axis can be built, or None."""
    if n_points < 16:
        return "grid needs at least 16 points per axis"
    nu0, half = model.center_frequency_thz, 0.5 * model.detuning_reach_thz
    if nu0 - half <= 0:
        return "grid frequencies must be positive"
    sig_p = model.pump_sigma_thz
    if sig_p <= 0:
        return "2D maps need pump_fwhm_thz > 0"
    with np.errstate(over="ignore", divide="ignore"):  # inf reads: refused
        if not (0 < sig_p * sig_p < np.inf and
                0 < 1 / (np.pi * sig_p * model.sigma_detuning_thz) < np.inf):
            return ("2D maps need a pump whose sigma_p^2 and map norm "
                    "1/(pi sigma_p sigma_d) are finite and positive")
    low, high = C_NM_PER_PS / (nu0 + half), C_NM_PER_PS / (nu0 - half)
    if high - low <= 2 * (n_points - 1) * math.ulp(high):  # linspace errs <= ulp/2
        return "wavelength span too narrow for a strictly increasing axis"
    return None


def _wavelength_cell_map(model: BiphotonSpectrumModel, n_points: int,
                         detuning_factor) -> JointSpectrumMap:
    """Wavelength-domain map of pump x phase matching x detuning_factor(d).

    The axes span nu0 +- half the model's ``detuning_reach_thz`` in
    n_points uniform wavelength steps. The narrow pump factor is integrated
    exactly over each cell (the map would otherwise alias badly for a
    near-CW pump), while the slowly varying ``model.phase_matching`` and the
    caller-supplied detuning factor are evaluated at cell centers.

    Only the pump band is built (``_pump_cell_mass``), and the map stores
    just its cells of positive pump mass, in the band's row-major order;
    cells beyond the band, whose pump mass is exactly 0, and band cells
    whose mass is not positive read +0.0 in the dense view. Every stored
    cell keeps the bits of the dense cell integral.
    """
    if problem := map_problem(model, n_points):
        raise ValueError(problem)
    nu0 = model.center_frequency_thz
    half = 0.5 * model.detuning_reach_thz
    sig_p = model.pump_sigma_thz

    lam = np.linspace(C_NM_PER_PS / (nu0 + half), C_NM_PER_PS / (nu0 - half),
                      n_points)
    step = lam[1] - lam[0]
    edges = np.concatenate([[lam[0] - 0.5 * step],
                            0.5 * (lam[:-1] + lam[1:]),
                            [lam[-1] + 0.5 * step]])
    # Decreasing, so cell k spans [nu_edges[k + 1], nu_edges[k]].
    nu_edges = C_NM_PER_PS / edges

    i, j, pump_mass = _pump_cell_mass(nu_edges, model.sum_frequency_thz, sig_p)
    live = pump_mass > 0
    i, j = i[live], j[live]
    # Midpoints in frequency, not c/lambda_center: midpoint evaluation makes
    # the per-cell quadrature error telescope away in the total mass.
    nu_c = 0.5 * (nu_edges[1:] + nu_edges[:-1])
    d = nu_c[i] - nu_c[j]
    values = pump_mass[live] * model.phase_matching(d) * detuning_factor(d)
    return JointSpectrumMap(signal_nm=lam, idler_nm=lam.copy(), rows=i, cols=j,
                            values=values / (step * step))


def jsi_map(model: BiphotonSpectrumModel,
            n_points: int = 512) -> JointSpectrumMap:
    """Wavelength-domain map of the bare joint spectral intensity.

    No interferometer applied; the map integrates to 1 up to grid
    truncation.
    """
    return _wavelength_cell_map(model, n_points, lambda d: np.ones_like(d))


def coincidence_spectrum(model: BiphotonSpectrumModel, tau1_ps: float,
                         n_points: int = 512) -> JointSpectrumMap:
    """Joint spectrum of coincidence events at delay tau1.

    Returns the wavelength-domain map whose entries are the joint intensity
    multiplied by the anti-bunching factor (1 - cos(2*pi*d*tau1))/2.
    """
    tau1 = _fold_delay(tau1_ps)
    with np.errstate(over="ignore"):  # an overflow reads inf: refused
        phase = 2.0 * np.pi * model.detuning_reach_thz * tau1
    if not np.isfinite(phase):
        raise ValueError("the comb phase 2 pi d tau1 over the map span is not "
                         f"finite at tau1 = {tau1:g} ps")
    return _wavelength_cell_map(
        model, n_points,
        lambda d: 0.5 * (1.0 - np.cos(2.0 * np.pi * d * tau1)))


def fringe_probability(model: BiphotonSpectrumModel, tau1_ps: float,
                       tau2_ps):
    """Opposite-port coincidence probability of the cascaded interferometer.

    Built from the four cascaded two-photon amplitudes: the first stage
    weights each detuning by |1 - exp(i*2*pi*d*tau1)|^2 (anti-bunching),
    the second by |1 + exp(i*2*pi*d*tau2)|^2. After purification the result
    is normalized by the first-stage coincidence probability:

        P = 1/2 [1 + (G(tau2) - G(tau2 - tau1)/2 - G(tau2 + tau1)/2)
                     / (1 - G(tau1))],

    giving 1 at tau2 = 0, 1/4 at tau2 = +-tau1 and 1/2 far outside the
    coherence time. ``tau2_ps`` may be a scalar or an array.
    """
    tau1 = _fold_delay(tau1_ps)
    norm = 1.0 - model.detuning_coherence(tau1)
    if norm <= 0:
        raise ValueError(f"fringe probability undefined at tau1={tau1}: the "
                         "first stage has no anti-bunched component")
    tau2 = np.asarray(tau2_ps, dtype=float)
    if not np.all(np.isfinite(tau2)):
        raise ValueError("tau2 must be finite")
    g = model.detuning_coherence
    vals = 0.5 * (1.0 + (g(tau2) - 0.5 * g(tau2 - tau1) - 0.5 * g(tau2 + tau1))
                  / norm)
    return float(vals) if np.isscalar(tau2_ps) else vals


def fringe_scan(model: BiphotonSpectrumModel, tau1_ps: float,
                tau2_min_ps: float = -0.75, tau2_max_ps: float = 0.75,
                n_points: int = 601) -> FringeScan:
    """Noiseless fringe probabilities on a uniform tau2 grid."""
    scan, _ = sample_scan(lambda tau2: fringe_probability(model, tau1_ps, tau2),
                          tau2_min_ps, tau2_max_ps, n_points)
    return scan
