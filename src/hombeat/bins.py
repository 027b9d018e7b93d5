"""Frequency-bin discretization: comb prediction and map extraction.

A first-stage delay tau1 suppresses coincidences except near the
anti-bunching comb, detunings d with (1 - cos(2 pi d tau1)) maximal. Each
surviving comb lobe defines one pair of frequency bins at nu0 +- mu/2.
This module predicts those bins from the source model, extracts them from
a sampled 2D coincidence spectrum, and carries the small bookkeeping
around bin states (coherence time).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .spectral import BiphotonSpectrumModel, JointSpectrumMap, detuning_density
from .units import C_NM_PER_PS, FWHM_PER_SIGMA, frequency_to_wavelength

__all__ = [
    "FrequencyBinPair",
    "DiscreteState",
    "ExtractionError",
    "ExtractionResult",
    "predict_bins",
    "extract_bins_from_map",
    "detuning_profile",
    "coherence_time",
    "coherence_time_from_delay",
]

# Time-bandwidth constant for a Gaussian-like single lobe: tau_c = TBP / df.
GAUSSIAN_TIME_BANDWIDTH = 0.885

# Gauss-Legendre nodes and weights on [-1, 1] for the lobe integrals of
# predict_bins; 64 nodes agree with 32 within 5e-15.
_LOBE_RULE = np.polynomial.legendre.leggauss(32)


@dataclass(frozen=True)
class FrequencyBinPair:
    """One pair of frequency bins, symmetric about the degenerate frequency.

    ``balance`` is the probability weight of the (signal-high, idler-low)
    bin relative to its mirror; 0.5 for a symmetric source.
    """

    index_j: int
    detuning_thz: float
    weight: float
    balance: float
    phase_deg: float = 180.0

    def __post_init__(self):
        if self.index_j < 1:
            raise ValueError("pair index is 1-based")
        vals = (self.detuning_thz, self.weight, self.balance, self.phase_deg)
        if not all(map(math.isfinite, vals)):
            raise ValueError("pair parameters must be finite")
        if self.detuning_thz <= 0:
            raise ValueError("detuning must be positive")
        if self.weight < 0:
            raise ValueError("weight must be non-negative")
        if not 0.0 <= self.balance <= 1.0:
            raise ValueError("balance must lie in [0, 1]")


@dataclass(frozen=True)
class DiscreteState:
    """m-dimensional frequency-bin state: m/2 pairs in ascending detuning."""

    pairs: tuple[FrequencyBinPair, ...]
    center_wavelength_nm: float

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))
        if len(self.pairs) == 0:
            raise ValueError("state needs at least one bin pair")
        if self.center_wavelength_nm <= 0 or not np.isfinite(self.center_wavelength_nm):
            raise ValueError("center wavelength must be positive and finite")
        mus = [p.detuning_thz for p in self.pairs]
        if any(b <= a for a, b in zip(mus, mus[1:])):
            raise ValueError("pairs must be in strictly ascending detuning order")
        total = sum(p.weight for p in self.pairs)
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"pair weights must sum to 1 within 1e-6, got {total!r}")

    @property
    def dimension_m(self) -> int:
        return 2 * len(self.pairs)

    def detunings_thz(self) -> np.ndarray:
        return np.array([p.detuning_thz for p in self.pairs])

    def weights(self) -> np.ndarray:
        return np.array([p.weight for p in self.pairs])

    def balances(self) -> np.ndarray:
        return np.array([p.balance for p in self.pairs])


class ExtractionError(RuntimeError):
    """Raised when a map holds no usable lobe structure."""


@dataclass(frozen=True)
class ExtractionResult:
    """Bins extracted from a 2D map, with per-pair lobe widths."""

    state: DiscreteState
    lobe_fwhm_nm: tuple[float, ...]
    kde_bandwidth_thz: float


def predict_bins(model: BiphotonSpectrumModel, tau1_ps: float,
                 threshold: float = 0.6) -> DiscreteState:
    """Predict the discrete bin state produced by a first-stage delay.

    The anti-bunched spectral weight w(d) = g(d) (1 - cos(2 pi d tau1))
    splits into lobes between consecutive zeros at d = k/tau1. Each lobe
    with integrated weight at least ``threshold`` times the strongest one
    becomes a bin pair; its detuning is the lobe centroid (the effective
    oscillation frequency a fringe measurement sees, slightly below the
    bare comb line (2k+1)/(2 tau1) because the envelope tilts the lobe).
    Both factors of w are even in d, so each lobe's mirror at -d carries
    the same weight and every pair has balance exactly 0.5.
    """
    if not np.isfinite(tau1_ps):
        raise ValueError("tau1 must be finite")
    tau1 = abs(float(tau1_ps))
    if tau1 == 0:
        raise ValueError("no discrete structure at zero delay")
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie strictly between 0 and 1")

    sig_d = model.sigma_detuning_thz
    k = np.arange(max(2, int(np.ceil(6.0 * sig_d * tau1)) + 1))
    vol = np.zeros(k.size)
    moment = np.zeros(k.size)
    # One Gauss-Legendre pass over all lobes at once. At fraction s of the
    # way through a lobe the comb factor 1 - cos(2 pi s) is the same for
    # every lobe; the common Jacobian 1/(2 tau1) cancels in every ratio.
    for x, gl_weight in zip(*_LOBE_RULE):
        s = 0.5 * (x + 1.0)
        d = (k + s) / tau1
        share = (gl_weight * (1.0 - np.cos(2.0 * np.pi * s))
                 * detuning_density(model, d))
        vol += share
        moment += share * d

    kept = vol >= threshold * vol.max()
    centroids = (moment[kept] / vol[kept]).tolist()
    weights = (vol[kept] / vol[kept].sum()).tolist()
    pairs = tuple(
        FrequencyBinPair(index_j=j + 1, detuning_thz=mu, weight=w, balance=0.5)
        for j, (mu, w) in enumerate(zip(centroids, weights))
    )
    return DiscreteState(pairs=pairs,
                         center_wavelength_nm=model.center_wavelength_nm)


# Beyond this many bandwidths the Gaussian kernel is below exp(-32) of its
# peak, under the rounding of the profile.
_KERNEL_REACH = 8.0

# Points of the detuning profile, across +-1.02 times the widest detuning.
_PROFILE_POINTS = 1024


def detuning_profile(map_: JointSpectrumMap):
    """Mass-weighted kernel density profile of the map over detuning.

    Cell masses are spread with a Gaussian kernel whose bandwidth h is twice
    the median spacing of the occupied detunings (at least two profile
    steps), which fills the gaps of the discrete sampling without moving
    lobe centroids. Each occupied cell reaches only the profile points
    within 8 h of it, where the kernel has fallen below exp(-32) of its
    peak. Returns (detunings_thz, density, bandwidth_thz).
    """
    masses = map_.cell_masses()
    if masses.size == 0 or masses.max() <= 0:
        raise ExtractionError("map carries no intensity mass")
    d = (C_NM_PER_PS / map_.signal_nm[map_.rows]
         - C_NM_PER_PS / map_.idler_nm[map_.cols])
    keep = masses > 1e-12 * masses.max()
    d, masses = d[keep], masses[keep]

    dmax = np.abs(d).max() * 1.02
    if dmax == 0:
        raise ExtractionError("map carries no mass off zero detuning")
    x = np.linspace(-dmax, dmax, _PROFILE_POINTS)
    dx = x[1] - x[0]
    spacings = np.diff(np.sort(d))
    spacings = spacings[spacings > 1e-9]
    med = np.median(spacings) if spacings.size else 0.0
    h = max(2.0 * med, 2.0 * dx)

    # Each cell reaches the profile points within `reach` steps of its
    # nearest one. The loop runs over those offsets, so memory stays
    # O(cells); points past either end are dropped, not clipped, so no
    # mass lands twice. No offset beyond _PROFILE_POINTS - 1 can land inside.
    reach = min(int(np.ceil(_KERNEL_REACH * h / dx)) + 1, _PROFILE_POINTS - 1)
    nearest = np.rint((d - x[0]) / dx).astype(int)
    y = np.zeros(_PROFILE_POINTS)
    for k in range(-reach, reach + 1):
        j = nearest + k
        inside = (j >= 0) & (j < _PROFILE_POINTS)
        j = j[inside]
        y += np.bincount(j, masses[inside]
                         * np.exp(-0.5 * ((x[j] - d[inside]) / h) ** 2),
                         minlength=_PROFILE_POINTS)
    y /= h * np.sqrt(2.0 * np.pi)
    return x, y, h


def _log_parabola(x: np.ndarray, y: np.ndarray, frac: float = 0.35):
    """Gaussian fit of a single lobe via a parabola in log density.

    Uses only points at or above ``frac`` of the lobe maximum, where the
    log of a Gaussian-plus-perturbation is still well conditioned.
    Returns (center, sigma) or None when the lobe has no curvature.
    """
    m = y >= frac * y.max()
    xs, logs = x[m], np.log(y[m])
    a = np.vstack([np.ones_like(xs), xs, xs * xs]).T
    c0, c1, c2 = np.linalg.lstsq(a, logs, rcond=None)[0]
    if c2 >= 0:
        return None
    return -c1 / (2.0 * c2), np.sqrt(-1.0 / (2.0 * c2))


def _extract_lobes(x: np.ndarray, y: np.ndarray, h: float) -> list[dict]:
    """Locate and fit lobes on one (positive-detuning) side of a profile.

    Peaks are 5-point local maxima above 2% of the side maximum; peaks
    closer than 5 samples merge into the taller one. Each peak's window
    runs between the neighboring inter-peak minima, tightened to where the
    profile falls below 1e-3 of the peak so far tails never leak across.
    The reported sigma removes the KDE bandwidth in quadrature.
    """
    if y.max() <= 0:
        return []
    core = y[2:-2]
    peaks = (2 + np.nonzero((core == sliding_window_view(y, 5).max(axis=1))
                            & (core > 0.02 * y.max()))[0]).tolist()
    merged: list[int] = []
    for i in peaks:
        if merged and i - merged[-1] < 5:
            if y[i] > y[merged[-1]]:
                merged[-1] = i
        else:
            merged.append(i)

    lobes = []
    for j, i in enumerate(merged):
        lo = 0 if j == 0 else int(np.argmin(y[merged[j - 1]:i])) + merged[j - 1]
        hi = y.size - 1 if j == len(merged) - 1 \
            else int(np.argmin(y[i:merged[j + 1]])) + i
        drop = np.nonzero(y[i:hi + 1] < 1e-3 * y[i])[0]
        if drop.size:
            hi = i + drop[0]
        drop = np.nonzero(y[lo:i + 1][::-1] < 1e-3 * y[i])[0]
        if drop.size:
            lo = i - drop[0]
        fit = _log_parabola(x[lo:hi + 1], y[lo:hi + 1])
        # A fit without curvature, or one whose vertex falls on the other
        # side of zero detuning, is no lobe of this side.
        if fit is None or fit[0] <= 0:
            continue
        center, sigma = fit
        sigma = np.sqrt(max(sigma * sigma - h * h, 1e-12))
        vol = float(np.trapezoid(y[lo:hi + 1], x[lo:hi + 1]))
        lobes.append({"mu": float(center), "sigma": float(sigma), "vol": vol})
    return lobes


def extract_bins_from_map(map_: JointSpectrumMap,
                          threshold: float = 0.6) -> ExtractionResult:
    """Extract the bin state from a sampled 2D coincidence spectrum.

    Works on the detuning profile of the map: lobes are located on each
    side of zero detuning independently, Gaussian-fitted, mirror-matched
    into pairs, and thresholded on combined pair volume. Balances come
    from the volume ratio of the two sides of each pair.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie strictly between 0 and 1")
    x, y, h = detuning_profile(map_)
    pos_mask = x > 0
    pos = _extract_lobes(x[pos_mask], y[pos_mask], h)
    neg = _extract_lobes(-x[~pos_mask][::-1], y[~pos_mask][::-1], h)
    if not pos or not neg:
        raise ExtractionError(
            "no detectable lobes in the detuning profile; the map is either "
            "featureless (tau1 too small) or carries no mass off the diagonal")

    pos.sort(key=lambda l: l["mu"])
    matched = []
    neg_free = list(neg)
    for lp in pos:
        if not neg_free:
            raise ExtractionError(
                f"lobe at +{lp['mu']:.3f} THz has no mirror partner")
        ln = min(neg_free, key=lambda l: abs(l["mu"] - lp["mu"]))
        if abs(ln["mu"] - lp["mu"]) > 0.5 * lp["mu"]:
            raise ExtractionError(
                f"lobe at +{lp['mu']:.3f} THz has no mirror partner "
                f"(closest candidate at {ln['mu']:.3f} THz)")
        neg_free.remove(ln)
        matched.append((lp, ln))

    vols = np.array([lp["vol"] + ln["vol"] for lp, ln in matched])
    keep = vols >= threshold * vols.max()
    matched = [m for m, k in zip(matched, keep) if k]

    # Degenerate frequency from the mass-weighted mean sum frequency, taken
    # over the two marginals, each summed from the cells.
    ws, wi = map_.cell_widths()
    rows, cols, values = map_.rows, map_.cols, map_.values
    signal_mass = ws * np.bincount(rows, values * wi[cols], minlength=ws.size)
    idler_mass = wi * np.bincount(cols, ws[rows] * values, minlength=wi.size)
    nu0 = float(0.5 * (signal_mass @ (C_NM_PER_PS / map_.signal_nm)
                       + idler_mass @ (C_NM_PER_PS / map_.idler_nm))
                / signal_mass.sum())
    lam0 = frequency_to_wavelength(nu0)

    total = sum(lp["vol"] + ln["vol"] for lp, ln in matched)
    pairs = []
    fwhms = []
    for j, (lp, ln) in enumerate(matched):
        mu = 0.5 * (lp["mu"] + ln["mu"])
        sigma = 0.5 * (lp["sigma"] + ln["sigma"])
        pairs.append(FrequencyBinPair(
            index_j=j + 1, detuning_thz=mu,
            weight=(lp["vol"] + ln["vol"]) / total,
            balance=lp["vol"] / (lp["vol"] + ln["vol"])))
        # One bin's frequency spread is half the detuning spread; convert
        # its FWHM to wavelength at the band center.
        fwhms.append(FWHM_PER_SIGMA * 0.5 * sigma * lam0 ** 2 / C_NM_PER_PS)

    state = DiscreteState(pairs=tuple(pairs), center_wavelength_nm=lam0)
    return ExtractionResult(state=state, lobe_fwhm_nm=tuple(fwhms),
                            kde_bandwidth_thz=h)


def coherence_time(source) -> float:
    """Coherence time (ps) from a bandwidth or a discrete state.

    Accepts either a single-bin FWHM bandwidth in THz, or a DiscreteState,
    whose innermost pair fixes the effective single-photon bandwidth as
    half its detuning. Uses the Gaussian time-bandwidth relation
    tau_c = 0.885 / df.
    """
    if isinstance(source, DiscreteState):
        df = 0.5 * source.pairs[0].detuning_thz
    else:
        df = float(source)
        if not np.isfinite(df):
            raise ValueError("bandwidth must be finite")
    if df <= 0:
        raise ValueError("bandwidth must be positive")
    return GAUSSIAN_TIME_BANDWIDTH / df


def coherence_time_from_delay(tau1_ps: float) -> float:
    """Predicted coherence time for a first-stage delay tau1.

    The innermost (bare) comb line sits at detuning 1/(2 tau1), putting
    each of its two bins 1/(4 tau1) from the degenerate frequency; that
    offset is the effective single-photon bandwidth, so
    tau_c = 0.885 * 4 * tau1 = 3.54 * tau1.
    """
    if not np.isfinite(tau1_ps) or tau1_ps <= 0:
        raise ValueError("tau1 must be positive")
    return GAUSSIAN_TIME_BANDWIDTH * 4.0 * tau1_ps
