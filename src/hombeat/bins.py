"""Frequency-bin discretization: comb prediction and map extraction.

A first-stage delay tau1 leaves the anti-bunched spectrum
2 rho(d) sin^2(pi d tau1), which vanishes at the comb zeros d = k/tau1.
Each lobe between two zeros defines one pair of frequency bins at
nu0 +- mu/2, mu its centroid. Prediction and extraction fill one lobe
table (volume per side, first moment): by quadrature of the model's
``detuning_density``, or from a sampled 2D map whose cells are cut at
the zeros of a tau1 read off the map itself. The module also carries
the small bookkeeping around bin states (coherence time).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import BiphotonSpectrumModel, JointSpectrumMap
from .units import C_NM_PER_PS, frequency_to_wavelength

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

    def __post_init__(self):
        if self.index_j < 1:
            raise ValueError("pair index is 1-based")
        if not all(map(math.isfinite, (self.detuning_thz, self.weight, self.balance))):
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
    """Bins extracted from a 2D map, with per-pair lobe widths and tau1."""

    state: DiscreteState
    lobe_fwhm_nm: tuple[float, ...]
    tau1_ps: float


def predict_bins(model: BiphotonSpectrumModel, tau1_ps: float,
                 threshold: float = 0.6) -> DiscreteState:
    """Predict the discrete bin state produced by a first-stage delay.

    Fills the lobe table from w(d) = g(d) (1 - cos(2 pi d tau1)), g the
    model's ``detuning_density``, for lobes k = 0 .. ceil(R tau1) with R
    its ``detuning_reach_thz``. A lobe centroid, the oscillation frequency
    a fringe measurement sees, sits slightly below the bare comb line
    (2k+1)/(2 tau1), as the envelope tilts the lobe. Both factors of w are
    even in d, so the two sides of a lobe carry the same weight and every
    balance is exactly 0.5.
    """
    if not np.isfinite(tau1_ps):
        raise ValueError("tau1 must be finite")
    tau1 = abs(float(tau1_ps))
    if tau1 == 0:
        raise ValueError("no discrete structure at zero delay")
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie strictly between 0 and 1")

    with np.errstate(over="ignore"):  # an overflow reads inf: refused
        lobes = model.detuning_reach_thz * tau1
    if not np.isfinite(lobes):
        raise ValueError(f"the lobe count at tau1 = {tau1:g} ps is beyond "
                         "the float range")
    k = np.arange(max(2, int(np.ceil(lobes)) + 1))
    vol = np.zeros(k.size)
    moment = np.zeros(k.size)
    # One Gauss-Legendre pass over all lobes at once. At fraction s of the
    # way through a lobe the comb factor 1 - cos(2 pi s) is the same for
    # every lobe; the common Jacobian 1/(2 tau1) cancels in every ratio.
    for x, gl_weight in zip(*_LOBE_RULE):
        s = 0.5 * (x + 1.0)
        d = (k + s) / tau1
        share = (gl_weight * (1.0 - np.cos(2.0 * np.pi * s))
                 * model.detuning_density(d))
        vol += share
        moment += share * d

    return _lobe_state(0.5 * vol, 0.5 * vol, moment, threshold,
                       model.center_wavelength_nm)


def _lobe_state(vol_pos: np.ndarray, vol_neg: np.ndarray, moment: np.ndarray,
                threshold: float, center_nm: float) -> DiscreteState:
    """The bin state of a lobe table: per lobe k, between the comb zeros
    k/tau1 and (k+1)/tau1, its volumes at positive and negative detuning
    and the first moment of |d| over both.

    Each lobe of at least ``threshold`` times the largest volume becomes a
    pair at its centroid, weighted by its share of the kept volume, with
    its positive side's share as balance.
    """
    vol = vol_pos + vol_neg
    kept = np.nonzero(vol >= threshold * vol.max())[0]
    if np.any(vol_pos[kept] * vol_neg[kept] == 0):
        raise ExtractionError("a kept lobe has no mirror partner: all its "
                              "volume lies on one side of zero detuning")
    vol = vol[kept]
    table = zip((moment[kept] / vol).tolist(), (vol / vol.sum()).tolist(),
                (vol_pos[kept] / vol).tolist())
    pairs = tuple(FrequencyBinPair(j + 1, mu, w, b)
                  for j, (mu, w, b) in enumerate(table))
    return DiscreteState(pairs=pairs, center_wavelength_nm=center_nm)


# The |detuning| histogram and its zero padding, whose FFT finds the dip,
# and the delays of the direct transform across one FFT step either side.
_HIST_BINS, _PAD, _REFINE_POINTS = 1024, 8, 25
# A comb's transform dips to -1/2 at tau1 once G(tau1) is small.
_DIP_LEVEL = -0.4
# Frequency steps of the map's axes that one lobe, 1/tau1 wide, must span.
_RESOLUTION_STEPS = 5


def detuning_profile(map_: JointSpectrumMap):
    """Estimate tau1 from a map: returns (detunings_thz, masses, tau1_ps).

    The cells' cosine transform C(tau) = sum m cos(2 pi d tau) / sum m is
    2 (P(tau) - 1/2) of the second-stage HOM scan (its Wiener-Khinchin
    form), and it dips to about -1/2 at tau1. The estimate is the dip's
    minimum, found by an FFT of a histogram of |d| and placed by a direct
    transform of the cells and a parabola vertex. It lies above tau1 where
    G(tau1) is not negligible (+7 % at 0.05 ps, where G = 0.05); the lobe
    centroids move only 3e-4 there. Delays are searched only up to
    1/(5 step), ``step`` being the coarser axis' mean frequency step, and
    a transform that stays above -0.4 up to there raises ExtractionError.
    """
    masses = map_.cell_masses()
    if masses.size == 0 or masses.max() <= 0:
        raise ExtractionError("map carries no intensity mass")
    d = (C_NM_PER_PS / map_.signal_nm[map_.rows]
         - C_NM_PER_PS / map_.idler_nm[map_.cols])
    abs_d = np.abs(d)
    width = abs_d.max() / _HIST_BINS
    if width == 0:
        raise ExtractionError("map carries no mass off zero detuning")
    step = max(np.ptp(C_NM_PER_PS / axis) / (axis.size - 1)
               for axis in (map_.signal_nm, map_.idler_nm))
    tau_max = 1.0 / (_RESOLUTION_STEPS * step)

    # Bin b holds |d| near (b + 1/2) width, so the transform at delay
    # j dtau is the rfft's entry j turned by half a bin.
    hist = np.bincount(np.minimum(abs_d / width, _HIST_BINS - 1).astype(np.intp),
                       masses, minlength=_HIST_BINS)
    n_fft = _PAD * _HIST_BINS
    dtau = 1.0 / (n_fft * width)
    j = np.arange(min(int(tau_max / dtau), n_fft // 2) + 1)
    spectrum = np.fft.rfft(hist, n_fft)[:j.size]
    j0 = int(np.argmin((spectrum * np.exp(-1j * np.pi * j / n_fft)).real))

    # One delay at a time keeps the refine's memory at O(cells).
    taus = np.linspace(j0 - 1, j0 + 1, _REFINE_POINTS) * dtau
    dip = np.array([masses @ np.cos(2 * np.pi * t * abs_d) for t in taus]) / masses.sum()
    i = min(max(int(np.argmin(dip)), 1), _REFINE_POINTS - 2)
    if j0 == j[-1] or dip[i] >= _DIP_LEVEL:
        raise ExtractionError(
            f"no detectable comb: the cells' cosine transform stays above "
            f"{_DIP_LEVEL} up to {tau_max:.3f} ps, the grid's resolution "
            "limit; the map is featureless (tau1 too small) or its comb is "
            "finer than the grid resolves")
    lo, mid, hi = dip[i - 1:i + 2]
    shift = 0.5 * (lo - hi) / (lo - 2.0 * mid + hi)
    return d, masses, float(taus[i] + shift * (taus[1] - taus[0]))


def extract_bins_from_map(map_: JointSpectrumMap,
                          threshold: float = 0.6) -> ExtractionResult:
    """Extract the bin state from a sampled 2D coincidence spectrum.

    Estimates tau1 from the map (``detuning_profile``) and cuts its cells
    at the comb zeros: lobe k holds the cells with k <= |d| tau1 < k + 1,
    and their sums fill the lobe table ``predict_bins`` fills from the
    model. Every pair's width is the half maximum of sin^2(pi d tau1).
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie strictly between 0 and 1")
    d, masses, tau1 = detuning_profile(map_)
    abs_d, side = np.abs(d), d > 0
    k = (abs_d * tau1).astype(np.intp)
    size = int(k.max()) + 1
    vol_pos = np.bincount(k[side], masses[side], minlength=size)
    vol_neg = np.bincount(k[~side], masses[~side], minlength=size)
    moment = np.bincount(k, masses * abs_d, minlength=size)

    # Degenerate frequency: the mass-weighted mean of (nu_s + nu_i)/2.
    nu_sum = (C_NM_PER_PS / map_.signal_nm[map_.rows]
              + C_NM_PER_PS / map_.idler_nm[map_.cols])
    lam0 = frequency_to_wavelength(0.5 * float(masses @ nu_sum) / masses.sum())

    state = _lobe_state(vol_pos, vol_neg, moment, threshold, lam0)
    # A bin spans half the lobe's 1/(2 tau1), in wavelength at the center.
    fwhm = lam0 ** 2 / (4.0 * C_NM_PER_PS * tau1)
    return ExtractionResult(state, (fwhm,) * len(state.pairs), tau1)


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
