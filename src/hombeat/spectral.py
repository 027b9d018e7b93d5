"""Parametric biphoton joint spectral intensity model and its sampled map.

The source model is a product of two Gaussians in ordinary frequency: a
narrow pump factor in the sum frequency nu1+nu2 (energy conservation) and a
broad phase-matching factor in the difference nu1-nu2. Everything downstream
(coincidence spectra, fringe scans, bin prediction) integrates against this
density. ``JointSpectrumMap`` holds a sampled wavelength-domain map, which
``hombeat.hom`` builds on axes set by the model and the point count alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .units import C_NM_PER_PS, FWHM_PER_SIGMA, wavelength_to_frequency

__all__ = [
    "BiphotonSpectrumModel",
    "JointSpectrumMap",
    "detuning_density",
]


@dataclass(frozen=True)
class BiphotonSpectrumModel:
    """Parametric joint spectral intensity of a degenerate pair source.

    Parameters
    ----------
    center_wavelength_nm:
        Degenerate wavelength of signal and idler, nm.
    marginal_fwhm_nm:
        FWHM of the single-photon wavelength marginal, nm.
    pump_fwhm_thz:
        FWHM of the pump (sum-frequency) factor in THz. The default is a
        near-zero CW approximation; detuning-level integrals are exact in
        the CW limit, while 2D maps need a finite value for a visible
        anti-diagonal width.
    """

    center_wavelength_nm: float = 810.0
    marginal_fwhm_nm: float = 20.0
    pump_fwhm_thz: float = 0.001

    def __post_init__(self):
        for name in ("center_wavelength_nm", "marginal_fwhm_nm", "pump_fwhm_thz"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite")
        if self.center_wavelength_nm <= 0:
            raise ValueError("center_wavelength_nm must be positive")
        if self.marginal_fwhm_nm <= 0:
            raise ValueError("marginal_fwhm_nm must be positive")
        if self.pump_fwhm_thz < 0:
            raise ValueError("pump_fwhm_thz must be non-negative")

    @property
    def center_frequency_thz(self) -> float:
        return wavelength_to_frequency(self.center_wavelength_nm)

    @property
    def sum_frequency_thz(self) -> float:
        """Pump (sum) frequency: twice the degenerate frequency."""
        return 2.0 * self.center_frequency_thz

    @property
    def marginal_fwhm_thz(self) -> float:
        """Single-photon marginal FWHM converted to frequency."""
        lam0 = self.center_wavelength_nm
        return C_NM_PER_PS * self.marginal_fwhm_nm / lam0**2

    @property
    def sigma_single_thz(self) -> float:
        """Standard deviation of the single-photon frequency marginal."""
        return self.marginal_fwhm_thz / FWHM_PER_SIGMA

    @property
    def sigma_detuning_thz(self) -> float:
        """Standard deviation of the detuning nu1-nu2.

        For perfectly anti-correlated photons the detuning spread is twice
        the single-photon spread.
        """
        return 2.0 * self.sigma_single_thz

    @property
    def pump_sigma_thz(self) -> float:
        return self.pump_fwhm_thz / FWHM_PER_SIGMA

    def detuning_coherence(self, tau_ps):
        """Fourier transform of the detuning density at delay tau (ps).

        G(tau) = integral of f(d) cos(2 pi d tau) dd
        = exp(-2 pi^2 sigma_d^2 tau^2), exact for any pump width. Every
        delay-domain probability of the interferometer is a combination of
        G at the stage delays.
        """
        tau = np.asarray(tau_ps, dtype=float)
        out = np.exp(-2.0 * np.pi**2 * self.sigma_detuning_thz**2 * tau * tau)
        return float(out) if np.isscalar(tau_ps) else out


@dataclass(frozen=True)
class JointSpectrumMap:
    """Sampled 2D intensity over (signal, idler) wavelength axes.

    ``intensity[i, j]`` is the density (1/nm^2) at ``signal_nm[i]``,
    ``idler_nm[j]``. Axes are strictly increasing.
    """

    signal_nm: np.ndarray
    idler_nm: np.ndarray
    intensity: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.signal_nm, dtype=float)
        i = np.asarray(self.idler_nm, dtype=float)
        z = np.asarray(self.intensity, dtype=float)
        object.__setattr__(self, "signal_nm", s)
        object.__setattr__(self, "idler_nm", i)
        object.__setattr__(self, "intensity", z)
        if z.shape != (s.size, i.size):
            raise ValueError("intensity shape must match axis lengths")
        if np.any(np.diff(s) <= 0) or np.any(np.diff(i) <= 0):
            raise ValueError("wavelength axes must be strictly increasing")
        if not np.all(np.isfinite(z)) or np.any(z < 0):
            raise ValueError("intensity entries must be finite and non-negative")

    def cell_widths(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-sample cell widths (nm) for mass integration, midpoint rule."""
        return _axis_widths(self.signal_nm), _axis_widths(self.idler_nm)

    def cell_masses(self) -> np.ndarray:
        ws, wi = self.cell_widths()
        return self.intensity * ws[:, None] * wi[None, :]


def _axis_widths(axis: np.ndarray) -> np.ndarray:
    edges = np.empty(axis.size + 1)
    edges[1:-1] = 0.5 * (axis[:-1] + axis[1:])
    edges[0] = axis[0] - 0.5 * (axis[1] - axis[0])
    edges[-1] = axis[-1] + 0.5 * (axis[-1] - axis[-2])
    return np.diff(edges)


def detuning_density(model: BiphotonSpectrumModel, detuning_thz):
    """Marginal density of the detuning d = nu1 - nu2, in 1/THz.

    Obtained by integrating the joint intensity over the sum frequency;
    exact for any pump width, including the CW limit. Integrates to 1.
    """
    d = np.asarray(detuning_thz, dtype=float)
    if not np.all(np.isfinite(d)):
        raise ValueError("detuning must be finite")
    sig_d = model.sigma_detuning_thz
    out = np.exp(-d * d / (2.0 * sig_d**2)) / (np.sqrt(2.0 * np.pi) * sig_d)
    return float(out) if np.isscalar(detuning_thz) else out
