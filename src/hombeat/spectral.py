"""Parametric biphoton joint spectral intensity model and its sampled map.

The source model is a product of two Gaussians in ordinary frequency: a
narrow pump factor in the sum frequency nu1+nu2 (energy conservation) and a
broad phase-matching factor in the difference nu1-nu2. Everything downstream
(coincidence spectra, fringe scans, bin prediction) asks the model class
for its detuning factor: density, coherence, map factor and reach (lobe
table and map span), so a source of another shape is one subclass.
``JointSpectrumMap`` holds a sampled wavelength-domain map as its live
cells, which ``hombeat.hom`` builds on axes set by the model and the point
count alone; its dense ``intensity`` is a view made on request.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .units import C_NM_PER_PS, FWHM_PER_SIGMA, wavelength_to_frequency

__all__ = ["BiphotonSpectrumModel", "JointSpectrumMap"]


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
        if self.pump_fwhm_thz < 0:
            raise ValueError("pump_fwhm_thz must be non-negative")
        lam0 = self.center_wavelength_nm  # the widths divide by lam0**2
        with np.errstate(over="ignore"):  # an overflow reads inf: refused
            if not (0 < lam0 * lam0 < np.inf and 0 < self.marginal_fwhm_thz < np.inf
                    and 0 < self.sigma_single_thz
                    and 2 * np.pi**2 * self.sigma_detuning_thz**2 < np.inf):
                raise ValueError("the marginal width in THz must be finite and "
                                 "positive, with a finite detuning variance")

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

    @property
    def detuning_reach_thz(self) -> float:
        """|d| beyond which the spectrum is treated as empty: 5.5 detuning
        standard deviations, where the tail mass is below 4e-8. The lobe
        table of ``predict_bins`` stops there, and the maps of ``hom`` span
        signal and idler frequencies nu0 +- half of it."""
        return 5.5 * self.sigma_detuning_thz

    def detuning_density(self, detuning_thz):
        """Marginal density of the detuning d = nu1 - nu2, in 1/THz.

        Obtained by integrating the joint intensity over the sum frequency;
        exact for any pump width, including the CW limit. Integrates to 1.
        """
        d = np.asarray(detuning_thz, dtype=float)
        if not np.all(np.isfinite(d)):
            raise ValueError("detuning must be finite")
        sig_d = self.sigma_detuning_thz
        out = np.exp(-d * d / (2.0 * sig_d**2)) / (np.sqrt(2.0 * np.pi) * sig_d)
        return float(out) if np.isscalar(detuning_thz) else out

    def phase_matching(self, d: np.ndarray) -> np.ndarray:
        """The map's factor besides each cell's pump integral, at detunings
        d (THz): the phase-matching Gaussian times the joint intensity's norm."""
        sig_d = self.sigma_detuning_thz
        norm = 1.0 / (np.pi * self.pump_sigma_thz * sig_d)
        return norm * np.exp(-d * d / (2.0 * sig_d**2))

    def detuning_coherence(self, tau_ps):
        """Fourier transform of the detuning density at delay tau (ps).

        G(tau) = integral of f(d) cos(2 pi d tau) dd
        = exp(-2 pi^2 sigma_d^2 tau^2), exact for any pump width. Every
        delay-domain probability of the interferometer is a combination of
        G at the stage delays.
        """
        tau = np.asarray(tau_ps, dtype=float)
        with np.errstate(over="ignore"):  # tau^2 = inf gives G = exp(-inf) = 0
            out = np.exp(-2.0 * np.pi**2 * self.sigma_detuning_thz**2 * tau * tau)
        return float(out) if np.isscalar(tau_ps) else out


@dataclass(frozen=True)
class JointSpectrumMap:
    """Sampled 2D intensity over (signal, idler) wavelength axes.

    The map holds only its live cells, in row-major order: ``values[k]`` is
    the density (1/nm^2) at ``signal_nm[rows[k]]``, ``idler_nm[cols[k]]``,
    and every other cell is +0.0. ``intensity`` is the dense view. Axes are
    strictly increasing.
    """

    signal_nm: np.ndarray
    idler_nm: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for name in ("signal_nm", "idler_nm", "rows", "cols", "values"):
            given = np.asarray(getattr(self, name))
            with np.errstate(invalid="ignore"):
                value = given.astype(np.intp if name in ("rows", "cols") else float,
                                    copy=False)
            if value.dtype == np.intp and np.any(value != given):
                raise ValueError(f"{name} must hold integer cell indices")
            object.__setattr__(self, name, value)
        s, i, r, c, v = (self.signal_nm, self.idler_nm, self.rows, self.cols,
                         self.values)
        if not all(a.ndim == 1 and np.isfinite(a).all() and (np.diff(a) > 0).all()
                   for a in (s, i)):
            raise ValueError("wavelength axes must be 1D, finite and strictly increasing")
        if not r.ndim == c.ndim == v.ndim == 1 or not r.size == c.size == v.size:
            raise ValueError("rows, cols and values must be 1D of one length")
        if np.any((r < 0) | (r >= s.size) | (c < 0) | (c >= i.size)):
            raise ValueError("cell index outside the axes")
        if np.any(np.diff(r * i.size + c) <= 0):
            raise ValueError("cells must be unique and in row-major order")
        if not np.all(np.isfinite(v)) or np.any(v < 0):
            raise ValueError("intensity entries must be finite and non-negative")

    @property
    def intensity(self) -> np.ndarray:
        """Read-only dense view: the cells scattered into +0.0 elsewhere."""
        out = np.zeros((self.signal_nm.size, self.idler_nm.size))
        out[self.rows, self.cols] = self.values
        out.flags.writeable = False
        return out

    def cell_widths(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-sample cell widths (nm) for mass integration, midpoint rule."""
        return _axis_widths(self.signal_nm), _axis_widths(self.idler_nm)

    def cell_masses(self) -> np.ndarray:
        """Mass of each stored cell, aligned with ``values``."""
        ws, wi = self.cell_widths()
        return self.values * ws[self.rows] * wi[self.cols]


def _axis_widths(axis: np.ndarray) -> np.ndarray:
    edges = np.empty(axis.size + 1)
    edges[1:-1] = 0.5 * (axis[:-1] + axis[1:])
    edges[0] = axis[0] - 0.5 * (axis[1] - axis[0])
    edges[-1] = axis[-1] + 0.5 * (axis[-1] - axis[-2])
    return np.diff(edges)

