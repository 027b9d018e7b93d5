import math
import tracemalloc

import numpy as np
import pytest

from hombeat import hom
from hombeat import (
    BiphotonSpectrumModel,
    bunching_probability,
    coincidence_probability,
    coincidence_spectrum,
    fringe_probability,
    fringe_scan,
)
from hombeat.spectral import JointSpectrumMap
from hombeat.units import C_NM_PER_PS

from conftest import live_cells


def _trapezoid_oracle(model, weight):
    """Trapezoid quadrature of model.detuning_density(d) * weight(d) over d.

    12001 points across +-7.5 detuning standard deviations keep the
    truncation and Fourier ripple of the cosine transforms below 1e-12.
    ``weight`` maps the grid to an array whose last axis is the grid.
    """
    half = 7.5 * model.sigma_detuning_thz
    d = np.linspace(-half, half, 12001)
    return np.trapezoid(model.detuning_density(d) * weight(d), d, axis=-1)


def _math_erf_everywhere(x):
    """math.erf on every element: the map's erf before it was restricted."""
    return np.frompyfunc(math.erf, 1, 1)(x).astype(float)


def _cell_edges(model, n_points):
    """Wavelength samples, their step, and each cell's low and high
    frequency edge, on axes spanning the degenerate frequency +- 5.5
    single-photon standard deviations."""
    nu0 = model.center_frequency_thz
    half = 5.5 * model.sigma_single_thz
    lam = np.linspace(C_NM_PER_PS / (nu0 + half), C_NM_PER_PS / (nu0 - half),
                      n_points)
    step = lam[1] - lam[0]
    edges = np.concatenate([[lam[0] - 0.5 * step],
                            0.5 * (lam[:-1] + lam[1:]),
                            [lam[-1] + 0.5 * step]])
    nu_edges = C_NM_PER_PS / edges
    lo = np.minimum(nu_edges[1:], nu_edges[:-1])
    hi = np.maximum(nu_edges[1:], nu_edges[:-1])
    return lam, step, lo, hi


def _corner_z(model, n_points):
    """z = nu1 + nu2 - zp at the four corners of every cell, as the dense
    oracle evaluates them."""
    _, _, lo, hi = _cell_edges(model, n_points)
    zp = model.sum_frequency_thz
    return [a[:, None] + b[None, :] - zp
            for a in (lo, hi) for b in (lo, hi)]


def _dense_cell_map(model, n_points, detuning_factor):
    """Bit-level oracle for the map: the dense cell integral.

    T's full formula (exp and erf) at all four corners of every cell, each
    cell on its own, and every factor on the whole grid before clipping
    the product at zero.
    """
    sig1 = model.sigma_single_thz
    sig_p = model.pump_sigma_thz
    lam, step, lo, hi = _cell_edges(model, n_points)

    def T(z):
        gz = np.exp(-z * z / (2.0 * sig_p**2))
        phi = sig_p * np.sqrt(np.pi / 2.0) * (
            1.0 + hom._erf(z / (sig_p * np.sqrt(2.0))))
        return z * phi + sig_p**2 * gz

    zp = model.sum_frequency_thz
    pump_mass = (T(hi[:, None] + hi[None, :] - zp)
                 - T(lo[:, None] + hi[None, :] - zp)
                 - T(hi[:, None] + lo[None, :] - zp)
                 + T(lo[:, None] + lo[None, :] - zp))
    nu_c = 0.5 * (lo + hi)
    d = nu_c[:, None] - nu_c[None, :]
    norm = 1.0 / (2.0 * np.pi * sig_p * sig1)
    slow = norm * np.exp(-d * d / (8.0 * sig1**2))
    mass = pump_mass * slow * detuning_factor(d)
    widths = np.empty(lam.size)
    widths[:] = step
    intensity = np.maximum(mass, 0.0) / (widths[:, None] * widths[None, :])
    return JointSpectrumMap(signal_nm=lam, idler_nm=lam.copy(),
                            **live_cells(intensity))


def _same_bits(a, b, keys=("signal_nm", "idler_nm", "intensity")):
    return all(np.array_equal(getattr(a, k).view(np.int64),
                              getattr(b, k).view(np.int64))
               for k in keys)


def _cos(d, tau):
    return np.cos(2.0 * np.pi * np.multiply.outer(tau, d))


class TestCoincidenceProbability:
    def test_dip_at_zero_delay(self, model):
        assert abs(coincidence_probability(model, 0.0)) < 1e-9

    def test_distinguishable_limit(self, model):
        assert coincidence_probability(model, 10.0) == pytest.approx(0.5,
                                                                     abs=0.01)

    def test_monotone_rise_from_dip(self, model):
        taus = np.linspace(0.0, 1.0, 101)
        probs = np.array([coincidence_probability(model, t) for t in taus])
        assert np.all(np.diff(probs) >= -1e-12)

    def test_channel_weights_sum_to_one(self, model):
        for t in (0.0, 0.05, 0.12, 0.27, 0.37, 1.0, 3.0):
            total = (coincidence_probability(model, t)
                     + bunching_probability(model, t))
            assert total == pytest.approx(1.0, abs=1e-6)


class TestCoincidenceSpectrum:
    def test_zero_on_diagonal(self, spectrum_maps):
        m = spectrum_maps[0.27]
        assert np.allclose(np.diag(m.intensity), 0.0, atol=1e-30)

    def test_lobe_separation_at_012(self, spectrum_maps):
        # Two lobes about 810 nm; their wavelength separation follows
        # delta_lambda = lambda^2 * detuning / c with detuning near 3.9 THz.
        m = spectrum_maps[0.12]
        profile = np.bincount(m.rows, m.cell_masses(),
                              minlength=m.signal_nm.size)
        lam = m.signal_nm
        mid = np.searchsorted(lam, 810.0)
        lo = lam[np.argmax(profile[:mid])]
        hi = lam[mid + np.argmax(profile[mid:])]
        expected = 810.0**2 * 3.93 / C_NM_PER_PS
        assert hi - lo == pytest.approx(expected, rel=0.05)

    def test_negative_delay_folds_with_warning(self, model):
        with pytest.warns(UserWarning):
            folded = coincidence_spectrum(model, -0.12)
        straight = coincidence_spectrum(model, 0.12)
        assert np.array_equal(folded.intensity, straight.intensity)

    def test_memory_is_set_by_the_pump_band(self, model):
        # The band holds about 1,200 of the 262,144 cells, and the map
        # stores only those (a 0.16 MiB peak); a dense array alone is 2 MiB.
        coincidence_spectrum(model, 0.27)
        tracemalloc.start()
        try:
            coincidence_spectrum(model, 0.27)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_zero_pump_width_rejected(self):
        cw = BiphotonSpectrumModel(pump_fwhm_thz=0.0)
        with pytest.raises(ValueError):
            coincidence_spectrum(cw, 0.12)

    @pytest.mark.xfail(
        strict=True,
        reason="the symmetric Gaussian envelope weights the low-detuning "
               "flank of every anti-bunching lobe more strongly, so the "
               "observed maxima sit below the bare comb lines, not above "
               "them; an upward shift would need an envelope rising with "
               "detuning")
    def test_envelope_weighting_raises_lobe_positions(self, extractions):
        bare = np.array([(2 * k + 1) / (2 * 0.37) for k in range(3)])
        measured = np.array(
            [p.detuning_thz for p in extractions[0.37].state.pairs])
        assert np.all(measured > bare)


class TestFringeProbability:
    def test_peak_and_dips(self, model):
        for t in (0.12, 0.27, 0.37):
            assert fringe_probability(model, t, 0.0) == pytest.approx(
                1.0, abs=5e-3)
            assert fringe_probability(model, t, t) == pytest.approx(
                0.25, abs=5e-3)
            assert fringe_probability(model, t, -t) == pytest.approx(
                0.25, abs=5e-3)

    def test_baseline_outside_coherence(self, model):
        assert fringe_probability(model, 0.12, 5.0) == pytest.approx(
            0.5, abs=0.01)

    def test_even_in_scan_delay(self, model):
        t2 = np.linspace(0.01, 0.7, 50)
        fwd = fringe_probability(model, 0.27, t2)
        rev = fringe_probability(model, 0.27, -t2)
        assert np.max(np.abs(fwd - rev)) < 1e-9

    def test_undefined_at_zero_first_delay(self, model):
        with pytest.raises(ValueError):
            fringe_probability(model, 0.0, 0.1)

    def test_range(self, model):
        t2 = np.linspace(-1.0, 1.0, 401)
        vals = fringe_probability(model, 0.27, t2)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0 + 1e-12)


class TestFringeScan:
    def test_dip_spacing_at_012(self, model):
        scan = fringe_scan(model, 0.12, -0.5, 0.5, 1001)
        p = scan.probabilities()
        t = scan.tau2_ps
        # genuine dips reach about 1/4; the depth cut drops the numerically
        # flat tail where roundoff-level local minima would otherwise count
        mins = [i for i in range(1, t.size - 1)
                if p[i] < p[i - 1] and p[i] < p[i + 1] and p[i] < 0.4]
        dips = t[mins]
        assert len(dips) == 2
        assert np.allclose(np.diff(dips), 0.24, atol=0.005)

    def test_extrema_on_grid(self, noiseless_scans):
        for t, scan in noiseless_scans.items():
            tau2 = scan.tau2_ps
            p = scan.probabilities()
            step = tau2[1] - tau2[0]
            assert abs(tau2[np.argmax(p)]) <= step + 1e-12
            left = np.where(tau2 < -step, p, np.inf)
            right = np.where(tau2 > step, p, np.inf)
            assert abs(tau2[np.argmin(left)] + t) <= step + 1e-12
            assert abs(tau2[np.argmin(right)] - t) <= step + 1e-12

    def test_scan_is_noiseless_probability(self, noiseless_scans):
        scan = noiseless_scans[0.27]
        assert scan.counts_per_point == 0
        assert np.all(scan.uncertainties == 0.0)

    def test_beat_content_matches_three_pairs(self, model, predicted_states):
        # The comb itself extends past the kept bins, so the scan carries
        # beat lines beyond the discretized state; the claim is that the
        # three STRONGEST lines are the three predicted detunings.
        scan = fringe_scan(model, 0.37, -0.75, 0.75, 601)
        y = scan.probabilities() - 0.5
        mags = np.abs(np.fft.rfft(y - y.mean()))
        freqs = np.fft.rfftfreq(y.size, d=scan.tau2_ps[1] - scan.tau2_ps[0])
        floor = max(4.0 * np.median(mags[1:]), 0.1 * mags[1:].max())
        peaks = [(mags[i], freqs[i]) for i in range(1, mags.size - 1)
                 if mags[i] > floor and mags[i] >= mags[i - 1]
                 and mags[i] >= mags[i + 1]]
        top3 = sorted(f for _, f in sorted(peaks, reverse=True)[:3])
        expected = [p.detuning_thz for p in predicted_states[0.37].pairs]
        bin_width = freqs[1] - freqs[0]
        assert len(peaks) >= 3
        for got, want in zip(top3, expected):
            assert abs(got - want) <= bin_width


class TestClosedFormAgainstQuadrature:
    """The closed forms in G(tau) against direct quadrature of the density."""

    TAUS = (0.0, 0.05, 0.12, 0.27, 0.37, 1.0, 3.0, 10.0)

    @pytest.mark.parametrize("tau", TAUS)
    def test_coincidence_and_bunching(self, model, tau):
        anti = _trapezoid_oracle(model, lambda d: 0.5 * (1.0 - _cos(d, tau)))
        bunched = _trapezoid_oracle(model, lambda d: 0.5 * (1.0 + _cos(d, tau)))
        assert abs(coincidence_probability(model, tau) - anti) < 1e-12
        assert abs(bunching_probability(model, tau) - bunched) < 1e-12

    @pytest.mark.parametrize("tau1", (0.12, 0.20, 0.27, 0.37))
    def test_fringe(self, model, tau1):
        tau2 = np.linspace(-0.75, 0.75, 601)
        norm = _trapezoid_oracle(model, lambda d: 1.0 - _cos(d, tau1))
        beat = _trapezoid_oracle(
            model, lambda d: _cos(d, tau2) * (1.0 - _cos(d, tau1)))
        oracle = 0.5 * (1.0 + beat / norm)
        got = fringe_probability(model, tau1, tau2)
        assert np.max(np.abs(got - oracle)) < 1e-12

    def test_fringe_memory_is_linear_in_scan_length(self, model):
        tau2 = np.linspace(-1.0, 1.0, 2001)
        tracemalloc.start()
        try:
            fringe_probability(model, 0.27, tau2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestErfReach:
    """erf is called only where it is not +-1, and the maps do not notice."""

    EDGES = (-1e3, -6.0, -5.9216, -5.92, -0.0, 0.0, 5.92, 5.9216, 6.0, 1e3,
             np.nan)

    def test_bitwise_equal_to_math_erf(self):
        x = np.concatenate([np.linspace(-8.0, 8.0, 20001), self.EDGES])
        got = hom._erf(x)
        want = _math_erf_everywhere(x)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("pump_fwhm_thz", (1e-6, 0.001, 0.5, 5.0))
    def test_maps_unchanged_to_the_bit(self, monkeypatch, pump_fwhm_thz):
        model = BiphotonSpectrumModel(pump_fwhm_thz=pump_fwhm_thz)
        got = (coincidence_spectrum(model, 0.27), hom.jsi_map(model))
        monkeypatch.setattr(hom, "_erf", _math_erf_everywhere)
        want = (coincidence_spectrum(model, 0.27), hom.jsi_map(model))
        for g, w in zip(got, want):
            assert _same_bits(g, w)


class TestMapAgainstDenseOracle:
    """The pump band keeps the dense oracle's bits; beyond it the map is 0.

    A cell whose four corners all lie at z >= R = _PUMP_REACH sig_p has
    pump mass exactly 0, the second difference of T's linear tail, where
    the dense oracle reads rounding residue; one whose corners all lie at
    z <= -R is 0.0 in both. At 5 THz the band is the whole grid, at 1e-6
    THz it is far narrower than a cell; tau1 = None is the bare ``jsi_map``.
    """

    @pytest.mark.parametrize("tau1", (None, 0.0, 0.12, 0.37, 3.0))
    @pytest.mark.parametrize("n_points", (16, 512))
    @pytest.mark.parametrize("pump_fwhm_thz", (1e-6, 0.001, 0.5, 5.0))
    def test_same_bits_as_dense(self, pump_fwhm_thz, n_points, tau1):
        model = BiphotonSpectrumModel(pump_fwhm_thz=pump_fwhm_thz)
        if tau1 is None:
            got = hom.jsi_map(model, n_points)
            want = _dense_cell_map(model, n_points, lambda d: np.ones_like(d))
        else:
            got = coincidence_spectrum(model, tau1, n_points)
            want = _dense_cell_map(
                model, n_points,
                lambda d: 0.5 * (1.0 - np.cos(2.0 * np.pi * d * tau1)))
        reach = hom._PUMP_REACH * model.pump_sigma_thz
        corners = _corner_z(model, n_points)
        above = np.logical_and.reduce([z >= reach for z in corners])
        below = np.logical_and.reduce([z <= -reach for z in corners])
        band = ~(above | below)
        got_bits = got.intensity.view(np.int64)
        assert np.array_equal(got_bits[band],
                              want.intensity.view(np.int64)[band])
        assert np.all(got_bits[~band] == 0)  # +0.0, not -0.0
        residue = want.intensity[above].max(initial=0.0)
        assert residue <= 1e-10 * want.intensity.max()
        assert _same_bits(got, want, ("signal_nm", "idler_nm"))

    def test_band_edges_are_exact_at_rounding_ties(self, model):
        # At a level equal to a corner's z, or one float either side of it,
        # the searchsorted estimate in _first_column is often off by one
        # column; the loop must land on the float comparison itself.
        _, _, lo, hi = _cell_edges(model, 32)
        nu_edges = np.append(hi, lo[-1])
        zp = model.sum_frequency_thz
        z = (nu_edges[:, None] + nu_edges[None, :] - zp).ravel()
        for level in np.concatenate([z, np.nextafter(z, np.inf),
                                     np.nextafter(z, -np.inf)]):
            below = z.reshape(nu_edges.size, -1) < level
            want = np.where(below.any(axis=1), below.argmax(axis=1),
                            nu_edges.size)
            assert np.array_equal(hom._first_column(nu_edges, zp, level), want)

    def test_reach_is_past_exp_underflow(self):
        # Beyond the reach the Gaussian in T is exactly zero and erf is +-1.
        r = hom._PUMP_REACH
        assert np.exp(-r * r / 2.0) == 0.0
        assert math.erf(r / math.sqrt(2.0)) == 1.0
