import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hombeat import (
    BiphotonSpectrumModel,
    coincidence_spectrum,
    detuning_density,
)
from hombeat.hom import jsi_map
from hombeat.units import C_NM_PER_PS


class TestModelValidation:
    def test_defaults(self, model):
        assert model.center_wavelength_nm == 810.0
        assert model.marginal_fwhm_nm == 20.0
        assert model.pump_fwhm_thz == 0.001

    def test_center_frequency(self, model):
        assert model.center_frequency_thz == pytest.approx(370.1141, abs=5e-4)

    def test_sigma_relations(self, model):
        # 20 nm at 810 nm converts to 299792.458 * 20 / 810^2 = 9.1386 THz
        # FWHM; the detuning spread of anti-correlated photons is twice the
        # single-photon spread.
        assert model.marginal_fwhm_thz == pytest.approx(9.1386, abs=2e-4)
        assert model.sigma_detuning_thz == pytest.approx(
            2.0 * model.sigma_single_thz, rel=1e-15)

    @pytest.mark.parametrize("kwargs", [
        {"center_wavelength_nm": 0.0},
        {"center_wavelength_nm": -810.0},
        {"marginal_fwhm_nm": 0.0},
        {"pump_fwhm_thz": -0.1},
        {"marginal_fwhm_nm": float("nan")},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BiphotonSpectrumModel(**kwargs)


class TestJsiEval:
    """Model checks on the evaluated joint spectral intensity, ``jsi_map``."""

    def test_peak_at_degeneracy(self, model):
        # The wavelength marginal peaks in the degenerate cell and decays
        # on either side. (The brightest single cell need not be there: a
        # near-CW pump line crosses each cell along a different length.)
        map_ = jsi_map(model)
        step = map_.signal_nm[1] - map_.signal_nm[0]
        marginal = map_.cell_masses().sum(axis=1)
        k = int(np.argmax(marginal))
        assert abs(map_.signal_nm[k] - 810.0) <= step
        assert np.all(np.diff(marginal[:k + 1]) >= 0)
        assert np.all(np.diff(marginal[k:]) <= 0)

    @settings(deadline=None, max_examples=30)
    @given(st.floats(min_value=1e-6, max_value=5.0),
           st.floats(min_value=0.0, max_value=1.0))
    def test_exchange_symmetry(self, pump_fwhm_thz, tau1):
        model = BiphotonSpectrumModel(pump_fwhm_thz=pump_fwhm_thz)
        for map_ in (jsi_map(model, n_points=64),
                     coincidence_spectrum(model, tau1, n_points=64)):
            z = map_.intensity
            assert np.array_equal(map_.signal_nm, map_.idler_nm)
            assert np.max(np.abs(z - z.T)) <= 1e-12 * z.max()

    def test_pump_locus_negligible_off_ridge(self, model):
        # CW-like pump: cells whose centres lie 0.5 THz (about 6 cells) off
        # the energy-conservation ridge hold below 1e-8 of the peak.
        map_ = jsi_map(model)
        nu = C_NM_PER_PS / map_.signal_nm
        off = np.abs(nu[:, None] + nu[None, :] - model.sum_frequency_thz)
        z = map_.intensity
        assert z[off > 0.5].max() < 1e-8 * z.max()

    def test_cw_pointwise_limit_rejected(self):
        zero_pump = BiphotonSpectrumModel(pump_fwhm_thz=0.0)
        with pytest.raises(ValueError):
            jsi_map(zero_pump)


class TestNormalization:
    def test_detuning_density_unit_integral(self, model):
        # The CW-limit 2D integral reduces to the detuning marginal; the
        # composite trapezoid over the map's detuning extent, twice its
        # +-5.5 sigma_1 span, must give 1 within 1e-6 and be converged on the
        # default point count.
        half = 11.0 * model.sigma_single_thz
        d = np.linspace(-half, half, 512)
        val = np.trapezoid(detuning_density(model, d), d)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_quadrature_converged_on_default_grid(self, model):
        half = 11.0 * model.sigma_single_thz
        vals = []
        for n in (512, 1024):
            d = np.linspace(-half, half, n)
            vals.append(np.trapezoid(detuning_density(model, d), d))
        assert abs(vals[1] - vals[0]) < 1e-7

    def test_2d_map_mass_near_unity(self, model):
        # The cell-integrated 2D map carries its own (coarser) quadrature;
        # its total mass agrees with the exact normalization at the level
        # set by midpoint evaluation of the envelope factor.
        mass = jsi_map(model).cell_masses().sum()
        assert mass == pytest.approx(1.0, abs=2e-6)


def _marginal_bandwidth(model, n_points=4001):
    """FWHM (nm) of the single-photon wavelength marginal.

    The frequency marginal is Gaussian with variance sigma_1^2 +
    sigma_p^2 / 4 (the partner photon integrated out in closed form). It is
    transformed to the wavelength domain with its Jacobian and measured
    between interpolated half-maximum crossings.
    """
    sig_m = np.hypot(model.sigma_single_thz, 0.5 * model.pump_sigma_thz)
    nu0 = model.center_frequency_thz
    nu = np.linspace(nu0 - 6.0 * sig_m, nu0 + 6.0 * sig_m, n_points)
    dens_nu = (np.exp(-(nu - nu0) ** 2 / (2.0 * sig_m**2))
               / (np.sqrt(2.0 * np.pi) * sig_m))
    lam = C_NM_PER_PS / nu
    dens_lam = dens_nu * C_NM_PER_PS / lam**2
    order = np.argsort(lam)
    lam, dens_lam = lam[order], dens_lam[order]
    half = 0.5 * dens_lam.max()
    idx = np.nonzero(dens_lam >= half)[0]
    lo, hi = idx[0], idx[-1]

    def cross(i0, i1):
        x0, x1 = lam[i0], lam[i1]
        y0, y1 = dens_lam[i0], dens_lam[i1]
        return x0 + (half - y0) * (x1 - x0) / (y1 - y0)

    left = cross(lo - 1, lo) if lo > 0 else lam[0]
    right = cross(hi, hi + 1) if hi < lam.size - 1 else lam[-1]
    return float(right - left)


class TestMarginalBandwidth:
    """The model's single-photon marginal, through a test-local oracle."""

    def test_default_recovers_input_fwhm(self, model):
        assert _marginal_bandwidth(model) == pytest.approx(20.0, rel=0.02)

    def test_scales_linearly(self):
        double = BiphotonSpectrumModel(marginal_fwhm_nm=40.0)
        assert _marginal_bandwidth(double) == pytest.approx(40.0, rel=0.02)

    def test_broad_pump_broadens_marginal(self, model):
        broad = BiphotonSpectrumModel(pump_fwhm_thz=0.5)
        assert _marginal_bandwidth(broad) >= _marginal_bandwidth(model)


class TestGrid:
    """The map's axes, which the model and the point count alone set."""

    def test_default_span_and_uniformity(self, model):
        map_ = jsi_map(model)
        lam = map_.signal_nm
        assert lam.size == 512
        assert np.allclose(np.diff(lam), lam[1] - lam[0], rtol=0, atol=1e-9)
        nu0 = model.center_frequency_thz
        assert C_NM_PER_PS / lam[-1] < nu0 - 4.0 * model.sigma_single_thz
        assert C_NM_PER_PS / lam[0] > nu0 + 4.0 * model.sigma_single_thz

    def test_too_few_points_rejected(self, model):
        with pytest.raises(ValueError, match="at least 16 points"):
            jsi_map(model, n_points=8)

    def test_span_reaching_zero_frequency_rejected(self):
        # +-5.5 sigma_1 of a 400 nm marginal at 810 nm reaches below 0 THz.
        broad = BiphotonSpectrumModel(marginal_fwhm_nm=400.0)
        for build in (jsi_map, lambda m: coincidence_spectrum(m, 0.27)):
            with pytest.raises(ValueError, match="must be positive"):
                build(broad)


class TestDetuningDensity:
    def test_symmetric_and_normalized(self, model):
        d = np.linspace(-60.0, 60.0, 20001)
        g = detuning_density(model, d)
        assert np.allclose(g, g[::-1], rtol=1e-12)
        assert np.trapezoid(g, d) == pytest.approx(1.0, abs=1e-9)

    def test_std_matches_model(self, model):
        d = np.linspace(-60.0, 60.0, 20001)
        g = detuning_density(model, d)
        var = np.trapezoid(d * d * g, d)
        assert np.sqrt(var) == pytest.approx(model.sigma_detuning_thz,
                                             rel=1e-6)
