import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hombeat.fringes as fringes
from hombeat.fringes import (
    FringeModelParams,
    FringePairParams,
    FringeScan,
    _pack,
    _theta_jacobian,
    _theta_model,
    fit_fringe_scan,
    fringe_model_eval,
    sample_scan,
    seed_guess,
    synth_scan,
)
from hombeat.hom import fringe_probability, fringe_scan
from hombeat.lm import FD_STEP, LMResult, _fd_jacobian, levenberg_marquardt
from hombeat.reference import fringe_params_from_reference

from conftest import BENCH_DELAYS_PS, SCAN_DELAYS_PS


def single_pair(tau_c=0.47, mu=4.01, vis=0.81, phase=179.83):
    return FringeModelParams(
        coherence_time_ps=tau_c,
        pairs=(FringePairParams(weight=1.0, detuning_thz=mu,
                                visibility=vis, phase_deg=phase),))


def wrap_deg(delta):
    return (delta + 180.0) % 360.0 - 180.0


class TestModelEval:
    def test_single_pair_peak(self):
        params = single_pair(phase=180.0)
        # 1/2 + A V / 2 at the center for a half-turn phase
        assert fringe_model_eval(params, 0.0) == pytest.approx(0.905, abs=1e-12)

    def test_flat_outside_envelope(self):
        params = single_pair()
        for t in (0.235, -0.235, 0.5, -3.0):
            assert fringe_model_eval(params, t) == 0.5

    def test_composite_peak_matches_direct_sum(self):
        params = fringe_params_from_reference(0.37)
        direct = 0.5 - 0.5 * sum(
            p.weight * p.visibility * np.cos(np.deg2rad(p.phase_deg))
            for p in params.pairs)
        value = fringe_model_eval(params, 0.0)
        assert value == pytest.approx(direct, rel=1e-12)
        assert value == pytest.approx(0.9530093210515986, rel=1e-9)

    @given(tau_c=st.floats(0.2, 2.0), mu=st.floats(0.5, 8.0),
           vis=st.floats(0.0, 1.0), t=st.floats(-1.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_even_for_half_turn_phase(self, tau_c, mu, vis, t):
        params = single_pair(tau_c=tau_c, mu=mu, vis=vis, phase=180.0)
        left = fringe_model_eval(params, -t)
        right = fringe_model_eval(params, t)
        assert abs(left - right) < 1e-12

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_values_stay_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        raw = rng.uniform(0.1, 1.0, n)
        weights = raw / raw.sum()
        pairs = tuple(
            FringePairParams(weight=float(w),
                             detuning_thz=float(rng.uniform(0.5, 8.0)),
                             visibility=float(rng.uniform(0.0, 1.0)),
                             phase_deg=float(rng.uniform(0.0, 360.0)))
            for w in weights)
        params = FringeModelParams(
            coherence_time_ps=float(rng.uniform(0.2, 2.0)), pairs=pairs)
        t = np.linspace(-1.5, 1.5, 301)
        values = fringe_model_eval(params, t)
        assert np.all(values >= 0.0) and np.all(values <= 1.0)

    def test_scalar_and_array_agree(self):
        params = fringe_params_from_reference(0.27)
        t = np.array([-0.3, 0.0, 0.11, 0.62])
        arr = fringe_model_eval(params, t)
        for i, ti in enumerate(t):
            assert fringe_model_eval(params, float(ti)) == arr[i]


class TestParamsValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            FringeModelParams(0.5, (
                FringePairParams(0.6, 2.0, 0.8, 180.0),
                FringePairParams(0.6, 4.0, 0.8, 180.0)))

    def test_rejects_bad_pair_values(self):
        with pytest.raises(ValueError):
            FringePairParams(-0.1, 2.0, 0.8, 180.0)
        with pytest.raises(ValueError):
            FringePairParams(1.0, 0.0, 0.8, 180.0)
        with pytest.raises(ValueError):
            FringePairParams(1.0, 2.0, 1.2, 180.0)
        with pytest.raises(ValueError):
            FringePairParams(1.0, np.nan, 0.8, 180.0)

    def test_rejects_bad_coherence_time(self):
        pair = (FringePairParams(1.0, 2.0, 0.8, 180.0),)
        for bad in (0.0, -1.0, np.inf):
            with pytest.raises(ValueError):
                FringeModelParams(bad, pair)

    def test_rejects_empty_pairs(self):
        with pytest.raises(ValueError):
            FringeModelParams(0.5, ())

    def test_amplitude_and_dimension(self):
        params = fringe_params_from_reference(0.27)
        assert params.dimension_m == 4
        for p in params.pairs:
            assert p.amplitude == p.weight * p.visibility


class TestFringeScanValidation:
    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValueError, match="equal lengths"):
            FringeScan(np.zeros(4), np.zeros(3))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            FringeScan(np.array([0.0, np.nan]), np.zeros(2))

    def test_rejects_negative_counts_per_point(self):
        with pytest.raises(ValueError, match="counts_per_point"):
            FringeScan(np.zeros(2), np.ones(2), -1)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError, match="counts must not be negative"):
            FringeScan(np.array([0.0, 0.1]), np.array([400.0, -1.0]), 1000)

    def test_uncertainties_are_derived(self):
        # sqrt(count) with a one-count floor on the empty bin; zeros when
        # noiseless.
        counted = FringeScan(np.array([0.0, 0.1]), np.array([400.0, 0.0]), 1000)
        assert np.array_equal(counted.uncertainties, [20.0, 1.0])
        flat = FringeScan(np.array([0.0, 0.1]), np.array([0.4, 0.9]))
        assert np.array_equal(flat.uncertainties, [0.0, 0.0])

    def test_probability_accessors_normalize_counts(self):
        scan = FringeScan(np.array([0.0, 0.1]), np.array([400.0, 900.0]), 1000)
        assert np.allclose(scan.probabilities(), [0.4, 0.9])
        flat = FringeScan(np.array([0.0, 0.1]), np.array([0.4, 0.9]))
        assert np.array_equal(flat.probabilities(), flat.values)


class TestSynthScan:
    def test_noiseless_returns_model_curve(self):
        params = fringe_params_from_reference(0.27)
        scan = synth_scan(params, -0.75, 0.75, 301, 0)
        assert scan.counts_per_point == 0
        assert np.array_equal(scan.values,
                              fringe_model_eval(params, scan.tau2_ps))
        assert np.all(scan.uncertainties == 0.0)

    def test_same_seed_reproduces_same_counts(self):
        params = fringe_params_from_reference(0.27)
        a = synth_scan(params, -0.75, 0.75, 301, 500, seed=11)
        b = synth_scan(params, -0.75, 0.75, 301, 500, seed=11)
        c = synth_scan(params, -0.75, 0.75, 301, 500, seed=12)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_rejects_bad_arguments(self):
        params = fringe_params_from_reference(0.12)
        with pytest.raises(ValueError, match="negative"):
            synth_scan(params, -0.5, 0.5, 101, -1)
        with pytest.raises(ValueError, match="at least 3"):
            synth_scan(params, -0.5, 0.5, 2, 100)
        with pytest.raises(ValueError, match="range"):
            synth_scan(params, 0.5, -0.5, 101, 100)
        # Finite ends whose grid width overflows.
        with pytest.raises(ValueError, match="scan range must be finite"):
            synth_scan(params, -1e308, 1e308, 101, 100)

    def test_counts_are_poisson_distributed(self):
        # Flat 1/2 region outside the envelope: variance/mean of the raw
        # counts must sit at 1 for a Poisson law.
        flat = FringeModelParams(0.94, (
            FringePairParams(1.0, 1.94, 0.86, 182.14),))
        scan = synth_scan(flat, 2.0, 3.0, 10001, 1000, seed=3)
        assert scan.counts_per_point > 0
        ratio = np.var(scan.values) / np.mean(scan.values)
        assert ratio == pytest.approx(1.0, abs=0.1)

    def test_high_counts_converge_on_model(self):
        truth = fringe_params_from_reference(0.27)
        n = 1_000_000
        scan = synth_scan(truth, -0.75, 0.75, 101, n, seed=3)
        p = fringe_model_eval(truth, scan.tau2_ps)
        z = (scan.probabilities() - p) / np.sqrt(p / n)
        assert np.abs(z).max() < 3.0


class TestSeedGuess:
    @pytest.mark.parametrize("tau1,expected", [
        (0.12, [3.9933]),
        (0.27, [1.9967, 5.3245]),
        (0.37, [1.3311, 3.9933, 6.6556]),
    ])
    def test_dft_seeds_land_on_beat_lines(self, tau1, expected):
        ref = fringe_params_from_reference(tau1)
        scan = synth_scan(ref, -0.75, 0.75, 601, 0)
        guess = seed_guess(scan, ref.dimension_m)
        seeds = [p.detuning_thz for p in guess.pairs]
        bin_width = 1.0 / (scan.tau2_ps[-1] - scan.tau2_ps[0])
        assert np.allclose(seeds, expected, atol=1e-3)
        for mu_ref, mu_seed in zip((p.detuning_thz for p in ref.pairs), seeds):
            assert abs(mu_seed - mu_ref) <= bin_width

    def test_uniform_seed_weights_and_defaults(self):
        ref = fringe_params_from_reference(0.37)
        scan = synth_scan(ref, -0.75, 0.75, 601, 0)
        guess = seed_guess(scan, 6)
        assert all(p.weight == pytest.approx(1 / 3) for p in guess.pairs)
        assert all(p.visibility == 0.5 for p in guess.pairs)
        assert all(p.phase_deg == 180.0 for p in guess.pairs)

    def test_rejects_odd_or_non_positive_m(self):
        scan = synth_scan(fringe_params_from_reference(0.12), -0.75, 0.75, 601, 0)
        for bad in (0, -2, 3, 1):
            with pytest.raises(ValueError, match="positive even"):
                seed_guess(scan, bad)

    def test_short_scan_error_names_the_deficit(self):
        params = fringe_params_from_reference(0.12)
        scan = synth_scan(params, -0.5, 0.5, 5, 0)
        with pytest.raises(ValueError, match="need at least 6"):
            seed_guess(scan, 2)

    def test_missing_peaks_error_names_the_deficit(self):
        scan = synth_scan(fringe_params_from_reference(0.12), -0.75, 0.75, 601, 0)
        with pytest.raises(ValueError, match="found 1 .* need 3"):
            seed_guess(scan, 6)

    def test_flat_scan_has_no_peaks(self):
        flat = FringeModelParams(0.94, (
            FringePairParams(1.0, 2.0, 0.0, 180.0),))
        scan = synth_scan(flat, -0.75, 0.75, 201, 0)
        with pytest.raises(ValueError, match="found 0"):
            seed_guess(scan, 2)

    def test_needs_uniform_grid(self):
        t = np.array([0.0, 0.1, 0.25, 0.3, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
        scan = FringeScan(t, np.full(10, 0.6))
        with pytest.raises(ValueError, match="uniform"):
            seed_guess(scan, 2)


class TestNoiselessRoundTrip:
    @pytest.mark.parametrize("tau1", SCAN_DELAYS_PS)
    def test_recovers_generating_parameters(self, tau1):
        truth = fringe_params_from_reference(tau1)
        scan = synth_scan(truth, -0.75, 0.75, 601, 0)
        fit = fit_fringe_scan(scan, truth.dimension_m,
                              known_weights=tuple(p.weight for p in truth.pairs))
        assert fit.converged
        assert fit.residual_norm < 1e-8
        assert fit.params.coherence_time_ps == pytest.approx(
            truth.coherence_time_ps, abs=1e-6)
        for got, want in zip(fit.params.pairs, truth.pairs):
            assert got.detuning_thz == pytest.approx(want.detuning_thz, abs=1e-6)
            assert got.visibility == pytest.approx(want.visibility, abs=1e-6)
            assert wrap_deg(got.phase_deg - want.phase_deg) == pytest.approx(
                0.0, abs=1e-5)

    def test_survives_twenty_percent_seed_error(self):
        truth = fringe_params_from_reference(0.12)
        scan = synth_scan(truth, -0.75, 0.75, 601, 0)
        p = truth.pairs[0]
        perturbed = FringeModelParams(
            coherence_time_ps=truth.coherence_time_ps * 1.2,
            pairs=(FringePairParams(weight=1.0,
                                    detuning_thz=p.detuning_thz * 0.8,
                                    visibility=min(p.visibility * 1.2, 1.0),
                                    phase_deg=p.phase_deg * 1.2),))
        fit = fit_fringe_scan(scan, initial=perturbed, known_weights=(1.0,))
        assert fit.converged
        got = fit.params.pairs[0]
        assert got.detuning_thz == pytest.approx(p.detuning_thz, abs=1e-4)
        assert got.visibility == pytest.approx(p.visibility, abs=1e-4)
        assert wrap_deg(got.phase_deg - p.phase_deg) == pytest.approx(0, abs=1e-3)


class TestVisibilitySplit:
    def test_known_weights_recover_distinct_visibilities(self):
        truth = fringe_params_from_reference(0.27)
        scan = synth_scan(truth, -0.75, 0.75, 601, 0)
        fit = fit_fringe_scan(scan, 4, known_weights=(0.56, 0.44))
        vis = [p.visibility for p in fit.params.pairs]
        assert vis == pytest.approx([0.86, 0.80], abs=1e-6)
        assert fit.weights_supplied

    def test_shared_visibility_without_weights(self):
        truth = fringe_params_from_reference(0.27)
        scan = synth_scan(truth, -0.75, 0.75, 601, 0)
        fit = fit_fringe_scan(scan, 4)
        vis = {round(p.visibility, 9) for p in fit.params.pairs}
        assert len(vis) == 1  # one shared visibility for every pair
        assert sum(p.weight for p in fit.params.pairs) == pytest.approx(1.0)
        # the identifiable product amplitude is preserved either way
        for got, want in zip(fit.params.pairs, truth.pairs):
            assert got.amplitude == pytest.approx(want.amplitude, abs=1e-6)
        assert not fit.weights_supplied

    def test_known_weights_validation(self):
        scan = synth_scan(fringe_params_from_reference(0.27), -0.75, 0.75, 601, 0)
        with pytest.raises(ValueError, match="length"):
            fit_fringe_scan(scan, 4, known_weights=(1.0,))
        with pytest.raises(ValueError, match="sum to 1"):
            fit_fringe_scan(scan, 4, known_weights=(0.7, 0.7))
        with pytest.raises(ValueError, match="positive"):
            fit_fringe_scan(scan, 4, known_weights=(1.2, -0.2))


class TestFitFringeScan:
    def test_bin_count_or_initial_is_required(self):
        # The scan's beat spectrum does not choose m: the source's bins do.
        scan = synth_scan(fringe_params_from_reference(0.27), -0.75, 0.75, 601, 0)
        with pytest.raises(ValueError, match="bin count m or initial"):
            fit_fringe_scan(scan)

    def test_m_must_match_explicit_initial(self):
        truth = fringe_params_from_reference(0.27)
        scan = synth_scan(truth, -0.75, 0.75, 601, 0)
        with pytest.raises(ValueError, match="disagrees"):
            fit_fringe_scan(scan, m=6, initial=truth)

    def test_scan_shorter_than_parameters(self):
        truth = fringe_params_from_reference(0.12)
        scan = synth_scan(truth, -0.3, 0.3, 4, 0)
        with pytest.raises(ValueError, match="shorter"):
            fit_fringe_scan(scan, initial=truth)

    def test_overfit_component_is_killed_by_shrinkage(self):
        # A two-pair model fitted to single-pair data must park the spare
        # component at negligible amplitude and keep the real detuning.
        truth = single_pair()
        scan = synth_scan(truth, -0.75, 0.75, 601, 0)
        seed = FringeModelParams(0.47, (
            FringePairParams(0.5, 4.0, 0.5, 180.0),
            FringePairParams(0.5, 6.5, 0.5, 180.0)))
        fit = fit_fringe_scan(scan, initial=seed)
        assert fit.converged
        amps = sorted(p.amplitude for p in fit.params.pairs)
        assert amps[0] < 0.02
        dominant = max(fit.params.pairs, key=lambda p: p.amplitude)
        assert dominant.detuning_thz == pytest.approx(4.01, abs=1e-6)

    def test_diagnostics_shape_and_covariance(self):
        truth = fringe_params_from_reference(0.27)
        scan = synth_scan(truth, -0.75, 0.75, 601, 1000, seed=5)
        fit = fit_fringe_scan(scan, 4, known_weights=(0.56, 0.44))
        assert fit.converged
        n_free = 1 + 3 * 2
        assert fit.covariance.shape == (n_free, n_free)
        assert np.allclose(fit.covariance, fit.covariance.T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(fit.covariance) > -1e-12)
        assert fit.param_names == (
            "coherence_time_ps",
            "detuning_thz_0", "amplitude_0", "phase_deg_0",
            "detuning_thz_1", "amplitude_1", "phase_deg_1")
        assert fit.seed_params.dimension_m == 4
        assert fit.n_iterations >= 1

    def test_negative_detuning_is_folded_with_its_phase(self, monkeypatch):
        # cos(2 pi (-mu) tau + phi) = cos(2 pi mu tau - phi): a pair the LM
        # leaves at negative mu must come back at (|mu|, -phi), and the
        # delta-method rows of mu and phi change sign with it.
        theta = np.array([0.0, -4.0, 0.5, np.deg2rad(150.0)])
        root = np.random.default_rng(3).normal(size=(4, 4))
        internal_cov = root @ root.T
        monkeypatch.setattr(fringes, "levenberg_marquardt", lambda *a: LMResult(
            params=theta, cost=0.0, residual_norm=0.0, gradient_norm=0.0,
            n_iterations=1, converged=True, message="stub",
            covariance=internal_cov))
        scan = synth_scan(single_pair(), -0.75, 0.75, 601, 0)
        fit = fit_fringe_scan(scan, initial=single_pair())
        (pair,) = fit.params.pairs
        assert pair.detuning_thz == 4.0
        assert pair.phase_deg == pytest.approx(210.0, abs=1e-12)
        t = scan.tau2_ps
        assert np.max(np.abs(fringe_model_eval(fit.params, t)
                             - _theta_model(t, theta))) <= 1e-12
        c = pair.amplitude
        jac = np.diag([1.0, -1.0, c * (1.0 - c), -180.0 / np.pi])
        assert np.allclose(fit.covariance, jac @ internal_cov @ jac.T,
                           rtol=1e-12, atol=0.0)

    def test_pairs_come_back_in_ascending_detuning(self):
        truth = fringe_params_from_reference(0.37)
        scan = synth_scan(truth, -0.75, 0.75, 601, 2000, seed=9)
        fit = fit_fringe_scan(scan, 6, known_weights=(0.42, 0.38, 0.20))
        mus = [p.detuning_thz for p in fit.params.pairs]
        assert mus == sorted(mus)


class TestFitUnderNoise:
    def test_parameters_recovered_across_seeds(self):
        truth = fringe_params_from_reference(0.27)
        good = 0
        for seed in range(10):
            scan = synth_scan(truth, -0.75, 0.75, 601, 1000, seed=seed)
            fit = fit_fringe_scan(scan, 4, known_weights=(0.56, 0.44))
            if not fit.converged:
                continue
            ok = all(
                abs(g.detuning_thz - w.detuning_thz) / w.detuning_thz < 0.02
                and abs(g.visibility - w.visibility) < 0.05
                and abs(wrap_deg(g.phase_deg - w.phase_deg)) < 5.0
                for g, w in zip(fit.params.pairs, truth.pairs))
            good += ok
        assert good >= 9

    def test_fit_agrees_with_spectral_prediction(self, noiseless_fits,
                                                 predicted_states):
        # The scan fit and the spectrum-derived bins describe the same
        # physics: detunings must agree to within 2 percent.
        for tau1, fit in noiseless_fits.items():
            fitted = [p.detuning_thz for p in fit.params.pairs]
            predicted = [p.detuning_thz for p in predicted_states[tau1].pairs]
            for f, p in zip(fitted, predicted):
                assert abs(f - p) / p < 0.02


def poisson_scan(model, tau1, counts_per_point, seed):
    scan, _ = sample_scan(lambda t: fringe_probability(model, tau1, t),
                          -0.75, 0.75, 601, counts_per_point, seed)
    return scan


def finite_difference_fit(monkeypatch, scan, m):
    """The same fit with the solver's central-difference Jacobian."""
    def residual_only(residual, x0, max_iterations, jacobian=None):
        return levenberg_marquardt(residual, x0, max_iterations)

    with monkeypatch.context() as patch:
        patch.setattr(fringes, "levenberg_marquardt", residual_only)
        return fit_fringe_scan(scan, m)


def external_values(fit):
    """Fitted values in the order of ``fit.param_names``."""
    values = [fit.params.coherence_time_ps]
    for p in fit.params.pairs:
        values += [p.detuning_thz, p.amplitude, p.phase_deg]
    return np.array(values)


class TestAnalyticJacobian:
    @pytest.mark.parametrize("tau1", BENCH_DELAYS_PS)
    def test_matches_finite_differences(self, model, predicted_states, tau1):
        scan = fringe_scan(model, tau1)
        t = scan.tau2_ps
        m = predicted_states[tau1].dimension_m
        fit = fit_fringe_scan(scan, m)
        for params in (seed_guess(scan, m), fit.params):
            theta = _pack(params)
            analytic = _theta_jacobian(t, theta)
            oracle = _fd_jacobian(lambda x: _theta_model(t, x), theta,
                                  t.size, FD_STEP)
            # The central difference in log tau_c straddles the envelope's
            # kink at |2 tau2| = tau_c for samples within its step of it.
            h = FD_STEP * max(1.0, abs(theta[0]))
            far = np.abs(np.abs(2.0 * t / np.exp(theta[0])) - 1.0) > 2.0 * h
            assert np.count_nonzero(~far) <= 2
            gap = np.max(np.abs(analytic - oracle)[far], axis=0)
            assert np.all(gap <= 1e-8 * np.max(np.abs(oracle), axis=0))

    def test_same_fit_as_finite_differences_on_benchmark_panel(
            self, model, predicted_states, monkeypatch):
        # The fit workload's panel: per delay one noiseless scan and draws
        # 20 j .. 20 j + 19 at 10^3 and 10^4 counts per point.
        for j, tau1 in enumerate(BENCH_DELAYS_PS):
            m = predicted_states[tau1].dimension_m
            draws = [(0, 0)] + [(cpp, 20 * j + k) for cpp in (1_000, 10_000)
                                for k in range(20)]
            for cpp, seed in draws:
                scan = poisson_scan(model, tau1, cpp, seed)
                fit = fit_fringe_scan(scan, m)
                ref = finite_difference_fit(monkeypatch, scan, m)
                assert fit.converged and ref.converged
                gap = external_values(fit) - external_values(ref)
                gap[3::3] = (gap[3::3] + 180.0) % 360.0 - 180.0
                se = np.sqrt(np.diag(ref.covariance))
                assert np.all(np.abs(gap) <= 0.01 * se), (tau1, cpp, seed)
                assert fit.residual_norm ** 2 == pytest.approx(
                    ref.residual_norm ** 2, rel=1e-6)

    @pytest.mark.parametrize("tau1, seed", [
        (0.20, 154), (0.27, 1298), (0.37, 402), (0.37, 755), (0.37, 1192)])
    def test_draws_that_stalled_finite_differences_converge(
            self, model, predicted_states, tau1, seed):
        # With the central-difference Jacobian these 10^3-count draws ran
        # into the 500-iteration limit.
        scan = poisson_scan(model, tau1, 1_000, seed)
        fit = fit_fringe_scan(scan, predicted_states[tau1].dimension_m)
        assert fit.converged
        assert fit.n_iterations < 100
