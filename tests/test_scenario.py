import json

import pytest

from hombeat.scenario import (
    AnalysisConfig,
    FitConfig,
    ScanConfig,
    Scenario,
    ScenarioError,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)


class TestDefaults:
    def test_default_scenario(self):
        s = Scenario()
        assert s.tau1_ps == 0.12
        assert s.scan.tau2_min_ps == -0.75
        assert s.scan.tau2_max_ps == 0.75
        assert s.scan.n_points == 601
        assert s.scan.counts_per_point == 1000
        assert s.scan.seed == 42
        assert s.fit.m is None
        assert s.fit.max_iterations == 500
        assert s.analysis.mode == "assumed-average"
        assert s.model.center_wavelength_nm == 810.0

    def test_empty_document_gives_defaults(self):
        s = scenario_from_dict({})
        assert s == Scenario()


class TestRoundTrip:
    def test_dict_round_trip(self):
        original = scenario_from_dict({
            "tau1_ps": 0.27,
            "model": {"marginal_fwhm_nm": 18.0},
            "scan": {"n_points": 301, "counts_per_point": 0, "seed": 7},
            "fit": {"m": 4, "max_iterations": 200},
            "analysis": {"mode": "measured-only"},
        })
        echoed = scenario_from_dict(scenario_to_dict(original))
        assert echoed == original

    def test_dict_is_json_serializable(self):
        text = json.dumps(scenario_to_dict(Scenario()))
        assert scenario_from_dict(json.loads(text)) == Scenario()


class TestValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError, match="unknown key 'delay'"):
            scenario_from_dict({"delay": 0.12})

    def test_unknown_section_key(self):
        with pytest.raises(ScenarioError,
                           match="unknown key 'points' in section 'scan'"):
            scenario_from_dict({"scan": {"points": 100}})

    def test_section_must_be_object(self):
        with pytest.raises(ScenarioError, match="must be an object"):
            scenario_from_dict({"scan": 42})

    def test_document_must_be_object(self):
        with pytest.raises(ScenarioError, match="JSON object"):
            scenario_from_dict([1, 2, 3])

    def test_zero_delay_message_names_the_physics(self):
        with pytest.raises(ScenarioError, match="no discrete structure"):
            scenario_from_dict({"tau1_ps": 0.0})

    def test_negative_delay(self):
        with pytest.raises(ScenarioError, match="positive"):
            scenario_from_dict({"tau1_ps": -0.2})

    def test_non_finite_delay(self):
        with pytest.raises(ScenarioError, match="finite"):
            Scenario(tau1_ps=float("inf"))
        with pytest.raises(ScenarioError, match="float range"):
            scenario_from_dict({"tau1_ps": 10**400})

    def test_bool_is_not_a_number(self):
        with pytest.raises(ScenarioError, match="must be a number"):
            scenario_from_dict({"tau1_ps": True})

    def test_model_errors_are_wrapped(self):
        with pytest.raises(ScenarioError, match="invalid section 'model'"):
            scenario_from_dict({"model": {"marginal_fwhm_nm": -3.0}})


class TestScanConfig:
    def test_rejects_bad_ranges(self):
        with pytest.raises(ScenarioError, match="exceed"):
            ScanConfig(tau2_min_ps=0.5, tau2_max_ps=-0.5)
        with pytest.raises(ScenarioError, match="finite"):
            ScanConfig(tau2_min_ps=float("nan"))
        with pytest.raises(ScenarioError, match="float range"):
            ScanConfig(tau2_min_ps=10**400, tau2_max_ps=10**400 + 1)

    def test_rejects_bad_counts(self):
        with pytest.raises(ScenarioError, match="n_points"):
            ScanConfig(n_points=2)
        for huge in (1e300, float("inf"), 2**63):  # beyond any numpy array
            with pytest.raises(ScenarioError, match="n_points"):
                ScanConfig(n_points=huge)
        assert ScanConfig(n_points=200_000).n_points == 200_000
        with pytest.raises(ScenarioError, match="counts_per_point"):
            ScanConfig(counts_per_point=-1)

    def test_noiseless_zero_counts_allowed(self):
        assert ScanConfig(counts_per_point=0).counts_per_point == 0

    def test_integral_floats_are_stored_as_int(self):
        scan = ScanConfig(n_points=601.0, counts_per_point=1e3, seed=7.0)
        fit = FitConfig(m=4.0, max_iterations=50.0)
        for value in (scan.n_points, scan.counts_per_point, scan.seed, fit.m,
                      fit.max_iterations):
            assert type(value) is int

    def test_seed_range(self):
        ScanConfig(seed=0)
        ScanConfig(seed=2 ** 64 - 1)
        with pytest.raises(ScenarioError, match="64-bit"):
            ScanConfig(seed=-1)
        with pytest.raises(ScenarioError, match="64-bit"):
            ScanConfig(seed=2 ** 64)


class TestFitConfig:
    def test_m_validation(self):
        assert FitConfig(m=None).m is None
        assert FitConfig(m=6).m == 6
        for bad in (3, 0, -2, 1):
            with pytest.raises(ScenarioError, match="even"):
                FitConfig(m=bad)

    def test_max_iterations_range(self):
        for bad in (0, 2.5, float("inf"), float("nan")):
            with pytest.raises(ScenarioError, match="max_iterations"):
                FitConfig(max_iterations=bad)
        assert FitConfig(max_iterations=10**7).max_iterations == 10**7

    @pytest.mark.parametrize("key", ["gradient_tol", "cost_tol"])
    def test_lm_tolerances_are_not_scenario_keys(self, key):
        # The stop rule's tolerances are hombeat.lm constants.
        with pytest.raises(ScenarioError, match="unknown key"):
            scenario_from_dict({"fit": {key: 1e-6}})


class TestAnalysisConfig:
    def test_mode_validation(self):
        assert AnalysisConfig(mode="measured-only").mode == "measured-only"
        with pytest.raises(ScenarioError, match="analysis.mode"):
            AnalysisConfig(mode="optimistic")


class TestLoadScenario:
    def test_loads_valid_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"tau1_ps": 0.37, "fit": {"m": 6}}))
        s = load_scenario(str(path))
        assert s.tau1_ps == 0.37
        assert s.fit.m == 6

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(str(tmp_path / "absent.json"))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError, match="not valid JSON"):
            load_scenario(str(path))

    def test_scenario_error_is_a_value_error(self):
        assert issubclass(ScenarioError, ValueError)
