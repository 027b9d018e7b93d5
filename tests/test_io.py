import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import BENCH_DELAYS_PS

from hombeat.density import build_restricted_dm, eof_lower_bound, eof_reference_comparison
from hombeat.fringes import FringeScan, fit_fringe_scan, fringe_model_eval, synth_scan
from hombeat.io import (
    IOFormatError,
    dm_to_dict,
    fit_result_to_dict,
    read_fit_json,
    read_scan,
    report_to_dict,
    write_bundle,
    write_dm_json,
    write_fit_json,
    write_json,
    write_map_csv,
    write_map_json,
    write_report_json,
    write_scan_csv,
    write_scan_json,
)
from hombeat.hom import jsi_map
from hombeat.reference import fringe_params_from_reference
from hombeat.spectral import BiphotonSpectrumModel, JointSpectrumMap


@pytest.fixture(scope="module")
def counting_scan():
    params = fringe_params_from_reference(0.27)
    scan = synth_scan(params, -0.75, 0.75, 101, 1000, seed=5)
    return scan, fringe_model_eval(params, scan.tau2_ps)


@pytest.fixture(scope="module")
def noiseless_scan():
    params = fringe_params_from_reference(0.12)
    scan = synth_scan(params, -0.5, 0.5, 51, 0)
    return scan, scan.values


@pytest.fixture(scope="module")
def module_fit():
    params = fringe_params_from_reference(0.27)
    scan = synth_scan(params, -0.75, 0.75, 601, 0)
    return fit_fringe_scan(scan, 4, known_weights=(0.56, 0.44))


@pytest.fixture(scope="module")
def module_dm():
    return build_restricted_dm(fringe_params_from_reference(0.27))


@pytest.fixture(scope="module")
def small_map():
    model = BiphotonSpectrumModel(pump_fwhm_thz=1.0)
    return jsi_map(model, n_points=24)


class TestScanCsv:
    def test_counting_round_trip(self, counting_scan, tmp_path):
        scan, probs = counting_scan
        path = str(tmp_path / "scan.csv")
        write_scan_csv(scan, probs, path, seed=5)
        loaded, model_col = read_scan(path)
        assert loaded.counts_per_point == 1000
        assert np.array_equal(loaded.tau2_ps, scan.tau2_ps)
        assert np.array_equal(loaded.values, scan.values)
        assert np.array_equal(loaded.uncertainties, scan.uncertainties)
        assert np.array_equal(model_col, probs)

    def test_counting_header_and_comments(self, counting_scan, tmp_path):
        scan, probs = counting_scan
        path = tmp_path / "scan.csv"
        write_scan_csv(scan, probs, str(path), seed=5)
        lines = path.read_text().splitlines()
        assert lines[0] == "# schema_version=1"
        assert lines[1] == "# counts_per_point=1000"
        assert lines[2] == "# seed=5"
        assert lines[3] == "tau2_ps,probability_model,counts,sigma"
        assert len(lines) == 4 + scan.n_points

    def test_noiseless_has_two_columns(self, noiseless_scan, tmp_path):
        scan, probs = noiseless_scan
        path = tmp_path / "scan.csv"
        write_scan_csv(scan, probs, str(path))
        lines = path.read_text().splitlines()
        assert "# counts_per_point=0" in lines
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "tau2_ps,probability_model"
        loaded, model_col = read_scan(str(path))
        assert loaded.counts_per_point == 0
        assert np.array_equal(loaded.values, scan.values)
        assert np.all(loaded.uncertainties == 0.0)

    def test_write_is_deterministic(self, counting_scan, tmp_path):
        scan, probs = counting_scan
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_scan_csv(scan, probs, a, seed=5)
        write_scan_csv(scan, probs, b, seed=5)
        assert open(a, "rb").read() == open(b, "rb").read()

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_float_columns_survive_repr_round_trip(self, tmp_path_factory, seed):
        rng = np.random.default_rng(seed)
        n = 5
        tau2 = np.sort(rng.uniform(-5.0, 5.0, n))
        probs = rng.uniform(0.0, 1.0, n)
        scan = FringeScan(tau2, probs)
        path = str(tmp_path_factory.mktemp("rt") / "s.csv")
        write_scan_csv(scan, probs, path)
        loaded, model_col = read_scan(path)
        assert np.array_equal(loaded.tau2_ps, tau2)
        assert np.array_equal(model_col, probs)


class TestScanCsvErrors:
    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_scan(str(tmp_path / "absent.csv"))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# schema_version=1\n")
        with pytest.raises(IOFormatError, match="no data rows"):
            read_scan(str(path))

    def test_unexpected_columns(self, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_text("time,value\n0.0,0.5\n")
        with pytest.raises(IOFormatError, match="unexpected scan columns"):
            read_scan(str(path))

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("tau2_ps,probability_model\n0.0,0.5\n0.1,oops\n")
        with pytest.raises(IOFormatError, match="malformed scan row"):
            read_scan(str(path))

    def test_short_row(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("tau2_ps,probability_model\n0.0,0.5\n0.1\n0.2,0.5\n")
        with pytest.raises(IOFormatError, match="malformed scan row"):
            read_scan(str(path))

    def test_counting_columns_without_counts_per_point(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("tau2_ps,probability_model,counts,sigma\n"
                        "0.0,0.5,500,22.4\n")
        with pytest.raises(IOFormatError, match="counts_per_point < 1"):
            read_scan(str(path))

    def test_bad_counts_per_point_comment(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("# counts_per_point=lots\n"
                        "tau2_ps,probability_model,counts,sigma\n"
                        "0.0,0.5,500,22.4\n")
        with pytest.raises(IOFormatError, match="not an integer"):
            read_scan(str(path))

    def test_inconsistent_sigma_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("# counts_per_point=1000\n"
                        "tau2_ps,probability_model,counts,sigma\n"
                        "0.0,0.5,500.0,3.0\n0.1,0.5,500.0,22.360679774997898\n")
        with pytest.raises(IOFormatError, match="inconsistent scan data"):
            read_scan(str(path))


class TestScanJson:
    def test_counting_round_trip(self, counting_scan, tmp_path):
        scan, probs = counting_scan
        path = str(tmp_path / "scan.json")
        write_scan_json(scan, probs, path, seed=5)
        loaded, model_col = read_scan(path)
        assert loaded.counts_per_point > 0
        assert np.array_equal(loaded.values, scan.values)
        assert np.array_equal(model_col, probs)
        data = json.loads(open(path).read())
        assert data["schema_version"] == 1
        assert data["seed"] == 5

    def test_noiseless_round_trip(self, noiseless_scan, tmp_path):
        scan, probs = noiseless_scan
        path = str(tmp_path / "scan.json")
        write_scan_json(scan, probs, path)
        loaded, _ = read_scan(path)
        assert loaded.counts_per_point == 0
        assert np.array_equal(loaded.values, scan.values)
        data = json.loads(open(path).read())
        assert data["counts_per_point"] == 0
        assert "counts" not in data

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        with pytest.raises(IOFormatError, match="not valid JSON"):
            read_scan(str(path))

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"tau2_ps": [0.0, 0.1]}))
        with pytest.raises(IOFormatError, match="required fields"):
            read_scan(str(path))

    def test_counting_scan_without_counts(self, tmp_path):
        path = tmp_path / "nc.json"
        path.write_text(json.dumps({
            "counts_per_point": 100,
            "tau2_ps": [0.0, 0.1],
            "probability_model": [0.5, 0.5]}))
        with pytest.raises(IOFormatError, match="lacks counts"):
            read_scan(str(path))


class TestFitJson:
    def test_round_trip(self, module_fit, tmp_path):
        fit = module_fit
        path = str(tmp_path / "fit.json")
        write_fit_json(fit, path)
        params, meta = read_fit_json(path)
        assert params.coherence_time_ps == fit.params.coherence_time_ps
        for got, want in zip(params.pairs, fit.params.pairs):
            assert got.weight == want.weight
            assert got.detuning_thz == want.detuning_thz
            assert got.visibility == want.visibility
            assert got.phase_deg == want.phase_deg
        assert meta["converged"] is True
        assert meta["message"] == fit.message
        assert meta["residual_norm"] == fit.residual_norm
        assert meta["n_iterations"] == fit.n_iterations

    def test_dict_contents(self, module_fit):
        data = fit_result_to_dict(module_fit)
        assert data["schema_version"] == 1
        assert data["weights_supplied"] is True
        assert len(data["pairs"]) == 2
        assert len(data["covariance"]) == 7
        assert data["param_names"][0] == "coherence_time_ps"
        assert len(data["seed_pairs"]) == 2

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "fit.json"
        path.write_text("nope{")
        with pytest.raises(IOFormatError, match="not valid JSON"):
            read_fit_json(str(path))

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "fit.json"
        path.write_text(json.dumps({"converged": True}))
        with pytest.raises(IOFormatError, match="required fields"):
            read_fit_json(str(path))


class TestDensityAndReportJson:
    def test_dm_dict_reconstructs_matrix(self, module_dm, tmp_path):
        dm = module_dm
        data = dm_to_dict(dm)
        rho = np.array(data["real"]) + 1j * np.array(data["imag"])
        assert np.abs(rho - dm.entries).max() < 1e-15
        assert data["dimension_m"] == 4
        assert data["construction_mode"] == "assumed-average"
        assert len(data["basis_labels"]) == 4
        path = str(tmp_path / "dm.json")
        write_dm_json(dm, path)
        assert json.loads(open(path).read())["schema_version"] == 1

    def test_report_dict_with_comparison(self, module_dm, tmp_path):
        dm = module_dm
        report = eof_lower_bound(dm)
        comparison = eof_reference_comparison(report)
        data = report_to_dict(report, comparison)
        assert data["eof_lower_bound_ebits"] == report.eof_lower_bound_ebits
        assert data["reference_comparison"]["reference_ebits"] == 1.05
        bare = report_to_dict(report, None)
        assert "reference_comparison" not in bare
        path = str(tmp_path / "report.json")
        write_report_json(report, comparison, path)
        assert json.loads(open(path).read())["mode"] == "assumed-average"


class TestMapFiles:
    def test_csv_layout(self, small_map, tmp_path):
        path = tmp_path / "map.csv"
        write_map_csv(small_map, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "# schema_version=1"
        assert lines[1] == "signal_nm,idler_nm,intensity"
        assert len(lines) == 2 + 24 * 24
        # row-major: the first 24 rows share the first signal wavelength
        first_signal = lines[2].split(",")[0]
        assert all(l.split(",")[0] == first_signal for l in lines[2:26])
        assert lines[26].split(",")[0] != first_signal

    def test_csv_values_round_trip_exactly(self, small_map, tmp_path):
        path = tmp_path / "map.csv"
        write_map_csv(small_map, str(path))
        rows = [l.split(",") for l in path.read_text().splitlines()[2:]]
        vals = np.array([float(r[2]) for r in rows]).reshape(24, 24)
        assert np.array_equal(vals, small_map.intensity)

    def test_json_matches_csv_payload(self, small_map, tmp_path):
        path = str(tmp_path / "map.json")
        write_map_json(small_map, path)
        data = json.loads(open(path).read())
        assert np.array_equal(np.array(data["intensity"]), small_map.intensity)
        assert np.array_equal(np.array(data["signal_nm"]), small_map.signal_nm)


def _reference_map_csv(map_) -> str:
    """The per-cell loop the CSV map writer replaced, kept as its oracle."""
    lines = ["# schema_version=1", "signal_nm,idler_nm,intensity"]
    for i, s in enumerate(map_.signal_nm):
        srep = repr(float(s))
        row = map_.intensity[i]
        for j, val in enumerate(map_.idler_nm):
            lines.append(f"{srep},{repr(float(val))},{repr(float(row[j]))}")
    return "\n".join(lines) + "\n"


def _reference_map_json(map_) -> str:
    """The json.dumps text the JSON map writer must reproduce."""
    return json.dumps({
        "schema_version": 1,
        "signal_nm": [float(v) for v in map_.signal_nm],
        "idler_nm": [float(v) for v in map_.idler_nm],
        "intensity": [[float(v) for v in row] for row in map_.intensity],
    }, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _written(writer, map_, path) -> str:
    writer(map_, str(path))
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


# Every repr form: -0.0, a subnormal, exponent below 1e-4 and from 1e16 up,
# fixed notation in between, and a +0.0 that must not swallow -0.0.
_HAND_VALUES = [[-0.0, 5e-324, 1e-05], [1e16, 1.0, 0.0]]


class TestMapWriterOracles:
    @pytest.mark.parametrize("tau1", BENCH_DELAYS_PS)
    def test_csv_equals_per_cell_loop(self, spectrum_maps, tau1, tmp_path):
        map_ = spectrum_maps[tau1]
        assert _written(write_map_csv, map_, tmp_path / "map.csv") == (
            _reference_map_csv(map_))

    @pytest.mark.parametrize("tau1", BENCH_DELAYS_PS)
    def test_json_equals_json_dumps(self, spectrum_maps, tau1, tmp_path):
        map_ = spectrum_maps[tau1]
        assert _written(write_map_json, map_, tmp_path / "map.json") == (
            _reference_map_json(map_))

    def test_hand_built_map_keeps_every_repr(self, tmp_path):
        map_ = JointSpectrumMap(signal_nm=np.array([5e-324, 1e16]),
                                idler_nm=np.array([-0.0, 1e-05, 1.0]),
                                intensity=np.array(_HAND_VALUES))
        csv_text = _written(write_map_csv, map_, tmp_path / "map.csv")
        assert csv_text == _reference_map_csv(map_)
        assert "5e-324,-0.0,-0.0\n" in csv_text
        assert "1e+16,1.0,0.0\n" in csv_text
        assert _written(write_map_json, map_, tmp_path / "map.json") == (
            _reference_map_json(map_))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cell(self, bad, tmp_path):
        intensity = np.array(_HAND_VALUES)
        intensity[1, 2] = bad
        map_ = SimpleNamespace(signal_nm=np.array([800.0, 801.0]),
                               idler_nm=np.array([810.0, 811.0, 812.0]),
                               intensity=intensity)
        assert _written(write_map_csv, map_, tmp_path / "map.csv") == (
            _reference_map_csv(map_))
        with pytest.raises(ValueError):
            _reference_map_json(map_)
        with pytest.raises(ValueError):
            write_map_json(map_, str(tmp_path / "map.json"))

    def test_non_finite_axis_rejected_in_json(self, tmp_path):
        map_ = SimpleNamespace(signal_nm=np.array([800.0, np.inf]),
                               idler_nm=np.array([810.0]),
                               intensity=np.zeros((2, 1)))
        with pytest.raises(ValueError):
            write_map_json(map_, str(tmp_path / "map.json"))

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(0, 3), cols=st.integers(0, 3),
           data=st.data())
    def test_any_small_map_matches_both_oracles(self, rows, cols, data,
                                                tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("map")

        def floats(n):
            return np.array(data.draw(st.lists(st.floats(), min_size=n, max_size=n)),
                            dtype=float)
        map_ = SimpleNamespace(signal_nm=floats(rows), idler_nm=floats(cols),
                               intensity=floats(rows * cols).reshape(rows, cols))
        assert _written(write_map_csv, map_, tmp_path / "map.csv") == (
            _reference_map_csv(map_))
        try:
            want = _reference_map_json(map_)
        except ValueError:
            with pytest.raises(ValueError):
                write_map_json(map_, str(tmp_path / "map.json"))
        else:
            assert _written(write_map_json, map_, tmp_path / "map.json") == want


class TestWriteJson:
    def test_sorted_keys_and_trailing_newline(self, tmp_path):
        path = tmp_path / "x.json"
        write_json(str(path), {"b": 1, "a": 2})
        text = path.read_text()
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")

    def test_nan_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_json(str(tmp_path / "bad.json"), {"x": float("nan")})

    def test_shorter_payload_replaces_longer_file(self, tmp_path):
        path = tmp_path / "x.json"
        write_json(str(path), {"values": list(range(500))})
        write_json(str(path), {"a": 1})
        assert path.read_bytes() == b'{\n  "a": 1\n}\n'

    def test_new_file_mode_matches_open(self, tmp_path):
        write_json(str(tmp_path / "x.json"), {"a": 1})
        with open(tmp_path / "y.json", "w"):
            pass
        assert ((tmp_path / "x.json").stat().st_mode
                == (tmp_path / "y.json").stat().st_mode)

    def test_bundle_structure(self, tmp_path):
        path = tmp_path / "bundle.json"
        write_bundle(str(path), {"tau1_ps": 0.12}, {"scan": "scan.csv"},
                     seed=42, timestamp="2026-01-01T00:00:00Z")
        data = json.loads(path.read_text())
        assert data["provenance"]["seed"] == 42
        assert data["provenance"]["tool_version"] == "0.1.0"
        assert data["outputs"]["scan"] == "scan.csv"
        assert data["scenario"]["tau1_ps"] == 0.12
