import json
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (BENCH_DELAYS_PS, live_cells, reference_map_csv,
                      reference_map_json)

import hombeat.cli
import hombeat.io
from hombeat.cli import main
from hombeat.density import build_restricted_dm, eof_lower_bound, eof_reference_comparison
from hombeat.fringes import FringeScan, fit_fringe_scan, fringe_model_eval, synth_scan
from hombeat.io import (
    IOFormatError,
    dm_to_dict,
    fit_result_to_dict,
    read_fit_json,
    read_map,
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

    def test_numpy_integers_in_the_header(self, counting_scan, tmp_path):
        # Header scalars are formatted, not repr'd: repr(np.int64(5)) is
        # 'np.int64(5)'.
        scan, probs = counting_scan
        scan = FringeScan(scan.tau2_ps, scan.values, np.int64(1000))
        path = tmp_path / "scan.csv"
        write_scan_csv(scan, probs, str(path), seed=np.uint64(2**64 - 1))
        assert path.read_text().splitlines()[:3] == [
            "# schema_version=1", "# counts_per_point=1000",
            "# seed=18446744073709551615"]

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

    @given(seed=st.integers(0, 10_000), n=st.integers(3, 40),
           fmt=st.sampled_from(["csv", "json"]), counting=st.booleans(),
           scan_seed=st.none() | st.integers(0, 2 ** 64 - 1))
    @settings(max_examples=50, deadline=None)
    def test_float_columns_survive_repr_round_trip(self, tmp_path_factory, seed,
                                                   n, fmt, counting, scan_seed):
        # Both encodings, counting and noiseless: every column reads back
        # exactly, and writing what was read gives the same bytes.
        rng = np.random.default_rng(seed)
        tau2 = np.sort(rng.uniform(-5.0, 5.0, n))
        probs = rng.uniform(0.0, 1.0, n)
        values = rng.uniform(0.0, 2000.0, n) if counting else probs
        scan = FringeScan(tau2, values, counts_per_point=1000 if counting else 0)
        write = write_scan_json if fmt == "json" else write_scan_csv
        d = tmp_path_factory.mktemp("rt")
        a, b = str(d / f"a.{fmt}"), str(d / f"b.{fmt}")
        write(scan, probs, a, seed=scan_seed)
        loaded, model_col = read_scan(a)
        assert loaded.counts_per_point == scan.counts_per_point
        assert np.array_equal(loaded.tau2_ps, tau2)
        assert np.array_equal(loaded.values, values)
        assert np.array_equal(model_col, probs)
        write(loaded, model_col, b, seed=scan_seed)
        assert open(a, "rb").read() == open(b, "rb").read()


class TestOneScanRule:
    """counts_per_point >= 1 if and only if all four columns are present,
    in both encodings, and every row has one field per column."""

    ROWS = [(-0.1, 0.5, 480.0), (0.0, 0.4, 410.0), (0.1, 0.5, 520.0)]

    @staticmethod
    def scan_text(fmt, counts_per_point, counting, extra_field=False):
        tau2, probs, counts = (list(c) for c in zip(*TestOneScanRule.ROWS))
        columns = {"tau2_ps": tau2, "probability_model": probs}
        if counting:
            columns.update(counts=counts, sigma=[c ** 0.5 for c in counts])
        if fmt == "json":
            probs += [0.5] * extra_field
            return json.dumps({"schema_version": 1,
                               "counts_per_point": counts_per_point, **columns})
        rows = [",".join(map(repr, r)) for r in zip(*columns.values())]
        rows[-1] += ",0.5" * extra_field
        return "\n".join([f"# counts_per_point={counts_per_point}",
                          ",".join(columns), *rows]) + "\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("counts_per_point, counting, extra_field", [
        (5, False, False),   # counting header, noiseless columns
        (0, True, False),    # noiseless header, counting columns
        (0, False, True),    # a row (JSON: a column) one value too long
    ])
    def test_rejected_in_both_encodings(self, tmp_path, capsys, fmt,
                                        counts_per_point, counting, extra_field):
        path = tmp_path / f"scan.{fmt}"
        path.write_text(self.scan_text(fmt, counts_per_point, counting,
                                       extra_field))
        with pytest.raises(IOFormatError):
            read_scan(str(path))
        assert main(["--out", str(tmp_path / "run"), "fit", str(path)]) == 4
        assert "Traceback" not in capsys.readouterr().err


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

    def test_model_column_must_match_the_delays(self, tmp_path):
        # Four delays with counts and sigma, but a one-entry model column.
        counts = [500.0, 480.0, 510.0, 490.0]
        path = tmp_path / "short_model.json"
        path.write_text(json.dumps({
            "counts_per_point": 1000, "tau2_ps": [0.0, 0.1, 0.2, 0.3],
            "probability_model": [0.5], "counts": counts,
            "sigma": [c ** 0.5 for c in counts]}))
        with pytest.raises(IOFormatError, match="inconsistent scan data"):
            read_scan(str(path))

    def test_integer_beyond_float_range(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "counts_per_point": 0, "tau2_ps": [0.0, 0.1, 0.2],
            "probability_model": [0.5, 10**400, 0.5]}))
        with pytest.raises(IOFormatError, match="inconsistent scan data"):
            read_scan(str(path))
        assert main(["--out", str(tmp_path / "run"), "fit", str(path)]) == 4
        assert "Traceback" not in capsys.readouterr().err

    def test_counts_per_point_beyond_float_range(self, tmp_path, capsys):
        # The fit divides the counts by counts_per_point as a float.
        counts = [500.0, 480.0, 510.0]
        path = tmp_path / "huge_cpp.json"
        path.write_text(json.dumps({
            "counts_per_point": 10**400, "tau2_ps": [0.0, 0.1, 0.2],
            "probability_model": [0.5, 0.5, 0.5], "counts": counts,
            "sigma": [c ** 0.5 for c in counts]}))
        with pytest.raises(IOFormatError, match="beyond float range"):
            read_scan(str(path))
        assert main(["--out", str(tmp_path / "run"), "fit", str(path)]) == 4
        assert "Traceback" not in capsys.readouterr().err

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


def assert_same_map(got, want):
    """Axes and cells equal bit for bit (-0.0 is not +0.0), dtypes too."""
    for name in ("signal_nm", "idler_nm", "rows", "cols", "values"):
        a, b = getattr(got, name), np.asarray(getattr(want, name))
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def read_text(text, path):
    path.write_text(text, encoding="utf-8")
    return read_map(str(path))


def round_trip(map_, path):
    (write_map_json if path.suffix == ".json" else write_map_csv)(map_, str(path))
    return read_map(str(path))


class TestMapFiles:
    """Schema 2: both axes once, then one row per stored cell."""

    def test_csv_layout(self, small_map, tmp_path):
        path = tmp_path / "map.csv"
        write_map_csv(small_map, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "# schema_version=2"
        for line, axis in zip(lines[1:3], ("signal_nm", "idler_nm")):
            values = getattr(small_map, axis).tolist()
            assert line == f"# {axis}=" + ",".join(map(repr, values))
        assert lines[3] == "signal_index,idler_index,intensity"
        assert len(lines) == 4 + small_map.values.size
        k = small_map.values.size // 2
        assert lines[4 + k] == (f"{small_map.rows[k]},{small_map.cols[k]},"
                                f"{float(small_map.values[k])!r}")

    def test_csv_values_round_trip_exactly(self, small_map, tmp_path):
        assert_same_map(round_trip(small_map, tmp_path / "map.csv"), small_map)

    def test_json_matches_csv_payload(self, small_map, tmp_path):
        path = tmp_path / "map.json"
        write_map_json(small_map, str(path))
        data = json.loads(path.read_text())
        assert data["schema_version"] == 2
        assert data["signal_nm"] == small_map.signal_nm.tolist()
        assert data["idler_index"] == small_map.cols.tolist()
        assert data["intensity"] == small_map.values.tolist()
        assert_same_map(read_map(str(path)),
                        round_trip(small_map, tmp_path / "map.csv"))


# Every repr form: -0.0, a subnormal, exponent below 1e-4 and from 1e16 up,
# fixed notation in between, and a +0.0 that must not swallow -0.0.
_HAND_VALUES = [[-0.0, 5e-324, 1e-05], [1e16, 1.0, 0.0]]


class TestMapWriterOracles:
    """Both writers write their oracle's bytes (a per-cell loop for CSV,
    json.dumps for JSON), and each file decodes to the map bit for bit,
    its stored +0.0 cells included."""

    @pytest.mark.parametrize("tau1", BENCH_DELAYS_PS)
    def test_csv_equals_per_cell_loop(self, spectrum_maps, tau1, tmp_path):
        map_ = spectrum_maps[tau1]
        assert_same_map(round_trip(map_, tmp_path / "map.csv"), map_)
        assert (tmp_path / "map.csv").read_text() == reference_map_csv(map_)

    @pytest.mark.parametrize("tau1", BENCH_DELAYS_PS)
    def test_json_equals_json_dumps(self, spectrum_maps, tau1, tmp_path):
        map_ = spectrum_maps[tau1]
        assert_same_map(round_trip(map_, tmp_path / "map.json"), map_)
        assert (tmp_path / "map.json").read_text() == reference_map_json(map_)

    def test_hand_built_map_keeps_every_repr(self, tmp_path):
        map_ = JointSpectrumMap(signal_nm=np.array([5e-324, 1e16]),
                                idler_nm=np.array([-0.0, 1e-05, 1.0]),
                                **live_cells(_HAND_VALUES))
        for name, text in (("map.csv", reference_map_csv(map_)),
                           ("map.json", reference_map_json(map_))):
            assert_same_map(round_trip(map_, tmp_path / name), map_)
            assert (tmp_path / name).read_text() == text
        csv_text = (tmp_path / "map.csv").read_text()
        assert "# signal_nm=5e-324,1e+16\n# idler_nm=-0.0,1e-05,1.0\n" in csv_text
        assert csv_text.endswith("\n0,0,-0.0\n0,1,5e-324\n0,2,1e-05\n"
                                 "1,0,1e+16\n1,1,1.0\n")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cell(self, bad, tmp_path):
        intensity = np.array(_HAND_VALUES)
        intensity[1, 2] = bad
        map_ = SimpleNamespace(signal_nm=np.array([800.0, 801.0]),
                               idler_nm=np.array([810.0, 811.0, 812.0]),
                               **live_cells(intensity))
        with pytest.raises(ValueError):
            write_map_json(map_, str(tmp_path / "map.json"))
        write_map_csv(map_, str(tmp_path / "map.csv"))
        assert f"1,2,{bad!r}\n" in (tmp_path / "map.csv").read_text()
        with pytest.raises(IOFormatError, match="finite"):
            read_map(str(tmp_path / "map.csv"))

    def test_non_finite_axis_rejected_in_json(self, tmp_path):
        map_ = SimpleNamespace(signal_nm=np.array([800.0, np.inf]),
                               idler_nm=np.array([810.0]),
                               **live_cells(np.zeros((2, 1))))
        with pytest.raises(ValueError):
            write_map_json(map_, str(tmp_path / "map.json"))

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 3), cols=st.integers(1, 3), data=st.data())
    def test_any_small_map_matches_both_oracles(self, rows, cols, data,
                                                tmp_path_factory):
        # A map the constructor refuses is refused as a file too (exit 4).
        tmp_path = tmp_path_factory.mktemp("map")

        def floats(n):
            return np.array(data.draw(st.lists(st.floats(), min_size=n, max_size=n)),
                            dtype=float)
        intensity = floats(rows * cols).reshape(rows, cols)
        map_ = SimpleNamespace(signal_nm=floats(rows), idler_nm=floats(cols),
                               intensity=intensity, **live_cells(intensity))
        texts = {"map.csv": reference_map_csv(map_)}
        try:
            texts["map.json"] = reference_map_json(map_)
        except ValueError:
            pass
        for name, text in texts.items():
            (write_map_json if name == "map.json" else write_map_csv)(
                map_, str(tmp_path / name))
            assert (tmp_path / name).read_text() == text
        try:
            want = JointSpectrumMap(map_.signal_nm, map_.idler_nm, map_.rows,
                                    map_.cols, map_.values)
        except ValueError:
            for name in texts:
                with pytest.raises(IOFormatError):
                    read_map(str(tmp_path / name))
        else:
            for name in texts:
                assert_same_map(read_map(str(tmp_path / name)), want)


class TestMapReaderErrors:
    """Every malformed map file raises IOFormatError, in both encodings."""

    CELLS = {"signal_index": [0, 0, 1], "idler_index": [0, 1, 1],
             "intensity": [0.5, 1.0, 0.25]}

    @staticmethod
    def v2_text(fmt, schema_version=2, names=None, **cells):
        axes = {"signal_nm": [800.0, 801.0], "idler_nm": [810.0, 811.0]}
        cells = {**TestMapReaderErrors.CELLS, **cells}
        if names:
            cells = dict(zip(names, cells.values()))
        if fmt == "json":
            return json.dumps({"schema_version": schema_version, **axes, **cells})
        lines = [f"# schema_version={schema_version}"]
        lines += [f"# {k}={','.join(map(repr, v))}" for k, v in axes.items()]
        lines.append(",".join(cells))
        lines += map(",".join, zip(*(map(repr, c) for c in cells.values())))
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_valid_text_reads(self, tmp_path, fmt):
        map_ = read_text(self.v2_text(fmt), tmp_path / f"map.{fmt}")
        assert map_.intensity.tolist() == [[0.5, 1.0], [0.0, 0.25]]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("change, match", [
        ({"schema_version": 3}, "schema_version"),
        ({"signal_index": [0, 0, 2]}, "outside the axes"),
        ({"idler_index": [0, -1, 1]}, "outside the axes"),
        ({"idler_index": [0, 0, 1]}, "row-major"),
        ({"signal_index": [1, 0, 0]}, "row-major"),
        ({"intensity": [0.5, -1.0, 0.25]}, "non-negative"),
        ({"intensity": [0.5, float("nan"), 0.25]}, "finite"),
        ({"idler_index": [0, 0.5, 1]}, "integer"),
        ({"names": ["signal_nm", "idler_nm", "intensity"]}, "columns|required"),
        ({"names": ["row", "col", "intensity"]}, "columns|required"),
        ({"intensity": [0.5, 10**400, 0.25]}, "finite|too large"),
    ])
    def test_rejected(self, tmp_path, fmt, change, match):
        path = tmp_path / f"map.{fmt}"
        path.write_text(self.v2_text(fmt, **change))
        with pytest.raises(IOFormatError, match=match):
            read_map(str(path))

    @pytest.mark.parametrize("name, text, match", [
        ("map.json", "{oops", "not valid JSON"),
        ("map.json", json.dumps({"schema_version": 2, "signal_nm": [1.0]}),
         "required fields"),
        ("map.csv", "# schema_version=2\n# signal_nm=800.0\n"
                    "signal_index,idler_index,intensity\n", "required fields"),
        ("map.csv", "# schema_version=2\n# signal_nm=800.0\n# idler_nm=810.0\n"
                    "signal_index,idler_index,intensity\n0,0\n", "malformed map row"),
    ])
    def test_malformed_file(self, tmp_path, name, text, match):
        with pytest.raises(IOFormatError, match=match):
            read_text(text, tmp_path / name)


def json_dumps_oracle(payload) -> bytes:
    """The bytes write_json must produce: indent=2 json.dumps, one newline."""
    return (json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
            + "\n").encode()


# Scalars json.dumps writes differently by type or value: big ints, signed
# zero, subnormals, the float extremes, float subclasses, and strings that
# need escapes (quotes, backslashes, line breaks, control and non-ASCII).
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=-2**200, max_value=-2**64),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308]),
    st.text(st.characters() | st.sampled_from('"\\\n\t\x00\x1f\x7f\u2028é€😀'),
            max_size=12),
)
_KEYS = st.text(st.characters() | st.sampled_from('"\\\n\x01é'), max_size=8)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=5) | st.tuples(inner, inner)
                   | st.dictionaries(_KEYS, inner, max_size=4)),
    max_leaves=16)


@pytest.fixture(scope="module")
def json_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("json")


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

    @pytest.mark.parametrize("counts", [0, 1000])
    @pytest.mark.parametrize("tau1", BENCH_DELAYS_PS)
    def test_every_cli_payload_is_json_dumps(self, tmp_path, monkeypatch,
                                             tau1, counts):
        # Every dict a JSON pipeline writes, as the stages hand it over
        # (numpy floats, tuples): map and scan tables, sidecar, fit, dm,
        # report and bundle.
        written = {}

        def spy(path, payload):
            write_json(path, payload)
            written[os.path.basename(path)] = (path, payload)

        monkeypatch.setattr(hombeat.io, "write_json", spy)
        monkeypatch.setattr(hombeat.cli, "write_json", spy)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(
            {"tau1_ps": tau1, "scan": {"counts_per_point": counts}}))
        assert main(["--scenario", str(scenario), "--out", str(tmp_path / "run"),
                     "--format", "json", "pipeline"]) == 0
        assert sorted(written) == ["bundle.json", "dm.json", "fit.json", "map.json",
                                   "report.json", "scan.json", "spectrum_bins.json"]
        assert ("seed" in written["scan.json"][1]) == (counts > 0)
        for path, payload in written.values():
            with open(path, "rb") as fh:
                assert fh.read() == json_dumps_oracle(payload), path

    @pytest.mark.parametrize("with_comparison", [True, False])
    def test_report_is_json_dumps(self, json_dir, module_dm, with_comparison):
        report = eof_lower_bound(module_dm)
        payload = report_to_dict(
            report, eof_reference_comparison(report) if with_comparison else None)
        assert ("reference_comparison" in payload) == with_comparison
        write_json(str(json_dir / "report.json"), payload)
        assert (json_dir / "report.json").read_bytes() == json_dumps_oracle(payload)

    @settings(max_examples=80, deadline=None)
    @given(payload=st.dictionaries(_KEYS, _VALUES, max_size=4))
    def test_any_payload_is_json_dumps(self, json_dir, payload):
        write_json(str(json_dir / "any.json"), payload)
        assert (json_dir / "any.json").read_bytes() == json_dumps_oracle(payload)

    def test_mixed_and_empty_containers(self, json_dir):
        payload = {"a": [1, [2.5, []], {}, {"z": None, "y": (True, "x")}, ()],
                   "b": {}, "c": [], "d": [[[]]], "e": {"f": {"g": [-0.0]}}}
        write_json(str(json_dir / "mixed.json"), payload)
        assert (json_dir / "mixed.json").read_bytes() == json_dumps_oracle(payload)

    @pytest.mark.parametrize("payload", [
        {"x": float("nan")},
        {"x": [1.0, float("inf")]},
        {"x": [[1.0], [2.0, -float("inf")]]},
        {"x": {"y": np.float64("nan")}},
        {"x": [{"y": 1.0}, 2.0, float("nan")]},
    ], ids=["value", "flat-list", "nested-list", "flat-dict", "mixed-list"])
    def test_nan_and_inf_rejected(self, json_dir, payload):
        with pytest.raises(ValueError):
            write_json(str(json_dir / "bad.json"), payload)

    @pytest.mark.parametrize("payload", [
        {1: "a"},
        {"x": {2: 1.0}},
        {"x": [{None: 1}]},
        {"x": {1.5: [1, 2]}},
        {"x": {True: {"y": 1}}},
    ], ids=["int", "flat-dict", "in-list", "float", "bool"])
    def test_non_str_key_rejected(self, json_dir, payload):
        # json.dumps would write these keys as strings; no payload has one.
        with pytest.raises(TypeError):
            write_json(str(json_dir / "key.json"), payload)
