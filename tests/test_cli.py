import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hombeat
import hombeat.io as hio
from conftest import BENCH_DELAYS_PS
from hombeat.cli import _build_parser, _extraction_sidecar, main, run_chain


def write_scenario(tmp_path, name="scenario.json", **overrides):
    doc = {"tau1_ps": 0.27, "fit": {"m": 4},
           "scan": {"n_points": 401, "counts_per_point": 2000, "seed": 7}}
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(doc.get(key), dict):
            doc[key].update(value)
        else:
            doc[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestSpectrumCommand:
    def test_writes_map_and_sidecar(self, tmp_path):
        scenario = write_scenario(tmp_path)
        out = tmp_path / "run"
        assert main(["--scenario", scenario, "--out", str(out), "spectrum"]) == 0
        assert (out / "map.csv").exists()
        sidecar = json.loads((out / "spectrum_bins.json").read_text())
        assert sidecar["schema_version"] == 1
        assert sidecar["tau1_ps"] == 0.27
        assert sidecar["threshold"] == 0.6
        assert sidecar["dimension_m"] == 4
        assert len(sidecar["pairs"]) == 2
        for pair in sidecar["pairs"]:
            assert set(pair) == {"index_j", "detuning_thz", "weight",
                                 "balance", "lobe_fwhm_nm"}
        assert sidecar["predicted"]["dimension_m"] == 4
        assert sidecar["tau1_estimate_ps"] == pytest.approx(0.27, abs=1e-4)

    def test_json_format(self, tmp_path):
        scenario = write_scenario(tmp_path)
        out = tmp_path / "run"
        rc = main(["--scenario", scenario, "--out", str(out),
                   "--format", "json", "spectrum"])
        assert rc == 0
        assert (out / "map.json").exists()
        assert not (out / "map.csv").exists()

    def test_unresolvable_comb_is_a_numeric_failure(self, tmp_path, capsys):
        # At 3 ps the comb spacing is four frequency steps of the default
        # map, under the five extraction needs.
        scenario = write_scenario(tmp_path, tau1_ps=3)
        rc = main(["--scenario", scenario, "--out", str(tmp_path / "run"),
                   "spectrum"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "numeric failure" in err and "2.394 ps" in err
        assert "Traceback" not in err

    def test_span_reaching_zero_frequency_is_a_configuration_error(
            self, tmp_path, capsys):
        # +-5.5 sigma_1 of a 400 nm marginal at 810 nm reaches below 0 THz.
        scenario = write_scenario(tmp_path, model={"marginal_fwhm_nm": 400.0})
        rc = main(["--scenario", scenario, "--out", str(tmp_path / "run"),
                   "spectrum"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "grid frequencies must be positive" in err
        assert "Traceback" not in err


@pytest.fixture(scope="module")
def pipeline_runs(tmp_path_factory):
    """Default pipelines at the four reference delays, in both formats."""
    runs = {}
    for tau1 in BENCH_DELAYS_PS:
        d = tmp_path_factory.mktemp(f"pipeline-{tau1}")
        scenario = d / "scenario.json"
        scenario.write_text(json.dumps({"tau1_ps": tau1}))
        for fmt in ("csv", "json"):
            assert main(["--scenario", str(scenario), "--out", str(d / fmt),
                         "--format", fmt, "pipeline"]) == 0
            runs[tau1, fmt] = str(scenario), d / fmt
    return runs


class TestSpectrumFromMapFile:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("tau1", BENCH_DELAYS_PS)
    def test_pipeline_map_gives_the_pipeline_bins(self, pipeline_runs, tmp_path,
                                                  tau1, fmt):
        scenario, run = pipeline_runs[tau1, fmt]
        out = tmp_path / "again"
        assert main(["--scenario", scenario, "--out", str(out), "spectrum",
                     str(run / f"map.{fmt}")]) == 0
        assert os.listdir(out) == ["spectrum_bins.json"]
        assert read_bytes(out / "spectrum_bins.json") == read_bytes(
            run / "spectrum_bins.json")

    # Well-formed map files of the retired schema 1: a row per grid cell
    # (CSV) or the dense grid (JSON).
    SCHEMA_1 = [
        "# schema_version=1\nsignal_nm,idler_nm,intensity\n800.0,810.0,1.0\n",
        json.dumps({"schema_version": 1, "signal_nm": [800.0],
                    "idler_nm": [810.0], "intensity": [[1.0]]}),
    ]

    @pytest.mark.parametrize("text", [
        None,
        "# schema_version=2\n# signal_nm=800.0\n# idler_nm=810.0\n"
        "signal_index,idler_index,intensity\n0,1,1.0\n",
        "# schema_version=1\nsignal_nm,idler_nm,intensity\n800.0,810.0,oops\n",
        *SCHEMA_1,
    ])
    def test_missing_or_malformed_map_exits_4(self, tmp_path, capsys, text):
        path = tmp_path / ("map.json" if text and text[0] == "{" else "map.csv")
        if text is not None:
            path.write_text(text)
        out = tmp_path / "run"
        assert main(["--out", str(out), "spectrum", str(path)]) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert not (out / "spectrum_bins.json").exists()
        if text in self.SCHEMA_1:
            assert err.startswith("input format error: unknown map schema_version")


class TestModuleEntryPoint:
    def test_python_m_hombeat_cli(self, tmp_path):
        src = str(Path(hombeat.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}

        def run(*argv):
            return subprocess.run([sys.executable, "-m", "hombeat.cli", *argv],
                                  env=env, capture_output=True, text=True,
                                  timeout=120)
        out = tmp_path / "run"
        done = run("--out", str(out), "spectrum")
        assert done.returncode == 0, done.stderr
        assert (out / "map.csv").exists()
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"tau1_ps": 0.0}))
        done = run("--scenario", str(bad), "--out", str(out), "scan")
        assert done.returncode == 2
        assert "configuration error" in done.stderr
        assert "Traceback" not in done.stderr


class TestScanCommand:
    def test_counting_scan(self, tmp_path):
        scenario = write_scenario(tmp_path)
        out = tmp_path / "run"
        assert main(["--scenario", scenario, "--out", str(out), "scan"]) == 0
        lines = (out / "scan.csv").read_text().splitlines()
        assert "# counts_per_point=2000" in lines
        assert "# seed=7" in lines
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "tau2_ps,probability_model,counts,sigma"

    def test_noiseless_scan_has_no_count_columns(self, tmp_path):
        scenario = write_scenario(tmp_path, scan={"counts_per_point": 0})
        out = tmp_path / "run"
        assert main(["--scenario", scenario, "--out", str(out), "scan"]) == 0
        lines = (out / "scan.csv").read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "tau2_ps,probability_model"

    def test_seed_override_changes_counts(self, tmp_path):
        scenario = write_scenario(tmp_path)
        a, b, c = (tmp_path / n for n in ("a", "b", "c"))
        main(["--scenario", scenario, "--out", str(a), "scan"])
        main(["--scenario", scenario, "--out", str(b), "--seed", "7", "scan"])
        main(["--scenario", scenario, "--out", str(c), "--seed", "8", "scan"])
        assert read_bytes(a / "scan.csv") == read_bytes(b / "scan.csv")
        assert read_bytes(a / "scan.csv") != read_bytes(c / "scan.csv")

    @pytest.mark.filterwarnings("error")
    def test_delay_beyond_float_range_squared(self, tmp_path, capsys):
        # tau1^2 overflows, so G(tau1) = exp(-inf) = 0: a correct scan, and
        # no overflow warning on stderr.
        scenario = write_scenario(tmp_path, tau1_ps=1e300,
                                  scan={"counts_per_point": 0})
        out = tmp_path / "run"
        assert main(["--scenario", scenario, "--out", str(out), "scan"]) == 0
        assert capsys.readouterr().err == ""
        scan, probs = hio.read_scan(str(out / "scan.csv"))
        g = hombeat.BiphotonSpectrumModel().detuning_coherence(scan.tau2_ps)
        assert np.array_equal(probs, 0.5 * (1.0 + g))


class TestFitCommand:
    def test_fit_default_scan_location(self, tmp_path):
        scenario = write_scenario(tmp_path)
        out = tmp_path / "run"
        assert main(["--scenario", scenario, "--out", str(out), "scan"]) == 0
        assert main(["--scenario", scenario, "--out", str(out), "fit"]) == 0
        fit = json.loads((out / "fit.json").read_text())
        assert fit["converged"] is True
        assert len(fit["pairs"]) == 2

    def test_fit_explicit_scan_file(self, tmp_path):
        scenario = write_scenario(tmp_path)
        out = tmp_path / "run"
        main(["--scenario", scenario, "--out", str(out), "scan"])
        rc = main(["--scenario", scenario, "--out", str(out), "fit",
                   str(out / "scan.csv")])
        assert rc == 0

    def test_missing_scan_file(self, tmp_path):
        scenario = write_scenario(tmp_path)
        rc = main(["--scenario", scenario, "--out", str(tmp_path / "x"), "fit"])
        assert rc == 4

    def test_malformed_scan_file(self, tmp_path):
        bad = tmp_path / "scan.csv"
        bad.write_text("tau2_ps,probability_model\n0.0,oops\n")
        rc = main(["--out", str(tmp_path), "fit", str(bad)])
        assert rc == 4

    @pytest.mark.parametrize("name, text", [
        ("scan.json", json.dumps({"schema_version": 1, "counts_per_point": 0,
                                  "tau2_ps": [], "probability_model": []})),
        ("scan.csv", "# counts_per_point=0\ntau2_ps,probability_model\n0.0,0.5\n"),
    ])
    def test_scan_with_fewer_than_three_points(self, tmp_path, capsys, name, text):
        scenario = write_scenario(tmp_path, fit={"m": None})
        scan = tmp_path / name
        scan.write_text(text)
        rc = main(["--scenario", scenario, "--out", str(tmp_path / "run"),
                   "fit", str(scan)])
        assert rc == 4
        err = capsys.readouterr().err
        assert "at least 3" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_negative_counts_per_point(self, tmp_path, capsys, fmt):
        scenario = write_scenario(tmp_path, scan={"counts_per_point": 0})
        out = tmp_path / "run"
        assert main(["--scenario", scenario, "--out", str(out), "--format", fmt,
                     "scan"]) == 0
        scan = out / f"scan.{fmt}"
        if fmt == "json":
            doc = json.loads(scan.read_text())
            doc["counts_per_point"] = -3
            scan.write_text(json.dumps(doc))
        else:
            text = scan.read_text().replace("# counts_per_point=0",
                                            "# counts_per_point=-3")
            scan.write_text(text)
        rc = main(["--scenario", scenario, "--out", str(out), "--format", fmt, "fit"])
        assert rc == 4
        err = capsys.readouterr().err
        assert "counts_per_point < 0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_negative_counts_rejected(self, tmp_path, capsys, fmt):
        # Every 7th count negated, sigma kept consistent with the counts.
        scenario = write_scenario(tmp_path, scan={"n_points": 601})
        out = tmp_path / "run"
        assert main(["--scenario", scenario, "--out", str(out), "--format", fmt,
                     "scan"]) == 0
        scan = out / f"scan.{fmt}"
        if fmt == "json":
            doc = json.loads(scan.read_text())
            doc["counts"][::7] = [-c for c in doc["counts"][::7]]
            doc["sigma"] = [math.sqrt(max(c, 1.0)) for c in doc["counts"]]
            scan.write_text(json.dumps(doc))
        else:
            lines = scan.read_text().splitlines()
            start = lines.index("tau2_ps,probability_model,counts,sigma") + 1
            for k in range(start, len(lines), 7):
                tau2, prob, count, _ = lines[k].split(",")
                lines[k] = f"{tau2},{prob},{-float(count)!r},1.0"
            scan.write_text("\n".join(lines) + "\n")
        rc = main(["--scenario", scenario, "--out", str(out), "--format", fmt,
                   "fit"])
        assert rc == 4
        err = capsys.readouterr().err
        assert "counts must not be negative" in err
        assert "Traceback" not in err
        assert not (out / "fit.json").exists()

    def test_short_model_column_rejected(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path)
        out = tmp_path / "run"
        assert main(["--scenario", scenario, "--out", str(out), "--format",
                     "json", "scan"]) == 0
        scan = out / "scan.json"
        doc = json.loads(scan.read_text())
        doc["probability_model"] = doc["probability_model"][:1]
        scan.write_text(json.dumps(doc))
        rc = main(["--scenario", scenario, "--out", str(out), "--format",
                   "json", "fit"])
        assert rc == 4
        err = capsys.readouterr().err
        assert "inconsistent scan data" in err
        assert "Traceback" not in err
        assert not (out / "fit.json").exists()

    def test_non_uniform_scan_is_a_numeric_failure(self, tmp_path, capsys):
        # Spectral seeding (fit.m null) needs a uniform grid; a scan file on
        # any other grid is a seeding failure, not a configuration error.
        scenario = write_scenario(tmp_path, fit={"m": None})
        tau2 = np.concatenate([np.linspace(-0.75, 0.0, 200),
                               np.linspace(0.01, 0.75, 50)])
        probs = 0.5 - 0.4 * np.cos(2.0 * np.pi * 4.0 * tau2) * np.clip(
            1.0 - np.abs(2.0 * tau2 / 0.47), 0.0, None)
        scan = tmp_path / "scan.csv"
        rows = [f"{t!r},{p!r}" for t, p in zip(tau2.tolist(), probs.tolist())]
        scan.write_text("\n".join(["# counts_per_point=0",
                                   "tau2_ps,probability_model"] + rows) + "\n")
        rc = main(["--scenario", scenario, "--out", str(tmp_path / "run"),
                   "fit", str(scan)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "numeric failure" in err and "uniform" in err
        assert "Traceback" not in err

    def test_non_converged_fit_returns_numeric_failure(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, fit={"m": 4, "max_iterations": 1})
        out = tmp_path / "run"
        main(["--scenario", scenario, "--out", str(out), "scan"])
        capsys.readouterr()
        rc = main(["--scenario", scenario, "--out", str(out), "fit"])
        assert rc == 3
        assert capsys.readouterr().err.startswith(
            "numeric failure: fit did not converge: ")
        # the result file is still written for inspection
        fit = json.loads((out / "fit.json").read_text())
        assert fit["converged"] is False

    @pytest.mark.parametrize("tau1", BENCH_DELAYS_PS)
    def test_null_m_takes_the_source_bin_count(self, tmp_path, tau1):
        # With fit.m null the stand-alone fit has the m that spectrum
        # writes, not a count of the scan's beat-spectrum peaks.
        scenario = write_scenario(tmp_path, tau1_ps=tau1, fit={"m": None},
                                  scan={"n_points": 601, "counts_per_point": 0})
        out = tmp_path / "run"
        for command in ("spectrum", "scan", "fit"):
            assert main(["--scenario", scenario, "--out", str(out), command]) == 0
        fit = json.loads((out / "fit.json").read_text())
        bins = json.loads((out / "spectrum_bins.json").read_text())
        assert fit["converged"] is True
        assert 2 * len(fit["pairs"]) == bins["dimension_m"]

    @pytest.mark.parametrize("tau1", [0.8, 1e7])
    def test_null_m_needs_a_scan_that_reaches_tau1(self, tmp_path, capsys, tau1):
        # A scan over +-0.75 ps shows no beat at the comb spacing of a
        # longer tau1, and is refused before the lobe table is built: at
        # 1e7 ps that table would take gigabytes.
        scenario = write_scenario(tmp_path, tau1_ps=tau1, fit={"m": None},
                                  scan={"n_points": 601})
        out = tmp_path / "run"
        assert main(["--scenario", scenario, "--out", str(out), "scan"]) == 0
        capsys.readouterr()
        start = time.perf_counter()
        rc = main(["--scenario", scenario, "--out", str(out), "fit"])
        assert time.perf_counter() - start < 1.0
        assert rc == 3
        assert capsys.readouterr().err == (
            "numeric failure: the scan's tau2 range [-0.75, 0.75] ps does not "
            f"reach tau1 = {tau1:g} ps; set fit.m\n")
        assert not (out / "fit.json").exists()


class TestAnalyzeCommand:
    def test_analyze_after_fit(self, tmp_path):
        scenario = write_scenario(tmp_path)
        out = tmp_path / "run"
        main(["--scenario", scenario, "--out", str(out), "scan"])
        main(["--scenario", scenario, "--out", str(out), "fit"])
        assert main(["--scenario", scenario, "--out", str(out), "analyze"]) == 0
        dm = json.loads((out / "dm.json").read_text())
        report = json.loads((out / "report.json").read_text())
        assert dm["dimension_m"] == 4
        assert report["mode"] == "assumed-average"
        assert report["reference_comparison"]["reference_ebits"] == 1.05

    def test_refuses_non_converged_fit(self, tmp_path):
        scenario = write_scenario(tmp_path, fit={"m": 4, "max_iterations": 1})
        out = tmp_path / "run"
        main(["--scenario", scenario, "--out", str(out), "scan"])
        main(["--scenario", scenario, "--out", str(out), "fit"])
        rc = main(["--scenario", scenario, "--out", str(out), "analyze"])
        assert rc == 3
        assert not (out / "dm.json").exists()

    def test_missing_fit_file(self, tmp_path):
        rc = main(["--out", str(tmp_path), "analyze"])
        assert rc == 4

    @pytest.mark.parametrize("field", ["weight", "residual_norm",
                                       "coherence_time_ps"])
    def test_integer_beyond_float_range_exits_4(self, pipeline_runs, tmp_path,
                                                capsys, field):
        fit = json.loads((pipeline_runs[0.27, "csv"][1] / "fit.json").read_text())
        (fit["pairs"][0] if field == "weight" else fit)[field] = 10**400
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(fit))
        assert main(["--out", str(tmp_path / "run"), "analyze", str(path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("input format error: fit value beyond float range")
        assert "Traceback" not in err


@pytest.mark.parametrize("command, name", [
    ("fit", "scan.csv"), ("fit", "scan.json"), ("analyze", "fit.json")])
def test_input_that_is_not_utf8_exits_4(tmp_path, capsys, command, name):
    # 0xff 0xfe opens a UTF-16 file; it is no UTF-8 text.
    path = tmp_path / name
    path.write_bytes(b"\xff\xfe" + '{"schema_version": 1}'.encode("utf-16-le"))
    assert main(["--out", str(tmp_path / "run"), command, str(path)]) == 4
    err = capsys.readouterr().err
    assert "input format error" in err
    assert "Traceback" not in err


class TestPipeline:
    def test_produces_all_outputs(self, tmp_path):
        scenario = write_scenario(tmp_path)
        out = tmp_path / "run"
        assert main(["--scenario", scenario, "--out", str(out), "pipeline"]) == 0
        for name in ("map.csv", "spectrum_bins.json", "scan.csv", "fit.json",
                     "dm.json", "report.json", "bundle.json"):
            assert (out / name).exists(), name
        bundle = json.loads((out / "bundle.json").read_text())
        assert bundle["provenance"]["seed"] == 7
        assert bundle["provenance"]["tool_version"] == "0.1.0"
        assert set(bundle["outputs"]) == {"map", "spectrum_bins", "scan",
                                          "fit", "dm", "report"}
        assert bundle["scenario"]["tau1_ps"] == 0.27

    def test_numeric_payloads_are_byte_identical(self, tmp_path):
        scenario = write_scenario(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["--scenario", scenario, "--out", str(a), "pipeline"]) == 0
        assert main(["--scenario", scenario, "--out", str(b), "pipeline"]) == 0
        for name in ("map.csv", "spectrum_bins.json", "scan.csv", "fit.json",
                     "dm.json", "report.json"):
            assert read_bytes(a / name) == read_bytes(b / name), name
        # bundles agree on everything except the timestamp and paths
        ba = json.loads((a / "bundle.json").read_text())
        bb = json.loads((b / "bundle.json").read_text())
        assert ba["scenario"] == bb["scenario"]
        assert ba["provenance"]["seed"] == bb["provenance"]["seed"]
        assert [os.path.basename(p) for p in ba["outputs"].values()] == \
               [os.path.basename(p) for p in bb["outputs"].values()]

    def test_non_converged_pipeline_still_writes_bundle(self, tmp_path):
        scenario = write_scenario(tmp_path, fit={"m": 4, "max_iterations": 1})
        out = tmp_path / "run"
        rc = main(["--scenario", scenario, "--out", str(out), "pipeline"])
        assert rc == 3
        bundle = json.loads((out / "bundle.json").read_text())
        assert "fit" in bundle["outputs"]
        assert "report" not in bundle["outputs"]

    def test_failed_seeding_is_a_numeric_failure(self, tmp_path, capsys):
        # At 5 ps the comb is finer than the default map resolves (tau1
        # above 2.39 ps), so this pipeline fails at extraction, before the
        # scan is seeded; test_pipeline_seeding_failure reaches the seeding.
        path = tmp_path / "far.json"
        path.write_text(json.dumps({"tau1_ps": 5}))
        rc = main(["--scenario", str(path), "--out", str(tmp_path / "run"),
                   "pipeline"])
        assert rc == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_pipeline_seeding_failure(self, tmp_path, capsys):
        # Extraction finds m = 6 at 0.37 ps, but a scan over +-0.1 ps is too
        # short to resolve any beat, so the fit's seeding fails.
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"tau1_ps": 0.37, "scan": {
            "tau2_min_ps": -0.1, "tau2_max_ps": 0.1}}))
        out = tmp_path / "run"
        rc = main(["--scenario", str(path), "--out", str(out), "pipeline"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "found 0 significant spectral peaks, need 3" in err
        assert "Traceback" not in err
        assert (out / "spectrum_bins.json").exists()
        assert (out / "scan.csv").exists()
        assert not (out / "fit.json").exists()

    def test_default_scenario_pipeline(self, tmp_path):
        out = tmp_path / "run"
        assert main(["--out", str(out), "pipeline"]) == 0
        sidecar = json.loads((out / "spectrum_bins.json").read_text())
        assert sidecar["tau1_ps"] == 0.12
        assert sidecar["dimension_m"] == 2


# One row per cause of a failed run: the command (MAP stands for the default
# pipeline's map file), the scenario file's bytes, the exit code, the start
# of stderr (a whole line when it ends in a newline; every warning is an
# error here, so none can come first), and the files written (None: not even
# the output directory, since every configuration error is found before
# any stage runs). A model with no 2D map still scans: only the commands
# that build a map refuse it. A failed extraction leaves no map file.
_FAILURES = [
    pytest.param("spectrum", b'{"tau1_ps": 3.0}', 3,
                 "numeric failure: no detectable comb", [],
                 id="comb-unresolved-spectrum"),
    pytest.param("pipeline", b'{"tau1_ps": 3.0}', 3,
                 "numeric failure: no detectable comb", ["bundle.json"],
                 id="comb-unresolved"),
    pytest.param("pipeline", b'{"tau1_ps": 0.8}', 3,
                 "numeric failure: matrix has an eigenvalue below -1e-9",
                 ["bundle.json", "fit.json", "map.csv", "scan.csv",
                  "spectrum_bins.json"], id="rho-not-positive-at-0.8ps"),
    pytest.param("pipeline", b'{"model": {"pump_fwhm_thz": 0}}', 2,
                 "configuration error: 2D maps need pump_fwhm_thz > 0", None,
                 id="cw-pump"),
    pytest.param("scan", b'{"model": {"pump_fwhm_thz": 0}}', 0, "",
                 ["scan.csv"], id="cw-pump-scans"),
    pytest.param("spectrum", b'{"model": {"pump_fwhm_thz": 1e300}}', 2,
                 "configuration error: 2D maps need a pump whose sigma_p^2 and "
                 "map norm 1/(pi sigma_p sigma_d) are finite and positive\n",
                 None, id="pump-sigma-squared-overflows"),
    pytest.param("spectrum", b'{"model": {"pump_fwhm_thz": 1e-300, '
                 b'"marginal_fwhm_nm": 1e-10}}', 2,
                 "configuration error: 2D maps need a pump whose sigma_p^2 and "
                 "map norm 1/(pi sigma_p sigma_d) are finite and positive\n",
                 None, id="map-norm-overflows"),
    pytest.param("spectrum", b'{"tau1_ps": 1e308}', 3,
                 "numeric failure: the comb phase 2 pi d tau1 over the map span "
                 "is not finite at tau1 = 1e+308 ps\n", [],
                 id="comb-phase-overflows"),
    pytest.param("spectrum MAP", b'{"tau1_ps": 1e308}', 3,
                 "numeric failure: the lobe count at tau1 = 1e+308 ps is beyond "
                 "the float range\n", [], id="lobe-count-overflows"),
    pytest.param("pipeline", b'{"model": {"marginal_fwhm_nm": 400}}', 2,
                 "configuration error: grid frequencies must be positive", None,
                 id="span-below-0-THz"),
    pytest.param("scan", b'{"model": {"marginal_fwhm_nm": 400}}', 0, "",
                 ["scan.csv"], id="span-below-0-THz-scans"),
    pytest.param("pipeline", b'{"model": {"marginal_fwhm_nm": 1e-300}}', 2,
                 "configuration error: wavelength span too narrow for a "
                 "strictly increasing axis", None, id="span-below-float-resolution"),
    pytest.param("spectrum", b'{"model": {"marginal_fwhm_nm": 1e-300}}', 2,
                 "configuration error: wavelength span too narrow for a "
                 "strictly increasing axis", None,
                 id="span-below-float-resolution-spectrum"),
    pytest.param("scan", b'{"model": {"marginal_fwhm_nm": 1e-300}}', 3,
                 "numeric failure: fringe probability undefined at tau1=0.12: "
                 "the first stage has no anti-bunched component", [],
                 id="span-below-float-resolution-scans"),
    pytest.param("scan", b'{"model": {"marginal_fwhm_nm": 1e300}}', 2,
                 "configuration error: invalid section 'model': the marginal "
                 "width in THz must be finite and positive, with a finite "
                 "detuning variance", None, id="detuning-variance-overflows-scans"),
    pytest.param("pipeline", b'{"fit": {"m": 400}}', 2,
                 "configuration error: fit.m = 400 needs scan.n_points >= 802",
                 None, id="scan-too-short-for-m"),
    pytest.param("pipeline", b'{"scan": {"counts_per_point": 1e30}}', 2,
                 "configuration error: scan.counts_per_point must be", None,
                 id="counts-beyond-poisson"),
    pytest.param("pipeline",
                 b'{"scan": {"tau2_min_ps": -1e308, "tau2_max_ps": 1e308}}', 2,
                 "configuration error: scan range must be finite", None,
                 id="tau2-grid-overflows"),
    pytest.param("scan", b'{"scan": {"tau2_min_ps": 1%s, "tau2_max_ps": 2%s}}'
                 % (b"0" * 400, b"0" * 400), 2, "configuration error: "
                 "scan.tau2_min_ps is beyond the float range", None,
                 id="tau2-int-beyond-float"),
    pytest.param("scan", b'{"tau1_ps": 1%s}' % (b"0" * 400), 2,
                 "configuration error: tau1_ps is beyond the float range", None,
                 id="tau1-int-beyond-float"),
    pytest.param("scan", b'{"scan": {"n_points": 1e18}}', 3,
                 "numeric failure: Unable to allocate", [],
                 id="scan-beyond-memory"),
    pytest.param("pipeline", b'\xff\xfe{}', 2,
                 "configuration error: scenario file is not UTF-8 text", None,
                 id="scenario-not-utf8"),
    pytest.param("pipeline", b'{"model": {"center_wavelength_nm": 1e-200}}', 2,
                 "configuration error: invalid section 'model': the marginal "
                 "width in THz must be finite and positive", None,
                 id="center-wavelength-underflows"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, document, rc, message, written", _FAILURES)
def test_failure_exit_codes(request, tmp_path, capsys, command, document, rc,
                            message, written):
    path = tmp_path / "scenario.json"
    path.write_bytes(document)
    out = tmp_path / "run"
    args = [str(request.getfixturevalue("pipeline_runs")[0.12, "csv"][1]
                / "map.csv") if arg == "MAP" else arg for arg in command.split()]
    assert main(["--scenario", str(path), "--out", str(out), *args]) == rc
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert "Traceback" not in err
    assert (sorted(os.listdir(out)) if out.exists() else None) == written
    if written and "bundle.json" in written:  # it lists every other file
        bundle = json.loads((out / "bundle.json").read_text())
        assert sorted(os.path.basename(p) for p in bundle["outputs"].values()) \
            == [name for name in written if name != "bundle.json"]


class TestRunChain:
    _STAGES = ["map", "spectrum_bins", "scan", "fit", "dm", "report"]

    def test_results_write_the_pipeline_files(self, pipeline_runs, tmp_path):
        scenario_path, run = pipeline_runs[0.27, "csv"]
        scenario = hombeat.load_scenario(scenario_path)
        stages = list(run_chain(scenario))
        assert [name for name, _ in stages] == self._STAGES
        r = dict(stages)
        writes = {
            "map.csv": lambda path: hio.write_map_csv(r["map"], path),
            "spectrum_bins.json": lambda path: hio.write_json(
                path, _extraction_sidecar(scenario, *r["spectrum_bins"])),
            "scan.csv": lambda path: hio.write_scan_csv(
                *r["scan"], path, seed=scenario.scan.seed),
            "fit.json": lambda path: hio.write_fit_json(r["fit"], path),
            "dm.json": lambda path: hio.write_dm_json(r["dm"], path),
            "report.json": lambda path: hio.write_report_json(*r["report"], path),
        }
        for name, write in writes.items():
            write(str(tmp_path / name))
            assert read_bytes(tmp_path / name) == read_bytes(run / name), name

    def test_failed_analysis_comes_after_the_fit(self, tmp_path, capsys):
        # At 0.8 ps the density matrix is not positive: the chain yields the
        # fit, then raises the ValueError that the CLI reports as exit 3.
        names = []
        with pytest.raises(ValueError) as raised:
            for name, _ in run_chain(hombeat.Scenario(tau1_ps=0.8)):
                names.append(name)
        assert names == self._STAGES[:4]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"tau1_ps": 0.8}))
        assert main(["--scenario", str(path), "--out", str(tmp_path / "run"),
                     "pipeline"]) == 3
        assert capsys.readouterr().err == f"numeric failure: {raised.value}\n"

    def test_unbuildable_map_is_a_scenario_error(self):
        # The map check runs before the first stage, as in the CLI (exit 2).
        scenario = hombeat.Scenario(
            model=hombeat.BiphotonSpectrumModel(pump_fwhm_thz=0))
        with pytest.raises(hombeat.ScenarioError, match="pump_fwhm_thz > 0"):
            next(run_chain(scenario))

    def test_chain_is_lazy(self):
        # A scan too large to allocate fails only when the chain reaches it.
        chain = run_chain(hombeat.Scenario(
            tau1_ps=0.27, scan=hombeat.ScanConfig(n_points=10**18)))
        assert [next(chain)[0], next(chain)[0]] == self._STAGES[:2]
        with pytest.raises(MemoryError):
            next(chain)


class TestConfigurationErrors:
    def test_unknown_scenario_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"delay_ps": 0.12}))
        rc = main(["--scenario", str(path), "--out", str(tmp_path), "scan"])
        assert rc == 2

    def test_zero_delay(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"tau1_ps": 0.0}))
        rc = main(["--scenario", str(path), "--out", str(tmp_path), "scan"])
        assert rc == 2

    def test_invalid_seed_override(self, tmp_path):
        rc = main(["--seed", "-1", "--out", str(tmp_path), "scan"])
        assert rc == 2

    def test_cached_parser_keeps_no_state(self):
        parser = _build_parser()
        assert parser is _build_parser()
        first = parser.parse_args(["--seed", "5", "--format", "json", "scan"])
        second = parser.parse_args(["fit", "scan.csv"])
        assert (first.seed, first.format, first.command) == (5, "json", "scan")
        assert (second.seed, second.format, second.command) == (None, "csv", "fit")
        assert second.scan_file == "scan.csv"

    def test_missing_scenario_file(self, tmp_path):
        rc = main(["--scenario", str(tmp_path / "none.json"),
                   "--out", str(tmp_path), "scan"])
        assert rc == 2


# In-range values of each scenario key, by (section, key); section None is
# the top level. Every draw is bounded: tau1 <= 10 ps, n_points <= 2001,
# fit.m <= 40 and a center wavelength of 300-3000 nm, so no map, lobe table
# or Jacobian reaches 10 MB.
_SCENARIO_KEYS = {
    (None, "tau1_ps"): st.floats(1e-3, 10.0),
    ("model", "center_wavelength_nm"): st.floats(300.0, 3000.0),
    ("model", "marginal_fwhm_nm"): st.floats(0.01, 100.0),
    ("model", "pump_fwhm_thz"): st.floats(0.0, 10.0),
    ("scan", "tau2_min_ps"): st.floats(-5.0, 1.0),
    ("scan", "tau2_max_ps"): st.floats(-1.0, 5.0),
    ("scan", "n_points"): st.integers(0, 2001),
    ("scan", "counts_per_point"): st.integers(0, 10**6),
    ("scan", "seed"): st.integers(0, 2**64 - 1),
    ("fit", "m"): st.one_of(st.none(), st.integers(1, 20).map(lambda k: 2 * k)),
    ("fit", "max_iterations"): st.integers(1, 100),
    ("analysis", "mode"): st.sampled_from(["assumed-average", "measured-only"]),
}
# Values no scenario key accepts, or that sit at the edge of a float or of
# numpy's Poisson sampler.
_EDGE_VALUES = [0, -1, 3, 1e-300, 1e300, 1e308, -1e308, 10**18, 1e30, 10**400,
                float("nan"), float("inf"), "x", None, True, [1]]


@st.composite
def _scenario_docs(draw):
    """Each key, and an unknown one, independently: at an edge value with
    probability 1/13, about one edge key per draw, else in half the draws
    at an in-range value."""
    doc = {}
    def put(section, key, value):
        (doc.setdefault(section, {}) if section else doc)[key] = value
    keys = [*_SCENARIO_KEYS, (None, "bogus")]
    for section, key in keys:
        if draw(st.integers(1, len(keys))) == 1:
            put(section, key, draw(st.sampled_from(_EDGE_VALUES)))
        elif (section, key) in _SCENARIO_KEYS and draw(st.booleans()):
            put(section, key, draw(_SCENARIO_KEYS[section, key]))
    return doc


_JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-3, 10**6),
                         st.integers(10**309, 10**401),
                         st.integers(-10**401, -10**309),
                         st.floats(allow_nan=True), st.text(max_size=3),
                         st.lists(st.floats(-1e3, 1e3), max_size=4))
_TOKENS = [b"", b"nan", b"inf", b"-1", b"0", b"1e308", b"-0.0", b",", b"\n",
           b"#", b"=", b"]", b"{", b'"x"', b"\xff"]


@st.composite
def _mutated_file(draw, runs):
    """One of the pipeline's scan, fit or map files, edited: a byte span
    replaced, or for JSON one field replaced or deleted."""
    run = draw(st.sampled_from(sorted(run for _, run in runs.values())))
    name = draw(st.sampled_from(sorted(
        n for n in os.listdir(run) if n.split(".")[0] in ("scan", "fit", "map"))))
    data = (run / name).read_bytes()
    if name.endswith(".json") and draw(st.booleans()):
        doc = json.loads(data)
        key = draw(st.sampled_from(sorted(doc)))
        if draw(st.booleans()):
            del doc[key]
        else:
            doc[key] = draw(_JSON_VALUES)
        return name, json.dumps(doc).encode()
    start = draw(st.integers(0, len(data)))
    stop = draw(st.integers(start, min(len(data), start + 40)))
    insert = draw(st.one_of(st.sampled_from(_TOKENS), st.binary(max_size=8)))
    return name, data[:start] + insert + data[stop:]


def _exit_code(argv):
    """main's return code; an exception that escapes it fails the test."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestExitCodeFuzz:
    """Random scenarios and malformed input files end in a documented exit
    code (0, 2, 3 or 4), never in an exception, nor in a numpy warning."""

    @settings(max_examples=60, deadline=timedelta(seconds=5))
    @given(doc=_scenario_docs(),
           command=st.sampled_from(["spectrum", "scan", "pipeline"]),
           fmt=st.sampled_from(["csv", "json"]))
    def test_random_scenarios(self, doc, command, fmt):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "scenario.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            rc = _exit_code(["--scenario", path, "--out", os.path.join(d, "run"),
                             "--format", fmt, command])
        assert rc in (0, 2, 3, 4)

    @settings(max_examples=100, deadline=timedelta(seconds=5))
    @given(data=st.data())
    def test_malformed_files(self, pipeline_runs, data):
        name, content = data.draw(_mutated_file(pipeline_runs))
        command = {"scan": "fit", "fit": "analyze", "map": "spectrum"}[
            name.split(".")[0]]
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, name)
            with open(path, "wb") as fh:
                fh.write(content)
            rc = _exit_code(["--out", os.path.join(d, "run"), command, path])
        assert rc in (0, 2, 3, 4)
