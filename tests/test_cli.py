import json
import math
import os

import numpy as np
import pytest

from hombeat.cli import _build_parser, main


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
        assert sidecar["kde_bandwidth_thz"] > 0

    def test_json_format(self, tmp_path):
        scenario = write_scenario(tmp_path)
        out = tmp_path / "run"
        rc = main(["--scenario", scenario, "--out", str(out),
                   "--format", "json", "spectrum"])
        assert rc == 0
        assert (out / "map.json").exists()
        assert not (out / "map.csv").exists()


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

    def test_non_converged_fit_returns_numeric_failure(self, tmp_path):
        scenario = write_scenario(tmp_path, fit={"m": 4, "max_iterations": 1})
        out = tmp_path / "run"
        main(["--scenario", scenario, "--out", str(out), "scan"])
        rc = main(["--scenario", scenario, "--out", str(out), "fit"])
        assert rc == 3
        # the result file is still written for inspection
        fit = json.loads((out / "fit.json").read_text())
        assert fit["converged"] is False


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
        # At 5 ps the comb is too dense for the scan to resolve every
        # extracted pair, so seeding finds fewer peaks than it needs.
        path = tmp_path / "far.json"
        path.write_text(json.dumps({"tau1_ps": 5}))
        rc = main(["--scenario", str(path), "--out", str(tmp_path / "run"),
                   "pipeline"])
        assert rc == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_default_scenario_pipeline(self, tmp_path):
        out = tmp_path / "run"
        assert main(["--out", str(out), "pipeline"]) == 0
        sidecar = json.loads((out / "spectrum_bins.json").read_text())
        assert sidecar["tau1_ps"] == 0.12
        assert sidecar["dimension_m"] == 2


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
