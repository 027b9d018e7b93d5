"""Command-line front end: scenario in, deterministic result files out.

Subcommands mirror the analysis chain: spectrum (2D map + extracted bins),
scan (second-stage delay scan), fit (fringe-model recovery), analyze
(density matrix + entanglement report), pipeline (all four plus a run
manifest). Exit codes: 0 success, 2 configuration error, 3 numeric
failure (non-convergence, refused analysis, no extractable structure),
4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone

from .bins import ExtractionError, extract_bins_from_map, predict_bins
from .density import build_restricted_dm, eof_lower_bound, eof_reference_comparison
from .fringes import (
    FringeModelParams,
    FringeScan,
    SeedingError,
    fit_fringe_scan,
    sample_scan,
)
from .hom import coincidence_spectrum, fringe_probability
from .io import (
    IOFormatError,
    SCHEMA_VERSION,
    read_fit_json,
    read_scan,
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
from .reference import EOF_EBITS
from .scenario import Scenario, ScenarioError, load_scenario, scenario_to_dict

__all__ = ["main", "entrypoint"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

BIN_THRESHOLD = 0.6


# Built once per process: a parser is a cyclic object graph that only the
# cyclic GC frees, so rebuilding it on every in-process main() call leaves
# garbage that ages into the collector's oldest generation.
@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hombeat",
        description="Frequency-bin interference simulator and analysis chain")
    parser.add_argument("--scenario", metavar="PATH",
                        help="scenario JSON (defaults apply when omitted)")
    parser.add_argument("--out", metavar="DIR", default=".",
                        help="output directory (default: current)")
    parser.add_argument("--seed", type=int, metavar="U64",
                        help="override the scenario's scan seed")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="sampled-data file format (default csv)")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("spectrum", help="2D coincidence spectrum + extracted bins")
    sub.add_parser("scan", help="second-stage delay scan")
    p_fit = sub.add_parser("fit", help="fit the fringe model to a scan file")
    p_fit.add_argument("scan_file", nargs="?",
                       help="scan file (default: <out>/scan.<format>)")
    p_an = sub.add_parser("analyze",
                          help="density matrix + entanglement report from a fit")
    p_an.add_argument("fit_file", nargs="?",
                      help="fit file (default: <out>/fit.json)")
    sub.add_parser("pipeline", help="spectrum, scan, fit and analyze in one run")
    return parser


def _prepare(args) -> Scenario:
    scenario = load_scenario(args.scenario) if args.scenario else Scenario()
    if args.seed is not None:
        if not 0 <= args.seed < 2 ** 64:
            raise ScenarioError("--seed must be an unsigned 64-bit integer")
        scenario = replace(scenario, scan=replace(scenario.scan, seed=args.seed))
    return scenario


def _extraction_sidecar(scenario: Scenario, extraction, predicted) -> dict:
    state = extraction.state
    return {
        "schema_version": SCHEMA_VERSION,
        "tau1_ps": scenario.tau1_ps,
        "threshold": BIN_THRESHOLD,
        "center_wavelength_nm": float(state.center_wavelength_nm),
        "dimension_m": state.dimension_m,
        "pairs": [
            {
                "index_j": p.index_j,
                "detuning_thz": float(p.detuning_thz),
                "weight": float(p.weight),
                "balance": float(p.balance),
                "lobe_fwhm_nm": float(extraction.lobe_fwhm_nm[k]),
            }
            for k, p in enumerate(state.pairs)
        ],
        "kde_bandwidth_thz": float(extraction.kde_bandwidth_thz),
        "predicted": {
            "dimension_m": predicted.dimension_m,
            "pairs": [
                {
                    "index_j": p.index_j,
                    "detuning_thz": float(p.detuning_thz),
                    "weight": float(p.weight),
                    "balance": float(p.balance),
                }
                for p in predicted.pairs
            ],
        },
    }


def cmd_spectrum(scenario: Scenario, out_dir: str, fmt: str):
    """Simulate and write the 2D map; extract and write the bin sidecar."""
    map_ = coincidence_spectrum(scenario.model, scenario.tau1_ps)
    extraction = extract_bins_from_map(map_, threshold=BIN_THRESHOLD)
    predicted = predict_bins(scenario.model, scenario.tau1_ps,
                             threshold=BIN_THRESHOLD)
    map_path = os.path.join(out_dir, f"map.{fmt}")
    if fmt == "json":
        write_map_json(map_, map_path)
    else:
        write_map_csv(map_, map_path)
    sidecar_path = os.path.join(out_dir, "spectrum_bins.json")
    write_json(sidecar_path, _extraction_sidecar(scenario, extraction, predicted))
    return {"map": map_path, "spectrum_bins": sidecar_path}, extraction


def cmd_scan(scenario: Scenario, out_dir: str, fmt: str):
    """Write the noiseless scan curve plus an optional Poisson realization."""
    cfg = scenario.scan
    scan, probs = sample_scan(
        lambda tau2: fringe_probability(scenario.model, scenario.tau1_ps, tau2),
        cfg.tau2_min_ps, cfg.tau2_max_ps, cfg.n_points,
        cfg.counts_per_point, cfg.seed)
    scan_path = os.path.join(out_dir, f"scan.{fmt}")
    if fmt == "json":
        write_scan_json(scan, probs, scan_path, seed=cfg.seed)
    else:
        write_scan_csv(scan, probs, scan_path, seed=cfg.seed)
    return {"scan": scan_path}, scan


class NonConvergedError(RuntimeError):
    """A numeric stage failed to converge or was refused."""


def cmd_fit(scenario: Scenario, scan: FringeScan, out_dir: str,
            known_weights=None, m: int | None = None):
    """Fit the fringe model to a scan and write the result."""
    result = fit_fringe_scan(scan, m=scenario.fit.m if m is None else m,
                             known_weights=known_weights,
                             options=scenario.fit.lm_options())
    fit_path = os.path.join(out_dir, "fit.json")
    write_fit_json(result, fit_path)
    return {"fit": fit_path}, result


def cmd_analyze(scenario: Scenario, params: FringeModelParams, out_dir: str,
                balances=None):
    """Build the density matrix and entanglement report from a fit."""
    dm = build_restricted_dm(params, balances=balances,
                             mode=scenario.analysis.mode)
    report = eof_lower_bound(dm)
    comparison = (eof_reference_comparison(report)
                  if report.dimension_m in EOF_EBITS else None)
    dm_path = os.path.join(out_dir, "dm.json")
    report_path = os.path.join(out_dir, "report.json")
    write_dm_json(dm, dm_path)
    write_report_json(report, comparison, report_path)
    return {"dm": dm_path, "report": report_path}, report


def _run(args) -> int:
    scenario = _prepare(args)
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    fmt = args.format

    if args.command == "spectrum":
        outputs, _ = cmd_spectrum(scenario, out_dir, fmt)
    elif args.command == "scan":
        outputs, _ = cmd_scan(scenario, out_dir, fmt)
    elif args.command == "fit":
        scan_path = args.scan_file or os.path.join(out_dir, f"scan.{fmt}")
        outputs, result = cmd_fit(scenario, read_scan(scan_path)[0], out_dir)
        if not result.converged:
            print(f"fit did not converge: {result.message}", file=sys.stderr)
            print(f"wrote {outputs['fit']}", file=sys.stderr)
            return EXIT_NUMERIC
    elif args.command == "analyze":
        fit_path = args.fit_file or os.path.join(out_dir, "fit.json")
        params, meta = read_fit_json(fit_path)
        if not meta["converged"]:
            raise NonConvergedError(
                f"refusing to analyze a non-converged fit ({meta['message']}); "
                "rerun the fit with more iterations or a better seed")
        outputs, _ = cmd_analyze(scenario, params, out_dir)
    elif args.command == "pipeline":
        return _run_pipeline(scenario, out_dir, fmt)
    else:  # pragma: no cover - argparse enforces the choices
        raise AssertionError(args.command)

    for path in outputs.values():
        print(f"wrote {path}")
    return EXIT_OK


def _run_pipeline(scenario: Scenario, out_dir: str, fmt: str) -> int:
    """Chain all four stages, feeding extraction into fit and analysis."""
    outputs = {}
    spec_outputs, extraction = cmd_spectrum(scenario, out_dir, fmt)
    outputs.update(spec_outputs)
    scan_outputs, scan = cmd_scan(scenario, out_dir, fmt)
    outputs.update(scan_outputs)
    state = extraction.state
    # The extracted weights pin the weight-visibility split of the fit, so
    # they are passed along whenever the requested m matches the extraction.
    m_fit = scenario.fit.m if scenario.fit.m is not None else state.dimension_m
    weights = state.weights() if m_fit == state.dimension_m else None
    fit_outputs, result = cmd_fit(scenario, scan, out_dir,
                                  known_weights=weights, m=m_fit)
    outputs.update(fit_outputs)
    if not result.converged:
        print(f"fit did not converge: {result.message}", file=sys.stderr)
        _finish_bundle(scenario, out_dir, outputs)
        return EXIT_NUMERIC
    balances = state.balances() if m_fit == state.dimension_m else None
    an_outputs, _ = cmd_analyze(scenario, result.params, out_dir,
                                balances=balances)
    outputs.update(an_outputs)
    _finish_bundle(scenario, out_dir, outputs)
    for path in outputs.values():
        print(f"wrote {path}")
    return EXIT_OK


def _finish_bundle(scenario: Scenario, out_dir: str, outputs: dict) -> None:
    bundle_path = os.path.join(out_dir, "bundle.json")
    write_bundle(bundle_path, scenario_to_dict(scenario), dict(outputs),
                 seed=scenario.scan.seed,
                 timestamp=datetime.now(timezone.utc).isoformat())
    outputs["bundle"] = bundle_path


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except ScenarioError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ExtractionError, NonConvergedError, SeedingError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except IOFormatError as exc:
        print(f"input format error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        # Parameter-level rejections from the domain layer are config errors.
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))
