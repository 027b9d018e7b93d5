"""Command-line front end: scenario in, deterministic result files out.

Subcommands mirror the analysis chain: spectrum (2D map + extracted bins),
scan (second-stage delay scan), fit (fringe-model recovery), analyze
(density matrix + entanglement report), pipeline (all four plus a run
manifest). The exception type alone sets the exit code: 0 success, 2
configuration error (ScenarioError, raised before any stage runs), 3
numeric failure (non-convergence, refused analysis, no extractable
structure, an array too large to allocate, any other ValueError), 4 I/O
or file format error.
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
    fit_fringe_scan,
    sample_scan,
)
from .hom import coincidence_spectrum, fringe_probability
from .io import (
    IOFormatError,
    SCHEMA_VERSION,
    read_fit_json,
    read_map,
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
    p_spec = sub.add_parser("spectrum", help="2D coincidence spectrum + extracted bins")
    p_spec.add_argument("map_file", nargs="?", help="map file to extract from "
                        "(default: simulate it, write <out>/map.<format>)")
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
    if args.seed is not None:  # ScanConfig checks the seed
        scenario = replace(scenario, scan=replace(scenario.scan, seed=args.seed))
    return scenario


def _bin_pair(p, **extra) -> dict:
    return {"index_j": p.index_j, "detuning_thz": float(p.detuning_thz),
            "weight": float(p.weight), "balance": float(p.balance), **extra}


def _extraction_sidecar(scenario: Scenario, extraction, predicted) -> dict:
    state = extraction.state
    return {
        "schema_version": SCHEMA_VERSION,
        "tau1_ps": scenario.tau1_ps,
        "threshold": BIN_THRESHOLD,
        "center_wavelength_nm": float(state.center_wavelength_nm),
        "dimension_m": state.dimension_m,
        "pairs": [_bin_pair(p, lobe_fwhm_nm=float(fwhm)) for p, fwhm
                  in zip(state.pairs, extraction.lobe_fwhm_nm)],
        "tau1_estimate_ps": float(extraction.tau1_ps),
        "predicted": {
            "dimension_m": predicted.dimension_m,
            "pairs": [_bin_pair(p) for p in predicted.pairs],
        },
    }


def cmd_spectrum(scenario: Scenario, out_dir: str, fmt: str, outputs: dict,
                 map_file: str | None = None):
    """Simulate and write the 2D map, or read it from map_file; extract and
    write the bin sidecar."""
    map_ = (read_map(map_file) if map_file
            else coincidence_spectrum(scenario.model, scenario.tau1_ps))
    extraction = extract_bins_from_map(map_, threshold=BIN_THRESHOLD)
    predicted = predict_bins(scenario.model, scenario.tau1_ps,
                             threshold=BIN_THRESHOLD)
    if not map_file:
        outputs["map"] = os.path.join(out_dir, f"map.{fmt}")
        (write_map_json if fmt == "json" else write_map_csv)(map_, outputs["map"])
    outputs["spectrum_bins"] = os.path.join(out_dir, "spectrum_bins.json")
    write_json(outputs["spectrum_bins"],
               _extraction_sidecar(scenario, extraction, predicted))
    return extraction


def cmd_scan(scenario: Scenario, out_dir: str, fmt: str, outputs: dict):
    """Write the noiseless scan curve plus an optional Poisson realization."""
    cfg = scenario.scan
    scan, probs = sample_scan(
        lambda tau2: fringe_probability(scenario.model, scenario.tau1_ps, tau2),
        cfg.tau2_min_ps, cfg.tau2_max_ps, cfg.n_points,
        cfg.counts_per_point, cfg.seed)
    outputs["scan"] = os.path.join(out_dir, f"scan.{fmt}")
    (write_scan_json if fmt == "json" else write_scan_csv)(
        scan, probs, outputs["scan"], seed=cfg.seed)
    return scan


class NonConvergedError(RuntimeError):
    """A numeric stage failed to converge or was refused."""


def cmd_fit(scenario: Scenario, scan: FringeScan, out_dir: str, outputs: dict,
            known_weights=None, m: int | None = None):
    """Fit the fringe model to a scan and write the result; a fit that did
    not converge is written too, then raises NonConvergedError."""
    result = fit_fringe_scan(scan, m=scenario.fit.m if m is None else m,
                             known_weights=known_weights,
                             max_iterations=scenario.fit.max_iterations)
    outputs["fit"] = os.path.join(out_dir, "fit.json")
    write_fit_json(result, outputs["fit"])
    if not result.converged:
        raise NonConvergedError(f"fit did not converge: {result.message}")
    return result


def cmd_analyze(scenario: Scenario, params: FringeModelParams, out_dir: str,
                outputs: dict, balances=None):
    """Build the density matrix and entanglement report from a fit."""
    dm = build_restricted_dm(params, balances=balances,
                             mode=scenario.analysis.mode)
    report = eof_lower_bound(dm)
    comparison = (eof_reference_comparison(report)
                  if report.dimension_m in EOF_EBITS else None)
    outputs["dm"] = os.path.join(out_dir, "dm.json")
    write_dm_json(dm, outputs["dm"])
    outputs["report"] = os.path.join(out_dir, "report.json")
    write_report_json(report, comparison, outputs["report"])
    return report


def _run(args) -> int:
    scenario = _prepare(args)
    if args.command == "pipeline" or (args.command == "spectrum"
                                      and not args.map_file):
        scenario.require_map()
    out_dir, fmt = args.out, args.format
    os.makedirs(out_dir, exist_ok=True)
    outputs = {}  # each path a command writes, listed even if a step fails
    try:
        if args.command == "spectrum":
            cmd_spectrum(scenario, out_dir, fmt, outputs, args.map_file)
        elif args.command == "scan":
            cmd_scan(scenario, out_dir, fmt, outputs)
        elif args.command == "fit":
            scan_path = args.scan_file or os.path.join(out_dir, f"scan.{fmt}")
            cmd_fit(scenario, read_scan(scan_path)[0], out_dir, outputs)
        elif args.command == "analyze":
            fit_path = args.fit_file or os.path.join(out_dir, "fit.json")
            params, meta = read_fit_json(fit_path)
            if not meta["converged"]:
                raise NonConvergedError(
                    f"refusing to analyze a non-converged fit ({meta['message']}); "
                    "rerun the fit with more iterations or a better seed")
            cmd_analyze(scenario, params, out_dir, outputs)
        elif args.command == "pipeline":
            _run_pipeline(scenario, out_dir, fmt, outputs)
        else:  # pragma: no cover - argparse enforces the choices
            raise AssertionError(args.command)
    finally:
        for path in outputs.values():
            print(f"wrote {path}")
    return EXIT_OK


def _run_pipeline(scenario: Scenario, out_dir: str, fmt: str,
                  outputs: dict) -> None:
    """Chain all four stages, feeding extraction into fit and analysis. The
    bundle lists the files written, also when a stage fails."""
    try:
        state = cmd_spectrum(scenario, out_dir, fmt, outputs).state
        scan = cmd_scan(scenario, out_dir, fmt, outputs)
        # The extracted weights pin the fit's weight-visibility split, so
        # they are passed along whenever the requested m matches extraction.
        m_fit = scenario.fit.m if scenario.fit.m is not None else state.dimension_m
        matched = m_fit == state.dimension_m
        result = cmd_fit(scenario, scan, out_dir, outputs, m=m_fit,
                         known_weights=state.weights() if matched else None)
        cmd_analyze(scenario, result.params, out_dir, outputs,
                    balances=state.balances() if matched else None)
    finally:
        bundle_path = os.path.join(out_dir, "bundle.json")
        write_bundle(bundle_path, scenario_to_dict(scenario), dict(outputs),
                     seed=scenario.scan.seed,
                     timestamp=datetime.now(timezone.utc).isoformat())
        outputs["bundle"] = bundle_path


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # The exception type alone sets the code: the scenario module raises
    # every ScenarioError, so any other ValueError comes from a stage.
    try:
        return _run(args)
    except ScenarioError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IOFormatError as exc:
        print(f"input format error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, ExtractionError, NonConvergedError, MemoryError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
