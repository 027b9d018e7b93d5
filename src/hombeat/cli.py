"""Command-line front end: scenario in, deterministic result files out.

Stages compute, one loop writes. Each stage is a generator of (output
name, result) pairs that writes nothing: spectrum (2D map + bins), scan
(delay scan), fit (fringe model), analyze (density matrix + report).
``run_chain(scenario)`` chains them in process; ``_run`` writes each result
as it comes, then, for the pipeline subcommand, its manifest ``bundle.json``
(also on failure). The exception type alone sets the exit code: 0 success,
2 configuration error (ScenarioError, raised before any stage runs), 3
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

__all__ = ["main", "entrypoint", "run_chain"]

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


class NonConvergedError(RuntimeError):
    """A numeric stage failed to converge or was refused."""


def _spectrum(scenario: Scenario, map_=None):
    """The map (if simulated here) and the bins, yielded once both exist."""
    simulated = map_ is None
    if simulated:
        map_ = coincidence_spectrum(scenario.model, scenario.tau1_ps)
    extraction = extract_bins_from_map(map_, threshold=BIN_THRESHOLD)
    predicted = predict_bins(scenario.model, scenario.tau1_ps,
                             threshold=BIN_THRESHOLD)
    if simulated:
        yield "map", map_
    yield "spectrum_bins", (extraction, predicted)
    return extraction.state


def _scan(scenario: Scenario):
    """The noiseless scan curve plus an optional Poisson realization."""
    cfg = scenario.scan
    scan, probs = sample_scan(
        lambda tau2: fringe_probability(scenario.model, scenario.tau1_ps, tau2),
        cfg.tau2_min_ps, cfg.tau2_max_ps, cfg.n_points,
        cfg.counts_per_point, cfg.seed)
    yield "scan", (scan, probs)
    return scan


def _fit(scenario: Scenario, scan: FringeScan, bins, known_weights=None):
    """The fringe fit with fit.m bins, or the m of the command's bins() when
    that is null; one that did not converge is yielded, then raises."""
    result = fit_fringe_scan(scan, m=scenario.fit.m or bins().dimension_m,
                             known_weights=known_weights,
                             max_iterations=scenario.fit.max_iterations)
    yield "fit", result
    if not result.converged:
        raise NonConvergedError(f"fit did not converge: {result.message}")
    return result


def _source_bins(scenario: Scenario, scan: FringeScan):
    """The source's predicted bins, for a scan long enough to beat at tau1."""
    if abs(scan.tau2_ps).max() < scenario.tau1_ps:
        raise ValueError(f"the scan's tau2 range [{scan.tau2_ps.min():g}, "
                         f"{scan.tau2_ps.max():g}] ps does not reach tau1 = "
                         f"{scenario.tau1_ps:g} ps; set fit.m")
    return predict_bins(scenario.model, scenario.tau1_ps, threshold=BIN_THRESHOLD)


def _analyze(scenario: Scenario, params: FringeModelParams, balances=None):
    """The density matrix, then the report with its benchmark comparison."""
    dm = build_restricted_dm(params, balances=balances,
                             mode=scenario.analysis.mode)
    report = eof_lower_bound(dm)
    comparison = (eof_reference_comparison(report)
                  if report.dimension_m in EOF_EBITS else None)
    yield "dm", dm
    yield "report", (report, comparison)


def run_chain(scenario: Scenario):
    """The paper's chain in process, lazily: yields (output name, result) for
    map, spectrum_bins (extraction, predicted), scan (scan, probabilities),
    fit, dm and report (report, comparison). A model with no 2D map raises
    ScenarioError here, before any stage; a failed stage raises its error."""
    scenario.require_map()
    return _chain(scenario)


def _chain(scenario: Scenario):
    state = yield from _spectrum(scenario)
    scan = yield from _scan(scenario)
    # The extracted weights pin the weight-visibility split when m is theirs.
    weights, balances = ((state.weights(), state.balances()) if scenario.fit.m
                         in (None, state.dimension_m) else (None, None))
    fit = yield from _fit(scenario, scan, lambda: state, weights)
    yield from _analyze(scenario, fit.params, balances)


def _stages(args, scenario: Scenario):
    """A command's stages, fed from the file it reads once the run starts."""
    if args.command == "spectrum":
        yield from _spectrum(scenario,
                             read_map(args.map_file) if args.map_file else None)
    elif args.command == "scan":
        yield from _scan(scenario)
    elif args.command == "fit":
        scan_path = args.scan_file or os.path.join(args.out, f"scan.{args.format}")
        scan = read_scan(scan_path)[0]
        yield from _fit(scenario, scan, lambda: _source_bins(scenario, scan))
    else:  # analyze; argparse enforces the choices
        params, meta = read_fit_json(args.fit_file
                                     or os.path.join(args.out, "fit.json"))
        if not meta["converged"]:
            raise NonConvergedError(
                f"refusing to analyze a non-converged fit ({meta['message']}); "
                "rerun the fit with more iterations or a better seed")
        yield from _analyze(scenario, params)


def _run(args) -> int:
    scenario = load_scenario(args.scenario) if args.scenario else Scenario()
    if args.seed is not None:  # ScanConfig checks the seed
        scenario = replace(scenario, scan=replace(scenario.scan, seed=args.seed))
    if args.command == "spectrum" and not args.map_file:
        scenario.require_map()
    stages = (run_chain(scenario) if args.command == "pipeline"
              else _stages(args, scenario))
    json_ = args.format == "json"
    writers = {  # output name -> write(result, path)
        "map": write_map_json if json_ else write_map_csv,
        "spectrum_bins": lambda r, path: write_json(
            path, _extraction_sidecar(scenario, *r)),
        "scan": lambda r, path: (write_scan_json if json_ else write_scan_csv)(
            *r, path, seed=scenario.scan.seed),
        "fit": write_fit_json,
        "dm": write_dm_json,
        "report": lambda r, path: write_report_json(*r, path),
    }
    os.makedirs(args.out, exist_ok=True)
    outputs = {}  # each path a command writes, listed even if a stage fails
    try:
        for name, result in stages:
            # --format applies to the sampled data; the sidecars are JSON.
            ext = args.format if name in ("map", "scan") else "json"
            outputs[name] = os.path.join(args.out, f"{name}.{ext}")
            writers[name](result, outputs[name])
    finally:
        if args.command == "pipeline":  # the bundle lists the files written
            bundle_path = os.path.join(args.out, "bundle.json")
            write_bundle(bundle_path, scenario_to_dict(scenario), dict(outputs),
                         seed=scenario.scan.seed,
                         timestamp=datetime.now(timezone.utc).isoformat())
            outputs["bundle"] = bundle_path
        for path in outputs.values():
            print(f"wrote {path}")
    return EXIT_OK


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
