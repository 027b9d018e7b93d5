"""Deterministic file formats: CSV for sampled data, JSON for results.

Every file carries a schema version. Numeric text uses repr (shortest
round-trip) so identical inputs produce byte-identical files; nothing here
writes timestamps except the run bundle, which is explicitly excluded from
the byte-determinism contract.

The map writers skip json.dumps and format only live cells, those not +0.0
(none beyond the pump band): each row starts from a per-idler +0.0 template
("{idler},0.0" in CSV, "0.0" in JSON), takes the repr of each distinct live
value once, and is joined and written on its own. TestMapWriterOracles in
tests/test_io.py holds them byte-equal to json.dumps and a per-cell CSV loop.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable
from itertools import chain

import numpy as np

from .density import EntanglementReport, EofComparison, RestrictedDensityMatrix
from .fringes import FitResult, FringeModelParams, FringePairParams, FringeScan
from .spectral import JointSpectrumMap

__all__ = [
    "SCHEMA_VERSION",
    "TOOL_VERSION",
    "IOFormatError",
    "write_json",
    "write_map_csv",
    "write_map_json",
    "write_scan_csv",
    "write_scan_json",
    "read_scan",
    "fit_result_to_dict",
    "write_fit_json",
    "read_fit_json",
    "dm_to_dict",
    "write_dm_json",
    "report_to_dict",
    "write_report_json",
    "write_bundle",
]

SCHEMA_VERSION = 1
TOOL_VERSION = "0.1.0"


class IOFormatError(RuntimeError):
    """An input file does not match the expected format."""


def _map_rows(values, heads: list[str]) -> list[list[str]]:
    """Cell texts of each row of a 2D array, heads[j] + repr(value): the
    +0.0 template, shared by rows with no live cell (-0.0, NaN, inf live)."""
    flat = np.asarray(values, dtype=float).ravel()
    live = np.flatnonzero((flat != 0.0) | np.signbit(flat))
    distinct, inverse = np.unique(flat[live], return_inverse=True)
    texts = np.array(list(map(repr, distinct.tolist())), dtype=object)
    head = np.array(heads, dtype=object)
    row, col = np.divmod(live, len(heads))
    template = [f"{h}0.0" for h in heads]
    rows = [template] * len(values)
    for i, j, text in zip(row.tolist(), col.tolist(),
                          (head[col] + texts[inverse]).tolist()):
        if rows[i] is template:
            rows[i] = template.copy()
        rows[i][j] = text
    return rows


def _reprs(values) -> list[str]:
    return _map_rows(np.reshape(values, (1, -1)), [""] * np.size(values))[0]


def _json_array(items: list[str], depth: int = 1) -> str:
    pad = "\n" + "  " * depth
    return f"[{pad}  " + f",{pad}  ".join(items) + f"{pad}]" if items else "[]"


def _write_text(path: str, text: str | Iterable[str]) -> None:
    """Write text, or its chunks in turn, as UTF-8 over the file's old bytes,
    then cut its tail: opening with truncation makes ext4 start writeback on
    close (auto_da_alloc), which blocks for as long as a busy disk takes.
    Chunk by chunk, a map is never held whole, as text or as bytes."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        for chunk in [text] if isinstance(text, str) else text:
            fh.write(chunk.encode("utf-8"))
        fh.truncate()


def write_json(path: str, payload: dict) -> None:
    """Canonical JSON: sorted keys, two-space indent, no NaN."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    _write_text(path, text + "\n")


def write_map_csv(map_: JointSpectrumMap, path: str) -> None:
    """Row-major 2D map: one line per (signal, idler) sample."""
    heads = [f"{v}," for v in _reprs(map_.idler_nm)]
    leads = [f"\n{s}," for s in _reprs(map_.signal_nm)]
    rows = (lead + lead.join(cells)
            for lead, cells in zip(leads, _map_rows(map_.intensity, heads))
            if cells)
    header = f"# schema_version={SCHEMA_VERSION}\nsignal_nm,idler_nm,intensity"
    _write_text(path, chain([header], rows, ["\n"]))


def write_map_json(map_: JointSpectrumMap, path: str) -> None:
    arrays = (map_.idler_nm, map_.intensity, map_.signal_nm)
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("Out of range float values are not JSON compliant")
    rows = [_json_array(r, 2) for r in _map_rows(map_.intensity, [""] * len(map_.idler_nm))]
    # The json.dumps(indent=2, sort_keys=True) text, the intensity row by row.
    seps = ["[\n    "] + [",\n    "] * (len(rows) - 1)
    _write_text(path, chain(
        [f'{{\n  "idler_nm": {_json_array(_reprs(map_.idler_nm))},\n  "intensity": '],
        chain(*zip(seps, rows), ["\n  ]"]) if rows else ["[]"],
        [f',\n  "schema_version": {SCHEMA_VERSION},\n  "signal_nm": '
         f'{_json_array(_reprs(map_.signal_nm))}\n}}\n']))


def write_scan_csv(scan: FringeScan, model_probs: np.ndarray, path: str,
                   seed: int | None = None) -> None:
    """Scan samples; count columns appear only for counting data."""
    lines = [f"# schema_version={SCHEMA_VERSION}",
             f"# counts_per_point={scan.counts_per_point}"]
    columns = [scan.tau2_ps, model_probs]
    if scan.counts_per_point:
        if seed is not None:
            lines.append(f"# seed={seed}")
        lines.append("tau2_ps,probability_model,counts,sigma")
        columns += [scan.values, scan.uncertainties]
    else:
        lines.append("tau2_ps,probability_model")
    lines += map(",".join, zip(*map(_reprs, columns)))
    _write_text(path, "\n".join(lines) + "\n")


def write_scan_json(scan: FringeScan, model_probs: np.ndarray, path: str,
                    seed: int | None = None) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "counts_per_point": scan.counts_per_point,
        "tau2_ps": [float(v) for v in scan.tau2_ps],
        "probability_model": [float(v) for v in model_probs],
    }
    if scan.counts_per_point:
        payload["counts"] = [float(v) for v in scan.values]
        payload["sigma"] = [float(v) for v in scan.uncertainties]
        if seed is not None:
            payload["seed"] = seed
    write_json(path, payload)


def _scan_from_columns(tau2, model_probs, counts, sigma, counts_per_point):
    kind, floor = ("noiseless", 0) if counts is None else ("counting", 1)
    if counts_per_point < floor:
        raise IOFormatError(f"{kind} scan has counts_per_point < {floor}")
    model_probs = np.asarray(model_probs, dtype=float)
    if counts is None:
        counts, sigma, counts_per_point = model_probs, np.zeros_like(model_probs), 0
    scan = FringeScan(tau2_ps=tau2, values=counts,
                      counts_per_point=counts_per_point)
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != scan.values.shape or not np.allclose(
            sigma, scan.uncertainties, rtol=0, atol=1e-9):
        raise ValueError("sigma must be sqrt(count) with a one-count floor")
    if scan.n_points < 3:
        raise IOFormatError(f"scan has {scan.n_points} points, need at least 3")
    return scan, model_probs


def read_scan(path: str):
    """Load a scan file (CSV or JSON). Returns (FringeScan, model_column)."""
    if path.endswith(".json"):
        return _read_scan_json(path)
    return _read_scan_csv(path)


def _read_scan_json(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise IOFormatError(f"scan file is not valid JSON: {exc}") from exc
    try:
        cpp = int(data["counts_per_point"])
        tau2 = data["tau2_ps"]
        model_probs = data["probability_model"]
        counts = data.get("counts")
        sigma = data.get("sigma")
    except (KeyError, TypeError, ValueError) as exc:
        raise IOFormatError(f"scan file misses required fields: {exc}") from exc
    if cpp > 0 and (counts is None or sigma is None):
        raise IOFormatError("counting scan lacks counts/sigma arrays")
    try:
        return _scan_from_columns(tau2, model_probs,
                                  counts if cpp > 0 else None, sigma, cpp)
    except ValueError as exc:
        raise IOFormatError(f"inconsistent scan data: {exc}") from exc


def _read_scan_csv(path: str):
    meta = {}
    header = None
    rows = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    meta[key.strip()] = value.strip()
                continue
            if header is None:
                header = line.split(",")
                continue
            rows.append(line)
    if header is None or not rows:
        raise IOFormatError("scan file has no data rows")
    counting = header == ["tau2_ps", "probability_model", "counts", "sigma"]
    if not counting and header != ["tau2_ps", "probability_model"]:
        raise IOFormatError(f"unexpected scan columns: {header}")
    # Rows stay strings until here and are split one at a time: a list per
    # row would hold hundreds of GC-tracked objects alive at once, which the
    # collector promotes to its oldest generation, and the full collections
    # that follow stall a later call for about 10 ms.
    cols = [[] for _ in header]
    try:
        for line in rows:
            fields = line.split(",")
            for k, col in enumerate(cols):
                col.append(float(fields[k]))
    except (ValueError, IndexError) as exc:
        raise IOFormatError(f"malformed scan row: {exc}") from exc
    try:
        cpp = int(meta.get("counts_per_point", "0"))
    except ValueError as exc:
        raise IOFormatError("counts_per_point comment is not an integer") from exc
    try:
        return _scan_from_columns(
            cols[0], cols[1],
            cols[2] if counting else None,
            cols[3] if counting else None, cpp)
    except ValueError as exc:
        raise IOFormatError(f"inconsistent scan data: {exc}") from exc


def fit_result_to_dict(fit: FitResult) -> dict:
    params = fit.params
    return {
        "schema_version": SCHEMA_VERSION,
        "converged": fit.converged,
        "message": fit.message,
        "n_iterations": fit.n_iterations,
        "residual_norm": float(fit.residual_norm),
        "weights_supplied": fit.weights_supplied,
        "coherence_time_ps": float(params.coherence_time_ps),
        "pairs": [
            {
                "weight": float(p.weight),
                "detuning_thz": float(p.detuning_thz),
                "visibility": float(p.visibility),
                "phase_deg": float(p.phase_deg),
            }
            for p in params.pairs
        ],
        "param_names": list(fit.param_names),
        "covariance": [[float(v) for v in row] for row in fit.covariance],
        "seed_coherence_time_ps": float(fit.seed_params.coherence_time_ps),
        "seed_pairs": [
            {
                "weight": float(p.weight),
                "detuning_thz": float(p.detuning_thz),
                "visibility": float(p.visibility),
                "phase_deg": float(p.phase_deg),
            }
            for p in fit.seed_params.pairs
        ],
    }


def write_fit_json(fit: FitResult, path: str) -> None:
    write_json(path, fit_result_to_dict(fit))


def read_fit_json(path: str) -> tuple[FringeModelParams, dict]:
    """Load fitted parameters and metadata back from a fit file."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise IOFormatError(f"fit file is not valid JSON: {exc}") from exc
    try:
        pairs = tuple(
            FringePairParams(weight=p["weight"], detuning_thz=p["detuning_thz"],
                             visibility=p["visibility"], phase_deg=p["phase_deg"])
            for p in data["pairs"]
        )
        params = FringeModelParams(
            coherence_time_ps=data["coherence_time_ps"], pairs=pairs)
        meta = {"converged": bool(data["converged"]),
                "message": str(data.get("message", "")),
                "residual_norm": float(data["residual_norm"]),
                "n_iterations": int(data["n_iterations"])}
    except (KeyError, TypeError, ValueError) as exc:
        raise IOFormatError(f"fit file misses required fields: {exc}") from exc
    return params, meta


def dm_to_dict(dm: RestrictedDensityMatrix) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "dimension_m": dm.dimension_m,
        "basis_labels": list(dm.basis_labels),
        "construction_mode": dm.construction_mode,
        "real": [[float(v) for v in row] for row in dm.entries.real],
        "imag": [[float(v) for v in row] for row in dm.entries.imag],
    }


def write_dm_json(dm: RestrictedDensityMatrix, path: str) -> None:
    write_json(path, dm_to_dict(dm))


def report_to_dict(report: EntanglementReport,
                   comparison: EofComparison | None) -> dict:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "eof_lower_bound_ebits": float(report.eof_lower_bound_ebits),
        "b_value": float(report.b_value),
        "average_visibility": float(report.average_visibility),
        "dimension_m": report.dimension_m,
        "mode": report.mode,
        "assumption_note": report.assumption_note,
    }
    if comparison is not None:
        payload["reference_comparison"] = {
            "dimension_m": comparison.dimension_m,
            "computed_ebits": float(comparison.computed_ebits),
            "reference_ebits": float(comparison.reference_ebits),
            "relative_deviation": float(comparison.relative_deviation),
            "note": comparison.note,
        }
    return payload


def write_report_json(report: EntanglementReport,
                      comparison: EofComparison | None, path: str) -> None:
    write_json(path, report_to_dict(report, comparison))


def write_bundle(path: str, scenario_echo: dict, outputs: dict[str, str],
                 seed: int, timestamp: str) -> None:
    """Run manifest: scenario echo, produced files, provenance.

    The timestamp makes this the one file exempt from byte determinism.
    """
    write_json(path, {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenario_echo,
        "outputs": outputs,
        "provenance": {
            "tool_version": TOOL_VERSION,
            "seed": seed,
            "timestamp": timestamp,
        },
    })
