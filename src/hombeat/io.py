"""Deterministic file formats: CSV for sampled data, JSON for results.

Every file carries a schema version. Numeric text uses repr (shortest
round-trip), so identical inputs give identical bytes; only the run bundle
holds a timestamp. JSON is exactly json.dumps(indent=2, sort_keys=True,
allow_nan=False), but made by json's C encoder, which indent would bypass.
"""

from __future__ import annotations

import functools
import json
import os
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__ as TOOL_VERSION
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
    "read_map",
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


class IOFormatError(RuntimeError):
    """An input file does not match the expected format."""


def _write_text(path: str, text: str) -> None:
    """Write text as UTF-8 over the file's old bytes, then cut its tail:
    opening with truncation makes ext4 start writeback on close
    (auto_da_alloc), which blocks for as long as a busy disk takes."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(text.encode("utf-8"))
        fh.truncate()


@functools.cache
def _encoder(sep: str):
    return json.JSONEncoder(allow_nan=False, separators=(sep, ": ")).encode


def _canonical(value, indent: str) -> str:
    """``value`` as json.dumps(indent=2, sort_keys=True) writes it at ``indent``."""
    inner = indent + "  "
    encode, join = _encoder("," + inner), ("," + inner).join
    if not isinstance(value, (dict, list, tuple)) or not value:
        return encode(value)
    if isinstance(value, dict):  # a key that is not a str raises TypeError
        return "{" + inner + join(f"{encode_basestring_ascii(k)}: {_canonical(v, inner)}"
                                  for k, v in sorted(value.items())) + indent + "}"
    if any(issubclass(t, (dict, list, tuple)) for t in set(map(type, value))):
        return "[" + inner + join(_canonical(v, inner) for v in value) + indent + "]"
    return "[" + inner + encode(value)[1:-1] + indent + "]"


def write_json(path: str, payload: dict) -> None:
    """``json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)`` and a
    newline; lists of scalars skip indent's pure-Python encoder for json's C one."""
    _write_text(path, _canonical(payload, "\n") + "\n")


# A table file is a header of named fields plus named columns of one
# length: maps and scans are tables, in CSV or JSON.
def _write_table_csv(path: str, header: dict, columns: dict) -> None:
    """``# key=value`` lines (a list as its comma-joined reprs, a scalar as
    formatted), the column names, then one row per entry of the columns."""
    lines = [f"# {key}={','.join(map(repr, v)) if isinstance(v, list) else v}"
             for key, v in header.items()]
    lines.append(",".join(columns))
    lines += map(",".join, zip(*(map(repr, c) for c in columns.values())))
    _write_text(path, "\n".join(lines) + "\n")


def _write_table_json(path: str, header: dict, columns: dict) -> None:
    write_json(path, {**header, **columns})


def _read_table(path: str, kind: str, columns: list[str], required=(), lists=()):
    """(header fields, column names, columns) of a table file. JSON: the
    object, with those of ``columns`` it holds and every one of ``required``.
    CSV: ``# key=value`` comments (a field of ``lists`` split at its commas),
    the column names, then the numeric block, parsed whole by numpy: a row
    with too few or too many fields fails."""
    if path.endswith(".json"):
        data = _load_json(path, kind)
        try:  # {**data} refuses a JSON value that is not an object
            names = [n for n in columns if n in data or n in required]
            return {**data}, names, [data[n] for n in names]
        except (KeyError, TypeError) as exc:
            raise IOFormatError(f"{kind} file misses required fields: {exc}") from exc
    lines = _read_text(path, kind).splitlines()
    header, names = {}, None
    for k, line in enumerate(lines):
        line = line.strip()
        if line.startswith("#"):
            key, eq, value = (s.strip() for s in line.lstrip("#").partition("="))
            if eq:
                header[key] = value.split(",") if key in lists else value
        elif line:
            names, rows = line.split(","), lines[k + 1:]
            break
    if names is None:
        raise IOFormatError(f"{kind} file has no data rows")
    if not any(rows):
        return header, names, np.empty((len(names), 0))
    try:
        block = np.loadtxt(rows, delimiter=",", ndmin=2)
        if block.shape[1] != len(names):
            raise ValueError(f"{block.shape[1]} fields per row, "
                             f"{len(names)} column names")
    except ValueError as exc:
        raise IOFormatError(f"malformed {kind} row: {exc}") from exc
    return header, names, block.T


# A map file (schema 2) states both axes once, then one row per stored cell.
MAP_SCHEMA_VERSION = 2
_MAP_AXES = ["signal_nm", "idler_nm"]
_MAP_COLUMNS = ["signal_index", "idler_index", "intensity"]


def _map_table(map_: JointSpectrumMap):
    """Header fields (schema_version, both axes) and the stored cells'
    columns, as lists; both map writers format these."""
    lists = [np.asarray(a).tolist() for a in (map_.signal_nm, map_.idler_nm,
                                              map_.rows, map_.cols, map_.values)]
    return ({"schema_version": MAP_SCHEMA_VERSION, **dict(zip(_MAP_AXES, lists))},
            dict(zip(_MAP_COLUMNS, lists[2:])))


def write_map_csv(map_: JointSpectrumMap, path: str) -> None:
    _write_table_csv(path, *_map_table(map_))


def write_map_json(map_: JointSpectrumMap, path: str) -> None:
    _write_table_json(path, *_map_table(map_))


def read_map(path: str) -> JointSpectrumMap:
    """Load a map file (CSV or JSON) into the map of its stored cells."""
    header, names, columns = _read_table(path, "map", _MAP_COLUMNS, lists=_MAP_AXES)
    version = str(header.get("schema_version"))
    if version != str(MAP_SCHEMA_VERSION):
        raise IOFormatError(f"unknown map schema_version {version!r}")
    if names != _MAP_COLUMNS:
        raise IOFormatError(f"map file misses required fields: columns {names}")
    try:
        axes = (np.array(header[a], dtype=float) for a in _MAP_AXES)
        return JointSpectrumMap(*axes, *columns)
    except (KeyError, TypeError) as exc:
        raise IOFormatError(f"map file misses required fields: {exc}") from exc
    except (ValueError, OverflowError) as exc:  # JSON ints beyond float range
        raise IOFormatError(f"inconsistent map data: {exc}") from exc


# The scan file's columns, in file order: a counting scan (counts_per_point
# >= 1) has all four, a noiseless one the first two.
_SCAN_COLUMNS = ["tau2_ps", "probability_model", "counts", "sigma"]


def _scan_table(scan: FringeScan, model_probs, seed: int | None):
    """Header fields (schema_version, counts_per_point, the seed of a
    counting scan if known) and named columns; both writers format these."""
    header = {"schema_version": SCHEMA_VERSION,
              "counts_per_point": scan.counts_per_point}
    columns = [scan.tau2_ps, model_probs]
    if scan.counts_per_point:
        columns += [scan.values, scan.uncertainties]
        if seed is not None:
            header["seed"] = seed
    return header, {name: np.asarray(column, dtype=float).tolist()
                    for name, column in zip(_SCAN_COLUMNS, columns)}


def write_scan_csv(scan: FringeScan, model_probs: np.ndarray, path: str,
                   seed: int | None = None) -> None:
    _write_table_csv(path, *_scan_table(scan, model_probs, seed))


def write_scan_json(scan: FringeScan, model_probs: np.ndarray, path: str,
                    seed: int | None = None) -> None:
    _write_table_json(path, *_scan_table(scan, model_probs, seed))


def read_scan(path: str):
    """Load a scan file (CSV or JSON). Returns (FringeScan, model_column)."""
    return _scan_from_table(*_read_table(path, "scan", _SCAN_COLUMNS,
                                         required=_SCAN_COLUMNS[:2]))


def _scan_from_table(header: dict, names: list[str], columns):
    """The one scan rule for both encodings: counts_per_point >= 1 if and
    only if all four columns are present, and sigma is sqrt(max(count, 1))."""
    if names not in (_SCAN_COLUMNS[:2], _SCAN_COLUMNS):
        raise IOFormatError(f"unexpected scan columns: {names}")
    try:
        cpp = int(str(header.get("counts_per_point", 0)))
        float(cpp)  # counts are divided by it
    except ValueError as exc:
        raise IOFormatError("counts_per_point is not an integer") from exc
    except OverflowError as exc:
        raise IOFormatError("counts_per_point is beyond float range") from exc
    counting = names == _SCAN_COLUMNS
    if cpp >= 1 and not counting:
        raise IOFormatError("counting scan lacks counts/sigma columns")
    kind, floor = ("counting", 1) if counting else ("noiseless", 0)
    if cpp < floor:
        raise IOFormatError(f"{kind} scan has counts_per_point < {floor}")
    try:
        tau2, model_probs, *counted = (np.asarray(c, dtype=float) for c in columns)
        scan = FringeScan(tau2_ps=tau2, values=counted[0] if counted else model_probs,
                          counts_per_point=cpp)
        if model_probs.shape != scan.values.shape:
            raise ValueError("probability_model must match tau2_ps in length")
        if counted and (counted[1].shape != scan.values.shape or not np.allclose(
                counted[1], scan.uncertainties, rtol=0, atol=1e-9)):
            raise ValueError("sigma must be sqrt(count) with a one-count floor")
    except (TypeError, ValueError, OverflowError) as exc:
        raise IOFormatError(f"inconsistent scan data: {exc}") from exc
    if scan.n_points < 3:
        raise IOFormatError(f"scan has {scan.n_points} points, need at least 3")
    return scan, model_probs


def _read_text(path: str, kind: str) -> str:
    """The file's text; bytes that are not UTF-8 are a format error."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise IOFormatError(f"{kind} file is not UTF-8 text: {exc}") from exc


def _load_json(path: str, kind: str):
    try:
        return json.loads(_read_text(path, kind))
    except json.JSONDecodeError as exc:
        raise IOFormatError(f"{kind} file is not valid JSON: {exc}") from exc


def _pair_dicts(pairs) -> list[dict]:
    return [{"weight": float(p.weight), "detuning_thz": float(p.detuning_thz),
             "visibility": float(p.visibility), "phase_deg": float(p.phase_deg)}
            for p in pairs]


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
        "pairs": _pair_dicts(params.pairs),
        "param_names": list(fit.param_names),
        "covariance": [[float(v) for v in row] for row in fit.covariance],
        "seed_coherence_time_ps": float(fit.seed_params.coherence_time_ps),
        "seed_pairs": _pair_dicts(fit.seed_params.pairs),
    }


def write_fit_json(fit: FitResult, path: str) -> None:
    write_json(path, fit_result_to_dict(fit))


def read_fit_json(path: str) -> tuple[FringeModelParams, dict]:
    """Load fitted parameters and metadata back from a fit file."""
    data = _load_json(path, "fit")
    try:
        pairs = tuple(
            FringePairParams(weight=p["weight"], detuning_thz=p["detuning_thz"],
                             visibility=p["visibility"], phase_deg=p["phase_deg"])
            for p in data["pairs"]
        )
        params = FringeModelParams(
            coherence_time_ps=float(data["coherence_time_ps"]), pairs=pairs)
        meta = {"converged": bool(data["converged"]),
                "message": str(data.get("message", "")),
                "residual_norm": float(data["residual_norm"]),
                "n_iterations": int(data["n_iterations"])}
    except (KeyError, TypeError, ValueError) as exc:
        raise IOFormatError(f"fit file misses required fields: {exc}") from exc
    except OverflowError as exc:  # JSON ints beyond float range
        raise IOFormatError(f"fit value beyond float range: {exc}") from exc
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
