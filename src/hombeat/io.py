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
TOOL_VERSION = "0.1.0"


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


# A map file of schema 2 states both axes once, then one row per stored
# cell; schema 1 listed every cell of the grid.
MAP_SCHEMA_VERSION = 2
_MAP_AXES = ["signal_nm", "idler_nm"]
_MAP_COLUMNS = {"1": _MAP_AXES + ["intensity"],
                "2": ["signal_index", "idler_index", "intensity"]}


def _map_table(map_: JointSpectrumMap) -> dict:
    """Both axes, then the stored cells' columns, as named lists; both map
    writers format these after the schema_version."""
    arrays = (map_.signal_nm, map_.idler_nm, map_.rows, map_.cols, map_.values)
    return dict(zip(_MAP_AXES + _MAP_COLUMNS["2"],
                    (np.asarray(a).tolist() for a in arrays)))


def write_map_csv(map_: JointSpectrumMap, path: str) -> None:
    """schema_version and each axis (comma-separated) as comments, then the
    column names, then one row per stored cell."""
    table = _map_table(map_)
    lines = [f"# schema_version={MAP_SCHEMA_VERSION}"]
    lines += [f"# {a}={','.join(map(repr, table.pop(a)))}" for a in _MAP_AXES]
    lines.append(",".join(table))
    lines += map(",".join, zip(*(map(repr, c) for c in table.values())))
    _write_text(path, "\n".join(lines) + "\n")


def write_map_json(map_: JointSpectrumMap, path: str) -> None:
    write_json(path, {"schema_version": MAP_SCHEMA_VERSION, **_map_table(map_)})


def read_map(path: str) -> JointSpectrumMap:
    """Load a map file (CSV or JSON) of either schema into the map of its
    stored cells; of a schema-1 grid, every cell that is not +0.0."""
    try:
        fields = (_load_json(path, "map") if path.endswith(".json")
                  else _read_map_csv(path))
        version, axes = str(fields["schema_version"]), [fields[a] for a in _MAP_AXES]
        if version == "2":
            return JointSpectrumMap(*axes, *(fields[n] for n in _MAP_COLUMNS["2"]))
        if version != "1":
            raise IOFormatError(f"unknown map schema_version {version!r}")
        grid = np.asarray(fields["intensity"], dtype=float)
        if grid.shape != (len(axes[0]), len(axes[1])):
            raise IOFormatError(f"intensity grid is {grid.shape}, axes are "
                                f"{len(axes[0])} x {len(axes[1])}")
        rows, cols = np.nonzero((grid != 0.0) | np.signbit(grid))
        return JointSpectrumMap(*axes, rows, cols, grid[rows, cols])
    except (KeyError, TypeError) as exc:
        raise IOFormatError(f"map file misses required fields: {exc}") from exc
    except ValueError as exc:
        raise IOFormatError(f"inconsistent map data: {exc}") from exc


def _read_map_csv(path: str) -> dict:
    """A CSV map as the fields of its JSON twin: a schema-1 file's cell
    rows become the two axes and the grid."""
    header, names, columns = _read_csv_table(path, "map")
    version = header.get("schema_version")
    if names != _MAP_COLUMNS.get(version):
        raise IOFormatError(f"unknown map schema_version {version!r} or "
                            f"columns {names}")
    if version == "2":
        axes = {a: np.array(header[a].split(","), dtype=float) for a in _MAP_AXES}
        return {**header, **axes, **dict(zip(names, columns))}
    # Schema 1: every cell of the grid, row-major over the signal axis.
    signal, idler = (np.unique(c) for c in columns[:2])
    grid = np.stack(np.meshgrid(signal, idler, indexing="ij")).reshape(2, -1)
    if not np.array_equal(columns[:2], grid):
        raise IOFormatError("schema-1 map is not a row-major signal x idler grid")
    return {**header, "signal_nm": signal, "idler_nm": idler,
            "intensity": columns[2].reshape(signal.size, idler.size)}


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
    """Header fields as comments, then the column names, then one row per delay."""
    header, columns = _scan_table(scan, model_probs, seed)
    lines = [f"# {key}={value}" for key, value in header.items()]
    lines.append(",".join(columns))
    lines += map(",".join, zip(*(map(repr, c) for c in columns.values())))
    _write_text(path, "\n".join(lines) + "\n")


def write_scan_json(scan: FringeScan, model_probs: np.ndarray, path: str,
                    seed: int | None = None) -> None:
    header, columns = _scan_table(scan, model_probs, seed)
    write_json(path, {**header, **columns})


def read_scan(path: str):
    """Load a scan file (CSV or JSON). Returns (FringeScan, model_column)."""
    header, names, columns = (_read_scan_json if path.endswith(".json")
                              else _read_csv_table)(path)
    return _scan_from_table(header, names, columns)


def _scan_from_table(header: dict, names: list[str], columns):
    """The one scan rule for both encodings: counts_per_point >= 1 if and
    only if all four columns are present, and sigma is sqrt(max(count, 1))."""
    if names not in (_SCAN_COLUMNS[:2], _SCAN_COLUMNS):
        raise IOFormatError(f"unexpected scan columns: {names}")
    try:
        cpp = int(str(header.get("counts_per_point", 0)))
    except ValueError as exc:
        raise IOFormatError("counts_per_point is not an integer") from exc
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
    except (TypeError, ValueError) as exc:
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


def _read_scan_json(path: str):
    data = _load_json(path, "scan")
    try:
        names = _SCAN_COLUMNS[:2] + [n for n in _SCAN_COLUMNS[2:] if n in data]
        return data, names, [data[name] for name in names]
    except (KeyError, TypeError) as exc:
        raise IOFormatError(f"scan file misses required fields: {exc}") from exc


def _read_csv_table(path: str, kind: str = "scan"):
    """``# key=value`` comments, the column names, then the numeric block,
    parsed whole by numpy: a row with too few or too many fields fails.
    Returns the header fields, the column names and the columns."""
    lines = _read_text(path, kind).splitlines()
    header, names = {}, None
    for k, line in enumerate(lines):
        line = line.strip()
        if line.startswith("#"):
            key, eq, value = line.lstrip("#").partition("=")
            if eq:
                header[key.strip()] = value.strip()
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
