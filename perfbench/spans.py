"""In-memory span tracing of calls into the package's public functions.

A wrapper is installed on each traced function under the name its caller
looks it up by (``hombeat.cli.fit_fringe_scan``, not only
``hombeat.fringes.fit_fringe_scan``), so no file of the package is edited.
Each span records its name, the op it belongs to, its parent, start and
end, its self time (duration minus the time of its traced children) and
its ``tracemalloc`` peak above the memory in use when it opened. Spans stay
in memory and are written out once, when the run ends.

``tracemalloc`` records every allocation, and the map synthesis allocates a
million Python floats, so memory is traced in a separate pass: a tracer
made with ``memory=True`` records peaks, one made without records times.
"""

from __future__ import annotations

import inspect
import json
import os
import time
import tracemalloc


class Span:
    __slots__ = ("id", "name", "op", "parent", "start", "end", "child_s",
                 "base_bytes", "peak_abs", "counts")

    def __init__(self, sid, name, op, parent, base_bytes):
        self.id = sid
        self.name = name
        self.op = op
        self.parent = parent
        self.start = time.perf_counter()
        self.end = None
        self.child_s = 0.0
        self.base_bytes = base_bytes
        self.peak_abs = base_bytes
        self.counts = {}

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s

    @property
    def peak_bytes(self) -> int:
        return self.peak_abs - self.base_bytes

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "op": self.op,
                "parent": self.parent, "start": self.start, "end": self.end,
                "self_s": self.self_s, "peak_bytes": self.peak_bytes,
                **self.counts}


class Tracer:
    """Records spans while installed; ``uninstall`` restores every function."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[Span] = []
        self._restore = []

    def _open(self, name: str) -> Span:
        current = 0
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                # The child resets the peak counter, so the parent keeps
                # the high-water mark reached so far.
                parent = self._stack[-1]
                parent.peak_abs = max(parent.peak_abs, peak)
            tracemalloc.reset_peak()
        span = Span(len(self.spans), name, self.op,
                    self._stack[-1].id if self._stack else None, current)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self.memory:
            span.peak_abs = max(span.peak_abs,
                                tracemalloc.get_traced_memory()[1])
        self._stack.pop()
        if self._stack:
            parent = self._stack[-1]
            parent.child_s += span.end - span.start
            parent.peak_abs = max(parent.peak_abs, span.peak_abs)

    def wrap(self, name: str, fn, count=None):
        """fn wrapped in a span; count(bound_args, result) adds counters."""
        sig = inspect.signature(fn) if count else None

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count:
                span.counts.update(count(sig.bind(*args, **kwargs).arguments,
                                         result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, module, attr: str, name: str, count=None) -> None:
        original = getattr(module, attr)
        setattr(module, attr, self.wrap(name, original, count))
        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([s.to_dict() for s in self.spans], fh)


def file_bytes(key: str):
    """Counter: size of the file named by the ``path`` argument."""
    def count(arguments, result):
        return {key: os.path.getsize(arguments["path"])}
    return count


def lm_counts(arguments, result):
    return {"iterations": result.n_iterations,
            "residual_evals": result.n_residual_evals}


def live_cells(arguments, result):
    intensity = result.intensity
    return {"cells_live": int((intensity > 1e-12 * intensity.max()).sum())}


def install_package_spans(tracer: Tracer) -> None:
    """Wrap every traced public function where its callers look it up."""
    import hombeat.bins
    import hombeat.cli
    import hombeat.fringes
    import hombeat.hom

    cli, bins, fringes, hom = (hombeat.cli, hombeat.bins, hombeat.fringes,
                               hombeat.hom)
    # (module, attribute, layer): the benchmark's own sweep calls go through
    # hombeat.hom and hombeat.bins, the CLI through its own imported names.
    for module in (hom, cli):
        tracer.install(module, "coincidence_spectrum", "hom.map", live_cells)
    tracer.install(cli, "main", "cli.main")
    tracer.install(cli, "fringe_probability", "hom.fringe")
    tracer.install(bins, "detuning_profile", "bins.kde")
    for module in (bins, cli):
        tracer.install(module, "extract_bins_from_map", "bins.extract")
        tracer.install(module, "predict_bins", "bins.predict")
    tracer.install(fringes, "seed_guess", "fringes.seed")
    tracer.install(fringes, "levenberg_marquardt", "lm.solve", lm_counts)
    tracer.install(cli, "fit_fringe_scan", "fringes.fit")
    tracer.install(cli, "build_restricted_dm", "density.dm")
    tracer.install(cli, "eof_lower_bound", "density.eof")
    tracer.install(cli, "load_scenario", "scenario.load")
    for attr in ("write_map_csv", "write_map_json"):
        tracer.install(cli, attr, "io.write_map", file_bytes("bytes_written"))
    for attr in ("read_scan", "read_fit_json"):
        tracer.install(cli, attr, "io.read", file_bytes("bytes_read"))
    for attr in ("write_json", "write_scan_csv", "write_scan_json",
                 "write_fit_json", "write_dm_json", "write_report_json",
                 "write_bundle"):
        tracer.install(cli, attr, "io.write_other", file_bytes("bytes_written"))


def _by_name(tracer: Tracer) -> dict:
    by_name: dict[str, list[Span]] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    return by_name


def layer_metrics(timing: Tracer, memory: Tracer, n_ops: int) -> dict:
    """Per-layer figures from the recorded spans.

    Times are self times, summed over the timed passes and divided by the
    ops run (lm figures by the LM solves run); counts are per op, or per
    call where named so. Peaks come from the memory pass: the largest of
    the layer's spans, in MB. A layer the workload never calls reads 0.
    """
    by_name = _by_name(timing)
    by_name_mem = _by_name(memory)

    def spans(name):
        return by_name.get(name, [])

    def per_op_s(name):
        return sum(s.self_s for s in spans(name)) / n_ops

    def per_call_s(name):
        calls = spans(name)
        return sum(s.self_s for s in calls) / len(calls) if calls else 0.0

    def peak_mb(name):
        return max((s.peak_bytes for s in by_name_mem.get(name, [])),
                   default=0) / 2 ** 20

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in spans(name))

    def mean(name, key):
        return total(name, key) / len(spans(name)) if spans(name) else 0.0

    return {
        "hom.map_s": (per_op_s("hom.map"), "s"),
        "hom.map_cells_live": (mean("hom.map", "cells_live"), "count"),
        "hom.map_peak_mb": (peak_mb("hom.map"), "MB"),
        "hom.fringe_s": (per_op_s("hom.fringe"), "s"),
        "hom.fringe_peak_mb": (peak_mb("hom.fringe"), "MB"),
        "bins.kde_s": (per_op_s("bins.kde"), "s"),
        "bins.extract_s": (per_op_s("bins.extract"), "s"),
        "bins.predict_s": (per_op_s("bins.predict"), "s"),
        "bins.extract_peak_mb": (peak_mb("bins.extract"), "MB"),
        "fringes.seed_s": (per_op_s("fringes.seed"), "s"),
        "fringes.fit_s": (per_op_s("fringes.fit"), "s"),
        "lm.solve_s": (per_call_s("lm.solve"), "s"),
        "lm.iterations": (mean("lm.solve", "iterations"), "count"),
        "lm.residual_evals": (mean("lm.solve", "residual_evals"), "count"),
        "density.dm_s": (per_op_s("density.dm"), "s"),
        "density.eof_s": (per_op_s("density.eof"), "s"),
        "io.write_map_s": (per_op_s("io.write_map"), "s"),
        "io.map_bytes": (mean("io.write_map", "bytes_written"), "bytes"),
        "io.write_map_peak_mb": (peak_mb("io.write_map"), "MB"),
        "io.read_s": (per_op_s("io.read"), "s"),
        "io.write_other_s": (per_op_s("io.write_other"), "s"),
        "io.bytes_read": (total("io.read", "bytes_read") / n_ops, "bytes"),
        "io.bytes_written": ((total("io.write_map", "bytes_written")
                              + total("io.write_other", "bytes_written"))
                             / n_ops, "bytes"),
        "scenario.load_s": (per_op_s("scenario.load"), "s"),
        "cli.self_s": (per_op_s("cli.main"), "s"),
    }
