#!/usr/bin/env python3
"""Print sha256 digests of the program's outputs, for bit-identity checks.

A change that claims to keep every output bit runs this script on the old
and the new tree and compares the two printouts; they must be equal. It
prints:

- one line per ``hombeat pipeline`` payload except ``bundle.json`` (whose
  timestamp changes on every run), at tau1 = 0.12, 0.20, 0.27, 0.37 and
  0.5 ps, in csv and json, at 0 and 1000 counts per point, with the
  pipeline's exit code;
- one digest over the cell arrays of 315 maps: pump FWHM 1e-6, 1e-3,
  0.05, 0.5 and 5 THz x sources 810/20, 1550/60 and 780/5 nm x 16, 101
  and 512 points x ``jsi_map`` and ``coincidence_spectrum`` at tau1 = 0,
  0.12, 0.27, 0.37, 0.8 and 3 ps (a map that is refused adds its error);
- one digest over the ``predict_bins`` pairs for tau1 = 0.05 .. 2.39 ps
  in steps of 0.01 ps.

Example (about 5 s):
    PYTHONPATH=src python3 scripts/payload_digest.py > digest.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile

from hombeat import BiphotonSpectrumModel, coincidence_spectrum, predict_bins
from hombeat.cli import main as hombeat_main
from hombeat.hom import jsi_map

PIPELINE_DELAYS_PS = (0.12, 0.20, 0.27, 0.37, 0.5)
MAP_PUMPS_THZ = (1e-6, 1e-3, 0.05, 0.5, 5.0)
MAP_SOURCES_NM = ((810.0, 20.0), (1550.0, 60.0), (780.0, 5.0))
MAP_POINTS = (16, 101, 512)
MAP_DELAYS_PS = (0.0, 0.12, 0.27, 0.37, 0.8, 3.0)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pipeline_lines(work: str) -> list[str]:
    lines = []
    for tau1 in PIPELINE_DELAYS_PS:
        for fmt in ("csv", "json"):
            for cpp in (0, 1000):
                tag = f"tau1={tau1} {fmt} cpp={cpp}"
                out = os.path.join(work, tag.replace(" ", "_"))
                scenario = os.path.join(work, "scenario.json")
                with open(scenario, "w", encoding="utf-8") as fh:
                    json.dump({"tau1_ps": tau1,
                               "scan": {"counts_per_point": cpp}}, fh)
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    rc = hombeat_main(["--scenario", scenario, "--out", out,
                                       "--format", fmt, "pipeline"])
                lines.append(f"pipeline {tag} rc={rc}")
                for name in sorted(os.listdir(out)):
                    if name != "bundle.json":
                        with open(os.path.join(out, name), "rb") as fh:
                            lines.append(f"pipeline {tag} {name} {_sha(fh.read())}")
    return lines


def maps_digest() -> str:
    h = hashlib.sha256()
    for pump in MAP_PUMPS_THZ:
        for center, fwhm in MAP_SOURCES_NM:
            model = BiphotonSpectrumModel(center, fwhm, pump)
            for n in MAP_POINTS:
                for tau1 in (None,) + MAP_DELAYS_PS:
                    try:
                        map_ = (jsi_map(model, n) if tau1 is None
                                else coincidence_spectrum(model, tau1, n))
                    except ValueError as exc:
                        h.update(repr(exc).encode())
                        continue
                    for a in (map_.signal_nm, map_.idler_nm, map_.rows,
                              map_.cols, map_.values):
                        h.update(a.tobytes())
    return h.hexdigest()


def predict_digest() -> str:
    model = BiphotonSpectrumModel()
    h = hashlib.sha256()
    for k in range(5, 240):
        state = predict_bins(model, k / 100)
        for p in state.pairs:
            h.update(repr((p.detuning_thz, p.weight, p.balance)).encode())
        h.update(b";")
    return h.hexdigest()


def main() -> None:
    with tempfile.TemporaryDirectory() as work:
        for line in pipeline_lines(work):
            print(line)
    print(f"maps {maps_digest()}")
    print(f"predict_bins {predict_digest()}")


if __name__ == "__main__":
    main()
