"""Shared fixtures: the default source model and cached per-delay results.

The 2D map extractions and the noiseless fits are the slowest pieces of the
suite, and several test modules compare against the same four delays, so
they are computed once per session.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from hombeat import (
    BiphotonSpectrumModel,
    coincidence_spectrum,
    extract_bins_from_map,
    fit_fringe_scan,
    fringe_scan,
    predict_bins,
)

BENCH_DELAYS_PS = (0.12, 0.20, 0.27, 0.37)
SCAN_DELAYS_PS = (0.12, 0.27, 0.37)
BIN_THRESHOLD = 0.6


@pytest.fixture(scope="session")
def model() -> BiphotonSpectrumModel:
    return BiphotonSpectrumModel()


@pytest.fixture(scope="session")
def predicted_states(model):
    return {t: predict_bins(model, t, threshold=BIN_THRESHOLD)
            for t in BENCH_DELAYS_PS}


@pytest.fixture(scope="session")
def spectrum_maps(model):
    return {t: coincidence_spectrum(model, t) for t in BENCH_DELAYS_PS}


@pytest.fixture(scope="session")
def extractions(spectrum_maps):
    return {t: extract_bins_from_map(m, threshold=BIN_THRESHOLD)
            for t, m in spectrum_maps.items()}


@pytest.fixture(scope="session")
def noiseless_scans(model):
    return {t: fringe_scan(model, t, -0.75, 0.75, 601) for t in SCAN_DELAYS_PS}


@pytest.fixture(scope="session")
def noiseless_fits(noiseless_scans, predicted_states):
    fits = {}
    for t, scan in noiseless_scans.items():
        state = predicted_states[t]
        fits[t] = fit_fringe_scan(scan, m=state.dimension_m,
                                  known_weights=state.weights())
    return fits


def live_cells(intensity) -> dict:
    """The cell form of a dense map, for tests that build one densely: rows,
    cols and values of every cell that is not +0.0 (-0.0, NaN and inf stay
    live, as in the map writers), in row-major order."""
    z = np.asarray(intensity, dtype=float)
    rows, cols = np.nonzero((z != 0.0) | np.signbit(z))
    return {"rows": rows, "cols": cols, "values": z[rows, cols]}


def reference_map_csv(map_) -> str:
    """A schema-1 CSV map, every cell of the grid, by a per-cell loop: the
    layout of map files written before schema 2."""
    lines = ["# schema_version=1", "signal_nm,idler_nm,intensity"]
    for i, s in enumerate(map_.signal_nm):
        srep = repr(float(s))
        row = map_.intensity[i]
        for j, val in enumerate(map_.idler_nm):
            lines.append(f"{srep},{repr(float(val))},{repr(float(row[j]))}")
    return "\n".join(lines) + "\n"


def reference_map_json(map_) -> str:
    """A schema-1 JSON map, the dense intensity, by json.dumps."""
    return json.dumps({
        "schema_version": 1,
        "signal_nm": [float(v) for v in map_.signal_nm],
        "idler_nm": [float(v) for v in map_.idler_nm],
        "intensity": [[float(v) for v in row] for row in map_.intensity],
    }, indent=2, sort_keys=True, allow_nan=False) + "\n"


def detunings(state_like) -> np.ndarray:
    pairs = getattr(state_like, "pairs", state_like)
    return np.array([p.detuning_thz for p in pairs])
