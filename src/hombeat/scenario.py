"""Scenario documents: one JSON config drives every CLI command.

A scenario bundles the source model, the first-stage delay, and the scan,
fit and analysis settings. Omitted fields fall back to the defaults below
(the 810 nm / 20 nm source); unknown keys are rejected by name so a typo
never silently runs with defaults.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .density import CROSS_COHERENCE_MODES
from .hom import map_problem
from .lm import MAX_ITERATIONS
from .spectral import BiphotonSpectrumModel

__all__ = [
    "ScenarioError",
    "ScanConfig",
    "FitConfig",
    "AnalysisConfig",
    "Scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "load_scenario",
]


class ScenarioError(ValueError):
    """A scenario document is malformed or out of range."""


_MAX_COUNTS = 10**18  # under numpy's Poisson limit, 9.2e18, with room to round
_MAX_POINTS = np.iinfo(np.intp).max // 8  # the most float64s one array can hold


def _store_int(cfg, name: str, lo: int, hi: float, message: str, step: int = 1) -> None:
    """Check that cfg.<name> is a multiple of step (an int or an integral
    float; nan and inf fail the modulo test) in [lo, hi] and store it as an
    int; else raise ScenarioError."""
    value = getattr(cfg, name)
    if not (isinstance(value, (int, float)) and lo <= value <= hi
            and value % step == 0):
        raise ScenarioError(message)
    object.__setattr__(cfg, name, int(value))


def _as_float(value, name: str) -> float:
    """value, an int or a float, as a float; else raise ScenarioError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{name} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise ScenarioError(f"{name} is beyond the float range") from None


@dataclass(frozen=True)
class ScanConfig:
    """Second-stage delay scan settings."""

    tau2_min_ps: float = -0.75
    tau2_max_ps: float = 0.75
    n_points: int = 601
    counts_per_point: int = 1000
    seed: int = 42

    def __post_init__(self):
        for name in ("tau2_min_ps", "tau2_max_ps"):
            object.__setattr__(self, name, _as_float(getattr(self, name),
                                                     f"scan.{name}"))
        if not np.isfinite(self.tau2_max_ps - self.tau2_min_ps):
            raise ScenarioError("scan range must be finite")
        if self.tau2_max_ps <= self.tau2_min_ps:
            raise ScenarioError("scan.tau2_max_ps must exceed scan.tau2_min_ps")
        _store_int(self, "n_points", 3, _MAX_POINTS, "scan.n_points must be "
                   "an integer >= 3 that a numpy array can hold")
        _store_int(self, "counts_per_point", 0, _MAX_COUNTS, "scan.counts_per_point "
                   f"must be an integer in [0, {_MAX_COUNTS:.0e}] (0 means noiseless)")
        _store_int(self, "seed", 0, 2**64 - 1,
                   "scan.seed must be an unsigned 64-bit integer")


@dataclass(frozen=True)
class FitConfig:
    """Fringe-fit settings; m = None fits the m of the source's bins, the
    extracted ones in the pipeline, the predicted ones in a stand-alone fit."""

    m: int | None = None
    max_iterations: int = MAX_ITERATIONS

    def __post_init__(self):
        if self.m is not None:
            _store_int(self, "m", 2, np.inf,
                       "fit.m must be a positive even integer or null", step=2)
        _store_int(self, "max_iterations", 1, np.inf,
                   "fit.max_iterations must be a positive integer")


@dataclass(frozen=True)
class AnalysisConfig:
    """Entanglement-analysis settings."""

    mode: str = "assumed-average"

    def __post_init__(self):
        if self.mode not in CROSS_COHERENCE_MODES:
            allowed = " | ".join(CROSS_COHERENCE_MODES)
            raise ScenarioError(f"analysis.mode must be one of: {allowed}")


@dataclass(frozen=True)
class Scenario:
    """Complete run configuration."""

    model: BiphotonSpectrumModel = BiphotonSpectrumModel()
    tau1_ps: float = 0.12
    scan: ScanConfig = ScanConfig()
    fit: FitConfig = FitConfig()
    analysis: AnalysisConfig = AnalysisConfig()

    def __post_init__(self):
        object.__setattr__(self, "tau1_ps", _as_float(self.tau1_ps, "tau1_ps"))
        if not np.isfinite(self.tau1_ps):
            raise ScenarioError("tau1_ps must be finite")
        if self.tau1_ps == 0:
            raise ScenarioError("no discrete structure at zero delay; "
                                "tau1_ps must be positive")
        if self.tau1_ps < 0:
            raise ScenarioError("tau1_ps must be positive")
        if self.fit.m is not None and self.scan.n_points < 2 * self.fit.m + 2:
            raise ScenarioError(f"fit.m = {self.fit.m} needs scan.n_points >= "
                                f"{2 * self.fit.m + 2}")

    def require_map(self) -> None:
        """Raise ScenarioError if no 2D map of the model can be built."""
        if problem := map_problem(self.model):
            raise ScenarioError(problem)


_SECTIONS = {
    "model": BiphotonSpectrumModel,
    "scan": ScanConfig,
    "fit": FitConfig,
    "analysis": AnalysisConfig,
}


def _build_section(name: str, cls, data) -> object:
    if not isinstance(data, dict):
        raise ScenarioError(f"section '{name}' must be an object")
    known = {f.name for f in fields(cls)}
    for key in data:
        if key not in known:
            raise ScenarioError(f"unknown key '{key}' in section '{name}'")
    try:
        return cls(**data)
    except ScenarioError:
        raise
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid section '{name}': {exc}") from exc


def scenario_from_dict(data: dict) -> Scenario:
    """Build a validated Scenario from a parsed JSON document."""
    if not isinstance(data, dict):
        raise ScenarioError("scenario document must be a JSON object")
    known = set(_SECTIONS) | {"tau1_ps"}
    for key in data:
        if key not in known:
            raise ScenarioError(f"unknown key '{key}' in scenario")
    parts = {name: _build_section(name, cls, data.get(name, {}))
             for name, cls in _SECTIONS.items()}
    return Scenario(tau1_ps=data.get("tau1_ps", Scenario.tau1_ps), **parts)


def scenario_to_dict(scenario: Scenario) -> dict:
    """Plain-dict echo of a scenario, JSON-ready."""
    return asdict(scenario)


def load_scenario(path: str) -> Scenario:
    """Read and validate a scenario JSON file."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"scenario file is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    return scenario_from_dict(data)
