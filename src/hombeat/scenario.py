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


@dataclass(frozen=True)
class ScanConfig:
    """Second-stage delay scan settings."""

    tau2_min_ps: float = -0.75
    tau2_max_ps: float = 0.75
    n_points: int = 601
    counts_per_point: int = 1000
    seed: int = 42

    def __post_init__(self):
        if not (np.isfinite(self.tau2_min_ps) and np.isfinite(self.tau2_max_ps)):
            raise ScenarioError("scan range must be finite")
        if self.tau2_max_ps <= self.tau2_min_ps:
            raise ScenarioError("scan.tau2_max_ps must exceed scan.tau2_min_ps")
        if int(self.n_points) != self.n_points or self.n_points < 3:
            raise ScenarioError("scan.n_points must be an integer >= 3")
        if int(self.counts_per_point) != self.counts_per_point \
                or self.counts_per_point < 0:
            raise ScenarioError("scan.counts_per_point must be an integer >= 0 "
                                "(0 means noiseless)")
        if int(self.seed) != self.seed or not 0 <= self.seed < 2 ** 64:
            raise ScenarioError("scan.seed must be an unsigned 64-bit integer")


@dataclass(frozen=True)
class FitConfig:
    """Fringe-fit settings; m = None auto-detects the bin count."""

    m: int | None = None
    max_iterations: int = MAX_ITERATIONS

    def __post_init__(self):
        if self.m is not None and (int(self.m) != self.m or self.m < 2 or self.m % 2):
            raise ScenarioError("fit.m must be a positive even integer or null")
        if int(self.max_iterations) != self.max_iterations or self.max_iterations < 1:
            raise ScenarioError("fit.max_iterations must be a positive integer")


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
        if not np.isfinite(self.tau1_ps):
            raise ScenarioError("tau1_ps must be finite")
        if self.tau1_ps == 0:
            raise ScenarioError("no discrete structure at zero delay; "
                                "tau1_ps must be positive")
        if self.tau1_ps < 0:
            raise ScenarioError("tau1_ps must be positive")


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
    tau1 = data.get("tau1_ps", Scenario.tau1_ps)
    if not isinstance(tau1, (int, float)) or isinstance(tau1, bool):
        raise ScenarioError("tau1_ps must be a number")
    return Scenario(tau1_ps=float(tau1), **parts)


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
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    return scenario_from_dict(data)
