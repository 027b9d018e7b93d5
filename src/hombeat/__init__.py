"""Two-photon interference simulator and analysis chain for
frequency-entangled pairs.

The package covers the full chain: joint-spectrum simulation
(:mod:`~hombeat.spectral`), interferometer output probabilities and delay
scans (:mod:`~hombeat.hom`), discretization of the anti-bunched spectrum
into frequency-bin pairs (:mod:`~hombeat.bins`), beating-fringe modelling
and least-squares recovery (:mod:`~hombeat.fringes`, :mod:`~hombeat.lm`),
and density-matrix construction with an entanglement-of-formation bound
(:mod:`~hombeat.density`). :mod:`~hombeat.cli` wires the stages into a
command-line pipeline with deterministic file outputs.
"""

from .bins import (
    DiscreteState,
    ExtractionError,
    ExtractionResult,
    FrequencyBinPair,
    GAUSSIAN_TIME_BANDWIDTH,
    coherence_time,
    coherence_time_from_delay,
    detuning_profile,
    extract_bins_from_map,
    predict_bins,
)
from .density import (
    CROSS_COHERENCE_MODES,
    EntanglementReport,
    EofComparison,
    RestrictedDensityMatrix,
    build_restricted_dm,
    eof_lower_bound,
    eof_reference_comparison,
)
from .fringes import (
    FitResult,
    FringeModelParams,
    FringePairParams,
    FringeScan,
    fit_fringe_scan,
    fringe_model_eval,
    seed_guess,
    synth_scan,
)
from .hom import (
    bunching_probability,
    coincidence_probability,
    coincidence_spectrum,
    fringe_probability,
    fringe_scan,
)
from .lm import LMResult, levenberg_marquardt
from .reference import fringe_params_from_reference
from .scenario import (
    AnalysisConfig,
    FitConfig,
    ScanConfig,
    Scenario,
    ScenarioError,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from .spectral import BiphotonSpectrumModel, JointSpectrumMap
from .units import (
    C_NM_PER_PS,
    FWHM_PER_SIGMA,
    frequency_to_wavelength,
    wavelength_to_frequency,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "BiphotonSpectrumModel",
    "C_NM_PER_PS",
    "CROSS_COHERENCE_MODES",
    "DiscreteState",
    "EntanglementReport",
    "EofComparison",
    "ExtractionError",
    "ExtractionResult",
    "FWHM_PER_SIGMA",
    "FitConfig",
    "FitResult",
    "FrequencyBinPair",
    "FringeModelParams",
    "FringePairParams",
    "FringeScan",
    "GAUSSIAN_TIME_BANDWIDTH",
    "JointSpectrumMap",
    "LMResult",
    "RestrictedDensityMatrix",
    "ScanConfig",
    "Scenario",
    "ScenarioError",
    "build_restricted_dm",
    "bunching_probability",
    "coherence_time",
    "coherence_time_from_delay",
    "coincidence_probability",
    "coincidence_spectrum",
    "detuning_profile",
    "eof_lower_bound",
    "eof_reference_comparison",
    "extract_bins_from_map",
    "fit_fringe_scan",
    "frequency_to_wavelength",
    "fringe_model_eval",
    "fringe_params_from_reference",
    "fringe_probability",
    "fringe_scan",
    "levenberg_marquardt",
    "load_scenario",
    "predict_bins",
    "scenario_from_dict",
    "scenario_to_dict",
    "seed_guess",
    "synth_scan",
    "wavelength_to_frequency",
]
