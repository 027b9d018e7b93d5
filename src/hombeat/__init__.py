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

Each stage module's ``__all__`` declares its public names, and the package
re-exports them all. :mod:`~hombeat.reference`, :mod:`~hombeat.io` and
:mod:`~hombeat.cli` are imported by module name.
"""

__version__ = "0.1.0"

from . import bins, density, fringes, hom, lm, scenario, spectral, units
from .bins import *
from .density import *
from .fringes import *
from .hom import *
from .lm import *
from .scenario import *
from .spectral import *
from .units import *

__all__ = [name for module in (units, spectral, hom, bins, fringes, lm, density,
                               scenario)
           for name in module.__all__]
