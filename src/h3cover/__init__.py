"""3-uniform hypergraph toolkit: codegree arithmetic, covering checks,
extremal constructions, and exact tiny-n threshold search."""

# the package's public names are its modules' __all__ lists
from .core import *
from .patterns import *
from .constructions import *
from .analysis import *

__version__ = "0.1.0"
