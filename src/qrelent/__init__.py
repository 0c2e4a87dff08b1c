"""Finite-dimensional quantum entropy toolkit.

Von Neumann and quantum relative entropy with rigorous support
handling (the finite/infinite dichotomy is decided by a structural
support test, never by ``log(0)`` arithmetic), orthogonal state
decompositions and their exact mixing identities, Lüders/pinching
maps, seeded random state generation, and a randomized verification
engine exposed through the ``qrelent`` CLI.
"""

from . import campaign, entropy, errors, linop, lueders, mixing, stategen
from .errors import *
from .linop import *
from .entropy import *
from .mixing import *
from .lueders import *
from .stategen import *
from .campaign import *

__version__ = "0.1.0"

# Each submodule's ``__all__`` is the one list of its public names.
__all__ = [
    *errors.__all__,
    *linop.__all__,
    *entropy.__all__,
    *mixing.__all__,
    *lueders.__all__,
    *stategen.__all__,
    *campaign.__all__,
    "__version__",
]
