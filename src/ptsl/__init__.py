"""Spectral and dynamical analysis of PT-symmetric tight-binding superlattices.

The package covers the infinite lattice (Bloch bands, reality of the
spectrum, symmetry-breaking thresholds and growth rates), the semi-infinite
lattice (transfer matrices, edge-state detection and classification,
localization lengths) and time-domain propagation on truncated chains, with
a CLI exposing each analysis as a reproducible command.

Each module's ``__all__`` is its public API; the package re-exports the
union of them.
"""

__version__ = "0.1.0"

from . import bloch, dynamics, edge, lattice, numerics, transfer
from .bloch import *  # noqa: F401,F403
from .dynamics import *  # noqa: F401,F403
from .edge import *  # noqa: F401,F403
from .lattice import *  # noqa: F401,F403
from .numerics import *  # noqa: F401,F403
from .transfer import *  # noqa: F401,F403

__all__ = [
    "__version__",
    *bloch.__all__,
    *dynamics.__all__,
    *edge.__all__,
    *lattice.__all__,
    *numerics.__all__,
    *transfer.__all__,
]
