"""Weyl-Titchmarsh m-functions, boundary-coupled systems and sectorial
classification for half-line Schrödinger operators.

The package computes the principal m-function m_inf(z) and its rotated
family m_alpha(z) numerically (one backward Riccati sweep for every z
off [0, inf), stacked over many z in one batch), builds the two-parameter family of boundary-coupled
systems with impedance and transfer functions, verifies Herglotz/Stieltjes
positivity and the beta-kernel PSD property on grids, classifies functions
by their boundary limits, and compares the sharp boundary-form inequality
on [1, inf).
Bessel potentials with half-integer nu (the free one is nu = 1/2) have m in
closed form, the oracle of the numeric path; nu = 3/2 on [1, inf) is the example.

Each module's ``__all__`` is its public API; the package republishes them all.
"""

from . import errors, potentials, mfunc, lsystem, sectorial, forms, reporting
from .errors import *
from .potentials import *
from .mfunc import *
from .lsystem import *
from .sectorial import *
from .forms import *
from .reporting import *

__version__ = "0.1.0"

__all__ = [name for module in (errors, potentials, mfunc, lsystem, sectorial, forms, reporting)
           for name in module.__all__]
