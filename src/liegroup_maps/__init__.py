"""Closed-form exponential and Cayley coordinate maps on the rotation and
rigid-motion groups, their trivialized differentials, inverses and
directional derivatives, plus Lie-group ODE integrators built on them."""

from .core import *
from .scalars import *
from .oracle import *
from .so3 import *
from .se3 import *
from .integrate import *

__version__ = "0.1.0"
