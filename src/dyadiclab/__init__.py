"""Random hierarchical lattices and cube systems on finite doubling metric spaces.

The package builds nested random grids on a validated finite metric space,
links them into a random parent forest whose cubes tile the space, and
provides exhaustive and Monte Carlo verification of the covering, separation,
coloring-probability, and good/bad-cube properties of that construction,
plus weight/measure characteristics used alongside it.

The package exports each module's ``__all__``, and nothing else but
``__version__``: a module's ``__all__`` is the one list of its public names.
"""

from .errors import *  # noqa: F401,F403
from .metric import *  # noqa: F401,F403
from .grids import *  # noqa: F401,F403
from .lattice import *  # noqa: F401,F403
from .coloring import *  # noqa: F401,F403
from .goodness import *  # noqa: F401,F403
from .measures import *  # noqa: F401,F403
from .mc import *  # noqa: F401,F403

__version__ = "0.1.0"
