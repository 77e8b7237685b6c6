"""Correlation-estimator toolkit.

Pearson, Spearman, and Kendall estimation with tie-aware ranking, the
exact finite-sample theory of the Pearson coefficient under bivariate
normality, deterministic seeded simulation of normal and copula-coupled
non-normal populations, outlier-influence maps, finite-population
resampling studies, and eigenvalue-stability analysis of resampled
correlation matrices.  The ``corrlab`` command line produces all study
artifacts as deterministic CSV/JSON files.

Each library module's ``__all__`` declares its public names; the package
exports exactly those, so a name is made public in one place.
"""

from . import errors, estimators, exact, randgen, simulate, influence, resample, eigen
from .errors import *
from .estimators import *
from .exact import *
from .randgen import *
from .simulate import *
from .influence import *
from .resample import *
from .eigen import *

__version__ = "0.1.0"

__all__ = [name for module in (errors, estimators, exact, randgen, simulate, influence,
                               resample, eigen)
           for name in module.__all__] + ["__version__"]
