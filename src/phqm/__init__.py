"""phqm-kit: numerical pseudo-Hermitian quantum mechanics.

Dense non-Hermitian spectral tools, metric-operator construction by
spectral, perturbative and Lie-algebraic routes, equivalent Hermitian
representations, projective state-space geometry with time-optimal
evolutions, complex classical flows, and 1D dielectric wave propagation.
"""

from . import biortho, classical, em, errors, linalg, metric, models, perturbation, statespace

__version__ = "0.1.0"
