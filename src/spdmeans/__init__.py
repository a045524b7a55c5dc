"""Means of symmetric positive definite matrices.

Three layers:

- :mod:`spdmeans.kernel`: certified matrix types and the spectral
  functional calculus (powers, log, exp, congruence) on one eigen path.
- :mod:`spdmeans.means`: two-variable weighted geometric mean, perspective
  lift, inductive and variant multivariate geometric means, arithmetic,
  harmonic, and Karcher means.
- :mod:`spdmeans.harness`: seeded generators and randomized property
  checks (monotonicity, concavity, congruence invariance, and friends).

``spdmeans.cli`` exposes the same functionality as the ``spdmeans``
command. The package re-exports ``kernel.__all__``, ``means.__all__`` and
the harness entry points below.
"""

from . import kernel, means
from .kernel import *  # noqa: F403
from .means import *  # noqa: F403
from .harness import (
    CHECK_NAMES,
    CheckReport,
    GenSpec,
    gen_spd,
    gen_tuple,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    *kernel.__all__,
    *means.__all__,
    "CHECK_NAMES",
    "CheckReport",
    "GenSpec",
    "gen_spd",
    "gen_tuple",
    "run_suite",
    "__version__",
]
