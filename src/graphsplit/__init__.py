"""Graph splitting operators for intersections of linear subspaces.

Build the fixed-point map of a graph-based splitting method from a graph
pair and one subspace per node; read its one report (`spectral_report`):
whether it is normal or the average of an isometry and the identity, its
fixed subspace, spectrum and subdominant radius; compute exact and
empirical linear convergence rates under relaxation; and replay the worked
examples that separate the well-behaved constructions from the
pathological ones.

The names below are the ones the README and the demos use; everything else
is reached through its module.
"""

from . import experiments, graphs, matlin, splitting, subspaces
from .experiments import converge, theta_sweep, three_lines_example, witness_search
from .graphs import pair, preset
from .splitting import build, dr_rate, predicted_rate, spectral_report
from .subspaces import friedrichs_cosine, from_generators, full, product, random_subspace

__version__ = "0.1.0"

__all__ = [
    "build",
    "converge",
    "dr_rate",
    "experiments",
    "friedrichs_cosine",
    "from_generators",
    "full",
    "graphs",
    "matlin",
    "pair",
    "predicted_rate",
    "preset",
    "product",
    "random_subspace",
    "spectral_report",
    "splitting",
    "subspaces",
    "theta_sweep",
    "three_lines_example",
    "witness_search",
]
