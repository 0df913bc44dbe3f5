"""Dual-graph combinatorics of nodal curves.

Decides whether a connected nodal curve, given by its dual graph, carries a
natural d-th Abel map: it does exactly when the curve's essential
connectivity exceeds d.  The supporting machinery (twister lattice, degree
classes, level expressions, crossing nodes, sums of tails) is exposed as a
library, and an enumeration harness re-derives the decision by brute force
on every small graph.
"""

from .graph import CurveGraph, DisconnectedCurveError, betti
from .lattice import (
    LatticeSelfCheckError,
    NotATwisterError,
    class_group_order,
    enumerate_classes,
    equivalent,
    multidegree_class,
    multidegree_of,
    normalize_divisor,
    twister_divisor,
)
from .levels import (
    crossing_nodes,
    crossing_nodes_of_multidegree,
    is_sum_of_tails,
    is_sum_of_tails_multidegree,
    twister_space_dim,
)
from .abel import (
    INFINITY,
    InvalidChooserError,
    choose_representatives,
    cross_check_naturality,
    essential_connectivity,
    has_natural_abel_map,
    is_natural,
    partitional_multidegrees,
)
from .harness import HarnessResult, run_harness

__version__ = "0.1.0"

__all__ = [
    "CurveGraph",
    "DisconnectedCurveError",
    "HarnessResult",
    "INFINITY",
    "InvalidChooserError",
    "LatticeSelfCheckError",
    "NotATwisterError",
    "betti",
    "choose_representatives",
    "class_group_order",
    "cross_check_naturality",
    "crossing_nodes",
    "crossing_nodes_of_multidegree",
    "enumerate_classes",
    "equivalent",
    "essential_connectivity",
    "has_natural_abel_map",
    "is_natural",
    "is_sum_of_tails",
    "is_sum_of_tails_multidegree",
    "multidegree_class",
    "multidegree_of",
    "normalize_divisor",
    "partitional_multidegrees",
    "run_harness",
    "twister_divisor",
    "twister_space_dim",
]
