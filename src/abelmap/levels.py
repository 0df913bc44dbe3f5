"""Level expressions of twister multidegrees and the nodes they move across.

The level expression of a twister multidegree t is read off its canonical
divisor, lattice.twister_divisor(g, t): level m is the set of components
with coefficient m.  Levels start at 0, the base subcurve Z_0 (level 0) is
nonempty, and the positive levels 0 < m_1 < ... < m_ell carry disjoint
subcurves; for t = 0 the whole curve sits at level 0.  A t outside the
lattice raises NotATwisterError.

The crossing set of D collects the non-loop edges whose endpoints sit at
different levels; these are the nodes where the twisting line bundle
actually jumps.  D is a sum of tails (plus a multiple of X) exactly when
all its crossings are separating nodes, and the first Betti number of the
contraction onto the crossing set measures how many independent twisters
realize the same multidegree.  t is a sum-of-tails multidegree exactly
when pi(t) = lattice.piece_totals(g, t) = 0, with no lattice.  The degree
bounds a level expression forces on its base subcurve are checked by the
test suite.
"""

from __future__ import annotations

from typing import Iterable

from . import graph as gr
from .graph import CurveGraph, NodeSet
from .lattice import _check_vector, piece_totals, twister_divisor


def crossing_nodes(g: CurveGraph, d: Iterable[int]) -> NodeSet:
    """Non-loop edges whose endpoints carry different coefficients of D.

    Loops never appear: both branches sit on one component.  Subadditive
    under divisor addition, and invariant under adding multiples of X.
    """
    dv = _check_vector(g, d, "divisor")
    return frozenset(
        e for e, (a, b) in enumerate(g.edges) if a != b and dv[a] != dv[b]
    )


def crossing_nodes_of_multidegree(g: CurveGraph, t: Iterable[int]) -> NodeSet:
    """Crossing set of the canonical divisor of t; empty for t = 0."""
    return crossing_nodes(g, twister_divisor(g, t))


def is_sum_of_tails(g: CurveGraph, d: Iterable[int]) -> bool:
    """True when D is an integer combination of tails plus a multiple of X.

    Equivalent to: every crossing node of D is separating.
    """
    return crossing_nodes(g, d) <= g.bridges


def is_sum_of_tails_multidegree(g: CurveGraph, t: Iterable[int]) -> bool:
    """True when t is the multidegree of a sum of tails: its total on every
    piece (piece_totals) is 0.

    The tail cut off at a separating node (a, b) on the side of a has
    multidegree e_b - e_a.  The separating nodes of a piece form a spanning
    tree of it, so these vectors span exactly the vectors whose total on
    every piece is 0: a subgroup of the twister lattice.  A t outside the
    lattice is simply not one (returns False, no error).
    """
    return not any(piece_totals(g, t))


def twister_space_dim(g: CurveGraph, t: Iterable[int]) -> int:
    """Dimension of the family of twisters realizing the multidegree t.

    Equals the first Betti number of the contraction onto the crossing set
    of the canonical divisor; zero exactly when t is a sum-of-tails
    multidegree.  Raises NotATwisterError outside the lattice.
    """
    return gr.betti(g, crossing_nodes_of_multidegree(g, t))
