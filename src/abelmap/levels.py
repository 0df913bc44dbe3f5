"""Level expressions of divisors and the nodes they move across.

Grouping the components of a divisor D by coefficient writes D as a sum of
level pieces m * D_m.  For a twister multidegree t the normalized preimage
divisor gives a canonical expression: levels start at 0, the base subcurve
Z_0 (level 0) is nonempty, and the positive levels 0 < m_1 < ... < m_ell
carry disjoint subcurves.  For t = 0 the expression degenerates to the whole
curve at level 0.

The crossing set of D collects the non-loop edges whose endpoints sit at
different levels; these are the nodes where the twisting line bundle
actually jumps.  D is a sum of tails (plus a multiple of X) exactly when
all its crossings are separating nodes, and the first Betti number of the
contraction onto the crossing set measures how many independent twisters
realize the same multidegree.  A multidegree is that of a sum of tails
exactly when its total on every piece (the one pieces labelling that also
serves essential connectivity) is 0, so that test needs no lattice.  The
degree bounds a canonical expression forces on its base subcurve are
checked by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import graph as gr
from .graph import CurveGraph, NodeSet
from .lattice import (
    Divisor,
    LatticeSelfCheckError,
    NotATwisterError,
    _check_vector,
    twister_divisor,
)


@dataclass(frozen=True)
class LevelExpression:
    """Levels of a divisor: ((m, components at level m), ...) ascending.

    The subcurves are disjoint, nonempty, and cover the curve.  For
    canonical expressions the lowest level is 0.
    """

    levels: tuple  # tuple[tuple[int, frozenset[int]], ...]

    def __post_init__(self) -> None:
        ms = [m for m, _ in self.levels]
        if ms != sorted(set(ms)):
            raise ValueError("levels must be strictly ascending")
        if any(not zs for _, zs in self.levels):
            raise ValueError("empty level")

    @property
    def is_canonical(self) -> bool:
        return self.levels[0][0] == 0

    @property
    def is_degenerate(self) -> bool:
        """Single level 0 covering the whole curve (the t = 0 case)."""
        return self.is_canonical and len(self.levels) == 1

    def as_divisor(self, gamma: int) -> Divisor:
        out = [0] * gamma
        for m, zs in self.levels:
            for i in zs:
                out[i] = m
        return tuple(out)


def _canonical_divisor(g: CurveGraph, t: Iterable[int]) -> Divisor:
    # the normalized divisor of t; NotATwisterError outside the lattice
    tv = _check_vector(g, t, "multidegree")
    dv = twister_divisor(g, tv)
    if dv is None:
        raise NotATwisterError(g, tv)
    return dv


def level_expression(g: CurveGraph, d: Iterable[int]) -> LevelExpression:
    """Group components by coefficient, lowest level first."""
    dv = _check_vector(g, d, "divisor")
    by_level: dict[int, set[int]] = {}
    for i, x in enumerate(dv):
        by_level.setdefault(x, set()).add(i)
    return LevelExpression(
        levels=tuple((m, frozenset(by_level[m])) for m in sorted(by_level))
    )


def multidegree_levels(g: CurveGraph, t: Iterable[int]) -> LevelExpression:
    """Canonical level expression of a twister multidegree.

    Built from the normalized preimage divisor, so the base level is 0 and
    Z_0 is nonempty.  t = 0 yields the degenerate expression (whole curve
    at level 0).  Raises NotATwisterError when t is outside the lattice.
    """
    dv = _canonical_divisor(g, t)
    le = level_expression(g, dv)
    if not le.is_canonical:
        raise LatticeSelfCheckError(f"level expression of {dv} is not canonical")
    return le


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
    return crossing_nodes(g, _canonical_divisor(g, t))


def is_sum_of_tails(g: CurveGraph, d: Iterable[int]) -> bool:
    """True when D is an integer combination of tails plus a multiple of X.

    Equivalent to: every crossing node of D is separating.
    """
    return crossing_nodes(g, d) <= g.bridges


def is_sum_of_tails_multidegree(g: CurveGraph, t: Iterable[int]) -> bool:
    """True when t is the multidegree of a sum of tails: its total on every
    piece (CurveGraph.pieces) is 0.

    The tail cut off at a separating node (a, b) on the side of a has
    multidegree e_b - e_a.  The separating nodes of a piece form a spanning
    tree of it, so these vectors span exactly the vectors whose total on
    every piece is 0: a subgroup of the twister lattice.  A t outside the
    lattice is simply not one (returns False, no error).
    """
    tv = _check_vector(g, t, "multidegree")
    totals = dict.fromkeys(g.pieces, 0)
    for p, x in zip(g.pieces, tv):
        totals[p] += x
    return not any(totals.values())


def twister_space_dim(g: CurveGraph, t: Iterable[int]) -> int:
    """Dimension of the family of twisters realizing the multidegree t.

    Equals the first Betti number of the contraction onto the crossing set
    of the canonical divisor; zero exactly when t is a sum-of-tails
    multidegree.  Raises NotATwisterError outside the lattice.
    """
    return gr.betti(g, crossing_nodes_of_multidegree(g, t))
