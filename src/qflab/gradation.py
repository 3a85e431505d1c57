"""Lower central series, type vectors and the associated graded algebra."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from qflab.exact import QflabError, RowSpace, identity_matrix
from qflab.liealg import Algebra, change_of_basis, rational_bracket


class NonNilpotentError(QflabError):
    def __init__(self, stabilized_dim: int):
        super().__init__(f"lower central series stabilizes at dimension {stabilized_dim}")
        self.stabilized_dim = stabilized_dim


@dataclass(frozen=True)
class Filtration:
    """Echelonized bases of g_1 >= g_2 >= ... >= g_{m+1} = 0."""

    ideals: tuple[tuple[tuple[Fraction, ...], ...], ...]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(basis) for basis in self.ideals)

    @property
    def nilindex(self) -> int:
        return len(self.ideals) - 1

    def type_info(self) -> TypeInfo:
        """The type of the algebra this is the series of; see ``type_of``."""
        dims = self.dims
        n = dims[0]
        p = tuple(dims[i] - dims[i + 1] for i in range(len(dims) - 1))
        m = self.nilindex
        r_index = None
        if m == n - 2:
            r_index = 1 if p[0] == 3 else next(i + 1 for i in range(1, len(p)) if p[i] == 2)
        return TypeInfo(TypeVector(p), m, m == n - 1, m == n - 2, r_index)


@dataclass(frozen=True)
class TypeVector:
    p: tuple[int, ...]

    def __str__(self):
        return "{" + ",".join(str(x) for x in self.p) + "}"


@dataclass(frozen=True)
class TypeInfo:
    type_vector: TypeVector
    nilindex: int
    filiform: bool
    quasifiliform: bool
    r_index: int | None  # position of the second jump for quasi-filiform input


@dataclass(frozen=True)
class GradedAlgebra:
    algebra: Algebra
    weights: tuple[int, ...]  # homogeneous degree of each basis vector


def bracket_span(algebra: Algebra, pairs: Iterable[tuple[Sequence, Sequence]]) -> RowSpace:
    """Span of the brackets [u, v] over the given pairs of a concrete algebra."""
    span = RowSpace(algebra.dim)
    for u, v in pairs:
        w = rational_bracket(algebra, u, v)
        if any(w):
            span.add(w)
    return span


def lower_central_series(algebra: Algebra, assignment: Mapping[str, Fraction] | None = None) -> Filtration:
    """Exact bases of the series g_{k+1} = [g, g_k]; fails on non-nilpotent input.

    Memoised per concrete algebra, so ``type_of``, ``gr`` and ``derivation_dim``
    of one algebra read one series.
    """
    return _series(algebra.concrete(assignment))


# The calls that share one algebra's series (its type, gr and dim Der) come
# close together, so a small memo serves them; a larger one only holds memory.
@functools.lru_cache(maxsize=16)
def _series(concrete: Algebra) -> Filtration:
    unit = identity_matrix(concrete.dim)
    ideals = [tuple(tuple(row) for row in unit)]
    while True:
        nxt = bracket_span(concrete, ((e, v) for v in ideals[-1] for e in unit))
        ideals.append(tuple(nxt.basis()))
        if nxt.dim == 0:
            return Filtration(tuple(ideals))
        if nxt.dim == len(ideals[-2]):
            raise NonNilpotentError(nxt.dim)


def type_of(algebra: Algebra, assignment: Mapping[str, Fraction] | None = None) -> TypeInfo:
    """Type vector {p_1,...,p_m} plus the filiform/quasi-filiform predicates.

    For quasi-filiform input the returned r-index is 1 when p_1 = 3 and
    otherwise the position r >= 2 of the second jump of size 2.
    """
    return lower_central_series(algebra, assignment).type_info()


def series_adapted(algebra: Algebra, assignment: Mapping[str, Fraction] | None = None
                   ) -> tuple[Algebra, tuple[int, ...]]:
    """The full table in a basis adapted to the lower central series, and its levels.

    The basis extends the echelonized basis of g_{i+1} to g_i (deepest level
    first, lowest pivot first) and lists it by level; basis vector t lies in
    g_{levels[t]}.  Memoised per concrete algebra.  When that basis is the
    given one, the algebra itself is returned.
    """
    return _adapted(algebra.concrete(assignment))


@functools.lru_cache(maxsize=16)
def _adapted(concrete: Algebra) -> tuple[Algebra, tuple[int, ...]]:
    filtration = lower_central_series(concrete)
    flag = RowSpace(concrete.dim)
    chosen: list[tuple[tuple[Fraction, ...], int]] = []
    for level in range(len(filtration.ideals) - 1, 0, -1):
        for row in filtration.ideals[level - 1]:
            if flag.add(row):
                chosen.append((row, level))
    chosen.sort(key=lambda pair: pair[1])  # stable: keeps pivot order within a level
    basis = [row for row, _ in chosen]
    levels = tuple(level for _, level in chosen)
    if basis == [tuple(row) for row in identity_matrix(concrete.dim)]:
        return concrete, levels
    return change_of_basis(concrete, basis), levels


def gr(algebra: Algebra, assignment: Mapping[str, Fraction] | None = None) -> GradedAlgebra:
    """Associated graded algebra of the lower central series.

    The leading-degree truncation of ``series_adapted``: the bracket of basis
    vectors of levels i and j keeps only its component of level i + j.
    """
    adapted, weights = series_adapted(algebra, assignment)
    table = {}
    for a, b, targets in adapted.brackets():
        target = weights[a] + weights[b]
        if any(weights[t] < target for t in targets):
            raise QflabError("bracket left the filtration; input is inconsistent")
        entry = {t: c for t, c in targets.items() if weights[t] == target}
        if entry:
            table[(a, b)] = entry
    return GradedAlgebra(Algebra(adapted.dim, table), weights)
