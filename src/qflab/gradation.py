"""Lower central series, type vectors and the associated graded algebra."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from qflab.exact import QflabError, RowSpace, identity_matrix, invert_matrix, vec_mat
from qflab.liealg import Algebra, rational_bracket


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
    """Exact bases of the series g_{k+1} = [g, g_k]; fails on non-nilpotent input."""
    concrete = algebra.concrete(assignment)
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


def gr(algebra: Algebra, assignment: Mapping[str, Fraction] | None = None) -> GradedAlgebra:
    """Associated graded algebra of the lower central series.

    The homogeneous basis extends the echelonized basis of g_{i+1} to g_i
    (deepest level first, lowest pivot first), and the induced bracket keeps
    only the component of homogeneous degree weight(i) + weight(j).
    """
    concrete = algebra.concrete(assignment)
    filtration = lower_central_series(concrete)
    n = concrete.dim
    flag = RowSpace(n)
    chosen: list[tuple[list[Fraction], int]] = []
    for level in range(len(filtration.ideals) - 1, 0, -1):
        for row in filtration.ideals[level - 1]:
            if flag.add(row):
                chosen.append(([Fraction(x) for x in row], level))
    chosen.sort(key=lambda pair: pair[1])  # stable: keeps pivot order within a level
    basis = [vec for vec, _ in chosen]
    weights = tuple(level for _, level in chosen)
    inverse = invert_matrix(basis)
    new_table = {}
    for a in range(n):
        for b in range(a + 1, n):
            v = rational_bracket(concrete, basis[a], basis[b])
            coords = vec_mat(v, inverse)
            target = weights[a] + weights[b]
            entry = {}
            for t in range(n):
                if coords[t] == 0:
                    continue
                if weights[t] < target:
                    raise QflabError("bracket left the filtration; input is inconsistent")
                if weights[t] == target:
                    entry[t] = coords[t]
            if entry:
                new_table[(a, b)] = entry
    return GradedAlgebra(Algebra(n, new_table), weights)
