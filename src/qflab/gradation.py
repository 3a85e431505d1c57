"""Lower central series, type vectors and the associated graded algebra.

The series is built from generators.  A nilpotent Lie algebra is generated by
any complement V of [g, g], and then g_{k+1} = [V, g_k] (Goze and
Khakimdjanov, *Nilpotent Lie Algebras*, 1996, ch. 1).  So g_2 is the span of
the table's target vectors, V consists of the unit vectors at the non-pivot
columns of its echelon basis, and each later term takes dim V brackets per
basis vector of g_k instead of n.  The identity rests on the Jacobi
identity, which input need not satisfy, so the candidate is checked.  Each
of its terms lies in the matching g_k by bilinearity alone.  When it ends at
0 and every structure constant c_ab^t of its adapted table has
level(t) > max(level(a), level(b)), it is a central series, so it also
contains each g_k and is the series.
Where the check fails or the candidate stalls above 0 (non-Lie or
non-nilpotent input), the series is built from every bracket [e_i, v]; only
that path finds the dimension at which a non-nilpotent series stabilizes.
Both paths give the same spans in canonical echelon form.

One loop, ``_terms``, runs both paths: from g_1 and the shared g_2 it
brackets the integer rows ``{col: int}`` of the last term with its partners
(the generators, or every unit row) until a term is 0 or stalls.  A bracket
comes out as a nonzero multiple of the rational one, which no span changes.
Each term stays the ``RowSpace`` that built it, and its readers take its
integer rows: the next term, the flag of the adapted basis and the derived
series and centralizers of the fingerprint.  ``Fraction`` rows are built
only where values are needed: the adapted basis handed to
``change_of_basis``.  An adapted basis made of
unit rows only permutes the given one; its table is the stored one
relabelled, so neither an inverse nor a ``Fraction`` is computed for it.
The zero algebra's series is g_1 = 0 alone, with nilindex 0.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Mapping

from qflab.exact import QflabError, RowSpace, _pivot_one
from qflab.liealg import Algebra, _int_bracket, change_of_basis


class NonNilpotentError(QflabError):
    def __init__(self, stabilized_dim: int):
        super().__init__(f"lower central series stabilizes at dimension {stabilized_dim}")
        self.stabilized_dim = stabilized_dim


@dataclass(frozen=True)
class Filtration:
    """The terms g_1 >= g_2 >= ... >= g_{m+1} = 0, each kept as the
    ``RowSpace`` that built it; read only."""

    spaces: tuple[RowSpace, ...]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(space.dim for space in self.spaces)

    @property
    def nilindex(self) -> int:
        return len(self.spaces) - 1

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


def bracket_span(algebra: Algebra, pairs: Iterable[tuple[Mapping[int, int], Mapping[int, int]]]) -> RowSpace:
    """Span of the brackets [u, v] of a concrete algebra over the given pairs
    of integer rows ({col: int})."""
    _, ad = algebra.scaled_ad
    span = RowSpace(algebra.dim)
    for u, v in pairs:
        w = _int_bracket(ad, u, v)
        if w:
            span.add(w)
    return span


def lower_central_series(algebra: Algebra) -> Filtration:
    """Exact bases of the series g_{k+1} = [g, g_k]; fails on non-nilpotent input.

    Built from the generators and checked, as the module docstring says.
    Memoised per concrete algebra together with ``series_adapted``, so
    ``type_of``, ``gr`` and ``derivation_dim`` of one algebra read one series.
    """
    return _series(algebra.concrete())[0]


# The calls that share one algebra's series (its type, gr and dim Der) come
# close together, so a small memo serves them; a larger one only holds memory.
@functools.lru_cache(maxsize=16)
def _series(concrete: Algebra) -> tuple[Filtration, Algebra, tuple[int, ...]]:
    n = concrete.dim
    if not n:
        return Filtration((RowSpace(0),)), concrete, ()
    _, ad = concrete.scaled_ad
    g2 = RowSpace(n)
    for i, row in enumerate(ad):
        for j, targets in row.items():
            if i < j:
                g2.add(targets)
    spaces = _terms(concrete, g2, [{j: 1} for j in range(n) if j not in g2.pivots])
    if not spaces[-1].dim:
        adapted, levels = _adapted(concrete, spaces)
        if all(levels[t] > max(levels[a], levels[b])
               for a, b, targets in adapted.brackets() for t in targets):
            return Filtration(tuple(spaces)), adapted, levels
    spaces = _terms(concrete, g2, [{j: 1} for j in range(n)])
    if spaces[-1].dim:
        raise NonNilpotentError(spaces[-1].dim)
    return (Filtration(tuple(spaces)), *_adapted(concrete, spaces))


def _terms(concrete: Algebra, g2: RowSpace, partners: list[dict[int, int]]) -> list[RowSpace]:
    """g_1, g_2 and each [partners, g_k] after it, until a term is 0 or stalls."""
    spaces = [RowSpace(concrete.dim, ({j: 1} for j in range(concrete.dim))), g2]
    while 0 < spaces[-1].dim < spaces[-2].dim:
        spaces.append(bracket_span(concrete, ((u, w) for w in spaces[-1].integer_basis()
                                              for u in partners)))
    return spaces


def type_of(algebra: Algebra) -> TypeInfo:
    """Type vector {p_1,...,p_m} plus the filiform/quasi-filiform predicates.

    For quasi-filiform input the returned r-index is 1 when p_1 = 3 and
    otherwise the position r >= 2 of the second jump of size 2.
    """
    return lower_central_series(algebra).type_info()


def series_adapted(algebra: Algebra) -> tuple[Algebra, tuple[int, ...]]:
    """The full table in a basis adapted to the lower central series, and its levels.

    The basis extends the echelonized basis of g_{i+1} to g_i (deepest level
    first, lowest pivot first) and lists it by level; basis vector t lies in
    g_{levels[t]}.  Memoised per concrete algebra with its series.  When that
    basis is the given one, the algebra itself is returned; when it permutes
    the given one, the stored table is relabelled.
    """
    return _series(algebra.concrete())[1:]


def _adapted(concrete: Algebra, spaces: list[RowSpace]) -> tuple[Algebra, tuple[int, ...]]:
    n = concrete.dim
    flag = RowSpace(n)
    chosen: list[tuple[dict[int, int], int]] = []
    for level in range(len(spaces) - 1, 0, -1):
        for row in spaces[level - 1].integer_basis():
            if flag.add(row):
                chosen.append((row, level))
    chosen.sort(key=lambda entry: entry[1])  # stable: keeps pivot order within a level
    levels = tuple(level for _, level in chosen)
    if all(len(row) == 1 for row, _ in chosen):
        perm = [min(row) for row, _ in chosen]
        return (concrete if perm == list(range(n)) else _relabel(concrete, perm)), levels
    # each chosen row is a row of its term's echelon form, so scaled to 1 at
    # its pivot it is the matching row of that term's basis()
    return change_of_basis(concrete, [_pivot_one(row, n) for row, _ in chosen]), levels


def _relabel(concrete: Algebra, perm: list[int]) -> Algebra:
    """The table in the basis Y_t = X_{perm[t]}: each constant moves to its
    relabelled pair and target, and changes sign where the pair swaps order."""
    position = {x: t for t, x in enumerate(perm)}
    table = {}
    for i, j, targets in concrete.brackets():
        a, b = position[i], position[j]
        if a > b:
            a, b, targets = b, a, {k: -c for k, c in targets.items()}
        table[(a, b)] = {position[k]: c for k, c in targets.items()}
    return Algebra(concrete.dim, table)


def gr(algebra: Algebra) -> GradedAlgebra:
    """Associated graded algebra of the lower central series.

    The leading-degree truncation of ``series_adapted``: the bracket of basis
    vectors of levels i and j keeps only its component of level i + j.
    """
    adapted, weights = series_adapted(algebra)
    table = {}
    for a, b, targets in adapted.brackets():
        target = weights[a] + weights[b]
        if any(weights[t] < target for t in targets):
            raise QflabError("bracket left the filtration; input is inconsistent")
        entry = {t: c for t, c in targets.items() if weights[t] == target}
        if entry:
            table[(a, b)] = entry
    return GradedAlgebra(Algebra(adapted.dim, table), weights)
