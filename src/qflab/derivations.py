"""Derivation algebras, diagonal derivations and the operational rank.

A derivation is a matrix D (columnwise action: D X_j = sum_a D[a][j] X_a)
satisfying D[x,y] = [Dx,y] + [x,Dy].  That identity is one linear equation
per bracket pair and output coordinate, solved exactly by ``exact.RowSpace``,
the package's one eliminator: ``derivation_space`` reads a kernel basis off
it, ``derivation_dim`` only its rank.  ``dim Der`` does not depend on the
basis, so ``derivation_dim`` solves the system in the basis adapted to the
lower central series (``gradation.series_adapted``), where a nilpotent
algebra given in a dense basis has few structure constants;
``derivation_space`` stays in the given basis.

Diagonal derivations in a fixed basis are the same thing as additive weight
systems: assignments w with w_i + w_j = w_k for every nonzero structure
constant c_{ij}^k.  On the catalog's adapted bases the dimension of that
space realizes the rank (the classification exhibits a maximal torus
diagonally there); for other bases it is only a lower bound for the rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add
from typing import Mapping, Sequence

from qflab import catalog
from qflab.exact import matrix_rank, nullspace
from qflab.gradation import NonNilpotentError, series_adapted
from qflab.liealg import Algebra


def leibniz_rows(algebra: Algebra) -> list[dict[int, Fraction]]:
    """Sparse rows of the Leibniz system over the n^2 unknowns D[a][b] -> a*n+b."""
    n = algebra.dim
    ad = algebra.ad
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            per_b: dict[int, dict[int, Fraction]] = {}

            def bump(b, col, value):
                row = per_b.setdefault(b, {})
                row[col] = row.get(col, Fraction(0)) + value

            for k, c in ad[i].get(j, {}).items():
                for b in range(n):
                    bump(b, b * n + k, c)
            for a in range(n):
                for b, c in ad[a].get(j, {}).items():
                    bump(b, a * n + i, -c)
                for b, c in ad[i].get(a, {}).items():
                    bump(b, a * n + j, -c)
            for row in per_b.values():
                row = {col: v for col, v in row.items() if v != 0}
                if row:
                    rows.append(row)
    return rows


def derivation_space(algebra: Algebra, assignment: Mapping[str, Fraction] | None = None):
    """Exact basis of the derivation algebra as a list of n x n matrices."""
    concrete = algebra.concrete(assignment)
    n = concrete.dim
    if n == 0:
        return [], 0
    rows = leibniz_rows(concrete)
    kernel = nullspace(rows, ncols=n * n)
    matrices = [[[vec[a * n + b] for b in range(n)] for a in range(n)] for vec in kernel]
    return matrices, len(matrices)


def derivation_dim(algebra: Algebra, assignment: Mapping[str, Fraction] | None = None) -> int:
    """dim Der, solved in the series-adapted basis (the given one if not nilpotent)."""
    concrete = algebra.concrete(assignment)
    n = concrete.dim
    if n == 0:
        return 0
    try:
        concrete, _ = series_adapted(concrete)
    except NonNilpotentError:
        pass
    return n * n - matrix_rank(leibniz_rows(concrete), ncols=n * n)


def is_derivation(algebra: Algebra, matrix: Sequence[Sequence[Fraction]],
                  assignment: Mapping[str, Fraction] | None = None) -> bool:
    """Recheck the Leibniz identity on every basis pair."""
    concrete = algebra.concrete(assignment)
    n = concrete.dim
    ad = concrete.ad
    for i in range(n):
        for j in range(i + 1, n):
            lhs = [Fraction(0)] * n
            for k, c in ad[i].get(j, {}).items():
                for a in range(n):
                    lhs[a] += c * matrix[a][k]
            rhs = [Fraction(0)] * n
            for a in range(n):
                if matrix[a][i]:
                    for b, c in ad[a].get(j, {}).items():
                        rhs[b] += matrix[a][i] * c
                if matrix[a][j]:
                    for b, c in ad[i].get(a, {}).items():
                        rhs[b] += matrix[a][j] * c
            if lhs != rhs:
                return False
    return True


def commutator(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]):
    n = len(a)
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            s = Fraction(0)
            for k in range(n):
                s += a[i][k] * b[k][j] - b[i][k] * a[k][j]
            out[i][j] = s
    return out


# ---------------------------------------------------------------------------
# Diagonal derivations / weight systems
# ---------------------------------------------------------------------------


def weight_system_rows(algebra: Algebra) -> list[dict[int, Fraction]]:
    rows = []
    for i, j, targets in algebra.brackets():
        for k in targets:
            row: dict[int, Fraction] = {}
            for col, v in ((i, 1), (j, 1), (k, -1)):
                row[col] = row.get(col, Fraction(0)) + v
            row = {c: v for c, v in row.items() if v != 0}
            if row:
                rows.append(row)
    return rows


def diagonal_derivations(algebra: Algebra, assignment: Mapping[str, Fraction] | None = None):
    """Basis of the additive weight systems of the (specialized) algebra.

    Each returned vector w is a diagonal derivation diag(w_0, ..., w_{n-1})
    in the given basis.
    """
    concrete = algebra.concrete(assignment)
    kernel = nullspace(weight_system_rows(concrete), ncols=concrete.dim)
    return kernel, len(kernel)


def rank_in_basis(algebra: Algebra, assignment: Mapping[str, Fraction] | None = None) -> int:
    """Dimension of the diagonal derivation space in the given basis.

    Equals the rank for catalog algebras generated in their adapted bases;
    for arbitrary bases it is only a lower bound of the true rank.
    """
    _, dim = diagonal_derivations(algebra, assignment)
    return dim


def admits_diagonal(algebra: Algebra, weights: Sequence[Fraction],
                    assignment: Mapping[str, Fraction] | None = None) -> bool:
    """Check that diag(weights) is a derivation of the (specialized) algebra."""
    concrete = algebra.concrete(assignment)
    for i, j, targets in concrete.brackets():
        for k in targets:
            if weights[i] + weights[j] != weights[k]:
                return False
    return True


# ---------------------------------------------------------------------------
# Symbolic audit of the classification's printed diagonals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightAudit:
    spec: catalog.FamilySpec
    misprint: bool
    violations: tuple  # ((i, j, k), delta Poly) entries

    @property
    def ok(self) -> bool:
        return not self.violations

    def lines(self) -> list[str]:
        out = []
        for (i, j, k), delta in self.violations:
            out.append(f"[X{i},X{j}] -> X{k}: w{i} + w{j} - w{k} = {delta}")
        return out


def verify_claimed_weights(spec: catalog.FamilySpec, misprint: bool = False) -> WeightAudit:
    """Check w_i + w_j = w_k symbolically for every nonzero structure constant.

    The check is generic in the alpha parameters: a structure constant that
    is a nonzero polynomial counts as present.  With ``misprint=True`` the
    documented bad variant of the family's table or diagonal is audited
    instead, which is expected to fail.
    """
    symbolic = catalog.FamilySpec(spec.family, spec.n, spec.r, spec.k, spec.l, None)
    fam = catalog.family_def(spec.family)
    table_misprint = misprint and fam.misprinted_table
    weight_misprint = misprint and fam.misprinted_diagonal is not None
    if misprint and not (table_misprint or weight_misprint):
        raise catalog.InvalidParametersError(
            f"{spec.family} has no documented misprint to audit")
    algebra = catalog._symbolic(symbolic, bool(table_misprint))
    weights = catalog.claimed_weights(symbolic, misprint=weight_misprint)
    scaled = _scaled_weights(weights)
    violations = []
    for i, j, targets in algebra.brackets():
        for k in targets:
            if tuple(map(add, scaled[i], scaled[j])) != scaled[k]:
                violations.append(((i, j, k), weights[i] + weights[j] - weights[k]))
    return WeightAudit(symbolic, misprint, tuple(violations))


def _scaled_weights(weights: Sequence) -> list[tuple[int, ...]]:
    """Each weight as integer coordinates over the monomials the weights use,
    all multiplied by one common denominator, so w_i + w_j = w_k holds exactly
    when the integer tuples add up."""
    monomials = sorted({m for w in weights for m, _ in w.terms})
    column = {m: c for c, m in enumerate(monomials)}
    scale = lcm(*(c.denominator for w in weights for _, c in w.terms))
    scaled = []
    for w in weights:
        row = [0] * len(monomials)
        for m, c in w.terms:
            row[column[m]] = c.numerator * (scale // c.denominator)
        scaled.append(tuple(row))
    return scaled
