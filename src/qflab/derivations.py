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

In that basis ``derivation_dim`` also drops the unknowns that are 0 on every
derivation: D[a][b] with levels[a] < levels[b].  The series is
characteristic, D g_k ⊆ g_k, by induction on k: for x in g and y in g_k,
D[x, y] = [Dx, y] + [x, Dy] lies in [g, g_k] = g_{k+1}.  The proof uses the
Leibniz rule and the definition of the series only, not the Jacobi identity,
so it holds for every table whose series ``gradation`` returns.  As basis
vector b lies in g_{levels[b]}, so does D e_b, and dim Der is the number of
the other unknowns less the rank of their system.  A non-nilpotent table has
no adapted basis and keeps all n^2 unknowns.

Diagonal derivations in a fixed basis are the same thing as additive weight
systems: assignments w with w_i + w_j = w_k for every nonzero structure
constant c_{ij}^k.  In every basis the dimension of that space is a lower
bound for the rank, also on the catalog's own bases: ``Cn`` has one diagonal
derivation in its basis, yet ``isomorphy.cn_to_qn_transform`` carries it onto
``Qn``, of rank 2.  It equals the rank only where the certificate of
``_check_rank`` holds (the diagonal space is a maximal torus).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import lcm
from operator import add
from typing import Sequence

from qflab import catalog
from qflab.exact import matrix_rank, nullspace
from qflab.gradation import NonNilpotentError, series_adapted
from qflab.liealg import Algebra


def leibniz_rows(algebra: Algebra, levels: Sequence[int] | None = None) -> list[dict[int, int]]:
    """Sparse rows of the Leibniz system, the unknown D[a][b] in column a*n+b.

    Given the ``levels`` of a basis adapted to the lower central series (basis
    vector t in g_{levels[t]}, as ``series_adapted`` returns them), only the
    unknowns with levels[a] >= levels[b] get a column: the others are 0 on
    every derivation (see the module docstring).  Without them every unknown
    gets one.  The rows read ``scaled_ad``, so they are the system times the
    common denominator of the constants; the system is homogeneous, so its
    kernel and rank are the same.
    """
    n = algebra.dim
    _, ad = algebra.scaled_ad
    # above[b]: the rows a whose unknown D[a][b] has a column
    above = ([range(n)] * n if levels is None else
             [[a for a in range(n) if levels[a] >= levels[b]] for b in range(n)])
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            per_b: dict[int, dict[int, int]] = {}

            def bump(b, col, value):
                row = per_b.setdefault(b, {})
                row[col] = row.get(col, 0) + value

            for k, c in ad[i].get(j, {}).items():
                for b in above[k]:
                    bump(b, b * n + k, c)
            for a in above[i]:
                for b, c in ad[a].get(j, {}).items():
                    bump(b, a * n + i, -c)
            for a in above[j]:
                for b, c in ad[i].get(a, {}).items():
                    bump(b, a * n + j, -c)
            for row in per_b.values():
                row = {col: v for col, v in row.items() if v != 0}
                if row:
                    rows.append(row)
    return rows


def derivation_space(algebra: Algebra):
    """Exact basis of the derivation algebra as a list of n x n matrices."""
    concrete = algebra.concrete()
    n = concrete.dim
    kernel = nullspace(leibniz_rows(concrete), ncols=n * n)
    matrices = [[[vec[a * n + b] for b in range(n)] for a in range(n)] for vec in kernel]
    return matrices, len(matrices)


def derivation_dim(algebra: Algebra) -> int:
    """dim Der: the unknowns that keep the lower central series, less the rank
    of their Leibniz system in the series-adapted basis; all n^2 unknowns in
    the given basis if the algebra is not nilpotent."""
    concrete = algebra.concrete()
    n = concrete.dim
    try:
        adapted, levels = series_adapted(concrete)
    except NonNilpotentError:
        return n * n - matrix_rank(leibniz_rows(concrete), ncols=n * n)
    unknowns = sum(levels[a] >= levels[b] for a in range(n) for b in range(n))
    return unknowns - matrix_rank(leibniz_rows(adapted, levels), ncols=n * n)


# ---------------------------------------------------------------------------
# Diagonal derivations / weight systems
# ---------------------------------------------------------------------------


def weight_system_rows(algebra: Algebra) -> list[dict[int, int]]:
    """One integer row w_i + w_j - w_k per nonzero constant c_ij^k (i < j)."""
    rows = []
    for i, j, targets in algebra.brackets():
        for k in targets:
            row = {i: 1, j: 1}
            row[k] = row.get(k, 0) - 1
            rows.append({col: v for col, v in row.items() if v})
    return rows


def diagonal_derivations(algebra: Algebra):
    """Basis of the additive weight systems of a concrete algebra.

    Each returned vector w is a diagonal derivation diag(w_0, ..., w_{n-1})
    in the given basis.
    """
    concrete = algebra.concrete()
    kernel = nullspace(weight_system_rows(concrete), ncols=concrete.dim)
    return kernel, len(kernel)


def rank_in_basis(algebra: Algebra) -> int:
    """Dimension of the diagonal derivation space in the given basis.

    A lower bound of the rank in every basis, the catalog's included; it is
    certified equal to the rank only where ``_check_rank``'s certificate holds.
    Counted as n less the rank of the weight system, with no kernel built.
    """
    concrete = algebra.concrete()
    return concrete.dim - matrix_rank(weight_system_rows(concrete), ncols=concrete.dim)


# ---------------------------------------------------------------------------
# Symbolic audit of the printed diagonals, and the discrepancy registry's checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightAudit:
    violations: tuple  # ((i, j, k), delta Poly) entries

    @property
    def ok(self) -> bool:
        return not self.violations

    def lines(self) -> list[str]:
        out = []
        for (i, j, k), delta in self.violations:
            out.append(f"[X{i},X{j}] -> X{k}: w{i} + w{j} - w{k} = {delta}")
        return out


def verify_claimed_weights(spec: catalog.FamilySpec) -> WeightAudit:
    """Check w_i + w_j = w_k symbolically for every nonzero structure constant.

    The check is generic in the alpha parameters: a structure constant that
    is a nonzero polynomial counts as present.  A misprint tuple audits the
    table and diagonal as the source prints them.  The stored table is walked
    once, read only; the violations come in the order of ``brackets()``.
    """
    symbolic = replace(spec, alphas=None)
    algebra = catalog.generate(symbolic)
    weights = catalog.claimed_weights(symbolic)
    scaled = _scaled_weights(weights)
    violations = []
    for (i, j), targets in algebra._table.items():
        for k in targets:
            if tuple(map(add, scaled[i], scaled[j])) != scaled[k]:
                violations.append(((i, j, k), weights[i] + weights[j] - weights[k]))
    violations.sort(key=lambda v: v[0][:2])  # stable: targets keep their order
    return WeightAudit(tuple(violations))


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


def _constants(spec: catalog.FamilySpec) -> list[str]:
    """['1'] when no alpha makes the tuple's table a Lie algebra, else []."""
    return [str(g) for g in catalog.extract_constraints(spec).generators if g.is_constant()]


def _check_misprint(entry, spec):
    # either check may catch the printed variant; the weight audit misses Gnrk's
    printed = replace(spec, misprint=True)
    audit, constants = verify_claimed_weights(printed), _constants(printed)
    corrected = verify_claimed_weights(spec).ok and not _constants(spec)
    return (f"{spec}: printed {len(audit.violations)} violated brackets, constant Jacobi "
            f"generators {constants}; corrected {'OK' if corrected else 'FAIL'}",
            (not audit.ok or bool(constants)) and corrected)


def _check_sound(entry, spec):
    sound, constants = catalog.family_def(spec.family).sound(spec), _constants(spec)
    return (f"{spec}: {'sound' if sound else 'unsound'}, constant Jacobi generators {constants}",
            sound != bool(constants))


# rank_in_basis is a lower bound of the rank.  If it is the proved rank and no two basis
# vectors share a weight on every generator, the diagonal space is its own centralizer
# in Der, a maximal torus, so (maximal tori being conjugate, Mostow 1956) it is the rank.
def _check_rank(entry, spec):
    if spec.alphas is None and catalog.alpha_count(spec):
        spec = spec.with_alphas(catalog.sample_alphas(spec))
    basis, dim = diagonal_derivations(catalog.generate(spec))
    columns = list(zip(*basis))
    distinct = len(set(columns)) == len(columns)
    generators = "; ".join(f"diag({', '.join(str(x / next(filter(None, w))) for x in w)})" for w in basis)
    return (f"{spec}: rank_in_basis={dim} (published {entry.rank}), generators {generators}, "
            f"entries pairwise distinct: {distinct}",
            dim == catalog.family_def(spec.family).rank != entry.rank and distinct)


def _check_degenerate(entry, spec):
    model = catalog.FamilySpec(catalog.family_def(spec.family).model, spec.n)
    equal = catalog.generate(spec) == catalog.generate(model)
    return f"{spec}: table {'equals' if equal else 'differs from'} {model}", equal


_CHECKS = {"misprint": _check_misprint, "range": _check_sound, "unrealizable": _check_sound,
           "rank": _check_rank, "degenerate tuple": _check_degenerate}


def certify(entry: catalog.Discrepancy, spec: catalog.FamilySpec) -> tuple[str, bool]:
    """``entry``'s certificate on one tuple: a printable line, and whether it holds."""
    return _CHECKS[entry.kind](entry, spec)
