"""Explicit change-of-variable procedures and an invariant fingerprint.

``cn_to_qn_transform`` builds one certificate matrix and rewrites once: the
stage matrices that clear the parameters of Cn are multiplied into one
change of basis, each stage's coefficient read with ``rational_bracket`` on
the Cn table and the rows of the product so far, and the table is rewritten
by that product alone, whose image ``matches_qn`` compares with Qn.

The fingerprint holds five invariants of the algebra, none of which depends on
the basis: the dimensions of the lower central and derived series, of the
center, of the derivation algebra and of the centralizer of g_3.  Isomorphic
algebras have equal fingerprints.  Among the naturally graded models up to
n = 25 one pair shares a fingerprint, Tn4(9) and E953(9), whose tables are
related by an exact change of basis.  ``classify_gr`` splits that tie with the
diagonal-derivation dimension in the given basis, the one number it reads
that depends on the basis.  On the finite catalog, fingerprint matching stands
in for a general isomorphism test; the separation property checked in the test
suite makes it sufficient there.

``classify_gr`` reads one index per dimension, built once: the graded models
of ``catalog.graded_models(n)`` by fingerprint.  ``fingerprint`` reads a
private memo keyed on the concrete ``Algebra`` (equality is its canonical
table), so the rows of a sweep that share a gr algebra compute its
fingerprint once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from qflab import catalog
from qflab.exact import identity_matrix, mat_mul, matrix_rank, rat
from qflab.gradation import bracket_span, gr, lower_central_series
from qflab.liealg import Algebra, _int_bracket, change_of_basis, rational_bracket
from qflab.derivations import derivation_dim, rank_in_basis


# ---------------------------------------------------------------------------
# The parameter-elimination isomorphism from Cn onto Qn
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CnTransform:
    source: Algebra
    image: Algebra
    stages: tuple  # change-of-basis matrices, applied left to right
    composed: tuple  # product matrix equal to the chained application

    def matches_qn(self) -> bool:
        return self.image == catalog.generate(catalog.spec_for("Qn", self.source.dim))


def cn_to_qn_transform(n: int, alphas: Sequence) -> CnTransform:
    """Eliminate the parameters of Cn(alpha) by explicit changes of variable.

    Stage j substitutes Y_i -> Y_i + (c_j/2) Y_{i+2j} for i = 1..n-2-2j with
    c_j the current coefficient in slot j, which cancels that slot.  The
    stage also pollutes slot 2j with a term quadratic in c_j, so a single
    pass in ascending j (the slot-1 stage first) clears everything, whereas
    a descending pass does not.  A final sign flip on the last basis vector
    lands exactly on Qn's table (the Cn convention carries the opposite sign
    on its symplectic-style pairs).

    The stages compose into one matrix, and the algebra is rewritten once, by
    that product.  c_j is the coefficient of Y_{n-1} in [Y_1, Y_{n-2j-2}] in
    the basis of the stages before j, read on the source table: no stage row
    touches the column of X_{n-1}, so X_{n-1} = Y_{n-1} until the flip, and
    c_j is the X_{n-1} entry of ``rational_bracket`` of rows 1 and n-2j-2 of
    the product so far.
    """
    if n < 6 or n % 2 != 0:
        raise catalog.InvalidParametersError("n must be even and at least 6")
    m = n // 2
    alphas = tuple(rat(a) for a in alphas)
    if len(alphas) != m - 2:
        raise catalog.InvalidParametersError(f"expected {m - 2} alpha values, got {len(alphas)}")
    spec = catalog.spec_for("Cn", n, alphas=alphas)
    source = catalog.generate(spec)
    stages = []
    composed = identity_matrix(n)
    for j in range(1, m - 1):
        value = rational_bracket(source, composed[1], composed[n - 2 * j - 2])[n - 1]
        P = identity_matrix(n)
        for i in range(1, n - 1 - 2 * j):
            P[i][i + 2 * j] = value / 2
        stages.append(tuple(tuple(row) for row in P))
        composed = mat_mul(P, composed)
    flip = identity_matrix(n)
    flip[n - 1][n - 1] = Fraction(-1)
    stages.append(tuple(tuple(row) for row in flip))
    composed = mat_mul(flip, composed)
    return CnTransform(source, change_of_basis(source, composed), tuple(stages),
                       tuple(tuple(row) for row in composed))


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fingerprint:
    """Deterministic record of basis-independent invariants; equal
    fingerprints are a necessary condition for isomorphism."""

    lcs_dims: tuple[int, ...]
    derived_dims: tuple[int, ...]
    center_dim: int
    der_dim: int
    centralizer_g3_dim: int


def _centralizer_dim(algebra: Algebra, vectors) -> int:
    """Dimension of {x : [x, v] = 0 for every v}, as one stacked exact system
    over the integer rows ``vectors``: row ``coord`` of v's block holds the
    coordinate ``coord`` of [e_x, v] at column x."""
    n = algebra.dim
    _, ad = algebra.scaled_ad
    stacked = []
    for v in vectors:
        block: dict[int, dict[int, int]] = {}
        for x in range(n):
            for coord, c in _int_bracket(ad, {x: 1}, v).items():
                block.setdefault(coord, {})[x] = c
        stacked.extend(block.values())
    return n - matrix_rank(stacked, ncols=n)


def _derived_dims(algebra: Algebra, spaces) -> tuple[int, ...]:
    head = spaces[:2]  # D^0 = g_1 and D^1 = g_2; the zero algebra has g_1 alone
    dims = [space.dim for space in head]
    current = head[-1].integer_basis()
    while dims[-1] and dims[-1] != dims[-2]:
        current = bracket_span(algebra, ((current[a], current[b])
                                         for a in range(len(current))
                                         for b in range(a + 1, len(current)))).integer_basis()
        dims.append(len(current))
    return tuple(dims)


def fingerprint(algebra: Algebra) -> Fingerprint:
    """The fingerprint of a concrete algebra, memoised per table."""
    return _fingerprint(algebra.concrete())


# Rows that share a gr table lie far apart in a sweep (each family visits
# every n), so the memo holds every distinct gr table of one: 80 at --n-max 13.
# The graded models are fingerprinted once each, through the index below.
@functools.lru_cache(maxsize=1024)
def _fingerprint(concrete: Algebra) -> Fingerprint:
    n = concrete.dim
    filtration = lower_central_series(concrete)
    spaces = filtration.spaces
    g3 = spaces[2].integer_basis() if len(spaces) > 2 else []  # g_3 = 0 past the series' end
    return Fingerprint(
        lcs_dims=filtration.dims,
        derived_dims=_derived_dims(concrete, spaces),
        center_dim=_centralizer_dim(concrete, [{x: 1} for x in range(n)]),
        der_dim=derivation_dim(concrete),
        centralizer_g3_dim=_centralizer_dim(concrete, g3),
    )


# ---------------------------------------------------------------------------
# gr-class identification among the naturally graded models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassifyResult:
    match: catalog.FamilySpec | None
    candidates: tuple[str, ...]  # canonical strings of the models tied on every invariant

    @property
    def classified(self) -> bool:
        return self.match is not None


def catalog_fingerprint(spec: catalog.FamilySpec) -> Fingerprint:
    return fingerprint(catalog.generate(spec))


@functools.lru_cache(maxsize=None)
def _graded_index(n: int) -> dict[Fingerprint, list[catalog.FamilySpec]]:
    index: dict[Fingerprint, list[catalog.FamilySpec]] = {}
    for spec in catalog.graded_models(n):
        index.setdefault(catalog_fingerprint(spec), []).append(spec)
    return index


def classify_gr(algebra: Algebra) -> ClassifyResult:
    """Identify gr(algebra) among the naturally graded models.

    A fingerprint shared by several models is split by the diagonal-derivation
    dimension, read on gr(algebra) in the basis it comes in and on each model's
    own table; the match is the one model left, and the tied models are the
    candidates.
    """
    graded = gr(algebra).algebra
    hits = _graded_index(graded.dim).get(fingerprint(graded), [])
    if len(hits) <= 1:
        return ClassifyResult(hits[0] if hits else None, ())
    rank = rank_in_basis(graded)
    left = [s for s in hits if rank_in_basis(catalog.generate(s)) == rank]
    return ClassifyResult(left[0] if len(left) == 1 else None, tuple(s.canonical() for s in hits))
