"""Explicit change-of-variable procedures and an invariant fingerprint.

The fingerprint packages basis-independent invariants (type vector, series
dimensions, center and derivation-algebra dimensions) plus three extensions
that split ties inside the naturally graded catalog: the centralizers of g_2
and g_3, which are basis-independent too, and the diagonal-derivation
dimension, which depends on the basis.  Among the graded models up to n = 13
the one tie is the n = 9 triple Tn4, E951, E953: the centralizer of g_2 has
dimension 3 on all three, that of g_3 splits E951 off, and the
diagonal-derivation dimension splits Tn4 from E953.  Fingerprint matching
replaces general isomorphism testing; on the finite catalog it is made
sufficient by the separation property checked in the test suite.

``classify_gr`` reads one index per dimension, built once: the fingerprints
of ``catalog.graded_models(n)``.  ``fingerprint`` reads a private memo keyed on
the concrete ``Algebra`` (equality is its canonical table), so the rows of a
sweep that share a gr algebra compute its fingerprint once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from qflab import catalog
from qflab.exact import identity_matrix, mat_mul, matrix_rank, rat
from qflab.gradation import bracket_span, gr, lower_central_series
from qflab.liealg import Algebra, _int_bracket, change_of_basis
from qflab.derivations import derivation_dim, diagonal_derivations


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
    """
    if n < 6 or n % 2 != 0:
        raise catalog.InvalidParametersError("n must be even and at least 6")
    m = n // 2
    alphas = tuple(rat(a) for a in alphas)
    if len(alphas) != m - 2:
        raise catalog.InvalidParametersError(f"expected {m - 2} alpha values, got {len(alphas)}")
    spec = catalog.spec_for("Cn", n, alphas=alphas)
    source = catalog.generate(spec)
    current = source
    stages = []
    composed = identity_matrix(n)
    for j in range(1, m - 1):
        # read the current coefficient of a_j from the bracket
        # [Y_1, Y_{n-2j-2}] = (-1)^{1+1} a_j Y_{n-1}
        coeff = current.bracket_of(1, n - 2 * j - 2).get(n - 1)
        value = coeff.constant_value() if coeff is not None else Fraction(0)
        P = identity_matrix(n)
        for i in range(1, n - 1 - 2 * j):
            P[i][i + 2 * j] = value / 2
        current = change_of_basis(current, P)
        stages.append(tuple(tuple(row) for row in P))
        composed = mat_mul(P, composed)
    flip = identity_matrix(n)
    flip[n - 1][n - 1] = Fraction(-1)
    current = change_of_basis(current, flip)
    stages.append(tuple(tuple(row) for row in flip))
    composed = mat_mul(flip, composed)
    return CnTransform(source, current, tuple(stages),
                       tuple(tuple(row) for row in composed))


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fingerprint:
    """Deterministic invariant record; equal fingerprints are a necessary
    condition for isomorphism.

    Every component is basis-independent except ``rank_in_adapted_basis``,
    which is computed in the basis the algebra is handed over in and is
    meaningful only for catalog-adapted (or canonical homogeneous) bases.
    """

    dim: int
    type_vector: tuple[int, ...]
    lcs_dims: tuple[int, ...]
    derived_dims: tuple[int, ...]
    center_dim: int
    der_dim: int
    centralizer_g2_dim: int
    centralizer_g3_dim: int
    rank_in_adapted_basis: int

    def base_key(self):
        return (self.dim, self.type_vector, self.lcs_dims, self.derived_dims,
                self.center_dim, self.der_dim)

    def full_key(self):
        return self.base_key() + (self.centralizer_g2_dim, self.centralizer_g3_dim,
                                  self.rank_in_adapted_basis)


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

    def term(k):  # integer rows of g_k, none past the end of the series
        return spaces[k - 1].integer_basis() if k <= len(spaces) else []

    return Fingerprint(
        dim=n,
        type_vector=filtration.type_info().type_vector.p,
        lcs_dims=filtration.dims,
        derived_dims=_derived_dims(concrete, spaces),
        center_dim=_centralizer_dim(concrete, [{x: 1} for x in range(n)]),
        der_dim=derivation_dim(concrete),
        centralizer_g2_dim=_centralizer_dim(concrete, term(2)),
        centralizer_g3_dim=_centralizer_dim(concrete, term(3)),
        rank_in_adapted_basis=diagonal_derivations(concrete)[1],
    )


# ---------------------------------------------------------------------------
# gr-class identification among the naturally graded models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassifyResult:
    match: catalog.FamilySpec | None
    candidates: tuple[str, ...]  # canonical strings of near misses

    @property
    def classified(self) -> bool:
        return self.match is not None


def catalog_fingerprint(spec: catalog.FamilySpec) -> Fingerprint:
    return fingerprint(catalog.generate(spec))


@functools.lru_cache(maxsize=None)
def _graded_index(n: int) -> tuple[tuple[catalog.FamilySpec, Fingerprint], ...]:
    return tuple((spec, catalog_fingerprint(spec)) for spec in catalog.graded_models(n))


def classify_gr(algebra: Algebra) -> ClassifyResult:
    """Identify gr(algebra) among the naturally graded models.

    Matches on the basis-independent fingerprint components first; when several
    models collide there, refines with the extensions (the centralizers of g_2
    and g_3, then the diagonal-derivation dimension, in canonical homogeneous
    bases).
    """
    graded = gr(algebra).algebra
    fp = fingerprint(graded)
    base_hits = [(s, f) for s, f in _graded_index(graded.dim) if f.base_key() == fp.base_key()]
    if len(base_hits) == 1:
        return ClassifyResult(base_hits[0][0], ())
    near = tuple(s.canonical() for s, _ in base_hits)
    hits = [s for s, f in base_hits if f.full_key() == fp.full_key()]
    if len(hits) == 1:
        return ClassifyResult(hits[0], near)
    return ClassifyResult(None, tuple(s.canonical() for s in hits) or near)
