"""Generators for the filiform and quasi-filiform algebra families.

Each family is identified by a short ASCII token (``Ln``, ``Qnr``, ``BarrCc``,
...) and a tuple of integer parameters.  Parametric families carry rational
parameters ``a1, a2, ...`` that enter the structure constants linearly through
the triangular system

    a_{i,i} = 0,   a_{i,i+1} = a_i,   a_{i,j} = a_{i+1,j} + a_{i,j+1}

solved here by the gap recursion a_{i,j+1} = a_{i,j} - a_{i+1,j}.

Token glossary (dimension of the algebra is always ``n``):

    Ln, Qn          filiform chain algebra; chain plus symplectic-style pairs
    Ank, Bnk        parametric filiform deformations of Ln / Qn (offset k)
    Cn              Qn rewritten with rational parameters (all removable)
    LsumC, QsumC    direct sums L_{n-1} (+) C and Q_{n-1} (+) C
    AsumC, BsumC    direct sums of the parametric deformations with C
    LarrC, AarrC    one-dimensional extensions shifting the chain by l
    QarrCa, BarrCa  shifted extensions of Q_{n-1} / B_{n-1}^k (l odd)
    QarrCb          shifted extension plus [Y0, Y_{n-1}] = Y_{n-2} (l odd)
    QarrCc, BarrCc  central-type extension with [Y0, Y_{n-1}] = Y_{n-2} only
    Lnr, Qnr        naturally graded algebras with a second jump at r
    Tn4, Tn3        naturally graded algebras of types t_{n-4} and t_{n-3}
    E951/E952/E953  the three special 9-dimensional algebras of type t_5
    E73             the special 7-dimensional algebra of type t_3
    Cnrk, Dnrk      rank-one deformations/extensions over Lnr
    Enrk, Fnrk      rank-one deformations/extensions over Qnr
    Gnrk, Hnrk      rank-one deformations over Tn4 / Tn3

A few families circulate with misprinted tables or diagonals; the corrected
versions are generated by default and the known-bad variants are available
through ``misprint=True`` so the weight audit can demonstrate detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Callable, Iterator, Mapping, Sequence

from qflab.exact import Poly, QflabError, rat, rat_str
from qflab.liealg import Algebra


class InvalidParametersError(QflabError):
    pass


class UnknownFamilyError(QflabError):
    pass


@dataclass(frozen=True)
class FamilySpec:
    """A family token plus its integer parameters and optional alpha values."""

    family: str
    n: int
    r: int | None = None
    k: int | None = None
    l: int | None = None
    alphas: tuple[Fraction, ...] | None = None

    def canonical(self) -> str:
        parts = [f"n={self.n}"]
        if self.r is not None:
            parts.append(f"r={self.r}")
        if self.k is not None:
            parts.append(f"k={self.k}")
        if self.l is not None:
            parts.append(f"l={self.l}")
        if self.alphas is not None:
            parts.append("alpha=[" + ",".join(rat_str(a) for a in self.alphas) + "]")
        return f"{self.family}(" + ",".join(parts) + ")"

    def with_alphas(self, alphas: Sequence) -> "FamilySpec":
        return FamilySpec(self.family, self.n, self.r, self.k, self.l,
                          tuple(rat(a) for a in alphas))

    def __str__(self):
        return self.canonical()


def spec_for(family: str, n: int, r: int | None = None, k: int | None = None,
             l: int | None = None, alphas: Sequence | None = None) -> FamilySpec:
    return FamilySpec(family, n, r, k, l,
                      None if alphas is None else tuple(rat(a) for a in alphas))


# ---------------------------------------------------------------------------
# The a_{i,j} table
# ---------------------------------------------------------------------------


def alpha_names(count: int) -> tuple[str, ...]:
    return tuple(f"a{i}" for i in range(1, count + 1))


@dataclass(frozen=True)
class AijTable:
    """Solution of the triangular a_{i,j} system inside a pair range.

    Entries exist for 1 <= i < j with i + j <= range_bound and vanish outside;
    the recurrence a_{i,j} = a_{i+1,j} + a_{i,j+1} holds on every shell with
    i + j < range_bound (the shells on which it is actually imposed by the
    Jacobi identity against the chain).
    """

    range_bound: int
    t: int
    params: tuple[str, ...]
    values: Mapping

    def get(self, i: int, j: int) -> Poly:
        if i == j:
            return Poly.zero(self.params)
        if i > j:
            return -self.get(j, i)
        return self.values.get((i, j), Poly.zero(self.params))


def aij_table(range_bound: int, t: int, params: Sequence[str] | None = None) -> AijTable:
    """Build the a_{i,j} table for pairs with i + j <= range_bound.

    ``t`` controls the superdiagonal seeds: a_{i,i+1} = a_i for i <= t - 1 and
    0 beyond.  Values are computed by increasing gap via
    a_{i,j+1} = a_{i,j} - a_{i+1,j}, which solves the recurrence exactly on
    the imposed shells.
    """
    if t < 1:
        raise InvalidParametersError("t must be at least 1")
    if params is None:
        params = alpha_names(t - 1)
    params = tuple(params)
    zero = Poly.zero(params)
    values: dict[tuple[int, int], Poly] = {}

    def seed(i: int) -> Poly:
        if 1 <= i <= t - 1:
            return Poly.variable(params, f"a{i}")
        return zero

    for i in range(1, max(range_bound, 0)):
        if 2 * i + 1 <= range_bound:
            v = seed(i)
            if not v.is_zero():
                values[(i, i + 1)] = v
    gap = 2
    while 2 + gap <= range_bound:
        placed = False
        for i in range(1, range_bound):
            j = i + gap
            if i + j > range_bound:
                break
            placed = True
            v = values.get((i, j - 1), zero) - values.get((i + 1, j - 1), zero)
            if not v.is_zero():
                values[(i, j)] = v
        if not placed:
            break
        gap += 1
    return AijTable(range_bound, t, params, values)


# ---------------------------------------------------------------------------
# Table builders
# ---------------------------------------------------------------------------

Table = dict


def _add(table: Table, i: int, j: int, k: int, coeff) -> None:
    if isinstance(coeff, Poly):
        if coeff.is_zero():
            return
    elif coeff == 0:
        return
    entry = table.setdefault((i, j), {})
    if k in entry:
        entry[k] = entry[k] + coeff
    else:
        entry[k] = coeff


def _chain(table: Table, last_source: int) -> None:
    # [Y0, Yi] = Y_{i+1} for 1 <= i <= last_source
    for i in range(1, last_source + 1):
        _add(table, 0, i, i + 1, 1)


def _sum_pairs(table: Table, total: int, target: int, i_max: int, coeff: Callable[[int], object]) -> None:
    # [Y_i, Y_{total-i}] = coeff(i) * Y_target for 1 <= i <= i_max (i < total-i)
    for i in range(1, i_max + 1):
        j = total - i
        if j <= i:
            break
        _add(table, i, j, target, coeff(i))


def _aline(table: Table, aij: AijTable, bound: int, offset: int, j_max: int) -> None:
    # [Y_i, Y_j] = a_{i,j} Y_{i+j+offset} for 1 <= i < j <= j_max, i+j <= bound
    for (i, j), coeff in aij.values.items():
        if i + j <= bound and j <= j_max:
            _add(table, i, j, i + j + offset, coeff)


def _shift_ext(table: Table, new_index: int, offset: int, i_min: int, i_max: int) -> None:
    # [Y_i, Y_new] = Y_{i+offset} for i_min <= i <= i_max
    for i in range(i_min, i_max + 1):
        _add(table, i, new_index, i + offset, 1)


def _half(x: int) -> Fraction:
    return Fraction(x, 2)


# -- filiform families -------------------------------------------------------


def _build_Ln(s: FamilySpec, misprint: bool) -> tuple[int, tuple, Table]:
    t: Table = {}
    _chain(t, s.n - 2)
    return s.n, (), t


def _build_Qn(s: FamilySpec, misprint: bool) -> tuple[int, tuple, Table]:
    n = s.n
    t: Table = {}
    _chain(t, n - 3)
    _sum_pairs(t, n - 1, n - 1, n // 2 - 1, lambda i: (-1) ** (i - 1))
    return n, (), t


def _build_Ank(s: FamilySpec, misprint: bool) -> tuple[int, tuple, Table]:
    n, k = s.n, s.k
    tt = (n - k + 1) // 2
    aij = aij_table(n - k, tt)
    t: Table = {}
    _chain(t, n - 2)
    _aline(t, aij, n - k, k - 1, n - 1)
    return n, aij.params, t


def _build_Bnk(s: FamilySpec, misprint: bool) -> tuple[int, tuple, Table]:
    n, k = s.n, s.k
    tt = (n - k) // 2
    aij = aij_table(n - k - 1, tt)
    t: Table = {}
    _chain(t, n - 3)
    _sum_pairs(t, n - 1, n - 1, n // 2 - 1, lambda i: (-1) ** (i - 1))
    _aline(t, aij, n - k - 1, k - 1, n - 2)
    return n, aij.params, t


def _build_Cn(s: FamilySpec, misprint: bool) -> tuple[int, tuple, Table]:
    n = s.n
    m = n // 2
    params = alpha_names(m - 2)
    t: Table = {}
    _chain(t, n - 3)
    _sum_pairs(t, n - 1, n - 1, m - 1, lambda i: (-1) ** i)
    for kk in range(1, m - 1):
        a = Poly.variable(params, f"a{kk}")
        for i in range(1, m - kk):
            j = n - (2 * kk + 1) - i
            if j <= i:
                break
            _add(t, i, j, n - 1, ((-1) ** (i + 1)) * a)
    return n, params, t


# -- type t_1: direct sums and shifted extensions ----------------------------


def _build_LsumC(s: FamilySpec, misprint: bool) -> tuple[int, tuple, Table]:
    t: Table = {}
    _chain(t, s.n - 3)
    return s.n, (), t


def _build_QsumC(s: FamilySpec, misprint: bool) -> tuple[int, tuple, Table]:
    n = s.n
    t: Table = {}
    _chain(t, n - 4)
    _sum_pairs(t, n - 2, n - 2, (n - 3) // 2, lambda i: (-1) ** (i - 1))
    return n, (), t


def _build_AsumC(s: FamilySpec, misprint: bool) -> tuple[int, tuple, Table]:
    n, k = s.n, s.k
    tt = (n - k) // 2
    aij = aij_table(n - k - 1, tt)
    t: Table = {}
    _chain(t, n - 3)
    _aline(t, aij, n - k - 1, k - 1, n - 2)
    return n, aij.params, t


def _build_BsumC(s: FamilySpec, misprint: bool) -> tuple[int, tuple, Table]:
    n, k = s.n, s.k
    tt = (n - k - 1) // 2
    aij = aij_table(n - k - 2, tt)
    t: Table = {}
    _chain(t, n - 4)
    _sum_pairs(t, n - 2, n - 2, (n - 3) // 2, lambda i: (-1) ** (i - 1))
    if misprint:
        # known-bad variant: superdiagonal brackets land one step short
        for i in range(1, tt):
            a = Poly.variable(aij.params, f"a{i}")
            _add(t, i, i + 1, 2 * i + k - 1, a)
        for (i, j), coeff in aij.values.items():
            if j > i + 1 and i + j <= n - k - 2 and j <= n - 3:
                _add(t, i, j, i + j + k - 1, coeff)
    else:
        _aline(t, aij, n - k - 2, k - 1, n - 3)
    return n, aij.params, t


def _build_LarrC(s: FamilySpec, misprint: bool) -> tuple[int, tuple, Table]:
    n, l = s.n, s.l
    t: Table = {}
    _chain(t, n - 3)
    if misprint:
        # known-bad variant: target shifted by l-2 over an oversized range
        for i in range(1, min(n - l, n - 2) + 1):
            tgt = i + l - 2
            if 1 <= tgt <= n - 2:
                _add(t, i, n - 1, tgt, 1)
    else:
        _shift_ext(t, n - 1, l, 1, n - 2 - l)
    return n, (), t


def _build_AarrC(s: FamilySpec, misprint: bool) -> tuple[int, tuple, Table]:
    n, k, l = s.n, s.k, s.l
    dim, params, t = _build_AsumC(s, False)
    if misprint:
        for i in range(1, min(n - l, n - 2) + 1):
            tgt = i + l - 2
            if 1 <= tgt <= n - 2:
                _add(t, i, n - 1, tgt, 1)
    else:
        _shift_ext(t, n - 1, l, 1, n - 2 - l)
    return dim, params, t


def _build_QarrCa(s: FamilySpec, misprint: bool) -> tuple[int, tuple, Table]:
    n, l = s.n, s.l
    dim, params, t = _build_QsumC(s, False)
    _shift_ext(t, n - 1, l, 1, n - 3 - l)
    return dim, params, t


def _build_BarrCa(s: FamilySpec, misprint: bool) -> tuple[int, tuple, Table]:
    n, l = s.n, s.l
    dim, params, t = _build_BsumC(s, False)
    _shift_ext(t, n - 1, l, 1, n - 3 - l)
    return dim, params, t


def _build_QarrCb(s: FamilySpec, misprint: bool) -> tuple[int, tuple, Table]:
    n = s.n
    dim, params, t = _build_QarrCa(s, False)
    _add(t, 0, n - 1, n - 2, 1)
    return dim, params, t


def _build_QarrCc(s: FamilySpec, misprint: bool) -> tuple[int, tuple, Table]:
    n = s.n
    dim, params, t = _build_QsumC(s, False)
    _add(t, 0, n - 1, n - 2, 1)
    return dim, params, t


def _build_BarrCc(s: FamilySpec, misprint: bool) -> tuple[int, tuple, Table]:
    n = s.n
    dim, params, t = _build_BsumC(s, False)
    _add(t, 0, n - 1, n - 2, 1)
    return dim, params, t


# -- type t_r families -------------------------------------------------------


def _build_Lnr(s: FamilySpec, misprint: bool) -> tuple[int, tuple, Table]:
    n, r = s.n, s.r
    t: Table = {}
    _chain(t, n - 3)
    _sum_pairs(t, r, n - 1, (r - 1) // 2, lambda i: (-1) ** (i - 1))
    return n, (), t


def _build_Qnr(s: FamilySpec, misprint: bool) -> tuple[int, tuple, Table]:
    n, r = s.n, s.r
    t: Table = {}
    _chain(t, n - 4)
    _sum_pairs(t, r, n - 1, (r - 1) // 2, lambda i: (-1) ** (i - 1))
    _sum_pairs(t, n - 2, n - 2, (n - 3) // 2, lambda i: (-1) ** (i - 1))
    return n, (), t


def _build_Tn4(s: FamilySpec, misprint: bool) -> tuple[int, tuple, Table]:
    n = s.n
    t: Table = {}
    _chain(t, n - 5)
    _add(t, 0, n - 3, n - 2, 1)
    _add(t, 0, n - 1, n - 3, 1)
    _sum_pairs(t, n - 4, n - 1, (n - 5) // 2, lambda i: (-1) ** (i - 1))
    _sum_pairs(t, n - 3, n - 3, (n - 5) // 2, lambda i: ((-1) ** (i - 1)) * _half(n - 3 - 2 * i))
    _sum_pairs(t, n - 2, n - 2, (n - 3) // 2, lambda i: ((-1) ** i) * (i - 1) * _half(n - 3 - i))
    return n, (), t


def _build_Tn3(s: FamilySpec, misprint: bool) -> tuple[int, tuple, Table]:
    n = s.n
    t: Table = {}
    _chain(t, n - 4)
    _add(t, 0, n - 1, n - 2, 1)
    _sum_pairs(t, n - 3, n - 1, (n - 4) // 2, lambda i: (-1) ** (i - 1))
    _sum_pairs(t, n - 2, n - 2, (n - 4) // 2, lambda i: ((-1) ** (i - 1)) * _half(n - 2 - 2 * i))
    return n, (), t


def _build_Cnrk(s: FamilySpec, misprint: bool) -> tuple[int, tuple, Table]:
    n, r, k = s.n, s.r, s.k
    tt = (n - k) // 2
    bound = n - k - 1
    aij = aij_table(bound, tt)
    t: Table = {}
    _chain(t, n - 3)
    _sum_pairs(t, r, n - 1, (r - 1) // 2, lambda i: (-1) ** (i - 1))
    _aline(t, aij, bound, k - 1, n - 2)
    count = n - r - 2 * k
    if count > 0:
        _shift_ext(t, n - 1, 2 * k + r - 2, 1, count)
    return n, aij.params, t


def _build_Dnrk(s: FamilySpec, misprint: bool) -> tuple[int, tuple, Table]:
    n, r, k = s.n, s.r, s.k
    t: Table = {}
    _chain(t, n - 3)
    _sum_pairs(t, r, n - 1, (r - 1) // 2, lambda i: (-1) ** (i - 1))
    count = n - r - 2 * k - 1
    if count > 0:
        _shift_ext(t, n - 1, 2 * k + r - 1, 1, count)
    return n, (), t


def _build_Enrk(s: FamilySpec, misprint: bool) -> tuple[int, tuple, Table]:
    n, r, k = s.n, s.r, s.k
    tt = (n - k - 1) // 2
    bound = n - k - 2
    aij = aij_table(bound, tt)
    t: Table = {}
    _chain(t, n - 4)
    _sum_pairs(t, r, n - 1, (r - 1) // 2, lambda i: (-1) ** (i - 1))
    _sum_pairs(t, n - 2, n - 2, (n - 3) // 2, lambda i: (-1) ** (i - 1))
    _aline(t, aij, bound, k - 1, n - 3)
    count = n - r - 2 * k - 1
    if count > 0:
        _shift_ext(t, n - 1, 2 * k + r - 2, 1, count)
    return n, aij.params, t


def _build_Fnrk(s: FamilySpec, misprint: bool) -> tuple[int, tuple, Table]:
    n, r, k = s.n, s.r, s.k
    t: Table = {}
    _chain(t, n - 4)
    _sum_pairs(t, r, n - 1, (r - 1) // 2, lambda i: (-1) ** (i - 1))
    _sum_pairs(t, n - 2, n - 2, (n - 3) // 2, lambda i: (-1) ** (i - 1))
    count = n - r - 2 * k - 2
    if count > 0:
        _shift_ext(t, n - 1, 2 * k + r - 1, 1, count)
    return n, (), t


def _build_Gnrk(s: FamilySpec, misprint: bool) -> tuple[int, tuple, Table]:
    n, k = s.n, s.k
    tt = (n - k - 2) // 2
    bound = n - k - 3
    aij = aij_table(bound, tt)
    t: Table = {}
    _chain(t, n - 5)
    _add(t, 0, n - 3, n - 2, 1)
    _add(t, 0, n - 1, n - 3, 1)
    if k == 2:
        _add(t, 1, n - 1, n - 2, 1)
    _sum_pairs(t, n - 4, n - 1, (n - 5) // 2, lambda i: (-1) ** (i - 1))
    _sum_pairs(t, n - 3, n - 3, (n - 5) // 2, lambda i: ((-1) ** (i - 1)) * _half(n - 3 - 2 * i))
    if misprint:
        # known-bad variant: the deepest coefficient line reads (n-2-i)/2,
        # which breaks the Jacobi identity by a constant
        _sum_pairs(t, n - 2, n - 2, (n - 3) // 2, lambda i: ((-1) ** i) * (i - 1) * _half(n - 2 - i))
    else:
        _sum_pairs(t, n - 2, n - 2, (n - 3) // 2, lambda i: ((-1) ** i) * (i - 1) * _half(n - 3 - i))
    _aline(t, aij, bound, k - 1, n - 4)
    return n, aij.params, t


def _build_Hnrk(s: FamilySpec, misprint: bool) -> tuple[int, tuple, Table]:
    n, k = s.n, s.k
    tt = (n - k - 1) // 2
    bound = n - k - 2
    aij = aij_table(bound, tt)
    t: Table = {}
    _chain(t, n - 4)
    _add(t, 0, n - 1, n - 2, 1)
    _sum_pairs(t, n - 3, n - 1, (n - 4) // 2, lambda i: (-1) ** (i - 1))
    _sum_pairs(t, n - 2, n - 2, (n - 4) // 2, lambda i: ((-1) ** (i - 1)) * _half(n - 2 - 2 * i))
    _aline(t, aij, bound, k - 1, n - 3)
    return n, aij.params, t


def _fixed_table(dim: int, brackets: Mapping) -> Callable:
    def build(s: FamilySpec, misprint: bool) -> tuple[int, tuple, Table]:
        t: Table = {}
        _chain(t, dim - 3)
        for (i, j), entry in brackets.items():
            for k, c in entry.items():
                _add(t, i, j, k, c)
        return dim, (), t

    return build


_build_E951 = _fixed_table(9, {
    (0, 8): {6: 1}, (2, 8): {7: -3}, (1, 4): {8: 1}, (1, 5): {6: 2},
    (1, 6): {7: 3}, (2, 3): {8: -1}, (2, 4): {6: -1}, (2, 5): {7: -1},
})
_build_E952 = _fixed_table(9, {
    (0, 8): {6: 1}, (2, 8): {7: -1}, (1, 4): {8: 1}, (1, 5): {6: 2},
    (1, 6): {7: 1}, (2, 3): {8: -1}, (2, 4): {6: -1}, (2, 5): {7: 1},
    (3, 4): {7: -2},
})
_build_E953 = _fixed_table(9, {
    (0, 8): {6: 1}, (1, 4): {8: 1}, (1, 5): {6: 2}, (2, 3): {8: -1},
    (2, 4): {6: -1}, (2, 5): {7: 2}, (3, 4): {7: -3},
})
_build_E73 = _fixed_table(7, {
    (0, 6): {4: 1}, (2, 6): {5: -1}, (1, 2): {6: 1}, (1, 3): {4: 1},
    (1, 4): {5: 1},
})


# ---------------------------------------------------------------------------
# Validation and enumeration
# ---------------------------------------------------------------------------


def _req(cond: bool, message: str) -> None:
    if not cond:
        raise InvalidParametersError(message)


def _need(spec: FamilySpec, r: bool = False, k: bool = False, l: bool = False) -> None:
    _req((spec.r is not None) == r, f"{spec.family}: r {'required' if r else 'not accepted'}")
    _req((spec.k is not None) == k, f"{spec.family}: k {'required' if k else 'not accepted'}")
    _req((spec.l is not None) == l, f"{spec.family}: l {'required' if l else 'not accepted'}")


def _lnr_r_max(n: int) -> int:
    return 2 * ((n - 1) // 2) - 1


def _validate_lnr_pair(n: int, r: int) -> None:
    _req(n >= 5, "n must be at least 5")
    _req(r % 2 == 1, "r must be odd")
    _req(3 <= r <= _lnr_r_max(n), f"r must lie in [3, {_lnr_r_max(n)}]")


def _validate_qnr_pair(n: int, r: int) -> None:
    _req(n >= 7 and n % 2 == 1, "n must be odd and at least 7")
    _req(r % 2 == 1, "r must be odd")
    _req(3 <= r <= n - 4, f"r must lie in [3, {n - 4}]")


def _always_sound(_s: FamilySpec) -> bool:
    return True


@dataclass(frozen=True)
class FamilyDef:
    token: str
    build: Callable
    validate: Callable[[FamilySpec], None]
    alpha_count: Callable[[FamilySpec], int]
    tuples: Callable[[int], Iterator[FamilySpec]]
    gr_class: Callable[[FamilySpec], FamilySpec | None]
    rank: Callable[[FamilySpec], int | None]
    has_misprint: bool = False
    # integer tuples inside the printed ranges on which the table actually
    # closes as a Lie algebra (for parametric families: on which the
    # constraint variety is nonempty)
    sound: Callable[[FamilySpec], bool] = _always_sound


FAMILIES: dict[str, FamilyDef] = {}


def _register(token, build, validate, alpha_count, tuples, gr_class, rank,
              has_misprint=False, sound=_always_sound):
    FAMILIES[token] = FamilyDef(token, build, validate, alpha_count, tuples,
                                gr_class, rank, has_misprint, sound)


def _self_class(s: FamilySpec) -> FamilySpec:
    return FamilySpec(s.family, s.n, s.r, None, None, None)


# Ln / Qn / Ank / Bnk / Cn ----------------------------------------------------

_register(
    "Ln", _build_Ln,
    lambda s: (_need(s), _req(s.n >= 3, "n must be at least 3")),
    lambda s: 0,
    lambda n_max: (spec_for("Ln", n) for n in range(3, n_max + 1)),
    lambda s: spec_for("Ln", s.n),
    lambda s: 2,
)
_register(
    "Qn", _build_Qn,
    lambda s: (_need(s), _req(s.n >= 6 and s.n % 2 == 0, "n must be even and at least 6")),
    lambda s: 0,
    lambda n_max: (spec_for("Qn", n) for n in range(6, n_max + 1, 2)),
    lambda s: spec_for("Qn", s.n),
    lambda s: 2,
)
_register(
    "Ank", _build_Ank,
    lambda s: (_need(s, k=True), _req(s.n >= 5, "n must be at least 5"),
               _req(2 <= s.k <= s.n - 3, f"k must lie in [2, {s.n - 3}]")),
    lambda s: (s.n - s.k + 1) // 2 - 1,
    lambda n_max: (spec_for("Ank", n, k=k) for n in range(5, n_max + 1) for k in range(2, n - 2)),
    lambda s: spec_for("Ln", s.n),
    lambda s: 1,
)
_register(
    "Bnk", _build_Bnk,
    lambda s: (_need(s, k=True), _req(s.n >= 6 and s.n % 2 == 0, "n must be even and at least 6"),
               _req(2 <= s.k <= s.n - 3, f"k must lie in [2, {s.n - 3}]")),
    lambda s: (s.n - s.k) // 2 - 1,
    lambda n_max: (spec_for("Bnk", n, k=k) for n in range(6, n_max + 1, 2) for k in range(2, n - 2)),
    lambda s: spec_for("Qn", s.n),
    lambda s: 1,
)
_register(
    "Cn", _build_Cn,
    lambda s: (_need(s), _req(s.n >= 6 and s.n % 2 == 0, "n must be even and at least 6")),
    lambda s: s.n // 2 - 2,
    lambda n_max: (spec_for("Cn", n) for n in range(6, n_max + 1, 2)),
    lambda s: spec_for("Qn", s.n),
    # rank in the generated basis at generic alpha; the true rank is 2 and is
    # witnessed only after the change of variables onto Qn
    lambda s: 1,
)

# type t_1 -------------------------------------------------------------------

_register(
    "LsumC", _build_LsumC,
    lambda s: (_need(s), _req(s.n >= 4, "n must be at least 4")),
    lambda s: 0,
    lambda n_max: (spec_for("LsumC", n) for n in range(4, n_max + 1)),
    _self_class,
    lambda s: 3,
)
_register(
    "QsumC", _build_QsumC,
    lambda s: (_need(s), _req(s.n >= 7 and s.n % 2 == 1, "n must be odd and at least 7")),
    lambda s: 0,
    lambda n_max: (spec_for("QsumC", n) for n in range(7, n_max + 1, 2)),
    _self_class,
    lambda s: 3,
)
_register(
    "AsumC", _build_AsumC,
    lambda s: (_need(s, k=True), _req(s.n >= 6, "n must be at least 6"),
               _req(2 <= s.k <= s.n - 4, f"k must lie in [2, {s.n - 4}]")),
    lambda s: (s.n - s.k) // 2 - 1,
    lambda n_max: (spec_for("AsumC", n, k=k) for n in range(6, n_max + 1) for k in range(2, n - 3)),
    lambda s: spec_for("LsumC", s.n),
    lambda s: 2,
)
_register(
    "BsumC", _build_BsumC,
    lambda s: (_need(s, k=True), _req(s.n >= 7 and s.n % 2 == 1, "n must be odd and at least 7"),
               _req(2 <= s.k <= s.n - 5, f"k must lie in [2, {s.n - 5}]")),
    lambda s: (s.n - s.k - 1) // 2 - 1,
    lambda n_max: (spec_for("BsumC", n, k=k) for n in range(7, n_max + 1, 2) for k in range(2, n - 4)),
    lambda s: spec_for("QsumC", s.n),
    lambda s: 2,
    has_misprint=True,
)
_register(
    "LarrC", _build_LarrC,
    lambda s: (_need(s, l=True), _req(s.n >= 5, "n must be at least 5"),
               _req(2 <= s.l <= s.n - 3, f"l must lie in [2, {s.n - 3}]")),
    lambda s: 0,
    lambda n_max: (spec_for("LarrC", n, l=l) for n in range(5, n_max + 1) for l in range(2, n - 2)),
    lambda s: spec_for("LsumC", s.n),
    lambda s: 2,
    has_misprint=True,
)
_register(
    "AarrC", _build_AarrC,
    lambda s: (_need(s, k=True, l=True), _req(s.n >= 6, "n must be at least 6"),
               _req(2 <= s.k <= s.n - 4, f"k must lie in [2, {s.n - 4}]"),
               _req(2 <= s.l <= s.n - 3, f"l must lie in [2, {s.n - 3}]")),
    lambda s: (s.n - s.k) // 2 - 1,
    lambda n_max: (spec_for("AarrC", n, k=k, l=l)
                   for n in range(6, n_max + 1) for k in range(2, n - 3) for l in range(2, n - 2)),
    lambda s: spec_for("LsumC", s.n),
    lambda s: 1,
    has_misprint=True,
)


# Even shifts break the Jacobi identity against the symplectic pairs
# ([[Yj,Y_{n-1}],Yi] and [[Y_{n-1},Yi],Yj] add up instead of cancelling on
# pairs with i+j = n-2-l), so only odd l gives a Lie algebra.
def _odd_l_sound(s: FamilySpec) -> bool:
    return s.l % 2 == 1


_register(
    "QarrCa", _build_QarrCa,
    lambda s: (_need(s, l=True), _req(s.n >= 7 and s.n % 2 == 1, "n must be odd and at least 7"),
               _req(2 <= s.l <= s.n - 4, f"l must lie in [2, {s.n - 4}]")),
    lambda s: 0,
    lambda n_max: (spec_for("QarrCa", n, l=l)
                   for n in range(7, n_max + 1, 2) for l in range(2, n - 3)),
    lambda s: spec_for("QsumC", s.n),
    lambda s: 2,
    sound=_odd_l_sound,
)
_register(
    "BarrCa", _build_BarrCa,
    lambda s: (_need(s, k=True, l=True), _req(s.n >= 7 and s.n % 2 == 1, "n must be odd and at least 7"),
               _req(2 <= s.k <= s.n - 5, f"k must lie in [2, {s.n - 5}]"),
               _req(2 <= s.l <= s.n - 4, f"l must lie in [2, {s.n - 4}]")),
    lambda s: (s.n - s.k - 1) // 2 - 1,
    lambda n_max: (spec_for("BarrCa", n, k=k, l=l)
                   for n in range(7, n_max + 1, 2) for k in range(2, n - 4) for l in range(2, n - 3)),
    lambda s: spec_for("QsumC", s.n),
    lambda s: 1,
    sound=_odd_l_sound,
)
_register(
    "QarrCb", _build_QarrCb,
    lambda s: (_need(s, l=True), _req(s.n >= 7 and s.n % 2 == 1, "n must be odd and at least 7"),
               _req(2 <= s.l <= s.n - 4, f"l must lie in [2, {s.n - 4}]")),
    lambda s: 0,
    lambda n_max: (spec_for("QarrCb", n, l=l)
                   for n in range(7, n_max + 1, 2) for l in range(2, n - 3)),
    lambda s: spec_for("QsumC", s.n),
    lambda s: 1,
    has_misprint=True,
    sound=_odd_l_sound,
)
_register(
    "QarrCc", _build_QarrCc,
    lambda s: (_need(s), _req(s.n >= 7 and s.n % 2 == 1, "n must be odd and at least 7")),
    lambda s: 0,
    lambda n_max: (spec_for("QarrCc", n) for n in range(7, n_max + 1, 2)),
    lambda s: spec_for("QsumC", s.n),
    lambda s: 2,
    has_misprint=True,
)
_register(
    "BarrCc", _build_BarrCc,
    lambda s: (_need(s, k=True), _req(s.n >= 7 and s.n % 2 == 1, "n must be odd and at least 7"),
               _req(2 <= s.k <= s.n - 5, f"k must lie in [2, {s.n - 5}]")),
    lambda s: (s.n - s.k - 1) // 2 - 1,
    lambda n_max: (spec_for("BarrCc", n, k=k) for n in range(7, n_max + 1, 2) for k in range(2, n - 4)),
    lambda s: spec_for("QsumC", s.n),
    # the published rank partition lists this family as rank 2, but with any
    # alpha bracket present the weight system pins w1 = k*w0 and the diagonal
    # family is one-dimensional (and f has distinct eigenvalues, so the torus
    # is exactly that family)
    lambda s: 1,
)

# type t_r -------------------------------------------------------------------

_register(
    "Lnr", _build_Lnr,
    lambda s: (_need(s, r=True), _validate_lnr_pair(s.n, s.r)),
    lambda s: 0,
    lambda n_max: (spec_for("Lnr", n, r=r)
                   for n in range(5, n_max + 1) for r in range(3, _lnr_r_max(n) + 1, 2)),
    _self_class,
    lambda s: 2,
)
_register(
    "Qnr", _build_Qnr,
    lambda s: (_need(s, r=True), _validate_qnr_pair(s.n, s.r)),
    lambda s: 0,
    lambda n_max: (spec_for("Qnr", n, r=r)
                   for n in range(7, n_max + 1, 2) for r in range(3, n - 3, 2)),
    _self_class,
    lambda s: 2,
)
_register(
    "Tn4", _build_Tn4,
    lambda s: (_need(s), _req(s.n >= 7 and s.n % 2 == 1, "n must be odd and at least 7")),
    lambda s: 0,
    lambda n_max: (spec_for("Tn4", n) for n in range(7, n_max + 1, 2)),
    _self_class,
    lambda s: 2,
)
_register(
    "Tn3", _build_Tn3,
    lambda s: (_need(s), _req(s.n >= 6 and s.n % 2 == 0, "n must be even and at least 6")),
    lambda s: 0,
    lambda n_max: (spec_for("Tn3", n) for n in range(6, n_max + 1, 2)),
    _self_class,
    lambda s: 2,
)
_register(
    "Cnrk", _build_Cnrk,
    lambda s: (_need(s, r=True, k=True), _validate_lnr_pair(s.n, s.r),
               _req(2 <= s.k <= s.n - 4, f"k must lie in [2, {s.n - 4}]")),
    lambda s: (s.n - s.k) // 2 - 1,
    lambda n_max: (spec_for("Cnrk", n, r=r, k=k)
                   for n in range(5, n_max + 1) for r in range(3, _lnr_r_max(n) + 1, 2)
                   for k in range(2, n - 3)),
    lambda s: spec_for("Lnr", s.n, r=s.r),
    lambda s: 1,
)
# The extension [Y_m, Y_{n-1}] collides with the sum-r pairs: the Jacobi
# triple (Y_i, Y_{r-i}, Y_m) leaves the bare residual (-1)^i Y_{m+2k+r-1}
# whenever the source m avoids the pair {i, r-i}.  A Lie algebra therefore
# survives only for r = 3 with at most the sources {1, 2}, i.e. the single
# maximal k = floor((n-5)/2) of the printed k range.
def _dnrk_sound(s: FamilySpec) -> bool:
    return s.r == 3 and s.k == (s.n - 5) // 2


_register(
    "Dnrk", _build_Dnrk,
    lambda s: (_need(s, r=True, k=True), _validate_lnr_pair(s.n, s.r),
               _req(1 <= s.k <= (s.n - s.r - 2) // 2, f"k must lie in [1, {(s.n - s.r - 2) // 2}]")),
    lambda s: 0,
    lambda n_max: (spec_for("Dnrk", n, r=r, k=k)
                   for n in range(5, n_max + 1) for r in range(3, _lnr_r_max(n) + 1, 2)
                   for k in range(1, (n - r - 2) // 2 + 1)),
    lambda s: spec_for("Lnr", s.n, r=s.r),
    lambda s: 1,
    sound=_dnrk_sound,
)
_register(
    "Enrk", _build_Enrk,
    lambda s: (_need(s, r=True, k=True), _validate_qnr_pair(s.n, s.r),
               _req(2 <= s.k <= s.n - 5, f"k must lie in [2, {s.n - 5}]")),
    lambda s: (s.n - s.k - 1) // 2 - 1,
    lambda n_max: (spec_for("Enrk", n, r=r, k=k)
                   for n in range(7, n_max + 1, 2) for r in range(3, n - 3, 2)
                   for k in range(2, n - 4)),
    lambda s: spec_for("Qnr", s.n, r=s.r),
    lambda s: 1,
)
# No tuple of this family closes as a Lie algebra: beyond the D-type
# pair/extension collisions, the triple (Y_i, Y_{r-i}, Y_{n-1}) couples the
# extension to the sum-(n-2) pairs and forces (pair coeff)*(ext coeff) = 0,
# while the chain triples force the extension coefficients equal and nonzero.
# The family is kept constructible so the inconsistency can be demonstrated.
def _fnrk_sound(s: FamilySpec) -> bool:
    return False


_register(
    "Fnrk", _build_Fnrk,
    lambda s: (_need(s, r=True, k=True), _validate_qnr_pair(s.n, s.r),
               _req(1 <= s.k <= (s.n - s.r - 4) // 2, f"k must lie in [1, {(s.n - s.r - 4) // 2}]")),
    lambda s: 0,
    lambda n_max: (spec_for("Fnrk", n, r=r, k=k)
                   for n in range(7, n_max + 1, 2) for r in range(3, n - 3, 2)
                   for k in range(1, (n - r - 4) // 2 + 1)),
    lambda s: spec_for("Qnr", s.n, r=s.r),
    lambda s: 1,
    sound=_fnrk_sound,
)


def _validate_gnrk(s: FamilySpec) -> None:
    _req(s.n >= 9 and s.n % 2 == 1, "n must be odd and at least 9")
    _req(s.r is None or s.r == s.n - 4, "r is fixed to n-4 for this family")
    _req(s.k is not None and 2 <= s.k <= s.n - 6, f"k must lie in [2, {s.n - 6}]")
    _req(s.l is None, "l not accepted")


def _validate_hnrk(s: FamilySpec) -> None:
    _req(s.n >= 8 and s.n % 2 == 0, "n must be even and at least 8")
    _req(s.r is None or s.r == s.n - 3, "r is fixed to n-3 for this family")
    _req(s.k is not None and 2 <= s.k <= s.n - 5, f"k must lie in [2, {s.n - 5}]")
    _req(s.l is None, "l not accepted")


_register(
    "Gnrk", _build_Gnrk,
    _validate_gnrk,
    lambda s: (s.n - s.k - 2) // 2 - 1,
    lambda n_max: (spec_for("Gnrk", n, r=n - 4, k=k)
                   for n in range(9, n_max + 1, 2) for k in range(2, n - 5)),
    lambda s: spec_for("Tn4", s.n),
    lambda s: 1,
    has_misprint=True,
)
_register(
    "Hnrk", _build_Hnrk,
    _validate_hnrk,
    lambda s: (s.n - s.k - 1) // 2 - 1,
    lambda n_max: (spec_for("Hnrk", n, r=n - 3, k=k)
                   for n in range(8, n_max + 1, 2) for k in range(2, n - 4)),
    lambda s: spec_for("Tn3", s.n),
    lambda s: 1,
)

for _token, _build, _dim in (("E951", _build_E951, 9), ("E952", _build_E952, 9),
                             ("E953", _build_E953, 9), ("E73", _build_E73, 7)):
    _register(
        _token, _build,
        (lambda d: (lambda s: (_need(s), _req(s.n == d, f"n is fixed to {d}"))))(_dim),
        lambda s: 0,
        (lambda tok, d: (lambda n_max: iter([spec_for(tok, d)] if n_max >= d else [])))(_token, _dim),
        _self_class,
        lambda s: 1,
    )


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def family_def(token: str) -> FamilyDef:
    try:
        return FAMILIES[token]
    except KeyError:
        raise UnknownFamilyError(f"unknown family token {token!r}") from None


def validate_spec(spec: FamilySpec) -> None:
    fam = family_def(spec.family)
    fam.validate(spec)
    if spec.alphas is not None:
        expected = fam.alpha_count(spec)
        _req(len(spec.alphas) == expected,
             f"{spec.family} at n={spec.n} expects {expected} alpha values, got {len(spec.alphas)}")


def alpha_count(spec: FamilySpec) -> int:
    fam = family_def(spec.family)
    fam.validate(spec)
    return fam.alpha_count(spec)


def generate(spec: FamilySpec, misprint: bool = False) -> Algebra:
    """Build the algebra of a catalog family.

    Families with all-integer parameters come out over an empty parameter
    universe; parametric families come out symbolic in a1..a_{t-1} unless the
    spec carries concrete alpha values, in which case they are substituted.
    ``misprint=True`` selects the documented known-bad variant where one
    exists (LarrC, AarrC, BsumC, Gnrk) and is rejected otherwise.
    """
    fam = family_def(spec.family)
    validate_spec(spec)
    if misprint and not fam.has_misprint:
        raise InvalidParametersError(f"{spec.family} has no documented misprint variant")
    dim, params, table = fam.build(spec, misprint)
    algebra = Algebra(dim, table, params=params)
    if spec.alphas is not None and params:
        assignment = {name: value for name, value in zip(params, spec.alphas)}
        algebra = algebra.specialize(assignment)
    return algebra


def natural_gr_class(spec: FamilySpec) -> FamilySpec:
    """The naturally graded class the family degenerates to under gr."""
    fam = family_def(spec.family)
    fam.validate(spec)
    return fam.gr_class(spec)


def expected_rank(spec: FamilySpec) -> int:
    """Dimension of the diagonal derivation space in the generated basis at
    generic parameter values (every alpha nonzero where alphas exist)."""
    fam = family_def(spec.family)
    fam.validate(spec)
    return fam.rank(spec)


def valid_tuples(token: str, n_max: int) -> Iterator[FamilySpec]:
    """All integer-parameter tuples inside the printed ranges with n <= n_max."""
    return family_def(token).tuples(n_max)


def is_sound(spec: FamilySpec) -> bool:
    """Whether the tuple lies in the family's Lie-sound subdomain.

    For most families this is the whole printed range; for the shifted
    Q-extensions it additionally requires l odd, for Dnrk it pins (r, k), and
    for Fnrk it is empty (see the family notes).
    """
    fam = family_def(spec.family)
    fam.validate(spec)
    return fam.sound(spec)


def sound_tuples(token: str, n_max: int) -> Iterator[FamilySpec]:
    """The printed tuples on which the table is (or can be, for parametric
    families) an actual Lie algebra."""
    fam = family_def(token)
    return (spec for spec in fam.tuples(n_max) if fam.sound(spec))


def all_family_tokens() -> tuple[str, ...]:
    return tuple(FAMILIES)


NONPARAMETRIC_TOKENS = tuple(
    token for token in FAMILIES
    if token not in ("Ank", "Bnk", "Cn", "AsumC", "BsumC", "AarrC", "BarrCa",
                     "BarrCc", "Cnrk", "Enrk", "Gnrk", "Hnrk")
)

# the quasi-filiform families admitting a nonzero torus of derivations
NONZERO_RANK_TOKENS = (
    "LsumC", "AsumC", "LarrC", "AarrC",
    "QsumC", "BsumC", "QarrCa", "BarrCa", "QarrCb", "QarrCc", "BarrCc",
    "Lnr", "Cnrk", "Dnrk",
    "Qnr", "Enrk", "Fnrk",
    "Tn4", "Gnrk",
    "Tn3", "Hnrk",
    "E951", "E952", "E953", "E73",
)


def prop4_entries(n: int) -> list[FamilySpec]:
    """The naturally graded quasi-filiform catalog at a fixed dimension."""
    out: list[FamilySpec] = []
    if n >= 4:
        out.append(spec_for("LsumC", n))
    if n >= 7 and n % 2 == 1:
        out.append(spec_for("QsumC", n))
    if n >= 5:
        out.extend(spec_for("Lnr", n, r=r) for r in range(3, _lnr_r_max(n) + 1, 2))
    if n >= 7 and n % 2 == 1:
        out.extend(spec_for("Qnr", n, r=r) for r in range(3, n - 3, 2))
        out.append(spec_for("Tn4", n))
    if n >= 6 and n % 2 == 0:
        out.append(spec_for("Tn3", n))
    if n == 9:
        out.extend([spec_for("E951", 9), spec_for("E952", 9), spec_for("E953", 9)])
    if n == 7:
        out.append(spec_for("E73", 7))
    return out


# ---------------------------------------------------------------------------
# Jacobi constraint extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstraintSet:
    """Canonical generators of the Jacobi constraints on the alpha values."""

    params: tuple[str, ...]
    generators: tuple[Poly, ...]

    def is_satisfied_by(self, alphas: Sequence) -> bool:
        assignment = {name: rat(v) for name, v in zip(self.params, alphas)}
        return all(g.evaluate(assignment) == 0 for g in self.generators)

    def has_constant_generator(self) -> bool:
        return any(g.is_constant() and not g.is_zero() for g in self.generators)

    def vanishes_at_zero(self) -> bool:
        return all(g.constant_term() == 0 for g in self.generators)


def _canonical_generator(poly: Poly) -> Poly:
    nums = [c for _, c in poly.terms]
    lead = nums[0]
    scale = Fraction(1)
    denominator_lcm = 1
    numerator_gcd = 0
    for c in nums:
        denominator_lcm = denominator_lcm * c.denominator // gcd(denominator_lcm, c.denominator)
        numerator_gcd = gcd(numerator_gcd, c.numerator)
    if numerator_gcd:
        scale = Fraction(denominator_lcm, numerator_gcd)
    if lead < 0:
        scale = -scale
    return poly * scale


def extract_constraints(spec: FamilySpec, misprint: bool = False) -> ConstraintSet:
    """Deduplicated polynomial generators whose common zeros are exactly the
    alpha assignments for which the family is a Lie algebra."""
    from qflab.liealg import jacobi_check

    symbolic = FamilySpec(spec.family, spec.n, spec.r, spec.k, spec.l, None)
    algebra = generate(symbolic, misprint=misprint)
    report = jacobi_check(algebra)
    seen = {}
    for components in report.residuals.values():
        for poly in components.values():
            g = _canonical_generator(poly)
            seen[g.terms] = g
    generators = tuple(sorted(seen.values(), key=lambda g: (g.total_degree(), len(g.terms), str(g))))
    return ConstraintSet(algebra.params, generators)


_SAMPLE_POOL = (
    lambda m: [Fraction(1)] * m,
    lambda m: [Fraction(1, i + 1) for i in range(m)],
    lambda m: [Fraction((-1) ** i) for i in range(m)],
    lambda m: [Fraction(i + 1) for i in range(m)],
    lambda m: [Fraction(1)] + [Fraction(0)] * (m - 1),
    lambda m: [Fraction(2), Fraction(1)] + [Fraction(0)] * (m - 2) if m >= 2 else [Fraction(2)],
)


def _rational_roots(poly: Poly, name: str) -> list[Fraction]:
    """Rational roots of a univariate polynomial of degree <= 2."""
    coeffs = {}
    idx = poly.params.index(name)
    for mono, c in poly.terms:
        if any(e and i != idx for i, e in enumerate(mono)):
            return []
        coeffs[mono[idx]] = coeffs.get(mono[idx], Fraction(0)) + c
    deg = max(coeffs, default=0)
    a2, a1, a0 = coeffs.get(2, Fraction(0)), coeffs.get(1, Fraction(0)), coeffs.get(0, Fraction(0))
    if deg <= 0:
        return []
    if a2 == 0:
        return [-a0 / a1] if a1 != 0 else []
    disc = a1 * a1 - 4 * a2 * a0
    if disc < 0:
        return []
    num, den = disc.numerator, disc.denominator
    root_num = _isqrt_exact(num * den)
    if root_num is None:
        return []
    sq = Fraction(root_num, den)
    return [(-a1 + sq) / (2 * a2), (-a1 - sq) / (2 * a2)]


def _isqrt_exact(value: int) -> int | None:
    if value < 0:
        return None
    root = isqrt(value)
    return root if root * root == value else None


def sample_alphas(spec: FamilySpec, misprint: bool = False) -> tuple[Fraction, ...] | None:
    """A deterministic alpha assignment (nonzero where possible) satisfying
    the family's Jacobi constraints; None when the search finds no solution.

    Tries a fixed candidate pool first, then a one-variable rational-root
    search over the pool's base points (enough to solve every constraint set
    of the catalog that is solvable at all at desk scale).
    """
    count = alpha_count(spec)
    if count == 0:
        return ()
    constraints = extract_constraints(spec, misprint=misprint)
    for candidate in _SAMPLE_POOL:
        values = candidate(count)
        if all(v == 0 for v in values):
            continue
        if constraints.is_satisfied_by(values):
            return tuple(values)
    for base in ([Fraction(0)] * count, [Fraction(1)] * count):
        for v_idx in range(count):
            name = constraints.params[v_idx]
            roots: set[Fraction] = set()
            ok = True
            for g in constraints.generators:
                partial = {nm: base[i] for i, nm in enumerate(constraints.params) if i != v_idx}
                reduced = _substitute_partial(g, partial)
                if reduced.is_zero():
                    continue
                r = _rational_roots(reduced, name)
                if not r:
                    ok = False
                    break
                roots = roots & set(r) if roots else set(r)
                if not roots:
                    ok = False
                    break
            if ok and roots:
                for root in sorted(roots):
                    values = list(base)
                    values[v_idx] = root
                    if any(values) and constraints.is_satisfied_by(values):
                        return tuple(values)
    return None


def _substitute_partial(poly: Poly, assignment: Mapping[str, Fraction]) -> Poly:
    acc: dict[tuple, Fraction] = {}
    for mono, coeff in poly.terms:
        value = coeff
        new = list(mono)
        for i, name in enumerate(poly.params):
            if name in assignment and mono[i]:
                value *= assignment[name] ** mono[i]
                new[i] = 0
        key = tuple(new)
        acc[key] = acc.get(key, Fraction(0)) + value
    return Poly.from_map(poly.params, acc)


def sample_specs(token: str, n_max: int, per_family: int | None = None) -> list[FamilySpec]:
    """Concrete, Jacobi-valid representatives of a family up to n_max.

    Enumerates the Lie-sound tuples; parametric tuples get the first searched
    assignment that satisfies the constraint set (tuples where the search
    fails are skipped).
    """
    out: list[FamilySpec] = []
    for spec in sound_tuples(token, n_max):
        alphas = sample_alphas(spec)
        if alphas is None:
            continue
        out.append(spec.with_alphas(alphas) if alphas else spec)
        if per_family is not None and len(out) >= per_family:
            break
    return out


# ---------------------------------------------------------------------------
# Claimed diagonal derivations (weight vectors)
# ---------------------------------------------------------------------------

W2 = ("l0", "l1")
W3 = ("l0", "l1", "lx")


def _lin(params, c0, c1=0, cx=0) -> Poly:
    p = Poly.zero(params)
    if c0:
        p = p + Poly.variable(params, "l0") * rat(c0)
    if c1:
        p = p + Poly.variable(params, "l1") * rat(c1)
    if cx:
        p = p + Poly.variable(params, "lx") * rat(cx)
    return p


def claimed_weights(spec: FamilySpec, misprint: bool = False) -> tuple[Poly, ...]:
    """The classification's diagonal derivation for the family, as linear
    forms in the free eigenvalues (l0, l1 and, for rank-3 families, lx).

    ``misprint=True`` returns the documented bad diagonals for QarrCb (a
    stray unrelated symbol in one slot) and QarrCc (a product where a sum
    belongs); other families reject the flag.
    """
    fam = spec.family
    n, r, k, l = spec.n, spec.r, spec.k, spec.l
    validate_spec(spec)
    if misprint and fam not in ("QarrCb", "QarrCc"):
        raise InvalidParametersError(f"{fam} has no documented misprinted diagonal")

    if fam == "Ln":
        return tuple([_lin(W2, 1)] + [_lin(W2, i - 1, 1) for i in range(1, n)])
    if fam == "Ank":
        return tuple([_lin(W2, 1)] + [_lin(W2, k + i - 1) for i in range(1, n)])
    if fam == "Qn":
        return tuple([_lin(W2, 1)] + [_lin(W2, i - 1, 1) for i in range(1, n - 1)]
                     + [_lin(W2, n - 3, 2)])
    if fam == "Bnk":
        return tuple([_lin(W2, 1)] + [_lin(W2, k + i - 1) for i in range(1, n - 1)]
                     + [_lin(W2, n + 2 * k - 3)])
    if fam == "LsumC":
        return tuple([_lin(W3, 1)] + [_lin(W3, i - 1, 1) for i in range(1, n - 1)]
                     + [_lin(W3, 0, 0, 1)])
    if fam == "AsumC":
        return tuple([_lin(W3, 1)] + [_lin(W3, k + i - 1) for i in range(1, n - 1)]
                     + [_lin(W3, 0, 0, 1)])
    if fam == "LarrC":
        return tuple([_lin(W2, 1)] + [_lin(W2, i - 1, 1) for i in range(1, n - 1)]
                     + [_lin(W2, l)])
    if fam == "AarrC":
        return tuple([_lin(W2, 1)] + [_lin(W2, k + i - 1) for i in range(1, n - 1)]
                     + [_lin(W2, l)])
    if fam == "QsumC":
        return tuple([_lin(W3, 1)] + [_lin(W3, i - 1, 1) for i in range(1, n - 2)]
                     + [_lin(W3, n - 4, 2), _lin(W3, 0, 0, 1)])
    if fam == "BsumC":
        return tuple([_lin(W3, 1)] + [_lin(W3, k + i - 1) for i in range(1, n - 2)]
                     + [_lin(W3, n - 4 + 2 * k), _lin(W3, 0, 0, 1)])
    if fam == "QarrCa":
        return tuple([_lin(W2, 1)] + [_lin(W2, i - 1, 1) for i in range(1, n - 2)]
                     + [_lin(W2, n - 4, 2), _lin(W2, l)])
    if fam == "BarrCa":
        return tuple([_lin(W2, 1)] + [_lin(W2, k + i - 1) for i in range(1, n - 2)]
                     + [_lin(W2, n - 4 + 2 * k), _lin(W2, l)])
    if fam == "QarrCb":
        beta = Fraction(l - n + 5, 2)
        weights = [_lin(W2, 1)] + [_lin(W2, beta + i - 1) for i in range(1, n - 2)] \
            + [_lin(W2, n - 4 + 2 * beta), _lin(W2, n - 5 + 2 * beta)]
        if misprint:
            params = W2 + ("kp",)
            weights = [w.lift(params) for w in weights]
            weights[2] = Poly.variable(params, "kp") * Poly.variable(params, "l0") \
                + Poly.variable(params, "l0")
        return tuple(weights)
    if fam == "QarrCc":
        weights = [_lin(W2, 1)] + [_lin(W2, i - 1, 1) for i in range(1, n - 2)] \
            + [_lin(W2, n - 4, 2), _lin(W2, n - 5, 2)]
        if misprint:
            weights[n - 3] = (Poly.variable(W2, "l0") * Poly.variable(W2, "l1")) * (n - 4)
        return tuple(weights)
    if fam == "BarrCc":
        return tuple([_lin(W2, 1)] + [_lin(W2, k + i - 1) for i in range(1, n - 2)]
                     + [_lin(W2, n - 4 + 2 * k), _lin(W2, n - 5 + 2 * k)])
    if fam == "Lnr":
        return tuple([_lin(W2, 1)] + [_lin(W2, i - 1, 1) for i in range(1, n - 1)]
                     + [_lin(W2, r - 2, 2)])
    if fam == "Cnrk":
        return tuple([_lin(W2, 1)] + [_lin(W2, k + i - 1) for i in range(1, n - 1)]
                     + [_lin(W2, r - 2 + 2 * k)])
    if fam == "Dnrk":
        return tuple([_lin(W2, 1)] + [_lin(W2, Fraction(2 * k + 2 * i - 1, 2)) for i in range(1, n - 1)]
                     + [_lin(W2, r - 1 + 2 * k)])
    if fam == "Qnr":
        return tuple([_lin(W2, 1)] + [_lin(W2, i - 1, 1) for i in range(1, n - 2)]
                     + [_lin(W2, n - 4, 2), _lin(W2, r - 2, 2)])
    if fam == "Enrk":
        return tuple([_lin(W2, 1)] + [_lin(W2, k + i - 1) for i in range(1, n - 2)]
                     + [_lin(W2, n - 4 + 2 * k), _lin(W2, r - 2 + 2 * k)])
    if fam == "Fnrk":
        return tuple([_lin(W2, 1)] + [_lin(W2, Fraction(2 * k + 2 * i - 1, 2)) for i in range(1, n - 2)]
                     + [_lin(W2, n + 2 * k - 3), _lin(W2, r + 2 * k - 1)])
    if fam == "Tn4":
        return tuple([_lin(W2, 1)] + [_lin(W2, i - 1, 1) for i in range(1, n - 3)]
                     + [_lin(W2, n - 5, 2), _lin(W2, n - 4, 2), _lin(W2, n - 6, 2)])
    if fam == "Gnrk":
        return tuple([_lin(W2, 1)] + [_lin(W2, k + i - 1) for i in range(1, n - 3)]
                     + [_lin(W2, n - 5 + 2 * k), _lin(W2, n - 4 + 2 * k), _lin(W2, n - 6 + 2 * k)])
    if fam == "Tn3":
        return tuple([_lin(W2, 1)] + [_lin(W2, i - 1, 1) for i in range(1, n - 2)]
                     + [_lin(W2, n - 4, 2), _lin(W2, n - 5, 2)])
    if fam == "Hnrk":
        return tuple([_lin(W2, 1)] + [_lin(W2, k + i - 1) for i in range(1, n - 2)]
                     + [_lin(W2, n - 4 + 2 * k), _lin(W2, n - 5 + 2 * k)])
    if fam in ("E951", "E952", "E953"):
        return tuple(_lin(W2, c) for c in (1, 1, 2, 3, 4, 5, 6, 7, 5))
    if fam == "E73":
        return tuple(_lin(W2, c) for c in (1, 1, 2, 3, 4, 5, 3))
    raise UnknownFamilyError(f"no claimed diagonal recorded for family {fam!r}")
