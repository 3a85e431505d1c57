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

Ln, Qn, Tn4, Tn3, Cn and the special algebras are built whole.  Every other
family takes the table of the ``model`` named in its registry entry and adds
one piece to it; e below is the end of the model's chain [Y0, Y_i] = Y_{i+1}:

    (+)C      LsumC and QsumC are Ln and Qn in dimension n-1 (Y_{n-1} central)
    r-pairs   Lnr and Qnr add [Y_i, Y_{r-i}] = (-1)^(i-1) Y_{n-1} to them
    a_{i,j}   a deformation adds [Y_i, Y_j] = a_{i,j} Y_{i+j+k-1} on the range
              i + j <= e+1-k with t = (e+2-k)//2; its alpha count is the
              number of parameters of the table it makes
    shift     an extension adds [Y_i, Y_{n-1}] = Y_{i+shift} for i <= e-shift,
              where shift is l, 2k+r-2 or 2k+r-1

QarrCc adds [Y0, Y_{n-1}] = Y_{n-2} to QsumC, and Gnrk adds [Y1, Y_{n-1}] =
Y_{n-2} at k = 2 to its line.

A deformation (a family that adds the a_{i,j} line, and Gnrk) is built split:
its filiform part is the chain [Y0, Y_i] = Y_{i+1} for i < e plus the line,
one shared table of dimension e + 1 per (e, k, misprint) for every n, and
its rest is every other bracket, all constants.  The table is the part's
plus the rest, at the tuple's n (``Algebra._plus``), and the table records
that split, so ``jacobi_check(table)`` sums the part's own Jacobi sums once
for all the tuples that share it.

``DISCREPANCIES`` records every disagreement with the source.  The misprinted
tables and diagonals among them are generated corrected, and a tuple with
``misprint=True`` is the variant the source prints.  Each table misprint lives
in the one piece it corrupts: the shift of LarrC (and so of AarrC over it), the
line of BsumC and Tn4's deepest pair line under Gnrk.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isqrt, lcm
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Sequence

from qflab.exact import Poly, QflabError, _canonical, _integer_value, rat, rat_str
from qflab.liealg import Algebra


class InvalidParametersError(QflabError):
    pass


class UnknownFamilyError(QflabError):
    pass


@dataclass(frozen=True)
class FamilySpec:
    """A family token plus its integer parameters and optional alpha values.

    ``misprint`` selects the variant the source prints, for the families with a
    documented misprint: its table where the table is misprinted, its diagonal
    where the diagonal is, and the corrected one otherwise."""

    family: str
    n: int
    r: int | None = None
    k: int | None = None
    l: int | None = None
    alphas: tuple[Fraction, ...] | None = None
    misprint: bool = False

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
        if self.misprint:
            parts.append("misprint")
        return f"{self.family}(" + ",".join(parts) + ")"

    def with_alphas(self, alphas: Sequence) -> "FamilySpec":
        return replace(self, alphas=tuple(rat(a) for a in alphas))

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
    params: tuple[str, ...]
    values: Mapping

    def get(self, i: int, j: int) -> Poly:
        if i == j:
            return Poly.zero(self.params)
        if i > j:
            return -self.get(j, i)
        return self.values.get((i, j), Poly.zero(self.params))


# The table depends on its argument only, and its one caller,
# _filiform_part, asks for the same few bounds (14 bounds for the 97 parts of
# the sound tuples with n <= 17), so one table is built per bound and shared;
# its values are a read-only view.
@lru_cache(maxsize=64)
def aij_table(range_bound: int) -> AijTable:
    """Build the a_{i,j} table for pairs with i + j <= range_bound.

    The superdiagonal seeds are a_{i,i+1} = a_i, one per pair in the range,
    so i <= t - 1 with t = (range_bound + 1) // 2.  Values are computed by
    increasing gap via a_{i,j+1} = a_{i,j} - a_{i+1,j}, which solves the
    recurrence exactly on the imposed shells.
    """
    if range_bound < 1:
        raise InvalidParametersError("range_bound must be at least 1")
    params = alpha_names((range_bound - 1) // 2)
    zero = Poly.zero(params)
    values = {(i, i + 1): Poly.variable(params, name) for i, name in enumerate(params, 1)}
    gap = 2
    while 2 + gap <= range_bound:
        for i in range(1, range_bound):
            j = i + gap
            if i + j > range_bound:
                break
            v = values.get((i, j - 1), zero) - values.get((i + 1, j - 1), zero)
            if not v.is_zero():
                values[(i, j)] = v
        gap += 1
    return AijTable(range_bound, params, MappingProxyType(values))


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


def _chain_end(table: Table) -> int:
    """The index e that ends the chain: [Y0, Yi] = Y_{i+1} for 1 <= i < e."""
    e = 1
    while e + 1 in table.get((0, e), ()):
        e += 1
    return e


def _sum_pairs(table: Table, total: int, target: int, i_max: int, coeff: Callable[[int], object]) -> None:
    # [Y_i, Y_{total-i}] = coeff(i) * Y_target for 1 <= i <= i_max (i < total-i)
    for i in range(1, i_max + 1):
        j = total - i
        if j <= i:
            break
        _add(table, i, j, target, coeff(i))


def _sign(i: int) -> int:
    return (-1) ** (i - 1)


def _half(x: int) -> Fraction:
    return Fraction(x, 2)


# -- the models --------------------------------------------------------------


def _build_Ln(s: FamilySpec) -> tuple[tuple, Table]:
    t: Table = {}
    _chain(t, s.n - 2)
    return (), t


def _build_Qn(s: FamilySpec) -> tuple[tuple, Table]:
    n = s.n
    t: Table = {}
    _chain(t, n - 3)
    _sum_pairs(t, n - 1, n - 1, n // 2 - 1, _sign)
    return (), t


def _build_Cn(s: FamilySpec) -> tuple[tuple, Table]:
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
    return params, t


def _build_Tn4(s: FamilySpec) -> tuple[tuple, Table]:
    n = s.n
    t: Table = {}
    _chain(t, n - 5)
    _add(t, 0, n - 3, n - 2, 1)
    _add(t, 0, n - 1, n - 3, 1)
    _sum_pairs(t, n - 4, n - 1, (n - 5) // 2, _sign)
    _sum_pairs(t, n - 3, n - 3, (n - 5) // 2, lambda i: _sign(i) * _half(n - 3 - 2 * i))
    # the known-bad Gnrk reads (n-2-i)/2 in the deepest pair line, which
    # breaks the Jacobi identity by a constant; Tn4 itself has no such variant
    top = n - 2 if s.misprint else n - 3
    _sum_pairs(t, n - 2, n - 2, (n - 3) // 2, lambda i: ((-1) ** i) * (i - 1) * _half(top - i))
    return (), t


def _build_Tn3(s: FamilySpec) -> tuple[tuple, Table]:
    n = s.n
    t: Table = {}
    _chain(t, n - 4)
    _add(t, 0, n - 1, n - 2, 1)
    _sum_pairs(t, n - 3, n - 1, (n - 4) // 2, _sign)
    _sum_pairs(t, n - 2, n - 2, (n - 4) // 2, lambda i: _sign(i) * _half(n - 2 - 2 * i))
    return (), t


# -- the pieces added to a model ---------------------------------------------


def _model(s: FamilySpec, n: int | None = None) -> tuple[tuple, Table]:
    """A fresh table of the registry model of ``s``'s family, in dimension
    ``n`` (default ``s.n``), with the same r, k, l and misprint."""
    model = FAMILIES[s.family].model
    return FAMILIES[model].build(
        FamilySpec(model, s.n if n is None else n, s.r, s.k, s.l, s.alphas, s.misprint))


def _shift(s: FamilySpec, table: Table, shift: int) -> None:
    # [Y_i, Y_{n-1}] = Y_{i+shift} for 1 <= i <= e - shift, e the chain's end
    for i in range(1, _chain_end(table) - shift + 1):
        _add(table, i, s.n - 1, i + shift, 1)


def _sum_c(s: FamilySpec) -> tuple[tuple, Table]:
    # the model in dimension n-1, and Y_{n-1} central
    return _model(s, s.n - 1)


def _r_pairs(s: FamilySpec) -> tuple[tuple, Table]:
    # [Y_i, Y_{r-i}] = (-1)^(i-1) Y_{n-1} on the sum with C
    params, t = _model(s)
    _sum_pairs(t, s.r, s.n - 1, (s.r - 1) // 2, _sign)
    return params, t


def _central(s: FamilySpec) -> tuple[tuple, Table]:
    # [Y0, Y_{n-1}] = Y_{n-2} on the sum with C
    params, t = _model(s)
    _add(t, 0, s.n - 1, s.n - 2, 1)
    return params, t


def _shifted(s: FamilySpec) -> tuple[tuple, Table]:
    # the known-bad LarrC shifts by l-2 in place of l
    params, t = _model(s)
    _shift(s, t, FAMILIES[s.family].shift(s) - 2 * s.misprint)
    return params, t


def _deformation(s: FamilySpec) -> tuple[Algebra, Table]:
    """The model plus the a_{i,j} line, and the family's shift if it has one,
    split by ``_split``.

    A misprint belongs to the model when the model has a misprinted table
    (AarrC over LarrC), and to the line otherwise (BsumC)."""
    fam = FAMILIES[s.family]
    _, t = _model(s)
    if fam.shift:
        _shift(s, t, fam.shift(s))
    return _split(s, t, s.misprint and not FAMILIES[fam.model].misprinted_table)


def _build_Gnrk(s: FamilySpec) -> tuple[Algebra, Table]:
    # the misprint is Tn4's deepest pair line; k = 2 adds [Y1, Y_{n-1}] = Y_{n-2}
    _, t = _model(s)
    if s.k == 2:
        _add(t, 1, s.n - 1, s.n - 2, 1)
    return _split(s, t, False)


def _split(s: FamilySpec, table: Table, short: bool) -> tuple[Algebra, Table]:
    """The filiform part σ of a deformation and its rest ρ: σ is the chain
    [Y0, Y_i] = Y_{i+1} for i < e, e the end of the model's chain, plus the
    a_{i,j} line [Y_i, Y_j] = a_{i,j} Y_{i+j+k-1} for i + j <= e+1-k (so every
    such j lies below e), ``short`` for the known-bad BsumC line; ρ is
    ``table`` (a model with its pieces, all constants) less that chain,
    changed in place."""
    e = _chain_end(table)
    for i in range(1, e):
        entry = table[0, i]
        entry[i + 1] -= 1
        if not entry[i + 1]:
            del entry[i + 1]
            if not entry:
                del table[0, i]
    return _filiform_part(e, s.k, short), table


# A part does not depend on n: its keys are target-major (see Algebra._view),
# so its own Jacobi sums serve every table that contains it.  The 1,778 split
# tuples among the sound tuples with n <= 17 have 97 classes (e, k, short),
# and the families meet them in any order, so the memo keeps them all: 128
# parts at most, each with its view, its terms by target and its own raw sums
# (the 97 built from cold hold 2.82 MB under tracemalloc, the a_{i,j} tables
# they read included, about 29 KB a part).
@lru_cache(maxsize=128)
def _filiform_part(e: int, k: int, short: bool) -> Algebra:
    """σ in dimension e + 1: the chain of end e and the a_{i,j} line of offset
    k.  The known-bad BsumC (``short``) lands the superdiagonal brackets
    [Y_i, Y_{i+1}] one step short, at Y_{2i+k-1}."""
    aij = aij_table(e + 1 - k)
    one = Poly.const(aij.params, 1)
    table = {(0, i): {i + 1: one} for i in range(1, e)}
    for (i, j), coeff in aij.values.items():
        table[i, j] = {i + j + k - 1 - (short and j == i + 1): coeff}
    return Algebra(e + 1, table, aij.params)


def _fixed_table(brackets: Mapping) -> Callable:
    def build(s: FamilySpec) -> tuple[tuple, Table]:
        t: Table = {}
        _chain(t, s.n - 3)
        for (i, j), entry in brackets.items():
            for k, c in entry.items():
                _add(t, i, j, k, c)
        return (), t

    return build


_build_E951 = _fixed_table({
    (0, 8): {6: 1}, (2, 8): {7: -3}, (1, 4): {8: 1}, (1, 5): {6: 2},
    (1, 6): {7: 3}, (2, 3): {8: -1}, (2, 4): {6: -1}, (2, 5): {7: -1},
})
_build_E952 = _fixed_table({
    (0, 8): {6: 1}, (2, 8): {7: -1}, (1, 4): {8: 1}, (1, 5): {6: 2},
    (1, 6): {7: 1}, (2, 3): {8: -1}, (2, 4): {6: -1}, (2, 5): {7: 1},
    (3, 4): {7: -2},
})
_build_E953 = _fixed_table({
    (0, 8): {6: 1}, (1, 4): {8: 1}, (1, 5): {6: 2}, (2, 3): {8: -1},
    (2, 4): {6: -1}, (2, 5): {7: 2}, (3, 4): {7: -3},
})
_build_E73 = _fixed_table({
    (0, 6): {4: 1}, (2, 6): {5: -1}, (1, 2): {6: 1}, (1, 3): {4: 1},
    (1, 4): {5: 1},
})


# ---------------------------------------------------------------------------
# The family registry
# ---------------------------------------------------------------------------

EVEN, ODD = 0, 1
W2 = ("l0", "l1")
W3 = ("l0", "l1", "lx")


def _req(cond: bool, message: str) -> None:
    if not cond:
        raise InvalidParametersError(message)


def _always_sound(_s: FamilySpec) -> bool:
    return True


@dataclass(frozen=True)
class FamilyDef:
    """Everything recorded about one family.

    Validation, enumeration, the table, the alpha count, the gr-class and
    the claimed diagonal are all derived from these fields.  ``n`` runs from
    ``least`` (with the given parity, or only ``least`` itself when
    ``fixed``).  ``r``, ``k`` and ``l`` map a spec to the inclusive range of
    that parameter (``r`` is always odd, and the range of ``k`` may read
    ``r``); a family without a range takes no such parameter.

    ``build`` makes the table: its parameters and its brackets, or for a
    deformation its filiform part and the rest (see ``_split``).  A naturally
    graded model (Ln, Qn, Tn4, Tn3, the special algebras) and Cn build theirs
    whole; every other family adds one piece to the table of its ``model``
    (see the module docstring), and ``shift(spec)`` is the step of its chain
    shift where it has one.  The
    alpha count is the number of parameters of the symbolic table.

    The claimed diagonal is ``l0``, the chain ``(i-1)*l0 + l1`` and then
    ``tail(spec)``, linear forms given by their coefficients on
    ``(l0, l1, lx)``.  A family without a tail (a deformation) shares its
    model's, and ``l1(spec)`` pins ``l1 = c*l0``.  ``misprinted_table``
    marks a documented known-bad table variant and ``misprinted_diagonal``
    rewrites the diagonal into its documented known-bad form.
    """

    token: str
    build: Callable[[FamilySpec], tuple[tuple | Algebra, Table]]
    least: int
    rank: int  # in the generated basis at generic alpha
    gr: str
    parity: int | None = None
    fixed: bool = False
    r: Callable[[FamilySpec], tuple[int, int]] | None = None
    k: Callable[[FamilySpec], tuple[int, int]] | None = None
    l: Callable[[FamilySpec], tuple[int, int]] | None = None
    filiform: bool = False
    shift: Callable[[FamilySpec], int] | None = None
    tail: Callable[[FamilySpec], tuple[tuple, ...]] | None = None
    model: str | None = None
    l1: Callable[[FamilySpec], object] | None = None
    misprinted_table: bool = False
    misprinted_diagonal: Callable[[FamilySpec, list], list] | None = None
    # integer tuples inside the printed ranges on which the table actually
    # closes as a Lie algebra (for parametric families: on which the
    # constraint variety is nonempty)
    sound: Callable[[FamilySpec], bool] = _always_sound
    # replaces the checks derived from the ranges
    validator: Callable[[FamilySpec], None] | None = None

    def takes_n(self, n: int) -> bool:
        if self.fixed:
            return n == self.least
        return n >= self.least and (self.parity is None or n % 2 == self.parity)

    def validate(self, s: FamilySpec) -> None:
        if self.validator is not None:
            return self.validator(s)
        ranges = (("r", self.r), ("k", self.k), ("l", self.l))
        for name, bounds in ranges:
            _req((getattr(s, name) is not None) == (bounds is not None),
                 f"{s.family}: {name} {'required' if bounds else 'not accepted'}")
        if self.fixed:
            _req(self.takes_n(s.n), f"n is fixed to {self.least}")
        elif self.parity is None:
            _req(self.takes_n(s.n), f"n must be at least {self.least}")
        else:
            _req(self.takes_n(s.n), f"n must be {('even', 'odd')[self.parity]} and at least {self.least}")
        if self.r:
            _req(s.r % 2 == 1, "r must be odd")
        for name, bounds in ranges:
            if bounds:
                lo, hi = bounds(s)
                _req(lo <= getattr(s, name) <= hi, f"{name} must lie in [{lo}, {hi}]")

    def specs_at(self, n: int) -> Iterator[FamilySpec]:
        """The tuples inside the printed ranges at dimension n."""
        if not self.takes_n(n):
            return

        def values(bounds, partial, step=1):
            if bounds is None:
                return (None,)
            lo, hi = bounds(partial)
            return range(lo, hi + 1, step)

        for r in values(self.r, FamilySpec(self.token, n), 2):
            for k in values(self.k, FamilySpec(self.token, n, r)):
                for l in values(self.l, FamilySpec(self.token, n, r, k)):
                    yield FamilySpec(self.token, n, r, k, l)

    def tuples(self, n_max: int) -> Iterator[FamilySpec]:
        last = min(n_max, self.least) if self.fixed else n_max
        for n in range(self.least, last + 1):
            yield from self.specs_at(n)


# Even shifts break the Jacobi identity against the symplectic pairs
# ([[Yj,Y_{n-1}],Yi] and [[Y_{n-1},Yi],Yj] add up instead of cancelling on
# pairs with i+j = n-2-l), so only odd l gives a Lie algebra.
def _odd_l_sound(s: FamilySpec) -> bool:
    return s.l % 2 == 1


# The extension [Y_m, Y_{n-1}] collides with the sum-r pairs: the Jacobi
# triple (Y_i, Y_{r-i}, Y_m) leaves the bare residual (-1)^i Y_{m+2k+r-1}
# whenever the source m avoids the pair {i, r-i}.  A Lie algebra therefore
# survives only for r = 3 with at most the sources {1, 2}, i.e. the single
# maximal k = floor((n-5)/2) of the printed k range.
def _dnrk_sound(s: FamilySpec) -> bool:
    return s.r == 3 and s.k == (s.n - 5) // 2


# No tuple of Fnrk closes as a Lie algebra: beyond the D-type
# pair/extension collisions, the triple (Y_i, Y_{r-i}, Y_{n-1}) couples the
# extension to the sum-(n-2) pairs and forces (pair coeff)*(ext coeff) = 0,
# while the chain triples force the extension coefficients equal and nonzero.
# The family is kept constructible so the inconsistency can be demonstrated.
def _fnrk_sound(s: FamilySpec) -> bool:
    return False


# Gnrk and Hnrk accept an omitted r, so they check their ranges by hand.
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


def _stray_symbol(s: FamilySpec, weights: list) -> list:
    params = W2 + ("kp",)
    # kp comes last, so each monomial gains a trailing 0 and keeps its grlex place
    weights = [Poly(params, tuple((m + (0,), c) for m, c in w.terms)) for w in weights]
    weights[2] = Poly.variable(params, "kp") * Poly.variable(params, "l0") + Poly.variable(params, "l0")
    return weights


def _product_for_sum(s: FamilySpec, weights: list) -> list:
    weights[s.n - 3] = (Poly.variable(W2, "l0") * Poly.variable(W2, "l1")) * (s.n - 4)
    return weights


# the (n, r) ranges of Lnr and Qnr, shared by their rank-one deformations
_LNR = dict(least=5, r=lambda s: (3, 2 * ((s.n - 1) // 2) - 1))
_QNR = dict(least=7, parity=ODD, r=lambda s: (3, s.n - 4))

FAMILIES: dict[str, FamilyDef] = {fam.token: fam for fam in (
    # filiform ----------------------------------------------------------------
    FamilyDef("Ln", _build_Ln, least=3, rank=2, gr="Ln", filiform=True, tail=lambda s: ()),
    FamilyDef("Qn", _build_Qn, least=6, parity=EVEN, rank=2, gr="Qn", filiform=True,
              tail=lambda s: ((s.n - 3, 2),)),
    FamilyDef("Ank", _deformation, least=5, k=lambda s: (2, s.n - 3), rank=1, gr="Ln", filiform=True,
              model="Ln", l1=lambda s: s.k),
    FamilyDef("Bnk", _deformation, least=6, parity=EVEN, k=lambda s: (2, s.n - 3), rank=1, gr="Qn",
              filiform=True, model="Qn", l1=lambda s: s.k),
    # rank in the generated basis at generic alpha; the true rank is 2 and is
    # witnessed only after the change of variables onto Qn
    FamilyDef("Cn", _build_Cn, least=6, parity=EVEN, rank=1, gr="Qn", filiform=True),
    # type t_1 ----------------------------------------------------------------
    FamilyDef("LsumC", _sum_c, least=4, rank=3, gr="LsumC", model="Ln", tail=lambda s: ((0, 0, 1),)),
    FamilyDef("QsumC", _sum_c, least=7, parity=ODD, rank=3, gr="QsumC", model="Qn",
              tail=lambda s: ((s.n - 4, 2), (0, 0, 1))),
    FamilyDef("AsumC", _deformation, least=6, k=lambda s: (2, s.n - 4), rank=2, gr="LsumC",
              model="LsumC", l1=lambda s: s.k),
    FamilyDef("BsumC", _deformation, least=7, parity=ODD, k=lambda s: (2, s.n - 5), rank=2, gr="QsumC",
              model="QsumC", l1=lambda s: s.k, misprinted_table=True),
    FamilyDef("LarrC", _shifted, least=5, l=lambda s: (2, s.n - 3), rank=2, gr="LsumC", model="LsumC",
              shift=lambda s: s.l, tail=lambda s: ((s.l,),), misprinted_table=True),
    FamilyDef("AarrC", _deformation, least=6, k=lambda s: (2, s.n - 4), l=lambda s: (2, s.n - 3),
              rank=1, gr="LsumC", model="LarrC", l1=lambda s: s.k, misprinted_table=True),
    FamilyDef("QarrCa", _shifted, least=7, parity=ODD, l=lambda s: (2, s.n - 4), rank=2, gr="QsumC",
              model="QsumC", shift=lambda s: s.l, tail=lambda s: ((s.n - 4, 2), (s.l,)),
              sound=_odd_l_sound),
    FamilyDef("BarrCa", _deformation, least=7, parity=ODD, k=lambda s: (2, s.n - 5),
              l=lambda s: (2, s.n - 4), rank=1, gr="QsumC", model="QarrCa", l1=lambda s: s.k,
              sound=_odd_l_sound),
    FamilyDef("QarrCb", _shifted, least=7, parity=ODD, l=lambda s: (2, s.n - 4), rank=1,
              gr="QsumC", model="QarrCc", shift=lambda s: s.l, l1=lambda s: Fraction(s.l - s.n + 5, 2),
              misprinted_diagonal=_stray_symbol, sound=_odd_l_sound),
    FamilyDef("QarrCc", _central, least=7, parity=ODD, rank=2, gr="QsumC", model="QsumC",
              tail=lambda s: ((s.n - 4, 2), (s.n - 5, 2)), misprinted_diagonal=_product_for_sum),
    # any alpha bracket pins w1 = k*w0: rank 1, not the published 2 (see DISCREPANCIES)
    FamilyDef("BarrCc", _deformation, least=7, parity=ODD, k=lambda s: (2, s.n - 5), rank=1,
              gr="QsumC", model="QarrCc", l1=lambda s: s.k),
    # type t_r ----------------------------------------------------------------
    FamilyDef("Lnr", _r_pairs, **_LNR, rank=2, gr="Lnr", model="LsumC", tail=lambda s: ((s.r - 2, 2),)),
    FamilyDef("Qnr", _r_pairs, **_QNR, rank=2, gr="Qnr", model="QsumC",
              tail=lambda s: ((s.n - 4, 2), (s.r - 2, 2))),
    FamilyDef("Tn4", _build_Tn4, least=7, parity=ODD, rank=2, gr="Tn4",
              tail=lambda s: ((s.n - 5, 2), (s.n - 4, 2), (s.n - 6, 2))),
    FamilyDef("Tn3", _build_Tn3, least=6, parity=EVEN, rank=2, gr="Tn3",
              tail=lambda s: ((s.n - 4, 2), (s.n - 5, 2))),
    FamilyDef("Cnrk", _deformation, **_LNR, k=lambda s: (2, s.n - 4), rank=1, gr="Lnr",
              model="Lnr", shift=lambda s: 2 * s.k + s.r - 2, l1=lambda s: s.k),
    FamilyDef("Dnrk", _shifted, **_LNR, k=lambda s: (1, (s.n - s.r - 2) // 2), rank=1, gr="Lnr",
              model="Lnr", shift=lambda s: 2 * s.k + s.r - 1, l1=lambda s: Fraction(2 * s.k + 1, 2),
              sound=_dnrk_sound),
    FamilyDef("Enrk", _deformation, **_QNR, k=lambda s: (2, s.n - 5), rank=1, gr="Qnr",
              model="Qnr", shift=lambda s: 2 * s.k + s.r - 2, l1=lambda s: s.k),
    FamilyDef("Fnrk", _shifted, **_QNR, k=lambda s: (1, (s.n - s.r - 4) // 2), rank=1, gr="Qnr",
              model="Qnr", shift=lambda s: 2 * s.k + s.r - 1, l1=lambda s: Fraction(2 * s.k + 1, 2),
              sound=_fnrk_sound),
    FamilyDef("Gnrk", _build_Gnrk, least=9, parity=ODD, r=lambda s: (s.n - 4, s.n - 4),
              k=lambda s: (2, s.n - 6), rank=1, gr="Tn4", model="Tn4", l1=lambda s: s.k,
              misprinted_table=True, validator=_validate_gnrk),
    FamilyDef("Hnrk", _deformation, least=8, parity=EVEN, r=lambda s: (s.n - 3, s.n - 3),
              k=lambda s: (2, s.n - 5), rank=1, gr="Tn3", model="Tn3", l1=lambda s: s.k,
              validator=_validate_hnrk),
    FamilyDef("E951", _build_E951, least=9, fixed=True, rank=1, gr="E951",
              tail=lambda s: ((5,),), l1=lambda s: 1),
    FamilyDef("E952", _build_E952, least=9, fixed=True, rank=1, gr="E952",
              tail=lambda s: ((5,),), l1=lambda s: 1),
    FamilyDef("E953", _build_E953, least=9, fixed=True, rank=1, gr="E953",
              tail=lambda s: ((5,),), l1=lambda s: 1),
    FamilyDef("E73", _build_E73, least=7, fixed=True, rank=1, gr="E73",
              tail=lambda s: ((3,),), l1=lambda s: 1),
)}


# ---------------------------------------------------------------------------
# The discrepancy registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Discrepancy:
    """One disagreement with the source: its ``kind``, the published ``claim``, the ``tuples``
    that ``derivations.certify`` re-checks, and for a rank entry the published ``rank``."""

    families: tuple[str, ...]
    kind: str
    claim: str
    tuples: tuple[FamilySpec, ...]
    rank: int | None = None


DISCREPANCIES: tuple[Discrepancy, ...] = (
    *(Discrepancy((spec.family,), "misprint", claim, (spec,)) for spec, claim in (
        (spec_for("LarrC", 9, l=3), "[Y_i, Y_{n-1}] = Y_{i+l-2}: the extension shifts the chain by l-2"),
        (spec_for("AarrC", 9, k=2, l=3), "the LarrC extension with target Y_{i+l-2} under the a_{i,j} line"),
        (spec_for("BsumC", 9, k=2), "[Y_i, Y_{i+1}] = a_i Y_{2i+k-1}, one step short of Y_{2i+k}"),
        (spec_for("QarrCb", 9, l=3), "a stray symbol in the diagonal: w2 = kp*l0 + l0"),
        (spec_for("QarrCc", 9), "the weight of Y_{n-3} is (n-4)*l0*l1, where (n-4)*l0 + l1 belongs"),
        (spec_for("Gnrk", 9, r=5, k=3), "Tn4's deepest pair line reads (n-2-i)/2 for (n-3-i)/2"),
    )),
    Discrepancy(("QarrCa", "BarrCa", "QarrCb"), "range", "the extension shift l runs over [2, n-4]",
                tuple(s for t in ("QarrCa", "BarrCa", "QarrCb") for s in FAMILIES[t].tuples(9))),
    Discrepancy(("Dnrk",), "range", "k runs over [1, (n-r-2)/2] for every odd r",
                tuple(FAMILIES["Dnrk"].tuples(11))),
    Discrepancy(("Fnrk",), "unrealizable", "a Lie algebra for every k in [1, (n-r-4)/2]",
                tuple(FAMILIES["Fnrk"].tuples(13))),
    Discrepancy(("BarrCc",), "rank", "rank 2 in the published rank partition",
                tuple(spec_for("BarrCc", 2 * k + 3, k=k) for k in (2, 3, 4)), rank=2),
    Discrepancy(("Bnk",), "degenerate tuple", "k runs over [2, n-3]",
                tuple(spec_for("Bnk", n, k=n - 3) for n in range(6, 17, 2))),
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
    _req(not spec.misprint or fam.misprinted_table or fam.misprinted_diagonal,
         f"{spec.family} has no documented misprint")
    if spec.alphas is not None:
        expected = alpha_count(spec)
        _req(len(spec.alphas) == expected,
             f"{spec.family} at n={spec.n} expects {expected} alpha values, got {len(spec.alphas)}")


def alpha_count(spec: FamilySpec) -> int:
    """The number of alpha values of the tuple: the parameters of its table."""
    return len(_symbolic(_alpha_free(spec)).params)


def generate(spec: FamilySpec) -> Algebra:
    """Build the algebra of a catalog family.

    Families with all-integer parameters come out over an empty parameter
    universe; parametric families come out symbolic in a1..a_{t-1} unless the
    spec carries concrete alpha values, in which case they are substituted.
    A misprint tuple has the printed table of LarrC, AarrC, BsumC and Gnrk,
    and the corrected one of QarrCb and QarrCc, whose misprint is a diagonal.
    """
    validate_spec(spec)
    algebra = _symbolic(_alpha_free(spec))
    if spec.alphas is not None and algebra.params:
        algebra = algebra.specialize(dict(zip(algebra.params, spec.alphas)))
    return algebra


def _alpha_free(spec: FamilySpec) -> FamilySpec:
    return spec if spec.alphas is None else replace(spec, alphas=None)


# The calls on one tuple (its alpha count, table, constraints and weight
# audit) come one after the other, so a small memo serves them all.
@lru_cache(maxsize=8)
def _symbolic(symbolic: FamilySpec) -> Algebra:
    """The table of an alpha-free spec, built once and shared (it is
    immutable); where it has a filiform part (see ``_split``) it is the
    part's shared table plus the rest, and records that split."""
    validate_spec(symbolic)
    fam = FAMILIES[symbolic.family]
    if symbolic.misprint and not fam.misprinted_table:  # a misprinted diagonal
        symbolic = replace(symbolic, misprint=False)
    built, table = fam.build(symbolic)
    if isinstance(built, Algebra):
        return built._plus(table, symbolic.n)
    return Algebra(symbolic.n, table, params=built)


def natural_gr_class(spec: FamilySpec) -> FamilySpec:
    """The naturally graded class the family degenerates to under gr."""
    fam = family_def(spec.family)
    fam.validate(spec)
    return FamilySpec(fam.gr, spec.n, spec.r if FAMILIES[fam.gr].r else None)


def expected_rank(spec: FamilySpec) -> int:
    """Dimension of the diagonal derivation space in the generated basis at
    generic parameter values (every alpha nonzero where alphas exist).

    A deformation without a shift whose a_{i,j} line is empty (it takes no
    alpha, as Bnk at k = n-3) has its model's table, and so its model's rank."""
    fam = family_def(spec.family)
    fam.validate(spec)
    if fam.build is _deformation and not fam.shift and not alpha_count(spec):
        return FAMILIES[fam.model].rank
    return fam.rank


def sound_tuples(token: str, n_max: int) -> Iterator[FamilySpec]:
    """The printed tuples on which the table is (or can be, for parametric
    families) an actual Lie algebra."""
    fam = family_def(token)
    return (spec for spec in fam.tuples(n_max) if fam.sound(spec))


def all_family_tokens() -> tuple[str, ...]:
    return tuple(FAMILIES)


# the families whose least tuple takes no alpha
NONPARAMETRIC_TOKENS = tuple(
    token for token, fam in FAMILIES.items()
    if not alpha_count(next(s for n in itertools.count(fam.least) for s in fam.specs_at(n))))

# the quasi-filiform families admitting a nonzero torus of derivations
NONZERO_RANK_TOKENS = tuple(token for token, fam in FAMILIES.items() if not fam.filiform)


def graded_models(n: int) -> list[FamilySpec]:
    """The naturally graded models at a fixed dimension: the families that
    are their own gr-class, the filiform Ln and Qn included."""
    return [spec for token, fam in FAMILIES.items() if fam.gr == token for spec in fam.specs_at(n)]


def prop4_entries(n: int) -> list[FamilySpec]:
    """The naturally graded quasi-filiform catalog: the non-filiform models."""
    return [spec for spec in graded_models(n) if not FAMILIES[spec.family].filiform]


# ---------------------------------------------------------------------------
# Jacobi constraint extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstraintSet:
    """Canonical generators of the Jacobi constraints on the alpha values.

    ``extract_constraints`` hands out one object per distinct set, whose
    generators are shared with the other sets, and the alpha search is cached
    on it (``sample``).  So a set and its generators must never change after
    they are built; the frozen dataclass and the immutable ``Poly`` see to
    that."""

    params: tuple[str, ...]
    generators: tuple[Poly, ...]

    def is_satisfied_by(self, alphas: Sequence) -> bool:
        """Whether every generator vanishes at ``alphas``, decided in integers.

        The values are put over one denominator d once; each generator is
        then an integer sum (``exact._integer_value``) that vanishes exactly
        when the generator does.  Stops at the first nonzero generator."""
        if len(alphas) != len(self.params):
            raise InvalidParametersError(
                f"{len(alphas)} alpha values given for {len(self.params)} parameters")
        values = [rat(v) for v in alphas]
        d = lcm(*(v.denominator for v in values))
        nums = [v.numerator * (d // v.denominator) for v in values]
        return not any(_integer_value(g, nums, d)[0] for g in self.generators)

    @cached_property
    def sample(self) -> tuple[Fraction, ...] | None:
        """The first point of the alpha search (``_search_alphas``), searched
        once per set: ``()`` for a set with neither parameters nor generators,
        None when the search finds no point."""
        return _search_alphas(self)


def extract_constraints(spec: FamilySpec) -> ConstraintSet:
    """Deduplicated polynomial generators whose common zeros are exactly the
    alpha assignments for which the family is a Lie algebra.

    The alpha values of ``spec`` are ignored.  Tuples with equal sets get the
    same object (see ``_constraints_of``), so it must not be changed."""
    return _constraints_of(_alpha_free(spec))


# The sound tuples with n <= 17 give 389 distinct constraint sets of 562
# distinct generators, against 1,784 sets of 5,295 generators built, so each
# distinct value is kept once.  The tables hold weak references: an entry
# lives only while a set, the memo of _constraints_of or a caller holds it.
# A generator is keyed by the sorted terms of its primitive form, and a set
# by the sorted ids of its interned generators, so a lookup hashes no Poly
# and orders nothing: an id is unique while its generator lives, a live set
# holds its own, and the order is a function of the generators.  Tuples keep
# the keys small, and the coefficients (small integers) are shared Fractions.
_GENERATORS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_SETS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_fraction = lru_cache(maxsize=64)(Fraction)


def _interned(table: weakref.WeakValueDictionary, key, make: Callable):
    """The live value of ``key`` in ``table``, made by ``make()`` when there is none."""
    value = table.get(key)
    if value is None:
        value = table[key] = make()
    return value


@lru_cache(maxsize=1024)
def _constraints_of(symbolic: FamilySpec) -> ConstraintSet:
    """The constraint set of an alpha-free spec.  The Jacobi report is
    computed per tuple, split at the filiform part where the table has one;
    each generator is then looked up by its parameters and primitive integer
    form, and the set, ordered by (total degree, term count, text), by its
    parameters and its generators' ids, so that equal values are one shared
    object."""
    from qflab.liealg import jacobi_check

    algebra = _symbolic(symbolic)
    params = algebra.params
    seen = set()
    for components in jacobi_check(algebra).scaled.values():
        for coeffs in components.values():
            # primitive: coprime integer coefficients, the leading grlex one positive
            content = gcd(*coeffs.values())
            if coeffs[max(coeffs, key=lambda m: (sum(m), m))] < 0:
                content = -content
            seen.add(tuple(sorted((m, c // content) for m, c in coeffs.items())))
    generators = [_interned(_GENERATORS, (params, form), lambda: _canonical(
        params, ((m, _fraction(c)) for m, c in form))) for form in seen]
    return _interned(_SETS, (params, tuple(sorted(map(id, generators)))),
                     lambda: ConstraintSet(params, tuple(sorted(
                         generators, key=lambda g: (g.total_degree(), len(g.terms), str(g))))))


_SAMPLE_POOL = (
    lambda m: [Fraction(1)] * m,
    lambda m: [Fraction((-1) ** i) for i in range(m)],
    lambda m: [Fraction(i + 1) for i in range(m)],
    lambda m: [Fraction(1)] + [Fraction(0)] * (m - 1),
)


def _line_roots(generators: Sequence[Poly], idx: int, base: Fraction) -> list[Fraction]:
    """The ascending rational roots of the first generator that does not
    vanish on the line "parameter ``idx`` free, every other one = ``base``",
    where ``base`` is 0 or 1; none when every generator vanishes there.

    A restriction that is constant or of degree 3 or more has none: the
    search has no exact solver there, and reading only the low coefficients
    would solve a truncation instead (x^3 - x is not x).  No catalog
    constraint has degree above 2."""
    for g in generators:
        coeffs: dict[int, Fraction] = {}
        for mono, c in g.terms:
            if base or sum(mono) == mono[idx]:  # base 1 adds every term, base 0 the pure ones
                coeffs[mono[idx]] = coeffs.get(mono[idx], 0) + c
        coeffs = {d: c for d, c in coeffs.items() if c}
        if coeffs:
            break
    else:
        return []
    a0, a1, a2 = (coeffs.get(d, 0) for d in range(3))
    if max(coeffs) > 2 or not (a1 or a2):
        return []
    if not a2:
        return [-a0 / a1]
    disc = a1 * a1 - 4 * a2 * a0  # a rational square exactly when num * den is a square
    root = isqrt(disc.numerator * disc.denominator) if disc >= 0 else -1
    if root * root != disc.numerator * disc.denominator:
        return []
    sq = Fraction(root, disc.denominator)
    return sorted({(-a1 - sq) / (2 * a2), (-a1 + sq) / (2 * a2)})


def sample_alphas(spec: FamilySpec) -> tuple[Fraction, ...] | None:
    """A deterministic alpha assignment (nonzero where possible) satisfying
    the family's Jacobi constraints; None when the search finds no solution.

    This is ``extract_constraints(spec).sample``: the search reads the
    constraint set alone, so it runs once per distinct set, and the tuples
    that share a set share the answer (a tuple of Fractions, immutable).  An
    alpha-free tuple gets ``()`` when it is a Lie algebra and None otherwise.
    """
    return extract_constraints(spec).sample


def _search_alphas(constraints: ConstraintSet) -> tuple[Fraction, ...] | None:
    """The first nonzero point of one candidate stream that satisfies every
    constraint: the pool points, then for each base 0, then 1, and each
    alpha v, the roots of ``_line_roots`` on the line "alpha v free, every
    other alpha = base".  A point of that line satisfies the set only if it
    is a root of every restriction, so the first restriction that does not
    vanish already holds every solution on the line.  A set without
    parameters is solved by ``()`` exactly when it has no generator."""
    count = len(constraints.params)
    if not count:
        return None if constraints.generators else ()
    pool = (point(count) for point in _SAMPLE_POOL)
    lines = ([base] * v + [root] + [base] * (count - v - 1)
             for base in (Fraction(0), Fraction(1)) for v in range(count)
             for root in _line_roots(constraints.generators, v, base))
    return next((tuple(values) for values in itertools.chain(pool, lines)
                 if any(values) and constraints.is_satisfied_by(values)), None)


def sample_specs(token: str, n_max: int) -> Iterator[FamilySpec]:
    """Concrete, Jacobi-valid representatives of a family up to n_max.

    Enumerates the Lie-sound tuples; parametric tuples get the first searched
    assignment that satisfies the constraint set (tuples where the search
    fails are skipped).  Each tuple is sampled only when it is drawn, so a
    caller that generates it at once finds its table still in the memo.
    """
    for spec in sound_tuples(token, n_max):
        alphas = sample_alphas(spec)
        if alphas is not None:
            yield spec.with_alphas(alphas) if alphas else spec


# ---------------------------------------------------------------------------
# Claimed diagonal derivations (weight vectors)
# ---------------------------------------------------------------------------


# the forms repeat across tuples and a Poly is immutable; typed, so that a
# float never reads the entry of an equal int and skips rat()'s TypeError
@lru_cache(maxsize=1024, typed=True)
def _lin(params, c0, c1=0, cx=0) -> Poly:
    """The linear form c0*l0 + c1*l1 + cx*lx over ``params``, whose names
    come in that order, so l0, l1, lx is already descending grlex order."""
    terms = []
    for name, c in (("l0", c0), ("l1", c1), ("lx", cx)):
        if c:
            at = params.index(name)
            terms.append(((0,) * at + (1,) + (0,) * (len(params) - at - 1), rat(c)))
    return Poly(params, tuple(terms))


def claimed_weights(spec: FamilySpec) -> tuple[Poly, ...]:
    """The classification's diagonal derivation for the family, as linear
    forms in the free eigenvalues (l0, l1 and, for rank-3 families, lx).

    A misprint tuple of QarrCb or QarrCc has the documented bad diagonal (see
    ``DISCREPANCIES``); every other family has one diagonal.
    """
    validate_spec(spec)
    fam = FAMILIES[spec.family]
    tail_of = fam.tail or (fam.model and FAMILIES[fam.model].tail)
    if tail_of is None:
        raise UnknownFamilyError(f"no claimed diagonal recorded for family {spec.family!r}")
    tail = tail_of(spec)
    names = W3 if any(len(form) == 3 for form in tail) else W2
    c = None if fam.l1 is None else fam.l1(spec)

    def form(c0, c1=0, cx=0):
        return _lin(names, c0, c1, cx) if c is None else _lin(names, c0 + c1 * c, 0, cx)

    weights = [_lin(names, 1)] + [form(i - 1, 1) for i in range(1, spec.n - len(tail))] \
        + [form(*f) for f in tail]
    if spec.misprint and fam.misprinted_diagonal:
        weights = fam.misprinted_diagonal(spec, weights)
    return tuple(weights)
