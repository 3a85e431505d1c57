import random
from dataclasses import replace
from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import given, settings, strategies as st

from qflab import catalog, derivations, gradation, isomorphy, liealg
from qflab.exact import Poly, QflabError, SingularMatrixError, mat_mul
from qflab.liealg import (
    Algebra,
    DimensionMismatchError,
    abelian,
    change_of_basis,
    jacobi_check,
    rational_bracket,
)
import oracles


def L(n):
    return catalog.generate(catalog.spec_for("Ln", n))


def Q(n):
    return catalog.generate(catalog.spec_for("Qn", n))


def test_constructor_shares_constants_but_still_rejects_floats():
    with pytest.raises(TypeError):
        Algebra(3, {(0, 1): {2: 1}, (0, 2): {1: 1.0}})
    a = Algebra(4, {(0, 1): {2: 1}, (0, 2): {3: Fraction(1)}, (1, 2): {3: "1"}, (0, 3): {1: 2}})
    assert a.bracket_of(0, 1)[2] == a.bracket_of(0, 2)[3] == a.bracket_of(1, 2)[3] == Poly.const((), 1)
    assert a.bracket_of(0, 3)[1] == Poly.const((), 2)


def basis_vec(n, i):
    return [Fraction(1 if j == i else 0) for j in range(n)]


def constants(algebra):
    """The raw table {(i, j): {k: Fraction}} of a concrete algebra."""
    return {pair: {k: poly.constant_value() for k, poly in targets.items()}
            for pair, targets in algebra.table().items()}


def block_sum(a, b):
    """The block sum of two concrete algebras, built by the oracle."""
    return Algebra(a.dim + b.dim, oracles.block_sum(constants(a), a.dim, constants(b)))


def test_chain_bracket_example():
    a = L(4)
    out = rational_bracket(a, basis_vec(4, 0), basis_vec(4, 1))
    assert [str(p) for p in out] == ["0", "0", "1", "0"]


def test_q6_pair_bracket_example():
    a = Q(6)
    out = rational_bracket(a, basis_vec(6, 2), basis_vec(6, 3))
    assert [str(p) for p in out] == ["0", "0", "0", "0", "0", "-1"]


def test_bracket_antisymmetry_on_vectors():
    a = Q(8)
    rng = random.Random(3)
    for _ in range(10):
        x = [Fraction(rng.randint(-4, 4)) for _ in range(8)]
        y = [Fraction(rng.randint(-4, 4)) for _ in range(8)]
        xy = rational_bracket(a, x, y)
        yx = rational_bracket(a, y, x)
        assert any(xy)
        assert all(p + q == 0 for p, q in zip(xy, yx))
        assert not any(rational_bracket(a, x, x))


def test_change_of_basis_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        change_of_basis(L(4), [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(DimensionMismatchError):
        change_of_basis(L(4), [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1]])
    # a vector of the wrong length, on either side of the bracket
    for u, v in (([1, 0, 0], [0, 1, 0, 0]), ([1, 0, 0, 0], [0, 1, 0, 0, 0])):
        u, v = [Fraction(x) for x in u], [Fraction(x) for x in v]
        for args in ((u, v), (v, u)):
            with pytest.raises(DimensionMismatchError):
                rational_bracket(L(4), *args)


def test_basis_antisymmetry_identity():
    a = catalog.generate(catalog.spec_for("Tn4", 9))
    for i in range(9):
        for j in range(9):
            ij = a.bracket_of(i, j)
            ji = a.bracket_of(j, i)
            assert {k: -c for k, c in ij.items()} == ji or (not ij and not ji)


def test_jacobi_ln_all_small():
    for n in range(3, 18):
        assert jacobi_check(L(n)).ok


def test_jacobi_abelian():
    assert jacobi_check(abelian(5)).ok


def test_jacobi_corrupted_l4():
    # adding [X1,X3] = X2 to L4 breaks exactly two of the four triples,
    # with residuals enumerated by hand:
    #   J(X0,X1,X2) = [[X2,X0],X1] = [X1,X3] = X2
    #   J(X0,X1,X3) = [[X1,X3],X0] = [X2,X0] = -X3
    #   J(X0,X2,X3) = 0,  J(X1,X2,X3) = 0
    table = {(0, 1): {2: 1}, (0, 2): {3: 1}, (1, 3): {2: 1}}
    report = jacobi_check(Algebra(4, table))
    assert not report.ok
    assert set(report.residuals) == {(0, 1, 2), (0, 1, 3)}
    assert {k: str(v) for k, v in report.residuals[(0, 1, 2)].items()} == {2: "1"}
    assert {k: str(v) for k, v in report.residuals[(0, 1, 3)].items()} == {3: "-1"}


def test_change_of_basis_identity():
    a = Q(6)
    p = [[Fraction(1 if i == j else 0) for j in range(6)] for i in range(6)]
    assert change_of_basis(a, p) == a


def test_change_of_basis_scaling():
    a = L(4)
    p = [[Fraction(2 if i == j else 0) for j in range(4)] for i in range(4)]
    b = change_of_basis(a, p)
    for i, j, targets in a.brackets():
        scaled = {k: coeff * 2 for k, coeff in targets.items()}
        assert b.bracket_of(i, j) == scaled


def test_change_of_basis_singular():
    with pytest.raises(SingularMatrixError):
        change_of_basis(L(4), [[1, 0, 0, 0]] * 4)


def random_unimodular(n, rng):
    m = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = Fraction(rng.randint(-2, 2))
        for col in range(n):
            m[i][col] += c * m[j][col]
    rng.shuffle(m)
    return m


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_change_of_basis_composition(seed):
    rng = random.Random(seed)
    a = Q(6)
    p = random_unimodular(6, rng)
    q = random_unimodular(6, rng)
    assert change_of_basis(change_of_basis(a, p), q) == change_of_basis(a, mat_mul(q, p))


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_change_of_basis_preserves_jacobi(seed):
    rng = random.Random(seed)
    a = catalog.generate(catalog.spec_for("Tn3", 6))
    p = random_unimodular(6, rng)
    assert jacobi_check(change_of_basis(a, p)).ok
    bad = Algebra(4, {(0, 1): {2: 1}, (0, 2): {3: 1}, (1, 3): {2: 1}})
    pb = random_unimodular(4, rng)
    assert not jacobi_check(change_of_basis(bad, pb)).ok


def test_direct_sum_l4_plus_line():
    s = catalog.generate(catalog.spec_for("LsumC", 5))
    assert s.dim == 5
    assert s.table() == {(0, 1): {2: Poly.const((), 1)}, (0, 2): {3: Poly.const((), 1)}}
    assert s == block_sum(L(4), abelian(1))


def test_direct_sum_abelian():
    assert block_sum(abelian(2), abelian(3)) == abelian(5)


def test_direct_sum_dimension():
    assert block_sum(L(5), Q(6)).dim == 11


def test_extend_by_shift_q6_table():
    # QarrCa(7, l=2) appends to Q6 a generator X6 acting with shift 2 on the
    # chain {1..4}: [X1, X6] = X3 and [X2, X6] = X4 stay in range, [X3, X6]
    # would land on the top special element and is dropped
    e = catalog.generate(catalog.spec_for("QarrCa", 7, l=2))
    one = Poly.const((), 1)
    assert e.table() == {**Q(6).table(), (1, 6): {3: one}, (2, 6): {4: one}}
    assert e.bracket_of(1, 6) == {3: one}
    assert e.bracket_of(2, 6) == {4: one}
    assert e.bracket_of(3, 6) == {}


def test_extend_by_shift_matches_catalog_sound_instance():
    # the appended X8 acts on the chain by the shift: Q8's chain is X1..X6,
    # L8's is X1..X7
    one = Poly.const((), 1)
    qa = catalog.generate(catalog.spec_for("QarrCa", 9, l=3))
    assert qa.table() == {**Q(8).table(), (1, 8): {4: one}, (2, 8): {5: one}, (3, 8): {6: one}}
    la = catalog.generate(catalog.spec_for("LarrC", 9, l=4))
    assert la.table() == {**L(8).table(), (1, 8): {5: one}, (2, 8): {6: one}, (3, 8): {7: one}}


def test_extension_weight_additivity():
    # the claimed eigenvalue of the appended generator is s*l0; additivity
    # w_i + w_{n-1} = w_{i+s} must hold as linear forms
    for n, s in ((9, 2), (9, 5), (12, 3)):
        spec = catalog.spec_for("LarrC", n, l=s)
        weights = catalog.claimed_weights(spec)
        algebra = catalog.generate(spec)
        for i, j, targets in algebra.brackets():
            for k in targets:
                assert (weights[i] + weights[j] - weights[k]).is_zero()


def test_parametric_specialize_roundtrip():
    spec = catalog.spec_for("Ank", 9, k=2)
    sym = catalog.generate(spec)
    assert sym.params == ("a1", "a2", "a3")
    conc = sym.specialize({"a1": Fraction(1), "a2": Fraction(1), "a3": Fraction(1)})
    assert not conc.params
    assert conc == catalog.generate(spec.with_alphas([1, 1, 1]))


def _raw_residuals(algebra):
    return {triple: {b: dict(poly.terms) for b, poly in components.items()}
            for triple, components in jacobi_check(algebra).residuals.items()}


def _raw_table(algebra):
    return {pair: {k: dict(poly.terms) for k, poly in targets.items()}
            for pair, targets in algebra.table().items()}


def test_jacobi_matches_naive_oracle_on_catalog():
    from oracles import naive_jacobi

    checked = 0
    for token in catalog.all_family_tokens():
        variants = (False, True) if catalog.family_def(token).misprinted_table else (False,)
        for spec in catalog.family_def(token).tuples(10):
            for misprint in variants:
                algebra = catalog.generate(replace(spec, misprint=misprint))
                assert _raw_residuals(algebra) == naive_jacobi(_raw_table(algebra), algebra.dim), \
                    (spec, misprint)
                checked += 1
    assert checked > 300


@st.composite
def parametric_tables(draw):
    # up to 4 parameters and exponent 3, so a packed monomial spans several
    # digits of its base and a product reaches the largest digit 2d
    n = draw(st.integers(min_value=2, max_value=7))
    params = ("p", "q", "r", "s")[:draw(st.integers(min_value=0, max_value=4))]
    monomial = st.tuples(*[st.integers(min_value=0, max_value=3)] * len(params))
    coefficient = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
    poly = st.dictionaries(monomial, coefficient, min_size=1, max_size=3)
    targets = st.dictionaries(st.integers(min_value=0, max_value=n - 1), poly, max_size=3)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return n, params, draw(st.dictionaries(st.sampled_from(pairs), targets, max_size=2 * n))


@given(parametric_tables())
@settings(max_examples=100, deadline=None)
def test_jacobi_matches_naive_oracle_on_random_tables(drawn):
    from oracles import naive_jacobi

    n, params, raw = drawn
    table = {pair: {k: Poly.from_map(params, terms) for k, terms in targets.items()}
             for pair, targets in raw.items()}
    assert _raw_residuals(Algebra(n, table, params=params)) == naive_jacobi(raw, n)


@st.composite
def split_tables(draw):
    """A random parametric part of at most the table's dimension plus a
    constant rest, as ``Algebra._plus`` makes it: each slot inside the part's
    dimension goes to the part, to the rest, to both, or to both with the part
    holding a constant c that the rest's -c cancels; the others go to the
    rest."""
    n, params, raw = draw(parametric_tables())
    size = n - draw(st.integers(min_value=0, max_value=n))  # the part's dimension
    constant = st.fractions(min_value=-3, max_value=3, max_denominator=2).filter(bool)
    part, rest = {}, {}
    for pair, targets in raw.items():
        for k, terms in targets.items():
            inside = pair[1] < size and k < size
            where = draw(st.sampled_from(("part", "rest", "both", "cancel"))) if inside else "rest"
            if where == "cancel":
                c = draw(constant)
                part.setdefault(pair, {})[k] = Poly.const(params, c)
                rest.setdefault(pair, {})[k] = -c
                continue
            if where != "rest":
                part.setdefault(pair, {})[k] = Poly.from_map(params, terms)
            if where != "part":
                rest.setdefault(pair, {})[k] = draw(constant)
    return Algebra(size, part, params=params)._plus(rest, n)


@given(split_tables())
@settings(max_examples=150, deadline=None)
def test_split_jacobi_equals_the_whole_check(table):
    from oracles import naive_jacobi

    assert table._split is not None
    whole = liealg._jacobi(table).residuals
    assert jacobi_check(table).residuals == whole
    assert _raw_residuals(table) == naive_jacobi(_raw_table(table), table.dim)
    # the part's own sums are memoised, and a second check reads them again
    assert jacobi_check(table).residuals == whole


def test_split_jacobi_on_the_catalog_deformations():
    # every table built from a filiform part and a rest, printed and misprinted
    checked = 0
    for token in catalog.all_family_tokens():
        fam = catalog.family_def(token)
        for spec in fam.tuples(11):
            for misprint in (False, True) if fam.misprinted_table else (False,):
                algebra = catalog._symbolic(replace(spec, misprint=misprint))
                if algebra._split is not None:
                    report = jacobi_check(algebra)
                    assert report.residuals == liealg._jacobi(algebra).residuals, (spec, misprint)
                    checked += 1
    assert checked == 458


def test_the_split_does_not_outlive_plus():
    # a specialized table and a document read back are checked whole, and the
    # read-back table reports as the split one does
    from qflab.cli import algebra_to_doc, doc_to_algebra

    specs = (catalog.spec_for("AarrC", 9, k=2, l=2), catalog.spec_for("Cnrk", 10, r=7, k=2),
             catalog.spec_for("Enrk", 11, r=3, k=2))
    for spec in specs:
        table = catalog.generate(spec)
        assert table._split is not None, spec
        point = {name: Fraction(i + 1) for i, name in enumerate(table.params)}
        assert table.specialize(point)._split is None
        loaded = doc_to_algebra(algebra_to_doc(table))
        assert loaded._split is None and loaded == table, spec
        assert jacobi_check(loaded).lines() == jacobi_check(table).lines(), spec


def _check_against_oracle(algebra):
    from oracles import naive_jacobi

    report = jacobi_check(algebra)
    assert _raw_residuals(algebra) == naive_jacobi(_raw_table(algebra), algebra.dim)
    return report


def test_parametric_jacobi_of_an_empty_table():
    # no stored constant: the largest degree is read over nothing
    for n in (0, 1, 4):
        report = jacobi_check(Algebra(n, {}, params=("a1",)))
        assert report.ok and report.square == 1 and report.lines() == []


def test_parametric_jacobi_of_constants_under_declared_params():
    # every constant has degree 0, so the packing base is 1 and every code 0
    params = ("a1", "a2")
    one, two = Poly.const(params, 1), Poly.const(params, 2)
    algebra = Algebra(4, {(0, 1): {2: one}, (0, 2): {3: one}, (1, 3): {2: two}}, params=params)
    report = _check_against_oracle(algebra)
    assert report.lines() == ["J(X0,X1,X2)[X2] = 2", "J(X0,X1,X3)[X3] = -2"]
    assert all(m == (0, 0) for components in report.scaled.values()
               for coeffs in components.values() for m in coeffs)


def test_parametric_jacobi_with_shared_constants_and_full_digits():
    # one Poly object in several slots, read in both orders and negated; the
    # largest degree is 3, so the base is 7 and p^3 * p^3 fills a digit with 6
    params = ("p", "q", "r")
    p, q, r = (Poly.variable(params, name) for name in params)
    cube = p * p * p
    mixed = cube + q * r - 2
    table = {(0, 1): {2: cube, 3: mixed}, (0, 2): {3: cube, 4: mixed}, (0, 3): {4: cube},
             (1, 2): {4: mixed}, (1, 4): {2: cube}, (2, 3): {1: q}}
    algebra = Algebra(5, table, params=params)
    report = _check_against_oracle(algebra)
    assert not report.ok
    assert any(m[0] == 6 for components in report.scaled.values()
               for coeffs in components.values() for m in coeffs)


def test_parametric_jacobi_with_rational_coefficients():
    params = ("a1",)
    a = Poly.variable(params, "a1")
    half, third = a * Fraction(1, 2) + Fraction(2, 3), a * a * Fraction(-1, 3)
    table = {(0, 1): {2: half}, (0, 2): {3: third}, (1, 3): {2: half}, (1, 2): {3: third}}
    report = _check_against_oracle(Algebra(4, table, params=params))
    assert report.square == 36 and not report.ok
    # each report component is an integer times the square of the table's scale
    assert all(type(c) is int for components in report.scaled.values()
               for coeffs in components.values() for c in coeffs.values())


def test_concrete_change_of_basis_matches_oracle_bracket():
    from oracles import bracket_of_vectors

    rng = random.Random(31)
    for n in range(1, 10):
        for spec in catalog.prop4_entries(n):
            algebra = catalog.generate(spec)
            raw = constants(algebra)
            p = random_unimodular(n, rng)
            moved = change_of_basis(algebra, p)
            for a in range(n):
                for b in range(a + 1, n):
                    got = [Fraction(0)] * n
                    for t, c in moved.bracket_of(a, b).items():
                        for x in range(n):
                            got[x] += c.constant_value() * p[t][x]
                    assert got == bracket_of_vectors(raw, n, p[a], p[b]), (spec, a, b)


def random_rational_basis(n, rng):
    """A seeded invertible rational matrix with a non-integer entry, so not
    unimodular: the moved table has denominators."""
    while True:
        m = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        if oracles.dense_rank(m) == n and any(x.denominator > 1 for row in m for x in row):
            return m


def test_concrete_jacobi_matches_oracle_on_moved_broken_tables():
    # dense, rational tables that fail Jacobi: one constant of each catalog
    # entry corrupted, then moved through a rational basis
    from oracles import naive_jacobi

    rng = random.Random(16)
    checked = 0
    for n in range(1, 9):
        for spec in catalog.prop4_entries(n):
            while True:  # until the oracle sees the corrupted table fail
                table = catalog.generate(spec).table()
                i, j = sorted(rng.sample(range(n), 2))
                targets = table.setdefault((i, j), {})
                k = rng.randrange(n)
                targets[k] = targets.get(k, 0) + Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3))
                if naive_jacobi(_raw_table(Algebra(n, table)), n):
                    break
            moved = change_of_basis(Algebra(n, table), random_rational_basis(n, rng))
            report = jacobi_check(moved)
            assert not report.ok and report.square > 1, spec
            assert _raw_residuals(moved) == naive_jacobi(_raw_table(moved), n), spec
            checked += 1
    assert checked == sum(len(catalog.prop4_entries(n)) for n in range(1, 9)) > 10


def test_concrete_and_parametric_jacobi_agree_at_alpha_points():
    # the concrete report of a specialised table is the parametric report
    # evaluated there, zero components and triples dropped
    def points(count, spec):
        yield [Fraction(1)] * count
        yield [Fraction((-1) ** i * (i + 2), 3) for i in range(count)]
        yield [Fraction(0)] * (count - 1) + [Fraction(5, 2)]
        sampled = catalog.sample_alphas(spec)
        if sampled:
            yield list(sampled)

    outcomes = set()
    for token in catalog.all_family_tokens():
        for spec in catalog.family_def(token).tuples(10):
            symbolic = catalog.generate(spec)
            if not symbolic.params:
                continue
            parametric = jacobi_check(symbolic).residuals
            for alphas in points(len(symbolic.params), spec):
                at = dict(zip(symbolic.params, alphas))
                expected = {}
                for triple, components in parametric.items():
                    values = {b: poly.evaluate(at) for b, poly in components.items()}
                    values = {b: v for b, v in values.items() if v}
                    if values:
                        expected[triple] = values
                concrete = jacobi_check(catalog.generate(spec.with_alphas(alphas)))
                got = {triple: {b: poly.constant_value() for b, poly in components.items()}
                       for triple, components in concrete.residuals.items()}
                assert got == expected, (spec, alphas)
                outcomes.add(concrete.ok)
    assert outcomes == {True, False}


def _report_terms(report):
    return {triple: {b: dict(poly.terms) for b, poly in components.items()}
            for triple, components in report.residuals.items()}


def _targets_per_bracket(algebra):
    table = algebra.table()
    return sum(map(len, table.values())) / len(table)


def test_dense_jacobi_runs_in_the_adapted_basis_and_reports_the_given_one():
    # the gr-catalog entries at n = 9, 10 moved to a dense basis, as they are
    # and with one constant changed; a dense table computes its series, so a
    # miss of the series memo shows that the adapted path ran
    from oracles import naive_jacobi

    rng = random.Random(26)
    outcomes = []
    for n in (9, 10):
        for spec in catalog.prop4_entries(n):
            original = catalog.generate(spec)
            while True:  # until the oracle sees the changed table fail
                table = original.table()
                i, j = sorted(rng.sample(range(n), 2))
                targets = table.setdefault((i, j), {})
                k = rng.randrange(n)
                targets[k] = targets.get(k, 0) + Fraction(rng.choice((-2, -1, 1, 2)))
                if naive_jacobi(_raw_table(Algebra(n, table)), n):
                    break
            p = random_unimodular(n, rng)
            for algebra in (original, Algebra(n, table)):
                moved = change_of_basis(algebra, p)
                assert _targets_per_bracket(moved) > 3, spec
                misses = gradation._series.cache_info().misses
                report = jacobi_check(moved)
                assert gradation._series.cache_info().misses == misses + 1, spec
                assert _report_terms(report) == naive_jacobi(_raw_table(moved), n), spec
                assert report.square == moved.scaled_ad[0] ** 2
                outcomes.append(report.ok)
    assert outcomes == [True, False] * 16


def test_dense_non_nilpotent_jacobi_matches_oracle():
    # [X0, Xi] = i Xi for i >= 1, moved: its series stops at dimension 5, so
    # the adapted path gives way to the given basis without raising.  (With
    # [X0, Xi] = Xi every bracket is a combination of its two arguments, at
    # most two targets in any basis, so that table is never dense.)
    from oracles import naive_jacobi

    n = 6
    p = [[min(i, j) + 1 for j in range(n)] for i in range(n)]
    table = {(0, i): {i: i} for i in range(1, n)}
    broken = {**table, (1, 2): {4: 1}}  # J(X0, X1, X2) = -X4
    for raw, ok in ((table, True), (broken, False)):
        moved = change_of_basis(Algebra(n, raw), p)
        assert _targets_per_bracket(moved) > 3
        misses = gradation._series.cache_info().misses
        report = jacobi_check(moved)
        assert gradation._series.cache_info().misses == misses + 1
        assert report.ok == ok
        assert _report_terms(report) == naive_jacobi(_raw_table(moved), n)
    with pytest.raises(gradation.NonNilpotentError):
        gradation.series_adapted(moved)


def test_sparse_jacobi_leaves_the_series_memo_alone():
    for algebra in (Q(2000), catalog.generate(catalog.spec_for("Lnr", 9, 5))):
        before = gradation._series.cache_info()
        assert jacobi_check(algebra).ok
        after = gradation._series.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)


def _count_view_builds(monkeypatch) -> list:
    """The tables whose integer view is built from now on, once per build."""
    built = []
    build = Algebra._view.func

    def counting(algebra):
        built.append(algebra)
        return build(algebra)

    view = cached_property(counting)
    view.__set_name__(Algebra, "_view")
    monkeypatch.setattr(Algebra, "_view", view)
    return built


def test_jacobi_and_the_numeric_readers_share_one_view(monkeypatch):
    built = _count_view_builds(monkeypatch)
    gradation._series.cache_clear()
    # a fresh table, as the catalog memoises its own; Qn is adapted to its
    # series in the given basis, so dim Der reads this table too
    a = Algebra(10, Q(10).table())
    assert jacobi_check(a).ok
    gradation.lower_central_series(a)
    derivations.derivation_dim(a)
    assert len(built) == 1 and built[0] is a
    # a dense table that fails in its adapted basis builds its view once, for
    # its series, and is checked again in the given basis on that view
    base = catalog.generate(catalog.spec_for("Qnr", 11, 5))
    table = base.table()
    table[(2, 3)] = {**table[(2, 3)], 6: 1}
    p = [[min(i, j) + 1 for j in range(base.dim)] for i in range(base.dim)]
    moved = change_of_basis(Algebra(base.dim, table), p)
    built.clear()
    report = jacobi_check(moved)
    assert len(report) == 25 and report.square == moved.scaled_ad[0] ** 2
    assert [b is moved for b in built] == [True, False]  # the second: the adapted table


_NUMERIC_ENTRY_POINTS = {
    "rational_bracket": lambda a: rational_bracket(a, basis_vec(7, 0), basis_vec(7, 1)),
    "change_of_basis": lambda a: change_of_basis(a, [basis_vec(7, i) for i in range(7)]),
    "lower_central_series": gradation.lower_central_series,
    "type_of": gradation.type_of,
    "gr": gradation.gr,
    "series_adapted": gradation.series_adapted,
    "bracket_span": lambda a: gradation.bracket_span(a, [({0: 1}, {1: 1})]),
    "leibniz_rows": derivations.leibniz_rows,
    "derivation_space": derivations.derivation_space,
    "derivation_dim": derivations.derivation_dim,
    "diagonal_derivations": derivations.diagonal_derivations,
    "rank_in_basis": derivations.rank_in_basis,
    "fingerprint": isomorphy.fingerprint,
    "classify_gr": isomorphy.classify_gr,
}


@pytest.mark.parametrize("name", _NUMERIC_ENTRY_POINTS)
def test_numeric_entry_points_reject_a_parametric_table(name):
    # the cached view also serves parametric tables, whose keys are not targets
    algebra = catalog.generate(catalog.spec_for("Ank", 7, k=2))
    assert algebra.params
    with pytest.raises(QflabError):
        _NUMERIC_ENTRY_POINTS[name](algebra)


def test_key_and_hash_are_built_once_and_ignore_insertion_order():
    pairs = [((0, 1), {2: 1, 3: Fraction(1, 2)}), ((0, 2), {3: 1}), ((1, 2), {3: -2})]
    a = Algebra(4, dict(pairs))
    b = Algebra(4, {pair: dict(reversed(targets.items())) for pair, targets in reversed(pairs)})
    assert list(a.table()) != list(b.table())
    assert a == b and hash(a) == hash(b)
    assert a.canonical() is a.canonical()
    assert a != Algebra(4, dict(pairs[:2]))
