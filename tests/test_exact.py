import copy
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qflab import catalog
from qflab.exact import (
    MissingParameterError,
    Poly,
    RowSpace,
    SingularMatrixError,
    _integer_vector,
    identity_matrix,
    invert_matrix,
    mat_mul,
    matrix_rank,
    nullspace,
    parse_poly,
    rat,
    rat_str,
)
from oracles import NaiveSpan, dense_rank, dense_solve

PARAMS = ("a1", "a2", "a3")


def poly_of(mapping):
    return Poly.from_map(PARAMS, {tuple(m): Fraction(c) for m, c in mapping.items()})


st_rational = st.builds(
    Fraction,
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=1, max_value=12),
)

st_mono = st.tuples(*[st.integers(min_value=0, max_value=3)] * len(PARAMS))

st_poly = st.dictionaries(st_mono, st_rational, max_size=5).map(
    lambda d: Poly.from_map(PARAMS, d)
)


def test_rat_str_roundtrip():
    assert rat_str(Fraction(3, 4)) == "3/4"
    assert rat_str(Fraction(-5)) == "-5"
    assert rat("3/4") == Fraction(3, 4)


def test_constant_rational_addition():
    half = Poly.const(PARAMS, Fraction(1, 2))
    third = Poly.const(PARAMS, Fraction(1, 3))
    assert (half + third).constant_value() == Fraction(5, 6)


def test_distributivity_example():
    a1 = Poly.variable(PARAMS, "a1")
    a2 = Poly.variable(PARAMS, "a2")
    assert (a1 + a2) * a1 == a1 * a1 + a1 * a2


def test_eval_example():
    a1 = Poly.variable(PARAMS, "a1")
    p = a1 * a1 + 2
    assert p.evaluate({"a1": Fraction(3)}) == 11
    assert Poly.zero(PARAMS).evaluate({}) == 0


def test_eval_missing_parameter():
    p = Poly.variable(PARAMS, "a2")
    with pytest.raises(MissingParameterError):
        p.evaluate({"a1": Fraction(1)})


def _fraction_loop(p, values):
    """The value of ``p`` summed term by term in ``Fraction``s."""
    total = Fraction(0)
    for mono, coeff in p.terms:
        for name, exp in zip(PARAMS, mono):
            if exp:
                coeff *= rat(values[name]) ** exp
        total += coeff
    return total


@pytest.mark.parametrize("values", [
    {"a1": 3, "a2": -2, "a3": 5},
    {"a1": "3/4", "a2": "-2", "a3": " 5/6 "},
    {"a1": Fraction(-7, 3), "a2": Fraction(5, 2), "a3": Fraction(1, 9)},
    {"a1": 0, "a2": Fraction(2, 3), "a3": "-1/4"},
    {"a1": Fraction(1, 2), "a2": 2, "a3": "3/5", "b9": "not read"},
], ids=["int", "str", "fraction", "zero", "extra-name"])
def test_evaluate_matches_a_fraction_loop(values):
    a1, a2, a3 = (Poly.variable(PARAMS, name) for name in PARAMS)
    polys = [a1 * a1 * a2 * Fraction(-3, 7) + a2 * a3 * Fraction(5, 2) - Fraction(1, 6),
             a1 * a1 * a1 - a3 + 4, a2 * Fraction(2, 9), Poly.const(PARAMS, Fraction(-5, 3)),
             Poly.zero(PARAMS)]
    for p in polys:
        got = p.evaluate(values)
        assert type(got) is Fraction and got == _fraction_loop(p, values), str(p)


def test_evaluate_keeps_its_errors():
    p = Poly.variable(PARAMS, "a1") * Poly.variable(PARAMS, "a3")
    with pytest.raises(MissingParameterError, match="a3"):
        p.evaluate({"a1": 1, "a2": 2})
    with pytest.raises(TypeError):
        p.evaluate({"a1": 1.5, "a3": 1})


def test_pinned_strings():
    a1, a2 = Poly.variable(PARAMS, "a1"), Poly.variable(PARAMS, "a2")
    for poly, text in ((-a1 * a1 + a1 * a2 * Fraction(1, 2) - 3, "-a1^2 + 1/2*a1*a2 - 3"),
                       (a1 - Fraction(3, 2), "a1 - 3/2"),
                       (Poly.const(PARAMS, -1), "-1"),
                       (a1 * a1 * a2 * Fraction(-2, 3) - a2 + Fraction(7, 4), "-2/3*a1^2*a2 - a2 + 7/4"),
                       (Poly.zero(PARAMS), "0")):
        assert str(poly) == text
        assert parse_poly(text, PARAMS) == poly


@pytest.mark.parametrize("text", ["a1 +", "+", "2 -", "1 + + 2", "--1", "a1 - - a2"])
def test_parse_poly_rejects_a_dangling_sign(text):
    # each was read with an empty term standing for 1
    with pytest.raises(ValueError, match="^cannot parse term ''$"):
        parse_poly(text, PARAMS)


def test_parse_poly_rejects_a_zero_denominator():
    for text in ("1/0", "a1 + 1/0"):
        with pytest.raises(ValueError, match="^zero denominator in term '1/0'$"):
            parse_poly(text, PARAMS)


@pytest.mark.parametrize("text, message", [
    ("*a1", "no coefficient before '*' in term '*a1'"),
    ("2 + *a1", "no coefficient before '*' in term '*a1'"),
    ("a1^0", "exponent '0' is not positive in term 'a1^0'"),
    ("3*a1^0", "exponent '0' is not positive in term '3*a1^0'"),
])
def test_parse_poly_rejects_a_term_it_does_not_spell(text, message):
    # each was read as a term the string does not hold: a1, a1 + 2, 1 and 3
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_poly(text, PARAMS)


@pytest.mark.parametrize("text, message", [
    ("a1^-1", "exponent '-1' in term 'a1^-1' must be a positive integer"),
    ("a1^+2", "exponent '+2' in term 'a1^+2' must be a positive integer"),
    ("2*a1^-3 + 1", "exponent '-3' in term '2*a1^-3' must be a positive integer"),
    ("a1^ -1", "exponent ' -1' in term 'a1^ -1' must be a positive integer"),
    ("a1 ^ + 2 - a2", "exponent ' + 2' in term 'a1 ^ + 2' must be a positive integer"),
])
def test_parse_poly_rejects_a_signed_exponent(text, message):
    # each failed in int('') after the split at the sign left "a1^"; a space
    # before the sign still split it off until the split skipped "^ -"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_poly(text, PARAMS)


@pytest.mark.parametrize("text", ["a1 ^2", "a1 ^ 2", "a1^ 2", " a1  ^2 "])
def test_parse_poly_reads_spaces_around_a_caret(text):
    # "a1 ^2" named the unknown parameter 'a1 ', space included
    assert parse_poly(text, PARAMS) == parse_poly("a1^2", PARAMS)
    assert parse_poly(f"2*{text.strip()} - a2", PARAMS) == parse_poly("2*a1^2 - a2", PARAMS)


@pytest.mark.parametrize("text, value", [
    ("0", 0), ("-0", 0), ("7", 7), (" -3/4 ", Fraction(-3, 4)), ("007", 7), ("6/4", Fraction(3, 2)),
])
def test_parse_poly_reads_a_plain_rational_as_its_constant(text, value):
    for params in ((), PARAMS):
        poly = parse_poly(text, params)
        assert poly == Poly.const(params, value)
        assert all(type(c) is Fraction for _, c in poly.terms)
    # the same constant read by the term loop, which a parameter forces
    assert parse_poly(text.strip() + " + a1 - a1", PARAMS) == parse_poly(text, PARAMS)


@pytest.mark.parametrize("text, message", [
    ("1/0", "zero denominator in term '1/0'"),
    ("1.5", "cannot parse term '1.5'"),
    ("3/", "cannot parse term '3/'"),
])
def test_parse_poly_keeps_its_messages_on_near_rationals(text, message):
    for params in ((), PARAMS):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_poly(text, params)


def test_universe_mismatch_rejected():
    p = Poly.variable(PARAMS, "a1")
    q = Poly.variable(("b1",), "b1")
    with pytest.raises(ValueError):
        _ = p + q


@given(st_poly, st_poly, st_poly)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p - p).is_zero()


@given(st_poly)
@settings(max_examples=60, deadline=None)
def test_string_roundtrip(p):
    assert parse_poly(str(p), PARAMS) == p


# few monomials and small coefficients, so sums cancel and products collide
st_small_poly = st.dictionaries(
    st.tuples(*[st.integers(min_value=0, max_value=1)] * len(PARAMS)),
    st.builds(Fraction, st.integers(min_value=-2, max_value=2), st.integers(min_value=1, max_value=2)),
    max_size=6,
).map(lambda d: Poly.from_map(PARAMS, d))


def assert_canonical(p):
    keys = [(sum(m), m) for m, _ in p.terms]
    assert all(a > b for a, b in zip(keys, keys[1:]))
    assert all(type(c) is Fraction and c != 0 for _, c in p.terms)


@given(st.one_of(st_small_poly, st_poly), st.one_of(st_small_poly, st_poly),
       st.fixed_dictionaries({name: st_rational for name in PARAMS}))
@settings(max_examples=150, deadline=None)
def test_arithmetic_matches_naive_dicts(p, q, values):
    a, b = dict(p.terms), dict(q.terms)
    total = {m: a.get(m, 0) + b.get(m, 0) for m in set(a) | set(b)}
    difference = {m: a.get(m, 0) - b.get(m, 0) for m in set(a) | set(b)}
    product = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            product[m] = product.get(m, 0) + c1 * c2
    value = Fraction(0)
    for m, c in a.items():
        term = c
        for name, e in zip(PARAMS, m):
            term *= values[name] ** e
        value += term
    for got, want in ((p + q, total), (p - q, difference), (p * q, product)):
        assert got == Poly.from_map(PARAMS, want)
        assert_canonical(got)
    assert p.evaluate(values) == value
    assert_canonical(p - 3)
    assert p - 3 == p + Poly.const(PARAMS, -3)


@given(st.one_of(st_small_poly, st_poly), st.one_of(st_small_poly, st_poly),
       st_rational, st_rational, st_rational.filter(bool),
       st.sampled_from(range(len(PARAMS))), st.sampled_from((0, 1)))
@settings(max_examples=150, deadline=None)
def test_line_roots_restrict_at_base_zero_and_one(p, q, r, s, c, idx, base):
    # on the line "a_idx free, the others = base" the multiples of the others
    # minus base vanish, and c*(x - r)*(x - s) keeps exactly its roots
    x, y, z = (Poly.variable(PARAMS, PARAMS[(idx + i) % len(PARAMS)]) for i in range(3))
    vanishing = (y - base) * p + (z - base) * q
    base = Fraction(base)
    assert catalog._line_roots((vanishing,), idx, base) == []
    assert catalog._line_roots((vanishing, (x - r) * c + vanishing), idx, base) == [r]
    assert catalog._line_roots((vanishing, (x - r) * (x - s) * c + vanishing), idx, base) \
        == sorted({r, s})


def test_subtraction_across_universes_rejected():
    p = Poly.variable(PARAMS, "a1")
    with pytest.raises(ValueError):
        _ = p - Poly.variable(("b1",), "b1")


def test_canonical_form_is_sorted_and_sparse():
    p = poly_of({(1, 0, 0): 1, (0, 0, 0): 2, (2, 1, 0): 3, (0, 1, 0): 0})
    degrees = [sum(m) for m, _ in p.terms]
    assert degrees == sorted(degrees, reverse=True)
    assert all(c != 0 for _, c in p.terms)
    assert str(p) == "3*a1^2*a2 + a1 + 2"


# --- linear algebra ---------------------------------------------------------


def integer_row(vec):
    """A dense vector of ints and Fractions as the eliminator's integer row."""
    return _integer_vector(vec)[1]


# integers and rationals, with zeros often enough that rows are rank deficient
st_entry = st.one_of(st.integers(min_value=-6, max_value=6), st_rational)


@given(st.lists(st.lists(st_entry, min_size=6, max_size=6), min_size=3, max_size=8))
@example([[0] * 6] * 3)
@settings(max_examples=60, deadline=None)
def test_rank_nullity(matrix):
    # scaling a row to integers changes neither the kernel nor the rank
    rows = [integer_row(row) for row in matrix]
    kernel = nullspace(rows, ncols=6)
    assert kernel == dense_solve(matrix, [0] * len(matrix))[1]
    assert matrix_rank(rows, ncols=6) == dense_rank(matrix) == 6 - len(kernel)


def test_identity_matrix_rows_are_fresh():
    # cn_to_qn_transform writes P[i][i + 2j] into one identity per stage
    p = identity_matrix(6)
    p[1][5] = Fraction(1, 2)
    p[0][0] = Fraction(3)
    assert identity_matrix(6) == [[Fraction(int(i == j)) for j in range(6)] for i in range(6)]
    assert len({id(row) for row in p}) == 6 and identity_matrix(0) == []


def test_invert_matrix_roundtrip():
    assert invert_matrix([]) == []
    with pytest.raises(SingularMatrixError):
        invert_matrix([[1, 2], [Fraction(1, 2), 1]])
    rng = random.Random(7)
    outcomes = set()
    for _ in range(40):
        n = rng.randint(1, 5)
        m = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        singular = dense_rank(m) < n
        outcomes.add(singular)
        if singular:
            with pytest.raises(SingularMatrixError):
                invert_matrix(m)
        else:
            inv = invert_matrix(m)
            assert mat_mul(m, inv) == [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    assert outcomes == {False, True}


st_span_vectors = st.lists(
    st.lists(st.one_of(st.just(0), st.integers(min_value=-3, max_value=3), st_rational),
             min_size=5, max_size=5),
    max_size=7,
)


@given(st_span_vectors, st_span_vectors, st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_rowspace_matches_naive_span(vectors, probes, rng):
    space, naive = RowSpace(5), NaiveSpan(5)
    for i, v in enumerate(vectors):
        if i == len(vectors) // 2:
            space.basis()  # back-substitutes the stored rows in place
        # gradation._adapted keeps a vector exactly when add says the span grew
        assert space.add(integer_row(v)) == naive.add(v)
        assert space.dim == naive.dim
    sums = [[a + b for a, b in zip(u, w)] for u, w in zip(vectors, vectors[1:])]
    for v in probes + sums:
        # a vector lies in the span exactly when adding it leaves the dimension
        grown = RowSpace(5, space.integer_basis() + [integer_row(v)])
        assert (grown.dim == space.dim) == naive.contains(v)
    basis = space.basis()
    assert len(basis) == naive.dim and all(naive.contains(row) for row in basis)
    # canonical RREF: leading 1s at strictly increasing pivots, cleared above and below
    pivots = [next(j for j, x in enumerate(row) if x) for row in basis]
    assert pivots == sorted(set(pivots)) == space.pivots
    for row, p in zip(basis, pivots):
        assert row[p] == 1 and [other[p] for other in basis].count(0) == len(basis) - 1
    shuffled = list(vectors)
    rng.shuffle(shuffled)
    incremental = RowSpace(5)
    for v in shuffled:
        incremental.add(integer_row(v))
    batch = RowSpace(5, [integer_row(v) for v in vectors])
    assert batch.basis() == incremental.basis() == basis


@given(st_span_vectors, st_span_vectors)
@settings(max_examples=40, deadline=None)
def test_rows_handed_on_stay_unchanged(vectors, more):
    # a RowSpace keeps the rows it is handed, here another space's own rows
    space = RowSpace(5, [integer_row(v) for v in vectors])
    basis, rows = space.basis(), copy.deepcopy(space.integer_basis())
    other = RowSpace(5, space.integer_basis())
    for v in more:
        other.add(integer_row(v))
    other.basis()
    assert space.integer_basis() == rows and space.basis() == basis


def test_rowspace_stops_at_a_full_span():
    rng = random.Random(3)
    independent = [{i: 1, i + 1: rng.randint(-3, 3) or 1} for i in range(4)] + [{4: 2}]
    more = [{j: rng.randint(-5, 5) for j in range(5) if rng.random() < 0.6} for _ in range(30)]
    more = [{j: x for j, x in row.items() if x} for row in more]
    full = RowSpace(5, independent + more)
    grown = RowSpace(5)
    for row in independent + more:
        grown.add(row)
    assert full.dim == grown.dim == 5
    assert full.pivots == grown.pivots == [0, 1, 2, 3, 4]
    assert full.basis() == grown.basis() == [tuple(Fraction(int(i == j)) for j in range(5))
                                             for i in range(5)]
    assert not full.add({0: 1, 3: -2})
    # a tall full-rank system has only the trivial solution
    assert nullspace(independent + more, ncols=5) == []
    assert matrix_rank(independent + more, ncols=5) == 5


def test_rowspace_rref_deterministic():
    s = RowSpace(4)
    assert s.add({1: 1, 2: 1})
    assert s.add({0: 1, 1: 1})
    assert not s.add({0: 1, 1: 2, 2: 1})
    assert not s.add({})
    assert s.pivots == [0, 1]
    assert s.basis() == [(1, 0, -1, 0), (0, 1, 1, 0)]
