import copy
import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qflab import catalog, gradation, isomorphy
from qflab.catalog import spec_for
from qflab.derivations import derivation_dim, rank_in_basis
from qflab.gradation import gr, lower_central_series
from qflab.isomorphy import (
    ClassifyResult,
    Fingerprint,
    catalog_fingerprint,
    classify_gr,
    cn_to_qn_transform,
    fingerprint,
)
from qflab.liealg import Algebra, change_of_basis, jacobi_check, rational_bracket
from oracles import (
    bracket_of_vectors,
    dense_derivation_dim,
    naive_centralizer_dim,
    naive_derived_dims,
    naive_lcs,
)
from test_derivations import anticommutative_tables
from test_liealg import random_unimodular


def gen(token, n, **kw):
    return catalog.generate(spec_for(token, n, **kw))


def test_cn_alpha_zero_needs_only_the_sign_flip():
    t = cn_to_qn_transform(8, [0, 0])
    # all elimination stages are the identity, the sign normalization remains
    identity = tuple(tuple(Fraction(1 if i == j else 0) for j in range(8)) for i in range(8))
    assert all(stage == identity for stage in t.stages[:-1])
    assert t.matches_qn()


def test_cn_transform_matches_qn_exactly():
    rng = random.Random(41)
    for n in (6, 8, 10):
        for _ in range(3):
            alphas = [Fraction(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(n // 2 - 2)]
            t = cn_to_qn_transform(n, alphas)
            assert t.matches_qn(), (n, alphas)
            assert jacobi_check(t.source).ok


def test_cn_transform_stage_count_and_composition():
    t = cn_to_qn_transform(10, [1, 2, 3])
    assert len(t.stages) == 4  # three eliminations plus the sign flip
    # the composed matrix reproduces the chained change of basis
    assert change_of_basis(t.source, t.composed) == t.image


def test_cn_transform_rejects_bad_input():
    with pytest.raises(catalog.InvalidParametersError):
        cn_to_qn_transform(7, [1])
    with pytest.raises(catalog.InvalidParametersError):
        cn_to_qn_transform(8, [1])  # needs 2 values


def test_fingerprint_base_invariant_under_basis_change():
    rng = random.Random(4)
    a = gen("Qnr", 9, r=5)
    fp = fingerprint(a)
    for _ in range(4):
        moved = change_of_basis(a, random_unimodular(9, rng))
        assert fingerprint(moved) == fp


def assert_fingerprint_matches_oracles(algebra):
    n = algebra.dim
    table = {pair: {k: c.constant_value() for k, c in t.items()}
             for pair, t in algebra.table().items()}
    fp = fingerprint(algebra)
    lcs = naive_lcs(table, n)
    unit = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    assert list(fp.lcs_dims) == [len(term) for term in lcs]
    assert list(fp.derived_dims) == naive_derived_dims(table, n)
    assert fp.center_dim == naive_centralizer_dim(table, n, unit)
    assert fp.centralizer_g3_dim == naive_centralizer_dim(table, n, lcs[2] if len(lcs) > 2 else [])
    assert fp.der_dim == dense_derivation_dim(table, n)


def test_fingerprint_separates_l73_q73():
    fa = fingerprint(gen("Lnr", 7, r=3))
    fb = fingerprint(gen("Qnr", 7, r=3))
    assert fa != fb
    # every invariant is cross-checked against the independent brute-force
    # oracles, on the catalog at n = 7..9 and on one moved basis of each entry
    rng = random.Random(73)
    for n in (7, 8, 9):
        for spec in catalog.prop4_entries(n):
            algebra = catalog.generate(spec)
            assert_fingerprint_matches_oracles(algebra)
            assert_fingerprint_matches_oracles(change_of_basis(algebra, random_unimodular(n, rng)))


def test_memoised_fingerprint_equals_a_fresh_one():
    # the gr algebras of the --n-max 7 sweep share tables, so the memo
    # answers some rows; each answer must be what a fresh computation gives
    rows = [gr(catalog.generate(spec)).algebra for token in catalog.all_family_tokens()
            for spec in catalog.sample_specs(token, 7)]
    fresh = {}
    for algebra in rows:
        isomorphy._fingerprint.cache_clear()
        fresh[algebra] = fingerprint(algebra)
    assert len(fresh) < len(rows)
    isomorphy._fingerprint.cache_clear()
    assert [fingerprint(algebra) for algebra in rows] == [fresh[algebra] for algebra in rows]
    assert isomorphy._fingerprint.cache_info().hits == len(rows) - len(fresh)


def test_equal_tables_share_one_memo_entry():
    table = {(0, 1): {2: 1}, (0, 2): {3: Fraction(1, 2)}, (1, 2): {3: -2}}
    a = Algebra(4, table)
    b = Algebra(4, {(1, 2): {3: "-2"}, (0, 2): {3: "1/2"}, (0, 1): {2: Fraction(1)}})
    assert a is not b and a == b
    isomorphy._fingerprint.cache_clear()
    assert fingerprint(a) is fingerprint(b)
    info = isomorphy._fingerprint.cache_info()
    assert (info.currsize, info.hits, info.misses) == (1, 1, 1)


def test_memo_keeps_l73_q73_apart_in_either_order():
    lnr, qnr = gen("Lnr", 7, r=3), gen("Qnr", 7, r=3)
    isomorphy._fingerprint.cache_clear()
    first = fingerprint(lnr), fingerprint(qnr)
    isomorphy._fingerprint.cache_clear()
    fq = fingerprint(qnr)
    assert (fingerprint(lnr), fq) == first
    assert first[0] != first[1]


def test_fingerprint_of_the_zero_algebra():
    assert fingerprint(Algebra(0)) == Fingerprint(
        lcs_dims=(0,), derived_dims=(0,), center_dim=0, der_dim=0, centralizer_g3_dim=0)


@given(anticommutative_tables(), st.data())
@settings(max_examples=100, deadline=None)
def test_bracket_and_centralizers_match_oracles_on_rational_tables(drawn, data):
    # structure constants with denominators up to 3 and vectors with their own
    # denominators, zero vectors included, through the integer bracket kernel
    n, table = drawn
    algebra = Algebra(n, table)
    vector = st.one_of(
        st.just([Fraction(0)] * n),
        st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=4), min_size=n, max_size=n))
    u, v = data.draw(vector), data.draw(vector)
    assert rational_bracket(algebra, u, v) == bracket_of_vectors(table, n, u, v)
    lcs = naive_lcs(table, n)
    if lcs[-1]:  # the series stalls above 0: not nilpotent
        return
    fp = fingerprint(algebra)
    unit = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    assert list(fp.derived_dims) == naive_derived_dims(table, n)
    assert fp.center_dim == naive_centralizer_dim(table, n, unit)
    assert fp.centralizer_g3_dim == naive_centralizer_dim(table, n, lcs[2] if len(lcs) > 2 else [])


# sha256 over the fingerprint of every naturally graded catalog entry with
# 4 <= n <= 17, and over one seeded moved basis of each entry with n <= 10
FINGERPRINTS_SHA256 = "ec3236afbf937c14339773841f92ba21c62efb0f6a8d64a9c906e556d8c96354"
MOVED_FINGERPRINTS_SHA256 = "ecb017098013f636fa0687d0551440400b735e8be66e9f8befba9e92064c0d44"


def test_fingerprints_golden():
    entries = [spec for n in range(4, 18) for spec in catalog.prop4_entries(n)]
    text = "".join(f"{spec} {fingerprint(catalog.generate(spec))!r}\n" for spec in entries)
    assert hashlib.sha256(text.encode()).hexdigest() == FINGERPRINTS_SHA256
    rng = random.Random(10)
    moved = "".join(
        f"{spec} {fingerprint(change_of_basis(catalog.generate(spec), random_unimodular(spec.n, rng)))!r}\n"
        for spec in entries if spec.n <= 10)
    assert hashlib.sha256(moved.encode()).hexdigest() == MOVED_FINGERPRINTS_SHA256


def test_fingerprint_cn_matches_qn():
    fc = fingerprint(gen("Cn", 6, alphas=[Fraction(3, 2)]))
    fq = fingerprint(gen("Qn", 6))
    assert fc == fq


def test_e_family_pairwise_distinct():
    keys = [catalog_fingerprint(spec_for(t, 9)) for t in ("E951", "E952", "E953")]
    assert len(set(keys)) == 3


def test_classify_examples():
    res = classify_gr(gen("Dnrk", 9, r=3, k=2))
    assert res.match == spec_for("Lnr", 9, r=3)
    res = classify_gr(gen("QarrCc", 9))
    assert res.match == spec_for("QsumC", 9)
    res = classify_gr(gen("E953", 9))
    assert res.match == spec_for("E953", 9)


def test_classify_fixes_prop4_entries():
    for n in (7, 8, 9):
        for spec in catalog.prop4_entries(n):
            res = classify_gr(catalog.generate(spec))
            assert res.match == spec, (spec.canonical(), res)


def test_classify_survives_basis_change():
    rng = random.Random(8)
    a = gen("Cnrk", 9, r=5, k=3, alphas=[Fraction(1), Fraction(1)])
    moved = change_of_basis(a, random_unimodular(9, rng))
    res = classify_gr(moved)
    assert res.match == spec_for("Lnr", 9, r=5)


def test_no_row_is_changed_in_place():
    # RowSpace stores the rows it is handed without a copy (the target dicts
    # of scaled_ad among them), which is safe only while no code changes a row
    moved = change_of_basis(gen("Lnr", 10, r=5), random_unimodular(10, random.Random(43)))
    before = copy.deepcopy(moved.scaled_ad)
    gradation._series.cache_clear()
    isomorphy._fingerprint.cache_clear()
    spaces = lower_central_series(moved).spaces
    rows = copy.deepcopy([space.integer_basis() for space in spaces])
    gr(moved)
    fingerprint(moved)
    derivation_dim(moved)
    assert classify_gr(moved).match == spec_for("Lnr", 10, r=5)
    assert moved.scaled_ad == before
    assert [space.integer_basis() for space in spaces] == rows


def test_classify_filiform_models():
    # the graded models include the filiform Ln and Qn, so a filiform algebra
    # classifies as its gr-class, in the given basis and in a moved one
    assert classify_gr(gen("Ln", 8)).match == spec_for("Ln", 8)
    assert classify_gr(gen("Qn", 8)).match == spec_for("Qn", 8)
    rng = random.Random(18)
    for source, target in ((gen("Ank", 9, k=2, alphas=[1, 1, 1]), spec_for("Ln", 9)),
                           (gen("Cn", 8, alphas=[Fraction(1, 2), 3]), spec_for("Qn", 8))):
        assert jacobi_check(source).ok
        moved = change_of_basis(source, random_unimodular(source.dim, rng))
        assert classify_gr(moved).match == target


def test_prop4_separation_gate_to_25():
    # the fingerprint must separate the naturally graded models at every
    # fixed dimension, the quasi-filiform catalog prop4_entries(n) and the
    # filiform Ln, Qn, but for one pair of isomorphic tables; there the
    # diagonal-derivation dimensions of the two model tables differ, and the
    # two together make fingerprint matching a sufficient classifier on them
    ties = []
    for n in range(3, 26):
        assert set(catalog.prop4_entries(n)) <= set(catalog.graded_models(n))
        for hits in isomorphy._graded_index(n).values():
            if len(hits) > 1:
                ties.append({spec.canonical(): rank_in_basis(catalog.generate(spec)) for spec in hits})
    assert ties == [{"Tn4(n=9)": 2, "E953(n=9)": 1}]
    assert change_of_basis(gen("E953", 9), _layer_move()) == gen("Tn4", 9)


def _layer_move():
    # the identity with P[0][1] = P[5][8] = -1/3; it mixes two vectors of one
    # graded layer, which random_unimodular does not
    P = [[Fraction(int(i == j)) for j in range(9)] for i in range(9)]
    P[0][1] = P[5][8] = Fraction(-1, 3)
    return P


def test_moved_graded_models_keep_fingerprint_and_class():
    tied = {spec_for("Tn4", 9), spec_for("E953", 9)}
    for n in range(3, 12):
        for spec in catalog.graded_models(n):
            algebra = catalog.generate(spec)
            fp = fingerprint(algebra)
            for seed in range(4):
                moved = change_of_basis(algebra, random_unimodular(n, random.Random(seed)))
                assert fingerprint(moved) == fp, (spec.canonical(), seed)
                if spec not in tied:
                    assert classify_gr(moved) == ClassifyResult(spec, ()), (spec.canonical(), seed)


def test_e951_moved_inside_a_layer_classifies_as_itself():
    moved = change_of_basis(gen("E951", 9), _layer_move())
    assert classify_gr(moved) == ClassifyResult(spec_for("E951", 9), ())
    # the moved E953 is the Tn4 table: the tie-break names Tn4, and the near
    # list holds the two tied models only
    result = classify_gr(change_of_basis(gen("E953", 9), _layer_move()))
    assert result == ClassifyResult(spec_for("Tn4", 9), ("Tn4(n=9)", "E953(n=9)"))
