"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Scale: everything runs at n <= 17 in exact arithmetic.  Criterion 2 keeps
the published rank partition verbatim; a family that leaves it needs a rank
entry in ``catalog.DISCREPANCIES`` (today BarrCc, published rank 2, proved
rank 1), whose maximal-torus certificate criterion 2 checks on every sampled
tuple.  Criterion 6 re-checks the registry's misprint entries.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from qflab import catalog
from qflab.catalog import spec_for
from qflab.derivations import certify, diagonal_derivations, rank_in_basis, verify_claimed_weights
from qflab.gradation import gr, lower_central_series, type_of
from qflab.isomorphy import catalog_fingerprint, classify_gr, cn_to_qn_transform, fingerprint
from qflab.liealg import change_of_basis, jacobi_check
from oracles import NaiveSpan, dense_derivation_dim, naive_lcs_dims

N_MAX = 17


def _report(name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {name}: {status}")
    assert not failures, f"{name}: {len(failures)} failures\n" + "\n".join(failures[:20])


def _concrete_samples(token, n_max, per_n=3):
    """Sound tuples with concrete alphas, at most per_n representatives for
    each dimension (first / middle / last in the deterministic tuple order)."""
    by_n = {}
    for spec in catalog.sound_tuples(token, n_max):
        by_n.setdefault(spec.n, []).append(spec)
    out = []
    for n in sorted(by_n):
        tuples = by_n[n]
        picks = {0, len(tuples) - 1, len(tuples) // 2}
        for idx in sorted(picks):
            spec = tuples[idx]
            alphas = catalog.sample_alphas(spec)
            if alphas is None:
                continue
            out.append(spec.with_alphas(alphas) if alphas else spec)
    return out


# -- criterion 1: Jacobi soundness -------------------------------------------

NONPARAMETRIC = ("Ln", "Qn", "LsumC", "QsumC", "LarrC", "QarrCa", "QarrCb",
                 "QarrCc", "Lnr", "Qnr", "Tn4", "Tn3", "Dnrk", "Fnrk",
                 "E951", "E952", "E953", "E73")


def test_criterion_1_jacobi_soundness():
    failures = []
    for token in NONPARAMETRIC:
        for spec in catalog.sound_tuples(token, N_MAX):
            if not jacobi_check(catalog.generate(spec)).ok:
                failures.append(f"sound tuple fails: {spec.canonical()}")
    # the complement of the sound domain is itself verified: every printed
    # tuple outside it must violate the identity (QarrC* at even l, Dnrk off
    # its single sound k, and the whole of Fnrk)
    for token in NONPARAMETRIC:
        sound = {s.canonical() for s in catalog.sound_tuples(token, 13)}
        for spec in catalog.family_def(token).tuples(13):
            if spec.canonical() in sound:
                continue
            if jacobi_check(catalog.generate(spec)).ok:
                failures.append(f"unsound tuple unexpectedly passes: {spec.canonical()}")
    _report("criterion 1 (jacobi soundness)", failures)


# -- criterion 2: rank partition ----------------------------------------------

RANK_3_FAMILIES = ("LsumC", "QsumC")
RANK_2_FAMILIES = ("Lnr", "Qnr", "Tn4", "Tn3", "AsumC", "LarrC", "BsumC",
                   "QarrCa", "QarrCc", "BarrCc")
RANK_1_FAMILIES = ("E951", "E952", "E953", "E73", "AarrC", "BarrCa", "QarrCb",
                   "Cnrk", "Dnrk", "Enrk", "Fnrk", "Gnrk", "Hnrk")


def _rank_specs(token, n_max):
    if token == "Fnrk":
        # no sound tuples exist; the rank statement is still checked on the
        # printed support (the weight system does not need the Jacobi identity)
        return list(catalog.family_def(token).tuples(n_max))
    sample = list(catalog.sound_tuples(token, n_max))
    if not sample:
        return []
    if catalog.alpha_count(sample[0]) == 0:
        return sample
    return _concrete_samples(token, n_max)


def _entries(kind):
    return [entry for entry in catalog.DISCREPANCIES if entry.kind == kind]


def test_criterion_2_rank_partition():
    failures = []
    rank_entries = {token: entry for entry in _entries("rank") for token in entry.families}
    for expected, tokens in ((3, RANK_3_FAMILIES), (2, RANK_2_FAMILIES), (1, RANK_1_FAMILIES)):
        for token in tokens:
            specs = _rank_specs(token, N_MAX)
            if not specs:
                failures.append(f"{token}: no testable tuples")
                continue
            entry = rank_entries.get(token)
            if entry is not None and entry.rank != expected:
                failures.append(f"{token}: registry says published rank {entry.rank}, "
                                f"the partition {expected}")
            if entry is not None and catalog.FAMILIES[token].rank == expected:
                failures.append(f"{token}: listed as a discrepancy, but the proved rank "
                                f"is the published {expected}")
            for spec in specs:
                if entry is not None:
                    line, holds = certify(entry, spec)
                    if not holds:
                        failures.append(f"certificate fails: {line}")
                    continue
                rank = rank_in_basis(catalog.generate(spec))
                if rank != expected:
                    failures.append(
                        f"{spec.canonical()}: rank {rank}, published partition says {expected}")
            if entry is not None:
                print(f"\nDISCREPANCY {token}: published rank {expected}, proved rank "
                      f"{catalog.FAMILIES[token].rank} on {len(specs)} tuples "
                      "(maximal-torus certificate checked)")
    _report("criterion 2 (rank partition)", failures)


# -- criterion 3: Cn -> Qn reproduction ---------------------------------------


def test_criterion_3_cn_transform():
    failures = []
    rng = random.Random(2024)
    for n in (6, 8, 10, 12):
        for _ in range(5):
            alphas = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                      for _ in range(n // 2 - 2)]
            t = cn_to_qn_transform(n, alphas)
            if not t.matches_qn():
                failures.append(f"n={n} alphas={alphas}: image differs from Qn")
        qn_rank = rank_in_basis(catalog.generate(spec_for("Qn", n)))
        image_rank = rank_in_basis(cn_to_qn_transform(n, [1] * (n // 2 - 2)).image)
        if not (image_rank == 2 == qn_rank):
            failures.append(f"n={n}: rank through the transform {image_rank}, Qn {qn_rank}")
    _report("criterion 3 (Cn->Qn reproduction)", failures)


# -- criterion 4: the three special 9-dimensional algebras --------------------


def test_criterion_4_e95_distinction():
    failures = []
    weights = [Fraction(c) for c in (1, 1, 2, 3, 4, 5, 6, 7, 5)]
    basis, dim = diagonal_derivations(catalog.generate(spec_for("E953", 9)))
    if not NaiveSpan(9, basis).contains(weights):
        failures.append("E953 does not admit diag(1,1,2,3,4,5,6,7,5)")
    keys = {}
    for token in ("E951", "E952", "E953"):
        keys[token] = catalog_fingerprint(spec_for(token, 9))
    if len(set(keys.values())) != 3:
        failures.append(f"fingerprints collide: {keys}")
    _report("criterion 4 (E_9,5 distinction)", failures)


# -- criterion 5: the gr-class matrix -----------------------------------------


def test_criterion_5_gr_class_matrix():
    failures = []
    for token in catalog.NONZERO_RANK_TOKENS:
        if token == "Fnrk":
            specs = list(catalog.family_def(token).tuples(11))[:3]
        else:
            specs = _concrete_samples(token, 11)[:4]
        if not specs:
            failures.append(f"{token}: nothing sampled")
            continue
        for spec in specs:
            target = catalog.natural_gr_class(spec)
            result = classify_gr(catalog.generate(spec))
            got = result.match.canonical() if result.classified else f"UNCLASSIFIED {result.candidates}"
            if got != target.canonical():
                failures.append(f"{spec.canonical()}: classified {got}, declared {target.canonical()}")
    _report("criterion 5 (gr-class matrix)", failures)


# -- criterion 6: the weight audit --------------------------------------------


def _weight_specs(token):
    picks = list(catalog.family_def(token).tuples(13))
    chosen = {0, len(picks) - 1, len(picks) // 2}
    return [picks[i] for i in sorted(chosen) if picks]


def test_criterion_6_weight_audit():
    failures = []
    for token in catalog.NONZERO_RANK_TOKENS:
        for spec in _weight_specs(token):
            audit = verify_claimed_weights(spec)
            if not audit.ok:
                failures.append(f"{spec.canonical()}: normalized audit fails {audit.lines()[:2]}")
    # every registered misprint is caught, and the weight audit itself
    # catches at least these five
    caught = set()
    for entry in _entries("misprint"):
        for spec in entry.tuples:
            line, holds = certify(entry, spec)
            if not holds:
                failures.append(f"certificate fails: {line}")
            if not verify_claimed_weights(replace(spec, misprint=True)).ok:
                caught.add(spec.canonical())
    for name in ("LarrC(n=9,l=3)", "AarrC(n=9,k=2,l=3)", "BsumC(n=9,k=2)",
                 "QarrCb(n=9,l=3)", "QarrCc(n=9)"):
        if name not in caught:
            failures.append(f"{name}: misprinted variant not detected by the weight audit")
    _report("criterion 6 (weight audit)", failures)


# -- criterion 7: oracle equivalence ------------------------------------------


def _catalog_dims_up_to_6():
    out = []
    for token in catalog.all_family_tokens():
        for spec in catalog.sound_tuples(token, 6):
            alphas = catalog.sample_alphas(spec)
            if alphas is None:
                continue
            out.append(spec.with_alphas(alphas) if alphas else spec)
    return out


def test_criterion_7_oracle_equivalence():
    failures = []
    specs = _catalog_dims_up_to_6()
    assert len(specs) >= 15
    for spec in specs:
        algebra = catalog.generate(spec)
        table = {pair: {k: c.constant_value() for k, c in t.items()}
                 for pair, t in algebra.table().items()}
        from qflab.derivations import derivation_dim

        if derivation_dim(algebra) != dense_derivation_dim(table, algebra.dim):
            failures.append(f"{spec.canonical()}: derivation dimension disagrees with the oracle")
        if list(lower_central_series(algebra).dims) != naive_lcs_dims(table, algebra.dim):
            failures.append(f"{spec.canonical()}: series dims disagree with the oracle")
    _report("criterion 7 (oracle equivalence)", failures)


# -- criterion 8: type checks -------------------------------------------------

DECLARED_R = {"LsumC": 1, "QsumC": 1, "Tn4": None, "Tn3": None,
              "E951": 5, "E952": 5, "E953": 5, "E73": 3}


def _declared_r(spec):
    if spec.family in ("Lnr", "Qnr"):
        return spec.r
    if spec.family == "Tn4":
        return spec.n - 4
    if spec.family == "Tn3":
        return spec.n - 3
    return DECLARED_R[spec.family]


def test_criterion_8_type_checks():
    failures = []
    for n in range(3, N_MAX + 1):
        info = type_of(catalog.generate(spec_for("Ln", n)))
        if not info.filiform or info.type_vector.p != (2,) + (1,) * (n - 2):
            failures.append(f"Ln(n={n}): type {info.type_vector}")
    for n in range(4, N_MAX + 1):
        for spec in catalog.prop4_entries(n):
            info = type_of(catalog.generate(spec))
            if not info.quasifiliform or info.r_index != _declared_r(spec):
                failures.append(f"{spec.canonical()}: type {info.type_vector} r={info.r_index}")
    # gr preserves the type vector on randomly perturbed catalog entries
    from test_liealg import random_unimodular

    rng = random.Random(99)
    pool = [s for n in (5, 6, 7, 8, 9) for s in catalog.prop4_entries(n)]
    for trial in range(100):
        spec = pool[trial % len(pool)]
        algebra = catalog.generate(spec)
        moved = change_of_basis(algebra, random_unimodular(algebra.dim, rng))
        before = type_of(moved).type_vector
        after = type_of(gr(moved).algebra).type_vector
        if before != after:
            failures.append(f"{spec.canonical()} trial {trial}: {before} != {after}")
    _report("criterion 8 (type checks)", failures)
