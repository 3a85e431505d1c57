import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qflab
from qflab import catalog
from qflab.cli import MAX_DIM, UsageError, algebra_to_doc, doc_to_algebra, dump_doc, main
from qflab.catalog import spec_for
from qflab.exact import parse_poly
from qflab.liealg import Algebra, change_of_basis


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


REPO = Path(__file__).resolve().parents[1]


def run_python(*argv, timeout, **env):
    """Run a fresh interpreter that imports this checkout's qflab, with the
    extra environment variables ``env``."""
    src = str(Path(qflab.__file__).resolve().parents[1])
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=env, timeout=timeout)


# run_python arguments that call the CLI entry point with the arguments after them
CLI = ("-c", "import sys; from qflab.cli import main; sys.exit(main(sys.argv[1:]))")


def test_document_roundtrip_on_catalog():
    for token, kw in (("Qn", dict(n=8)), ("Cnrk", dict(n=9, r=5, k=3)),
                      ("E951", dict(n=9)), ("Tn4", dict(n=9)),
                      ("Ank", dict(n=9, k=2))):
        a = catalog.generate(spec_for(token, **kw))
        doc = json.loads(dump_doc(algebra_to_doc(a)))
        assert doc_to_algebra(doc) == a


def test_gen_jacobi_rank_pipeline(tmp_path, capsys):
    out = tmp_path / "a.json"
    code, _, _ = run(capsys, "gen", "Lnr", "--n", "9", "--r", "5", "-o", str(out))
    assert code == 0
    code, stdout, _ = run(capsys, "jacobi", str(out))
    assert code == 0 and stdout.strip() == "JACOBI OK"
    code, stdout, _ = run(capsys, "rank", str(out))
    assert code == 0 and stdout.strip() == "2"
    code, stdout, _ = run(capsys, "classify", str(out))
    assert code == 0 and stdout.strip() == "Lnr(n=9,r=5)"


def test_rank_of_lsumc_is_three(tmp_path, capsys):
    out = tmp_path / "b.json"
    assert run(capsys, "gen", "LsumC", "--n", "9", "-o", str(out))[0] == 0
    code, stdout, _ = run(capsys, "rank", str(out))
    assert code == 0 and stdout.strip() == "3"


# sha256 of the stdout of `jacobi` on Qnr(n=11,r=5) with X6 added to [X2,X3],
# moved by P[i][j] = min(i,j) + 1: 25 bad triples on 91 lines under the header.
DENSE_FAIL_SHA256 = "502e37c719a88f73355f3035111e42ac63e1d9075b26d48a6db964f41b3c6390"


def test_jacobi_failure_exit_code(tmp_path, capsys):
    out = tmp_path / "f.json"
    assert run(capsys, "gen", "Fnrk", "--n", "9", "--r", "3", "--k", "1", "-o", str(out))[0] == 0
    code, stdout, _ = run(capsys, "jacobi", str(out))
    assert code == 1
    assert stdout == "JACOBI FAIL (1 bad triples)\n  J(X1,X2,X8)[X7] = -2\n"
    # a dense table that fails in its adapted basis is reported in the given one
    base = catalog.generate(spec_for("Qnr", 11, 5))
    table = base.table()
    table[(2, 3)] = {**table[(2, 3)], 6: 1}
    p = [[min(i, j) + 1 for j in range(base.dim)] for i in range(base.dim)]
    dense = tmp_path / "dense.json"
    dense.write_text(dump_doc(algebra_to_doc(change_of_basis(Algebra(base.dim, table), p))))
    code, stdout, _ = run(capsys, "jacobi", str(dense))
    assert code == 1
    lines = stdout.splitlines()
    assert lines[0] == "JACOBI FAIL (25 bad triples)" and len(lines) == 92
    assert hashlib.sha256(stdout.encode()).hexdigest() == DENSE_FAIL_SHA256


def test_gen_with_alphas_then_series(tmp_path, capsys):
    out = tmp_path / "c.json"
    code, _, _ = run(capsys, "gen", "Ank", "--n", "9", "--k", "2",
                     "--alpha", "1,1,1", "-o", str(out))
    assert code == 0
    code, stdout, _ = run(capsys, "series", str(out))
    assert code == 0
    assert "filiform yes" in stdout


def test_symbolic_document_needs_concrete_for_rank(tmp_path, capsys):
    out = tmp_path / "d.json"
    assert run(capsys, "gen", "Ank", "--n", "9", "--k", "2", "-o", str(out))[0] == 0
    code, _, err = run(capsys, "rank", str(out))
    assert code == 2
    assert "usage error" in err


def test_usage_error_on_bad_range(capsys):
    code, _, err = run(capsys, "gen", "Lnr", "--n", "9", "--r", "4")
    assert code == 2 and "usage error" in err


def test_iso_cn_output(capsys):
    code, stdout, _ = run(capsys, "iso-cn", "--n", "6", "--alpha", "1/2")
    assert code == 0
    assert stdout.strip().endswith("EQUAL Q_6")


def test_constraints_output(capsys):
    code, stdout, _ = run(capsys, "constraints", "Ank", "--n", "9", "--k", "2")
    assert code == 0
    assert stdout.strip() == "2*a1*a3 - 3*a2^2 + a2*a3"
    code, stdout, _ = run(capsys, "constraints", "Lnr", "--n", "9", "--r", "5")
    assert code == 0 and stdout.strip() == "(none)"


def test_weights_pass_and_misprint(capsys):
    code, stdout, _ = run(capsys, "weights", "BsumC", "--n", "9", "--k", "2")
    assert code == 0 and stdout.strip() == "WEIGHTS OK"
    code, stdout, _ = run(capsys, "weights", "BsumC", "--n", "9", "--k", "2", "--misprint")
    assert code == 1 and stdout.startswith("WEIGHTS FAIL")


def test_weights_diagonal_misprint(capsys):
    # QarrCc's printed diagonal puts a product where a sum belongs
    code, stdout, _ = run(capsys, "weights", "QarrCc", "--n", "9", "--misprint")
    assert code == 1 and stdout.startswith("WEIGHTS FAIL")
    assert "[X0,X5] -> X6" in stdout and "[X1,X6] -> X7" in stdout


def test_weights_misses_gnrk_table_misprint(capsys):
    # the printed Gnrk table keeps every claimed weight: only `qflab audit` catches it
    code, stdout, _ = run(capsys, "weights", "Gnrk", "--n", "9", "--r", "5", "--k", "3", "--misprint")
    assert code == 0 and stdout.strip() == "WEIGHTS OK"


def test_weights_misprint_without_variant_is_a_usage_error(capsys):
    code, stdout, err = run(capsys, "weights", "Lnr", "--n", "9", "--r", "5", "--misprint")
    assert code == 2 and stdout == ""
    _usage_error_line(err)


def test_derivations_output(tmp_path, capsys):
    out = tmp_path / "e.json"
    assert run(capsys, "gen", "E73", "--n", "7", "-o", str(out))[0] == 0
    code, stdout, _ = run(capsys, "derivations", str(out))
    assert code == 0
    assert stdout.splitlines()[0].startswith("dimension ")


def test_gr_roundtrip(tmp_path, capsys):
    src = tmp_path / "src.json"
    dst = tmp_path / "gr.json"
    assert run(capsys, "gen", "Cnrk", "--n", "9", "--r", "3", "--k", "2",
               "--alpha", "1,1", "-o", str(src))[0] == 0
    assert run(capsys, "gr", str(src), "-o", str(dst))[0] == 0
    doc = json.loads(dst.read_text())
    assert doc["metadata"]["weights"][0] == 1
    graded = doc_to_algebra(doc)
    code, stdout, _ = run(capsys, "classify", str(dst))
    assert code == 0 and stdout.strip() == "Lnr(n=9,r=3)"


def test_sweep_deterministic(capsys):
    # the second run is a fresh interpreter with another hash seed, so
    # neither warm caches nor set order can make the two outputs agree
    args = ("sweep", "--families", "Lnr,E73,Dnrk", "--n-max", "7")
    code1, out1, _ = run(capsys, *args)
    seed = "0" if os.environ.get("PYTHONHASHSEED") == "12345" else "12345"
    done = run_python(*CLI, *args, timeout=120, PYTHONHASHSEED=seed)
    assert code1 == done.returncode == 0, done.stderr
    assert out1 == done.stdout
    assert out1.strip().endswith("SWEEP OK")
    assert out1.startswith("sweep n_max=7\n")
    rows = out1.splitlines()[2:-1]
    assert {row.split("(")[0] for row in rows} == {"Lnr", "E73", "Dnrk"}
    assert max(int(re.search(r"\(n=(\d+)", row).group(1)) for row in rows) == 7


def test_empty_sweep_is_a_usage_error(capsys):
    # each of these checked nothing and printed SWEEP OK before
    for args in (("--n-max", "-5"), ("--n-max", "2"), ("--families", ","),
                 ("--families", "Fnrk", "--n-max", "13")):
        code, stdout, err = run(capsys, "sweep", *args)
        assert code == 2 and stdout == "", args
        _usage_error_line(err)


# sha256 of the stdout of `sweep --families all --n-max 9`.  Every row passes:
# `Bnk(n, k=n-3)`, the registered degenerate tuple, is its model Qn(n) and
# expects Qn's rank 2.
SWEEP_9_SHA256 = "f9cccb96be665113ffb6294d4128ebc22e03a8a8c471a0b84a34a4b9eb349165"


def test_sweep_golden(capsys):
    code, stdout, _ = run(capsys, "sweep", "--families", "all", "--n-max", "9")
    assert code == 0
    assert stdout.splitlines()[-1] == "SWEEP OK"
    assert hashlib.sha256(stdout.encode()).hexdigest() == SWEEP_9_SHA256


def test_every_sweep_failure_is_a_registered_discrepancy(capsys):
    # a failing row must name a tuple whose certificate catalog.DISCREPANCIES
    # holds, so no sweep failure goes unexplained
    code, stdout, _ = run(capsys, "sweep", "--families", "all", "--n-max", "9")
    registered = {spec.canonical() for entry in catalog.DISCREPANCIES for spec in entry.tuples}
    failing = []
    for row in stdout.splitlines()[2:-1]:
        spec, jacobi, rank, weights, gr_cell = row.split()
        got, expected = rank.rstrip(")").split("(")
        if "FAIL" in (jacobi, weights) or got != expected or "!=" in gr_cell:
            failing.append(spec)
    assert code == (1 if failing else 0)
    assert set(failing) <= registered, sorted(set(failing) - registered)


def test_sweep_builds_each_table_once(capsys, monkeypatch):
    # each tuple is sampled right before its row, so the small table memo
    # still holds it when the row generates it; these families' tuples are
    # not gr-catalog entries, which classify_gr builds at other times
    memo = catalog._symbolic
    keys = set()

    def recording(symbolic):
        keys.add(symbolic)
        return memo(symbolic)

    monkeypatch.setattr(catalog, "_symbolic", recording)
    memo.cache_clear()
    run(capsys, "sweep", "--families", "Ank,Bnk", "--n-max", "8")
    assert memo.cache_info().misses == len(keys) > 8


def test_document_format_sorted_and_stable():
    a = catalog.generate(spec_for("Qn", 6))
    text = dump_doc(algebra_to_doc(a, family="Qn(n=6)"))
    assert text == dump_doc(algebra_to_doc(a, family="Qn(n=6)"))
    doc = json.loads(text)
    assert list(doc) == sorted(doc)
    assert doc["metadata"]["family"] == "Qn(n=6)"


def _usage_error_line(err):
    assert err.startswith("usage error: ") and err.count("\n") == 1, err


def _write_doc(tmp_path, brackets, dim=3):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": dim, "params": [], "brackets": brackets}))
    return str(path)


def test_every_numeric_command_on_the_zero_algebra(tmp_path, capsys):
    # g_1 = 0 is the whole series, so the nilindex is 0; the zero algebra
    # is in no catalog class
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"dim": 0, "brackets": []}))
    expected = {
        "jacobi": (0, "JACOBI OK\n"),
        "series": (0, "dims 0\ntype {}\nnilindex 0\nfiliform no\nquasifiliform no\n"),
        "rank": (0, "0\n"),
        "derivations": (0, "dimension 0\n"),
        "classify": (1, "UNCLASSIFIED\n"),
    }
    for command, want in expected.items():
        code, stdout, err = run(capsys, command, str(path))
        assert (code, stdout, err) == (*want, ""), command
    code, stdout, err = run(capsys, "gr", str(path))
    assert (code, err) == (0, "")
    assert json.loads(stdout) == {"brackets": [], "dim": 0, "metadata": {"weights": []}, "params": []}


def test_document_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "bin.json"
    path.write_bytes(b"\xff\xfe")
    for command in ("jacobi", "series", "gr", "rank", "classify", "derivations"):
        code, stdout, err = run(capsys, command, str(path))
        assert code == 2 and stdout == "", command
        _usage_error_line(err)


def test_document_with_unordered_pair_is_a_usage_error(tmp_path, capsys):
    path = _write_doc(tmp_path, [{"i": 1, "j": 0, "terms": [{"k": 2, "coeff": "1"}]}])
    code, stdout, err = run(capsys, "jacobi", path)
    assert code == 2 and stdout == ""
    _usage_error_line(err)


def test_document_with_repeated_pair_is_a_usage_error(tmp_path, capsys):
    once = {"k": 2, "coeff": "1"}
    for brackets in ([{"i": 0, "j": 1, "terms": [once]}, {"i": 0, "j": 1, "terms": [once]}],
                     [{"i": 0, "j": 1, "terms": [once, {"k": 2, "coeff": "2"}]}]):
        code, stdout, err = run(capsys, "jacobi", _write_doc(tmp_path, brackets))
        assert code == 2 and stdout == ""
        _usage_error_line(err)


def test_document_with_malformed_params_is_a_usage_error(tmp_path, capsys):
    # "ab" was read as the two parameters a and b, and a repeated name passed
    brackets = [{"i": 0, "j": 1, "terms": [{"k": 2, "coeff": "a"}]}]
    for params in ("ab", ["a", "a"], {"a": 1}):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 3, "params": params, "brackets": brackets}))
        code, stdout, err = run(capsys, "jacobi", str(path))
        assert code == 2 and stdout == "", params
        _usage_error_line(err)


def test_document_with_zero_denominator_is_a_usage_error(tmp_path, capsys):
    path = _write_doc(tmp_path, [{"i": 0, "j": 1, "terms": [{"k": 2, "coeff": "1/0"}]}])
    code, stdout, err = run(capsys, "jacobi", path)
    assert code == 2 and stdout == ""
    _usage_error_line(err)
    assert err.rstrip().endswith("zero denominator in term '1/0'"), err


def test_document_with_a_dangling_sign_is_a_usage_error(tmp_path, capsys):
    # "a1 +" was read as a1 + 1, and jacobi passed a table the document does not hold
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 3, "params": ["a1"], "brackets": [
        {"i": 0, "j": 1, "terms": [{"k": 2, "coeff": "a1 +"}]}]}))
    code, stdout, err = run(capsys, "jacobi", str(path))
    assert code == 2 and stdout == ""
    _usage_error_line(err)
    assert err.rstrip().endswith("cannot parse term ''"), err


def test_document_with_a_term_it_does_not_spell_is_a_usage_error(tmp_path, capsys):
    # "2 + *a1" was read as a1 + 2 and "a1^0" as 1
    for coeff, message in (("2 + *a1", "no coefficient before '*' in term '*a1'"),
                           ("a1^0", "exponent '0' is not positive in term 'a1^0'")):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 3, "params": ["a1"], "brackets": [
            {"i": 0, "j": 1, "terms": [{"k": 2, "coeff": coeff}]}]}))
        code, stdout, err = run(capsys, "jacobi", str(path))
        assert code == 2 and stdout == ""
        _usage_error_line(err)
        assert err.rstrip().endswith(message), err


def test_document_with_a_signed_exponent_is_a_usage_error(tmp_path, capsys):
    # the split at the sign left "a1^" and a bare int() message
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 3, "params": ["a1"], "brackets": [
        {"i": 0, "j": 1, "terms": [{"k": 2, "coeff": "2*a1^-3 + 1"}]}]}))
    code, stdout, err = run(capsys, "jacobi", str(path))
    assert code == 2 and stdout == ""
    _usage_error_line(err)
    assert err.rstrip().endswith("exponent '-3' in term '2*a1^-3' must be a positive integer"), err


def test_document_with_a_spaced_signed_exponent_is_a_usage_error(tmp_path, capsys):
    # the split at " -" left "a1^" and a message about the exponent ''
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 3, "params": ["a1"], "brackets": [
        {"i": 0, "j": 1, "terms": [{"k": 2, "coeff": "a1^ -1"}]}]}))
    code, stdout, err = run(capsys, "jacobi", str(path))
    assert code == 2 and stdout == ""
    _usage_error_line(err)
    assert err.rstrip().endswith("exponent ' -1' in term 'a1^ -1' must be a positive integer"), err


def test_document_parses_a_repeated_coefficient_once():
    # one parse per distinct string; the table is the one a parse per term spells
    params = ("a1",)
    texts = ["a1 - 1", "3/2", "a1 - 1", "-2*a1^2", "3/2", "a1 - 1"]
    n = 6
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    brackets = [{"i": i, "j": j, "terms": [{"k": k, "coeff": texts[(i + j + k) % len(texts)]}
                                           for k in range(j + 1, n)]}
                for i, j in pairs if j + 1 < n]
    doc = {"dim": n, "params": list(params), "brackets": brackets}
    expected = Algebra(n, {(b["i"], b["j"]): {t["k"]: parse_poly(t["coeff"], params)
                                              for t in b["terms"]} for b in brackets},
                       params=params)
    algebra = doc_to_algebra(doc)
    assert algebra == expected
    assert doc_to_algebra(json.loads(dump_doc(algebra_to_doc(expected)))) == expected
    shared = {id(poly) for targets in algebra.table().values() for poly in targets.values()}
    assert len(shared) == len(set(texts))
    # a malformed coefficient repeated many times gives the message of one
    messages = set()
    for repeats in (1, 55):
        bad = {"dim": 12, "params": list(params), "brackets": [
            {"i": i, "j": j, "terms": [{"k": 11, "coeff": "*a1"}]}
            for i in range(11) for j in range(i + 1, 11)][:repeats]}
        with pytest.raises(UsageError) as caught:
            doc_to_algebra(bad)
        messages.add(str(caught.value))
    assert messages == {"malformed algebra document: no coefficient before '*' in term '*a1'"}


def test_document_with_non_integral_number_is_a_usage_error(tmp_path, capsys):
    # 2.7 and true were truncated to 2 and 1 before
    term = {"k": 2, "coeff": "1"}
    for doc in ({"dim": 3, "brackets": [{"i": 0, "j": 1, "terms": [{"k": 2.7, "coeff": "1"}]}]},
                {"dim": 3, "brackets": [{"i": 0.5, "j": 1, "terms": [term]}]},
                {"dim": True, "brackets": []},
                {"dim": 3, "brackets": [{"i": False, "j": 1, "terms": [term]}]}):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, stdout, err = run(capsys, "jacobi", str(path))
        assert code == 2 and stdout == "", doc
        _usage_error_line(err)


def test_document_above_the_largest_dim_is_a_usage_error(tmp_path, capsys):
    # series, rank and derivations build dim-long vectors, so a huge dim is
    # refused when the document is read, before anything is allocated
    brackets = [{"i": 0, "j": 1, "terms": [{"k": 2, "coeff": "1"}]}]
    path = _write_doc(tmp_path, brackets, dim=1_000_000_000)
    for command in ("series", "rank", "derivations"):
        code, stdout, err = run(capsys, command, path)
        assert code == 2 and stdout == "", command
        _usage_error_line(err)
    assert doc_to_algebra({"dim": MAX_DIM, "brackets": brackets}).dim == MAX_DIM



def test_n_above_the_largest_dim_is_a_usage_error(tmp_path, capsys):
    # gen would otherwise write a document that every reading command refuses
    for argv in (("gen", "Ln"), ("constraints", "Ank", "--k", "2"), ("weights", "Ln"), ("iso-cn",)):
        code, stdout, err = run(capsys, *argv, "--n", str(MAX_DIM + 1))
        assert code == 2 and stdout == "", argv
        _usage_error_line(err)
    path = tmp_path / "ln.json"
    assert run(capsys, "gen", "Ln", "--n", str(MAX_DIM), "-o", str(path))[0] == 0
    code, stdout, _ = run(capsys, "jacobi", str(path))
    assert code == 0 and stdout.strip() == "JACOBI OK"

# Random documents, well formed or not, with dimension at most 6: every
# command exits with 0, 1 or 2 and none ends in a traceback.
# (no digit strings or huge floats here: "4000" is a valid dim, far too large
# for series and rank)
_junk = st.one_of(st.none(), st.booleans(), st.floats(-9, 9), st.just(float("nan")),
                  st.text("ab -/*^", max_size=4), st.lists(st.integers(0, 3), max_size=2))
_index = st.one_of(st.integers(-1, 6), st.integers(-1, 6).map(str), _junk)
_coeff = st.one_of(st.sampled_from(["1", "-2", "1/2", "1/0", "0", "", "a1", "a2^2",
                                    "2*a1 - a2", "-a1*a2 + 3", "b", "a1^", "1.5", "2 +"]),
                   st.text(max_size=6), st.integers(-3, 3), _junk)
_term = st.fixed_dictionaries({"k": _index, "coeff": _coeff})
_bracket = st.fixed_dictionaries({"i": _index, "j": _index},
                                 optional={"terms": st.lists(_term, max_size=3)})
_document = st.one_of(
    st.fixed_dictionaries(
        {"dim": st.one_of(st.integers(-1, 6), _junk)},
        optional={"params": st.one_of(st.lists(st.sampled_from(["a1", "a2"]), max_size=2), _junk),
                  "brackets": st.one_of(st.lists(_bracket, max_size=6), _junk)}),
    _junk, st.dictionaries(st.text(max_size=3), _junk, max_size=2))


@given(_document)
@settings(max_examples=200, deadline=None)
def test_random_documents_never_end_in_a_traceback(doc):
    try:
        doc_to_algebra(doc)
    except UsageError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/doc.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        for command in ("jacobi", "series", "rank"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, path])
            assert code in (0, 1, 2), (command, doc)
            if code == 2:
                _usage_error_line(err.getvalue())
            assert "Traceback" not in out.getvalue() + err.getvalue()


@pytest.mark.parametrize("dim, brackets, params", [
    pytest.param(2000, [], [], id="brackets0"),
    pytest.param(2000, [{"i": 0, "j": 1, "terms": [{"k": 2, "coeff": "1"}]},
                        {"i": 0, "j": 1998, "terms": [{"k": 1999, "coeff": "-1/2"}]}],
                 [], id="brackets1"),
    pytest.param(MAX_DIM, [{"i": 0, "j": 1, "terms": [{"k": 2, "coeff": "1"}]},
                           {"i": 0, "j": MAX_DIM - 2, "terms": [{"k": MAX_DIM - 1, "coeff": "-1/2"}]}],
                 [], id="max_dim"),
    pytest.param(MAX_DIM, [{"i": 0, "j": 1, "terms": [{"k": 2, "coeff": "a1"}]},
                           {"i": 0, "j": MAX_DIM - 2,
                            "terms": [{"k": MAX_DIM - 1, "coeff": "a1*a2 - 1/2"}]},
                           {"i": 1, "j": 2, "terms": [{"k": MAX_DIM - 1, "coeff": "a2^2"}]}],
                 ["a1", "a2"], id="max_dim_parametric"),
])
def test_jacobi_on_a_large_sparse_document(tmp_path, dim, brackets, params):
    # the check visits only nonzero products of structure constants, so a
    # large dim with few brackets is cheap; every table allocates one
    # bracket row per dimension, up to the largest document allowed
    path = tmp_path / "large.json"
    path.write_text(json.dumps({"dim": dim, "params": params, "brackets": brackets}))
    done = run_python(*CLI, "jacobi", str(path), timeout=30)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "JACOBI OK"


def test_audit_prints_every_certificate():
    done = run_python(*CLI, "audit", timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    verdicts = [line for line in lines if not line.startswith(" ")]
    assert verdicts[-1] == "AUDIT OK"
    assert len(verdicts) - 1 == len(catalog.DISCREPANCIES) == 11
    assert all(line.endswith(": OK") for line in verdicts[:-1])
    gnrk = [line for line in lines if line.startswith("  Gnrk(")]
    assert len(gnrk) == 1 and "constant Jacobi generators ['1']" in gnrk[0]
    barrcc = [line for line in lines if line.startswith("  BarrCc(")]
    assert len(barrcc) == 3 and all("rank_in_basis=1 " in line for line in barrcc)
    assert all(line.count("diag(") == 1 and line.endswith("entries pairwise distinct: True")
               for line in barrcc)


def test_audit_fails_on_a_certificate_that_does_not_hold(capsys, monkeypatch):
    # Bnk below its last k deforms Qn, so the table-equality certificate fails
    wrong = catalog.Discrepancy(("Bnk",), "degenerate tuple", "k runs over [2, n-3]",
                                (spec_for("Bnk", 8, k=4),))
    monkeypatch.setattr(catalog, "DISCREPANCIES", catalog.DISCREPANCIES + (wrong,))
    code, stdout, err = run(capsys, "audit")
    assert code == 1 and err == ""
    assert "degenerate tuple Bnk: FAIL\n  published: k runs over [2, n-3]\n" \
           "  Bnk(n=8,k=4): table differs from Qn(n=8)\n" in stdout
    assert stdout.endswith("AUDIT FAIL (1 entries)\n")
