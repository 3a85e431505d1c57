"""The qflab benchmark workloads.  ``run.py`` starts this file in a fresh
interpreter for every step, so no module-level cache of the program survives
from one timed run to the next.

    python3 perfbench/workloads.py prepare WORKLOAD SEED OUT
    python3 perfbench/workloads.py run INPUT [SPANS_OUT]

``prepare`` builds a workload's inputs from the seed; ``run`` times the
workload on them (tracing it when SPANS_OUT is given), then checks the
outputs untimed and prints one JSON line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

# The benchmark's sizes; the smoke test passes smaller ones to ``prepare``.
SIZES = {"sweep_n_max": 9, "dense_dims": (9, 10), "symbolic_n_max": 17,
         "cn_dims": tuple(range(6, 21, 2))}

# Lie-sound tuples (n <= 17) of the parametric families on which sample_alphas
# finds no alpha; a tuple missing from this list must get one.
NO_ALPHA = frozenset(
    line for line in (Path(__file__).resolve().parent / "no_alpha.txt")
    .read_text(encoding="utf-8").splitlines() if line and not line.startswith("#"))


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """L*U with unit diagonals and off-diagonal entries drawn from {-1, 0, 1}."""
    lower = [[1 if i == j else (rng.choice((-1, 0, 1)) if j < i else 0) for j in range(n)]
             for i in range(n)]
    upper = [[1 if i == j else (rng.choice((-1, 0, 1)) if j > i else 0) for j in range(n)]
             for i in range(n)]
    return [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def prepare(workload: str, seed: int, sizes: dict = SIZES) -> dict:
    from qflab import catalog, cli, derivations, gradation, liealg

    rng = random.Random(seed)
    if workload == "sweep":
        return {"workload": workload, "n_max": sizes["sweep_n_max"]}
    if workload == "dense":
        items = []
        for n in sizes["dense_dims"]:
            for spec in catalog.prop4_entries(n):
                original = catalog.generate(spec)
                moved = liealg.change_of_basis(original, _unimodular(rng, n))
                items.append({
                    "source": spec.canonical(),
                    "doc": cli.dump_doc(cli.algebra_to_doc(moved)),
                    "type": list(gradation.type_of(original).type_vector.p),
                    "der": derivations.derivation_dim(original),
                })
        return {"workload": workload, "items": items}
    if workload == "symbolic":
        # the parametric families are the ones outside NONPARAMETRIC_TOKENS
        parametric = [t for t in catalog.all_family_tokens()
                      if t not in catalog.NONPARAMETRIC_TOKENS]
        tuples = [[s.family, s.n, s.r, s.k, s.l]
                  for token in parametric
                  for s in catalog.sound_tuples(token, sizes["symbolic_n_max"])]
        cn = [[n, [str(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4)))
                   for _ in range(n // 2 - 2)]]
              for n in sizes["cn_dims"]]
        return {"workload": workload, "tuples": tuples, "cn": cn}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Timed parts: each returns the raw outcomes, checked afterwards
# ---------------------------------------------------------------------------


def run_sweep(inputs: dict):
    from qflab import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["sweep", "--families", "all", "--n-max", str(inputs["n_max"])])
    return {"exit": code, "stdout": out.getvalue()}


def run_dense(inputs: dict):
    from qflab import cli, derivations, gradation, isomorphy, liealg

    outcomes = []
    for item in inputs["items"]:
        try:
            algebra = cli.doc_to_algebra(json.loads(item["doc"]))
            got = {
                "jacobi": liealg.jacobi_check(algebra).ok,
                "type": list(gradation.type_of(algebra).type_vector.p),
                "der": derivations.derivation_dim(algebra),
                "rank": derivations.rank_in_basis(algebra),
            }
            result = isomorphy.classify_gr(algebra)
            got["class"] = result.match.canonical() if result.classified else None
            outcomes.append(got)
        except Exception as exc:  # one failed operation; the run goes on
            outcomes.append({"error": repr(exc)})
    return outcomes


def run_symbolic(inputs: dict):
    from qflab import catalog, derivations, isomorphy

    outcomes = []
    for family, n, r, k, l in inputs["tuples"]:
        spec = catalog.FamilySpec(family, n, r, k, l)
        try:
            constraints = catalog.extract_constraints(spec)
            alphas = catalog.sample_alphas(spec)
            try:
                audit = derivations.verify_claimed_weights(spec)
            except catalog.UnknownFamilyError:
                audit = None  # no claimed weights registered for this family
            outcomes.append({"spec": spec, "constraints": constraints,
                             "alphas": alphas, "audit": audit})
        except Exception as exc:  # one failed operation; the run goes on
            outcomes.append({"spec": spec, "error": repr(exc)})
    for n, alphas in inputs["cn"]:
        try:
            outcomes.append({"cn": n, "transform": isomorphy.cn_to_qn_transform(
                n, [Fraction(a) for a in alphas])})
        except Exception as exc:
            outcomes.append({"cn": n, "error": repr(exc)})
    return outcomes


# ---------------------------------------------------------------------------
# Output checks (untimed).  Each returns the number of operations attempted,
# one line per failed operation, problems with the output itself, and the text
# whose digest must repeat between runs on the same input.
# ---------------------------------------------------------------------------


def _sweep_row_failed(cells: list[str]) -> bool:
    jacobi, rank, weights, gr_cell = cells[1:5]
    got, expected = rank.rstrip(")").split("(")
    return jacobi == "FAIL" or got != expected or weights == "FAIL" or "!=" in gr_cell


def check_sweep(inputs: dict, outcome) -> dict:
    text = outcome["stdout"]
    lines = text.splitlines()
    header = f"sweep n_max={inputs['n_max']}"
    if not lines or lines[0] != header:
        return {"attempted": 0, "failures": [], "digest": text,
                "problems": [f"sweep header does not read {header!r}"]}
    rows, failures, problems = lines[2:-1], [], []
    for row in rows:
        cells = row.split()
        if len(cells) != 5:
            problems.append(f"malformed sweep row {row!r}")
        elif _sweep_row_failed(cells):
            failures.append(" ".join(cells))
    summary = "SWEEP OK" if not failures else f"SWEEP FAIL ({len(failures)} rows)"
    if lines[-1] != summary:
        problems.append(f"summary {lines[-1]!r} disagrees with {len(failures)} failing rows")
    if outcome["exit"] != (1 if failures else 0):
        problems.append(f"exit code {outcome['exit']} with {len(failures)} failing rows")
    return {"attempted": len(rows), "failures": failures, "problems": problems, "digest": text}


def check_dense(inputs: dict, outcome) -> dict:
    failures, ranks = [], {}
    for item, got in zip(inputs["items"], outcome):
        source = item["source"]
        if "error" in got:
            reasons = [got["error"]]
        else:
            # rank_in_basis depends on the basis, so it is reported and not checked
            ranks[source] = got["rank"]
            reasons = [reason for bad, reason in (
                (not got["jacobi"], "Jacobi fails"),
                (got["type"] != item["type"], f"type {got['type']} != {item['type']}"),
                (got["der"] != item["der"], f"dim Der {got['der']} != {item['der']}"),
                (got["class"] != source, f"classify_gr gives {got['class']}"),
            ) if bad]
        if reasons:
            failures.append(f"{source}: {'; '.join(reasons)}")
    problems = [] if len(outcome) == len(inputs["items"]) else ["dense outcome count differs"]
    return {"attempted": len(inputs["items"]), "failures": failures, "problems": problems,
            "digest": json.dumps(outcome, sort_keys=True), "rank_in_basis": ranks}


def check_symbolic(inputs: dict, outcome) -> dict:
    from qflab import catalog, liealg

    failures, digest = [], []
    for got in outcome:
        if "cn" in got:
            name = f"cn_to_qn_transform(n={got['cn']})"
            if "error" in got:
                failures.append(f"{name}: {got['error']}")
            elif not got["transform"].matches_qn():
                failures.append(f"{name}: image differs from Qn")
            digest.append(name)
            continue
        name = got["spec"].canonical()
        if "error" in got:
            failures.append(f"{name}: {got['error']}")
            continue
        alphas, audit = got["alphas"], got["audit"]
        reasons = []
        if alphas is None:
            if name not in NO_ALPHA:
                reasons.append("sample_alphas finds no alpha")
        elif alphas:
            if not got["constraints"].is_satisfied_by(alphas):
                reasons.append(f"alpha {[str(a) for a in alphas]} violates its constraints")
            elif not liealg.jacobi_check(catalog.generate(got["spec"].with_alphas(alphas))).ok:
                reasons.append("specialised algebra fails Jacobi")
        if audit is not None and not audit.ok:
            reasons.append("weight audit fails")
        if reasons:
            failures.append(f"{name}: {'; '.join(reasons)}")
        digest.append(" ".join([name, *(str(g) for g in got["constraints"].generators),
                                str(alphas and [str(a) for a in alphas]),
                                str(audit and audit.ok)]))
    return {"attempted": len(outcome), "failures": failures, "problems": [],
            "digest": "\n".join(digest)}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

RUNNERS = {"sweep": run_sweep, "dense": run_dense, "symbolic": run_symbolic}


def main_run(input_path: str, spans_path: str | None) -> dict:
    with open(input_path, encoding="utf-8") as handle:
        inputs = json.load(handle)
    workload = inputs["workload"]
    import qflab.cli  # noqa: F401  (import cost is setup_s, not wall_s)

    tracer = None
    if spans_path is not None:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    outcome = RUNNERS[workload](inputs)
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    checks = {"sweep": check_sweep, "dense": check_dense, "symbolic": check_symbolic}
    result = checks[workload](inputs, outcome)
    result.update(wall_s=wall, peak_rss_mb=peak_rss_mb, failed=len(result["failures"]),
                  digest=hashlib.sha256(result["digest"].encode()).hexdigest())
    if tracer is not None:
        tracer.write_spans(spans_path)
        result["layers"] = tracer.layer_metrics()
        result["counts"] = tracer.counts_only()
    return result


def main(argv: list[str]) -> int:
    mode = argv[0] if argv else ""
    if mode == "prepare" and len(argv) == 4:
        workload, seed, out = argv[1], int(argv[2]), argv[3]
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(prepare(workload, seed), handle)
        return 0
    if mode == "run" and len(argv) in (2, 3):
        print(json.dumps(main_run(argv[1], argv[2] if len(argv) == 3 else None)))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
