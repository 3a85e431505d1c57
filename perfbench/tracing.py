"""Per-layer tracing of qflab, installed from outside the package.

Each public function of the seven layer modules is replaced by a wrapper that
records a span (function, start, end, enclosing span).  The wrapper is put in
place in the defining module and in every module that bound the function with
``from ... import``; function-local imports resolve at call time and so pick
the wrapper up from the defining module.  A few very hot functions are only
counted (and, where noted, timed in aggregate) so that tracing does not
swamp the work it measures.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array

LAYERS = ("exact", "liealg", "catalog", "gradation", "derivations", "isomorphy", "cli")

# Called so often that a span per call would dominate the run.  Each is
# counted; a timed one also has its time moved from the caller's self time
# to its own layer.
COUNTED = {"exact.Poly.__add__": False, "exact.Poly.__mul__": False,
           "exact.RowSpace.add": False, "liealg.rational_bracket": True}

ECHELON = ("exact.nullspace", "exact.matrix_rank", "exact.solve_linear")


def _fraction_bits(values) -> int:
    bits = 0
    for q in values:
        bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())
    return bits


class Tracer:
    """Wraps the qflab layers; ``install`` and ``uninstall`` bracket a traced run."""

    def __init__(self):
        self.names: list[str] = []          # function id -> "layer.qualname"
        self.span_fid = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_hidden = array("d")       # time of timed counted calls inside
        self.span_outer = array("b")        # 1 unless nested in the same function
        self.counts: dict[str, int] = {}
        self.counted_s: dict[str, float] = {}
        self.observed: dict[str, int] = {}
        self._stack: list[int] = []
        self._depth: list[int] = []
        self._seen_fingerprints: set = set()
        self._seen_constraints: set = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"qflab.{layer}") for layer in LAYERS}
        targets = list(modules.values()) + [importlib.import_module("qflab")]
        replacements: dict[int, object] = {}
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                replacements[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        for module in targets:
            for name, obj in list(vars(module).items()):
                if id(obj) in replacements:
                    self._patch(module, name, replacements[id(obj)])
        for key in COUNTED:
            layer, *owner, method = key.split(".")
            cls = getattr(modules[layer], owner[0], None) if owner else None
            original = vars(cls).get(method) if cls is not None else None
            if original is not None:
                wrapper = self._wrap(key, original)
                for attr, value in list(vars(cls).items()):
                    if value is original:  # aliases such as __radd__ = __add__
                        self._patch(cls, attr, wrapper)

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, key: str, fn):
        if key in COUNTED:
            return self._counted(key, fn, timed=COUNTED[key])
        return self._spanned(key, fn)

    def _fid(self, key: str) -> int:
        self.names.append(key)
        self._depth.append(0)
        return len(self.names) - 1

    def _counted(self, key: str, fn, timed: bool):
        counts = self.counts
        counts[key] = 0
        observe = self._observer(key)
        if not timed:
            @functools.wraps(fn)
            def counter(*args, **kwargs):
                counts[key] += 1
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, kwargs, result)
                return result
            return counter

        clock, stack, hidden, totals = time.perf_counter, self._stack, self.span_hidden, self.counted_s
        totals[key] = 0.0

        @functools.wraps(fn)
        def timed_counter(*args, **kwargs):
            counts[key] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                totals[key] += elapsed
                if stack:
                    hidden[stack[-1]] += elapsed
        return timed_counter

    def _spanned(self, key: str, fn):
        if key == "liealg.jacobi_check":
            # concrete and symbolic tables are timed apart
            concrete, symbolic = self._fid(f"{key}.concrete"), self._fid(f"{key}.symbolic")

            def pick(args):
                return symbolic if args[0].params else concrete
        else:
            plain = self._fid(key)

            def pick(args):
                return plain
        observe = self._observer(key)
        clock, stack, depth = time.perf_counter, self._stack, self._depth
        fid_a, parent_a, start_a, end_a = self.span_fid, self.span_parent, self.span_start, self.span_end
        hidden_a, outer_a = self.span_hidden, self.span_outer

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            fid = pick(args)
            index = len(fid_a)
            fid_a.append(fid)
            parent_a.append(stack[-1] if stack else -1)
            start_a.append(0.0)
            end_a.append(0.0)
            hidden_a.append(0.0)
            outer_a.append(0 if depth[fid] else 1)
            depth[fid] += 1
            stack.append(index)
            start_a[index] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end_a[index] = clock()
                stack.pop()
                depth[fid] -= 1
            if observe is not None:
                observe(args, kwargs, result)
            return result
        return spanned

    def _observer(self, key: str):
        obs = self.observed
        if key in ECHELON:
            def echelon(args, kwargs, result):
                obs["exact.echelon.rows_in"] = obs.get("exact.echelon.rows_in", 0) + len(args[0])
                if key == "exact.nullspace":
                    values = (q for vec in result for q in vec)
                elif key == "exact.solve_linear":
                    values = (q for vec in (result.particular,) + result.kernel for q in vec)
                else:
                    return
                obs["exact.echelon.out_bits"] = max(obs.get("exact.echelon.out_bits", 0),
                                                    _fraction_bits(values))
            return echelon
        if key == "exact.RowSpace.add":
            def rowspace(args, kwargs, result):
                obs["exact.rowspace.useful"] = obs.get("exact.rowspace.useful", 0) + bool(result)
            return rowspace
        if key == "isomorphy.catalog_fingerprint":
            seen = self._seen_fingerprints

            def fingerprint(args, kwargs, result):
                spec_key = args[0].canonical()
                obs["isomorphy.catalog_fingerprint.hits"] = (
                    obs.get("isomorphy.catalog_fingerprint.hits", 0) + (spec_key in seen))
                seen.add(spec_key)
            return fingerprint
        if key == "catalog.extract_constraints":
            seen = self._seen_constraints

            def constraints(args, kwargs, result):
                spec = args[0]
                misprint = kwargs.get("misprint", args[1] if len(args) > 1 else False)
                seen.add((spec.family, spec.n, spec.r, spec.k, spec.l, misprint))
            return constraints
        if key == "catalog.sample_alphas":
            def sample(args, kwargs, result):
                obs["catalog.sample_alphas.found"] = (
                    obs.get("catalog.sample_alphas.found", 0) + (result is not None))
            return sample
        return None

    # -- results -----------------------------------------------------------------

    def aggregate(self) -> dict:
        """Per-function calls, total time of outermost calls and self time."""
        n = len(self.span_fid)
        child = [0.0] * n
        fid_a, parent_a, start_a, end_a = self.span_fid, self.span_parent, self.span_start, self.span_end
        for i in range(n):
            p = parent_a[i]
            if p >= 0:
                child[p] += end_a[i] - start_a[i]
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            f = fid_a[i]
            duration = end_a[i] - start_a[i]
            calls[f] += 1
            if self.span_outer[i]:
                total[f] += duration
            self_s[f] += duration - child[i] - self.span_hidden[i]
        functions = {}
        for f, key in enumerate(self.names):
            functions[key] = {"calls": calls[f], "s": total[f], "self_s": self_s[f]}
        for key, count in self.counts.items():
            functions[key] = {"calls": count, "s": self.counted_s.get(key, 0.0),
                              "self_s": self.counted_s.get(key, 0.0)}
        return functions

    def write_spans(self, path: str) -> None:
        spans = [[self.names[self.span_fid[i]], self.span_parent[i],
                  round(self.span_start[i], 9), round(self.span_end[i], 9)]
                 for i in range(len(self.span_fid))]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": spans, "counts": self.counts}, handle)

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of the benchmark, from this run's spans and counts."""
        fn = self.aggregate()
        obs = self.observed

        def get(key, field):
            return sum(v[field] for k, v in fn.items() if k == key or k.startswith(key + "."))

        def ratio(num, den):
            return num / den if den else 0.0

        m: dict[str, float] = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(v["self_s"] for k, v in fn.items() if k.split(".")[0] == layer)
        fp_calls = get("isomorphy.catalog_fingerprint", "calls")
        ec_calls = get("catalog.extract_constraints", "calls")
        sa_calls = get("catalog.sample_alphas", "calls")
        adds = get("exact.RowSpace.add", "calls")
        m.update({
            "isomorphy.classify_gr.s": get("isomorphy.classify_gr", "s"),
            "isomorphy.fingerprint.calls": get("isomorphy.fingerprint", "calls"),
            "isomorphy.fingerprint.s": get("isomorphy.fingerprint", "s"),
            "isomorphy.catalog_fingerprint.calls": fp_calls,
            "isomorphy.catalog_fingerprint.hit_ratio":
                ratio(obs.get("isomorphy.catalog_fingerprint.hits", 0), fp_calls),
            "isomorphy.cn_to_qn_transform.s": get("isomorphy.cn_to_qn_transform", "s"),
            "gradation.lower_central_series.calls": get("gradation.lower_central_series", "calls"),
            "gradation.lower_central_series.s": get("gradation.lower_central_series", "s"),
            "gradation.type_of.s": get("gradation.type_of", "s"),
            "gradation.gr.s": get("gradation.gr", "s"),
            "liealg.rational_bracket.calls": get("liealg.rational_bracket", "calls"),
            "liealg.jacobi_concrete.s": get("liealg.jacobi_check.concrete", "s"),
            "liealg.jacobi_symbolic.s": get("liealg.jacobi_check.symbolic", "s"),
            "liealg.change_of_basis.s": get("liealg.change_of_basis", "s"),
            "exact.echelon.calls": sum(get(k, "calls") for k in ECHELON),
            "exact.echelon.s": sum(get(k, "s") for k in ECHELON),
            "exact.echelon.rows_in": obs.get("exact.echelon.rows_in", 0),
            "exact.echelon.out_bits": obs.get("exact.echelon.out_bits", 0),
            "exact.rowspace.adds": adds,
            "exact.rowspace.useful_ratio": ratio(obs.get("exact.rowspace.useful", 0), adds),
            "exact.poly.mul_calls": get("exact.Poly.__mul__", "calls"),
            "exact.poly.add_calls": get("exact.Poly.__add__", "calls"),
            "derivations.leibniz_rows.s": get("derivations.leibniz_rows", "s"),
            "derivations.derivation_dim.s": get("derivations.derivation_dim", "s"),
            "derivations.rank_in_basis.s": get("derivations.rank_in_basis", "s"),
            "derivations.verify_claimed_weights.s": get("derivations.verify_claimed_weights", "s"),
            "catalog.generate.s": get("catalog.generate", "s"),
            "catalog.extract_constraints.calls": ec_calls,
            "catalog.extract_constraints.distinct_ratio": ratio(len(self._seen_constraints), ec_calls),
            "catalog.sample_alphas.s": get("catalog.sample_alphas", "s"),
            "catalog.sample_alphas.found_ratio": ratio(obs.get("catalog.sample_alphas.found", 0), sa_calls),
            "cli.doc_to_algebra.s": get("cli.doc_to_algebra", "s"),
        })
        return m

    def counts_only(self) -> dict[str, int]:
        """Every call count of the run; these repeat exactly between runs."""
        out = {k: v["calls"] for k, v in self.aggregate().items()}
        out.update({k: int(v) for k, v in self.observed.items()})
        return out

