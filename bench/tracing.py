"""Spans and counts around calls into tripletw's layers, installed from outside.

`Tracer.install` rebinds module-level functions of the tripletw modules to
wrappers, in every tripletw namespace that holds the same function object
(the layers import each other's functions by name), and `uninstall` puts the
originals back.  Nothing is installed under src/.

`tripletw.qseries` is reached through sys.modules: the package exports the
function `qseries` under the submodule's name, so attribute access on the
package returns the function.

A function that a later change removes is skipped, and the metrics taken
from it are reported as absent rather than as zero.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

PKG = "tripletw"

# Functions timed as spans: (module, function).  Inclusive time, self time
# (inclusive minus time in nested spans) and call counts are kept for each.
SPANS = (
    ("rootsys", "_enumerate"),
    ("rootsys", "enum_dominant_in_Q"),
    ("rootsys", "weyl_dim"),
    ("params", "lambda_params"),
    ("params", "dual_module_param"),
    ("params", "narrow"),
    ("affine", "affine_exponent"),
    ("affine", "direct_exponent"),
    ("affine", "lemma310_construct"),
    ("affine", "lemma39_test"),
    ("qseries", "colored_partitions"),
    ("qseries", "w_char"),
    ("qseries", "w_char_affine"),
    ("qseries", "module_char"),
    ("qseries", "lattice_char"),
    ("qseries", "_assemble"),
    ("verify", "run_check"),
    ("verify", "_brute_pairs"),
)

# Enumerators whose yielded items are counted: (module, function, counter).
# verify.product is itertools.product as bound in verify; only the points it
# yields inside _brute_pairs are counted.
ENUMERATORS = (
    ("rootsys", "_int_boxes", "rootsys.dominant_scanned"),
    ("qseries", "_boxes", "qseries.alpha_scanned"),
    ("qseries", "_alpha_candidates", "qseries.alpha_kept"),
    ("qseries", "_signed_boxes", "qseries.lattice_scanned"),
    ("verify", "product", "verify.brute_scanned"),
)

# The function each verification suite calls once per case it checks.
CASE_FUNCS = {
    "strange_formula": ("params", "central_charge_coxeter_form"),
    "lemma215_strict": ("params", "epsilon"),
    "lemma215_boundary_report": ("params", "epsilon"),
    "lemma216_equiv": ("params", "lemma216_cond1"),
    "lemma310_bruteforce": ("verify", "_brute_pairs"),
    "remark311_iff": ("affine", "lemma39_test"),
    "exponent_identity": ("affine", "affine_exponent"),
    "char_nonneg_leading1": ("qseries", "w_char"),
    "submodule_bound": ("qseries", "lattice_char"),
    "duality_chars": ("qseries", "module_char"),
    "delta_selfdual": ("params", "delta_lambda"),
    "lambda_count": ("params", "canonical_lambda"),
}

# Module-level caches whose sizes are reported: (module, dict, metric).
CACHES = (
    ("rootsys", "_WEYL_CACHE", "rootsys.weyl_cache_entries"),
    ("rootsys", "_COMPOSE_CACHE", "rootsys.compose_cache_entries"),
    ("rootsys", "_INV_CACHE", "rootsys.inverse_cache_entries"),
    ("rootsys", "_ROOT_ACTION_CACHE", "rootsys.root_action_cache_entries"),
    ("params", "_CLASS_CACHE", "params.class_cache_entries"),
    ("affine", "_CHAMBER_CACHE", "affine.chamber_cache_entries"),
    ("affine", "_MU_CACHE", "affine.mu_cache_entries"),
)

# Per-layer metrics: (metric, unit, kind, key, function).  kind says where
# the value is read: "time" is the inclusive span time of key, "self" its
# self time, "calls" its call count and "count" the counter named key.  The
# metric is left out when `function` is missing from the program.
LAYER_METRICS = (
    ("rootsys.weyl_enumerate_s", "s", "time", "rootsys._enumerate", "rootsys._enumerate"),
    ("rootsys.weyl_elements", "count", "count", "rootsys.weyl_elements", "rootsys._enumerate"),
    ("rootsys.enum_dominant_s", "s", "time", "rootsys.enum_dominant_in_Q",
     "rootsys.enum_dominant_in_Q"),
    ("rootsys.dominant_scanned", "count", "count", "rootsys.dominant_scanned",
     "rootsys._int_boxes"),
    ("rootsys.dominant_kept", "count", "count", "rootsys.dominant_kept",
     "rootsys.enum_dominant_in_Q"),
    ("rootsys.weyl_dim_s", "s", "time", "rootsys.weyl_dim", "rootsys.weyl_dim"),
    ("params.lambda_params_s", "s", "time", "params.lambda_params", "params.lambda_params"),
    ("params.dual_module_param_s", "s", "time", "params.dual_module_param",
     "params.dual_module_param"),
    ("params.narrow_s", "s", "time", "params.narrow", "params.narrow"),
    ("affine.affine_exponent_s", "s", "time", "affine.affine_exponent",
     "affine.affine_exponent"),
    ("affine.affine_exponent_calls", "count", "calls", "affine.affine_exponent",
     "affine.affine_exponent"),
    ("affine.direct_exponent_s", "s", "time", "affine.direct_exponent",
     "affine.direct_exponent"),
    ("affine.lemma310_construct_s", "s", "time", "affine.lemma310_construct",
     "affine.lemma310_construct"),
    ("affine.lemma39_test_s", "s", "time", "affine.lemma39_test", "affine.lemma39_test"),
    ("affine.lemma39_test_calls", "count", "calls", "affine.lemma39_test",
     "affine.lemma39_test"),
    ("qseries.lattice_char_s", "s", "time", "qseries.lattice_char", "qseries.lattice_char"),
    ("qseries.lattice_scanned", "count", "count", "qseries.lattice_scanned",
     "qseries._signed_boxes"),
    ("qseries.lattice_kept", "count", "count", "qseries.lattice_kept", "qseries._assemble"),
    ("qseries.module_char_s", "s", "time", "qseries.module_char", "qseries.module_char"),
    ("qseries.alpha_scanned", "count", "count", "qseries.alpha_scanned", "qseries._boxes"),
    ("qseries.alpha_kept", "count", "count", "qseries.alpha_kept",
     "qseries._alpha_candidates"),
    ("qseries.colored_partitions_s", "s", "time", "qseries.colored_partitions",
     "qseries.colored_partitions"),
    ("qseries.weyl_terms", "count", "count", "qseries.weyl_terms", "qseries._assemble"),
    ("qseries.w_char_s", "s", "time", "qseries.w_char", "qseries.w_char"),
    ("qseries.w_char_affine_self_s", "s", "self", "qseries.w_char_affine",
     "qseries.w_char_affine"),
    ("verify.brute_scanned", "count", "count", "verify.brute_scanned", "verify.product"),
    ("verify.brute_kept", "count", "count", "verify.brute_kept", "verify._brute_pairs"),
)


def modules():
    """The loaded tripletw modules by short name ('' for the package)."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == PKG or name.startswith(PKG + ".")):
            out[name[len(PKG) + 1:]] = mod
    return out


class Tracer:
    """Records spans and counts while installed; one Tracer per traced run."""

    def __init__(self):
        self.time = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.count = defaultdict(int)
        self.cases = defaultdict(int)   # suite name -> cases counted
        self.suite_time = defaultdict(float)
        self.present = set()            # "module.function" found and wrapped
        self._stack = []                # [span name, time in nested spans]
        self._suite = None
        self._saved = []                # (namespace, attribute, original)
        self._mods = {}

    # -- installation ---------------------------------------------------

    def install(self, cases_only: bool = False):
        """Wrap the span, enumerator and case functions.  With cases_only,
        wrap only run_check and the case functions, to count suite cases."""
        mods = self._mods = modules()
        case_keys = {f"{m}.{f}" for m, f in CASE_FUNCS.values()}
        spans = [("verify", "run_check")] if cases_only else list(SPANS)
        for m, f in sorted(set(CASE_FUNCS.values())):
            if (m, f) not in spans:
                spans.append((m, f))
        for m, f in spans:
            key = f"{m}.{f}"
            self._rebind(mods, m, f, lambda orig, key=key: self._span(
                key, orig, key in case_keys))
        if cases_only:
            return
        for m, f, counter in ENUMERATORS:
            self._rebind(mods, m, f, lambda orig, c=counter: self._counting(c, orig))

    def uninstall(self):
        for ns, attr, orig in reversed(self._saved):
            ns[attr] = orig
        self._saved.clear()

    def _rebind(self, mods, m, f, make):
        mod = mods.get(m)
        orig = getattr(mod, f, None) if mod is not None else None
        if orig is None:
            return
        self.present.add(f"{m}.{f}")
        wrapper = make(orig)
        for ns in (vars(x) for x in mods.values()):
            for attr, val in list(ns.items()):
                if val is orig:
                    self._saved.append((ns, attr, orig))
                    ns[attr] = wrapper

    # -- wrappers -------------------------------------------------------

    def _span(self, key, orig, is_case):
        hook = getattr(self, "_on_" + key.replace(".", "_"), None)
        func = tuple(key.split("."))

        def wrapper(*args, **kwargs):
            if is_case and self._suite is not None and CASE_FUNCS.get(self._suite) == func:
                self.cases[self._suite] += 1
            frame = [key, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                if hook is not None:
                    return hook(orig, args, kwargs)
                return orig(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                self._stack.pop()
                self.time[key] += dur
                self.self_time[key] += dur - frame[1]
                self.calls[key] += 1
                if self._stack:
                    self._stack[-1][1] += dur

        return wrapper

    def _counting(self, counter, orig):
        code = getattr(orig, "__code__", None)

        def wrapper(*args, **kwargs):
            # a recursive call from the enumerator itself is not a new scan
            if code is not None and sys._getframe(1).f_code is code:
                return orig(*args, **kwargs)
            if counter == "verify.brute_scanned" and not self._inside("verify._brute_pairs"):
                return orig(*args, **kwargs)
            return self._count_items(counter, orig(*args, **kwargs))

        return wrapper

    def _count_items(self, counter, items):
        for item in items:
            self.count[counter] += 1
            yield item

    def _inside(self, key):
        return bool(self._stack) and self._stack[-1][0] == key

    # -- hooks for spans that also count --------------------------------

    def _on_rootsys__enumerate(self, orig, args, kwargs):
        cache = getattr(self._mods["rootsys"], "_WEYL_CACHE", {})
        miss = args[0].type not in cache
        out = orig(*args, **kwargs)
        if miss:
            self.count["rootsys.weyl_elements"] += len(out[0])
        return out

    def _on_rootsys_enum_dominant_in_Q(self, orig, args, kwargs):
        out = orig(*args, **kwargs)
        self.count["rootsys.dominant_kept"] += len(out)
        return out

    def _on_qseries__assemble(self, orig, args, kwargs):
        terms = list(args[1])
        caller = self._stack[-2][0] if len(self._stack) > 1 else None
        kept = "qseries.lattice_kept" if caller == "qseries.lattice_char" \
            else "qseries.weyl_terms"
        self.count[kept] += len(terms)
        return orig(args[0], terms, *args[2:], **kwargs)

    def _on_verify__brute_pairs(self, orig, args, kwargs):
        # points inside the ball: lemma39_test runs once per Weyl element there
        before = self.calls["affine.lemma39_test"]
        out = orig(*args, **kwargs)
        elems = len(args[3])
        self.count["verify.brute_kept"] += (self.calls["affine.lemma39_test"] - before) // elems
        return out

    def _on_verify_run_check(self, orig, args, kwargs):
        name = args[0]
        outer, self._suite = self._suite, name
        start = time.perf_counter()
        try:
            return orig(*args, **kwargs)
        finally:
            self.suite_time[name] += time.perf_counter() - start
            self._suite = outer

    # -- results ----------------------------------------------------------

    def record(self) -> dict:
        """Everything measured so far, plus the current cache sizes."""
        mods = modules()
        caches = {}
        for m, attr, metric in CACHES:
            d = getattr(mods.get(m), attr, None)
            if isinstance(d, dict):
                caches[metric] = len(d)
        return {
            "present": sorted(self.present),
            "time": dict(self.time),
            "self": dict(self.self_time),
            "calls": dict(self.calls),
            "count": dict(self.count),
            "cases": dict(self.cases),
            "suite_time": dict(self.suite_time),
            "caches": caches,
        }


def merge(records):
    """Sum records from several processes; cache sizes take the maximum."""
    out = {"present": set(), "time": defaultdict(float), "self": defaultdict(float),
           "calls": defaultdict(int), "count": defaultdict(int),
           "cases": defaultdict(int), "suite_time": defaultdict(float),
           "caches": {}}
    for rec in records:
        out["present"] |= set(rec["present"])
        for kind in ("time", "self", "calls", "count", "cases", "suite_time"):
            for k, v in rec[kind].items():
                out[kind][k] += v
        for k, v in rec["caches"].items():
            out["caches"][k] = max(v, out["caches"].get(k, 0))
    out["present"] = sorted(out["present"])
    return out


def layer_metrics(rec, suites) -> dict:
    """Per-layer metrics from a record, in the benchmark's names.

    suites: the suite names whose time verify.<suite>_s reports.  A metric
    whose function is missing from the program is left out.
    """
    present = set(rec["present"])
    out = {}
    for name, unit, kind, key, function in LAYER_METRICS:
        if function in present:
            out[name] = (rec[kind].get(key, 0), unit)
    for m, attr, metric in CACHES:
        if metric in rec["caches"]:
            out[metric] = (rec["caches"][metric], "count")
    if "verify.run_check" in present:
        for s in suites:
            out[f"verify.{s}_s"] = (rec["suite_time"].get(s, 0.0), "s")
    return out
