"""The names and argument positions that bench/tracing.py reads.

The tracer rebinds package functions by module and name, reads some of their
arguments by position, and reports cache dicts by name.  A renamed function
does not fail a traced benchmark run: its metrics silently drop out.  These
tests read the tracer's tables (without changing them) so that such a rename
fails here instead.
"""

import importlib
import importlib.util
import inspect
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _module(m):
    return importlib.import_module(f"tripletw.{m}")


def _named_functions(tracing):
    names = set(tracing.SPANS)
    names |= {(m, f) for m, f, _ in tracing.ENUMERATORS}
    names |= set(tracing.CASE_FUNCS.values())
    names |= {tuple(f.split(".")) for *_, f in tracing.LAYER_METRICS}
    return sorted(names)


def test_every_traced_function_exists(tracing):
    missing = [f"{m}.{f}" for m, f in _named_functions(tracing)
               if not callable(getattr(_module(m), f, None))]
    assert missing == []


def test_every_reported_cache_is_a_dict(tracing):
    for m, attr, _ in tracing.CACHES:
        assert isinstance(getattr(_module(m), attr, None), dict), f"{m}.{attr}"


def test_every_suite_has_a_case_function(tracing):
    verify = _module("verify")
    assert set(tracing.CASE_FUNCS) == set(verify.CHECK_NAMES)


# The tracer's hooks read these arguments by position.
HOOK_ARGUMENTS = [
    ("rootsys", "_enumerate", ("rs",)),
    ("qseries", "_assemble", ("mp", "terms")),
    ("verify", "_brute_pairs", ("mp", "alpha", "lam", "elems")),
    ("verify", "run_check", ("name", "grid")),
]


@pytest.mark.parametrize("m,f,leading", HOOK_ARGUMENTS)
def test_hooked_functions_keep_their_argument_positions(tracing, m, f, leading):
    hook = "_on_" + f"{m}.{f}".replace(".", "_")
    assert hasattr(tracing.Tracer, hook), f"the tracer no longer hooks {m}.{f}"
    params = list(inspect.signature(getattr(_module(m), f)).parameters)
    assert tuple(params[:len(leading)]) == leading


def test_enumerate_returns_the_listing_first():
    # the tracer's _enumerate hook counts len(out[0]) as the elements listed
    from tripletw.rootsys import _enumerate, build_root_system, weyl_enumerate

    rs = build_root_system("A3")
    out = _enumerate(rs)
    assert isinstance(out, tuple)
    assert out[0] == weyl_enumerate(rs)
    assert len(out[0]) == rs.weyl_order


def test_a_traced_run_reports_every_layer_metric(tracing):
    import tripletw as tw

    grid = tw.GridSpec(types=("A1",), p_values=(2,), order=4, cross_order=4)
    plain = tw.run_check("exponent_identity", grid)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # looked up on the package after install, which rebinds it there
        traced = tw.run_check("exponent_identity", grid)
    finally:
        tracer.uninstall()
    assert (traced.status, traced.counterexamples) == (plain.status, plain.counterexamples)
    rec = tracer.record()
    assert rec["cases"]["exponent_identity"] > 0
    metrics = tracing.layer_metrics(rec, ("exponent_identity",))
    want = {name for name, *_ in tracing.LAYER_METRICS}
    want |= {metric for *_, metric in tracing.CACHES}
    assert want <= set(metrics)


def test_a_traced_benchmark_run_ends_with_a_complete_result(tmp_path):
    # run on a copy, so the checkout's bench/ gets no results written
    (tmp_path / "bench").mkdir()
    for f in (ROOT / "bench").glob("*.py"):
        shutil.copy(f, tmp_path / "bench")
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = ROOT / "BENCHMARK.json"
    before = (spec.read_bytes(), spec.stat().st_mtime_ns)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    r = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "affine_orbits",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), r.stderr
    want = {m["name"] for m in json.loads(before[0])["per_layer"]}
    assert want <= set(result["metrics"])
    assert (spec.read_bytes(), spec.stat().st_mtime_ns) == before
