import contextlib
import contextvars
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tripletw.cli import _write_json

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "tripletw", *args],
        capture_output=True, text=True, timeout=120,
    )


def test_info_json():
    r = run_cli("info", "--type", "A2")
    assert r.returncode == 0
    got = json.loads(r.stdout)
    assert got["type"] == "A2"
    assert got["rank"] == 2
    assert got["coxeter_h"] == 3
    assert got["dim_g"] == 8
    assert got["weyl_order"] == 6
    assert got["pq_order"] == 3
    assert got["theta_root"] == [1, 1]
    assert got["cartan"] == [[2, -1], [-1, 2]]
    assert got["inv_cartan"] == [["2/3", "1/3"], ["1/3", "2/3"]]
    assert [e["weight"] for e in got["lambda0"]] == [[0, 0], [1, 0], [0, 1]]


def test_info_text_and_csv():
    r = run_cli("info", "--type", "D4", "--output", "text")
    assert r.returncode == 0
    assert "weyl_order    192" in r.stdout
    r = run_cli("info", "--type", "A1", "--output", "csv")
    assert r.returncode == 0
    assert "coxeter_h,2\n" in r.stdout


@pytest.mark.parametrize("fmt,golden", [
    ("json", "info_e6.json"), ("csv", "info_e6.csv"), ("text", "info_e6.txt"),
])
def test_info_golden_e6(fmt, golden):
    r = run_cli("info", "--type", "E6", "--output", fmt)
    assert r.returncode == 0
    assert r.stdout == (GOLDEN / golden).read_text()


def test_stdout_closed_after_one_line_exits_141_quietly():
    # 2.6 MB of rows cannot fit in the pipe, so the writer meets the close
    proc = subprocess.Popen(
        [sys.executable, "-m", "tripletw", "lambda-list", "--type", "D4", "-p", "6"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 141
    assert err == b""


def test_stdout_closed_before_any_read_exits_141_quietly():
    r, w = os.pipe()
    os.close(r)  # no reader from the start: the first flush fails
    try:
        got = subprocess.run([sys.executable, "-m", "tripletw", "info", "--type", "A1"],
                             stdout=w, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(w)
    assert got.returncode == 141
    assert got.stderr == b""


def test_char_w_golden_a1():
    r = run_cli("char", "w", "--type", "A1", "-p", "2", "--order", "9")
    assert r.returncode == 0
    got = json.loads(r.stdout)
    assert got == {
        "base": {"num": 1, "den": 12},
        "coeffs": [1, 0, 1, 1, 2, 2, 4, 4, 7, 8],
        "order": 9,
    }
    assert r.stdout == (GOLDEN / "char_w_a1_p2.json").read_text()


def test_char_w_golden_a2():
    r = run_cli("char", "w", "--type", "A2", "-p", "3", "--order", "12")
    assert r.returncode == 0
    assert r.stdout == (GOLDEN / "char_w_a2_p3.json").read_text()


def test_char_affine_route_matches_direct():
    a = run_cli("char", "w", "--type", "A2", "-p", "3", "--order", "8")
    b = run_cli("char", "w-affine", "--type", "A2", "-p", "3", "--order", "8")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_char_csv_exact():
    r = run_cli("char", "w", "--type", "A1", "-p", "2", "--order", "2",
                "--output", "csv")
    assert r.returncode == 0
    assert r.stdout == (
        "n,exponent_num,exponent_den,coeff\n"
        "0,1,12,1\n"
        "1,13,12,0\n"
        "2,25,12,1\n"
    )


def test_char_text():
    r = run_cli("char", "lattice", "--type", "A1", "-p", "2", "--order", "3",
                "--output", "text")
    assert r.returncode == 0
    assert r.stdout.startswith("base   1/12\n")


def test_char_module():
    r = run_cli("char", "module", "--type", "A1", "-p", "2", "--order", "5")
    got = json.loads(r.stdout)
    assert got["coeffs"][:3] == [1, 0, 1]


def test_char_byte_stability():
    args = ("char", "module", "--type", "A2", "-p", "3", "--order", "10")
    assert run_cli(*args).stdout == run_cli(*args).stdout


@pytest.mark.parametrize(
    "args",
    [
        ("info", "--type", "B2"),
        ("char", "w", "--type", "A2", "-p", "3", "--alpha", "1"),
        ("char", "w", "--type", "A2", "-p", "3", "--alpha", "x,y"),
        ("char", "w", "--type", "A2", "-p", "3", "--lambda0", "2,0"),
        ("char", "w", "--type", "A2", "-p", "3", "--sp", "0,5"),
        ("char", "module", "--type", "A1", "-p", "2", "--alpha", "2"),
        ("char", "w", "--type", "A1", "-p", "1"),
        ("char", "w", "--type", "A1", "-p", "2", "--order", "-1"),
        ("lambda-list", "--type", "A1", "-p", "0"),
        ("verify", "no_such_suite", "--type", "A1", "-p", "2"),
    ],
)
def test_argument_errors_exit_2(args):
    r = run_cli(*args)
    assert r.returncode == 2
    assert r.stderr.startswith("error:")


@pytest.mark.parametrize("cap", ["0", "-5"])
@pytest.mark.parametrize("command", [("char", "w", "--type", "A1", "-p", "2"),
                                     ("verify", "--type", "A1", "-p", "2")])
def test_nonpositive_weyl_cap_is_an_argument_error(command, cap):
    r = run_cli(*command, "--weyl-cap", cap)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == f"error: --weyl-cap must be >= 1, got {cap}\n"


def test_main_returns_the_argparse_status(capsys):
    from tripletw.cli import main

    assert main(["char", "w", "--type", "A1"]) == 2  # -p is missing
    out, err = capsys.readouterr()
    assert out == "" and "required" in err
    assert main(["--help"]) == 0
    assert "usage: tripletw" in capsys.readouterr().out
    r = run_cli("char", "w", "--type", "A1")
    assert (r.returncode, r.stdout) == (2, "")


def test_non_narrow_exits_3():
    r = run_cli("char", "w-affine", "--type", "A2", "-p", "2",
                "--sp", "1,1")
    assert r.returncode == 3
    assert "not narrow" in r.stderr
    assert "> p = 2" in r.stderr
    # the direct route has no narrowness requirement
    r = run_cli("char", "w", "--type", "A2", "-p", "2", "--sp", "1,1")
    assert r.returncode == 0


def test_alpha_precondition_exits_3():
    r = run_cli("char", "w", "--type", "A1", "-p", "2", "--alpha", "1")
    assert r.returncode == 3
    assert "root lattice" in r.stderr


def test_cap_exits_4():
    r = run_cli("char", "w", "--type", "E8", "-p", "2")
    assert r.returncode == 4
    assert "696729600" in r.stderr
    r = run_cli("char", "w", "--type", "A3", "-p", "2", "--weyl-cap", "23")
    assert r.returncode == 4
    r = run_cli("lambda-list", "--type", "E8", "-p", "6")
    assert r.returncode == 4
    assert "1679616" in r.stderr
    assert r.stdout == ""
    # E7 passes the parameter cap, and w0 lists no W, so no Weyl cap applies;
    # w0 = -1 on E7, so every dual column equals its own
    r = run_cli("lambda-list", "--type", "E7", "-p", "2")
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["count"] == len(doc["rows"]) == 256
    for row in doc["rows"]:
        assert (row["dual_lambda0"], row["dual_sp"]) == (row["lambda0"], row["sp"])


# A sweep over all 51,840 elements of W(E6) takes about 11 s per process;
# the orbit walk keeps both calls near start-up time.
COLD_E6_BUDGET_S = 3.0


@pytest.mark.parametrize("kind", ["w", "module"])
def test_cold_e6_direct_characters_within_budget(kind):
    start = time.perf_counter()
    r = run_cli("char", kind, "--type", "E6", "-p", "13", "--order", "3")
    elapsed = time.perf_counter() - start
    assert r.returncode == 0, r.stderr
    assert elapsed < COLD_E6_BUDGET_S, f"char {kind} E6 took {elapsed:.2f} s"


def test_weyl_cap_does_not_leak_between_in_process_calls(capsys):
    from tripletw import WEYL_CAP
    from tripletw.cli import main

    default = WEYL_CAP.get()
    assert main(["char", "w", "--type", "A1", "-p", "2", "--weyl-cap", "1"]) == 4
    assert WEYL_CAP.get() == default
    assert main(["char", "w", "--type", "A2", "-p", "3"]) == 0
    capsys.readouterr()


def test_cap_is_reset_after_exit_4_and_5(monkeypatch, capsys):
    from tripletw import WEYL_CAP, OrderUnderflow
    from tripletw import cli

    default = WEYL_CAP.get()

    def boom(*args):
        raise OrderUnderflow("injected", required=1)

    monkeypatch.setattr(cli, "lattice_char", boom)
    assert cli.main(["char", "lattice", "--type", "A1", "-p", "2",
                     "--weyl-cap", "7"]) == 5
    err = capsys.readouterr().err
    assert "Traceback" in err and "OrderUnderflow: injected" in err
    assert WEYL_CAP.get() == default
    assert cli.main(["char", "w", "--type", "A2", "-p", "3", "--weyl-cap", "5"]) == 4
    assert WEYL_CAP.get() == default
    capsys.readouterr()


def test_library_cap_matches_cli_cap():
    # a fresh interpreter, so no cached Weyl data outlives the cap
    code = (
        "import json, tripletw as tw\n"
        "tw.WEYL_CAP.set(5)\n"
        "grid = tw.GridSpec(types=('A2',), p_values=(3,), order=6, cross_order=6)\n"
        "print(json.dumps([(r.check_name, r.status, list(r.info))"
        " for r in tw.run_all(grid)]))\n"
    )
    lib = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120)
    assert lib.returncode == 0, lib.stderr
    r = run_cli("verify", "all", "--type", "A2", "-p", "3", "--order", "6",
                "--weyl-cap", "5")
    assert r.returncode == 0
    cli_reports = [[e["check"], e["status"], e["info"]] for e in json.loads(r.stdout)]
    assert json.loads(lib.stdout) == cli_reports
    statuses = {c: s for c, s, _ in cli_reports}
    # the chamber element is built from its words, like w0, so the chamber
    # criterion lists no W; the dual parameter needs only w0
    assert statuses["remark311_iff"] == "pass"
    assert statuses["delta_selfdual"] == statuses["lambda_count"] == "pass"


def test_optimized_interpreter_gives_the_same_verify_output():
    # invariants are explicit raises, so python -O still checks them
    plain = run_cli("verify", "all")
    optimized = subprocess.run([sys.executable, "-O", "-m", "tripletw", "verify", "all"],
                               capture_output=True, text=True, timeout=120)
    assert plain.returncode == optimized.returncode == 0
    assert optimized.stdout == plain.stdout
    assert plain.stdout == (GOLDEN / "verify_all.json").read_text()


def test_lambda_list_counts():
    r = run_cli("lambda-list", "--type", "A1", "-p", "2")
    assert json.loads(r.stdout)["count"] == 4
    r = run_cli("lambda-list", "--type", "A2", "-p", "2")
    assert json.loads(r.stdout)["count"] == 12
    r = run_cli("lambda-list", "--type", "A2", "-p", "2", "--narrow-only")
    got = json.loads(r.stdout)
    assert got["count"] == 3
    assert all(row["narrow"] for row in got["rows"])
    assert all(row["sp"] == [0, 0] for row in got["rows"])


def test_lambda_list_csv_and_text():
    r = run_cli("lambda-list", "--type", "A1", "-p", "2", "--output", "csv")
    lines = r.stdout.splitlines()
    assert lines[0] == ("lambda0,sp,delta,narrow,dual_lambda0,dual_sp,"
                        "dual_module_lambda0,dual_module_sp")
    assert lines[1] == "0,0,0,true,0,0,1,0"
    r = run_cli("lambda-list", "--type", "A1", "-p", "2", "--output", "text")
    assert r.returncode == 0
    assert "4 parameters" in r.stdout


def test_verify_single_suite():
    r = run_cli("verify", "strange_formula", "--type", "A2,D4")
    assert r.returncode == 0
    got = json.loads(r.stdout)
    assert len(got) == 1
    assert got[0]["check"] == "strange_formula"
    assert got[0]["status"] == "pass"
    assert set(got[0]) == {"check", "status", "counterexamples", "grid", "info"}


def test_verify_small_grid_all():
    from tripletw import GridSpec, run_all

    args = ("verify", "all", "--type", "A1", "-p", "2", "--order", "8")
    r = run_cli(*args)
    assert r.returncode == 0
    got = json.loads(r.stdout)
    assert len(got) == 12
    assert all(e["status"] == "pass" for e in got)
    # byte-stable: no timing or other run-dependent data in the output
    assert r.stdout == run_cli(*args).stdout
    # the library grid over the same ranges runs the same checks
    lib = run_all(GridSpec(types=("A1",), p_values=(2,), order=8))
    assert [(e["check"], e["grid"], e["status"]) for e in got] == [
        (x.check_name, x.grid, x.status) for x in lib]


def test_verify_text_output():
    r = run_cli("verify", "lambda_count", "--type", "A1", "-p", "3",
                "--output", "text")
    assert r.returncode == 0
    assert r.stdout.startswith("PASS    lambda_count")


@pytest.mark.parametrize("extra,golden", [
    ((), "lambda_list_a2_p3.json"),
    (("--output", "csv"), "lambda_list_a2_p3.csv"),
    (("--output", "text"), "lambda_list_a2_p3.txt"),
    (("--narrow-only",), "lambda_list_a2_p3_narrow.json"),
])
def test_lambda_list_golden(extra, golden):
    r = run_cli("lambda-list", "--type", "A2", "-p", "3", *extra)
    assert r.returncode == 0
    assert r.stdout == (GOLDEN / golden).read_text()


def test_lambda_list_d4_p6_bytes():
    r = run_cli("lambda-list", "--type", "D4", "-p", "6")
    assert r.returncode == 0
    assert len(r.stdout) == 2_616_324
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == (
        "d9001de40750422b64de98d0d4ae207c93ce0bcff2fd5e3fb16447c7d3e98a1e")


def test_lambda_list_empty_narrow_only():
    # D4 p=3 < h-1 = 5: no parameter is narrow
    r = run_cli("lambda-list", "--type", "D4", "-p", "3", "--narrow-only")
    assert r.returncode == 0
    assert '"count": 0' in r.stdout
    assert '"rows": []' in r.stdout


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_lambda_list_memory_does_not_grow_with_rows(fmt):
    # 5,184 rows, 2.6 MB of json: holding the rows or the text takes more
    from tripletw import build_root_system, weyl_enumerate
    from tripletw.cli import main

    weyl_enumerate(build_root_system("D4"))  # a cache the command may reuse
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = main(["lambda-list", "--type", "D4", "-p", "6", "--output", fmt])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 4_000_000, f"{fmt}: tracemalloc peak {peak} bytes"


def test_w0_and_the_parameter_layer_list_no_weyl_group():
    # a fresh interpreter: W listed anywhere would leave its context in
    # _WEYL_CACHE; cap 1 would refuse any call that reads Weyl data.  The
    # chamber element, like w0, is built from its words.
    code = (
        "import contextlib, io, json\n"
        "import tripletw as tw\n"
        "from tripletw import cli, rootsys\n"
        "def run():\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(['lambda-list', '--type', 'D4', '-p', '6'])\n"
        "    grid = tw.GridSpec(types=('E7',), p_values=(2,))\n"
        "    out = [tw.run_check(c, grid).status for c in ('lemma216_equiv', 'delta_selfdual')]\n"
        "    for t in ('E7', 'E8'):\n"
        "        mp = tw.build_model(tw.build_root_system(t), 2)\n"
        "        for lam0 in tw.lambda0_set(mp.rs):\n"
        "            tw.lemma310_construct(mp, (0,) * mp.rs.rank, lam0)\n"
        "    grid = tw.GridSpec(types=('A3',), p_values=(4,))\n"
        "    out.append(tw.run_check('remark311_iff', grid).status)\n"
        "    return [code, len(rootsys._WEYL_CACHE)] + out\n"
        "print(json.dumps(run()))\n"
        "tw.WEYL_CAP.set(1)\n"
        "print(json.dumps(run()), len(rootsys._WEYL_CACHE))\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == ['[0, 0, "pass", "pass", "pass"]',
                                     '[0, 0, "pass", "pass", "pass"] 0']


# `python -m tripletw ARGV` that reports its own peak RSS on stderr as it
# exits, where the kernel exposes it; `python -m tripletw` would give the
# parent no way to read it.
_PEAK_RSS_CHILD = """
import atexit, runpy, sys

def report():
    try:
        with open("/proc/self/status") as f:
            hwm = [line for line in f if line.startswith("VmHWM:")]
    except OSError:
        return
    sys.stderr.write(hwm[0] if hwm else "")

atexit.register(report)
sys.argv = ["tripletw"] + sys.argv[1:]
runpy.run_module("tripletw", run_name="__main__", alter_sys=True)
"""


def _run_measured(*argv):
    """(completed child, wall seconds, VmHWM in kB or None)."""
    start = time.perf_counter()
    r = subprocess.run([sys.executable, "-c", _PEAK_RSS_CHILD, *argv],
                       capture_output=True, timeout=120)
    elapsed = time.perf_counter() - start
    hwm = [line for line in r.stderr.decode().splitlines() if line.startswith("VmHWM:")]
    return r, elapsed, int(hwm[0].split()[1]) if hwm else None


def test_e6_lattice_window_is_fast_and_small():
    # 915,875 lattice points for 439 coefficients, from a window anchored at
    # |(p-1) rho|^2 / 2p = 432
    r, elapsed, kb = _run_measured("char", "lattice", "--type", "E6", "-p", "13",
                                   "--order", "6")
    assert r.returncode == 0, r.stderr
    assert hashlib.sha256(r.stdout).hexdigest() == (
        "24efd9f3d3229b787c93b07d0bd21eba80c70923fcbd61c48ee352e045b1b581")
    assert elapsed < 8, f"took {elapsed:.1f} s"
    if kb is None:
        pytest.skip("no /proc/self/status: the peak RSS is unchecked")
    assert kb < 40 * 1024, f"peak RSS {kb} kB"


def test_cold_e6_affine_character_is_fast_and_small():
    # the affine route sweeps all 51,840 elements of W(E6) from a cold start
    args = ("--type", "E6", "-p", "13", "--order", "3")
    r, elapsed, kb = _run_measured("char", "w-affine", *args)
    assert r.returncode == 0, r.stderr
    direct = run_cli("char", "w", *args)
    assert direct.returncode == 0
    assert r.stdout.decode() == direct.stdout
    assert elapsed < 8, f"took {elapsed:.1f} s"
    if kb is None:
        pytest.skip("no /proc/self/status: the peak RSS is unchecked")
    assert kb < 100 * 1024, f"peak RSS {kb} kB"


def test_a_verify_with_no_case_lists_no_weyl_group():
    # no E6 parameter is narrow at p=2, so exponent_identity has no case and
    # W(E6), 51,840 elements, is never listed
    r, _, kb = _run_measured("verify", "exponent_identity", "--type", "E6", "-p", "2",
                             "--order", "3")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)[0]["info"] == ["no case: no narrow parameter in grid"]
    if kb is None:
        pytest.skip("no /proc/self/status: the peak RSS is unchecked")
    assert kb < 30 * 1024, f"peak RSS {kb} kB"


_KEYS = st.text(max_size=6) | st.sampled_from(
    ['"', "\\", "\n\t\x00\x1f", "\u00e9\u2603", "\U0001f600"])
_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.integers(min_value=-2**80, max_value=2**80) | _KEYS)
_VALUES = st.recursive(
    _SCALARS,
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(_KEYS, kids, max_size=4)),
    max_leaves=24,
)


def _lists_as_generators(obj):
    if isinstance(obj, list):
        return (_lists_as_generators(x) for x in obj)
    if isinstance(obj, dict):
        return {k: _lists_as_generators(v) for k, v in obj.items()}
    if isinstance(obj, tuple):
        return tuple(_lists_as_generators(x) for x in obj)
    return obj


def _written(obj) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _write_json(obj)
    return out.getvalue()


@given(_VALUES)
@example({"rows": []})
@example([[], {}, (), [1, -2**70, True, None, "x"]])
def test_json_writer_matches_json_dumps(obj):
    want = json.dumps(obj, indent=2) + "\n"
    assert _written(obj) == want
    assert _written(_lists_as_generators(obj)) == want


def test_json_writer_streams_iterator_elements():
    out = io.StringIO()
    written_before = []

    def rows():
        for i in range(3):
            written_before.append(out.getvalue().count('"i"'))
            yield {"i": i}

    with contextlib.redirect_stdout(out):
        _write_json({"count": 3, "rows": rows()})
    # each row is on stdout before the next one is built
    assert written_before == [0, 1, 2]
    want = {"count": 3, "rows": [{"i": i} for i in range(3)]}
    assert out.getvalue() == json.dumps(want, indent=2) + "\n"


# Bounded argv fuzz: in-process calls over A1-A3 and D4, p 2..5, vectors with
# out-of-range and negative entries, orders 0..8, Weyl caps on both sides of
# |W| and every format.  The examples are drawn from a fixed seed, so the run
# time stays the same from run to run (about 5 s on a 2-core VM).
_FUZZ_TYPES = {"A1": (1, 2), "A2": (2, 6), "A3": (3, 24), "D4": (4, 192)}  # rank, |W|


@st.composite
def _argv(draw):
    from tripletw.verify import CHECK_NAMES

    command = draw(st.sampled_from(["info", "lambda-list", "char", "verify"]))
    t = draw(st.sampled_from(sorted(_FUZZ_TYPES)))
    rank, order_w = _FUZZ_TYPES[t]
    fmt = draw(st.sampled_from(["json", "csv", "text"]))
    p = str(draw(st.integers(2, 5)))
    order = str(draw(st.integers(0, 8)))
    if command == "info":
        return ["info", "--type", t, "--output", fmt]
    if command == "lambda-list":
        return (["lambda-list", "--type", t, "-p", p, "--output", fmt]
                + draw(st.sampled_from([[], ["--narrow-only"]])))
    if command == "char":
        kind = draw(st.sampled_from(["w", "w-affine", "module", "lattice"]))
        argv = ["char", kind, "--type", t, "-p", p, "--order", order, "--output", fmt]
        for flag in ("--alpha", "--lambda0", "--sp"):
            vec = draw(st.none() | st.lists(st.integers(-2, 6), min_size=rank,
                                            max_size=rank + 1))
            if vec is not None:
                argv += [flag, ",".join(map(str, vec))]
    else:
        suite = draw(st.sampled_from(("all",) + tuple(CHECK_NAMES)))
        argv = ["verify", suite, "--type", t, "-p", p, "--order", order, "--output", fmt]
    cap = draw(st.none() | st.integers(0, 2 * order_w))
    return argv if cap is None else argv + ["--weyl-cap", str(cap)]


def _parses(out: str, fmt: str) -> bool:
    if fmt == "json":
        json.loads(out)
        return True
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        return len(rows) >= 1 and all(len(r) == len(rows[0]) for r in rows)
    return out.endswith("\n") and out.strip() != ""


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_argv())
def test_fuzzed_argv_keeps_the_exit_contract(argv):
    from tripletw import WEYL_CAP
    from tripletw.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3, 4), err.getvalue()
    if code >= 2:
        assert out.getvalue() == ""
    else:
        assert _parses(out.getvalue(), argv[argv.index("--output") + 1])
    assert WEYL_CAP.get() == contextvars.Context().run(WEYL_CAP.get)
