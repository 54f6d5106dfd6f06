"""Acceptance gate: ten criteria, one test each, wall-clock budgets pinned.

Every check is exact rational arithmetic; there are no tolerances anywhere.
Each test prints its own pass line with the measured runtime so the gate can
be audited from the pytest -v output alone.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracles
from tripletw import (
    GridSpec,
    LambdaParam,
    build_model,
    build_root_system,
    lambda0_set,
    run_check,
    w_char,
)
from tripletw.params import lambda_params, pq_class

GOLDEN = Path(__file__).parent / "golden"

ALL_TYPES = ("A1", "A2", "A3", "A4", "A5", "D4", "D5", "E6", "E7", "E8")

# The exceptional types at the two smallest p.  W(E7) and W(E8) are above the
# Weyl cap; the suites run on them because they never list W.
E_SMALL_P = GridSpec(types=("E6", "E7", "E8"), p_values=(2, 3))


class _Clock:
    def __init__(self, budget_s):
        self.budget = budget_s
        self.start = time.perf_counter()

    def done(self, label):
        elapsed = time.perf_counter() - self.start
        print(f"[{label}] PASS in {elapsed:.2f}s (budget {self.budget}s)")
        assert elapsed < self.budget, f"{label} exceeded {self.budget}s budget"


def _passed(report):
    assert report.status == "pass", (report.status, report.info,
                                     report.counterexamples[:3])
    assert report.counterexamples == ()


def test_c1_exponent_identity():
    # A1/A2/A3/D4, p in h-1..h+2, all narrow sp, alpha within |rho|+3
    clock = _Clock(60)
    grid = GridSpec(types=("A1", "A2", "A3", "D4"))
    _passed(run_check("exponent_identity", grid))
    clock.done("criterion 1: per-sigma exponent identity")


def test_c2_a1_p2_partition_difference_oracle():
    clock = _Clock(1)
    mp = build_model(build_root_system("A1"), 2)
    ch = w_char(mp, (0,), LambdaParam((0,), (0,), 2), 9)
    assert ch.base == Fraction(1, 12)
    assert ch.coeffs == (1, 0, 1, 1, 2, 2, 4, 4, 7, 8)
    assert ch.coeffs == tuple(
        oracles.partitions(n) - oracles.partitions(n - 1) for n in range(10)
    )
    clock.done("criterion 2: A1 p=2 character vs partition oracle")


def test_c3_digit_chain_equivalence():
    clock = _Clock(30)
    grid = GridSpec(types=("A1", "A2", "A3"), p_hi=3)
    _passed(run_check("lemma216_equiv", grid))
    # p = 2, 3 lies below h - 1 on E6-E8, so no digit vector there is narrow:
    # this checks only that the chain condition implies narrow, on all of them
    _passed(run_check("lemma216_equiv", E_SMALL_P))
    clock.done("criterion 3: digit-chain condition iff narrow")


def test_c4_chamber_pair_bruteforce():
    clock = _Clock(60)
    grid = GridSpec(types=("A1", "A2", "A3", "D4"))
    _passed(run_check("lemma310_bruteforce", grid))  # self-restricts to rank <= 2
    _passed(run_check("remark311_iff", grid))        # rank <= 3
    clock.done("criterion 4: constructed chamber pair vs brute force")


def test_c5_submodule_bound():
    clock = _Clock(60)
    grid = GridSpec(types=("A1", "A2"), p_hi=1)
    _passed(run_check("submodule_bound", grid))
    clock.done("criterion 5: module below lattice coefficientwise")


def test_c6_duality():
    clock = _Clock(30)
    grid = GridSpec(types=("A1", "A2"), p_hi=1)
    _passed(run_check("duality_chars", grid))
    _passed(run_check("delta_selfdual", grid))
    _passed(run_check("delta_selfdual", E_SMALL_P))
    clock.done("criterion 6: dual-parameter characters and weights")


def test_c7_structural_identities():
    clock = _Clock(5)
    grid = GridSpec(types=ALL_TYPES, p_hi=3)
    _passed(run_check("strange_formula", grid))
    for t in ALL_TYPES:
        rs = build_root_system(t)
        l0 = lambda0_set(rs)
        assert len(l0) == rs.det
        assert len({pq_class(rs, w) for w in l0}) == rs.det
        for p in sorted({max(q, 2) for q in range(rs.coxeter_h - 1,
                                                  rs.coxeter_h + 4)}):
            # |Lambda| = |P/Q| p^l, enumerated whenever that stays desk-sized
            count = rs.det * p ** rs.rank
            if count <= 250_000:
                assert len(lambda_params(build_model(rs, p))) == count
    clock.done("criterion 7: strange formula, charge forms, parameter count")


def test_c8_character_positivity():
    clock = _Clock(60)
    grid = GridSpec(types=("A1", "A2", "A3", "D4"))
    assert grid.order == 30
    _passed(run_check("char_nonneg_leading1", grid))
    clock.done("criterion 8: leading coefficient 1, no negatives to order 30")


def test_c9_cli_contract():
    clock = _Clock(120)

    def run_cli(*args):
        return subprocess.run(
            [sys.executable, "-m", "tripletw", *args],
            capture_output=True, text=True, timeout=110,
        )

    r = run_cli("verify", "all")
    assert r.returncode == 0, r.stdout + r.stderr
    reports = json.loads(r.stdout)
    assert len(reports) == 12
    assert all(e["status"] in ("pass", "skipped") for e in reports)

    a1 = ("char", "w", "--type", "A1", "-p", "2", "--order", "9")
    a2 = ("char", "w", "--type", "A2", "-p", "3", "--order", "12")
    for args, golden in ((a1, "char_w_a1_p2.json"), (a2, "char_w_a2_p3.json")):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout == (GOLDEN / golden).read_text()
    clock.done("criterion 9: CLI verify gate and byte-stable golden output")


def test_c10_submodule_bound_on_e6():
    # all 192 = |P/Q| p^6 parameters of E6 at p = 2, through offset 3
    clock = _Clock(30)
    grid = GridSpec(types=("E6",), p_values=(2,), order=3)
    assert grid.cross_order == 3
    rs = build_root_system("E6")
    assert len(lambda_params(build_model(rs, 2))) == 192
    _passed(run_check("submodule_bound", grid))
    clock.done("criterion 10: module below lattice coefficientwise on E6")
