import json
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_weyl_cap_does_not_leak_between_in_process_calls(capsys):
    from tripletw import rootsys
    from tripletw.cli import main

    default = rootsys.DEFAULT_WEYL_CAP
    assert main(["char", "w", "--type", "A1", "-p", "2", "--weyl-cap", "1"]) == 4
    assert rootsys.DEFAULT_WEYL_CAP == default
    assert main(["char", "w", "--type", "A2", "-p", "3"]) == 0
    capsys.readouterr()


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
    args = ("verify", "all", "--type", "A1", "-p", "2", "--order", "8")
    r = run_cli(*args)
    assert r.returncode == 0
    got = json.loads(r.stdout)
    assert len(got) == 12
    assert all(e["status"] == "pass" for e in got)
    # byte-stable: no timing or other run-dependent data in the output
    assert r.stdout == run_cli(*args).stdout


def test_verify_text_output():
    r = run_cli("verify", "lambda_count", "--type", "A1", "-p", "3",
                "--output", "text")
    assert r.returncode == 0
    assert r.stdout.startswith("PASS    lambda_count")
