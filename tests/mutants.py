"""Mutation check: each mutant is a fixed (file, old text, new text) edit of
the package that the tests must catch.

    python tests/mutants.py [PYTEST_ARGS ...]

For each mutant the tree (src/, tests/ and pyproject.toml) is copied to a
temporary directory, the edit is made in the copy (the old text must occur
exactly once), and pytest runs there with PYTEST_ARGS, by default the fast
subset below.  A mutant is killed when pytest fails and survived when it
passes; the last line of pytest's report is printed with it.  The working
tree is never edited.  Stdlib only; the exit status is 1 if a mutant
survived and 2 if a mutant's old text is not found exactly once.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
FAST = ["tests/test_affine.py", "tests/test_qseries.py", "tests/test_exact.py",
        "tests/test_params.py"]


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    note: str


MUTANTS = [
    Mutant(
        "M1", "src/tripletw/affine.py",
        "w = elems[by_key[tuple([sum(map(mul, row, sigma_rho)) for row in c_rows])]]",
        "w = elems[by_key[sigma_rho]]",
        "label table: w = tau instead of tau sigma_c^-1",
    ),
    Mutant(
        "M2", "src/tripletw/affine.py",
        '''    lines.append(f"        {matrix} = w_inv")
    lines += [f"        b{i} = {lin(rows[i], g)}" for i in r]
    for row in _q_rows(rs):
        lines.append(f"        if ({lin(row, b)}) % {rs.det}:")
        lines.append(f"            raise ValueError(f'weight {{{tup(b)}}} "
                     "is not in the root lattice')")
    lines += [f"        n{i} = m{i} + p * b{i}" for i in r]
    lines.append(f"        {matrix} = w")''',
        '''    lines.append(f"        {matrix} = w")
    lines += [f"        b{i} = {lin(rows[i], g)}" for i in r]
    for row in _q_rows(rs):
        lines.append(f"        if ({lin(row, b)}) % {rs.det}:")
        lines.append(f"            raise ValueError(f'weight {{{tup(b)}}} "
                     "is not in the root lattice')")
    lines += [f"        n{i} = m{i} + p * b{i}" for i in r]
    lines.append(f"        {matrix} = w_inv")''',
        "route kernel: the rows of w and w^-1 unpacked the other way round",
    ),
    Mutant(
        "M3", "src/tripletw/affine.py",
        "omega, sigma_c, sigma_c_inv, *_label_table(ctx, omega, sigma_c))",
        "omega, sigma_c_inv, sigma_c, *_label_table(ctx, omega, sigma_c_inv))",
        "chamber record: sigma_c and sigma_c^-1 swapped.  No exponent sees it: "
        "x = w(m + p beta) = tau u - p v, so omega and sigma_c cancel and enter "
        "only through the check that beta lies in Q, which W keeps.  The "
        "search of W in test_constructed_chamber_element_matches_a_search_of_w "
        "kills it",
    ),
]


def run(mutant: Mutant, pytest_args: list[str]) -> tuple[str, str]:
    """(status, last line of pytest's report) for one mutant."""
    with tempfile.TemporaryDirectory(prefix="tripletw-mutant-") as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tree)
        path = tree / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return "stale", f"old text found {text.count(mutant.old)} times in {mutant.file}"
        path.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *pytest_args],
            cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return ("survived" if proc.returncode == 0 else "killed"), (lines[-1] if lines else "")


def main(argv: list[str]) -> int:
    pytest_args = argv or FAST
    worst = 0
    for mutant in MUTANTS:
        status, summary = run(mutant, pytest_args)
        print(f"{mutant.name} {status:8} {summary}\n   {mutant.note}", flush=True)
        worst = max(worst, {"killed": 0, "survived": 1, "stale": 2}[status])
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
