"""Mutation check: each mutant is a fixed (file, old text, new text) edit of
the package that the tests must catch.

    python tests/mutants.py [PYTEST_ARGS ...]

For each mutant the tree (src/, tests/, bench/ without its results,
pyproject.toml and BENCHMARK.json, which tests/test_bench_contract.py
reads) is copied to a temporary directory, the edit is made in the copy
(the old text must occur exactly once), and pytest runs there in stages:
first the fast subset below, then, only for a mutant that survived it, full
tier-1.  With PYTEST_ARGS pytest runs once, with those arguments.  A mutant
is killed when pytest fails, and the report names the stage that killed
it; it survived when every stage passes, or is equivalent when it passes
and is marked so, with the reason in its note.  The last line of pytest's
report is printed with it.  The working tree is never edited, and
`tests/test_mutants.py` (left out of the copy) checks that every old text
is found exactly once.  Stdlib only; the exit status is 1 if a mutant
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
STAGES = [("fast", FAST), ("tier-1", ["--continue-on-collection-errors"])]


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    note: str
    equivalent: bool = False  # no input can tell it apart; the note says why


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
        "got = records[lambda0] = (omega, sigma_c, sigma_c_inv, None)",
        "got = records[lambda0] = (omega, sigma_c_inv, sigma_c, None)",
        "chamber record: sigma_c and sigma_c^-1 swapped.  No exponent sees it: "
        "x = w(m + p beta) = tau u - p v, so omega and sigma_c cancel and enter "
        "only through the check that beta lies in Q, which W keeps.  The "
        "search of W in test_constructed_chamber_element_matches_a_search_of_w "
        "kills it",
    ),
    Mutant(
        "M4", "src/tripletw/affine.py",
        "word = dominant_word(cartan, key)",
        "word = inv_word[::-1]",
        "chamber record: sigma_c spelled by its inverse's word reversed, a "
        "reduced word of the same matrix but not the lex-least one; only the "
        "word comparison with the search of W can see it",
    ),
    Mutant(
        "M5", "src/tripletw/params.py",
        "return narrow_margin(mp, sp) <= 0",
        "return narrow_margin(mp, sp) < 0",
        "narrow: the equality stratum counted as wide",
    ),
    Mutant(
        "M6", "src/tripletw/rootsys.py",
        "i = next(j for j, c in enumerate(x) if c < 0) + 1",
        "i = [j for j, c in enumerate(x) if c < 0][-1] + 1",
        "dominant_word: reflects at the last negative coordinate, so the word "
        "is reduced but not lex-least",
    ),
    Mutant(
        "M7", "src/tripletw/params.py",
        "if not 1 <= u[j - 1] <= p:",
        "if not 0 <= u[j - 1] <= p:",
        "lemma216_cond1: the digit window opened to 0 <= u_j.  u = w(s + rho) "
        "with s + rho regular dominant, so u_j = (s + rho, w^-1 alpha_j) is "
        "never 0 and the mutant is equivalent",
        equivalent=True,
    ),
    Mutant(
        "M8", "src/tripletw/params.py",
        "return tuple([c // p for c in circ_act(w, _digits(mp, sp))])",
        "return tuple([-(-c // p) for c in circ_act(w, _digits(mp, sp))])",
        "epsilon: ceiling instead of floor",
    ),
    Mutant(
        "M9", "src/tripletw/qseries.py",
        """            if any(c < 0 for c in y[:i]):
                continue
            out.append((f, -sign))""",
        """            out.append((f, -sign))""",
        "_w_terms: the canonical-parent test dropped, so an orbit point is "
        "reached once per parent",
    ),
    Mutant(
        "M10", "src/tripletw/verify.py",
        "if not count and no_case:",
        "if count and no_case:",
        "run_check: the no-case note written when the suite has cases",
    ),
    Mutant(
        "M11", "src/tripletw/verify.py",
        """        if weyl:
            check_weyl_cap(mp.rs)
""",
        "",
        "_cases: no Weyl cap check before the first lam, so a capped suite "
        "with no case passes instead of being skipped",
    ),
    Mutant(
        "M12", "src/tripletw/verify.py",
        "if narrow_only and not is_narrow:",
        "if narrow_only and is_narrow:",
        "_cases: narrow_only keeps the wide parameters",
    ),
    Mutant(
        "M13", "src/tripletw/qseries.py",
        "a * a > 4 * pv * u_det",
        "a * a > pv * u_det",
        "_alpha_candidates: the drop test loses its factor 4 and drops "
        "candidates that contribute",
    ),
    Mutant(
        "M14", "src/tripletw/affine.py",
        'f"        n{i} = m{i} + p * b{i}"',
        'f"        n{i} = m{i} - p * b{i}"',
        "route kernel: n = m - p b instead of m + p b",
    ),
    Mutant(
        "M15", "src/tripletw/verify.py",
        "rs.adj[i][i] // (m * m)",
        "rs.adj[i][i] // m",
        "_brute_pairs: the alcove bound divided by the mark m instead of m^2, "
        "a larger ellipsoid",
    ),
    Mutant(
        "M16", "src/tripletw/_exact.py",
        "lo = -((t - ai) // b)",
        "lo = (ai - t) // b",
        "lattice_points: a level's lower end rounded down instead of up, so a "
        "level may open one step below its interval",
    ),
    Mutant(
        "M17", "src/tripletw/qseries.py",
        "r += s + (s * s < x)",
        "r += s",
        "_alpha_candidates: the integer radius without its round-up, a ball "
        "that can miss a kept alpha",
    ),
]


def run(mutant: Mutant, stages: list) -> tuple[str, str]:
    """(status, "stage: last line of pytest's report") for one mutant, run
    through the (stage name, pytest args) stages until one fails."""
    with tempfile.TemporaryDirectory(prefix="tripletw-mutant-") as tmp:
        tree = Path(tmp)
        # test_mutants.py checks that each old text is present, so a copy
        # that kept it would kill every mutant
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache",
                                        "test_mutants.py", "results")
        for name in ("src", "tests", "bench"):
            shutil.copytree(ROOT / name, tree / name, ignore=ignore)
        for name in ("pyproject.toml", "BENCHMARK.json"):
            shutil.copy(ROOT / name, tree)
        path = tree / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            return "stale", f"old text found {text.count(mutant.old)} times in {mutant.file}"
        path.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        for stage, pytest_args in stages:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                 *pytest_args],
                cwd=tree, env=env, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            summary = f"{stage}: {lines[-1] if lines else ''}"
            if proc.returncode:
                return "killed", summary
    return ("equivalent" if mutant.equivalent else "survived"), summary


def main(argv: list[str]) -> int:
    stages = [("given", argv)] if argv else STAGES
    worst = 0
    for mutant in MUTANTS:
        status, summary = run(mutant, stages)
        print(f"{mutant.name} {status:8} {summary}\n   {mutant.note}", flush=True)
        worst = max(worst, {"killed": 0, "equivalent": 0, "survived": 1, "stale": 2}[status])
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
