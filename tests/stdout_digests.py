"""Print one line per CLI call: the sha256 of its stdout, its exit code and
its argv, each call run in a fresh `python -m tripletw`.

    python tests/stdout_digests.py [CHECKOUT]

CHECKOUT is the source tree whose `src/` is run, by default the one holding
this script; the argv list is always this script's.  Two checkouts give
byte-identical stdout and exit codes on every call when their outputs are
identical, so a change that must keep the CLI's output is checked with one
`diff` of the two.  The calls are every `cli_calls` argv of the benchmark's
seeds 1-10, `verify all` and `lambda-list --type D4 -p 6` in every format,
`info` on A1-A8, D4-D8 and E6-E8 in every format, `char w-affine` at
`--order 3` for every lambda0 on A3 p=5, D4 p=7, D5 p=9 and E6 p=13, and
the verify runner's other paths: suites with no case (A3 p=2), a Weyl cap
skip with no case, Weyl cap skips across `verify all`, and a suite with no
case on E6, which lists no W.  Two E6 calls take the lattice enumerator
through six levels: `char lattice --type E6 -p 13 --order 6` and `verify
submodule_bound --type E6 -p 2 --order 3`.

Stdlib only; the file name keeps pytest from collecting it.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
FORMATS = ("json", "csv", "text")


def argvs() -> list[list[str]]:
    sys.path[:0] = [str(HERE / "bench"), str(HERE / "src")]
    import workloads
    from tripletw import build_root_system, lambda0_set

    calls = [argv for seed in range(1, 11) for _, argv in workloads.cli_calls(seed)]
    types = [f"A{l}" for l in range(1, 9)] + [f"D{l}" for l in range(4, 9)]
    types += ["E6", "E7", "E8"]
    for fmt in FORMATS:
        calls.append(["verify", "all", "--output", fmt])
        calls.append(["lambda-list", "--type", "D4", "-p", "6", "--output", fmt])
        calls += [["info", "--type", t, "--output", fmt] for t in types]
    for t, p in (("A3", 5), ("D4", 7), ("D5", 9), ("E6", 13)):
        for lam0 in lambda0_set(build_root_system(t)):
            calls.append(["char", "w-affine", "--type", t, "-p", str(p), "--order", "3",
                          "--lambda0", ",".join(map(str, lam0))])
    calls += [
        ["verify", "all", "--type", "A3", "-p", "2", "--output", "text"],
        ["verify", "exponent_identity", "--type", "A3", "-p", "2", "--weyl-cap", "23",
         "--output", "text"],
        ["verify", "all", "--type", "A2", "-p", "3", "--weyl-cap", "5", "--output", "csv"],
        ["verify", "exponent_identity", "--type", "E6", "-p", "2", "--order", "3"],
        ["char", "lattice", "--type", "E6", "-p", "13", "--order", "6"],
        ["verify", "submodule_bound", "--type", "E6", "-p", "2", "--order", "3"],
    ]
    return list(map(list, dict.fromkeys(map(tuple, calls))))


def main(args: list[str]) -> int:
    root = Path(args[0]).resolve() if args else HERE
    if not (root / "src" / "tripletw" / "__init__.py").is_file():
        print(f"error: no tripletw sources under {root / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for argv in argvs():
        r = subprocess.run([sys.executable, "-m", "tripletw", *argv], cwd=root, env=env,
                           capture_output=True)
        print(hashlib.sha256(r.stdout).hexdigest(), r.returncode, " ".join(argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
