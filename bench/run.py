"""Benchmark for tripletw: one workload per run, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; the program is imported from src/.
Workloads (see README.md in this directory):

  affine_orbits    in process, warm caches: affine vs direct orbit exponents
  lattice_windows  in process, warm caches: lattice and module characters
  cli_cold         fresh `python -m tripletw` processes, one at a time

With --trace 0 the result holds the end-to-end metrics setup_s, pass_s and
peak_rss_mb; with --trace 1 the per-layer metrics of one traced set-up and
pass, and trace.overhead_s.  The last line of stdout is the JSON result;
the lines before it are a summary, and bench/results/ keeps the details.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads as W  # noqa: E402

SETUP_CHILDREN = 3   # fresh set-ups per warm run, besides the run's own
IMPORT_SAMPLES = 15  # fresh import-only interpreters per cli_cold run
CHILD_TIMEOUT = 150  # seconds before a child process is killed
CLI_KINDS = tuple(dict.fromkeys(kind for kind, _ in W.cli_calls(0)))


def check_sources():
    if not (SRC / "tripletw" / "__init__.py").is_file():
        raise SystemExit(f"error: no tripletw sources under {SRC}")


def import_tripletw():
    """Import tripletw from this tree's src/, and nowhere else."""
    check_sources()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tripletw
    if Path(tripletw.__file__).resolve().parent != SRC / "tripletw":
        raise SystemExit(f"error: imported tripletw from {tripletw.__file__}")
    return tripletw


def host_probe() -> float:
    """Median time of a fixed pure-Python loop: a reference for host speed,
    recorded with every run so that host drift can be told from a change."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def spawn(argv):
    """Run a child to completion: (wall s, exit code, stdout, stderr, max RSS KB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)))
    timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
    timer.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    return wall, proc.returncode, out, err[0] if err else b"", usage.ru_maxrss


def another_pass(start, seconds, passes) -> bool:
    """Whether to start another pass: the run stops at the pass end nearest
    to `seconds`, judged by the length of the last pass."""
    return not passes or time.perf_counter() - start + passes[-1] / 2 < seconds


def end_to_end(setups, passes, rss_kb):
    return {"setup_s": (statistics.median(setups), "s"),
            "pass_s": (statistics.median(passes), "s"),
            "peak_rss_mb": (rss_kb / 1024, "MB")}


def per_layer(record, tw, passes, traced_passes, kinds_ms=None, import_s=0.0,
              stdout_bytes=0):
    """Per-layer metrics of a traced run; the cli.* figures read 0 outside
    cli_cold."""
    metrics = tracing.layer_metrics(record, W.suite_names(tw))
    for kind in CLI_KINDS:
        metrics[f"cli.{kind}_ms"] = ((kinds_ms or {}).get(kind, 0.0), "ms")
    metrics["cli.import_s"] = (import_s, "s")
    metrics["cli.stdout_bytes"] = (stdout_bytes, "bytes")
    metrics["trace.overhead_s"] = (
        statistics.median(traced_passes) - statistics.median(passes), "s")
    return metrics


# --- in-process workloads ----------------------------------------------------

def run_pass(ops):
    """Run every op once: (outputs, wall s, failures)."""
    outputs = []
    failures = 0
    start = time.perf_counter()
    for op in ops:
        try:
            outputs.append(op.fn())
        except Exception as exc:  # one failing op must not stop the pass
            outputs.append(W.Failed(f"{op.label}: {exc!r}"))
            failures += 1
    return outputs, time.perf_counter() - start, failures


def set_up(workload, seed, tracer, cases_only):
    """Import, build the inputs and run the untimed first pass that fills
    the program's caches, with `tracer` installed (only to count suite cases
    if cases_only).  Returns the program, the ops, the checks, the first
    outputs and the set-up time."""
    start = time.perf_counter()
    tw = import_tripletw()
    ops, checks = W.IN_PROCESS[workload](tw, seed)
    tracer.install(cases_only=cases_only)
    try:
        outputs, _, _ = run_pass(ops)
    finally:
        tracer.uninstall()
    return tw, ops, checks, outputs, time.perf_counter() - start


def run_in_process(args, detail):
    traced = bool(args.trace)
    setups = []
    if not traced:
        for _ in range(SETUP_CHILDREN):
            wall, code, out, err, _ = spawn([sys.executable, str(HERE / "run.py"),
                                             "--workload", args.workload,
                                             "--seed", str(args.seed), "--setup-only"])
            if code != 0:
                raise SystemExit(f"set-up child failed: {err.decode(errors='replace')}")
            setups.append(float(out.decode().split()[-1]))
    tracer = tracing.Tracer()
    tw, ops, checks, first, setup_s = set_up(args.workload, args.seed, tracer,
                                             cases_only=not traced)
    setups.append(setup_s)
    cases = dict(tracer.cases)
    reference = [W.normalize(tw, o) for o in first]

    passes, traced_passes, failed, attempted, mismatches = [], [], 0, 0, 0
    record = None
    start = time.perf_counter()
    while another_pass(start, args.seconds, passes) or (traced and not traced_passes):
        runs = [False, True] if traced else [False]
        for with_trace in runs:
            if with_trace:
                tracer.install()
            try:
                outputs, wall, failures = run_pass(ops)
            finally:
                tracer.uninstall()
            if with_trace:
                traced_passes.append(wall)
                if record is None:
                    record = tracer.record()
            else:
                passes.append(wall)
            failed += failures
            attempted += len(ops)
            mismatches += sum(W.normalize(tw, o) != r for o, r in zip(outputs, reference))

    problems = W.check_outputs(first, checks, cases)
    detail["failures"] = [o.error for o in first if isinstance(o, W.Failed)][:20]
    if mismatches:
        problems.append(f"{mismatches} outputs differ from the set-up pass")
    detail.update(setup_samples=setups, pass_samples=passes, ops_per_pass=len(ops),
                  cases=cases, traced_pass_samples=traced_passes)
    if traced:
        metrics = per_layer(record, tw, passes, traced_passes)
        detail["trace"] = record
    else:
        metrics = end_to_end(setups, passes,
                             resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return metrics, attempted, failed, problems


def setup_only(args):
    """Child mode: one fresh set-up, printing its time."""
    *_, setup_s = set_up(args.workload, args.seed, tracing.Tracer(), cases_only=True)
    print(setup_s)


# --- cli_cold ----------------------------------------------------------------

def run_cli(args, detail):
    traced = bool(args.trace)
    calls = W.cli_calls(args.seed)
    tmp = RESULTS / f"trace-{os.getpid()}.json"
    python = sys.executable

    def traced_call(argv):
        wall, code, out, err, rss = spawn([python, str(HERE / "traced_cli.py"), str(tmp)] + argv)
        rec = json.loads(tmp.read_text()) if tmp.exists() else None
        tmp.unlink(missing_ok=True)
        return wall, code, out, err, rss, rec

    # compiles the sources once, so that no timed process pays for it
    spawn([python, "-c", "import tripletw"])
    setups = [spawn([python, "-c", "import tripletw"])[0] for _ in range(IMPORT_SAMPLES)]

    passes, traced_passes, failed, attempted = [], [], 0, 0
    rss = []
    reference, problems, failures, records, kinds_ms = None, [], [], [], {}
    cases = None
    if not traced:
        # the suites of `verify all` count their cases in a traced process
        _, code, _, err, _, rec = traced_call(["verify", "all"])
        cases = rec["cases"] if rec else {}
    start = time.perf_counter()
    while another_pass(start, args.seconds, passes) or (traced and not traced_passes):
        for with_trace in ([False, True] if traced else [False]):
            total, outs = 0.0, []
            for kind, argv in calls:
                if with_trace:
                    wall, code, out, err, kb, rec = traced_call(argv)
                    if not traced_passes and rec is not None:
                        records.append(rec)
                        kinds_ms[kind] = kinds_ms.get(kind, 0.0) + rec["main_s"] * 1000
                else:
                    wall, code, out, err, kb = spawn([python, "-m", "tripletw"] + argv)
                    rss.append(kb)
                total += wall
                attempted += 1
                if code != 0:
                    failed += 1
                    out = None
                    failures.append(f"{' '.join(argv)} exited {code}: "
                                    f"{err.decode(errors='replace')[-300:]}")
                outs.append(out)
            (traced_passes if with_trace else passes).append(total)
            if reference is None:
                reference = outs
                stdout_bytes = sum(len(o) for o in outs if o is not None)
            elif outs != reference:
                problems.append("stdout differs between passes")

    text = [o.decode() if o is not None else None for o in reference]
    detail.update(setup_samples=setups, pass_samples=passes, calls=calls,
                  traced_pass_samples=traced_passes, failures=failures[:20])
    if traced:
        rec = tracing.merge(records)
        cases = rec["cases"]
        metrics = per_layer(rec, import_tripletw(), passes, traced_passes, kinds_ms,
                            sum(r["import_s"] for r in records), stdout_bytes)
        detail["trace"] = rec
    else:
        metrics = end_to_end(setups, passes, max(rss))
    detail["cases"] = cases
    problems += W.check_cli(calls, text, cases)
    return metrics, attempted, failed, problems


# --- entry point -----------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(W.IN_PROCESS) + ["cli_cold"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.setup_only:
        setup_only(args)
        return 0
    check_sources()
    RESULTS.mkdir(exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "python": sys.version.split()[0],
              "host_probe_before_s": host_probe()}
    run = run_cli if args.workload == "cli_cold" else run_in_process
    metrics, attempted, failed, problems = run(args, detail)
    detail["host_probe_after_s"] = host_probe()
    detail["problems"] = problems
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail["result"] = result
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1, default=str))
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print(f"host probe {detail['host_probe_before_s']:.4f} s before, "
          f"{detail['host_probe_after_s']:.4f} s after; details in "
          f"{out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
