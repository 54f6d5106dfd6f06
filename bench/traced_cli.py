"""Run one tripletw command with the benchmark's tracer installed.

    python3 bench/traced_cli.py TRACE_FILE ARGS...

behaves like `python -m tripletw ARGS...` (same stdout, same exit code) and
also writes the trace of the call, with the import time and the time spent
in `tripletw.cli.main`, to TRACE_FILE as JSON.  The tripletw imported is the
one under src/ next to this directory.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv):
    trace_file, args = argv[0], argv[1:]
    start = time.perf_counter()
    import tripletw.cli  # noqa: E402
    import_s = time.perf_counter() - start

    from tracing import Tracer  # noqa: E402

    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    try:
        code = tripletw.cli.main(args)
    finally:
        main_s = time.perf_counter() - start
        tracer.uninstall()
        sys.stdout.flush()
        rec = tracer.record()
        rec["import_s"] = import_s
        rec["main_s"] = main_s
        Path(trace_file).write_text(json.dumps(rec))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
