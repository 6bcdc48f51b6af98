"""One fresh interpreter of a benchmark run.

Reads a JSON spec on stdin and prints one JSON line on stdout. Its field
`t_import` is the monotonic clock right after `import kmoduli`, which the
parent subtracts from the moment it started this process to get the
set-up time. Modes:

  probe  set-up only;
  sweep  the family tables and witnesses (ops.run_sweep);
  git    the weight-system queries (ops.run_git);
  cli    one CLI request in-process through kmoduli.cli.main(argv),
         used by the traced cli run.

With "trace": true the library's public functions are wrapped in spans
before the work starts.
"""

import time

import kmoduli  # noqa: F401  (set-up ends here)

T_IMPORT = time.perf_counter()

import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402


def run_cli(argv: list[str]) -> dict:
    from kmoduli import cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 1
    return {"rc": rc, "stdout": buf.getvalue()}


def main() -> None:
    spec = json.load(sys.stdin)
    mode = spec["mode"]
    tracer = None
    if spec.get("trace"):
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    result: dict = {}
    if mode == "sweep":
        from ops import run_sweep

        result = run_sweep(spec["calls"], tracer)
    elif mode == "git":
        from ops import run_git

        result = run_git(spec["ops"], spec["deadline_s"], spec["mem_cap_mb"], tracer)
    elif mode == "cli":
        result = run_cli(spec["argv"])
    elif mode != "probe":
        raise SystemExit(f"unknown mode {mode!r}")
    result["t_import"] = T_IMPORT
    result.setdefault("maxrss_kb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if tracer is not None:
        result.update(tracer.snapshot())
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
