"""Benchmark of kmoduli: three closed-loop, single-client workloads.

    python3 perfbench/run.py --workload sweep|git|cli --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ./src.

Each repetition of a workload runs its whole seeded operation list in
fresh interpreters, so the torusgit lru_cache starts cold as it does for
a user's script or CLI call, and cache reuse inside the list is part of
the measured work. Repetitions continue while another one fits in
--seconds. Each op's latency is its median over the repetitions; wall_s
is the sum of those over the list, op_p50_ms and op_tail_ms their
percentiles.
Times are scaled to a fixed reference speed of the machine (calib.py),
because other tenants of the host slow it for long spells; every
process of a run is pinned to one CPU so that the reference is measured
where the work runs. setup_s is the median set-up time of
PROBES children that only import kmoduli; peak_rss_mb is the median over
repetitions of the largest child RSS.

  sweep  moduli.table("X", 2, 400), table("Y", 3, 401) and
         unboundedness_witness for X and Y at target 10000, in one child.
         An op is one local_model call. Mostly cqsing (discrepancies on
         A_{l-1} chains), with torusgit in its cache-hit regime.
  git    distinct weight systems of rank 1..5 and width up to 10, seven
         torusgit queries each, plus the thin-cone ladder, in one child
         under a per-op deadline and memory cap. An op is one query on
         one system. torusgit, cache-miss regime. The queries known to
         blow up at the recorded commit are not in the op list, so no op
         fails; --trace 1 runs the seed's share of them once, in a child
         of their own, and reports how many still fail.
  cli    sequential `python -m kmoduli.cli` requests (sing, surface,
         table, git, witness). An op is one request; import, argparse and
         rendering are paid every time.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
repetitions with traced ones (spans.Tracer wraps every public library
function) and prints the per-layer metrics, the tracing overhead, each
layer's share of the traced wall time and, on git, the number of known
blow-ups that still fail (torusgit.known_failures).

The last stdout line is one JSON object with correct, attempted, failed
and metrics. An op fails when it passes its deadline, raises
MemoryError, exits nonzero or gives an output that differs from its
golden digest or fails a check; a failed op counts as infinitely slow
in the latency percentiles and up to its deadline in wall_s; ok_ratio
is 1 minus the share of the list's ops that failed. `correct` is false
when any output is wrong or changed, a known blow-up's too, should it
finish.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks
import corpus
from calib import PROCESS_REFERENCE_S, Calibrated, process_reference
from spans import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
sys.path.insert(1, str(ROOT / "src"))  # for the library cross-checks in checks.py

PROBES = 9  # set-up-only children per run
CHILD_TIMEOUT_S = 120
CLI_TIMEOUT_S = 30
TAIL_CANDIDATES = (50, 75, 80, 90, 95, 98, 99, 99.5, 99.9)
TORUSGIT_QUERIES = (
    "quotient_dim",
    "largest_polystable_support",
    "is_polystable",
    "destabilizing_limit",
    "open_half_space_certificate",
    "in_rational_cone",
    "kernel_rank",
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cqsing.discrepancies.calls": "count",
    "cqsing.discrepancies.self_s": "s",
    "cqsing.chain_curves": "count",
    "cqsing.hirzebruch_jung.self_s": "s",
    "cqsing.classify.self_s": "s",
    "quotsurf.build_surface.calls": "count",
    "quotsurf.build_surface.self_s": "s",
    "quotsurf.assemble_qdef.calls": "count",
    "quotsurf.assemble_qdef.self_s": "s",
    "quotsurf.qdef_columns": "count",
    "quotsurf.betti_of_generic_smoothing.self_s": "s",
    **{f"torusgit.{q}.{m}": u for q in TORUSGIT_QUERIES for m, u in (("calls", "count"), ("self_s", "s"))},
    "torusgit.fm_witness.calls": "count",
    "torusgit.fm_witness.self_s": "s",
    "torusgit.support_cut": "count",
    "torusgit.cache_hits": "count",
    "torusgit.cache_misses": "count",
    "torusgit.known_failures": "count",
    "moduli.local_model.calls": "count",
    "moduli.local_model.self_s": "s",
    "moduli.local_model.calls_per_op": "1/op",
    "cli.cmd.calls": "count",
    "cli.cmd.self_s": "s",
    "trace.overhead_s": "s",
    **{f"share.{layer}": "%" for layer in LAYERS},
}


@dataclass
class Repetition:
    """One pass over the workload's operation list."""

    times: dict = field(default_factory=dict)  # op id -> seconds, up to a failure
    failed: dict = field(default_factory=dict)  # op id -> reason
    wrong: list = field(default_factory=list)  # wrong or changed outputs
    maxrss_kb: int = 0
    spans: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)  # op id -> output not yet checked

    @property
    def wall_s(self) -> float:
        return sum(self.times.values())

    def fail(self, op_id: str, reason: str, seconds: float) -> None:
        self.times[op_id] = seconds
        self.failed[op_id] = reason

    def add_child(self, data: dict, scale: float) -> None:
        """Take a child's memory and spans; `scale` brings its raw span
        times to reference speed, as its op times already are."""
        self.maxrss_kb = max(self.maxrss_kb, data["maxrss_kb"])
        for name, (calls, total, self_s) in data.get("spans", {}).items():
            acc = self.spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total * scale
            acc[2] += self_s * scale
        for name, value in data.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + value


def process_clock() -> Calibrated:
    """Calibration for ops that are whole processes."""
    return Calibrated(ref=process_reference, reference_s=PROCESS_REFERENCE_S)


class Runner:
    def __init__(self) -> None:
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def child(self, spec: dict, timeout: float = CHILD_TIMEOUT_S) -> tuple[dict | None, float, str]:
        """Run child.py on a spec; returns (result or None, seconds, error)."""
        t0 = perf_counter()
        try:
            p = subprocess.run(
                [sys.executable, str(CHILD)], input=json.dumps(spec), capture_output=True,
                text=True, env=self.env, cwd=ROOT, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return None, perf_counter() - t0, f"timed out after {timeout}s"
        elapsed = perf_counter() - t0
        if p.returncode != 0 or not p.stdout.strip():
            return None, elapsed, f"exit status {p.returncode}: {p.stderr.strip()[-400:]}"
        data = json.loads(p.stdout.splitlines()[-1])
        data["setup_s"] = data["t_import"] - t0
        return data, elapsed, ""

    def probes(self, n: int) -> list[float]:
        """Set-up times of n children that only import kmoduli."""
        clock = process_clock()
        for i in range(n):
            data, _, err = self.child({"mode": "probe"})
            if data is None:
                raise SystemExit(f"set-up failed: {err}")
            clock.add(i, data["setup_s"])
        return list(clock.close().values())


class Workload:
    known: list = []  # ops that fail at the recorded commit, kept out of the op list

    def verify(self, rep: Repetition) -> None:
        """Checks left until the repetitions are done; none by default."""


class Sweep(Workload):
    def __init__(self, golden: dict, seed: int, runner: Runner) -> None:
        self.golden = golden["sweep"]
        self.calls = corpus.sweep_calls(seed)
        self.runner = runner
        self.corpus = self.calls
        self.mix = corpus.size_mix([{"class": key.split("_")[0]} for key in self.golden["ops"]])

    def run(self, trace: bool) -> Repetition:
        rep = Repetition()
        data, elapsed, err = self.runner.child({"mode": "sweep", "calls": self.calls, "trace": trace})
        if data is None:
            for key in self.golden["ops"]:
                rep.fail(key, err, elapsed / len(self.golden["ops"]))
            rep.wrong.append(f"sweep child failed: {err}")
            return rep
        rep.add_child(data, sum(op[1] for op in data["ops"]) / data["raw_s"])
        for key, dt, _, out in data["ops"]:
            err = checks.check_model(out)
            if self.golden["ops"].get(key) != corpus.digest(out):
                err = err or f"{key}: output differs from its golden digest"
            if err:
                rep.wrong.append(err)
                rep.fail(key, "wrong output", dt)
            else:
                rep.times[key] = dt
        for key in set(self.golden["ops"]) - set(rep.times):
            rep.fail(key, "not computed", 0.0)
            rep.wrong.append(f"{key}: not computed")
        if data["witnesses"] != self.golden["witnesses"]:
            rep.wrong.append(f"witnesses {data['witnesses']} != {self.golden['witnesses']}")
        return rep


class Git(Workload):
    def __init__(self, golden: dict, seed: int, runner: Runner) -> None:
        ops = corpus.git_ops(golden, seed)
        self.ops = [op for op in ops if not op["known_failure"]]
        self.known = [op for op in ops if op["known_failure"]]
        self.by_id = {op["id"]: op for op in ops}
        self.verdicts: dict = {}  # (op id, output digest) -> error or None
        self.runner = runner
        self.corpus = self.ops
        self.mix = corpus.size_mix(self.ops)

    def run(self, trace: bool, known: bool = False) -> Repetition:
        """One pass over the op list, or with `known` over the known failures."""
        rep = Repetition()
        ops = self.known if known else self.ops
        spec = {
            "mode": "git",
            "trace": trace,
            "deadline_s": corpus.DEADLINE_S,
            "mem_cap_mb": corpus.MEM_CAP_MB,
            "ops": [{k: op[k] for k in ("id", "system", "rows", "query", "arg")} for op in ops],
        }
        data, elapsed, err = self.runner.child(spec)
        if data is None:
            for op in ops:
                rep.fail(op["id"], err, elapsed / len(ops))
            rep.wrong.append(f"git child failed: {err}")
            return rep
        rep.add_child(data, sum(op[1] for op in data["ops"]) / data["raw_s"])
        for op_id, dt, status, out in data["ops"]:
            if status == "ok":
                rep.times[op_id] = dt
                rep.outputs[op_id] = out
            else:
                rep.fail(op_id, status, dt)
        return rep

    def verify(self, rep: Repetition) -> None:
        """The exact checks take seconds, so they run after the timed
        repetitions, once per distinct output."""
        for op_id, out in rep.outputs.items():
            op, got = self.by_id[op_id], corpus.digest(out)
            key = (op_id, got)
            if key not in self.verdicts:
                err = checks.check_git(op, out)
                if op["digest"] is not None and op["digest"] != got:
                    err = err or f"{op_id}: output differs from its golden digest"
                self.verdicts[key] = err
            if self.verdicts[key]:
                rep.wrong.append(self.verdicts[key])
                rep.fail(op_id, "wrong output", rep.times[op_id])


class Cli(Workload):
    def __init__(self, golden: dict, seed: int, runner: Runner) -> None:
        self.reqs = corpus.cli_requests(golden, seed)
        self.runner = runner
        self.corpus = self.reqs
        self.mix = corpus.size_mix(self.reqs)

    def request(self, argv: list[str], trace: bool) -> tuple[int | None, str, float, dict | None]:
        """One request; returns (exit status or None, stdout, seconds, traced child data)."""
        if trace:
            data, elapsed, err = self.runner.child({"mode": "cli", "argv": argv, "trace": True}, CLI_TIMEOUT_S)
            if data is None:
                return None, err, elapsed, None
            return data["rc"], data["stdout"], elapsed, data
        t0 = perf_counter()
        try:
            p = subprocess.run(
                [sys.executable, "-m", "kmoduli.cli", *argv], capture_output=True, text=True,
                env=self.runner.env, cwd=ROOT, timeout=CLI_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return None, "timed out", perf_counter() - t0, None
        return p.returncode, p.stdout, perf_counter() - t0, None

    def run(self, trace: bool) -> Repetition:
        rep = Repetition()
        clock = process_clock()
        done = []
        for req in self.reqs:
            rc, stdout, raw, data = self.request(req["argv"], trace)
            clock.add(req["id"], raw)
            done.append((req, rc, stdout, raw, data))
        times = clock.close()
        for req, rc, stdout, raw, data in done:
            dt = times[req["id"]]
            if data is not None:
                rep.add_child(data, dt / raw)
            if rc is None:
                rep.fail(req["id"], stdout, dt)
                continue
            err = checks.check_cli(req, rc, stdout)
            if err is None and corpus.digest([rc, stdout]) != req["digest"]:
                err = f"{req['id']}: output differs from its golden digest"
            if err:
                rep.wrong.append(err)
                rep.fail(req["id"], "wrong output" if rc == 0 else f"exit status {rc}", dt)
                continue
            rep.times[req["id"]] = dt
        if not trace:
            rep.maxrss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return rep


WORKLOADS = {"sweep": Sweep, "git": Git, "cli": Cli}


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def tail_percentile(n: int) -> float:
    """The highest candidate percentile with at least ten ops beyond it."""
    best = TAIL_CANDIDATES[0]
    for p in TAIL_CANDIDATES:
        if n - math.ceil(p / 100 * n) >= 10:
            best = p
    return best


def op_times(reps: list[Repetition]) -> dict:
    """Each op's median time over the repetitions that ran it."""
    return {op: statistics.median(r.times[op] for r in reps if op in r.times) for op in reps[0].times}


def end_to_end(reps: list[Repetition], setup: list[float]) -> dict:
    """An op that failed in any repetition counts as infinitely slow."""
    failed = set().union(*(r.failed for r in reps))
    times = op_times(reps)
    latencies = [math.inf if op in failed else t for op, t in times.items()]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": sum(times.values()),
        "op_p50_ms": 1000 * percentile(latencies, 50),
        "op_tail_ms": 1000 * percentile(latencies, tail_percentile(len(latencies))),
        "ok_ratio": 1 - len(failed) / len(times),
        "peak_rss_mb": statistics.median(r.maxrss_kb for r in reps) / 1024,
    }


def per_layer(rep: Repetition, n_ops: int) -> dict:
    def span(name, i):
        return rep.spans.get(name, [0, 0.0, 0.0])[i]

    out = {}
    for name in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            out[name] = span(base, 0)
        elif kind == "self_s":
            out[name] = span(base, 2)
        elif name in rep.counters:
            out[name] = rep.counters[name]
    # cli.cmd: the cmd_* entry points, and parse plus render (all cli self time)
    out["cli.cmd.calls"] = sum(v[0] for k, v in rep.spans.items() if k.startswith("cli.cmd_"))
    out["cli.cmd.self_s"] = sum(v[2] for k, v in rep.spans.items() if k.startswith("cli."))
    out["moduli.local_model.calls_per_op"] = span("moduli.local_model", 0) / n_ops
    for layer in LAYERS:
        busy = sum(v[2] for k, v in rep.spans.items() if k.startswith(layer + "."))
        out[f"share.{layer}"] = 100 * busy / rep.wall_s if rep.wall_s else 0.0
    return {name: out.get(name, 0) for name in PER_LAYER}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "kmoduli" / "__init__.py").is_file():
        print(f"error: no kmoduli package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = perf_counter()
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # children inherit it
    except (AttributeError, OSError):
        pass
    runner = Runner()
    workload = WORKLOADS[args.workload](corpus.load_golden(), args.seed, runner)
    print(
        f"corpus {args.workload} seed {args.seed}: sha256 {corpus.digest(workload.corpus)}, "
        f"mix {json.dumps(workload.mix, sort_keys=True)}"
    )
    setup = [] if args.trace else runner.probes(PROBES)
    known = Repetition()
    if args.trace and workload.known:
        # each known failure costs the whole deadline, so they run once,
        # and only where the per-layer metrics are reported
        known = workload.run(trace=False, known=True)
        workload.verify(known)
    plain: list[Repetition] = []
    traced: list[Repetition] = []
    while True:
        t0 = perf_counter()
        plain.append(workload.run(trace=False))
        if args.trace:
            traced.append(workload.run(trace=True))
        if perf_counter() - start + (perf_counter() - t0) > args.seconds:
            break

    reps = plain + traced
    for rep in reps:
        workload.verify(rep)
    wrong = sorted({w for rep in reps + [known] for w in rep.wrong})
    failures = sorted({f"{op} ({reason})" for rep in reps for op, reason in rep.failed.items()})
    for line in wrong:
        print(f"wrong: {line}", file=sys.stderr)
    for line in failures:
        print(f"failed: {line}", file=sys.stderr)
    for op, reason in sorted(known.failed.items()):
        print(f"known failure: {op} ({reason})", file=sys.stderr)
    n_ops = len(plain[0].times)
    if args.trace:
        layer = [per_layer(rep, n_ops) for rep in traced]
        metrics = {name: statistics.median(m[name] for m in layer) for name in PER_LAYER}
        traced_times, plain_times = op_times(traced), op_times(plain)
        metrics["trace.overhead_s"] = sum(traced_times.values()) - sum(plain_times[op] for op in traced_times)
        metrics["torusgit.known_failures"] = len(known.failed)
        units = PER_LAYER
    else:
        metrics = end_to_end(plain, setup)
        units = END_TO_END
    result = {
        "correct": not wrong,
        "attempted": sum(len(r.times) for r in reps),
        "failed": sum(len(r.failed) for r in reps),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
