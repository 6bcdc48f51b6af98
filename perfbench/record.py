"""Record golden.json: the input pools and the digest of every output.

    PYTHONPATH=src python3 perfbench/record.py

Run it from the repository root at the commit whose outputs are the
reference; it takes a few minutes. The pools are drawn from a fixed
master seed, so a re-run regenerates the same inputs. Every git query
is timed cold (torusgit caches cleared before it) to classify it
against the thresholds in corpus.py.
"""

from __future__ import annotations

import json
import os
import platform
import random
import subprocess
import sys
from math import gcd
from pathlib import Path
from time import perf_counter

import checks
import corpus
from ops import GIT_QUERY_ORDER, clear_caches, run_git, run_sweep

MASTER_SEED = 2101_05643
ROOT = Path(__file__).resolve().parents[1]

# name: (torus rank, width range, entry bound, pool size, picks per run or None for all)
GIT_CLASSES = {
    "k1": (1, (1, 10), 5, 30, 15),
    "k2_c07": (2, (1, 5), 4, 30, 15),
    "k2": (2, (2, 10), 5, 30, 15),
    "k3": (3, (3, 10), 5, 30, 15),
    # every rank 4 and 5 system runs on every seed: their slow queries set
    # op_tail_ms, which would otherwise change with the draw
    "k4": (4, (4, 10), 5, 20, None),
    "k5": (5, (5, 10), 5, 20, None),
}
# the queries of drawn systems that fail form the class "blowup"; a run
# takes this many of them, so every seed has the same number of failures
BLOWUP_PICKS = 2
# destabilizing_limit on the thin cone 1,-1;N,-(N-1) with support {1,2}
LADDER_N = (5, 10, 20, 30)
REPROS = {
    "repro_fm_5x10": (
        [
            [-1, -3, -5, 3, -5, 4, -2, 4, 2, -3],
            [4, 3, -5, 1, -2, 0, -4, -2, 4, 5],
            [1, 4, -2, 2, -4, 5, 1, -1, 3, 2],
            [-5, 0, 4, 1, -1, -5, -3, -2, 0, 4],
            [-3, 0, 1, -2, -1, 5, -4, 1, 3, 0],
        ],
        "quotient_dim",
        None,
    ),
    "repro_thin_cone_200": ([[1, -1], [200, -199]], "destabilizing_limit", [1, 2]),
}
SLOW_S = 0.1  # a finishing query at least this slow counts as slow in the profile
CLI_TIMEOUT_S = 60


def time_cold(system_id: str, rows, query: str, arg) -> list:
    """[id, seconds, status, output] of one query with torusgit caches cleared,
    run under a limit of BLOWUP_S."""
    clear_caches()
    op = {"id": f"{system_id}.{query}", "system": system_id, "rows": rows, "query": query, "arg": arg}
    return run_git([op], corpus.BLOWUP_S, corpus.MEM_CAP_MB)["ops"][0]


def draw_system(rng: random.Random, rank: int, widths, bound: int):
    n = rng.randint(*widths)
    rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(rank)]
    support = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
    j = rng.randrange(n)
    vector = [-row[j] for row in rows]
    args = {"is_polystable": support, "destabilizing_limit": support, "in_rational_cone": vector}
    return rows, [(q, args.get(q)) for q in GIT_QUERY_ORDER]


def classify(system_id, rows, queries) -> dict:
    """Time each query cold and sort it by outcome.

    A query that finishes within FINISH_S is a regular op, recorded with
    the digest of its output; one that raises MemoryError or does not
    finish within BLOWUP_S is a known failure; one that finishes in
    between would sit near the deadline and is left out.
    """
    out = {"ok": [], "fail": [], "excluded": []}
    for query, arg in queries:
        _, dt, status, result = time_cold(system_id, rows, query, arg)
        op = {"query": query, "arg": arg, "seconds": round(dt, 4)}
        if status != "ok":
            out["fail"].append(dict(op, digest=None, known_failure=True, status=status))
            continue
        err = checks.check_git({"id": f"{system_id}.{query}", "rows": rows, "query": query, "arg": arg}, result)
        if err:
            raise SystemExit(f"check failed while recording: {err}")
        if dt <= corpus.FINISH_S:
            out["ok"].append(dict(op, digest=corpus.digest(result), known_failure=False))
        else:
            out["excluded"].append([system_id, query, round(dt, 4)])
    return out


def record_git(rng: random.Random) -> tuple[dict, list, dict]:
    """Pools of every class, the excluded queries and a profile of each class."""
    classes: dict = {}
    excluded: list = []
    profile: dict = {}
    blowups: list = []
    seen: set = set()

    def add(name, entries, system_id, rows, queries, expect=None):
        got = classify(system_id, rows, queries)
        if expect == "ok" and (got["fail"] or got["excluded"]):
            raise SystemExit(f"{system_id} does not finish within {corpus.FINISH_S}s: {got}")
        if expect == "fail" and len(got["fail"]) != len(queries):
            raise SystemExit(f"{system_id} finishes within {corpus.BLOWUP_S}s: {got}")
        if got["ok"]:
            entries.append({"id": system_id, "rows": rows, "ops": got["ok"]})
        if got["fail"]:
            target = entries if expect == "fail" else blowups
            target.append({"id": system_id, "rows": rows, "ops": got["fail"]})
        excluded.extend(got["excluded"])
        counts = profile.setdefault(name, {"queries": 0, "slow": 0, "excluded": 0, "known_failures": 0})
        counts["queries"] += len(queries)
        counts["slow"] += sum(op["seconds"] >= SLOW_S for op in got["ok"])
        counts["excluded"] += len(got["excluded"])
        counts["known_failures"] += len(got["fail"])

    for name, (rank, widths, bound, size, picks) in GIT_CLASSES.items():
        entries: list = []
        drawn = 0
        while drawn < size:
            rows, queries = draw_system(rng, rank, widths, bound)
            key = json.dumps(rows)
            if key not in seen:
                seen.add(key)
                drawn += 1
                add(name, entries, f"{name}_{len(seen)}", rows, queries)
        classes[name] = {"picks": picks, "entries": entries}
        print(f"git {name}: {profile[name]}", file=sys.stderr)
    # one known failure per entry, so that a pick is one failing query
    classes["blowup"] = {
        "picks": BLOWUP_PICKS,
        "entries": [dict(e, ops=[op]) for e in blowups for op in e["ops"]],
    }
    ladder: list = []
    for n in LADDER_N:
        add("ladder", ladder, f"ladder_{n}", [[1, -1], [n, -(n - 1)]], [("destabilizing_limit", [1, 2])], "ok")
    classes["ladder"] = {"picks": None, "entries": ladder}
    repros: list = []
    for system_id, (rows, query, arg) in REPROS.items():
        add("repro", repros, system_id, rows, [(query, arg)], "fail")
    classes["repro"] = {"picks": None, "entries": repros}
    return classes, excluded, profile


def cli_pool(rng: random.Random) -> dict:
    """name -> (pool of argv lists, picks per run)."""

    def fmt():
        return ["--format", rng.choice(("table", "json"))]

    def germ(n):
        a, b = (rng.choice([x for x in range(1, n) if gcd(x, n) == 1]) for _ in range(2))
        return f"1/{n}({a},{b})"

    def order(family, hi):
        return rng.randint(2, hi) if family == "X" else 2 * rng.randint(1, hi // 2) + 1

    def weights():
        k, n = rng.randint(1, 3), rng.randint(2, 6)
        rows = ";".join(",".join(str(rng.randint(-3, 3)) for _ in range(n)) for _ in range(k))
        argv = ["git", f"--weights={rows}"]
        if rng.random() < 0.5:
            argv += ["--support", ",".join(map(str, sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))))]
        if n <= 5 and rng.random() < 0.25:
            argv += ["--oracle-cap", "4"]
        return argv + fmt()

    def surface():
        family = rng.choice("XY")
        return ["surface", "--family", family, "--l", str(order(family, 300))] + fmt()

    def table():
        family = rng.choice("XY")
        lo = rng.randint(2, 60)
        return ["table", "--family", family, "--l-min", str(lo), "--l-max", str(lo + rng.randint(20, 140)), "--format", "json"]

    def witness():
        family = rng.choice("XY")
        return ["witness", "--family", family, "--target-dim", str(int(10 ** rng.uniform(1, 4)))] + fmt()

    return {
        "sing": ([["sing", germ(rng.randint(2, 10**4))] + fmt() for _ in range(16)], 8),
        # every seed runs every chain: the longest one sets the workload's peak RSS
        "sing_chain": ([["sing", f"1/{n}(1,{n - 1})"] + fmt() for n in rng.sample(range(1000, 10**4 + 1), 8)], None),
        "surface": ([surface() for _ in range(16)], 8),
        "table": ([table() for _ in range(12)], 6),
        "git": ([weights() for _ in range(20)], 10),
        # every seed runs every witness too: a target near 10^4 costs as much
        # as several small ones, so picking it or not would move wall_s
        "witness": ([witness() for _ in range(8)], None),
    }


def record_cli(rng: random.Random, env: dict) -> dict:
    out = {}
    for name, (pool, picks) in cli_pool(rng).items():
        entries = []
        for i, argv in enumerate(pool):
            t0 = perf_counter()
            p = subprocess.run(
                [sys.executable, "-m", "kmoduli.cli", *argv],
                capture_output=True, text=True, env=env, cwd=ROOT, timeout=CLI_TIMEOUT_S,
            )
            seconds = perf_counter() - t0
            req = {"id": f"{name}_{i}", "argv": argv}
            err = checks.check_cli(req, p.returncode, p.stdout)
            if err:
                raise SystemExit(f"check failed while recording: {err}")
            entries.append(dict(req, digest=corpus.digest([p.returncode, p.stdout]), seconds=round(seconds, 4)))
        out[name] = {"picks": picks, "entries": entries}
        print(f"cli {name}: {len(entries)} requests", file=sys.stderr)
    return out


def record_sweep() -> dict:
    res = run_sweep([list(c) for c in corpus.SWEEP_CALLS])
    ops = {}
    for key, _, _, out in res["ops"]:
        err = checks.check_model(out)
        if err:
            raise SystemExit(f"check failed while recording: {err}")
        ops[key] = corpus.digest(out)
    for key, l in res["witnesses"].items():
        family, target = key.split(":")
        if l != checks.smallest_order(family, int(target)):
            raise SystemExit(f"witness {key} = {l} disagrees with the closed form")
    return {"ops": ops, "witnesses": res["witnesses"]}


def main() -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT).stdout.strip()
    git_classes, excluded, profile = record_git(random.Random(f"git:{MASTER_SEED}"))
    golden = {
        "recorded_at": {"commit": commit, "python": platform.python_version(), "nproc": os.cpu_count()},
        "thresholds_s": {"deadline": corpus.DEADLINE_S, "finish": corpus.FINISH_S, "blowup": corpus.BLOWUP_S},
        "sweep": record_sweep(),
        "git": git_classes,
        "git_excluded": excluded,
        "git_profile": profile,
        "cli": record_cli(random.Random(f"cli:{MASTER_SEED}"), env),
    }
    with open(corpus.GOLDEN, "w") as f:
        json.dump(golden, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
