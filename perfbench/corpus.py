"""Seeded operation lists of the three workloads, drawn from golden.json.

golden.json holds fixed pools of inputs with the digest of each output
at the commit it was recorded on (see record.py). A run's seed picks a
fixed number of pool entries per class (see _pick) and shuffles their
order, so the same seed gives a byte-identical list and every seed gives
the same size mix. Because every pickable input is in the pool, every
output has a recorded digest to compare against, except the known git
failures, which checks.py verifies exactly should they finish.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden.json"

# git: a query that runs past DEADLINE_S, or raises MemoryError under
# MEM_CAP_MB of address space, fails. Every drawn system is in the pool,
# and its queries were recorded cold (torusgit caches cleared): those
# that finished within FINISH_S are regular ops, those that raised
# MemoryError or did not finish within BLOWUP_S are known failures, and
# only those in between, within a factor of the deadline, were left
# out. All three are seconds at the reference speed of calib.py.
DEADLINE_S = 2.0
FINISH_S = DEADLINE_S / 2
BLOWUP_S = DEADLINE_S * 4
MEM_CAP_MB = 1024

SWEEP_CALLS = (
    ("table", "X", 2, 400),
    ("table", "Y", 3, 401),
    ("witness", "X", 10000),
    ("witness", "Y", 10000),
)


def load_golden() -> dict:
    with open(GOLDEN) as f:
        return json.load(f)


def digest(obj) -> str:
    """Short hash of the canonical JSON of obj."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def sweep_calls(seed: int) -> list[list]:
    """The four calls in a seeded order: which comes first decides which
    torusgit cache entries are warm for the others."""
    calls = [list(c) for c in SWEEP_CALLS]
    random.Random(f"sweep:{seed}").shuffle(calls)
    return calls


def _cost(entry: dict) -> float:
    if "ops" in entry:
        return sum(op["seconds"] for op in entry["ops"])
    return entry["seconds"]


def _pick(rng: random.Random, cls: dict) -> list:
    """One entry from each bin of equal recorded cost.

    Entries are ranked by the time they took when golden.json was
    recorded and cut into `picks` consecutive bins; a seed draws one
    entry per bin. Seeds thus differ in their inputs but not in their
    cost profile, so a metric's spread over seeds measures the program,
    not the draw. A cost proxy, such as a system's width or a request's
    order, ranks entries less well than their recorded time.
    """
    entries = cls["entries"]
    picks = cls["picks"]
    if picks is None:
        return list(entries)
    ranked = sorted(entries, key=lambda e: (_cost(e), e["id"]))
    bounds = [round(i * len(ranked) / picks) for i in range(picks + 1)]
    return [rng.choice(ranked[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def git_ops(golden: dict, seed: int) -> list[dict]:
    """Ops grouped by system; systems in seeded order, queries in fixed order."""
    rng = random.Random(f"git:{seed}")
    units = []
    for name, cls in golden["git"].items():
        for system in _pick(rng, cls):
            units.append(
                [
                    {
                        "id": f"{system['id']}.{op['query']}",
                        "class": name,
                        "system": system["id"],
                        "rows": system["rows"],
                        "query": op["query"],
                        "arg": op["arg"],
                        "digest": op["digest"],
                        "known_failure": op["known_failure"],
                    }
                    for op in system["ops"]
                ]
            )
    rng.shuffle(units)
    return [op for unit in units for op in unit]


def cli_requests(golden: dict, seed: int) -> list[dict]:
    rng = random.Random(f"cli:{seed}")
    reqs = [dict(r, **{"class": name}) for name, cls in golden["cli"].items() for r in _pick(rng, cls)]
    rng.shuffle(reqs)
    return reqs


def size_mix(items: list[dict]) -> dict[str, int]:
    return dict(Counter(item["class"] for item in items))
