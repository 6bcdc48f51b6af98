"""Re-measure the figures ROADMAP.md quotes for the library.

    PYTHONPATH=src python3 perfbench/figures.py

Prints one JSON object: the wall time of table("X", 2, 400), of
local_model("X", 800) and of table("X", 2, 300), and the share of the
last spent in cqsing.discrepancies (self time under spans.Tracer). Each
figure is the median of three runs with the torusgit caches cleared
before each.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

from kmoduli import moduli
from ops import clear_caches
from spans import Tracer

REPEATS = 3


def timed(fn, *args) -> float:
    clear_caches()
    t0 = perf_counter()
    fn(*args)
    return perf_counter() - t0


def main() -> None:
    figures = {
        "table_X_2_400_s": statistics.median(timed(moduli.table, "X", 2, 400) for _ in range(REPEATS)),
        "local_model_X_800_s": statistics.median(timed(moduli.local_model, "X", 800) for _ in range(REPEATS)),
    }
    tracer = Tracer()
    tracer.install()
    disc = tracer.stats["cqsing.discrepancies"]
    walls, shares = [], []
    for _ in range(REPEATS):
        before = disc[2]
        wall = timed(moduli.table, "X", 2, 300)
        walls.append(wall)
        shares.append(100 * (disc[2] - before) / wall)
    figures["table_X_2_300_traced_s"] = statistics.median(walls)
    figures["table_X_2_300_discrepancies_share_pct"] = statistics.median(shares)
    print(json.dumps(figures, indent=1))


if __name__ == "__main__":
    main()
