"""Per-layer spans recorded from outside the library.

`Tracer.install()` wraps every public function defined in the five
kmoduli modules and rebinds each name that refers to one, in every
kmoduli module, to its wrapper. Names a module imported from another
(such as `kmoduli.moduli.discrepancies` or the CLI's `moduli_table`) are
rebound too, so every cross-layer call passes through a span. Only the
names in the loaded modules change; the library's source does not.

Spans are aggregated in memory per function: call count, total time,
and self time (total minus the time covered by directly nested spans).
A few counters are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

LAYERS = ("cqsing", "quotsurf", "torusgit", "moduli", "cli")


def _chain_curves(counters, args, kwargs, result):
    counters["cqsing.chain_curves"] += len(args[0].coefficients)


def _qdef_columns(counters, args, kwargs, result):
    counters["quotsurf.qdef_columns"] += result.total_dim


def _support_cut(counters, args, kwargs, result):
    within = args[1] if len(args) > 1 else kwargs.get("within")
    before = args[0].n_coords if within is None else len(within)
    counters["torusgit.support_cut"] += before - len(result)


# Counters keyed by the span that feeds them. A later library version may
# change an argument or result type; a counter that no longer fits is
# skipped rather than failing the run.
COUNTERS = {
    "cqsing.discrepancies": _chain_curves,
    "quotsurf.assemble_qdef": _qdef_columns,
    "torusgit.largest_polystable_support": _support_cut,
}


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, int] = {}
        self._stack: list[float] = []

    def reset_stack(self) -> None:
        """Drop open spans, after an operation was interrupted mid-call."""
        self._stack.clear()

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        count = COUNTERS.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                nested = stack.pop() if stack else 0.0
                if stack:
                    stack[-1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - nested
            if count is not None:
                try:
                    count(counters, args, kwargs, result)
                except (AttributeError, IndexError, TypeError):
                    pass
            return result

        return span

    def install(self) -> None:
        """Wrap the public functions of every layer and rebind their names."""
        for key in ("cqsing.chain_curves", "quotsurf.qdef_columns", "torusgit.support_cut"):
            self.counters.setdefault(key, 0)
        modules = [importlib.import_module("kmoduli")]
        modules += [importlib.import_module(f"kmoduli.{layer}") for layer in LAYERS]
        wrapped = {}
        for layer, mod in zip(LAYERS, modules[1:]):
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    wrapped[id(obj)] = self.wrap(f"{layer}.{name}", obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    setattr(mod, name, wrapped[id(obj)])

    def cache_counts(self) -> tuple[int, int]:
        """Hits and misses summed over every lru_cache in kmoduli.torusgit."""
        torusgit = importlib.import_module("kmoduli.torusgit")
        hits = misses = 0
        for obj in vars(torusgit).values():
            info = getattr(obj, "cache_info", None)
            if callable(info):
                ci = info()
                hits += ci.hits
                misses += ci.misses
        return hits, misses

    def snapshot(self) -> dict:
        hits, misses = self.cache_counts()
        return {
            "spans": {k: v for k, v in self.stats.items() if v[0]},
            "counters": dict(
                self.counters,
                **{"torusgit.cache_hits": hits, "torusgit.cache_misses": misses},
            ),
        }
