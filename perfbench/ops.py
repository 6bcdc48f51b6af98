"""Library-side execution of the sweep and git operation lists.

Every library function is looked up on its module at call time, so the
spans a `Tracer` installs are seen. Results are returned as JSON-ready
values, with each op's time at reference speed (calib.py); the parent
process checks them.
"""

from __future__ import annotations

import resource
import signal
from time import perf_counter

from calib import Calibrated, reference
from kmoduli import moduli, torusgit


class DeadlineExceeded(Exception):
    """The per-operation deadline passed."""


def _raise_deadline(signum, frame):
    raise DeadlineExceeded


def clear_caches() -> None:
    """Empty every lru_cache in torusgit, for cold timings."""
    for obj in vars(torusgit).values():
        if callable(getattr(obj, "cache_clear", None)):
            obj.cache_clear()


def _support(arg):
    return torusgit.SupportPoint.of(arg)


# query name -> (call, JSON conversion of the result)
GIT_QUERIES = {
    "quotient_dim": (lambda ws, arg: torusgit.quotient_dim(ws), None),
    "kernel_rank": (lambda ws, arg: torusgit.kernel_rank(ws), None),
    "largest_polystable_support": (
        lambda ws, arg: torusgit.largest_polystable_support(ws),
        lambda r: r.to_json_dict(),
    ),
    "is_polystable": (lambda ws, arg: torusgit.is_polystable(ws, _support(arg)), None),
    "destabilizing_limit": (
        lambda ws, arg: torusgit.destabilizing_limit(ws, _support(arg)),
        lambda r: None if r is None else {"lambda": list(r[0]), "limit": r[1].to_json_dict()},
    ),
    "open_half_space_certificate": (
        lambda ws, arg: torusgit.open_half_space_certificate(ws),
        lambda r: None if r is None else [[x.numerator, x.denominator] for x in r],
    ),
    "in_rational_cone": (lambda ws, arg: torusgit.in_rational_cone(arg, ws.columns), None),
}

GIT_QUERY_ORDER = tuple(GIT_QUERIES)


def run_git(ops: list[dict], deadline_s: float, mem_cap_mb: int, tracer=None) -> dict:
    """Run each query under a deadline and an address-space cap.

    The deadline is in seconds at reference speed (calib.py), so a spell
    of contention on the host does not decide whether an op fails. An op
    that passes it or raises MemoryError is a failure; its time counts up
    to the deadline, or to the moment MemoryError stopped it.
    """
    cap = mem_cap_mb << 20
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    signal.signal(signal.SIGALRM, _raise_deadline)
    systems = {}
    for op in ops:
        if op["system"] not in systems:
            systems[op["system"]] = torusgit.WeightSystem.from_rows(op["rows"])
    clock = Calibrated()
    results = []
    raw_total = 0.0
    for op in ops:
        ws = systems[op["system"]]
        call, convert = GIT_QUERIES[op["query"]]
        out = None
        signal.setitimer(signal.ITIMER_REAL, deadline_s * clock.slowdown)
        t0 = perf_counter()
        try:
            try:
                raw = call(ws, op["arg"])
                status = "ok"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except DeadlineExceeded:  # also when it fires as the call returns
            status = "deadline"
        except MemoryError:
            status = "memory"
        dt = perf_counter() - t0
        raw_total += dt
        if status == "ok":
            out = convert(raw) if convert else raw
        elif tracer is not None:
            tracer.reset_stack()
        results.append([op["id"], status, out])
        clock.add(op["id"], dt)
    times = clock.close()
    for op_id, status, _ in results:
        if status == "deadline":
            times[op_id] = deadline_s
    return {"ops": [[i, times[i], status, out] for i, status, out in results], "raw_s": raw_total}


def run_sweep(calls: list[list], tracer=None) -> dict:
    """Run the family tables and witnesses; each local_model call is one op.

    Reference measurements fall between ops, inside table(); under a
    tracer they are a span of their own, so no layer is charged for them.
    """
    inner = moduli.local_model
    clock = Calibrated(ref=tracer.wrap("bench.reference", reference) if tracer else reference)
    models = []

    def timed_local_model(family, l):
        t0 = perf_counter()
        model = inner(family, l)
        dt = perf_counter() - t0
        models.append((model, dt))
        clock.add(len(models) - 1, dt)
        return model

    moduli.local_model = timed_local_model
    witnesses = {}
    try:
        for kind, family, a, *rest in calls:
            if kind == "table":
                moduli.table(family, a, rest[0])
            else:
                witnesses[f"{family}:{a}"] = moduli.unboundedness_witness(family, a)
    finally:
        moduli.local_model = inner
    times = clock.close()
    ops = [[m.surface_id, times[i], "ok", m.to_json_dict()] for i, (m, _) in enumerate(models)]
    return {"ops": ops, "witnesses": witnesses, "raw_s": sum(dt for _, dt in models)}
