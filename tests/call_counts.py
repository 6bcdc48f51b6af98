"""Call counting for the tests: wrap a library function under every
module-level name bound to it."""

from kmoduli import cli, cqsing, moduli, quotsurf, torusgit

MODULES = (cqsing, quotsurf, torusgit, moduli, cli)


def count_calls(monkeypatch, fn) -> list:
    """Wrap fn under every module-level name bound to it; return the list
    the wrapper appends one entry to per call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for mod in MODULES:
        for name, obj in list(vars(mod).items()):
            if obj is fn:
                monkeypatch.setattr(mod, name, counted)
    return calls
