"""Call counting for the tests: wrap a function under every module-level
name bound to it."""

from kmoduli import cli, cqsing, moduli, quotsurf, torusgit

MODULES = (cqsing, quotsurf, torusgit, moduli, cli)


def count_calls(monkeypatch, fn, modules=MODULES) -> list:
    """Wrap fn under every name bound to it at module level in modules
    (the library's by default); return the list the wrapper appends one
    entry, the positional arguments, to per call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if obj is fn:
                monkeypatch.setattr(mod, name, counted)
    return calls
