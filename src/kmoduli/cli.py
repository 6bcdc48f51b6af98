"""Command-line front end.

Subcommands:

  sing     analyze one cyclic quotient singularity "1/n(a,b)"
  surface  local moduli model of a quotient surface X_l or Y_l
  git      quotient dimension and polystability of a torus weight system
  table    moduli models across a range of orders
  witness  smallest order whose moduli dimension reaches a target

Each subcommand takes --format table|json. Table mode renders rationals
as "p/q", never as decimals; JSON mode emits {"num", "den"} pairs and
is byte-stable across runs. Exit status is 0 on success, 1 on a domain
error (diagnostic on stderr) or a closed stdout, 2 on a usage error.

Each request is a fresh process, so its start-up counts: the library
layers and json are imported inside the subcommands that use them, and
`sing` loads only cqsing, `git` only torusgit. JSON reports are written
by _dumps, byte for byte what json.dumps(indent=2) writes, with long
arrays of ints, of int rows and of rationals joined from one template
each instead of passing every element through the pure-Python encoder.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from fractions import Fraction

# The family names of moduli.FAMILIES and the table limit of
# moduli.MAX_TABLE_SPAN, held here so that building the parser loads no
# layer; moduli.table checks the limit.
FAMILIES = ("X", "Y")
MAX_TABLE_SPAN = 5_000

# The sing report prints every curve of the chain, and the surface report
# one weight column per deformation parameter (about 2l). Each refuses
# larger requests before building anything. A model costs O(log l), so
# witness has no limit.
MAX_CHAIN_CURVES = 100_000
MAX_SURFACE_ORDER = 100_000


def _dumps(data) -> str:
    """json.dumps(data, indent=2), byte for byte, except that a Fraction
    is written as its {"num", "den"} object. Keys may be str, int,
    float, bool or None, as for json.dumps. Exact ints, strs, bools and
    None are written here; every other scalar or key, subclasses of int
    and str among them, goes through the C encoder."""
    from json import JSONEncoder
    from json.encoder import encode_basestring_ascii as string

    encode = JSONEncoder().encode

    def items(seq, nl: str):
        types = set(map(type, seq))
        if types == {int}:
            return map(int.__repr__, seq)
        inner = nl + "  "
        if types == {Fraction}:
            template = f'{{{inner}"num": %d,{inner}"den": %d{nl}}}'
            return map(template.__mod__, map(Fraction.as_integer_ratio, seq))
        if (
            types <= {list, tuple}
            and len(widths := set(map(len, seq))) == 1
            and set(map(type, itertools.chain.from_iterable(seq))) == {int}
        ):
            template = f"[{inner}{f',{inner}'.join(['%d'] * widths.pop())}{nl}]"
            return map(template.__mod__, map(tuple, seq))
        return (render(x, nl) for x in seq)

    def key(k) -> str:
        if type(k) is str:
            return string(k)
        return encode(k if isinstance(k, str) else encode(k))

    def render(o, nl: str) -> str:
        t = type(o)
        if t is int:
            return int.__repr__(o)
        if t is str:
            return string(o)
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        if isinstance(o, Fraction):
            o = {"num": o.numerator, "den": o.denominator}
        if isinstance(o, dict):
            if not o:
                return "{}"
            inner = nl + "  "
            body = f",{inner}".join(
                f"{key(k)}: {render(v, inner)}" for k, v in o.items()
            )
            return f"{{{inner}{body}{nl}}}"
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            inner = nl + "  "
            return f"[{inner}{f',{inner}'.join(items(o, inner))}{nl}]"
        return encode(o)

    return render(data, "\n")


# ------------------------------------------------------------------ sing


def cmd_sing(germ_text: str, fmt: str) -> str:
    """Report normal form, resolution, discrepancies (both conventions),
    Gorenstein index, and deformation classification of one germ."""
    from .cqsing import (
        chain_length,
        classify,
        discrepancies,
        hirzebruch_jung,
        parse_singularity,
    )

    nf = parse_singularity(germ_text)
    if not nf.is_smooth and (curves := chain_length(nf)) > MAX_CHAIN_CURVES:
        raise ValueError(
            f"chain too long: {nf.display()} resolves into {curves} curves, "
            f"above the sing limit of {MAX_CHAIN_CURVES}"
        )
    cls = classify(nf)
    if nf.is_smooth:
        chain = self_ints = discs = logs = ()
    else:
        chain, discs = hirzebruch_jung(nf), discrepancies(nf)
        self_ints = tuple(-b for b in chain)
        # log discrepancy 1 + a as (p + q)/q from a = p/q; discrepancies
        # shares one Fraction along a run of equal values (a whole A_n
        # chain), which is shifted once for the run
        logs, last, shifted = [], None, None
        for a in discs:
            if a is not last:
                p, q = a.as_integer_ratio()
                last, shifted = a, Fraction(p + q, q)
            logs.append(shifted)
    canonical = nf.canonical()
    if fmt == "json":
        return _dumps({
            "input": germ_text.strip(),
            "normal_form": nf.to_json_dict(),
            "canonical_form": canonical.to_json_dict(),
            "display": canonical.display(),
            "resolution_chain": chain,
            "self_intersections": self_ints,
            "discrepancies": discs,
            "log_discrepancies": logs,
            "gorenstein_index": cls.r,
            "classification": cls.to_json_dict(),
        })
    lines = [f"singularity {nf.display()}"]
    if canonical != nf:
        lines.append(f"  canonical form:      {canonical.display()}")
    if nf.is_smooth:
        lines.append("  smooth point: no exceptional curves")
    else:
        ints = ", ".join(map(str, self_ints))
        lines.append(f"  resolution chain:    {list(chain)}  (self-intersections {ints})")
        lines.append(f"  discrepancies:       {', '.join(map(str, discs))}")
        lines.append(f"  log discrepancies:   {', '.join(map(str, logs))}")
        lines.append("  (log discrepancy = 1 + discrepancy; both conventions shown)")
    lines.append(f"  gorenstein index:    {cls.r}")
    lines.append(
        f"  classification:      w = {cls.w}, r = {cls.r}, m = {cls.m}, w0 = {cls.w0}"
    )
    flags = []
    if cls.is_du_val:
        flags.append("du val")
    if cls.is_T:
        flags.append("T-singularity" + (" (primitive)" if cls.is_primitive_T else ""))
    if cls.is_qg_rigid:
        flags.append("qG-rigid")
    if flags:
        lines.append(f"  type:                {', '.join(flags)}")
    qdef = "unknown" if cls.qdef_dim is None else str(cls.qdef_dim)
    lines.append(f"  qdef dimension:      {qdef}")
    return "\n".join(lines)


# --------------------------------------------------------------- surface


def cmd_surface(family: str, l: int, fmt: str) -> str:
    """Full local moduli report: model fields, singular locus, and the
    torus weight matrix on the deformation space."""
    if l > MAX_SURFACE_ORDER:
        raise ValueError(
            f"order too large: surface prints about 2l weight columns, and "
            f"l = {l} is above the surface limit of {MAX_SURFACE_ORDER}; "
            "table and witness have no such limit"
        )
    from .moduli import action_for, evaluate_model
    from .quotsurf import assemble_qdef, build_surface

    surface = build_surface(action_for(family, l))
    qdef = assemble_qdef(surface)
    model = evaluate_model(surface)
    if fmt == "json":
        return _dumps({
            "model": model.to_json_dict(),
            "surface": surface.to_json_dict(),
            "qdef": qdef.to_json_dict(),
        })
    ambient = "(P1 x P1)" if surface.action.ambient == "P1xP1" else "P2"
    lines = [
        f"surface {model.surface_id} = {ambient}/Z_{l}, "
        f"action weights {surface.action.weights}",
        "",
        f"  volume (K^2):        {model.volume!s}",
        f"  qdef dimension:      {model.qdef_dim}",
        f"  aut dimension:       {model.aut_dim}",
        f"  stack dimension:     {model.stack_dim}",
        f"  coarse dimension:    {model.coarse_dim}",
        f"  kernel rank:         {model.kernel_rank}",
        f"  isolated:            {str(model.isolated).lower()}",
        f"  min discrepancy:     {model.min_discrepancy!s}",
        f"  gorenstein index:    {model.gorenstein_index}",
        f"  b2 of smoothing:     {model.b2_generic}",
        "",
        "singular locus:",
    ]
    for rec, chars in qdef.blocks:
        lines.append(
            f"  {rec.point_label:<16} {rec.singularity.display():<10} "
            f"chart weights {rec.local_cyclic_weights}  "
            f"torus chars {rec.local_torus_weights[0]},{rec.local_torus_weights[1]}  "
            f"qdef {len(chars)}"
        )
    lines.append("")
    lines.append("torus weights on the deformation space:")
    for row in qdef.weight_matrix:
        lines.append("  [ " + " ".join(f"{v:>3}" for v in row) + " ]")
    if family == "Y" and l in (3, 9):
        lines.append("")
        lines.append(
            "note: at this order the coarse dimension is a derived value from "
            "the fixed-support algorithm; the generic-order formula does not apply"
        )
    return "\n".join(lines)


# ------------------------------------------------------------------- git


def parse_weight_matrix(text: str):
    """Accept "1,2;3,4" (rows split by ";") or JSON "[[1,2],[3,4]]"; a JSON
    array whose first entry is not a list is one row."""
    from .torusgit import WeightSystem

    text = text.strip()
    try:
        if text.startswith("["):
            import json

            data = json.loads(text)
            rows = [data] if data and not isinstance(data[0], list) else data
        else:
            rows = [
                [int(x) for x in row.split(",")]
                for row in text.split(";")
            ]
        return WeightSystem.from_rows(rows)
    except (ValueError, RecursionError) as e:
        # JSONDecodeError is a ValueError; json raises RecursionError on
        # arrays nested past the interpreter's recursion limit
        raise ValueError(
            f"cannot parse weight matrix {text!r}: {e}; "
            'expected rows like "1,2;3,4" or JSON like "[[1,2],[3,4]]"'
        ) from None


def parse_support(text: str):
    """The support of comma-separated indices; SupportPoint refuses an
    index below 1, and the query one past the system's coordinates."""
    from .torusgit import SupportPoint

    try:
        indices = [int(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(
            f"cannot parse support {text!r}: expected 1-based indices like \"1,2,3\""
        ) from None
    return SupportPoint(indices)


def cmd_git(
    weights_text: str,
    support_text: str | None,
    fmt: str,
    oracle_cap: int | None,
    budget: int | None,
) -> str:
    """Quotient dimension and kernel of a diagonal torus action; with a
    support, its polystability verdict and destabilizing data; with an
    oracle cap, the invariant monomials up to that degree. The budget
    (None: the library's default) caps both the destabilizer search and
    the enumeration."""
    from .torusgit import (
        DEFAULT_ENUMERATION_BUDGET,
        destabilizing_limit,
        integer_matrix_rank,
        invariant_monomials,
        kernel_rank,
        quotient_dim,
    )

    if budget is None:
        budget = DEFAULT_ENUMERATION_BUDGET
    ws = parse_weight_matrix(weights_text)
    dim, kernel = quotient_dim(ws), kernel_rank(ws)
    data = {
        "weight_system": ws.to_json_dict(),
        "quotient_dim": dim,
        "kernel_rank": kernel,
        "effective_rank": ws.rank - kernel,
        "origin_only_polystable": dim == 0,
    }
    support = None
    if support_text is not None:
        support = parse_support(support_text)
        dest = destabilizing_limit(ws, support, budget=budget)
        entry: dict = {"support": support.to_json_dict(), "polystable": dest is None}
        if dest is not None:
            lam, limit = dest
            entry["destabilizer"] = {
                "lambda": list(lam),
                "limit_support": limit.to_json_dict(),
            }
        data["support_analysis"] = entry
    if oracle_cap is not None:
        monomials = invariant_monomials(ws, oracle_cap, budget=budget)
        data["invariant_monomials"] = {
            "degree_cap": oracle_cap,
            "count": len(monomials),
            "exponent_lattice_rank": integer_matrix_rank(monomials),
        }
    if fmt == "json":
        return _dumps(data)
    lines = [f"weight system: {ws.rank} x {ws.n_coords}"]
    for row in ws.matrix:
        lines.append("  [ " + " ".join(f"{v:>3}" for v in row) + " ]")
    lines.append(f"quotient dimension:  {data['quotient_dim']}")
    lines.append(f"kernel rank:         {data['kernel_rank']}")
    lines.append(f"effective rank:      {data['effective_rank']}")
    if data["origin_only_polystable"]:
        lines.append("only the origin is polystable (the quotient is a point)")
    if support is not None:
        label = "{" + ",".join(str(i) for i in sorted(support.support)) + "}"
        verdict = data["support_analysis"]["polystable"]
        lines.append(f"support {label}: {'polystable' if verdict else 'not polystable'}")
        if not verdict:
            dest = data["support_analysis"]["destabilizer"]
            lines.append(f"  destabilizing 1-PS:  lambda = {tuple(dest['lambda'])}")
            limit = dest["limit_support"]
            limit_label = (
                "origin" if not limit else "{" + ",".join(map(str, limit)) + "}"
            )
            lines.append(f"  limit support:       {limit_label}")
    if oracle_cap is not None:
        info = data["invariant_monomials"]
        lines.append(
            f"invariant monomials up to degree {info['degree_cap']}: "
            f"{info['count']} (exponent lattice rank {info['exponent_lattice_rank']})"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------- table


_TABLE_COLUMNS = (
    ("id", lambda m: m.surface_id),
    ("qdef", lambda m: str(m.qdef_dim)),
    ("aut", lambda m: str(m.aut_dim)),
    ("stack", lambda m: str(m.stack_dim)),
    ("coarse", lambda m: str(m.coarse_dim)),
    ("kernel", lambda m: str(m.kernel_rank)),
    ("isolated", lambda m: str(m.isolated).lower()),
    ("volume", lambda m: str(m.volume)),
    ("min_disc", lambda m: str(m.min_discrepancy)),
    ("index", lambda m: str(m.gorenstein_index)),
    ("b2", lambda m: str(m.b2_generic)),
)


def cmd_table(family: str, l_min: int, l_max: int, fmt: str) -> str:
    """One moduli model row per valid order in the range."""
    from .moduli import table

    rows = table(family, l_min, l_max)
    if fmt == "json":
        return _dumps(
            {
                "family": family,
                "l_min": l_min,
                "l_max": l_max,
                "rows": [m.to_json_dict() for m in rows],
            }
        )
    if not rows:
        return "no rows (empty range)"
    cells = [[render(m) for _, render in _TABLE_COLUMNS] for m in rows]
    headers = [name for name, _ in _TABLE_COLUMNS]
    widths = [
        max(len(headers[j]), *(len(row[j]) for row in cells))
        for j in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    if family == "Y" and any(m.l in (3, 9) for m in rows):
        lines.append(
            "note: coarse dimensions at l = 3, 9 are derived values from the "
            "fixed-support algorithm; the generic-order formula does not apply"
        )
    return "\n".join(lines)


# --------------------------------------------------------------- witness


def cmd_witness(family: str, target_dim: int, fmt: str) -> str:
    """Smallest order whose moduli dimension reaches the target."""
    from .moduli import witness_dim, witness_model

    model = witness_model(family, target_dim)
    kind, achieved = witness_dim(model)
    data = {
        "family": family,
        "target_dim": target_dim,
        "l": model.l,
        "dimension_kind": kind,
        "achieved_dim": achieved,
    }
    if fmt == "json":
        return _dumps(data)
    return (
        f"smallest {family}-family order with {kind} dimension >= {target_dim}: "
        f"l = {model.l} ({kind} dimension {achieved})"
    )


# ------------------------------------------------------------------ main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kmoduli",
        description=(
            "Exact local K-moduli computations for cyclic quotient del Pezzo "
            "surfaces: singularity normal forms, resolutions, Q-Gorenstein "
            "deformations, and torus GIT quotients."
        ),
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, help: str) -> argparse.ArgumentParser:
        # an option is matched by its full name only, never by a prefix
        return sub.add_parser(name, help=help, allow_abbrev=False)

    def add_common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--format", choices=("table", "json"), default="table",
            help="output format (default: table)",
        )

    sing = add_parser("sing", help="analyze a cyclic quotient singularity")
    sing.add_argument(
        "germ", metavar="GERM",
        help='singularity in the form "1/n(a,b)"; its resolution chain may '
        f"have at most {MAX_CHAIN_CURVES} curves",
    )
    add_common(sing)

    surface = add_parser("surface", help="local moduli model of one surface")
    surface.add_argument("--family", type=str.upper, choices=FAMILIES, required=True)
    surface.add_argument(
        "--l", type=int, required=True,
        help=f"order of the cyclic group, at most {MAX_SURFACE_ORDER}",
    )
    add_common(surface)

    git = add_parser("git", help="torus GIT analysis of a weight system")
    git.add_argument(
        "--weights", required=True,
        help='weight matrix: rows "1,2;3,4" or JSON "[[1,2],[3,4]]"; '
        'write --weights=-1,2 when it starts with "-"',
    )
    git.add_argument("--support", help='1-based support indices, e.g. "1,2,3"')
    git.add_argument(
        "--oracle-cap", type=int,
        help="also enumerate invariant monomials up to this degree",
    )
    git.add_argument(
        "--budget", type=int,
        help="cap on the monomials --oracle-cap enumerates and on the nodes "
        "the destabilizer search of --support visits (default 10**6)",
    )
    add_common(git)

    tab = add_parser("table", help="moduli models across a range of orders")
    tab.add_argument("--family", type=str.upper, choices=FAMILIES, required=True)
    tab.add_argument("--l-min", type=int, required=True)
    tab.add_argument(
        "--l-max", type=int, required=True,
        help=f"the range from max(l-min, 2) to l-max may span at most "
        f"{MAX_TABLE_SPAN} orders",
    )
    add_common(tab)

    wit = add_parser("witness", help="smallest order reaching a moduli dimension")
    wit.add_argument("--family", type=str.upper, choices=FAMILIES, required=True)
    wit.add_argument("--target-dim", type=int, required=True)
    add_common(wit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "git" and args.budget is not None and args.budget < 0:
        parser.error(f"argument --budget: must be nonnegative, got {args.budget}")
    fmt = args.format
    try:
        if args.command == "sing":
            report = cmd_sing(args.germ, fmt)
        elif args.command == "surface":
            report = cmd_surface(args.family, args.l, fmt)
        elif args.command == "git":
            report = cmd_git(
                args.weights, args.support, fmt, args.oracle_cap, args.budget
            )
        elif args.command == "table":
            report = cmd_table(args.family, args.l_min, args.l_max, fmt)
        else:
            report = cmd_witness(args.family, args.target_dim, fmt)
    except (ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    try:
        print(report, flush=True)
    except BrokenPipeError:  # the reader closed stdout: flush to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
