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
error (diagnostic on stderr), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from .cqsing import (
    classify,
    discrepancies,
    gorenstein_index,
    hirzebruch_jung,
    normalize,
    parse_singularity,
)
from .moduli import action_for, evaluate_model, witness_model
from .moduli import table as moduli_table
from .quotsurf import assemble_qdef, build_surface, rational_json
from .torusgit import (
    DEFAULT_ENUMERATION_BUDGET,
    SupportPoint,
    WeightSystem,
    analyze,
    destabilizing_limit,
    integer_matrix_rank,
    invariant_monomials,
    is_polystable,
)


@dataclass(frozen=True)
class ReportConfig:
    """Output format of every subcommand, and the enumeration cap of git."""

    format: str = "table"
    budget: int = DEFAULT_ENUMERATION_BUDGET


def _rat(x: Fraction) -> str:
    return str(Fraction(x))


def _dumps(data: dict) -> str:
    return json.dumps(data, indent=2)


# ------------------------------------------------------------------ sing


def cmd_sing(germ_text: str, config: ReportConfig) -> str:
    """Report normal form, resolution, discrepancies (both conventions),
    Gorenstein index, and deformation classification of one germ."""
    germ = parse_singularity(germ_text)
    nf = normalize(germ)
    cls = classify(nf)
    if nf.is_smooth:
        chain: tuple[int, ...] = ()
        discs: tuple[Fraction, ...] = ()
        logs: tuple[Fraction, ...] = ()
    else:
        hj = hirzebruch_jung(nf)
        vec = discrepancies(hj)
        chain = hj.coefficients
        discs = vec.values
        logs = vec.log_values
    canonical = nf.canonical()
    data = {
        "input": germ_text.strip(),
        "normal_form": nf.to_json_dict(),
        "canonical_form": canonical.to_json_dict(),
        "display": canonical.display(),
        "resolution_chain": list(chain),
        "self_intersections": [-b for b in chain],
        "discrepancies": [rational_json(a) for a in discs],
        "log_discrepancies": [rational_json(a) for a in logs],
        "gorenstein_index": gorenstein_index(nf),
        "classification": cls.to_json_dict(),
    }
    if config.format == "json":
        return _dumps(data)
    lines = [f"singularity {nf.display()}"]
    if canonical != nf:
        lines.append(f"  canonical form:      {canonical.display()}")
    if nf.is_smooth:
        lines.append("  smooth point: no exceptional curves")
    else:
        ints = ", ".join(str(-b) for b in chain)
        lines.append(f"  resolution chain:    {list(chain)}  (self-intersections {ints})")
        lines.append(f"  discrepancies:       {', '.join(_rat(a) for a in discs)}")
        lines.append(f"  log discrepancies:   {', '.join(_rat(a) for a in logs)}")
        lines.append("  (log discrepancy = 1 + discrepancy; both conventions shown)")
    lines.append(f"  gorenstein index:    {data['gorenstein_index']}")
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


def cmd_surface(family: str, l: int, config: ReportConfig) -> str:
    """Full local moduli report: model fields, singular locus, and the
    torus weight matrix on the deformation space."""
    surface = build_surface(action_for(family, l))
    qdef = assemble_qdef(surface)
    model = evaluate_model(family, surface, qdef)
    data = {
        "model": model.to_json_dict(),
        "surface": surface.to_json_dict(),
        "qdef": qdef.to_json_dict(),
    }
    if config.format == "json":
        return _dumps(data)
    ambient = "(P1 x P1)" if surface.action.ambient == "P1xP1" else "P2"
    lines = [
        f"surface {model.surface_id} = {ambient}/Z_{l}, "
        f"action weights {surface.action.weights}",
        "",
        f"  volume (K^2):        {_rat(model.volume)}",
        f"  qdef dimension:      {model.qdef_dim}",
        f"  aut dimension:       {model.aut_dim}",
        f"  stack dimension:     {model.stack_dim}",
        f"  coarse dimension:    {model.coarse_dim}",
        f"  kernel rank:         {model.kernel_rank}",
        f"  isolated:            {str(model.isolated).lower()}",
        f"  min discrepancy:     {_rat(model.min_discrepancy)}",
        f"  gorenstein index:    {model.gorenstein_index}",
        f"  b2 of smoothing:     {model.b2_generic}",
        "",
        "singular locus:",
    ]
    block_sizes = {rec.point_label: len(chars) for rec, chars in qdef.blocks}
    for rec in surface.singular_locus:
        lines.append(
            f"  {rec.point_label:<16} {rec.singularity.display():<10} "
            f"chart weights {rec.local_cyclic_weights}  "
            f"torus chars {rec.local_torus_weights[0]},{rec.local_torus_weights[1]}  "
            f"qdef {block_sizes[rec.point_label]}"
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


def parse_weight_matrix(text: str) -> WeightSystem:
    """Accept "1,2;3,4" (rows split by ";") or JSON "[[1,2],[3,4]]"."""
    text = text.strip()
    try:
        if text.startswith("["):
            data = json.loads(text)
            rows = [data] if data and isinstance(data[0], int) else data
        else:
            rows = [
                [int(x) for x in row.split(",")]
                for row in text.split(";")
            ]
        return WeightSystem.from_rows(rows)
    except (ValueError, TypeError, json.JSONDecodeError) as e:
        raise ValueError(
            f"cannot parse weight matrix {text!r}: {e}; "
            'expected rows like "1,2;3,4" or JSON like "[[1,2],[3,4]]"'
        ) from None


def parse_support(text: str, n_coords: int) -> SupportPoint:
    try:
        indices = [int(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(
            f"cannot parse support {text!r}: expected 1-based indices like \"1,2,3\""
        ) from None
    if any(i < 1 or i > n_coords for i in indices):
        raise ValueError(
            f"support indices must lie in 1..{n_coords}: {sorted(indices)}"
        )
    return SupportPoint.of(indices)


def cmd_git(
    weights_text: str,
    support_text: str | None,
    config: ReportConfig,
    oracle_cap: int | None = None,
) -> str:
    """Quotient dimension and kernel of a diagonal torus action; with a
    support, its polystability verdict and destabilizing data; with an
    oracle cap, the invariant monomials up to that degree."""
    ws = parse_weight_matrix(weights_text)
    git = analyze(ws)
    data = {
        "weight_system": ws.to_json_dict(),
        **git.to_json_dict(),
        "origin_only_polystable": git.quotient_dim == 0,
    }
    support = None
    if support_text is not None:
        support = parse_support(support_text, ws.n_coords)
        verdict = is_polystable(ws, support)
        entry: dict = {"support": support.to_json_dict(), "polystable": verdict}
        if not verdict:
            lam, limit = destabilizing_limit(ws, support)
            entry["destabilizer"] = {
                "lambda": list(lam),
                "limit_support": limit.to_json_dict(),
            }
        data["support_analysis"] = entry
    if oracle_cap is not None:
        monomials = invariant_monomials(ws, oracle_cap, budget=config.budget)
        data["invariant_monomials"] = {
            "degree_cap": oracle_cap,
            "count": len(monomials),
            "exponent_lattice_rank": integer_matrix_rank(monomials),
        }
    if config.format == "json":
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
    ("volume", lambda m: _rat(m.volume)),
    ("min_disc", lambda m: _rat(m.min_discrepancy)),
    ("index", lambda m: str(m.gorenstein_index)),
    ("b2", lambda m: str(m.b2_generic)),
)


def cmd_table(family: str, l_min: int, l_max: int, config: ReportConfig) -> str:
    """One moduli model row per valid order in the range."""
    rows = moduli_table(family, l_min, l_max)
    if config.format == "json":
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


def cmd_witness(family: str, target_dim: int, config: ReportConfig) -> str:
    """Smallest order whose moduli dimension reaches the target."""
    model = witness_model(family, target_dim)
    kind = "coarse" if family == "X" else "stack"
    achieved = model.coarse_dim if family == "X" else model.stack_dim
    data = {
        "family": family,
        "target_dim": target_dim,
        "l": model.l,
        "dimension_kind": kind,
        "achieved_dim": achieved,
    }
    if config.format == "json":
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
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--format", choices=("table", "json"), default="table",
            help="output format (default: table)",
        )

    sing = sub.add_parser("sing", help="analyze a cyclic quotient singularity")
    sing.add_argument("germ", metavar="GERM", help='singularity in the form "1/n(a,b)"')
    add_common(sing)

    surface = sub.add_parser("surface", help="local moduli model of one surface")
    surface.add_argument("--family", type=str.upper, choices=("X", "Y"), required=True)
    surface.add_argument("--l", type=int, required=True, help="order of the cyclic group")
    add_common(surface)

    git = sub.add_parser("git", help="torus GIT analysis of a weight system")
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
        "--budget", type=int, default=DEFAULT_ENUMERATION_BUDGET,
        help="enumeration cap for --oracle-cap",
    )
    add_common(git)

    tab = sub.add_parser("table", help="moduli models across a range of orders")
    tab.add_argument("--family", type=str.upper, choices=("X", "Y"), required=True)
    tab.add_argument("--l-min", type=int, required=True)
    tab.add_argument("--l-max", type=int, required=True)
    add_common(tab)

    wit = sub.add_parser("witness", help="smallest order reaching a moduli dimension")
    wit.add_argument("--family", type=str.upper, choices=("X", "Y"), required=True)
    wit.add_argument("--target-dim", type=int, required=True)
    add_common(wit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    budget = getattr(args, "budget", DEFAULT_ENUMERATION_BUDGET)  # git only
    if budget < 0:
        parser.error(f"argument --budget: must be nonnegative, got {budget}")
    config = ReportConfig(format=args.format, budget=budget)
    try:
        if args.command == "sing":
            report = cmd_sing(args.germ, config)
        elif args.command == "surface":
            report = cmd_surface(args.family, args.l, config)
        elif args.command == "git":
            report = cmd_git(args.weights, args.support, config, args.oracle_cap)
        elif args.command == "table":
            report = cmd_table(args.family, args.l_min, args.l_max, config)
        else:
            report = cmd_witness(args.family, args.target_dim, config)
    except (ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    print(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
