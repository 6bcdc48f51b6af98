"""Replay every digest of the recorded golden corpus against the library.

perfbench/golden.json holds the digest of every CLI request of the
benchmark pool (over [exit status, stdout]), of every local model of
table X 2..400, table Y 3..401 and the two witnesses at 10000, and of
every regular torusgit query of the git pool (over the query's JSON
value). Each is rebuilt in-process, with the standard library only, and
compared; the file itself is only read. The git pool's known failures,
the queries that ran out of time or memory when it was recorded, have no
digest and are skipped.

Usage: python tools/golden_replay.py [golden.json]

The default corpus is perfbench/golden.json of this checkout, and the
package is imported from its src/. Prints the Python version, then the
replayed and the mismatched count of each part (cli, sweep, git) and
each mismatch; the exit status is 1 if any digest differs, else 0.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "perfbench" / "golden.json"

if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

from kmoduli import torusgit  # noqa: E402
from kmoduli.cli import main as cli_main  # noqa: E402
from kmoduli.moduli import table, witness_model  # noqa: E402
from kmoduli.torusgit import SupportPoint  # noqa: E402


def load(path: Path = GOLDEN) -> dict:
    return json.loads(Path(path).read_text())


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def cli_requests(golden: dict) -> list:
    """Every recorded CLI request: {"id", "argv", "digest"} and the rest."""
    return [entry for group in golden["cli"].values() for entry in group["entries"]]


def git_ops(golden: dict) -> list:
    """(rows, op) of every recorded query of the git pool, known failures
    included."""
    return [
        (system["rows"], op)
        for group in golden["git"].values()
        for system in group["entries"]
        for op in system["ops"]
    ]


def _limit_json(result):
    if result is None:
        return None
    lam, limit = result
    return {"lambda": list(lam), "limit": limit.to_json_dict()}


def _certificate_json(result):
    return None if result is None else [[x.numerator, x.denominator] for x in result]


# query -> the JSON value of its answer, in the form the digests were taken of
GIT_QUERIES = {
    "quotient_dim": lambda ws, arg: torusgit.quotient_dim(ws),
    "kernel_rank": lambda ws, arg: torusgit.kernel_rank(ws),
    "largest_polystable_support": (
        lambda ws, arg: torusgit.largest_polystable_support(ws).to_json_dict()
    ),
    "is_polystable": lambda ws, arg: torusgit.is_polystable(ws, SupportPoint.of(arg)),
    "destabilizing_limit": (
        lambda ws, arg: _limit_json(torusgit.destabilizing_limit(ws, SupportPoint.of(arg)))
    ),
    "open_half_space_certificate": (
        lambda ws, arg: _certificate_json(torusgit.open_half_space_certificate(ws))
    ),
    "in_rational_cone": lambda ws, arg: torusgit.in_rational_cone(arg, ws.columns),
}


def cli_digest(argv: list) -> str:
    """The digest of [exit status, stdout] of one in-process CLI request;
    stderr is discarded."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = cli_main(argv)
    return digest([rc, out.getvalue()])


def sweep_digests(golden: dict) -> dict:
    """Surface id -> digest of the model, for each model of the sweep:
    table X 2..400, table Y 3..401 and the witness of each recorded
    target. A witness at another order than the recorded one shows as an
    id the corpus does not hold."""
    models = table("X", 2, 400) + table("Y", 3, 401)
    for key in golden["sweep"]["witnesses"]:
        family, target_dim = key.split(":")
        models.append(witness_model(family, int(target_dim)))
    return {m.surface_id: digest(m.to_json_dict()) for m in models}


def git_digest(rows: list, op: dict) -> str:
    """The digest of the JSON value of one regular query of the git pool."""
    ws = torusgit.WeightSystem.from_rows(rows)
    return digest(GIT_QUERIES[op["query"]](ws, op["arg"]))


def replay(golden: dict) -> dict:
    """Part -> (replayed count, descriptions of the mismatches)."""
    requests = cli_requests(golden)
    cli = [r["id"] for r in requests if cli_digest(r["argv"]) != r["digest"]]
    got, want = sweep_digests(golden), golden["sweep"]["ops"]
    sweep = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
    regular = [(rows, op) for rows, op in git_ops(golden) if not op["known_failure"]]
    git = [
        f"{op['query']} {rows}"
        for rows, op in regular
        if git_digest(rows, op) != op["digest"]
    ]
    return {
        "cli": (len(requests), cli),
        "sweep": (len(want), sweep),
        "git": (len(regular), git),
    }


def main(argv: list) -> int:
    golden = load(argv[0]) if argv else load()
    print(f"python {sys.version.split()[0]}")
    failed = False
    for part, (replayed, mismatches) in replay(golden).items():
        print(f"{part}  {replayed} replayed  {len(mismatches)} mismatched")
        for mismatch in mismatches:
            print(f"  {mismatch}")
        failed = failed or bool(mismatches)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
