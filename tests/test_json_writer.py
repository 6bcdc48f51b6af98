"""The CLI's JSON writer writes exactly what json.dumps(indent=2) writes,
with each Fraction in place of its {"num", "den"} object."""

import enum
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from capped import run_capped

from kmoduli import cli
from kmoduli.cli import _dumps, main

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text()
)
CLI_REQUESTS = [
    entry for group in GOLDEN["cli"].values() for entry in group["entries"]
]

STRINGS = [
    "", "plain", "é", "naïve ☃", "tab\tnew\nline", 'quote"back\\slash',
    "\x00\x1f\x7f", "  ", "𝔛_l", "</script>",
]
KEYS = [*STRINGS, 7, -3, 2.5, True, None]
INTS = [0, 1, -1, 2**63, -(10**40), 10**100]


class Level(enum.IntEnum):
    LOW = 1


class Text(str):
    """A str subclass: the writer sends it to the C encoder, not its own
    exact-str path."""

    def __str__(self):
        return "not this"


def as_json(data):
    """data with every Fraction replaced by its {"num", "den"} object."""
    if isinstance(data, Fraction):
        return {"num": data.numerator, "den": data.denominator}
    if isinstance(data, dict):
        return {k: as_json(v) for k, v in data.items()}
    if isinstance(data, (list, tuple)):
        return type(data)(as_json(x) for x in data)
    return data


def random_scalar(rng):
    return rng.choice([
        rng.randint(-10**6, 10**6),
        rng.choice(INTS),
        rng.choice([True, False, None]),
        rng.choice(STRINGS),
        rng.choice([0.1, -2.5e-300, 1e16, 0.0]),
        Fraction(rng.randint(-50, 50), rng.randint(1, 50)),
    ])


def random_value(rng, depth):
    kind = rng.randrange(10) if depth else 0
    seq = rng.choice([list, tuple])
    size = rng.randrange(6)
    if kind <= 2:
        return random_scalar(rng)
    if kind == 3:  # ints, the fast path
        return seq(rng.choice([rng.randint(-99, 99), rng.choice(INTS)]) for _ in range(size))
    if kind == 4:  # Fractions, the fast path
        return seq(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(size))
    if kind in (5, 6):  # int rows, of equal length or not
        width = rng.randrange(4)
        return seq(
            rng.choice([list, tuple])(
                rng.randint(-9, 9) for _ in range(width if kind == 5 else rng.randrange(4))
            )
            for _ in range(size)
        )
    if kind == 7:  # ints mixed with bools or a Fraction: no fast path
        return seq(
            [rng.randint(-9, 9) for _ in range(size)]
            + [rng.choice([True, False, Fraction(1, 3), 2.0])]
        )
    if kind == 8:
        return {rng.choice(KEYS): random_value(rng, depth - 1) for _ in range(size)}
    return seq(random_value(rng, depth - 1) for _ in range(size))


def test_random_payloads_match_json_dumps():
    rng = random.Random(20211)
    for _ in range(2000):
        payload = random_value(rng, 4)
        assert _dumps(payload) == json.dumps(as_json(payload), indent=2), payload


@pytest.mark.parametrize("payload", [
    [1, True], [True, False], [[1, 2], [True, 0]], [[], []], [[1], [2, 3]],
    {}, [], (), [{}], {"a": ()}, Fraction(-3, 4), [Fraction(5)], {1: 2, None: 3},
    [Level.LOW, 2], Level.LOW, {Text("k\u00e9y"): 1}, {"a": Text("v\"al")}, [Text("x")],
    ((5, 4, 3), (-5, -4, -3)), [{"point": 1}, ()],
])
def test_edge_payloads_match_json_dumps(payload):
    assert _dumps(payload) == json.dumps(as_json(payload), indent=2)


def test_writer_refuses_what_json_refuses():
    for payload in ([object()], {"a": {1, 2}}, [[1, 2], [3, b"4"]]):
        with pytest.raises(TypeError):
            _dumps(payload)


@pytest.mark.parametrize("request_", CLI_REQUESTS, ids=lambda r: r["id"])
def test_golden_payloads_match_json_dumps(request_, monkeypatch, capsys):
    written = []

    def recording(data):
        written.append((data, _dumps(data)))
        return written[-1][1]

    monkeypatch.setattr(cli, "_dumps", recording)
    main(request_["argv"])
    json_requested = request_["argv"][-2:] == ["--format", "json"]
    assert len(written) == (json_requested and "error" not in capsys.readouterr().err)
    for data, text in written:
        assert text == json.dumps(as_json(data), indent=2)


@pytest.mark.parametrize("argv", [
    ["sing", "1/100001(1,100000)"],
    ["surface", "--family", "X", "--l", "100000"],
])
def test_at_limit_reports_match_json_dumps(argv):
    # the timeout only catches a hang; the cap catches a runaway allocation
    proc = run_capped(["-m", "kmoduli.cli", *argv, "--format", "json"], timeout=10)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert proc.stdout == json.dumps(data, indent=2) + "\n"
    if argv[0] == "sing":
        assert data["discrepancies"] == [{"num": 0, "den": 1}] * 100000
        assert data["log_discrepancies"] == [{"num": 1, "den": 1}] * 100000
    else:
        assert len(data["qdef"]["weight_matrix"][0]) == data["qdef"]["total_dim"]
