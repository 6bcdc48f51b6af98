"""Tests for the command-line interface: output content, formats, exit codes."""

import argparse
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from capped import SRC, run_capped

from kmoduli import cli, moduli, torusgit
from kmoduli.cli import main
from kmoduli.moduli import FAMILIES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ sing


def test_sing_table_report(capsys):
    code, out, _ = run_cli(capsys, "sing", "1/9(1,2)")
    assert code == 0
    assert "singularity 1/9(1,2)" in out
    assert "resolution chain:    [5, 2]" in out
    assert "discrepancies:       -2/3, -1/3" in out
    assert "log discrepancies:   1/3, 2/3" in out
    assert "gorenstein index:    3" in out
    assert "T-singularity (primitive)" in out
    assert "qdef dimension:      1" in out


@pytest.mark.parametrize(
    "argv,message",
    [
        (["sing", "1/1000000(1,999999)", "--format", "json"], "chain too long"),
        (["sing", "1/99999999999(1,99999999998)"], "chain too long"),
        # n/q = k + 1/k: one curve -(k + 1), then k - 1 curves -2
        (["sing", f"1/{100001**2 + 1}(1,100001)"], "chain too long"),
        (["surface", "--family", "X", "--l", "100001", "--format", "json"],
         "order too large"),
        (["surface", "--family", "Y", "--l", str(10**9 + 1)], "order too large"),
    ],
)
def test_over_limit_requests_are_refused(argv, message):
    proc = run_capped(["-m", "kmoduli.cli", *argv], timeout=2)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: {message}")
    assert "100000" in proc.stderr


def test_limits_are_inclusive(monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_CHAIN_CURVES", 5)
    monkeypatch.setattr(cli, "MAX_SURFACE_ORDER", 7)
    assert run_cli(capsys, "sing", "1/6(1,5)")[0] == 0
    assert run_cli(capsys, "sing", "1/7(1,6)", "--format", "json")[0] == 1
    assert run_cli(capsys, "sing", "1/101(1,1)")[0] == 0
    assert run_cli(capsys, "surface", "--family", "Y", "--l", "7")[0] == 0
    code, out, err = run_cli(capsys, "surface", "--family", "X", "--l", "8")
    assert (code, out) == (1, "")
    assert err.startswith("error: order too large") and "limit of 7" in err


def test_table_over_the_range_limit_is_refused():
    # 40,000 orders took 5.75 s and 127 MB before the limit
    proc = run_capped(
        ["-m", "kmoduli.cli", "table", "--family", "X", "--l-min", "2",
         "--l-max", "40001", "--format", "json"],
        timeout=2,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        "error: range too wide: table builds one model per order, and 2..40001 "
        "spans 40000 orders, above the table limit of 5000\n"
    )


def test_table_range_limit_is_inclusive_and_counts_from_2(monkeypatch, capsys):
    monkeypatch.setattr(moduli, "MAX_TABLE_SPAN", 7)

    def table(family, l_min, l_max):
        argv = ["table", "--family", family, "--l-min", l_min, "--l-max", l_max]
        return run_cli(capsys, *argv)

    assert table("X", "2", "8")[0] == 0
    assert table("X", "-50", "8")[0] == 0
    assert table("Y", "4", "10")[0] == 0
    code, out, err = table("Y", "3", "10")
    assert (code, out) == (1, "")
    assert err.startswith("error: range too wide") and "limit of 7" in err


def test_table_help_states_the_limit(capsys):
    with pytest.raises(SystemExit) as info:
        main(["table", "--help"])
    assert info.value.code == 0
    assert "span at most 5000 orders" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("command", ["sing", "surface"])
def test_help_states_the_limit(capsys, command):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    assert "at most 100000" in " ".join(capsys.readouterr().out.split())


def test_sing_smooth_point(capsys):
    code, out, _ = run_cli(capsys, "sing", "1/1(0,0)")
    assert code == 0
    assert "smooth point" in out
    assert "qdef dimension:      0" in out


def test_sing_rigid_example(capsys):
    code, out, _ = run_cli(capsys, "sing", "1/15(1,2)")
    assert code == 0
    assert "w = 3, r = 5, m = 0" in out
    assert "qG-rigid" in out
    assert "qdef dimension:      0" in out


def test_sing_parse_error(capsys):
    code, _, err = run_cli(capsys, "sing", "garbage")
    assert code == 1
    assert "1/n(a,b)" in err


def test_sing_non_isolated_error_names_gcd(capsys):
    code, _, err = run_cli(capsys, "sing", "1/4(1,2)")
    assert code == 1
    assert "gcd" in err


@pytest.mark.parametrize(
    "germ, message",
    [
        ("1/0(1,1)", "order must be a positive integer, got 0"),
        ("1/6(2,1)", "1/6(2,1): gcd(n, weight_a) = 2 != 1, an axis is fixed pointwise"),
        ("1/9(3,1)", "1/9(3,1): gcd(n, weight_a) = 3 != 1, an axis is fixed pointwise"),
        ("1/4(1,2)", "1/4(1,2): gcd(n, weight_b) = 2 != 1, an axis is fixed pointwise"),
        ("1/7(0,1)", "1/7(0,1): gcd(n, weight_a) = 7 != 1, an axis is fixed pointwise"),
    ],
)
def test_sing_refused_germ_exact_stderr(capsys, germ, message):
    assert run_cli(capsys, "sing", germ) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "germ, normal_form",
    [
        ("1/5(-1,3)", {"order": 5, "q": 2}),
        (" 1/9( 1 , 2 ) ", {"order": 9, "q": 2}),
        ("1/1(0,0)", {"order": 1, "q": None}),
    ],
)
def test_sing_json_normal_form_and_input(capsys, germ, normal_form):
    code, out, err = run_cli(capsys, "sing", germ, "--format", "json")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["normal_form"] == normal_form
    assert data["input"] == germ.strip()


def test_sing_json(capsys):
    code, out, _ = run_cli(capsys, "sing", "1/9(1,2)", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["normal_form"] == {"order": 9, "q": 2}
    assert data["discrepancies"] == [
        {"num": -2, "den": 3},
        {"num": -1, "den": 3},
    ]
    assert data["log_discrepancies"] == [
        {"num": 1, "den": 3},
        {"num": 2, "den": 3},
    ]
    assert data["classification"]["qdef_dim"] == 1
    assert data["resolution_chain"] == [5, 2]


def test_sing_json_smooth(capsys):
    code, out, _ = run_cli(capsys, "sing", "1/1(0,0)", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["resolution_chain"] == []
    assert data["display"] == "smooth"


def sing_forms(n_max):
    return [(n, q) for n in range(2, n_max) for q in range(1, n) if gcd(n, q) == 1]


def rational(data) -> Fraction:
    # a JSON rational is exactly a {"num", "den"} object
    assert set(data) == {"num", "den"}, data
    return Fraction(data["num"], data["den"])


@pytest.mark.parametrize("forms", [sing_forms(200), [(3000, 2999)]], ids=["n<200", "A_2999"])
def test_sing_report_shifts_each_discrepancy_by_one(forms):
    # the report negates the chain for the self-intersections and shifts
    # each discrepancy by one for the log discrepancies
    for n, q in forms:
        data = json.loads(cli.cmd_sing(f"1/{n}(1,{q})", "json"))
        chain = data["resolution_chain"]
        assert data["self_intersections"] == [-b for b in chain], (n, q)
        discs = [rational(a) for a in data["discrepancies"]]
        logs = [rational(a) for a in data["log_discrepancies"]]
        assert logs == [1 + a for a in discs], (n, q)
        if q == 1:  # a single curve -n of log discrepancy 2/n
            assert (chain, logs) == ([n], [Fraction(2, n)]), n


def test_sing_number_past_the_digit_limit_is_a_parse_error(capsys):
    # int() refuses a decimal string longer than the interpreter's limit
    # (sys.get_int_max_str_digits, 0 where there is none); the germ is
    # then refused as unparsable, and parses where there is no limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    germ = f"1/{'1' * ((limit or 4300) + 1)}(1,2)"
    code, out, err = run_cli(capsys, "sing", germ)
    if limit:
        assert (code, out) == (1, "")
        assert err == (
            f"error: cannot parse singularity {germ!r}: a number has more "
            "digits than this interpreter converts\n"
        )
    else:
        assert (code, err) == (0, "")


# --------------------------------------------------------------- surface


def test_surface_y5(capsys):
    code, out, _ = run_cli(capsys, "surface", "--family", "Y", "--l", "5")
    assert code == 0
    assert "stack dimension:     2" in out
    assert "isolated:            true" in out
    assert "A_4" in out and "1/5(1,2)" in out


def test_surface_x2(capsys):
    code, out, _ = run_cli(capsys, "surface", "--family", "X", "--l", "2")
    assert code == 0
    assert "coarse dimension:    2" in out


def test_surface_even_y_is_an_error(capsys):
    code, _, err = run_cli(capsys, "surface", "--family", "Y", "--l", "4")
    assert code == 1
    assert "even order" in err
    assert "z2 = 0" in err


def test_surface_lowercase_family(capsys):
    code, out, _ = run_cli(capsys, "surface", "--family", "y", "--l", "5")
    assert code == 0
    assert "surface Y_5" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["surface", "--l", "5"],
        ["table", "--l-min", "2", "--l-max", "3"],
        ["witness", "--target-dim", "3"],
    ],
)
def test_family_choices_are_the_moduli_families(capsys, argv):
    # the refusal a bare parser with choices=FAMILIES writes on this
    # interpreter: argparse quotes each choice before Python 3.13 and
    # not from 3.13 on
    bare = argparse.ArgumentParser()
    bare.add_argument("--family", choices=FAMILIES)
    with pytest.raises(SystemExit):
        bare.parse_args(["--family", "Z"])
    refusal = capsys.readouterr().err.strip().rpartition("argument --family: ")[2]
    assert refusal.startswith("invalid choice: 'Z' (choose from ")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--family", "Z"])
    assert exc.value.code == 2
    assert refusal in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,abbreviated",
    [
        (["witness", "--family", "Y", "--target-dim", "50"], "--target"),
        (["surface", "--family", "X", "--l", "5", "--format", "json"], "--form"),
        (["table", "--family", "X", "--l-min", "2", "--l-max", "3"], "--fam"),
        (["git", "--weights=1,-1", "--support", "1"], "--supp"),
        (["sing", "1/5(1,2)", "--format", "json"], "--form"),
    ],
)
def test_options_are_matched_by_their_full_names_only(capsys, argv, abbreviated):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out
    # the one option that the abbreviation is a prefix of
    full = next(a for a in argv if a.startswith(abbreviated))
    with pytest.raises(SystemExit) as exc:
        main([abbreviated if a == full else a for a in argv])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_parser_families_are_the_moduli_families():
    # the parser holds its own copy, so that building it loads no layer
    assert cli.FAMILIES == FAMILIES


def test_parser_table_limit_is_the_moduli_limit():
    # the copy only --l-max's help states; moduli.table checks the limit
    assert cli.MAX_TABLE_SPAN == moduli.MAX_TABLE_SPAN


def test_surface_json_is_byte_stable(capsys):
    code, first, _ = run_cli(
        capsys, "surface", "--family", "Y", "--l", "9", "--format", "json"
    )
    assert code == 0
    code, second, _ = run_cli(
        capsys, "surface", "--family", "Y", "--l", "9", "--format", "json"
    )
    assert code == 0
    assert first == second
    data = json.loads(first)
    assert set(data) == {"model", "surface", "qdef"}
    assert data["model"]["stack_dim"] == 8
    assert data["qdef"]["total_dim"] == 10


def test_surface_derived_value_note(capsys):
    _, out, _ = run_cli(capsys, "surface", "--family", "Y", "--l", "3")
    assert "derived value" in out


# ------------------------------------------------------------------- git


def test_git_one_signed_row(capsys):
    code, out, _ = run_cli(capsys, "git", "--weights", "5,4,3,2")
    assert code == 0
    assert "quotient dimension:  0" in out
    assert "only the origin is polystable" in out


def test_git_full_support_polystable(capsys):
    code, out, _ = run_cli(
        capsys,
        "git",
        "--weights", "5,4,3,2,-5,-4,-3,-2",
        "--support", "1,2,3,4,5,6,7,8",
    )
    assert code == 0
    assert "quotient dimension:  7" in out
    assert "support {1,2,3,4,5,6,7,8}: polystable" in out


def test_git_destabilized_support(capsys):
    code, out, _ = run_cli(
        capsys, "git", "--weights", "5,4,3,2", "--support", "1,2"
    )
    assert code == 0
    assert "not polystable" in out
    assert "destabilizing 1-PS" in out
    assert "limit support:       origin" in out


def test_git_zero_weights(capsys):
    code, out, _ = run_cli(capsys, "git", "--weights", "0,0")
    assert code == 0
    assert "quotient dimension:  2" in out


def test_git_json_with_support(capsys):
    code, out, _ = run_cli(
        capsys,
        "git",
        "--weights", "[[5,4,3,2]]",
        "--support", "1,3",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["quotient_dim"] == 0
    assert data["support_analysis"]["polystable"] is False
    dest = data["support_analysis"]["destabilizer"]
    assert dest["limit_support"] == []
    lam = dest["lambda"]
    assert len(lam) == 1 and lam[0] > 0


def test_git_oracle_cap(capsys):
    code, out, _ = run_cli(
        capsys, "git", "--weights", "1,-1", "--oracle-cap", "3"
    )
    assert code == 0
    assert "invariant monomials up to degree 3: 2" in out
    assert "exponent lattice rank 1" in out


def test_git_budget_exhaustion(capsys):
    code, _, err = run_cli(
        capsys,
        "git",
        "--weights", "1,0,-1;0,1,-1",
        "--oracle-cap", "1000",
        "--budget", "10",
    )
    assert code == 1
    assert "budget" in err


def test_git_budget_defaults_to_the_library_budget(monkeypatch, capsys):
    budgets = []
    enumerate_ = torusgit.invariant_monomials

    def recording(ws, cap, budget):
        budgets.append(budget)
        return enumerate_(ws, cap, budget=budget)

    monkeypatch.setattr(torusgit, "invariant_monomials", recording)
    assert run_cli(capsys, "git", "--weights", "1,-1", "--oracle-cap", "2")[0] == 0
    assert run_cli(capsys, "git", "--weights", "1,-1", "--oracle-cap", "2", "--budget", "7")[0] == 0
    assert budgets == [torusgit.DEFAULT_ENUMERATION_BUDGET, 7]


def test_git_negative_budget_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["git", "--weights", "1,-1", "--oracle-cap", "2", "--budget", "-5"])
    assert info.value.code == 2
    assert "--budget: must be nonnegative" in capsys.readouterr().err


def test_git_oracle_on_many_coordinates(capsys):
    weights = ",".join(["1,-1"] * 600)
    code, out, err = run_cli(capsys, "git", f"--weights={weights}", "--oracle-cap", "1")
    assert (code, err) == (0, "")
    assert "invariant monomials up to degree 1: 1 (exponent lattice rank 0)" in out


def test_git_oracle_output_is_within_the_budget(capsys):
    # the 721,801 candidate monomials pass the budget, but keeping the
    # 360,001 invariants of 1,200 exponents each does not
    weights = ",".join(["1,-1"] * 600)
    code, out, err = run_cli(capsys, "git", f"--weights={weights}", "--oracle-cap", "2")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "budget" in err


FM_BLOWUP_WEIGHTS = (
    "-1,-3,-5,3,-5,4,-2,4,2,-3;4,3,-5,1,-2,0,-4,-2,4,5;1,4,-2,2,-4,5,1,-1,3,2;"
    "-5,0,4,1,-1,-5,-3,-2,0,4;-3,0,1,-2,-1,5,-4,1,3,0"
)


def test_git_5x10_system_answers_within_a_second(capsys):
    # Fourier-Motzkin elimination ran 62 s on this system, then ran out of memory
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "git", f"--weights={FM_BLOWUP_WEIGHTS}",
        "--support", ",".join(map(str, range(1, 11))), "--format", "json",
    )
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["quotient_dim"] == 5
    assert data["support_analysis"] == {"support": list(range(1, 11)), "polystable": True}
    assert elapsed < 1.0


def test_git_thin_cone_destabilizer_within_five_seconds(capsys):
    # the whole-box search took 47 s here
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "git", "--weights=1,-1;200,-199", "--support", "1,2", "--format", "json"
    )
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    dest = json.loads(out)["support_analysis"]["destabilizer"]
    assert dest == {"lambda": [-199, 1], "limit_support": [2]}
    assert elapsed < 5.0


# lex-min destabilizers in boxes of millions of points: scanning them
# took 2.2 s (k4_125) and 13 s (the 5 x 10 system), and grew as N^2 on
# the thin cone
DESTABILIZER_REPROS = [
    (
        "-3,3,-4,-5,4,2,-5;1,-3,2,-4,0,-4,5;4,3,-3,-2,1,2,-3;-2,5,-2,-2,2,3,-2",
        "1,3,4,5,6,7",
        [-10, 2, 2, 19],
    ),
    (
        "-4,4,0,-3,1,-5,-3,-4,-1,4;3,4,4,-3,1,-2,0,4,-4,5;"
        "0,-4,-5,2,-3,3,-4,0,-2,2;5,1,-2,4,2,-4,-5,-2,5,-3;"
        "-4,-4,0,-3,0,4,-4,4,2,0",
        ",".join(map(str, range(1, 11))),
        [-10, 13, -3, 6, 3],
    ),
    ("1,-1;100000,-99999", "1,2", [-99999, 1]),
]


@pytest.mark.parametrize(
    "weights,support,lam", DESTABILIZER_REPROS, ids=["k4_125", "5x10", "thin_cone"]
)
def test_git_destabilizer_repros_within_two_seconds(weights, support, lam):
    proc = run_capped(
        ["-m", "kmoduli.cli", "git", f"--weights={weights}", "--support", support,
         "--format", "json"],
        timeout=2,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["support_analysis"]["destabilizer"]["lambda"] == lam


def test_git_destabilizer_search_past_the_budget_exits_1_within_two_seconds():
    # rank 4, lex-min (29, 79, 33, 14): interval bounds alone visit far
    # more than 100,000 nodes on the way to box 79
    weights = "-6,4,-5,6,2,3,6;-1,-1,5,-1,3,1,3;6,1,-5,-5,-2,1,5;4,-5,-6,5,5,-2,4"
    proc = run_capped(
        ["-m", "kmoduli.cli", "git", f"--weights={weights}", "--support",
         "1,2,3,4,5,6,7", "--budget", "100000"],
        timeout=2,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ")
    assert "support [1, 2, 3, 4, 5, 6, 7]" in proc.stderr
    assert "budget of 100000" in proc.stderr


def test_git_rank_1000_destabilizer_within_two_seconds():
    # the search keeps its path on a stack, one level per torus
    # coordinate, so a rank past the interpreter's recursion limit answers
    proc = run_capped(
        ["-m", "kmoduli.cli", "git", f"--weights={';'.join(['1,1'] * 1000)}",
         "--support", "1", "--format", "json"],
        timeout=2,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    lam = json.loads(proc.stdout)["support_analysis"]["destabilizer"]["lambda"]
    assert lam == [-1] * 499 + [0] + [1] * 500


def test_git_rank_5000_destabilizer_search_exits_1_on_the_budget_within_two_seconds():
    # the search goes 5,000 levels deep within its first 5,000 nodes and
    # backtracks past the budget: a named error, not a RecursionError. The
    # default budget of 10**6 nodes ends the same way after 1.2-1.5 s, too
    # near the cap on a busy host, so the test passes a quarter of it
    proc = run_capped(
        ["-m", "kmoduli.cli", "git", f"--weights={';'.join(['1,1'] * 5000)}",
         "--support", "1", "--budget", "250000"],
        timeout=2,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        "error: searching for a destabilizer of support [1] visits more than "
        "the budget of 250000 search nodes\n"
    )


@pytest.mark.parametrize("command", [
    ["sing", "1/5(1,2)"],
    ["surface", "--family", "X", "--l", "3"],
    ["table", "--family", "X", "--l-min", "2", "--l-max", "3"],
    ["witness", "--family", "X", "--target-dim", "5"],
])
def test_budget_is_a_git_option_only(capsys, command):
    with pytest.raises(SystemExit) as info:
        main([*command, "--budget", "5"])
    assert info.value.code == 2
    assert "unrecognized arguments: --budget 5" in capsys.readouterr().err


def test_memory_error_is_reported_not_raised(capsys, monkeypatch):
    def exhaust(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_git", exhaust)
    code, out, err = run_cli(capsys, "git", "--weights", "1,-1")
    assert code == 1
    assert out == ""
    assert err == "error: out of memory\n"


def test_git_weights_starting_with_minus(capsys):
    code, out, _ = run_cli(capsys, "git", "--weights=-1,2", "--support", "1,2")
    assert code == 0
    assert "support {1,2}: polystable" in out


def test_git_malformed_weights(capsys):
    # JSON floats and strings are not truncated or split into digits, and
    # JSON booleans are not read as 1 and 0
    for weights in (
        "1,2;3", "[[1.7,-2.9]]", '["12"]', "[[true,false]]", "[true,false]", "[[1,true]]",
        "[[1.5]]", "[true]", "[[1],[2,3]]", "[5,[1]]",
    ):
        code, out, err = run_cli(capsys, "git", "--weights", weights)
        assert code == 1, weights
        assert out == "", weights
        assert "cannot parse weight matrix" in err, weights
        assert "1,2;3,4" in err


@pytest.mark.parametrize(
    "weights,problem",
    [
        # a flat JSON array is one row, whatever its first entry: the
        # message names the entry that is not an integer
        ("[1.5,2]", "weights must be integers, not float: 1.5"),
        ("[null]", "weights must be integers, not NoneType: None"),
        ('["a",1]', "weights must be integers, not str: 'a'"),
        ("[true,1]", "weights must be integers, not bool: True"),
        ("[]", "weight matrix must be nonempty"),
        ("[[1,2],3]", "'int' object is not iterable"),
    ],
)
def test_git_json_weights_name_the_bad_entry(capsys, weights, problem):
    code, out, err = run_cli(capsys, "git", f"--weights={weights}")
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot parse weight matrix {weights!r}: {problem}; ")


def test_git_json_nested_past_the_recursion_limit_is_a_parse_error(capsys):
    weights = "[" * 5000 + "]" * 5000
    code, out, err = run_cli(capsys, "git", f"--weights={weights}")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot parse weight matrix {weights!r}: ")
    assert err.endswith('; expected rows like "1,2;3,4" or JSON like "[[1,2],[3,4]]"\n')


def test_git_support_out_of_range(capsys):
    # the library's messages: SupportPoint refuses an index below 1, the
    # query one past the system's coordinates
    for support, message in (
        ("1,5", "support [1, 5] exceeds 2 coordinates"),
        ("0,1", "support must hold 1-based indices: [0, 1]"),
    ):
        code, out, err = run_cli(
            capsys, "git", "--weights", "1,-1", "--support", support
        )
        assert (code, out, err) == (1, "", f"error: {message}\n")
    code, _, err = run_cli(capsys, "git", "--weights", "1,-1", "--support", "a,b")
    assert code == 1
    assert "cannot parse support 'a,b'" in err


# ----------------------------------------------------------------- table


def test_table_x_text_and_json_agree(capsys):
    code, text, _ = run_cli(capsys, "table", "--family", "X", "--l-min", "2", "--l-max", "8")
    assert code == 0
    code, blob, _ = run_cli(
        capsys, "table", "--family", "X", "--l-min", "2", "--l-max", "8",
        "--format", "json",
    )
    assert code == 0
    rows = json.loads(blob)["rows"]
    assert [r["coarse_dim"] for r in rows] == [2, 3, 6, 7, 9, 11, 13]
    lines = [ln for ln in text.splitlines() if ln.startswith("X_")]
    assert len(lines) == len(rows)
    for line, row in zip(lines, rows):
        cells = line.split()
        assert cells[0] == f"X_{row['surface_id']['l']}"
        assert int(cells[1]) == row["qdef_dim"]
        assert int(cells[3]) == row["stack_dim"]
        assert int(cells[4]) == row["coarse_dim"]
        volume = row["volume"]
        expected = (
            str(volume["num"])
            if volume["den"] == 1
            else f"{volume['num']}/{volume['den']}"
        )
        assert cells[7] == expected


def test_table_y_stack_dims(capsys):
    code, blob, _ = run_cli(
        capsys, "table", "--family", "Y", "--l-min", "3", "--l-max", "9",
        "--format", "json",
    )
    assert code == 0
    rows = json.loads(blob)["rows"]
    assert [r["stack_dim"] for r in rows] == [4, 2, 4, 8]


def test_table_empty_range(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "X", "--l-min", "9", "--l-max", "8")
    assert code == 0
    assert "no rows" in out
    code, blob, _ = run_cli(
        capsys, "table", "--family", "X", "--l-min", "9", "--l-max", "8",
        "--format", "json",
    )
    assert json.loads(blob)["rows"] == []


def test_table_derived_value_note(capsys):
    _, out, _ = run_cli(capsys, "table", "--family", "Y", "--l-min", "3", "--l-max", "9")
    assert "derived values" in out
    _, out, _ = run_cli(capsys, "table", "--family", "Y", "--l-min", "5", "--l-max", "7")
    assert "derived values" not in out


def test_table_rationals_never_decimal(capsys):
    _, out, _ = run_cli(capsys, "table", "--family", "X", "--l-min", "2", "--l-max", "8")
    assert "." not in out.replace("min_disc", "")


# --------------------------------------------------------------- witness


def test_witness_x(capsys):
    code, out, _ = run_cli(capsys, "witness", "--family", "X", "--target-dim", "100")
    assert code == 0
    assert "l = 52" in out
    assert "coarse" in out


def test_witness_y_json(capsys):
    code, blob, _ = run_cli(
        capsys, "witness", "--family", "Y", "--target-dim", "10", "--format", "json"
    )
    assert code == 0
    data = json.loads(blob)
    assert data == {
        "family": "Y",
        "target_dim": 10,
        "l": 13,
        "dimension_kind": "stack",
        "achieved_dim": 10,
    }


def test_witness_negative_target(capsys):
    code, _, err = run_cli(capsys, "witness", "--family", "X", "--target-dim", "-1")
    assert code == 1
    assert "nonnegative" in err


# ----------------------------------------------------------- entry point


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["table", "--family", "X"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


def test_module_entry_point_subprocess():
    # the child finds the package where this process imported it from
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [
            sys.executable, "-m", "kmoduli.cli",
            "table", "--family", "Y", "--l-min", "5", "--l-max", "9",
            "--format", "json",
        ],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    rows = json.loads(proc.stdout)["rows"]
    assert [r["stack_dim"] for r in rows] == [2, 4, 8]


def test_closed_stdout_exits_1_without_a_traceback():
    # a reader that leaves after 300 bytes, like `| head -c 300`, of a
    # report of several megabytes
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    read_end, write_end = os.pipe()
    proc = subprocess.Popen(
        [sys.executable, "-m", "kmoduli.cli", "sing", "1/20001(1,20000)", "--format", "json"],
        stdout=write_end,
        stderr=subprocess.PIPE,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    os.close(write_end)
    with os.fdopen(read_end, "rb") as reader:
        head = reader.read(300)
    _, err = proc.communicate(timeout=30)
    assert head.startswith(b"{")
    assert proc.returncode == 1
    assert err == ""
