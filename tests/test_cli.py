"""Tests for the command-line interface: output content, formats, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kmoduli import cli
from kmoduli.cli import main


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
    code, _, err = run_cli(capsys, "git", "--weights", "1,2;3")
    assert code == 1
    assert "1,2;3,4" in err


def test_git_support_out_of_range(capsys):
    code, _, err = run_cli(
        capsys, "git", "--weights", "1,-1", "--support", "1,5"
    )
    assert code == 1
    assert "1..2" in err


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
