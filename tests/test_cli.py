import json

import pytest

from quatorder.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_text(capsys):
    code, out, err = run(capsys, "construct", "--delta", "35", "--level", "3")
    assert code == 0
    assert err == ""
    assert "delta=35 level=3 p=13 a=5" in out
    assert "basis: 1, (1+j)/2, (i+k)/2, (525j+k)/13" in out


def test_construct_json(capsys):
    code, out, _ = run(capsys, "construct", "--delta", "35", "--level", "3", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["p"] == 13
    assert blob["a"] == 5
    assert blob["e4"] == "(525j+k)/13"
    assert blob["basis"] == ["1", "(1+j)/2", "(i+k)/2", "(525j+k)/13"]


def test_json_deterministic(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(
            capsys, "psi", "--delta", "35", "--src", "3", "--dst", "17", "--json"
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    blob = json.loads(outs[0])
    assert blob["psi"]["beta"] == "8/17"


def test_split_text(capsys):
    code, out, _ = run(
        capsys, "split", "--delta", "35", "--level", "3", "--place", "11"
    )
    assert code == 0
    assert "case: unramified_nonsquare" in out
    assert "all pass" in out


def test_split_place_tokens(capsys):
    code, out, _ = run(capsys, "split", "--delta", "35", "--level", "3", "--place", "p")
    assert code == 0
    assert "case: at_p" in out
    code, out, _ = run(capsys, "split", "--delta", "35", "--level", "3", "--place", "inf")
    assert code == 0
    assert "case: archimedean" in out


def test_degeneracy_command(capsys):
    code, out, _ = run(
        capsys, "degeneracy", "--delta", "35", "--level", "3", "--q", "11", "--json"
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["degeneracy"]["case"] == "nonsquare"
    assert blob["degeneracy"]["det_f"] == "11"
    assert blob["verification"]["all_pass"] is True


def test_psi_inclusion_output(capsys):
    code, out, _ = run(capsys, "psi", "--delta", "35", "--src", "9", "--dst", "3")
    assert code == 0
    assert "beta = -4" in out
    assert "inclusion formulas" in out
    assert "all pass" in out


def test_chain_command(capsys):
    code, out, _ = run(
        capsys, "chain", "--delta", "35", "--q", "19", "--depths", "6,8"
    )
    assert code == 0
    assert "case=aux" in out
    assert "aux_level=3" in out
    assert "basis: 1, -525-i" in out


def test_chain_family(capsys):
    code, out, _ = run(
        capsys,
        "chain", "--delta", "35", "--q", "3",
        "--depths", "4,6", "--family", "3,11,13,19",
    )
    assert code == 0
    assert "family.global.trivial" in out


def test_verify_small_grid(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--deltas", "35", "--levels", "1,3",
        "--places", "3,11,p", "--sections", "split,degeneracy",
    )
    assert code == 0
    assert "split.coverage" in out
    assert "all pass" in out


def test_verify_injected_fault_fails(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--deltas", "35", "--levels", "3", "--places", "13",
        "--sections", "split", "--inject-at-p-sign-flip",
    )
    assert code == 1
    assert "split.delta35.level3.q13.at_p.root_divisibility" in out


def test_invalid_parameters_exit_two(capsys):
    code, _, err = run(capsys, "construct", "--delta", "12")
    assert code == 2
    assert "error:" in err


def test_unsupported_case_exit_three(capsys):
    code, _, err = run(capsys, "chain", "--delta", "1", "--q", "5")
    assert code == 3
    assert "rank 3" in err

    code, _, err = run(capsys, "degeneracy", "--delta", "35", "--level", "3", "--q", "5")
    assert code == 3
    assert "discriminant" in err

    code, _, err = run(
        capsys, "psi", "--delta", "35", "--src", "3", "--dst", "17", "--w-bound", "2"
    )
    assert code == 3
    assert "no rational point" in err


def test_env_precision_too_small_exit_four(capsys, monkeypatch):
    monkeypatch.setenv("QUATORDER_PRECISION", "7")
    code, _, err = run(capsys, "degeneracy", "--delta", "35", "--level", "3", "--q", "11")
    assert code == 4
    assert "precision" in err


def test_env_precision_garbage_exit_two(capsys, monkeypatch):
    monkeypatch.setenv("QUATORDER_PRECISION", "abc")
    code, _, err = run(capsys, "split", "--delta", "35", "--level", "3", "--place", "11")
    assert code == 2
    assert "QUATORDER_PRECISION" in err


def test_precision_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("QUATORDER_PRECISION", "7")
    code, _, _ = run(
        capsys,
        "degeneracy", "--delta", "35", "--level", "3", "--q", "11",
        "--precision", "20",
    )
    assert code == 0


def test_unknown_section_exit_two(capsys):
    code, _, err = run(capsys, "verify", "--sections", "nonsense")
    assert code == 2
    assert "unknown section" in err


@pytest.mark.parametrize("depths", ["", "0,8", "-2"])
def test_chain_bad_depths_exit_two(capsys, depths):
    code, out, err = run(capsys, "chain", "--delta", "35", "--q", "19", "--depths", depths)
    assert code == 2
    assert out == ""
    assert "positive integers" in err
    assert "Traceback" not in err


def test_chain_family_duplicate_primes_exit_two(capsys):
    code, out, err = run(
        capsys, "chain", "--delta", "35", "--q", "19", "--family", "3,3"
    )
    assert code == 2
    assert out == ""
    assert "two distinct primes" in err


CONSTRUCT = ("construct", "--delta", "35", "--level", "3")
PSI = ("psi", "--delta", "35", "--src", "3", "--dst", "1")
CHAIN = ("chain", "--delta", "35", "--q", "11")


@pytest.mark.parametrize(
    "command, p, reason",
    [
        pytest.param(CONSTRUCT, "17", "p = 17 must be a residue mod 3",
                     id="17-p = 17 must be a residue mod 3"),
        pytest.param(CONSTRUCT, "4", "p = 4 must be a prime ≡ 1 (mod 4)",
                     id="4-p = 4 must be a prime ≡ 1 (mod 4)"),
        pytest.param(PSI, "6", "p = 6 must be a prime ≡ 1 (mod 4)", id="psi-6"),
        pytest.param(PSI, "17", "p = 17 must be a residue mod 3", id="psi-17"),
        pytest.param(CHAIN, "10", "p = 10 must be a prime ≡ 1 (mod 4)", id="chain-10"),
        pytest.param(CHAIN, "19", "p = 19 must be a prime ≡ 1 (mod 4)", id="chain-19"),
    ],
)
def test_construct_inadmissible_p_exit_two(capsys, command, p, reason):
    code, out, err = run(capsys, *command, "--p", p)
    assert code == 2
    assert out == ""
    assert err == f"error: {reason}\n"


@pytest.mark.parametrize("place", ["4", "1"])
@pytest.mark.parametrize("section", ["split", "degeneracy", "chain"])
def test_verify_bad_place_exit_two(capsys, section, place):
    code, out, err = run(
        capsys, "verify", "--sections", section, "--deltas", "35", "--levels", "1",
        "--places", place,
    )
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ") and "prime" in err
    assert err.endswith(f": {place}\n")


@pytest.mark.parametrize(
    "selection, expected",
    [
        (("--sections", "chain", "--deltas", "1"), 2),
        (("--sections", "psi", "--deltas", "35", "--levels", "1"), 2),
        (("--sections", "degeneracy", "--deltas", "35", "--levels", "1", "--places", "5,7"), 3),
        (("--sections", "split", "--deltas", "21", "--levels", "1", "--places", "2"), 3),
    ],
    ids=["chain-empty", "psi-empty", "degeneracy-ramified", "split-unimplemented"],
)
def test_verify_section_that_verifies_nothing_is_not_a_failure(capsys, selection, expected):
    code, out, err = run(capsys, "verify", *selection)
    assert code == expected
    assert out == ""
    assert err.startswith("error: the ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "place, precision, expected",
    [("11", "2", 4), ("11", "6", 4), ("11", "7", 0), ("inf", "2", 0)],
)
def test_split_precision_below_the_check_margin_exit_four(capsys, place, precision, expected):
    code, out, err = run(
        capsys, "split", "--delta", "35", "--level", "3", "--place", place,
        "--precision", precision,
    )
    assert code == expected
    if expected == 4:
        assert out == ""
        assert "check margin" in err
    else:
        assert err == ""
        assert "all pass" in out
