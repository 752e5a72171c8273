import argparse
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quatorder import chains, cli, isomap, split
from quatorder.cli import main
from quatorder.report import Check, Report
from quatorder.split import verify_splitting


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


@pytest.mark.parametrize("place", ["x", "1.5", "", "q"])
def test_split_unparsable_place_exit_two(capsys, place):
    code, out, err = run(capsys, "split", "--delta", "35", "--place", place)
    assert code == 2
    assert out == ""
    assert err == f"error: place must be a prime, 'p', or 'inf': {place!r}\n"


def test_split_place_p_in_the_split_algebra_exit_two(capsys):
    code, out, err = run(capsys, "split", "--delta", "1", "--place", "p")
    assert code == 2
    assert out == ""
    assert "the split algebra (delta = 1) has no splitting prime" in err


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


def test_unsupported_case_exit_three(capsys, monkeypatch):
    code, _, err = run(capsys, "chain", "--delta", "1", "--q", "5")
    assert code == 3
    assert "rank 3" in err

    code, _, err = run(capsys, "degeneracy", "--delta", "35", "--level", "3", "--q", "5")
    assert code == 3
    assert "discriminant" in err

    monkeypatch.setattr(isomap, "DEFAULT_CONIC_BOUND", 2)
    code, _, err = run(capsys, "psi", "--delta", "35", "--src", "3", "--dst", "17")
    assert code == 3
    assert "no rational point" in err
    assert "denominator <= 2" in err


def test_internal_error_exits_five_on_one_line(capsys, monkeypatch):
    """A bug, here a matrix kernel that raises, is no failed certificate:
    exit 5 with one line naming the exception, and no traceback."""

    def broken(x, y):
        raise ZeroDivisionError("integer division or modulo by zero")

    monkeypatch.setattr(split, "mat_mul", broken)
    for json_flag in ((), ("--json",)):
        code, out, err = run(
            capsys, "split", "--delta", "35", "--level", "3", "--place", "11", *json_flag
        )
        assert (code, out) == (5, "")
        assert err == "error: internal error: ZeroDivisionError: integer division or modulo by zero\n"


def test_precision_too_small_exit_four(capsys):
    # The order basis costs v_q(2p) = 1 digit at q = p and at q = 2, so one
    # digit of working precision leaves none to assert there.
    for argv in (
        ("split", "--delta", "35", "--level", "3", "--place", "13"),
        ("split", "--delta", "6", "--place", "2"),
        ("degeneracy", "--delta", "35", "--level", "3", "--q", "13"),
    ):
        code, out, err = run(capsys, *argv, "--precision", "1")
        assert code == 4, argv
        assert out == ""
        assert "precision" in err
        assert "Traceback" not in err


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


@pytest.mark.parametrize("depths, expected", [("8,1000", 0), ("8,1001", 2)])
def test_chain_depth_bound(capsys, depths, expected):
    code, out, err = run(capsys, "chain", "--delta", "35", "--q", "11", "--depths", depths)
    assert code == expected
    assert "Traceback" not in err
    if expected == 2:
        assert out == ""
        assert "oracle depth 1001 exceeds the bound 1000" in err
    else:
        assert err == ""
        assert "oracle depth 1000, stabilized: True" in out


# One prime near 10^10 per chain case of delta = 35: the oracle modulus
# q^(1000 + λ) has more than 10000 decimal digits, q^(998 + λ) does not.
CHAIN_BIG_Q = [
    ("10000000097", "10000000097", 1001),  # at p (an admissible p given by --p)
    ("10000000019", None, 1000),  # square
    ("10000000259", None, 1000),  # direct
    ("10000000069", None, 1000),  # aux
]


@pytest.mark.parametrize("q, p, digits", CHAIN_BIG_Q, ids=["at_p", "square", "direct", "aux"])
def test_chain_modulus_beyond_the_ceiling_exit_two(capsys, q, p, digits):
    argv = ["chain", "--delta", "35", "--q", q, "--depths", "8,1000"]
    argv += ["--p", p] if p else []
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == (
        f"error: oracle depth 1000 at {q}: the modulus {q}^{digits} has more than "
        f"10000 decimal digits; lower the oracle depth\n"
    )


def test_chain_modulus_inside_the_ceiling_certifies(capsys):
    code, out, err = run(capsys, "chain", "--delta", "35", "--q", "10000000019",
                         "--depths", "8,998")
    assert code == 0
    assert err == ""
    assert "all pass" in out


def test_chain_family_duplicate_primes_exit_two(capsys):
    code, out, err = run(
        capsys, "chain", "--delta", "35", "--q", "19", "--family", "3,3"
    )
    assert code == 2
    assert out == ""
    assert "two distinct primes" in err


def test_chain_empty_family_exit_two(capsys):
    code, out, err = run(capsys, "chain", "--delta", "35", "--q", "19", "--family", "")
    assert code == 2
    assert out == ""
    assert "a chain family needs at least two distinct primes: []" in err


def test_chain_family_prints_the_primes_it_checks(capsys):
    code, out, err = run(
        capsys, "chain", "--delta", "35", "--q", "19", "--depths", "4,6",
        "--family", "3,11,11,13,19", "--json",
    )
    assert code == 0
    assert err == ""
    blob = json.loads(out)
    assert blob["family"] == [3, 11, 13, 19]
    pairwise = [c for c in blob["verification"]["checks"] if ".pairwise." in c["id"]]
    assert len(pairwise) == 6


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
    [
        ("11", "2", 0), ("11", "6", 0), ("11", "7", 0), ("inf", "2", 0),
        ("13", "1", 4), ("13", "2", 0), ("13", "6", 0),
    ],
)
def test_split_precision_below_the_check_margin_exit_four(capsys, place, precision, expected):
    # The asserted level is the precision less v_q(2p): 0 digits at q = 11,
    # 1 at q = p = 13; exit 4 only when no digit is left to assert.
    code, out, err = run(
        capsys, "split", "--delta", "35", "--level", "3", "--place", place,
        "--precision", precision,
    )
    assert code == expected
    if expected == 4:
        assert out == ""
        assert "leaves no digit to assert" in err
    else:
        assert err == ""
        assert "all pass" in out


@pytest.mark.parametrize("q", ["11", "13"])
@pytest.mark.parametrize("precision", ["2", "6"])
def test_degeneracy_at_low_precision_certifies(capsys, q, precision):
    code, out, err = run(
        capsys, "degeneracy", "--delta", "35", "--level", "3", "--q", q, "--precision", precision
    )
    assert code == 0
    assert err == ""
    assert "all pass" in out


def test_verify_runs_each_repeated_delta_and_level_once(capsys):
    code, once, _ = run(capsys, "verify", "--json", "--deltas", "35", "--levels", "1,3")
    assert code == 0
    for deltas, levels in (("35,35", "1,3"), ("35", "1,3,3,1")):
        code, repeated, _ = run(capsys, "verify", "--json", "--deltas", deltas, "--levels", levels)
        assert code == 0
        assert repeated == once, (deltas, levels)


SPLIT_11 = ("split", "--delta", "35", "--level", "3", "--place", "11")
DEGENERACY_11 = ("degeneracy", "--delta", "35", "--level", "3", "--q", "11")


@pytest.mark.parametrize("precision", ["0", "-3"])
@pytest.mark.parametrize(
    "command",
    [SPLIT_11, DEGENERACY_11, ("verify", "--sections", "degeneracy")],
    ids=["split", "degeneracy", "verify"],
)
def test_nonpositive_precision_exit_two(capsys, command, precision):
    code, out, err = run(capsys, *command, "--precision", precision)
    assert code == 2
    assert out == ""
    assert err == f"error: precision must be positive: {precision}\n"


# At a finite place the working modulus q^k may have at most 10,000 decimal
# digits: 11^9600 has 9998, (10^9+7)^1111 has 10,000 and (10^9+7)^1112 has
# 10,009.  Beyond that the command exits 2 before any q-adic lift.
DEGENERACY_1E9 = ("degeneracy", "--delta", "35", "--q", "1000000007")
VERIFY_1E9 = ("verify", "--deltas", "35", "--levels", "1", "--places", "1000000007",
              "--sections", "split,degeneracy")


@pytest.mark.parametrize(
    "command, q, precision, expected",
    [
        (SPLIT_11, 11, 20000, 2),
        (DEGENERACY_11, 11, 20000, 2),
        (DEGENERACY_11, 11, 9600, 0),
        (DEGENERACY_1E9, 1000000007, 8000, 2),
        (DEGENERACY_1E9, 1000000007, 1112, 2),
        (VERIFY_1E9, 1000000007, 8000, 2),
        (VERIFY_1E9, 1000000007, 1111, 0),
    ],
    ids=["split-11", "degeneracy-11", "degeneracy-11-inside", "degeneracy-1e9",
         "degeneracy-1e9-boundary", "verify-1e9", "verify-1e9-inside"],
)
def test_precision_beyond_the_modulus_ceiling_exit_two(
    capsys, monkeypatch, command, q, precision, expected
):
    lifts = []
    for name in ("hensel_sqrt", "solve_norm_equation"):
        lift = getattr(split, name)
        monkeypatch.setattr(
            split, name, lambda *a, _f=lift, **kw: lifts.append(a) or _f(*a, **kw)
        )
    code, out, err = run(capsys, *command, "--precision", str(precision))
    assert code == expected
    if expected == 2:
        assert out == ""
        assert err == (
            f"error: precision {precision} at {q}: the modulus {q}^{precision} has more "
            f"than 10000 decimal digits; lower the precision\n"
        )
        assert lifts == []
    else:
        assert err == ""
        assert lifts
        assert "all pass" in out


def test_exhausted_auxiliary_level_search_exit_three(capsys, monkeypatch):
    monkeypatch.setattr(chains, "DEFAULT_AUX_BOUND", 2)
    code, out, err = run(capsys, "chain", "--delta", "15", "--q", "7")
    assert code == 3
    assert out == ""
    assert err == "error: no auxiliary level <= 2 for delta=15, p=17, q=7\n"


# The product of the odd primes 3 to 47: no admissible prime lies below the
# fixed search bound, and each command reaches the search by its own path.
NO_PRIME_DELTA = "307444891294245705"


@pytest.mark.parametrize(
    "command",
    [
        ("construct", "--delta", NO_PRIME_DELTA),
        ("psi", "--delta", NO_PRIME_DELTA, "--src", "2", "--dst", "1"),
        ("chain", "--delta", NO_PRIME_DELTA, "--q", "2"),
        ("verify", "--deltas", NO_PRIME_DELTA, "--levels", "1", "--sections", "split"),
    ],
    ids=["construct", "psi", "chain", "verify"],
)
def test_exhausted_prime_search_exit_three(capsys, command):
    code, out, err = run(capsys, *command)
    assert code == 3
    assert out == ""
    assert "no admissible prime below 100000" in err
    assert "Traceback" not in err


# A model whose q-adic residues could print with more decimal digits than the
# interpreter converts to text is rejected before it is verified.  The
# ramified model at 5 prints residues modulo 5^(precision + 1); 5^6151 has
# 4300 digits and 5^6152 has 4301.
@pytest.mark.parametrize(
    "place, precision, expected",
    [("5", "8000", 2), ("1000000007", "500", 2), ("5", "6151", 2), ("5", "6150", 0)],
)
@pytest.mark.parametrize("output", [(), ("--json",)], ids=["text", "json"])
def test_split_beyond_the_integer_string_limit_exit_two(
    capsys, monkeypatch, place, precision, expected, output
):
    verified = []
    monkeypatch.setattr(
        cli, "verify_splitting", lambda s: verified.append(s) or verify_splitting(s)
    )
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(
            capsys, "split", "--delta", "35", "--place", place, "--precision", precision, *output
        )
    finally:
        sys.set_int_max_str_digits(previous)
    assert code == expected
    assert "Traceback" not in err
    if expected == 2:
        assert out == ""
        assert "more than 4300 decimal digits" in err
        assert verified == []
    else:
        assert err == ""
        assert len(verified) == 1
        assert ("all pass" in out) if not output else json.loads(out)["verification"]["all_pass"]


@pytest.mark.parametrize(
    "command",
    [
        ("degeneracy", "--delta", "35", "--q", "1000000007", "--precision", "500"),
        ("chain", "--delta", "35", "--q", "1000000007"),
        ("verify", "--deltas", "35", "--levels", "1", "--places", "1000000007",
         "--precision", "500", "--sections", "split,degeneracy"),
    ],
    ids=["degeneracy", "chain", "verify"],
)
def test_other_commands_keep_working_on_the_same_moduli(capsys, command):
    code, out, err = run(capsys, *command, "--json")
    assert code == 0
    assert err == ""
    assert json.loads(out)["verification"]["all_pass"]


def test_construct_factors_a_product_of_two_primes_near_a_billion(capsys):
    code, out, err = run(capsys, "construct", "--delta", "1000000016000000063")
    assert code == 0
    assert err == ""
    assert "delta=1000000016000000063 level=1 p=13 a=6" in out


def test_construct_semiprime_beyond_the_factoring_budget_exit_three(capsys):
    # two 16-digit primes: rho would need about 10^8 steps to split their product
    delta = 1000000000000037 * 1000000001000003
    code, out, err = run(capsys, "construct", "--delta", str(delta))
    assert code == 3
    assert out == ""
    assert err == (
        f"error: no divisor of the composite {delta} within the factoring budget "
        f"of 1048576 Pollard-Brent rho steps\n"
    )


def test_construct_strong_pseudoprime_to_twelve_bases(capsys):
    # ψ₁₂ = 399165290221 · 798330580441 passes Miller-Rabin to the bases 2-37;
    # base 41 proves it composite, so it is a valid two-prime discriminant
    code, out, err = run(capsys, "construct", "--delta", "318665857834031151167461")
    assert code == 0, err
    assert out.startswith("delta=318665857834031151167461 level=1 p=101 ")


def test_construct_beyond_the_proven_primality_range_exit_three(capsys):
    # ψ₁₃ passes all 13 prime bases 2-41, which prove primality only below it
    psi13 = 3317044064679887385961981
    code, out, err = run(capsys, "construct", "--delta", str(psi13))
    assert code == 3
    assert out == ""
    assert err == (
        f"error: {psi13} passes Miller-Rabin to the 13 prime bases 2 to 41, "
        f"which prove primality only below ψ₁₃ = {psi13}\n"
    )


@pytest.mark.parametrize(
    "deltas, levels, message",
    [
        ("35", "1,0", "level 0 must be a positive integer"),
        ("35", "1,-3", "level -3 must be a positive integer"),
        ("35,0", "1", "discriminant 0 must be a positive squarefree integer"),
        ("35,5", "1", "discriminant 5 must have an even number of prime factors"),
    ],
)
@pytest.mark.parametrize("section", ["numth", "split", "degeneracy", "psi", "chain"])
def test_verify_rejects_a_bad_delta_or_level_before_any_section(
    capsys, section, deltas, levels, message
):
    code, out, err = run(
        capsys, "verify", "--sections", section, "--deltas", deltas, "--levels", levels
    )
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_chain_runs_each_repeated_depth_once(capsys):
    code, once, _ = run(capsys, "chain", "--delta", "35", "--q", "11", "--depths", "8,10", "--json")
    assert code == 0
    code, repeated, _ = run(
        capsys, "chain", "--delta", "35", "--q", "11", "--depths", "8,8,10,8", "--json"
    )
    assert code == 0
    assert repeated == once
    ids = [c["id"] for c in json.loads(repeated)["verification"]["checks"]]
    assert len(ids) == len(set(ids))
    assert "oracle.descending.depth8_8" not in ids


@pytest.mark.parametrize(
    "command",
    [
        ("construct", "--delta", "35", "--level", "3"),
        ("split", "--delta", "35", "--level", "3", "--place", "11"),
        ("degeneracy", "--delta", "35", "--level", "3", "--q", "11"),
        ("psi", "--delta", "35", "--src", "9", "--dst", "3"),
        ("chain", "--delta", "35", "--q", "11"),
        ("verify", "--deltas", "35", "--levels", "1,3"),
        # 638 checks: the report is streamed in three slices
        pytest.param(("verify", "--deltas", "35,6", "--levels", "1,3,9"), id="verify_slices"),
    ],
    ids=lambda command: command[0],
)
def test_json_is_one_compact_sorted_line(capsys, command):
    # an indent would switch json.dumps to its pure-Python encoder
    code, out, err = run(capsys, *command, "--json")
    assert code == 0
    assert err == ""
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"


class RecordingStdout:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


# Texts the encoder must escape: a quote, a backslash, control characters,
# √, ≡ and a character outside the Basic Multilingual Plane.
AWKWARD = ('"', "\\", "\x00\n\x1f", "√", "≡", "\U0001d52d")


def synthetic_report(n):
    """Witnesses of varying length, and ids that put the awkward texts on both
    sides of the join of a prefix (none for every fourth check) and a name;
    ok is an int, which a check stores as a bool."""
    checks = []
    for i in range(n):
        a, b = AWKWARD[i % 6], AWKWARD[i // 6 % 6]
        prefix = "" if i % 4 == 0 else f"p{i % 5}.{a}"
        checks.append(Check(f"{b}synthetic.{i}", i % 7, "é\"w" * (i % 5) + a, prefix))
    return Report(checks)


def emit_json(monkeypatch, payload):
    stdout = RecordingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    cli._emit(argparse.Namespace(json=True), payload, [])
    return stdout.writes


def test_json_report_is_streamed_in_bounded_writes(monkeypatch):
    report = synthetic_report(10_000)
    writes = emit_json(monkeypatch, {"verification": report})
    assert "".join(writes) == json.dumps({"verification": report.to_json()}, sort_keys=True) + "\n"
    assert max(len(w) for w in writes) <= 64 * 1024


@pytest.mark.parametrize("head", [{}, {"chain": {"case": "split", "level": 3}}], ids=["alone", "after_key"])
@pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 513])
def test_json_report_stream_is_exact_at_slice_edges(monkeypatch, head, n):
    report = synthetic_report(n)
    writes = emit_json(monkeypatch, {**head, "verification": report})
    expected = json.dumps({**head, "verification": report.to_json()}, sort_keys=True) + "\n"
    assert "".join(writes) == expected


# One argv per exit code of the contract, 0 to 4.
EXIT_ARGVS = {
    0: ["construct", "--delta", "35", "--level", "3"],
    1: ["verify", "--deltas", "35", "--levels", "3", "--places", "13",
        "--sections", "split", "--inject-at-p-sign-flip"],
    2: ["construct", "--delta", "30"],
    3: ["degeneracy", "--delta", "35", "--level", "3", "--q", "5"],
    4: ["split", "--delta", "35", "--level", "9", "--place", "3", "--precision", "1"],
}
SRC = str(Path(__file__).resolve().parents[1] / "src")


def python(*args):
    """A fresh interpreter with the package's source first on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


@pytest.mark.parametrize("code", sorted(EXIT_ARGVS))
def test_a_process_exits_as_main_returns(capsys, code):
    """``python -m quatorder.cli`` exits through ``run``, which freezes the
    collector before the interpreter's finalization: the same stdout, stderr
    and exit code as ``main`` in this process, whose collector stays as it was."""
    expected = run(capsys, *EXIT_ARGVS[code])
    assert expected[0] == code
    assert gc.get_freeze_count() == 0
    done = python("-m", "quatorder.cli", *EXIT_ARGVS[code])
    assert (done.returncode, done.stdout, done.stderr) == expected


def test_the_module_path_freezes_before_the_atexit_handlers():
    """Run as ``__main__``, the module freezes every live object before it
    exits, and the interpreter still runs the atexit handlers afterwards."""
    probe = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr))\n"
        "sys.argv = ['quatorder', *sys.argv[1:]]\n"
        "runpy.run_module('quatorder.cli', run_name='__main__')\n"
    )
    done = python("-c", probe, *EXIT_ARGVS[0])
    assert done.returncode == 0
    assert done.stdout.startswith("delta=35 level=3 p=13 a=5")
    assert done.stderr == "frozen True\n"
