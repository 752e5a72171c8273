"""The exit-code contract, fuzzed over a grammar of all six commands.

Every argv either exits 0 with "all pass", exits 1 with failing checks of a
known kind, or exits 2, 3 or 4; no exception escapes ``cli.main``, and none
reaches its internal-error exit 5.  The draw
is derandomized, so a run is reproducible, and the grammar keeps every input
small enough for the whole test to take a few seconds.
"""

import contextlib
import io
import json
import re

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from quatorder.chains import TRANSVERSE_FAMILIES
from quatorder.cli import main
from quatorder.verify import ALL_SECTIONS

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=300)

# Valid discriminants have no prime or two or four primes; the bad ones have
# three primes, a square factor, or are not positive.
DELTAS = (1, 6, 10, 15, 21, 35, 323, 210)
BAD_DELTAS = (30, 4, 0, -6)
LEVELS = (1, 2, 3, 4, 5, 7, 9, 11, 13)
BAD_LEVELS = (0, -1)
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)
PLACES = tuple(map(str, PRIMES)) + ("p", "inf")
BAD_PLACES = ("1", "4", "x")
# None leaves p to the search; 5, 13, 17 and 29 are admissible for some
# algebras, 7 and 4 for none.
PS = (None, None, None, 5, 13, 17, 29, 7, 4)

# psi's known defect (ROADMAP item 1): the level map's inclusion can have a
# non-integral coordinate, so the certificate truthfully fails.
PSI_DEFECT = re.compile(r"(psi\..*\.)?inclusion\.integer_coords")


def _csv(values) -> str:
    return ",".join(map(str, values))


@st.composite
def argvs(draw):
    """One argv of the six commands; a quarter of them may carry bad values."""
    bad = draw(st.integers(0, 3)) == 0

    def pick(good, wrong=()):
        return draw(st.sampled_from(good + wrong if bad else good))

    def picks(good, wrong=(), most=2):
        return _csv(draw(st.lists(st.sampled_from(good + wrong if bad else good),
                                  min_size=1, max_size=most)))

    command = draw(st.sampled_from(("construct", "split", "degeneracy", "psi", "chain", "verify")))
    precision = ["--precision", str(draw(st.integers(1, 40)))]
    if command == "verify":
        sections = _csv(draw(st.lists(st.sampled_from(ALL_SECTIONS), min_size=1, max_size=2)))
        argv = [
            "verify", "--deltas", picks(DELTAS, BAD_DELTAS), "--levels", picks(LEVELS, BAD_LEVELS),
            "--places", picks(PLACES, BAD_PLACES, 3), "--sections", sections, *precision,
        ]
    else:
        argv = [command, "--delta", str(pick(DELTAS, BAD_DELTAS))]
        if command in ("construct", "split", "degeneracy"):
            argv += ["--level", str(pick(LEVELS, BAD_LEVELS))]
        if command == "split":
            argv += ["--place", pick(PLACES, BAD_PLACES), *precision]
        elif command == "degeneracy":
            argv += ["--q", str(pick(PRIMES, (1, 4))), *precision]
        elif command == "psi":
            argv += ["--src", str(pick(LEVELS, BAD_LEVELS)), "--dst", str(pick(LEVELS, BAD_LEVELS))]
        elif command == "chain":
            argv += ["--q", str(pick(PRIMES, (1, 4)))]
            argv += ["--depths", picks(tuple(range(1, 13)), (0, -1), 3)]
            if draw(st.booleans()):
                argv += ["--family", picks(PRIMES, most=4)]
        p = draw(st.sampled_from(PS))
        if p is not None:
            argv += ["--p", str(p)]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _verdict(argv, out):
    """(all pass, ids of the failing checks) read from the command's output."""
    if "--json" in argv:
        verification = json.loads(out)["verification"]
        failing = [c["id"] for c in verification["checks"] if not c["ok"]]
        return verification["all_pass"], failing
    lines = out.splitlines()
    failing = [m.group(1) for m in map(re.compile(r"\s*FAIL (\S+)").match, lines) if m]
    return lines[-1].endswith("all pass"), failing


def _curated_family(argv) -> bool:
    delta = int(argv[argv.index("--delta") + 1])
    family = {int(tok) for tok in argv[argv.index("--family") + 1].split(",") if tok}
    return family == set(TRANSVERSE_FAMILIES.get(delta, ()))


def _expected_failure(argv, check_id) -> bool:
    if PSI_DEFECT.fullmatch(check_id):
        event("expected exit 1: psi inclusion.integer_coords (known defect)")
        return True
    # A family that is not the curated one need not be transverse: the claim
    # is false, and exit 1 is the truthful answer.
    return check_id.startswith("family.") and not _curated_family(argv)


@SETTINGS
@given(argvs())
@example(["split", "--delta", "35", "--place", "x"])
@example(["split", "--delta", "1", "--place", "p", "--json"])
@example(["chain", "--delta", "323", "--q", "7", "--family", "5,7"])
@example(["psi", "--delta", "1155", "--src", "323", "--dst", "1"])
@example(["verify", "--deltas", "35", "--levels", "1,0", "--sections", "psi"])
def test_exit_code_tells_the_truth(argv):
    code, out, err = run(argv)
    event(f"{argv[0]} exit {code}")
    assert code != 5, (argv, err)
    assert code in (0, 1, 2, 3, 4), (argv, code)
    assert "Traceback" not in err
    if code == 0 and argv[0] != "construct":
        all_pass, failing = _verdict(argv, out)
        assert all_pass and not failing, argv
    if code == 1:
        all_pass, failing = _verdict(argv, out)
        assert not all_pass and failing, argv
        unexpected = [c for c in failing if not _expected_failure(argv, c)]
        assert unexpected == [], (argv, unexpected)
    if code in (2, 3, 4):
        assert err, argv


REFUSALS = (
    # (argv at one digit too few, level the test needs, level the model asserts)
    (["split", "--delta", "35", "--level", "9", "--place", "3", "--precision", "1"], 2, 1),
    (["degeneracy", "--delta", "35", "--level", "9", "--q", "3", "--precision", "2"], 3, 2),
    (["degeneracy", "--delta", "15", "--level", "2", "--q", "2", "--precision", "2"], 2, 1),
)


def test_a_test_deeper_than_the_asserted_level_exits_4_naming_both_levels():
    """The level-9 order's congruence at 3 needs 3^2 (3^3 for the deeper
    copy), and the deeper level-2 copy at 2 needs 2^2 where the order basis
    costs a digit; with fewer working digits the model refuses rather than
    guess."""
    for argv, needed, asserted in REFUSALS:
        code, out, err = run(argv)
        assert (code, out) == (4, ""), argv
        q = argv[argv.index("--place" if "--place" in argv else "--q") + 1]
        assert f"{q}-adic level {needed} is deeper than level {asserted}" in err, err
        code, out, err = run(argv[:-1] + ["3"])
        assert code == 0 and out.splitlines()[-1].endswith("all pass"), argv
