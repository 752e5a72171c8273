"""Aggregate verification sweeps over families of algebras.

Each sweep runs the per-object verifier over a grid and folds the results
into a single report with hierarchical check ids, so a failure names the
algebra, the place, and the exact identity that broke.  Unsupported
combinations (places whose splitting case is outside the implemented table)
are skipped, not failed; the skip count is recorded as a witness.
"""

from __future__ import annotations

import random
from math import gcd

from .chains import (
    TRANSVERSE_FAMILIES,
    classify_chain,
    verify_chain,
    verify_chain_family,
)
from .degeneracy import degeneracy_bases, verify_degeneracy
from .errors import CaseMismatchError, InvalidParametersError
from .isomap import build_psi, verify_psi, verify_psi_inclusion
from .numth import (
    INFINITE_PLACE,
    _validate_delta_level,
    find_hashimoto_prime,
    hensel_sqrt,
    hilbert_symbol,
    is_prime,
    legendre,
    prime_factors,
)
from .quat import AlgebraParams
from .report import Report
from .split import CASE_AT_P, DEFAULT_PRECISION, LocalSplitting, build_splitting, verify_splitting

DEFAULT_DELTAS = (1, 6, 10, 14, 15, 21, 22, 26, 34, 35)
DEFAULT_LEVELS = (1, 2, 3, 5, 7, 9, 11)
DEFAULT_PLACES = (2, 3, 5, 7, 11, 13, "p", INFINITE_PLACE)
ALL_SECTIONS = ("numth", "split", "degeneracy", "psi", "chain")


def _grid(deltas, levels):
    for delta in deltas:
        for level in levels:
            if gcd(delta, level) != 1:
                continue
            yield AlgebraParams.create(delta, level)


def _resolve_places(params: AlgebraParams, places, finite: bool) -> list:
    """The distinct places to sweep for one algebra, in the order given.

    The token "p" names the algebra's splitting prime and is dropped when
    there is none (p = 1 for delta = 1); a finite sweep also drops the
    infinite place.  Any other bad place is left for the classifier to reject.
    """
    out = []
    for place in places:
        if place == "p":
            if params.p == 1:
                continue
            place = params.p
        if place in out or (finite and place == INFINITE_PLACE):
            continue
        out.append(place)
    return out


def _coverage(report: Report, section: str, verified: int, skipped: int, witness: str) -> Report:
    """Close a section with its coverage check, or reject a section that verified nothing.

    An empty selection is bad input; a selection whose every member was
    skipped (ramified or unimplemented) is an unsupported case.
    """
    if not verified:
        if not skipped:
            raise InvalidParametersError(f"the {section} section selects nothing to verify")
        raise CaseMismatchError(f"the {section} section skipped everything it selects: {witness}")
    report.add(f"{section}.coverage", True, witness)
    return report


def _place_tag(place) -> str:
    return "inf" if place == INFINITE_PLACE else f"q{place}"


def sweep_numth(seed: int = 0, pair_count: int = 80) -> Report:
    """Property checks on the arithmetic layer."""
    report = Report()
    rng = random.Random(seed)

    ok = True
    bad = ""
    for _ in range(pair_count):
        a = rng.randint(-60, 60) or 1
        b = rng.randint(-60, 60) or 1
        places = {2, INFINITE_PLACE}
        places.update(prime_factors(abs(a)))
        places.update(prime_factors(abs(b)))
        prod = 1
        for place in places:
            prod *= hilbert_symbol(a, b, place)
        if prod != 1:
            ok = False
            bad = f"({a},{b})"
            break
    report.add(
        "numth.hilbert.product_formula",
        ok,
        bad or f"{pair_count} pairs, product over all places is +1",
    )

    ok = True
    for q in (2, 3, 13):
        for _ in range(12):
            x = rng.randint(1, 10_000)
            while x % q == 0:
                x = rng.randint(1, 10_000)
            r = hensel_sqrt(x * x, q, 24)
            if (r * r - x * x) % q**24:
                ok = False
    report.add("numth.hensel.squares", ok, "hensel roots square back mod q^24")

    ok = True
    for q in [n for n in range(3, 100) if is_prime(n)]:
        squares = {(x * x) % q for x in range(1, q)}
        for a in range(1, q):
            want = 1 if a in squares else -1
            if legendre(a, q) != want:
                ok = False
    report.add("numth.legendre.enumeration", ok, "legendre symbol matches enumeration, q < 100")

    report.add(
        "numth.prime_search.flagship",
        find_hashimoto_prime(35, 3) == 13,
        "smallest admissible prime for delta=35, level=3 is 13",
    )
    return report


def sweep_splittings(
    deltas=DEFAULT_DELTAS,
    levels=DEFAULT_LEVELS,
    places=DEFAULT_PLACES,
    k: int = DEFAULT_PRECISION,
    inject_at_p_sign_flip: bool = False,
) -> Report:
    """Verify the local splitting at every supported place on the grid.

    inject_at_p_sign_flip certifies each at-p model on the other root -s of
    -dn, which the checks must catch.  The flag stays only for the benchmark
    gate's self-test and the pinned fault report, until the benchmark takes
    its fault from a test catalogue."""
    report = Report()
    verified = 0
    skipped = 0
    for params in _grid(deltas, levels):
        for pl in _resolve_places(params, places, finite=False):
            try:
                spl = build_splitting(params, pl, k=k)
            except CaseMismatchError:
                skipped += 1
                continue
            if inject_at_p_sign_flip and spl.case == CASE_AT_P:
                spl = LocalSplitting(params, pl, CASE_AT_P, k, {"s": -spl.data["s"] % pl**k})
            sub = verify_splitting(spl)
            prefix = f"split.delta{params.delta}.level{params.level}.{_place_tag(pl)}."
            report.extend(sub, prefix=prefix)
            verified += 1
    return _coverage(
        report, "split", verified, skipped,
        f"{verified} splittings verified, {skipped} unsupported places skipped",
    )


def sweep_degeneracies(
    deltas=DEFAULT_DELTAS,
    levels=DEFAULT_LEVELS,
    places=DEFAULT_PLACES,
    k: int = DEFAULT_PRECISION,
) -> Report:
    """Verify both degeneracy embeddings at every supported prime on the grid."""
    report = Report()
    verified = 0
    skipped = 0
    for params in _grid(deltas, levels):
        for q in _resolve_places(params, places, finite=True):
            try:
                pair = degeneracy_bases(params, q, k=k)
            except CaseMismatchError:
                skipped += 1
                continue
            sub = verify_degeneracy(pair)
            prefix = f"degeneracy.delta{params.delta}.level{params.level}.q{q}."
            report.extend(sub, prefix=prefix)
            verified += 1
    return _coverage(
        report, "degeneracy", verified, skipped,
        f"{verified} degeneracy pairs verified, {skipped} unsupported primes skipped",
    )


def sweep_psi(
    deltas=DEFAULT_DELTAS,
    levels=DEFAULT_LEVELS,
    seed: int = 0,
) -> Report:
    """Verify level isomorphisms, with the inclusion certificate on divisible pairs."""
    report = Report()
    verified = 0
    for delta in deltas:
        pairs = [
            (src, dst)
            for src in levels
            for dst in levels
            if dst < src and src % dst == 0 and gcd(delta, src) == 1
        ]
        for src, dst in pairs:
            psi = build_psi(delta, src, dst)
            prefix = f"psi.delta{delta}.{src}to{dst}."
            report.extend(verify_psi(psi, seed=seed), prefix=prefix)
            report.extend(verify_psi_inclusion(psi), prefix=prefix)
            verified += 1
    return _coverage(report, "psi", verified, 0, f"{verified} level pairs verified")


def sweep_chains(
    deltas=DEFAULT_DELTAS,
    places=DEFAULT_PLACES,
) -> Report:
    """Verify chain intersections for division algebras.

    Every supported prime gets the three-route check.  The pairwise and
    global triviality checks run over the curated transverse families,
    since arbitrary prime sets can legitimately share a chain ring.
    """
    report = Report()
    verified = 0
    skipped = 0
    for delta in deltas:
        if delta == 1:
            continue
        params = AlgebraParams.create(delta, 1)
        for q in _resolve_places(params, places, finite=True):
            try:
                classify_chain(params, q)
            except CaseMismatchError:
                skipped += 1
                continue
            cb, sub = verify_chain(delta, q, p=params.p)
            report.extend(sub, prefix=f"chain.delta{delta}.q{q}.")
            verified += 1
        if delta in TRANSVERSE_FAMILIES:
            fam = verify_chain_family(delta, TRANSVERSE_FAMILIES[delta])
            report.extend(fam, prefix=f"chain.delta{delta}.family.")
    return _coverage(
        report, "chain", verified, skipped,
        f"{verified} chains verified, {skipped} ramified places skipped",
    )


def run_sweep(
    deltas=DEFAULT_DELTAS,
    levels=DEFAULT_LEVELS,
    places=DEFAULT_PLACES,
    k: int = DEFAULT_PRECISION,
    seed: int = 0,
    sections=ALL_SECTIONS,
    inject_at_p_sign_flip: bool = False,
) -> Report:
    """Run the selected verification sections and fold them into one report.

    inject_at_p_sign_flip is passed to ``sweep_splittings``; it stays only
    for the benchmark gate's self-test and the pinned fault report, until the
    benchmark takes its fault from a test catalogue."""
    deltas, levels = tuple(dict.fromkeys(deltas)), tuple(dict.fromkeys(levels))  # repeats run once
    # every value on its own, before any section runs; a pair need not be coprime
    for delta in deltas:
        _validate_delta_level(delta, 1)
    for level in levels:
        _validate_delta_level(1, level)
    report = Report()
    if "numth" in sections:
        report.extend(sweep_numth(seed=seed))
    if "split" in sections:
        report.extend(
            sweep_splittings(
                deltas, levels, places, k=k,
                inject_at_p_sign_flip=inject_at_p_sign_flip,
            )
        )
    if "degeneracy" in sections:
        report.extend(sweep_degeneracies(deltas, levels, places, k=k))
    if "psi" in sections:
        report.extend(sweep_psi(deltas, levels, seed=seed))
    if "chain" in sections:
        report.extend(sweep_chains(deltas, places))
    if report.vacuous:
        raise InvalidParametersError("verification sweep selected no checks")
    return report
