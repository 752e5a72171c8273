"""Seeded program inputs for the three benchmark workloads.

Each generator is a pure function of the seed: it draws with
``random.Random`` from fixed parameter ranges and never looks at what the
program does with a draw.  The ranges are written out here rather than read
from the package, so a change to the package cannot change the inputs.

* ``grid``  -- ``verify --json --seed <seed>`` over the default grid.
* ``wide``  -- ``verify --json`` over grids of large discriminants, levels
  and places.  A run cycles through ``WIDE_GRIDS_PER_RUN`` consecutive grids
  of a pool of ``WIDE_POOL``, starting at seed mod ``WIDE_POOL``; the pool's
  check lists are frozen.
* ``calls`` -- an endless stream of single-object ``--json`` calls, made of
  shuffled blocks with a fixed number of calls per command.
"""

from __future__ import annotations

import random
from math import gcd, prod

WORKLOADS = ("grid", "wide", "calls")

# Parameters documented in the README and used by the default sweep.
DELTAS = (1, 6, 10, 14, 15, 21, 22, 26, 34, 35)
LEVELS = (1, 2, 3, 5, 7, 9, 11)
# Odd primes of the default places.  q = 2 is left out: its model is
# unimplemented when p = 5 mod 8 and the discriminant is odd.
ODD_PLACES = (3, 5, 7, 11, 13)
FAMILIES = {35: (3, 11, 13, 19), 6: (5, 7, 11, 13)}
DEPTHS = ("8,10,12", "6,8,10", "10,12")

# Calls per command in one block of the calls stream.  The narrowed verify
# calls are the slow class, a fifth of the stream, so call_ms_p90 lands in
# the middle of them instead of on the noisy edge between two classes.
BLOCK = {"construct": 3, "split": 3, "degeneracy": 3, "psi": 3, "chain": 4, "verify": 4}
BLOCK_SIZE = sum(BLOCK.values())

WIDE_POOL = 32
# Grids differ in cost by several percent; cycling through a few per run
# keeps one expensive draw from moving a run's median.
WIDE_GRIDS_PER_RUN = 4


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _primes(lo: int, hi: int) -> list[int]:
    return [n for n in range(lo, hi + 1) if _is_prime(n)]


# wide ranges: discriminant primes, two primes near 10^5, level primes up to
# a few hundred (all above the discriminant primes, so every pair is
# coprime), and places above 100.  The small two-prime discriminant uses
# primes from 7 up, so it can never repeat the curated 6 or 35.
WIDE_DELTA_PRIMES = _primes(2, 60)
WIDE_PAIR_PRIMES = _primes(7, 60)
WIDE_BIG_PRIMES = _primes(90_000, 110_000)
WIDE_LEVEL_PRIMES = _primes(61, 400)
WIDE_PLACE_PRIMES = _primes(101, 400)


def grid_argv(seed: int) -> list[str]:
    return ["verify", "--json", "--seed", str(seed)]


def wide_grid(index: int) -> tuple[list[int], list[int], list]:
    """Discriminants, levels and places of wide grid number ``index``.

    Discriminants: one curated chain-family discriminant (6 or 35), and
    products of 2, 2 (near 10^5 each), 4 and 6 distinct primes.  Levels:
    1, two primes and their product, so every divisible pair has a level
    map.  Places: three primes above 100, the splitting prime and infinity.
    """
    rng = random.Random(index)
    deltas = [
        rng.choice(sorted(FAMILIES)),
        prod(rng.sample(WIDE_PAIR_PRIMES, 2)),
        prod(rng.sample(WIDE_BIG_PRIMES, 2)),
        prod(rng.sample(WIDE_DELTA_PRIMES, 4)),
        prod(rng.sample(WIDE_DELTA_PRIMES, 6)),
    ]
    l1, l2 = rng.sample(WIDE_LEVEL_PRIMES, 2)
    levels = [1, l1, l2, l1 * l2]
    places = sorted(rng.sample(WIDE_PLACE_PRIMES, 3)) + ["p", "inf"]
    return deltas, levels, places


def wide_argv(seed: int) -> list[str]:
    index = seed % WIDE_POOL
    deltas, levels, places = wide_grid(index)
    return [
        "verify", "--json", "--seed", str(index),
        "--deltas", ",".join(map(str, deltas)),
        "--levels", ",".join(map(str, levels)),
        "--places", ",".join(map(str, places)),
    ]


def sweep_argvs(workload: str, seed: int) -> list[list[str]]:
    """The verify argvs a grid or wide run cycles through."""
    if workload == "grid":
        return [grid_argv(seed)]
    return [wide_argv(seed + j) for j in range(WIDE_GRIDS_PER_RUN)]


def call_catalogue() -> dict[str, list[list[str]]]:
    """Every single-object call the calls stream can draw, per command.

    Only cases the README documents as supported: ramified places are valid
    for ``split`` but not for ``degeneracy`` or chains, and ``--place p``
    needs a discriminant above 1.
    """
    pairs = [(d, n) for d in DELTAS for n in LEVELS if gcd(d, n) == 1]
    cat = {cmd: [] for cmd in BLOCK}
    for d, n in pairs:
        base = ["--delta", str(d), "--level", str(n), "--json"]
        cat["construct"].append(["construct", *base])
        places = [str(q) for q in ODD_PLACES] + (["p"] if d > 1 else []) + ["inf"]
        for place in places:
            cat["split"].append(["split", *base, "--place", place])
        for q in ODD_PLACES:
            if d % q:
                cat["degeneracy"].append(["degeneracy", *base, "--q", str(q)])
    for d in DELTAS:
        for src in LEVELS:
            for dst in LEVELS:
                if dst < src and src % dst == 0 and gcd(d, src) == 1:
                    cat["psi"].append(
                        ["psi", "--delta", str(d), "--src", str(src), "--dst", str(dst), "--json"]
                    )
    for d, family in sorted(FAMILIES.items()):
        for q in family:
            for depths in DEPTHS:
                cat["chain"].append([
                    "chain", "--delta", str(d), "--q", str(q), "--depths", depths,
                    "--family", ",".join(map(str, family)), "--json",
                ])
    for d in DELTAS[1:]:
        for n in (3, 5, 7, 11):
            if gcd(d, n) != 1:
                continue
            for q in ODD_PLACES:
                if d % q:
                    cat["verify"].append([
                        "verify", "--json", "--deltas", str(d), "--levels", f"1,{n}",
                        "--places", f"{q},p,inf",
                    ])
    return cat


def call_stream(seed: int):
    """Endless seeded stream of call argvs, one shuffled block at a time."""
    rng = random.Random(seed)
    cat = call_catalogue()
    while True:
        block = [rng.choice(cat[cmd]) for cmd, n in BLOCK.items() for _ in range(n)]
        rng.shuffle(block)
        yield from block


def call_key(argv: list[str]) -> str:
    return " ".join(argv)
