"""Seeded query generators for the benchmark workloads.

Each generator turns a seed into one *pass*: a list of ``nilmult`` argv lists,
all ``compute --format json``.  The program sees nothing but these argv
lists.  The properties the run time depends on most (rank and class) sit on a
fixed grid, so every seed gets the same cost mix; the seed draws the groups
themselves and the order of the queries.
"""

from __future__ import annotations

import itertools
import random

# Primes whose multiples make the oracle's compression step factor gcds by
# long trial division (sqrt of the largest is about 31623).
LARGE_PRIMES = (999999937, 100000007, 9999991, 1000003, 999983, 99991)
PRIME_PAIRS = tuple(itertools.combinations(LARGE_PRIMES, 2))
MAX_ORDER = 10**12


def _compute(group: str, nilpotency_class: int, method: str) -> list[str]:
    return ["compute", "--group", group, "--class", str(nilpotency_class),
            "--method", method, "--format", "json"]


def _random_chain(rng: random.Random, rank: int) -> tuple[int, ...]:
    """A random strictly decreasing invariant-factor chain of the given rank.

    Strict, so no summands merge and a query's cost follows from its rank and
    class alone; oracle-sweep covers chains with repeated entries.
    """
    chain = [rng.choice((2, 3, 4, 5, 6))]
    while len(chain) < rank:
        chain.append(chain[-1] * rng.choice((2, 3, 5)))
    return tuple(reversed(chain))


def formula_deep(seed: int) -> list[list[str]]:
    """Formula route at ranks 2-6 and classes log-spaced over [10^3, 10^5].

    Each rank takes the same 24 classes, so the cost mix is fixed; the seed
    draws the chains and the order of the queries.
    """
    rng = random.Random(seed)
    queries = []
    for rank in range(2, 7):
        for k in range(24):
            chain = _random_chain(rng, rank)
            queries.append(_compute(",".join(map(str, chain)), round(10 ** (3 + 2 * k / 23)), "formula"))
    rng.shuffle(queries)
    return queries


def _chains(max_order: int, max_rank: int):
    """Every divisibility chain with entries in 2..max_order and length <= max_rank."""

    def extend(prefix: tuple[int, ...]):
        yield prefix
        if len(prefix) == max_rank:
            return
        top = prefix[-1] if prefix else max_order
        for n in range(2, top + 1):
            if not prefix or top % n == 0:
                yield from extend(prefix + (n,))

    yield from extend(())


def oracle_sweep(seed: int) -> list[list[str]]:
    """`--method both` on every chain with entries <= 16, rank <= 4, class <= 4.

    The trivial chain is spelled "1".  The set is fixed; the seed shuffles it.
    """
    rng = random.Random(seed)
    queries = [
        _compute(",".join(map(str, chain)) or "1", c, "both")
        for chain in _chains(16, 4)
        for c in range(1, 5)
    ]
    rng.shuffle(queries)
    return queries


def _wide_orders(rng: random.Random, rank: int, primes: tuple[int, int]) -> list[int]:
    """`rank` even cyclic orders, most of them multiples of one of the two primes.

    Even, so the invariant chain has exactly `rank` factors (its length is
    the largest number of orders one prime divides) and the size of the Hall
    enumeration follows from the design, not from the seed.
    """
    orders = []
    while len(orders) < rank:
        if rng.random() < 0.75:
            p = rng.choice(primes)
            order = 2 * p * rng.randint(1, min(360, MAX_ORDER // (2 * p)))
        else:
            order = 2 * rng.randint(1, 2520)
        orders.extend([order] * min(rng.choice((1, 1, 1, 2, 3)), rank - len(orders)))
    rng.shuffle(orders)
    return orders


def _spell(rng: random.Random, orders: list[int]) -> str:
    """One of the three accepted spellings of a decomposition."""
    style = rng.randrange(3)
    if style == 0:
        return ",".join(map(str, orders))
    if style == 1:
        return "+".join(f"Z{r}" for r in orders)
    runs: list[list[int]] = []
    for r in orders:
        if runs and runs[-1][0] == r:
            runs[-1][1] += 1
        else:
            runs.append([r, 1])
    return "+".join(f"Z{r}" if k == 1 else f"Z{r}^{k}" for r, k in runs)


def wide_mixed(seed: int) -> list[list[str]]:
    """`--method both` on non-canonical decompositions of rank 8-40, class 1-2.

    The (rank, class) grid is fixed: class 1 at 270 ranks evenly spread over
    [8, 40], class 2 at 30 ranks geometrically spread over [8, 40], so the
    widest Hall enumeration (about 21k commutators at rank 40) is rare but in
    every pass.  The pair of large primes also cycles with the grid, since
    the cost of factoring a gcd grows with the square root of its prime.  The
    seed draws the cofactors, repeats, spelling and the order of the queries.
    """
    rng = random.Random(seed)
    designs = [(round(8 + 32 * k / 269), 1) for k in range(270)]
    designs += [(round(8 * 5 ** (k / 29)), 2) for k in range(30)]
    queries = [
        _compute(_spell(rng, _wide_orders(rng, rank, PRIME_PAIRS[k % len(PRIME_PAIRS)])), c, "both")
        for k, (rank, c) in enumerate(designs)
    ]
    rng.shuffle(queries)
    return queries


WORKLOADS = {
    "formula-deep": formula_deep,
    "oracle-sweep": oracle_sweep,
    "wide-mixed": wide_mixed,
}

# The reference kernel (``reference.py``) whose speed a workload's latencies
# are scaled by: the kind of work its run time goes to.
REFERENCE_KERNEL = {
    "formula-deep": "bigint",  # Witt powers and decimal rendering
    "oracle-sweep": "interpreted",  # argparse, Hall enumeration, records
    "wide-mixed": "interpreted",  # Hall enumeration, trial division
}
