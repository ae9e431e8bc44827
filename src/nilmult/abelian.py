"""Finite abelian groups as direct sums of cyclic groups, in exact arithmetic.

A group arrives as a multiset of cyclic orders (``CyclicDecomposition``) and
is normalized to its invariant-factor chain (``InvariantFactors``): the unique
list n_1, n_2, ... with n_{i+1} | n_i and every entry >= 2.  ``canonicalize``
is the default: one lcm/gcd pass over the counted orders, with no
factorization.  The primary route is one run-length core,
``compressed_invariant_form``, which the commutator oracle calls directly;
``canonicalize_primary`` is its expansion and serves as the cross-check for
``canonicalize``.  That core factors nothing either: it splits the distinct
orders into a pairwise coprime base by repeated gcds and treats the base
elements as primes.  ``trial_division`` is the one factorization loop; the
Witt terms and divisor lists in ``nilmult.witt`` derive from it.
``factorize`` bounds it to admissible orders and is kept as public API; no
code in the package calls it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

# Largest accepted cyclic order.  Any n <= 10**12 has at most one prime factor
# above 10**6, so trial division up to sqrt(n) fully factors every input.
MAX_ORDER = 10**12


def _require_int(value: object, what: str) -> None:
    # bool is a subclass of int, but True is not an order
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an int, got {value!r}")


@dataclass(frozen=True)
class CyclicDecomposition:
    """A direct sum of cyclic groups, one entry per factor, in given order.

    Entries may repeat, appear in any order, and include 1 (trivial factors).
    The empty decomposition is the trivial group.

    >>> CyclicDecomposition((8, 12)).orders
    (8, 12)
    """

    orders: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "orders", tuple(self.orders))
        for r in self.orders:
            _require_int(r, "cyclic order")
            if r < 1:
                raise ValueError(f"cyclic order must be >= 1, got {r}")
            if r > MAX_ORDER:
                raise ValueError(f"cyclic order {r} exceeds the bound {MAX_ORDER}")

    def __iter__(self):
        return iter(self.orders)

    def __len__(self) -> int:
        return len(self.orders)


@dataclass(frozen=True)
class InvariantFactors:
    """Canonical presentation: a divisibility chain n_1, n_2 | n_1, ..., all >= 2.

    Entries are not bounded by ``MAX_ORDER``: the lcm of several admissible
    orders may exceed it, and nothing here ever needs to factor a chain entry.

    >>> InvariantFactors((24, 4)).chain
    (24, 4)
    """

    chain: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "chain", tuple(self.chain))
        for n in self.chain:
            _require_int(n, "invariant factor")
            if n < 2:
                raise ValueError(f"invariant factor must be >= 2, got {n}")
        for a, b in zip(self.chain, self.chain[1:]):
            if a % b:
                raise ValueError(f"broken divisibility chain: {b} does not divide {a}")

    def __iter__(self):
        return iter(self.chain)

    def __len__(self) -> int:
        return len(self.chain)


def canonicalize(decomposition: CyclicDecomposition) -> InvariantFactors:
    """Invariant factors of the group, in one pass over the counted orders.

    Equal orders are counted and trivial ones dropped.  All copies of an order
    r enter the chain c at once: entry j becomes lcm(c_j, gcd(c_{j-copies}, r)),
    where the gcd is r itself for j < copies and c_j is 1 past the end.  Once
    that gcd is 1 it stays 1, so the rest of the chain is left as it is.  No
    factorization is needed.

    >>> canonicalize(CyclicDecomposition((8, 12))).chain
    (24, 4)
    >>> canonicalize(CyclicDecomposition((1, 1, 1))).chain
    ()
    """
    chain: list[int] = []
    for order, copies in Counter(r for r in decomposition.orders if r > 1).items():
        merged: list[int] = []
        for j in range(len(chain) + copies):
            g = order if j < copies else math.gcd(chain[j - copies], order)
            if g == 1:
                break
            merged.append(math.lcm(chain[j], g) if j < len(chain) else g)
        chain[: len(merged)] = merged
    return InvariantFactors(tuple(chain))


def canonicalize_primary(decomposition: CyclicDecomposition) -> InvariantFactors:
    """Invariant factors via primary decomposition; cross-check for ``canonicalize``.

    The expansion of ``compressed_invariant_form``: equal orders are counted,
    trivial ones dropped, and the resulting runs written out one by one.

    >>> canonicalize_primary(CyclicDecomposition((8, 12, 1))).chain
    (24, 4)
    """
    multiset = Counter(r for r in decomposition.orders if r > 1)
    return InvariantFactors(
        tuple(order for order, run in compressed_invariant_form(multiset) for _ in range(run))
    )


def compressed_invariant_form(multiset: Mapping[int, int]) -> tuple[tuple[int, int], ...]:
    """Invariant factors of a multiset {cyclic order: multiplicity}, run-length encoded.

    Returns (invariant factor, run length) pairs with strictly decreasing
    factors.  Nothing is factored into primes: the distinct orders are refined
    into a pairwise coprime base (``_coprime_base``), and each order is a
    product of powers b**e of base elements.  Every prime of b then occurs in
    that order with e times its exponent in b, so base elements stand in for
    primes.  Per base element, exponent runs are merged and swept from the
    largest down, so multiplicities stay run-length encoded throughout and are
    never expanded.  Orders need not be at most ``MAX_ORDER``.

    >>> compressed_invariant_form({2: 5, 3: 5, 4: 1})
    ((12, 1), (6, 4), (2, 1))
    """
    for order, multiplicity in multiset.items():
        if order < 2 or multiplicity < 1:
            raise ValueError(f"bad multiset entry {order}: {multiplicity}")
    base = _coprime_base(multiset)
    exponent_runs: dict[int, list[list[int]]] = {}
    for order, multiplicity in multiset.items():
        for b in base:
            e = 0
            while order % b == 0:
                order //= b
                e += 1
            if e:
                exponent_runs.setdefault(b, []).append([e, multiplicity])
                if order == 1:
                    break
    runs: dict[int, list[list[int]]] = {}
    for b, pairs in exponent_runs.items():
        pairs.sort(reverse=True)
        merged: list[list[int]] = []
        for e, m in pairs:
            if merged and merged[-1][0] == e:
                merged[-1][1] += m
            else:
                merged.append([e, m])
        runs[b] = merged
    summands: list[tuple[int, int]] = []
    while runs:
        factor = math.prod(b ** pairs[0][0] for b, pairs in runs.items())
        step = min(pairs[0][1] for pairs in runs.values())
        summands.append((factor, step))
        for b in list(runs):
            head = runs[b][0]
            head[1] -= step
            if head[1] == 0:
                runs[b].pop(0)
                if not runs[b]:
                    del runs[b]
    return tuple(summands)


def _coprime_base(numbers: Iterable[int]) -> list[int]:
    """Pairwise coprime b >= 2 such that each of ``numbers`` is a product of powers b**e.

    Factor refinement (Bach, Driscoll and Shallit, J. Algorithms 15, 1993) by
    insertion: a pending x joins the base when it is coprime to every element;
    it is dropped when it equals the first element b it shares a factor with;
    otherwise b leaves the base and g = gcd(b, x), b / g and x / g are pending.
    Each step divides the product of base and pending numbers by x or by g > 1,
    so the loop ends.

    >>> sorted(_coprime_base([12, 18]))
    [2, 3]
    """
    base: list[int] = []
    pending = list(numbers)
    while pending:
        x = pending.pop()
        for i, b in enumerate(base):
            g = math.gcd(b, x)
            if g > 1:
                break
        else:
            base.append(x)
            continue
        if b != x:
            del base[i]
            pending += [y for y in (g, b // g, x // g) if y > 1]
    return base


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of an admissible order, 1 <= n <= MAX_ORDER.

    >>> factorize(360)
    {2: 3, 3: 2, 5: 1}
    """
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"can only factor integers in [1, {MAX_ORDER}], got {n}")
    return trial_division(n)


def trial_division(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of any n >= 1, by trial division on a 6k +- 1 wheel.

    Unbounded: the loop runs up to the larger of the second-largest prime
    factor and the square root of the largest.

    >>> trial_division(2 * 10**12)
    {2: 13, 5: 12}
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    factors: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            while n % p == 0:
                factors[p] = factors.get(p, 0) + 1
                n //= p
        d += 6
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors
