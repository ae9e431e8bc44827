"""Closed-form counts of Hall basic commutators (the Witt necklace formula).

``witt_count(w, q)`` is the number of basic commutators of weight w on an
alphabet of q letters, computed exactly as (1/w) * sum_{d | w} mu(d) * q^(w/d).
The divisibility of the Moebius sum by w is checked, never rounded away; the
enumeration in ``nilmult.hall`` independently confirms the counts in tests.
The terms (mu(d), w/d) come from one factorization of w, and the divisor
lists from the same trial-division loop in ``nilmult.abelian``.
"""

from __future__ import annotations

from .abelian import trial_division


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of n >= 1, built from its prime factorization.

    >>> divisors(12)
    [1, 2, 3, 4, 6, 12]
    """
    result = [1]
    for p, e in trial_division(n).items():
        result = [d * p**k for d in result for k in range(e + 1)]
    return sorted(result)


def _moebius_terms(weight: int) -> list[tuple[int, int]]:
    """The nonzero terms (mu(d), weight // d) of the Witt sum, over d | weight.

    One factorization of the weight: each prime p doubles the terms so far,
    adding (-mu, exponent // p) for every (mu, exponent) already present.
    """
    terms = [(1, weight)]
    for p in trial_division(weight):
        terms += [(-mu, exponent // p) for mu, exponent in terms]
    return terms


def _witt_sum(terms: list[tuple[int, int]], weight: int, letters: int) -> int:
    total = sum(mu * letters**exponent for mu, exponent in terms)
    if total % weight:
        raise ArithmeticError(
            f"Moebius sum {total} for weight {weight} on {letters} letters "
            f"is not divisible by {weight}"
        )
    return total // weight


def witt_count(weight: int, letters: int) -> int:
    """Number of basic commutators of the given weight on `letters` letters.

    Exact for any size; the intermediate sum must be divisible by the weight
    (a theorem), and a violation raises instead of truncating.

    >>> witt_count(2, 3)
    3
    >>> witt_count(6, 4)
    670
    """
    if weight < 1:
        raise ValueError(f"weight must be >= 1, got {weight}")
    if letters < 0:
        raise ValueError(f"letters must be >= 0, got {letters}")
    return _witt_sum(_moebius_terms(weight), weight, letters)


def b_sequence(nilpotency_class: int, rank: int) -> tuple[int, ...]:
    """The counts b_i = witt_count(class + 1, i) for i = 1..rank.

    The weight is factored once; each count keeps its own divisibility check.

    >>> b_sequence(1, 4)
    (0, 1, 3, 6)
    """
    if nilpotency_class < 1:
        raise ValueError(f"nilpotency class must be >= 1, got {nilpotency_class}")
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    weight = nilpotency_class + 1
    terms = _moebius_terms(weight)
    return tuple(_witt_sum(terms, weight, i) for i in range(1, rank + 1))
