"""Closed-form counts of Hall basic commutators (the Witt necklace formula).

``witt_count(w, q)`` is the number of basic commutators of weight w on an
alphabet of q letters, computed exactly as (1/w) * sum_{d | w} mu(d) * q^(w/d).
The divisibility of the Moebius sum by w is checked, never rounded away; the
enumeration in ``nilmult.hall`` independently confirms the counts in tests.
The Moebius function and the divisor lists derive from the one trial-division
loop in ``nilmult.abelian``.
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


def moebius(n: int) -> int:
    """Moebius function mu(n) in {-1, 0, 1} for n >= 1, from its prime factorization.

    >>> [moebius(n) for n in (1, 2, 4, 6, 12, 30)]
    [1, -1, 0, 1, 0, -1]
    """
    exponents = trial_division(n).values()
    if max(exponents, default=1) > 1:
        return 0
    return -1 if len(exponents) % 2 else 1


def _moebius_terms(weight: int) -> list[tuple[int, int]]:
    """The nonzero terms (mu(d), weight // d) of the Witt sum, over d | weight."""
    return [(mu, weight // d) for d in divisors(weight) if (mu := moebius(d))]


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
