"""Closed-form counts of Hall basic commutators (the Witt necklace formula).

``witt_count(w, q)`` is the number of basic commutators of weight w on an
alphabet of q letters, computed exactly as (1/w) * sum_{d | w} mu(d) * q^(w/d).
The divisibility of the Moebius sum by w is checked, never rounded away; the
enumeration in ``nilmult.hall`` independently confirms the counts in tests.
The terms (mu(d), w/d) come from one factorization of w, and the divisor
lists from the same trial-division loop in ``nilmult.abelian``.

``decimal_counts`` evaluates the same terms and the same checked sum in exact
``decimal.Decimal`` arithmetic, inside ``exact_context()``.  str() of a
Decimal integer is its digits, so a count is printed without a conversion
from binary; past about 30,000 bits libmpdec's powers cost less than that
conversion.  ``decimal`` is imported only when such a count is asked for.
"""

from __future__ import annotations

from collections.abc import Iterable

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


def _witt_sum(terms: list[tuple[int, int]], weight: int, letters):
    """(1/weight) * sum of mu * letters**exponent over the terms, checked exact.

    ``letters`` is an int, or a ``decimal.Decimal`` integer inside
    ``exact_context()``; the sum has the same type.
    """
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


def exact_context():
    """A ``decimal`` context in which integer arithmetic is exact or raises.

    Full precision and exponent range, with ``Inexact`` trapped on top of the
    default traps.  Enter it with ``decimal.localcontext(exact_context())``,
    which leaves the caller's context unchanged.
    """
    import decimal

    return decimal.Context(
        prec=decimal.MAX_PREC,
        Emax=decimal.MAX_EMAX,
        Emin=decimal.MIN_EMIN,
        traps=[decimal.InvalidOperation, decimal.DivisionByZero,
               decimal.Overflow, decimal.Inexact],
    )


def decimal_counts(weight: int, letters: Iterable[int]) -> list:
    """``witt_count(weight, q)`` for each q in ``letters``, as exact ``decimal.Decimal``.

    The same terms and the same checked sum as ``witt_count``; the caller's
    ``decimal`` context is left unchanged.  Arithmetic on the results is exact
    only inside ``exact_context()``.

    >>> [str(count) for count in decimal_counts(6, [2, 4])]
    ['9', '670']
    """
    import decimal

    if weight < 1:
        raise ValueError(f"weight must be >= 1, got {weight}")
    terms = _moebius_terms(weight)
    with decimal.localcontext(exact_context()):
        counts = []
        for q in letters:
            if q < 0:
                raise ValueError(f"letters must be >= 0, got {q}")
            counts.append(_witt_sum(terms, weight, decimal.Decimal(q)))
        return counts
