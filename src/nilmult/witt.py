"""Closed-form counts of Hall basic commutators (the Witt necklace formula).

``witt_count(w, q)`` is the number of basic commutators of weight w on an
alphabet of q letters, computed exactly as (1/w) * sum_{d | w} mu(d) * q^(w/d).
The divisibility of the Moebius sum by w is checked, never rounded away; the
enumeration in ``nilmult.hall`` independently confirms the counts in tests.
The terms (mu(d), w/d) come from one factorization of w, and the divisor
lists from the same trial-division loop in ``nilmult.abelian``.

All counts come from one routine, ``_witt_sums``, which evaluates the sum for
several letter counts at once and shares the powers among them.  It makes
the powers q^e one exponent at a time, the half of an exponent before the
exponent, and keeps only the previous exponent's powers.  A power is made
from one it already holds when that is cheaper than raising q afresh:
q = m^2 is (m^e)^2, and q^e is (q^(e/2))^2 when e/2 was the previous
exponent.  On no letter or one, the count is the letter count at weight 1
and 0 past it, made without the terms, so a huge weight is not factored
there.

One rule, ``_small``, picks ints or exact decimal, and only this module
reads it: the table b_1..b_k of weight w is small when k * ``count_bits(w, k)``
is at most ``_TABLE_MEMO_BITS`` (1,024 bits).  ``_witt_counts`` gives the
counts on any increasing positive letter counts, such as the run ends of an
invariant-factor chain that the closed form needs.  A small table it keeps
in a bounded per-process cache, keyed by (weight, k), and reads at the
letter counts, so the formula makes it once for all the queries of one
shape; past it, it evaluates the counts asked for on every call.
``b_sequence`` is ``_witt_counts`` at 1..k.  Only the difference b_t - b_s
of two counts is ever printed, by ``_kept_digits``, with b_0 = 0: from a
small table, as the ``str()`` of the int difference; past it, from exact
decimal.  ``_decimal_sums`` evaluates the same terms and the same checked
sums, with the same routine, in exact ``decimal.Decimal`` arithmetic inside
``exact_context()``, and checks each count against the same sum evaluated
modulo a prime, ``_CHECK_PRIME``.  str() of a Decimal integer is its digits,
so a count is printed without a conversion from binary.  ``decimal`` is
imported only when such a count is asked for.  ``_kept_digits`` keeps the
digits of each such difference in one per-process store, keyed by
(weight, s, t), so a query that repeats one does no Decimal arithmetic.  No
Decimal and no int is kept there.

The store keeps a digit string only after its checks pass: divisibility by
the weight, and the residue of each count modulo ``_CHECK_PRIME``.  A string
is charged 8 bits per character.  The store holds at most ``_KEPT_BITS``
(4 MiB) by that charge, drops the least recently used entry first, never
keeps one above that budget, and keeps none charged ``_TABLE_MEMO_BITS`` or
fewer, which cost less to evaluate again.  One lock guards it; the counts
are evaluated outside it.

Every public function here checks its int arguments where they enter, by the
package's one rule (``abelian._check_ints``: ints, not bools, each at least a
bound).  The private cores, ``_witt_counts`` and ``_kept_digits``, take
arguments already checked, as the multiplier passes them.
"""

from __future__ import annotations

import _thread
import functools
import math
import operator
from collections import OrderedDict
from collections.abc import Sequence

from .abelian import _check_ints, trial_division


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of n >= 1, built from its prime factorization.

    ``trial_division`` checks n.

    >>> divisors(12)
    [1, 2, 3, 4, 6, 12]
    """
    result = [1]
    for p, e in trial_division(n).items():
        result = [d * p**k for d in result for k in range(e + 1)]
    return sorted(result)


@functools.lru_cache(maxsize=256)
def _moebius_terms(weight: int) -> tuple[tuple[int, int], ...]:
    """The nonzero terms (mu(d), weight // d) of the Witt sum, over d | weight.

    One factorization of the weight: each prime p doubles the terms so far,
    adding (-mu, exponent // p) for every (mu, exponent) already present.
    The primes come in increasing order, so p = 2 puts each exponent's half
    right after it; the terms are returned in reverse, each half first.
    ``trial_division`` checks the weight, once per weight, as the terms are
    cached.
    """
    terms = [(1, weight)]
    for p in trial_division(weight):
        terms += [(-mu, exponent // p) for mu, exponent in terms]
    return tuple(reversed(terms))


# How _witt_sums makes a power; see _recipes.
_SQUARE, _RAISE = 0, 1


def _witt_sums(weight: int, letters: Sequence[int], number=int) -> list:
    """``witt_count(weight, q)`` for each q in ``letters``, each sum checked exact.

    ``letters`` is a sequence of distinct nonnegative ints in
    increasing order, such as a tuple or a range; the counts come as
    ``number``: ``int``, or ``decimal.Decimal`` inside ``exact_context()``.
    The powers are made one exponent at a time, as ``_recipes`` says, and
    only the previous exponent's powers are kept.  On no letter or one, every
    power of q is q and the Moebius coefficients add up to 0 past weight 1, so
    the count is q at weight 1 and 0 past it, and the weight is not factored.
    """
    if all(q <= 1 for q in letters):
        return [number(q if weight == 1 else 0) for q in letters]
    recipes = _recipes(letters, number)
    totals = None
    previous_exponent, previous = 0, []
    for mu, exponent in _moebius_terms(weight):
        halve = exponent == 2 * previous_exponent
        level: list = []
        for rule, operand in recipes:
            if rule == _SQUARE:
                power = level[operand] * level[operand]
            elif halve:
                power = previous[len(level)] * previous[len(level)]
            else:
                power = operand**exponent
            level.append(power)
        if totals is None:
            totals = level if mu > 0 else list(map(operator.neg, level))
        else:
            totals = list(map(operator.add if mu > 0 else operator.sub, totals, level))
        previous_exponent, previous = exponent, level
    counts = []
    for q, total in zip(letters, totals):
        count, remainder = divmod(total, weight)
        if remainder:
            raise ArithmeticError(
                f"the Moebius sum for weight {weight} on {q} letters "
                f"is not divisible by {weight}"
            )
        counts.append(count)
    return counts


def _recipes(letters: Sequence[int], number) -> tuple[tuple, ...]:
    """How ``_witt_sums`` makes q**e for each q in ``letters``, at every exponent e.

    - ``(_SQUARE, i)``: q = m**2, with m >= 2 letter i, is (m**e)**2;
    - ``(_RAISE, number(q))``: q**e, or (q**(e/2))**2 when e / 2 is the
      previous exponent.
    """
    position = {q: i for i, q in enumerate(letters)}
    recipes = []
    for q in letters:
        root = math.isqrt(q)
        if root > 1 and root * root == q and root in position:
            recipes.append((_SQUARE, position[root]))
        else:
            recipes.append((_RAISE, number(q)))
    return tuple(recipes)


def witt_count(weight: int, letters: int) -> int:
    """Number of basic commutators of the given weight on `letters` letters.

    Exact for any size; the intermediate sum must be divisible by the weight
    (a theorem), and a violation raises instead of truncating.

    >>> witt_count(2, 3)
    3
    >>> witt_count(6, 4)
    670
    """
    _check_ints([weight], "weight", 1)
    _check_ints([letters], "letters", 0)
    return _witt_sums(weight, (letters,))[0]


def count_bits(weight: int, letters: int) -> int:
    """A bound on the bits of ``witt_count(weight, q)`` for every q <= ``letters``.

    The count is below q**weight <= 2**(weight * bit_length(letters - 1)), so
    it has at most that many bits; the estimate is 0 for a single letter.
    This one estimate sizes the counts the command line refuses, and the
    tables ``_small`` admits: the ones ``_small_table`` keeps, whose ints
    ``_kept_digits`` prints.

    >>> count_bits(6, 4)
    12
    """
    return weight * max(letters - 1, 0).bit_length()


# A table b_1..b_k is small if its counts take at most this many bits by the
# estimate k * count_bits(weight, k): the small (class, rank) shapes that
# sweeps and `--method both` queries repeat, on at most 73 letters, so that
# 256 kept tables hold under a megabyte.  A small table is made as ints and
# kept; past it _kept_digits prints from exact decimal (_small).  For a deep
# one, such as class 1000 on rank 2 (2002 bits), _witt_counts evaluates only
# the counts asked for.
_TABLE_MEMO_BITS = 1024


def _small(weight: int, rank: int) -> bool:
    """Whether the table b_1..b_rank of this weight is small: the one rule for ints or exact decimal.

    At most ``_TABLE_MEMO_BITS`` by the estimate rank * ``count_bits``,
    ``_small_table`` keeps the table, ``_witt_counts`` reads its ints and
    ``_kept_digits`` prints their differences by ``str()``; past it,
    ``_witt_counts`` evaluates the counts asked for, and ``_kept_digits``
    prints exact-decimal digits, which it keeps.
    """
    return rank * count_bits(weight, rank) <= _TABLE_MEMO_BITS


def _witt_counts(weight: int, letters: Sequence[int]) -> list[int]:
    """``witt_count(weight, q)`` for each q in ``letters``, increasing and positive, unchecked.

    When the table on 1..k letters, k the largest, is small (``_small``), it
    is made once per process for each (weight, k), kept in a bounded cache,
    and read at ``letters``; otherwise only the counts asked for are
    evaluated, with their powers shared, and nothing is kept.
    """
    rank = letters[-1]
    if _small(weight, rank):
        table = _small_table(weight, rank)
        return [table[q - 1] for q in letters]
    return _witt_sums(weight, letters)


# Bounded and thread-safe, like hall.letter_profile.
@functools.lru_cache(maxsize=256)
def _small_table(weight: int, rank: int) -> tuple[int, ...]:
    return tuple(_witt_sums(weight, range(1, rank + 1)))


# The store's budget, by its charge: 4 MiB of digits.  A formula-deep pass
# keeps 120 digit strings, charged about 12 Mbit.  An entry charged at most
# _TABLE_MEMO_BITS is not kept: it costs less to evaluate again.  So the
# store has at most 2**25 / 1024 entries.
_KEPT_BITS = 2**25


class _Kept:
    """The checked digits of b_t - b_s by (weight, s, t).

    The least recently used entry comes first.  ``bits`` is their total
    charge, 8 bits per character, at most ``_KEPT_BITS``.  One lock guards
    the store, so threads share it.
    """

    def __init__(self) -> None:
        self.counts: OrderedDict[tuple, str] = OrderedDict()
        self.bits = 0
        self._lock = _thread.allocate_lock()

    def get(self, keys: list[tuple]) -> list:
        """The digits kept under each key, or None; each one found becomes the most recent."""
        with self._lock:
            found = [self.counts.get(key) for key in keys]
            for key, value in zip(keys, found):
                if value is not None:
                    self.counts.move_to_end(key)
        return found

    def keep(self, key: tuple, digits: str) -> None:
        """Keep checked digits, dropping the least recently used entries past the budget."""
        bits = 8 * len(digits)
        if not _TABLE_MEMO_BITS < bits <= _KEPT_BITS:
            return
        with self._lock:
            if key in self.counts:  # another thread kept it first
                return
            self.counts[key] = digits
            self.bits += bits
            while self.bits > _KEPT_BITS:
                self.bits -= 8 * len(self.counts.popitem(last=False)[1])


_kept = _Kept()


def _kept_digits(weight: int, pairs: Sequence[tuple[int, int]]) -> list[str]:
    """The digits of b_t - b_s, b_q = ``witt_count(weight, q)``, for each (s, t) in ``pairs``.

    Each pair has 0 <= s <= t, and b_0 = 0, so (0, 0) gives "0"; the last
    pair's t is the largest, the rank of the table ``_small`` judges.  A
    small table is read from ``_small_table`` and each difference printed by
    ``str()``.  Past it, the digits are read from ``_kept``; for the pairs
    not kept, the Decimal counts at their ends are evaluated together and
    checked by ``_decimal_sums``, and each difference's digits are kept.
    """
    rank = pairs[-1][1]
    if _small(weight, rank):
        table = (0, *_small_table(weight, rank))
        return [str(table[t] - table[s]) for s, t in pairs]
    keys = [(weight, s, t) for s, t in pairs]
    digits = _kept.get(keys)
    # the ends, but 0, of the pairs not kept: empty only if every pair is kept
    ends = sorted({q for pair, text in zip(pairs, digits) if text is None for q in pair if q})
    if ends:
        import decimal

        with decimal.localcontext(exact_context()):
            counts = dict(zip((0, *ends), (0, *_decimal_sums(weight, ends))))
            for i, (s, t) in enumerate(pairs):
                if digits[i] is None:
                    digits[i] = str(counts[t] - counts[s])
                    _kept.keep(keys[i], digits[i])
    return digits


def b_sequence(nilpotency_class: int, rank: int) -> tuple[int, ...]:
    """The counts b_i = witt_count(class + 1, i) for i = 1..rank.

    ``_witt_counts`` at 1..rank: a small table is made once per process and
    kept; a larger one is evaluated on every call.

    >>> b_sequence(1, 4)
    (0, 1, 3, 6)
    """
    _check_ints([nilpotency_class], "nilpotency class", 1)
    _check_ints([rank], "rank", 1)
    return tuple(_witt_counts(nilpotency_class + 1, range(1, rank + 1)))


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


# A Witt count evaluated in exact decimal must equal the same Witt sum
# evaluated modulo this prime (2**61 - 1); the check is linear in the digits.
_CHECK_PRIME = 2**61 - 1


def _decimal_sums(weight: int, letters: Sequence[int]) -> list:
    """``_witt_sums`` as exact Decimals, each also checked modulo ``_CHECK_PRIME``.

    ``letters`` is what ``_witt_sums`` takes, and the counts come in its
    order.  weight * count must equal the Moebius sum evaluated modulo
    ``_CHECK_PRIME``, or ``ArithmeticError`` is raised.  Nothing is kept.
    The caller's ``decimal`` context is left unchanged; arithmetic on the
    results is exact only inside ``exact_context()``.
    """
    import decimal

    with decimal.localcontext(exact_context()):
        counts = _witt_sums(weight, letters, decimal.Decimal)
        for q, count in zip(letters, counts):
            if q == 1:
                continue  # made without the terms, which would factor the weight
            # the same terms with every power taken modulo the prime: a few
            # modular powers per count, linear in its digits
            terms = _moebius_terms(weight)
            residue = sum(mu * pow(q, e, _CHECK_PRIME) for mu, e in terms) % _CHECK_PRIME
            if int(count % _CHECK_PRIME) * weight % _CHECK_PRIME != residue:
                raise ArithmeticError(
                    f"the decimal Witt count on {q} letters disagrees "
                    f"with its Witt sum modulo {_CHECK_PRIME}"
                )
    return counts
