"""Nilpotent Schur multipliers of finite abelian groups, two independent ways.

``nilpotent_multiplier`` evaluates the closed form: for a group with invariant
factors n_1, ..., n_k and class c, the multiplier is the direct sum over
i = 2..k of (b_i - b_{i-1}) copies of Z_{n_i}, where b_i counts basic
commutators of weight c+1 on i letters.  Over a run of equal factors n that
ends at position t, after a run that ended at s, the sum telescopes to
b_t - b_s copies of Z_n, so the formula evaluates one Witt count per run
(``witt._witt_counts`` at the run ends), with b_1 = 0.  A small table of
counts is kept per process; a larger one is evaluated on every call.

``tensor_oracle`` recomputes the same group from first principles: each
basic commutator of weight c+1 on the given cyclic factors contributes the
cyclic group of order gcd(orders of its letters).  It reads the orders as
the decomposition counted them when it was built
(``CyclicDecomposition.copies``, which ``canonicalize`` reads too).  With
the commutators per letter set from ``hall.letter_profile``, it counts, per
element of a coprime base (2 and a coprime base of the orders' odd parts),
the commutators whose letters all reach each exponent, between
``abelian._exponent_counts`` and ``abelian._event_walk``; each such total, a
function of the profile and the letters alone, is kept per process.  It
expands no letter set or gcd and splits off only the power of two, read from
the bits, of each order.
``verify`` runs the oracle first, whose cap refuses a query before any
other work, then canonicalizes the input once, runs the formula and compares.
A result's value is its summands, which are always ints.  Its text is the
command line's job, but the digits come from here: ``summand_digits`` renders
a result's orders and multiplicities through ``decimal_str``, the one writer
of an int of any size, which every value's repr uses too.
``formula_digits`` makes the closed form's digits without a result, and
``witt_count_digits`` a count's, each on one path: both ask
``witt._kept_digits`` for the digits of differences b_t - b_s, and the
``witt`` module alone decides between ints and exact decimal.  Each
multiplicity b_t - b_s depends only on the weight and its run's ends s and
t (s = 0 for the first run, as b_0 = b_1 = 0 past weight 1), and
``witt_count_digits`` asks for b_q as (0, q).  A small table of Witt counts
(at most 1,024 bits by its estimate) gives the ints' plain ``str()``.  Past
it, the digits are kept in one per-process store under (weight, s, t); on a
miss, ``witt._kept_digits`` evaluates the Witt counts at the run ends as
exact ``decimal.Decimal`` integers (``witt._decimal_sums``, each checked
against the same sum modulo a prime), whose digits need no conversion from
binary, and keeps the digits of their differences.  A repeated query does no
Decimal arithmetic and renders no multiplicity.  No int multiplicity is ever
split: a small table's counts are far below ``_STR_MAX_BITS``, where
``decimal_str`` stops being plain ``str()``.  str() of a Decimal integer
costs a fifth of ``decimal_str`` of the same int just past that bound, and
a fiftieth at 30,000 bits (CPython 3.11, x86-64).
"""

from __future__ import annotations

import functools
from collections.abc import Iterable
from math import comb

from .abelian import (
    CyclicDecomposition,
    InvariantFactors,
    _check_ints,
    _Value,
    _event_walk,
    _exponent_counts,
    canonicalize,
)
from .hall import letter_profile
from .witt import _kept_digits, _witt_counts, exact_context

# multiplier_order gives the exact order only up to this many decimal digits;
# beyond it, callers fall back to the factored form.
DIGIT_LIMIT = 10**4
_DECIMAL_BOUND = 10**DIGIT_LIMIT  # the least integer with DIGIT_LIMIT + 1 digits
_DECIMAL_BOUND_BITS = _DECIMAL_BOUND.bit_length()  # 2**this > _DECIMAL_BOUND


# decimal_str's three methods, chosen by bit length.  2048 bits is at most
# 617 digits, under 640, the smallest int-to-str digit limit Python allows, so
# str() never trips the limit here.  Splitting by powers of ten beats the
# Decimal route up to about 65,000 bits (measured on CPython 3.11, x86-64).
_STR_MAX_BITS = 2048
_TENS_MAX_BITS = 65_000
_TENS_LEAF_DIGITS = 600
_DECIMAL_LEAF_BITS = 1024


def decimal_str(value: int) -> str:
    """The decimal digits of ``value``, exactly as ``str(value)`` would give them.

    Works for integers of any size, independent of the interpreter's
    int-to-str digit limit, and changes no interpreter state: neither that
    limit nor the calling thread's ``decimal`` context.  Time is subquadratic
    in the digit count for large values.

    >>> decimal_str(-120)
    '-120'
    """
    if value >= 0 and value.bit_length() <= _STR_MAX_BITS:
        return str(value)
    if value < 0:
        return "-" + decimal_str(-value)
    bits = value.bit_length()
    if bits <= _TENS_MAX_BITS:
        # log10(2) < 0.30103, so value < 10**digits
        digits = bits * 30103 // 100000 + 1
        level = ((digits - 1) // _TENS_LEAF_DIGITS).bit_length()
        return _split_by_tens(value, level)
    return _split_by_twos(value)


@functools.cache
def _ten_power(level: int) -> int:
    """10 ** (_TENS_LEAF_DIGITS * 2**level); the levels in use are a handful."""
    return 10 ** (_TENS_LEAF_DIGITS << level)


def _split_by_tens(value: int, level: int) -> str:
    """Digits of 0 <= value < _ten_power(level), without leading zeros."""
    if level == 0:
        return str(value)
    high, low = divmod(value, _ten_power(level - 1))
    low_text = _split_by_tens(low, level - 1)
    if not high:
        return low_text
    return _split_by_tens(high, level - 1) + low_text.zfill(_TENS_LEAF_DIGITS << (level - 1))


def _split_by_twos(value: int) -> str:
    """Digits of value >= 0 by CPython 3.12's ``_pylong.int_to_decimal`` method.

    Split by powers of two down to 1024-bit leaves, convert each leaf with
    ``Decimal(int)`` (which reads the int's limbs, not its digits), and
    recombine with exact Decimal arithmetic, which multiplies big operands
    subquadratically, in a thread-local ``exact_context()``.
    """
    # Imported here: a CLI run that never renders a huge integer should not
    # pay the import at start-up.
    import decimal

    powers: dict[int, decimal.Decimal] = {}

    def two_power(width: int) -> decimal.Decimal:
        result = powers.get(width)
        if result is None:
            if width <= _DECIMAL_LEAF_BITS:
                result = decimal.Decimal(1 << width)
            elif width - 1 in powers:
                result = powers[width - 1] * 2
            else:
                half = width >> 1
                # the smaller half first, so the larger is one doubling away
                result = two_power(half) * two_power(width - half)
            powers[width] = result
        return result

    def convert(n: int, width: int) -> decimal.Decimal:
        if width <= _DECIMAL_LEAF_BITS:
            return decimal.Decimal(n)
        half = width >> 1
        high = n >> half
        low = n - (high << half)
        return convert(low, half) + convert(high, width - half) * two_power(half)

    with decimal.localcontext(exact_context()):
        return str(convert(value, value.bit_length()))


class MultiplierResult(_Value):
    """A finite abelian group in compressed invariant-factor form.

    ``summands`` lists (order, multiplicity) pairs with strictly decreasing
    orders, each dividing its predecessor; multiplicities are exact integers
    and can be astronomically large.  The empty tuple is the trivial group.
    The constructor copies any iterable of pairs into a tuple of tuples.

    >>> MultiplierResult([[4, 1], [2, 3]]).summands
    ((4, 1), (2, 3))
    """

    __slots__ = __match_args__ = ("summands",)
    summands: tuple[tuple[int, int], ...]

    def __init__(self, summands: Iterable[tuple[int, int]]) -> None:
        summands = tuple((order, multiplicity) for order, multiplicity in summands)
        orders = [order for order, _ in summands]
        _check_ints(orders, "summand order", 2)
        _check_ints([multiplicity for _, multiplicity in summands], "summand multiplicity", 1)
        for previous, order in zip(orders, orders[1:]):
            if previous <= order or previous % order:
                raise ValueError(
                    f"summand orders must strictly decrease along a divisibility "
                    f"chain; got {decimal_str(previous)} then {decimal_str(order)}"
                )
        object.__setattr__(self, "summands", summands)

    def _value(self) -> tuple:
        return (self.summands,)


def nilpotent_multiplier(group: InvariantFactors, nilpotency_class: int) -> MultiplierResult:
    """Closed-form multiplier of the group for the given nilpotency class.

    >>> nilpotent_multiplier(InvariantFactors((12, 6, 2)), 1).summands
    ((6, 1), (2, 2))
    """
    _check_ints([nilpotency_class], "nilpotency class", 1)
    chain = group.chain
    if len(chain) <= 1:
        return MultiplierResult._derived(())
    ends = _run_ends(chain)  # increasing and positive, so passed unchecked
    counts = _witt_counts(nilpotency_class + 1, ends)
    # (n_t, b_t - b_s) for each run end t, where s is the previous end; the
    # first run's b_s is b_1 = 0, since a single letter carries no commutator
    # of weight class + 1 >= 2.  Each difference is at least 1: the Hall basis
    # on t letters strictly contains the one on s.
    return MultiplierResult._derived(tuple([
        (chain[t - 1], count - previous) for t, count, previous in zip(ends, counts, (0, *counts))
    ]))


def _run_ends(chain: tuple[int, ...]) -> tuple[int, ...]:
    """The last 1-based position t >= 2 of each run of equal entries of a chain of k >= 2.

    The last run end is k.  A first entry unlike the second ends no run here:
    its position 1 has no summand.
    """
    k = len(chain)
    return (*[t for t in range(2, k) if chain[t - 1] != chain[t]], k)


def summand_digits(result: MultiplierResult) -> list[tuple[str, str]]:
    """The decimal digits of each summand's (order, multiplicity), in order, by ``decimal_str``.

    >>> summand_digits(nilpotent_multiplier(InvariantFactors((12, 6, 2)), 1))
    [('6', '1'), ('2', '2')]
    """
    return [(decimal_str(order), decimal_str(mult)) for order, mult in result.summands]


def formula_digits(
    group: InvariantFactors, nilpotency_class: int
) -> tuple[list[tuple[str, str]], int | None]:
    """``summand_digits`` and ``multiplier_order`` of ``nilpotent_multiplier(group, class)``.

    No result is made: the digits of each multiplicity b_t - b_s, s = 0 for
    the first run, come from ``witt._kept_digits`` all at once, which alone
    decides between a small table's ints and checked exact-decimal digits
    it keeps.  The caller's ``decimal`` context is left unchanged.  The
    class is checked by ``_check_ints``; the pairs of run ends built from
    the chain go to ``witt._kept_digits`` unchecked.

    >>> formula_digits(InvariantFactors((12, 6, 2)), 1)
    ([('6', '1'), ('2', '2')], 24)
    """
    _check_ints([nilpotency_class], "nilpotency class", 1)
    chain = group.chain
    if len(chain) <= 1:
        return [], 1
    ends = _run_ends(chain)  # increasing and positive, so passed unchecked
    mults = _kept_digits(nilpotency_class + 1, list(zip((0, *ends), ends)))
    orders = [chain[t - 1] for t in ends]
    digits = list(zip(map(decimal_str, orders), mults))
    # A multiplicity with more digits than _DECIMAL_BOUND_BITS (33,220: five)
    # is at least 10**5 summands, each of order at least 2, so the order is
    # past 2**_DECIMAL_BOUND_BITS: None.  Otherwise each is a small int.
    if any(len(mult) > len(str(_DECIMAL_BOUND_BITS)) for mult in mults):
        return digits, None
    return digits, multiplier_order(MultiplierResult._derived(tuple(zip(orders, map(int, mults)))))


def witt_count_digits(weight: int, letters: int) -> str:
    """The decimal digits of the Witt count b_q of this weight on q = ``letters`` letters.

    b_q - b_0 by ``witt._kept_digits``: a small table's int is printed by
    ``str()``; past it the digits are read from the store under
    (weight, 0, letters), or evaluated in exact decimal, checked, and kept.
    No letter is the pair (0, 0), "0".  The weight (at least 1) and the
    letters (at least 0) are checked by ``_check_ints``.

    >>> witt_count_digits(6, 4)
    '670'
    """
    _check_ints([weight], "weight", 1)
    _check_ints([letters], "letters", 0)
    return _kept_digits(weight, [(0, letters)])[0]


def tensor_oracle(
    decomposition: CyclicDecomposition, nilpotency_class: int
) -> MultiplierResult:
    """Multiplier recomputed from the basic commutators themselves.

    Works on any decomposition, canonical or not; each basic commutator of
    weight class+1 contributes the cyclic group of order gcd of the orders of
    its letters, so factors of order 1 are not letters: the oracle reads the
    decomposition's ``copies``, which counts the orders above 1.  Every
    k-letter set carries p_k commutators (``letter_profile``), so any m
    letters carry T(m) = sum_k p_k * C(m, k) (``_letter_total``, evaluated
    once per process for each profile and m).  Over one coprime base of the
    distinct orders (2 and a coprime base of their odd parts), a set's gcd
    has exponent e or more of a base element b exactly when all its letters
    have, so if N letters reach e and N' exceed it, T(N) - T(N') summands
    have exponent e of b; a base element with one exponent takes T(N)
    directly.  The work follows the distinct orders and their base, not the
    letters.  Raises ``CapExceeded`` when the enumeration would be too
    large; ``nilpotent_multiplier`` is not capped.
    """
    _check_ints([nilpotency_class], "nilpotency class", 1)
    copies = decomposition.copies
    if not copies:
        return MultiplierResult._derived(())
    profile = letter_profile(nilpotency_class + 1, sum(copies.values()))
    counts = _exponent_counts(copies)
    for runs in counts.values():
        at_least = below = 0  # letters with exponent >= e of b; commutators on them
        for e in runs if len(runs) == 1 else sorted(runs, reverse=True):
            at_least += runs[e]
            total = _letter_total(profile, at_least)
            runs[e], below = total - below, total
    return MultiplierResult._derived(_event_walk(counts))


# Bounded and thread-safe, as letter_profile's cache is.  A profile depends
# only on the weight and, below the weight, on the letters; under the cap
# every total is at most ENUM_CAP, so an entry is small.
@functools.lru_cache(maxsize=1024)
def _letter_total(profile: tuple[int, ...], letters: int) -> int:
    """T(letters) = sum_k p_k * C(letters, k): the commutators on ``letters`` letters.

    ``profile`` is a ``letter_profile`` on at least ``letters`` letters, so T
    is counted off the Hall recursion, never taken from the Witt formula.
    """
    return sum(p * comb(letters, k) for k, p in enumerate(profile, 1))


def multiplier_order(result: MultiplierResult) -> int | None:
    """Order of the multiplier, or None when it has more than ``DIGIT_LIMIT`` digits.

    >>> multiplier_order(nilpotent_multiplier(InvariantFactors((12, 6, 2)), 1))
    24
    """
    summands = result.summands
    # An order n is at least 2**(n.bit_length() - 1), so the order of the
    # multiplier is at least 2**floor_bits: at _DECIMAL_BOUND_BITS or more it
    # is above the bound, and nothing is multiplied.  Below it, every order is
    # at least 2 and so adds at least its multiplicity to floor_bits, and the
    # product has fewer than 2 * _DECIMAL_BOUND_BITS bits.
    floor_bits = sum(mult * (order.bit_length() - 1) for order, mult in summands)
    if floor_bits >= _DECIMAL_BOUND_BITS:
        return None
    value = 1
    for order, mult in summands:
        value *= order**mult
    return value if value < _DECIMAL_BOUND else None


class VerificationReport(_Value):
    """Both computation routes for one input, the verdict, and the input's chain.

    The constructor raises ``TypeError`` unless ``formula`` and ``oracle``
    are ``MultiplierResult`` values, ``equal`` a bool and ``group`` an
    ``InvariantFactors``; it does not compare the routes again.
    """

    __slots__ = __match_args__ = ("formula", "oracle", "equal", "group")
    formula: MultiplierResult
    oracle: MultiplierResult
    equal: bool
    group: InvariantFactors

    def __init__(
        self,
        formula: MultiplierResult,
        oracle: MultiplierResult,
        equal: bool,
        group: InvariantFactors,
    ) -> None:
        kinds = (MultiplierResult, MultiplierResult, bool, InvariantFactors)
        for name, value, kind in zip(self.__slots__, (formula, oracle, equal, group), kinds):
            if not isinstance(value, kind):
                raise TypeError(
                    f"{name} must be of type {kind.__name__}, got {type(value).__name__}"
                )
            object.__setattr__(self, name, value)

    def _value(self) -> tuple:
        return (self.formula, self.oracle, self.equal, self.group)


def verify(
    decomposition: CyclicDecomposition, nilpotency_class: int
) -> VerificationReport:
    """Run the closed form and the commutator oracle and compare them.

    The oracle runs first, so a query over its cap raises ``CapExceeded``
    before the input is canonicalized or the formula evaluates a count.  The
    verdict is expected to be equal on every valid input; anything else
    means an implementation bug, not a property of the input.
    """
    oracle = tensor_oracle(decomposition, nilpotency_class)
    group = canonicalize(decomposition)
    formula = nilpotent_multiplier(group, nilpotency_class)
    return VerificationReport._derived(formula, oracle, formula == oracle, group)
