"""Nilpotent Schur multipliers of finite abelian groups, two independent ways.

``nilpotent_multiplier`` evaluates the closed form: for a group with invariant
factors n_1, ..., n_k and class c, the multiplier is the direct sum over
i = 2..k of (b_i - b_{i-1}) copies of Z_{n_i}, where b_i counts basic
commutators of weight c+1 on i letters.

``tensor_oracle`` recomputes the same group from first principles: each
basic commutator of weight c+1 on the given cyclic factors contributes the
cyclic group of order gcd(orders of its letters).  With the commutators per
letter set from ``hall.letter_profile``, it counts, per element of a coprime
base, the commutators whose letters all reach each exponent, between the two
steps of ``abelian.compressed_invariant_form``; it expands no letter set or
gcd and factors no integer into primes.
``verify`` canonicalizes the input once, runs both and compares.  A result's
value is its summands.  Its text is the command line's job, but the digits
come from here, made only when ``summand_digits`` asks for them: orders go
through ``decimal_str``, and so do multiplicities, unless the largest Witt
count of a formula result passes ``_EXACT_DECIMAL_BITS``.  Then the counts of
the chain and class the result carries are evaluated a second time as exact
``decimal.Decimal`` integers, whose digits need no conversion from binary,
and each multiplicity is checked against its int twin.
"""

from __future__ import annotations

import functools
from collections import Counter
from math import comb

from .abelian import (
    CyclicDecomposition,
    InvariantFactors,
    _Value,
    _event_walk,
    _exponent_counts,
    _tuple_repr,
    canonicalize,
)
from .hall import letter_profile
from .witt import b_sequence, decimal_counts, exact_context, witt_count

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

# Witt counts of more bits than this are evaluated a second time, in exact
# decimal, for their digits.  Below it libmpdec's powers cost more than
# decimal_str's conversion of the int; the two break even near 30,000 bits on
# ranks 2-6 (CPython 3.11, x86-64).
_EXACT_DECIMAL_BITS = 30_000

# A multiplicity evaluated in exact decimal must equal its int twin modulo
# this prime (2**61 - 1); the check is linear in the digits.
_CHECK_PRIME = 2**61 - 1


def decimal_str(value: int) -> str:
    """The decimal digits of ``value``, exactly as ``str(value)`` would give them.

    Works for integers of any size, independent of the interpreter's
    int-to-str digit limit, and changes no interpreter state: neither that
    limit nor the calling thread's ``decimal`` context.  Time is subquadratic
    in the digit count for large values.

    >>> decimal_str(-120)
    '-120'
    """
    if value < 0:
        return "-" + _unsigned_decimal_str(-value)
    return _unsigned_decimal_str(value)


def _unsigned_decimal_str(value: int) -> str:
    bits = value.bit_length()
    if bits <= _STR_MAX_BITS:
        return str(value)
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
    ``digits_source`` is the (chain, class) of a formula result whose largest
    Witt count passes ``_EXACT_DECIMAL_BITS``, from which ``summand_digits``
    evaluates the multiplicities again in exact decimal; it is not part of
    the value, so equality, hashing and repr ignore it.
    """

    __slots__ = ("summands", "digits_source", "_digits")
    __match_args__ = ("summands", "digits_source")
    summands: tuple[tuple[int, int], ...]
    digits_source: tuple[tuple[int, ...], int] | None

    def __init__(
        self,
        summands: tuple[tuple[int, int], ...],
        digits_source: tuple[tuple[int, ...], int] | None = None,
    ) -> None:
        previous = None
        for order, multiplicity in summands:
            if order < 2:
                raise ValueError(f"summand order must be >= 2, got {order}")
            if multiplicity < 1:
                raise ValueError(f"summand multiplicity must be >= 1, got {multiplicity}")
            if previous is not None and (previous <= order or previous % order):
                raise ValueError(
                    f"summand orders must strictly decrease along a divisibility "
                    f"chain; got {previous} then {order}"
                )
            previous = order
        object.__setattr__(self, "summands", summands)
        object.__setattr__(self, "digits_source", digits_source)

    def _value(self) -> tuple:
        return (self.summands,)

    def __repr__(self) -> str:
        # the dataclass-style repr, with every int written by decimal_str, so
        # that a multiplicity of any size has one
        summands = _tuple_repr(_tuple_repr(map(decimal_str, pair)) for pair in self.summands)
        return f"MultiplierResult(summands={summands})"

    def _multiplicity_digits(self) -> tuple[str, ...]:
        """The multiplicities' digits from ``digits_source``, made on first use."""
        try:
            return self._digits
        except AttributeError:  # the slot is unset until the first call
            digits = _exact_digits(*self.digits_source, self.summands)
            object.__setattr__(self, "_digits", digits)
            return digits


def nilpotent_multiplier(group: InvariantFactors, nilpotency_class: int) -> MultiplierResult:
    """Closed-form multiplier of the group for the given nilpotency class.

    >>> nilpotent_multiplier(InvariantFactors((12, 6, 2)), 1).summands
    ((6, 1), (2, 2))
    """
    if nilpotency_class < 1:
        raise ValueError(f"nilpotency class must be >= 1, got {nilpotency_class}")
    chain = group.chain
    if len(chain) <= 1:
        return MultiplierResult(())
    counts = b_sequence(nilpotency_class, len(chain))
    source = None
    if counts[-1].bit_length() > _EXACT_DECIMAL_BITS:
        source = (chain, nilpotency_class)
    return MultiplierResult(_summands(chain, counts), source)


def _summands(chain: tuple[int, ...], counts) -> tuple:
    """(n_i, b_i - b_{i-1}) for i = 2..k, with equal orders merged.

    ``counts`` are ints, or exact Decimals inside ``exact_context()``.
    """
    summands: list[list] = []
    for i in range(2, len(chain) + 1):
        order = chain[i - 1]
        # >= 1: the Hall basis on i letters strictly contains the one on i - 1
        multiplicity = counts[i - 1] - counts[i - 2]
        if summands and summands[-1][0] == order:
            summands[-1][1] += multiplicity
        else:
            summands.append([order, multiplicity])
    return tuple((order, mult) for order, mult in summands)


def _exact_digits(
    chain: tuple[int, ...], nilpotency_class: int, summands: tuple
) -> tuple[str, ...]:
    """The multiplicities' digits, from the Witt counts evaluated in exact decimal.

    Each decimal multiplicity must equal its int twin in ``summands`` modulo
    ``_CHECK_PRIME``; a disagreement raises ``ArithmeticError``.
    """
    import decimal

    counts = decimal_counts(nilpotency_class + 1, range(1, len(chain) + 1))
    digits = []
    with decimal.localcontext(exact_context()):
        twins = _summands(chain, counts)
        if len(twins) != len(summands):
            raise ArithmeticError(
                f"{len(twins)} decimal multiplicities for {len(summands)} summands"
            )
        for index, ((_, mult), (_, twin)) in enumerate(zip(summands, twins)):
            if twin % _CHECK_PRIME != mult % _CHECK_PRIME:
                raise ArithmeticError(
                    f"the decimal multiplicity of summand {index} disagrees "
                    f"with its int twin modulo {_CHECK_PRIME}"
                )
            digits.append(str(twin))
    return tuple(digits)


def summand_digits(result: MultiplierResult) -> list[tuple[str, str]]:
    """The decimal digits of each summand's (order, multiplicity), in order.

    Orders and multiplicities go through ``decimal_str``, except for a formula
    result whose largest Witt count passes ``_EXACT_DECIMAL_BITS``: its
    multiplicities' digits come from the counts evaluated again in exact
    decimal, each checked against its int multiplicity, once per result.  The
    caller's ``decimal`` context is left unchanged.

    >>> summand_digits(nilpotent_multiplier(InvariantFactors((12, 6, 2)), 1))
    [('6', '1'), ('2', '2')]
    """
    exact = result._multiplicity_digits() if result.digits_source is not None else None
    return [
        (decimal_str(order), exact[i] if exact is not None else decimal_str(mult))
        for i, (order, mult) in enumerate(result.summands)
    ]


def witt_count_digits(weight: int, letters: int) -> str:
    """The decimal digits of ``witt_count(weight, letters)``.

    The count is below letters**weight, which has at most weight *
    bit_length(letters - 1) bits.  Past ``_EXACT_DECIMAL_BITS`` by that
    estimate it is evaluated by ``decimal_counts`` and printed as it is: no
    int, no ``decimal_str``.

    >>> witt_count_digits(6, 4)
    '670'
    """
    if weight * max(letters - 1, 0).bit_length() <= _EXACT_DECIMAL_BITS:
        return decimal_str(witt_count(weight, letters))
    return str(decimal_counts(weight, [letters])[0])


def tensor_oracle(
    decomposition: CyclicDecomposition, nilpotency_class: int
) -> MultiplierResult:
    """Multiplier recomputed from the basic commutators themselves.

    Works on any decomposition, canonical or not; each basic commutator of
    weight class+1 contributes the cyclic group of order gcd of the orders of
    its letters, so factors of order 1 are dropped first and are not letters.
    Every k-letter set carries p_k commutators (``letter_profile``), so any
    m letters carry T(m) = sum_k p_k * C(m, k).  Over one coprime base of the
    distinct orders, a set's gcd has exponent e or more of a base element b
    exactly when all its letters have, so if N letters reach e and N' exceed
    it, T(N) - T(N') summands have exponent e of b.  The work follows the
    distinct orders and their base, not the letters.  Raises ``CapExceeded``
    when the enumeration would be too large; ``nilpotent_multiplier`` is not
    capped.
    """
    if nilpotency_class < 1:
        raise ValueError(f"nilpotency class must be >= 1, got {nilpotency_class}")
    copies = Counter(n for n in decomposition.orders if n > 1)
    if not copies:
        return MultiplierResult(())
    profile = letter_profile(nilpotency_class + 1, sum(copies.values()))
    counts = _exponent_counts(copies)
    for runs in counts.values():
        at_least = below = 0  # letters with exponent >= e of b; commutators on them
        for e in sorted(runs, reverse=True):
            at_least += runs[e]
            total = sum(p * comb(at_least, k) for k, p in enumerate(profile, 1))
            runs[e], below = total - below, total
    return MultiplierResult(_event_walk(counts))


def multiplier_order(result: MultiplierResult) -> int | None:
    """Order of the multiplier, or None when it has more than ``DIGIT_LIMIT`` digits.

    >>> multiplier_order(nilpotent_multiplier(InvariantFactors((12, 6, 2)), 1))
    24
    """
    # An order n is at least 2**(n.bit_length() - 1), so the order of the
    # multiplier is at least 2**floor_bits: at _DECIMAL_BOUND_BITS or more it
    # is above the bound, and nothing is multiplied.  Below it, every order is
    # at least 2 and so adds at least its multiplicity to floor_bits, and the
    # product has fewer than 2 * _DECIMAL_BOUND_BITS bits.
    floor_bits = sum(mult * (order.bit_length() - 1) for order, mult in result.summands)
    if floor_bits >= _DECIMAL_BOUND_BITS:
        return None
    value = 1
    for order, mult in result.summands:
        value *= order**mult
    return value if value < _DECIMAL_BOUND else None


class VerificationReport(_Value):
    """Both computation routes for one input, the verdict, and the input's chain."""

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
        object.__setattr__(self, "formula", formula)
        object.__setattr__(self, "oracle", oracle)
        object.__setattr__(self, "equal", equal)
        object.__setattr__(self, "group", group)

    def _value(self) -> tuple:
        return (self.formula, self.oracle, self.equal, self.group)


def verify(
    decomposition: CyclicDecomposition, nilpotency_class: int
) -> VerificationReport:
    """Run the closed form and the commutator oracle and compare them.

    The verdict is expected to be equal on every valid input; anything else
    means an implementation bug, not a property of the input.
    """
    group = canonicalize(decomposition)
    formula = nilpotent_multiplier(group, nilpotency_class)
    oracle = tensor_oracle(decomposition, nilpotency_class)
    return VerificationReport(formula, oracle, formula == oracle, group)
