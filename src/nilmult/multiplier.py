"""Nilpotent Schur multipliers of finite abelian groups, two independent ways.

``nilpotent_multiplier`` evaluates the closed form: for a group with invariant
factors n_1, ..., n_k and class c, the multiplier is the direct sum over
i = 2..k of (b_i - b_{i-1}) copies of Z_{n_i}, where b_i counts basic
commutators of weight c+1 on i letters.

``tensor_oracle`` recomputes the same group from first principles: it
enumerates the basic commutators of weight c+1 on the given cyclic factors,
maps each to the cyclic group of order gcd(orders of its letters), and
canonicalizes the accumulated multiset with the run-length primary core
``abelian.compressed_invariant_form``, so multiplicities are never expanded.
``verify`` canonicalizes the input once, runs both and compares.  Results are
summands only; rendering them as text is the command line's job.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass

from .abelian import (
    CyclicDecomposition,
    InvariantFactors,
    canonicalize,
    compressed_invariant_form,
)
from .hall import enumerate_basic
from .witt import b_sequence

# multiplier_order gives the exact order only up to this many decimal digits;
# beyond it, callers fall back to the factored form.
DIGIT_LIMIT = 10**4
_DECIMAL_BOUND = 10**DIGIT_LIMIT  # the least integer with DIGIT_LIMIT + 1 digits


def decimal_str(value: int) -> str:
    """str(value) with the interpreter's int-to-str digit limit lifted as needed."""
    if hasattr(sys, "get_int_max_str_digits"):
        needed = value.bit_length() // 3 + 4
        if needed > sys.get_int_max_str_digits():
            sys.set_int_max_str_digits(needed)
    return str(value)


@dataclass(frozen=True)
class MultiplierResult:
    """A finite abelian group in compressed invariant-factor form.

    ``summands`` lists (order, multiplicity) pairs with strictly decreasing
    orders, each dividing its predecessor; multiplicities are exact integers
    and can be astronomically large.  The empty tuple is the trivial group.
    """

    summands: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        previous = None
        for order, multiplicity in self.summands:
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

    @property
    def is_trivial(self) -> bool:
        return not self.summands


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
    summands: list[list[int]] = []
    for i in range(2, len(chain) + 1):
        order = chain[i - 1]
        multiplicity = counts[i - 1] - counts[i - 2]
        if multiplicity == 0 or order == 1:
            continue
        if summands and summands[-1][0] == order:
            summands[-1][1] += multiplicity
        else:
            summands.append([order, multiplicity])
    return MultiplierResult(tuple((order, mult) for order, mult in summands))


def tensor_oracle(
    decomposition: CyclicDecomposition, nilpotency_class: int, cap: int | None = None
) -> MultiplierResult:
    """Multiplier recomputed from the basic commutators themselves.

    Works on any decomposition, canonical or not; each basic commutator of
    weight class+1 on the t factors contributes the cyclic group of order
    gcd of the orders of its distinct letters (repeats cannot change a gcd).
    Raises ``CapExceeded`` when the enumeration would be too large, in which
    case ``nilpotent_multiplier`` is the way to go.
    """
    if nilpotency_class < 1:
        raise ValueError(f"nilpotency class must be >= 1, got {nilpotency_class}")
    orders = decomposition.orders
    if not orders:
        return MultiplierResult(())
    occurring: Counter[int] = Counter()
    for comm in enumerate_basic(nilpotency_class + 1, len(orders), cap=cap):
        g = math.gcd(*(orders[i - 1] for i in comm.letter_set))
        if g > 1:
            occurring[g] += 1
    return MultiplierResult(compressed_invariant_form(occurring))


def multiplier_order(result: MultiplierResult) -> int | None:
    """Order of the multiplier, or None when it has more than ``DIGIT_LIMIT`` digits.

    >>> multiplier_order(nilpotent_multiplier(InvariantFactors((12, 6, 2)), 1))
    24
    """
    # bit_length overestimates log2 by at most a factor of two for n >= 2, so
    # anything within the digit limit lands under this bound.
    bits_upper = sum(mult * order.bit_length() for order, mult in result.summands)
    if bits_upper > 8 * DIGIT_LIMIT:
        return None
    value = 1
    for order, mult in result.summands:
        value *= order**mult
    return value if value < _DECIMAL_BOUND else None


@dataclass(frozen=True)
class VerificationReport:
    """Both computation routes for one input, the verdict, and the input's chain."""

    formula: MultiplierResult
    oracle: MultiplierResult
    equal: bool
    group: InvariantFactors


def verify(
    decomposition: CyclicDecomposition, nilpotency_class: int, cap: int | None = None
) -> VerificationReport:
    """Run the closed form and the commutator oracle and compare them.

    The verdict is expected to be equal on every valid input; anything else
    means an implementation bug, not a property of the input.
    """
    group = canonicalize(decomposition)
    formula = nilpotent_multiplier(group, nilpotency_class)
    oracle = tensor_oracle(decomposition, nilpotency_class, cap=cap)
    return VerificationReport(formula, oracle, formula == oracle, group)
