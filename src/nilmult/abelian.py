"""Finite abelian groups as direct sums of cyclic groups, in exact arithmetic.

A group arrives as a multiset of cyclic orders (``CyclicDecomposition``),
counted once when it is built (``copies``: order to copies, orders above 1
only), and is normalized to its invariant-factor chain (``InvariantFactors``):
the unique list n_1, n_2, ... with n_{i+1} | n_i and every entry >= 2.  Both
``canonicalize`` and the commutator oracle read that count.  ``canonicalize``
is the default: one lcm/gcd pass over the counted orders, with no
factorization and no coprime base; it skips the positions inside a run of
equal chain entries and carries one gcd down the chain, so a big entry is only
reduced modulo a small gcd.  The primary route is one run-length core in
two steps: ``_exponent_counts`` reads each distinct order's power of two
from its bits, splits the odd parts into a pairwise coprime base by repeated
gcds, and counts the exponents of 2 and of each base element, treated as a
prime, and ``_event_walk`` emits the (invariant factor, run length) pairs in
one walk over the positions where some element's exponent drops; an element
with one exponent is one event.
The commutator oracle calls both steps itself; the tests write the core's
runs out to cross-check ``canonicalize``.  A new odd part joins the base
after one gcd against the product of the base; a base element that divides
it stays and is stripped from it, and only a proper common factor splits one.
The value classes share one frozen base, ``_Value``, whose repr writes every
int, inside tuples too, with ``multiplier.decimal_str``, so a value of any size
has one; it is imported on use, since ``multiplier`` imports this module.
Outside input is checked once, by one rule (``_check_ints``: ints, not bools,
each at least a bound), where it enters: in the public constructors, and at
every int argument of a public function in this package.  ``_check_types``
is the rule without the bound, for a check that words its own bound, as
``factorize`` and ``witt.witt_counts`` do.  A value the package derives from
checked values, such as ``canonicalize``'s chain, is built by
``_Value._derived`` and not checked again; likewise a private caller that
holds checked ints calls an unchecked core, such as ``witt._kept_counts``.
``trial_division`` is the one factorization loop; the Witt terms and divisor
lists in ``nilmult.witt`` derive from it.  ``factorize`` bounds it to
admissible orders and is kept as public API; no code in the package calls
it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from types import MappingProxyType

# Largest accepted cyclic order.  No computation needs it: nothing factors an
# input, and chain entries and results are unbounded.  It bounds what a spec
# may ask for, so the CLI echoes every input order with plain str() and as a
# JSON number, 13 digits at most, far under any int-to-str digit limit, and
# the public ``factorize`` still factors any admissible order by trial
# division up to 10**6.
MAX_ORDER = 10**12


def _check_ints(values: Iterable[object], what: str, least: int) -> None:
    """Raise unless each of ``values`` is an int, not a bool, and at least ``least``.

    The one check of every value class and of every int argument of a public
    function; the first fault raises: ``TypeError`` for its type, as
    ``_check_types`` words it, else ``ValueError`` for its bound.
    """
    for value in values:
        if isinstance(value, bool) or not isinstance(value, int) or value < least:
            _check_types([value], what)
            raise ValueError(f"{what} must be >= {least}, got {_decimal(value)}")


def _check_types(values: Iterable[object], what: str) -> None:
    """``_check_ints`` without the bound, for a check that words its own bound.

    ``TypeError`` unless each of ``values`` is an int, not a bool.
    """
    for value in values:
        # bool is a subclass of int, but True is not an order
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"{what} must be an int, got {value!r}")


class _Value:
    """Base of the package's frozen value classes.

    ``_value()`` is the value: a tuple of fields, which equality (same class
    only) and the hash read, as a frozen dataclass's would.
    ``__match_args__`` name the constructor's parameters, in order: the
    ``Name(parameter=value, ...)`` repr lists them, as a frozen dataclass's
    would but with every int written by ``decimal_str`` (``_repr``), and
    ``__reduce__`` rebuilds a copy from them, so ``pickle`` and ``copy``
    round-trip although assignment raises.  A subclass sets ``__slots__``
    and ``__match_args__``, defines ``_value``, and in ``__init__`` checks
    its input and sets its slots with ``object.__setattr__``.  Outside input
    enters only there; a value the package derives from checked values is
    built by ``_derived``, which checks nothing again.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    @classmethod
    def _derived(cls, *fields: object):
        """The value whose slots, in ``__slots__`` order, are ``fields``, set unchecked."""
        value = object.__new__(cls)
        for name, field in zip(cls.__slots__, fields):
            object.__setattr__(value, name, field)
        return value

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._value() == other._value()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._value())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={_repr(getattr(self, name))}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


def _decimal(value: int) -> str:
    """The digits of ``value`` by ``multiplier.decimal_str``, whatever its size."""
    from .multiplier import decimal_str  # multiplier imports this module

    return decimal_str(value)


def _repr(value: object) -> str:
    """``repr(value)``, with every int in it, inside tuples too, written by ``decimal_str``.

    An lcm of hundreds of orders, or a multiplicity, can pass the int-to-str
    digit limit that ``repr`` obeys.  A bool is not an int here.
    """
    if type(value) is int:
        return _decimal(value)
    if type(value) is tuple:
        items = list(map(_repr, value))
        return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"
    return repr(value)


class CyclicDecomposition(_Value):
    """A direct sum of cyclic groups, one entry per factor, in given order.

    Entries may repeat, appear in any order, and include 1 (trivial factors).
    The empty decomposition is the trivial group.  ``copies`` is the same
    group counted: a read-only mapping {order: number of copies} of the
    orders above 1, by first appearance, made once as each order is
    validated.  It derives from ``orders`` and is not part of the value:
    equality, hash, repr and pickling read ``orders`` alone.

    >>> CyclicDecomposition((8, 12)).orders
    (8, 12)
    >>> dict(CyclicDecomposition((4, 1, 2, 4)).copies)
    {4: 2, 2: 1}
    """

    __slots__ = ("orders", "copies")
    __match_args__ = ("orders",)
    orders: tuple[int, ...]
    copies: Mapping[int, int]

    def __init__(self, orders: Iterable[int] = ()) -> None:
        orders = tuple(orders)
        # checked before they are counted: True and 2.0 hash as 1 and 2 do
        _check_ints(orders, "cyclic order", 1)
        copies: dict[int, int] = {}
        for r in orders:
            if r > MAX_ORDER:
                raise ValueError(f"cyclic order {_decimal(r)} exceeds the bound {MAX_ORDER}")
            copies[r] = copies.get(r, 0) + 1
        copies.pop(1, None)
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "copies", MappingProxyType(copies))

    def _value(self) -> tuple:
        return (self.orders,)


class InvariantFactors(_Value):
    """Canonical presentation: a divisibility chain n_1, n_2 | n_1, ..., all >= 2.

    Entries are not bounded by ``MAX_ORDER``: the lcm of several admissible
    orders may exceed it, and nothing here ever needs to factor a chain entry.

    >>> InvariantFactors((24, 4)).chain
    (24, 4)
    """

    __slots__ = __match_args__ = ("chain",)
    chain: tuple[int, ...]

    def __init__(self, chain: Iterable[int] = ()) -> None:
        chain = tuple(chain)
        _check_ints(chain, "invariant factor", 2)
        for a, b in zip(chain, chain[1:]):
            if a % b:
                raise ValueError(
                    f"broken divisibility chain: {_decimal(b)} does not divide {_decimal(a)}"
                )
        object.__setattr__(self, "chain", chain)

    def _value(self) -> tuple:
        return (self.chain,)

    def __len__(self) -> int:
        return len(self.chain)


def canonicalize(decomposition: CyclicDecomposition) -> InvariantFactors:
    """Invariant factors of the group, in one pass over its counted orders.

    The orders are read as the decomposition counted them (``copies``), with
    no trivial ones.  All copies of an order r enter the chain c at once:
    entry j becomes lcm(c_j, g_j), where g_j = gcd(c_{j-copies}, r) is r
    itself for j < copies and c_j is 1 past the end.  A position inside a run
    of equal entries, c_{j-copies} == c_j, is skipped: g_j divides
    c_{j-copies}, so the entry stays as it is.  Since c_{j-copies} divides
    every earlier entry, g_j = gcd(g, c_{j-copies} mod g) for the g of any
    earlier position, so one g is carried down the chain past the skipped
    positions, and a big entry is only ever reduced modulo the small g:
    lcm(c, g) is c // gcd(g, c mod g) * g.  Once g is 1 it stays 1, so the
    rest of the chain is left as it is.  Only the entries that change are
    written.  No factorization and no coprime base is needed.

    >>> canonicalize(CyclicDecomposition((8, 12))).chain
    (24, 4)
    >>> canonicalize(CyclicDecomposition((1, 1, 1))).chain
    ()
    """
    chain: list[int] = []
    for order, copies in decomposition.copies.items():
        old = chain.copy()  # read while chain is updated in place
        length = len(old)
        g = order
        for j in range(length + copies):
            if j >= copies:
                previous = old[j - copies]
                if j < length and previous == old[j]:
                    continue  # g divides c_{j-copies} = c_j
                g = math.gcd(g, previous % g)
                if g == 1:
                    break
            if j < length:
                c = old[j]
                rest = c % g
                if rest:
                    chain[j] = c // math.gcd(g, rest) * g
            else:
                chain.append(g)
    return InvariantFactors._derived(tuple(chain))


def _exponent_counts(multiset: Mapping[int, int]) -> dict[int, dict[int, int]]:
    """{b: {e: multiplicity of the orders with exponent e > 0 of b}}, b in a coprime base.

    The base is 2, if some order is even, and a coprime base of the odd
    parts.  Each order's power of two, 2**k, is read from its bits; its
    multiplicity goes to counts[2][k], and only the odd part r >> k, merged
    with equal odd parts, goes on to ``_coprime_base`` and the exponent
    scan, so an order that shares only 2 with the base is admitted by the
    one gcd against the base's product.  An odd part that is, or is reduced
    to, a base element ends its scan with one lookup.
    """
    twos: dict[int, int] = {}
    odd: dict[int, int] = {}
    for order, multiplicity in multiset.items():
        k = (order & -order).bit_length() - 1
        if k:
            twos[k] = twos.get(k, 0) + multiplicity
            order >>= k
        if order > 1:
            odd[order] = odd.get(order, 0) + multiplicity
    base = _coprime_base(odd)
    counts: dict[int, dict[int, int]] = {b: {} for b in base}
    if twos:
        counts[2] = twos
    for order, multiplicity in odd.items():
        if order not in counts:
            for b in base:
                if order % b == 0:
                    e = 0
                    while order % b == 0:
                        order //= b
                        e += 1
                    runs = counts[b]
                    runs[e] = runs.get(e, 0) + multiplicity
                    if order == 1 or order in counts:
                        break
        if order > 1:
            runs = counts[order]
            runs[1] = runs.get(1, 0) + multiplicity
    return counts


def _event_walk(counts: Mapping[int, Mapping[int, int]]) -> tuple[tuple[int, int], ...]:
    """(invariant factor, run length) pairs of summands with these exponent counts.

    counts[b][e] summands, possibly none, have exponent e > 0 of b, and each b
    has some e.  Each b's exponent runs, from the largest down, drop at some
    positions; the walk emits the current factor at each new position, then
    divides it by b**drop.
    """
    factor = 1
    events: list[tuple[int, int, int]] = []
    for b, runs in counts.items():
        if len(runs) == 1:  # one exponent: one event
            for e, position in runs.items():
                factor *= b**e
                events.append((position, b, e))
            continue
        exponents = sorted(runs, reverse=True)
        factor *= b ** exponents[0]
        position = 0
        for e, lower in zip(exponents, exponents[1:] + [0]):
            position += runs[e]
            events.append((position, b, e - lower))
    events.sort()
    summands: list[tuple[int, int]] = []
    previous = 0
    for position, b, drop in events:
        if position > previous:
            summands.append((factor, position - previous))
            previous = position
        factor //= b**drop
    return tuple(summands)


def _coprime_base(numbers: Iterable[int]) -> list[int]:
    """Pairwise coprime b >= 2 such that each of ``numbers`` is a product of powers b**e.

    Factor refinement (Bach, Driscoll and Shallit, J. Algorithms 15, 1993) by
    insertion.  A pending x coprime to the product of the base (one gcd)
    joins it.  Otherwise the base is scanned: each base element b that
    divides x stays and is stripped from x, which is dropped at 1.  Then b
    moves to the front of the base, since the next orders that share a
    factor are likely to share b, and one more gcd lets x join the base as
    soon as it is coprime to the product.  On a proper common factor
    g = gcd(b, x), b leaves the base with g, b / g and x / g pending.  Each
    step either moves x to the base or divides the product of base and
    pending numbers by a factor > 1 (a power of b, or g), so the loop ends.
    The scan is still quadratic in the number of base elements.

    >>> sorted(_coprime_base([12, 18]))
    [2, 3]
    """
    base: list[int] = []
    product = 1
    pending = list(numbers)
    while pending:
        x = pending.pop()
        if math.gcd(product, x) > 1:
            for i, b in enumerate(base):
                g = math.gcd(b, x)
                if g == b:
                    x //= b
                    while x % b == 0:
                        x //= b
                    if x == 1:
                        break
                    g = math.gcd(b, x)
                    if g == 1:
                        # b moves from i to 0, so the scan goes on at base[i + 1]
                        base.insert(0, base.pop(i))
                        if math.gcd(product, x) == 1:
                            break
                        continue
                if g > 1:
                    del base[i]
                    product //= b
                    pending += [y for y in (g, b // g, x // g) if y > 1]
                    x = 1
                    break
        if x > 1:
            base.append(x)
            product *= x
    return base


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of an admissible order, 1 <= n <= MAX_ORDER.

    >>> factorize(360)
    {2: 3, 3: 2, 5: 1}
    """
    _check_types([n], "n")
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"can only factor integers in [1, {MAX_ORDER}], got {_decimal(n)}")
    return trial_division(n)


def trial_division(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of any n >= 1, by trial division on a 6k +- 1 wheel.

    Unbounded: the loop runs up to the larger of the second-largest prime
    factor and the square root of the largest.

    >>> trial_division(2 * 10**12)
    {2: 13, 5: 12}
    """
    _check_ints([n], "n", 1)
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
