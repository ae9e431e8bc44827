"""Hall basic commutators: the Hall family on an ordered alphabet, listed or counted.

The family is built by the standard recursion.  Weight-1 basic commutators are
the letters x_1 < x_2 < ... < x_t.  With everything of lower weight defined and
totally ordered (lower weight first), the weight-n members are exactly the
brackets [u, v] with u, v basic, weight(u) + weight(v) = n, u > v, and, when
u = [u1, u2], also v >= u2.

Within one weight the order is structural: nodes go by their keys in Python's
tuple order, the key of the letter x_(i+1) being (1, i) and that of the
bracket [u, v] being (0, key(u), key(v)).  So a bracket comes before a letter,
letters go by index, and two brackets compare by their left parts, then by
their right parts.  This equals the lexicographic order of the rendered
strings with embedded letter numbers compared numerically (so x_2 < x_10 on
wide alphabets).  Any fixed refinement of the weight order yields the same
counts; this one is pinned for reproducible output.

The count of basic commutators whose letters are exactly a given set does not
depend on that order either (Hall 1950), and permuting the letters is such a
reordering, so it depends only on the size of the set.  ``letter_profile``
returns those counts by set size, all the multiplier oracle reads.  It counts,
without building it, the top level of the level builder that
``enumerate_basic`` renders, once per process for each (weight, letters).

``enumerate_basic`` and ``letter_profile`` refuse, with ``CapExceeded``, a
family of more than ``ENUM_CAP`` (10**6) commutators; the cap is fixed, and
``check_cap`` is its one comparison.  A count that a bit-length bound puts
past 2048 bits is refused before it is made.  ``check_cap`` checks the weight
and the letters first, by the package's one rule (``abelian._check_ints``:
ints, not bools, each at least a bound), and both ``letter_profile`` and
``enumerate_basic`` call it before any other work.
"""

from __future__ import annotations

import functools
import math

from .abelian import _check_ints
from .witt import witt_count

# Most basic commutators one call lists or counts.
ENUM_CAP = 10**6

# Counts up to this many bits are written out in CapExceeded's message; 2048
# bits is at most 617 digits, under the smallest int-to-str digit limit (640).
_EXACT_COUNT_BITS = 2048


class CapExceeded(Exception):
    """Raised when an enumeration would produce more commutators than allowed."""

    def __init__(self, weight: int, letters: int, count: int | None, at_least: int = 0):
        self.weight = weight
        self.letters = letters
        self.cap = ENUM_CAP
        if count is not None:  # None: check_cap's bound refused it; count is made when read
            self.count = count
            at_least = count.bit_length() - 1
        shown = str(count) if at_least < _EXACT_COUNT_BITS else f"at least 2^{at_least}"
        super().__init__(
            f"{shown} basic commutators of weight {weight} on {letters} letters "
            f"exceed the enumeration cap {self.cap}"
        )

    @functools.cached_property
    def count(self) -> int:
        return witt_count(self.weight, self.letters)


def check_cap(weight: int, letters: int) -> int:
    """``witt_count(weight, letters)``, or ``CapExceeded`` if it is above ``ENUM_CAP``.

    On q >= 2 letters, w * count > q**w - q**(w//2 + 1) >= q**w / 2 for w >= 3,
    so count > 2**(w * (bit_length(q) - 1) - bit_length(w) - 1), as for w <= 2;
    a count past ``_EXACT_COUNT_BITS`` by that bound is refused unmade.
    The weight and the letters are checked first, as ``witt_count`` checks them.
    """
    _check_ints([weight], "weight", 1)
    _check_ints([letters], "letters", 0)
    at_least = weight * (max(letters, 1).bit_length() - 1) - weight.bit_length() - 1
    if at_least >= _EXACT_COUNT_BITS:
        raise CapExceeded(weight, letters, None, at_least)
    count = witt_count(weight, letters)
    if count > ENUM_CAP:
        raise CapExceeded(weight, letters, count)
    return count


# Bounded and thread-safe; a profile has at most `weight` entries, and on two
# or more letters the cap admits weights up to 24 only.  A refusal raises and
# so is never cached.  Typed, so that True never reads the entry of 1.
@functools.lru_cache(maxsize=256, typed=True)
def letter_profile(weight: int, letters: int) -> tuple[int, ...]:
    """Basic commutators of `weight` per letter set, by the size of the set.

    Entry k - 1 counts those whose letters are exactly x_1..x_k, for
    k = 1..min(weight, letters); by symmetry it is the count for every
    k-letter set.  Raises ``CapExceeded`` as ``enumerate_basic(weight,
    letters)`` would, on every refused call.

    >>> letter_profile(4, 9)
    (0, 3, 9, 6)
    """
    check_cap(weight, letters)
    return _profile(weight, min(weight, letters))


def _profile(weight: int, letters: int) -> tuple[int, ...]:
    # T(weight, j) on j = 0..letters, counted off the Hall recursion, not taken
    # from witt_count, so the oracle stays independent of the closed form.
    # T(w, j) = sum_k C(j, k) p_k, and inclusion-exclusion inverts it.
    if weight == 1:
        return (1,) * letters
    totals = [0, 0]  # no brackets on fewer than two letters: nothing to walk
    for j in range(2, letters + 1):
        _, right, starts, _ = _levels(weight, j)
        totals.append(sum(max(high - low, 0) for _, low, high in _ranges(weight, right, starts)))
    return tuple(
        sum((-1) ** (k - j) * math.comb(k, j) * totals[j] for j in range(k + 1))
        for k in range(1, letters + 1)
    )


def _ranges(weight: int, right: list[int], level_start: list[int]):
    """Yield (u, low, high): [u, v] is basic of `weight` exactly for low <= v < high.

    u runs over the left parts in id order; the levels below `weight` must exist.
    """
    for left_weight in range((weight + 1) // 2, weight):
        first, end = level_start[weight - left_weight - 1], level_start[weight - left_weight]
        for u in range(level_start[left_weight - 1], level_start[left_weight]):
            # u > v, and v >= u2 when u = [u1, u2]
            yield u, max(first, right[u]), min(end, u)


def _levels(weight: int, letters: int) -> tuple[list, ...]:
    """Node ids of the letters and of the Hall levels of weight 2..weight - 1.

    Node n < letters is x_(n+1), else [left[n], right[n]].  keys[n] is n's
    structural key: (1, n) for a letter, (0, keys[left[n]], keys[right[n]])
    for a bracket.  Each level is sorted by key, so id order is the Hall
    order; level_start[w - 1] is the first id of weight w.
    """
    left = [-1] * letters
    right = [-1] * letters
    level_start = [0, letters]
    keys = [(1, i) for i in range(letters)]
    for w in range(2, weight):
        # each v range lies in one level, already in key order, so sorting
        # the left parts by key sorts the pairs by (key of u, key of v)
        for u, low, high in sorted(_ranges(w, right, level_start), key=lambda r: keys[r[0]]):
            left.extend([u] * (high - low))
            right.extend(range(low, high))
        first = level_start[-1]
        keys.extend([(0, keys[u], keys[v]) for u, v in zip(left[first:], right[first:])])
        level_start.append(len(left))
    return left, right, level_start, keys


def enumerate_basic(weight: int, letters: int) -> list[str]:
    """Every basic commutator of exactly `weight` on x_1..x_letters, as its string.

    In the module's within-weight order, for ``nilmult basis``; there are
    ``witt_count(weight, letters)`` of them.  Raises ``CapExceeded`` when that
    count exceeds ``ENUM_CAP`` (10**6).

    >>> enumerate_basic(3, 2)
    ['[[x2,x1],x1]', '[[x2,x1],x2]']
    """
    return list(_iter_basic(weight, letters))


def _iter_basic(weight: int, letters: int):
    """``enumerate_basic``'s strings, the top level rendered one range at a time.

    Only the levels below `weight` are held; the cap is checked on the first
    ``next``, before anything is yielded.
    """
    if not check_cap(weight, letters):
        return  # fewer than two letters above weight 1, or none at all
    left, right, level_start, keys = _levels(weight, letters)
    rendered = [f"x{i}" for i in range(1, letters + 1)]
    for u, v in zip(left[letters:], right[letters:]):
        rendered.append(f"[{rendered[u]},{rendered[v]}]")
    if weight == 1:
        yield from rendered
        return
    for u, low, high in sorted(_ranges(weight, right, level_start), key=lambda r: keys[r[0]]):
        yield from [f"[{rendered[u]},{rendered[v]}]" for v in range(low, high)]
