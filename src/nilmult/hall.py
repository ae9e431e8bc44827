"""Hall basic commutators: enumeration of the Hall family on an ordered alphabet.

The family is built by the standard recursion.  Weight-1 basic commutators are
the letters x_1 < x_2 < ... < x_t.  With everything of lower weight defined and
totally ordered (lower weight first), the weight-n members are exactly the
brackets [u, v] with u, v basic, weight(u) + weight(v) = n, u > v, and, when
u = [u1, u2], also v >= u2.

Within one weight the order is structural: a bracket comes before a letter,
letters go by index, and two brackets compare by their left parts, then by
their right parts, each in the same structural order.  This equals the
lexicographic order of the rendered strings with embedded letter numbers
compared numerically (so x_2 < x_10 on wide alphabets).  Any fixed refinement
of the weight order yields the same counts; this one is pinned for
reproducible output.

The count of basic commutators whose letters are exactly a given set does not
depend on that order either (Hall 1950), and permuting the letters is such a
reordering, so it depends only on the size of the set.  ``letter_profile``
returns those counts by set size; it enumerates once per process for each
(weight, min(weight, letters)) and is all the multiplier oracle reads.
"""

from __future__ import annotations

import functools
import os
from collections import Counter
from typing import NamedTuple

from .witt import witt_count

DEFAULT_ENUM_CAP = 10**6
ENUM_CAP_ENV = "NILMULT_ENUM_CAP"

# Counts up to this many bits are written out in CapExceeded's message; 2048
# bits is at most 617 digits, under the smallest int-to-str digit limit (640).
_EXACT_COUNT_BITS = 2048


class CapExceeded(Exception):
    """Raised when an enumeration would produce more commutators than allowed."""

    def __init__(self, weight: int, letters: int, count: int, cap: int):
        self.weight = weight
        self.letters = letters
        self.count = count
        self.cap = cap
        bits = count.bit_length()
        shown = str(count) if bits <= _EXACT_COUNT_BITS else f"about 2^{bits - 1}"
        super().__init__(
            f"{shown} basic commutators of weight {weight} on {letters} letters "
            f"exceed the enumeration cap {cap}"
        )


def enumeration_cap() -> int:
    """The enumeration cap: NILMULT_ENUM_CAP if set, else the default."""
    raw = os.environ.get(ENUM_CAP_ENV)
    if raw is None:
        return DEFAULT_ENUM_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{ENUM_CAP_ENV} must be a positive integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError(f"{ENUM_CAP_ENV} must be a positive integer, got {raw!r}")
    return cap


class BasicCommutator(NamedTuple):
    """One basic commutator: its canonical bracket string and its letters.

    ``rendered`` (e.g. "[[x2,x1],x1]") determines the whole tree;
    bit i - 1 of ``letter_mask`` is set when x_i occurs in it.
    """

    rendered: str
    letter_mask: int


def _check_cap(weight: int, letters: int) -> int:
    """``witt_count(weight, letters)``, or ``CapExceeded`` if it is above the cap."""
    if weight < 1:
        raise ValueError(f"weight must be >= 1, got {weight}")
    if letters < 0:
        raise ValueError(f"letters must be >= 0, got {letters}")
    cap = enumeration_cap()
    count = witt_count(weight, letters)
    if count > cap:
        raise CapExceeded(weight, letters, count, cap)
    return count


def letter_profile(weight: int, letters: int) -> tuple[int, ...]:
    """Basic commutators of `weight` per letter set, by the size of the set.

    Entry k - 1 counts those whose letters are exactly x_1..x_k, for
    k = 1..min(weight, letters); by symmetry it is the count for every
    k-letter set.  Raises ``CapExceeded`` as ``enumerate_basic(weight,
    letters)`` would, on every call, cached or not.

    >>> letter_profile(4, 9)
    (0, 3, 9, 6)
    """
    _check_cap(weight, letters)
    return _profile(weight, min(weight, letters))


# Bounded and thread-safe; a profile has at most `weight` entries, and on two
# or more letters the default cap admits weights up to 24 only.
@functools.lru_cache(maxsize=256)
def _profile(weight: int, letters: int) -> tuple[int, ...]:
    # Counted off the enumeration, not derived from witt_count, so the oracle
    # stays independent of the closed form.
    per_mask = Counter(
        comm.letter_mask
        for comm in enumerate_basic(weight, letters)
        if not comm.letter_mask & (comm.letter_mask + 1)  # x_1..x_k: mask 2^k - 1
    )
    return tuple(per_mask[(1 << k) - 1] for k in range(1, letters + 1))


def enumerate_basic(weight: int, letters: int) -> list[BasicCommutator]:
    """Every basic commutator of exactly `weight` on letters x_1..x_letters.

    Returned in the module's within-weight order; the length equals
    ``witt_count(weight, letters)``.  Raises ``CapExceeded`` when that count
    exceeds the cap (the NILMULT_ENUM_CAP environment variable, else 10**6).
    The order and the strings are for ``nilmult basis``; the multiplier
    oracle reads this only through the cached ``letter_profile``.

    >>> [c.rendered for c in enumerate_basic(3, 2)]
    ['[[x2,x1],x1]', '[[x2,x1],x2]']
    """
    if not _check_cap(weight, letters):
        return []  # fewer than two letters above weight 1, or none at all

    # Nodes are integer ids into parallel lists; a letter's parts are -1.
    # Levels are built in increasing weight and each is stored sorted, so id
    # order is the Hall order: weight first, then the within-weight order.
    # level_start[w - 1]..level_start[w] - 1 are the ids of weight w.
    rendered = [f"x{i}" for i in range(1, letters + 1)]
    mask = [1 << i for i in range(letters)]
    left = [-1] * letters
    right = [-1] * letters
    level_start = [0, letters]
    # rank[n]: place of node n in the structural order of all nodes built so
    # far (brackets by (rank of left, rank of right), then the letters).
    rank = list(range(letters))
    brackets: list[int] = []
    for w in range(2, weight + 1):
        pairs: list[tuple[int, int]] = []
        for left_weight in range((w + 1) // 2, w):
            first, end = level_start[w - left_weight - 1], level_start[w - left_weight]
            for u in range(level_start[left_weight - 1], level_start[left_weight]):
                # u > v, and v >= u2 when u = [u1, u2]
                pairs.extend((u, v) for v in range(max(first, right[u]), min(end, u)))
        pairs.sort(key=lambda pair: (rank[pair[0]], rank[pair[1]]))
        if w == weight:
            return [
                BasicCommutator(f"[{rendered[u]},{rendered[v]}]", mask[u] | mask[v])
                for u, v in pairs
            ]
        start = len(rendered)
        for u, v in pairs:
            rendered.append(f"[{rendered[u]},{rendered[v]}]")
            mask.append(mask[u] | mask[v])
            left.append(u)
            right.append(v)
        level_start.append(len(rendered))
        # old keys keep their relative order, so sorting on them merges
        brackets.extend(range(start, len(rendered)))
        brackets.sort(key=lambda n: (rank[left[n]], rank[right[n]]))
        rank = [0] * len(rendered)
        for i, n in enumerate([*brackets, *range(letters)]):
            rank[n] = i
    return [BasicCommutator(r, m) for r, m in zip(rendered, mask)]
