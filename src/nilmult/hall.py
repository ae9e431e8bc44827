"""Hall basic commutators: enumeration of the Hall family on an ordered alphabet.

The family is built by the standard recursion.  Weight-1 basic commutators are
the letters x_1 < x_2 < ... < x_t.  With everything of lower weight defined and
totally ordered (lower weight first), the weight-n members are exactly the
brackets [u, v] with u, v basic, weight(u) + weight(v) = n, u > v, and, when
u = [u1, u2], also v >= u2.

Within one weight the order is lexicographic on the rendered bracket string,
comparing embedded letter numbers numerically so that x_2 < x_10 holds on wide
alphabets.  Any fixed refinement of the weight order yields the same counts;
this one is pinned for reproducible output.
"""

from __future__ import annotations

import functools
import os
import re
from dataclasses import dataclass, field

from .witt import witt_count

DEFAULT_ENUM_CAP = 10**6
ENUM_CAP_ENV = "NILMULT_ENUM_CAP"


class CapExceeded(Exception):
    """Raised when an enumeration would produce more commutators than allowed."""

    def __init__(self, weight: int, letters: int, count: int, cap: int):
        self.weight = weight
        self.letters = letters
        self.count = count
        self.cap = cap
        super().__init__(
            f"{count} basic commutators of weight {weight} on {letters} letters "
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


_NUMBER_SPLIT = re.compile(r"(\d+)")


def _natural_key(rendered: str) -> tuple:
    """Split a rendered commutator so embedded numbers compare numerically."""
    pieces = _NUMBER_SPLIT.split(rendered)
    return tuple(int(p) if i % 2 else p for i, p in enumerate(pieces))


@functools.total_ordering
@dataclass(frozen=True)
class BasicCommutator:
    """One basic commutator: a leaf letter x_i or a bracket of two subtrees.

    Identity is carried by ``rendered``, the canonical bracket string, which
    determines the whole tree; ``weight`` is the leaf count and
    ``letter_set`` the set of letter indices that occur.  Instances are
    immutable and freely shareable.
    """

    weight: int
    rendered: str
    letter: int | None = field(compare=False, repr=False)
    parts: tuple[BasicCommutator, BasicCommutator] | None = field(compare=False, repr=False)
    letter_set: frozenset[int] = field(compare=False, repr=False)

    def __str__(self) -> str:
        return self.rendered

    def __repr__(self) -> str:
        return f"BasicCommutator({self.rendered!r})"

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, BasicCommutator):
            return NotImplemented
        if self.weight != other.weight:
            return self.weight < other.weight
        return _natural_key(self.rendered) < _natural_key(other.rendered)


def leaf(index: int) -> BasicCommutator:
    """The weight-1 basic commutator x_index."""
    if index < 1:
        raise ValueError(f"letter index must be >= 1, got {index}")
    return BasicCommutator(1, f"x{index}", index, None, frozenset((index,)))


def bracket(left: BasicCommutator, right: BasicCommutator) -> BasicCommutator:
    """The bracket [left, right]; no Hall condition is imposed here."""
    return BasicCommutator(
        left.weight + right.weight,
        f"[{left.rendered},{right.rendered}]",
        None,
        (left, right),
        left.letter_set | right.letter_set,
    )


def parse_commutator(text: str) -> BasicCommutator:
    """Inverse of the rendered form: parse e.g. "[[x2,x1],x1]" back to a tree."""
    pos = 0

    def parse_node() -> BasicCommutator:
        nonlocal pos
        if pos < len(text) and text[pos] == "[":
            pos += 1
            left = parse_node()
            if pos >= len(text) or text[pos] != ",":
                raise ValueError(f"expected ',' at position {pos} in {text!r}")
            pos += 1
            right = parse_node()
            if pos >= len(text) or text[pos] != "]":
                raise ValueError(f"expected ']' at position {pos} in {text!r}")
            pos += 1
            return bracket(left, right)
        m = re.match(r"x(\d+)", text[pos:])
        if not m:
            raise ValueError(f"expected a letter at position {pos} in {text!r}")
        pos += m.end()
        return leaf(int(m.group(1)))

    node = parse_node()
    if pos != len(text):
        raise ValueError(f"trailing input at position {pos} in {text!r}")
    return node


def enumerate_basic(
    weight: int, letters: int, cap: int | None = None
) -> list[BasicCommutator]:
    """Every basic commutator of exactly `weight` on letters x_1..x_letters.

    Returned in the fixed total order (weight, then the module's within-weight
    order); the length equals ``witt_count(weight, letters)``.  Raises
    ``CapExceeded`` when that count exceeds the cap (argument, else the
    NILMULT_ENUM_CAP environment variable, else 10**6).

    >>> [c.rendered for c in enumerate_basic(3, 2)]
    ['[[x2,x1],x1]', '[[x2,x1],x2]']
    """
    if weight < 1:
        raise ValueError(f"weight must be >= 1, got {weight}")
    if letters < 0:
        raise ValueError(f"letters must be >= 0, got {letters}")
    effective_cap = enumeration_cap() if cap is None else cap
    count = witt_count(weight, letters)
    if count > effective_cap:
        raise CapExceeded(weight, letters, count, effective_cap)

    # levels[w - 1] holds weight w, each level sorted; pos gives the position
    # of a commutator within its own level, so u > v and v >= u2 reduce to
    # weight comparisons plus integer lookups.
    levels: list[list[BasicCommutator]] = [[leaf(i) for i in range(1, letters + 1)]]
    pos: dict[BasicCommutator, int] = {c: i for i, c in enumerate(levels[0])}
    for w in range(2, weight + 1):
        level: list[BasicCommutator] = []
        for left_weight in range((w + 1) // 2, w):
            right_weight = w - left_weight
            for u in levels[left_weight - 1]:
                inner_right = None if u.parts is None else u.parts[1]
                for v in levels[right_weight - 1]:
                    if left_weight == right_weight and pos[u] <= pos[v]:
                        continue
                    if inner_right is not None:
                        if right_weight < inner_right.weight:
                            continue
                        if right_weight == inner_right.weight and pos[v] < pos[inner_right]:
                            continue
                    level.append(bracket(u, v))
        level.sort(key=lambda c: _natural_key(c.rendered))
        pos.update((c, i) for i, c in enumerate(level))
        levels.append(level)
    return list(levels[weight - 1])
