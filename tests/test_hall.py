import ast
import hashlib
import math
import re
import time
from collections import Counter

import pytest

from nilmult import CyclicDecomposition, hall
from nilmult.hall import (
    ENUM_CAP,
    CapExceeded,
    enumerate_basic,
    letter_profile,
)
from nilmult.multiplier import tensor_oracle
from nilmult.witt import witt_count

# ---------------------------------------------------------------------------
# Independent oracle: nested-tuple trees, own ordering, own Hall check.  Only
# the rendered-string format is shared with the implementation under test.
# ---------------------------------------------------------------------------


def _weight(tree):
    return 1 if isinstance(tree, int) else _weight(tree[0]) + _weight(tree[1])


def _render(tree):
    if isinstance(tree, int):
        return f"x{tree}"
    return f"[{_render(tree[0])},{_render(tree[1])}]"


def _key(tree):
    pieces = re.split(r"(\d+)", _render(tree))
    return (_weight(tree), tuple(int(p) if i % 2 else p for i, p in enumerate(pieces)))


def _all_trees(weight, letters):
    if weight == 1:
        yield from range(1, letters + 1)
        return
    for left_weight in range(1, weight):
        for u in _all_trees(left_weight, letters):
            for v in _all_trees(weight - left_weight, letters):
                yield (u, v)


def _is_hall(tree):
    if isinstance(tree, int):
        return True
    u, v = tree
    if not (_is_hall(u) and _is_hall(v)):
        return False
    if not _key(u) > _key(v):
        return False
    if not isinstance(u, int) and _key(v) < _key(u[1]):
        return False
    return True


def brute_force_hall_set(weight, letters):
    return {_render(t) for t in _all_trees(weight, letters) if _is_hall(t)}


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def test_weight_one_is_the_alphabet():
    assert enumerate_basic(1, 3) == ["x1", "x2", "x3"]


def test_weight_two_on_two_letters():
    assert enumerate_basic(2, 2) == ["[x2,x1]"]


def test_weight_three_on_two_letters():
    assert enumerate_basic(3, 2) == [
        "[[x2,x1],x1]",
        "[[x2,x1],x2]",
    ]


def test_weight_two_on_three_letters():
    assert enumerate_basic(2, 3) == [
        "[x2,x1]",
        "[x3,x1]",
        "[x3,x2]",
    ]


@pytest.mark.parametrize(
    "weight, letters",
    [(w, t) for w in range(1, 6) for t in range(1, 4)] + [(6, 2), (6, 1)],
)
def test_matches_brute_force(weight, letters):
    enumerated = enumerate_basic(weight, letters)
    assert len(set(enumerated)) == len(enumerated)
    assert set(enumerated) == brute_force_hall_set(weight, letters)


def _as_tuple_tree(rendered):
    """Read a rendered commutator back as a tree: "[[x2,x1],x1]" -> ((2, 1), 1)."""
    nested = re.sub(r"x(\d+)", r"\1", rendered).translate(str.maketrans("[]", "()"))
    return ast.literal_eval(nested)


@pytest.mark.parametrize("weight, letters", [(6, 3), (7, 2), (4, 4)])
def test_every_element_passes_the_independent_validator(weight, letters):
    # beyond brute-force reach: check the Hall condition node by node
    level = enumerate_basic(weight, letters)
    assert len(set(level)) == len(level) == witt_count(weight, letters)
    for c in level:
        assert _is_hall(_as_tuple_tree(c)), c


def test_counts_agree_with_witt():
    for w in range(1, 7):
        for t in range(1, 5):
            assert len(enumerate_basic(w, t)) == witt_count(w, t), (w, t)


def test_empty_alphabet_and_single_letter():
    assert enumerate_basic(1, 0) == []
    assert enumerate_basic(4, 0) == []
    assert enumerate_basic(2, 1) == []
    assert enumerate_basic(5, 1) == []


@pytest.mark.parametrize("weight", [1, 2, 3, 4])
def test_alphabet_monotonicity(weight):
    for t in range(1, 4):
        smaller = set(enumerate_basic(weight, t))
        larger = set(enumerate_basic(weight, t + 1))
        assert smaller <= larger


def test_enumeration_is_sorted_and_fresh():
    first = enumerate_basic(4, 3)
    assert first == sorted(first)
    second = enumerate_basic(4, 3)
    assert first == second and first is not second


def test_enumeration_follows_the_pinned_order():
    for w in range(1, 6):
        for t in range(1, 4):
            expected = sorted(
                brute_force_hall_set(w, t), key=lambda r: _key(_as_tuple_tree(r))
            )
            assert enumerate_basic(w, t) == expected, (w, t)


def test_wide_alphabets_order_letters_numerically():
    letters = enumerate_basic(1, 12)
    assert letters == [f"x{i}" for i in range(1, 13)]
    # x10 sorts after x9, so [x10,..] pairs follow every [x9,..] pair
    pairs = enumerate_basic(2, 11)
    assert pairs == [
        f"[x{j},x{i}]" for j in range(2, 12) for i in range(1, j)
    ]


def _levels_rendered(weight, letters):
    """Every level `_levels` builds, then the top level, each as strings in id order."""
    left, right, level_start, _ = hall._levels(weight, letters)
    rendered = [f"x{i}" for i in range(1, letters + 1)]
    for u, v in zip(left[letters:], right[letters:]):
        rendered.append(f"[{rendered[u]},{rendered[v]}]")
    levels = [rendered[a:b] for a, b in zip(level_start, level_start[1:])]
    return levels + [enumerate_basic(weight, letters)]


@pytest.mark.parametrize("weight, letters", [(6, 4), (5, 11), (4, 12)])
def test_every_level_follows_the_pinned_order(weight, letters):
    # lower levels too, and two-digit letters inside brackets of weight >= 3
    levels = _levels_rendered(weight, letters)
    assert [len(level) for level in levels] == [
        witt_count(w, letters) for w in range(1, weight + 1)
    ]
    for level in levels:
        assert level == sorted(level, key=lambda r: _key(_as_tuple_tree(r)))


def _basis_text(weight, letters):
    return "\n".join(enumerate_basic(weight, letters)) + "\n"


def test_every_admitted_basis_is_pinned():
    # byte for byte, every basis under the cap with weight <= 8 on <= 8 letters
    digest = hashlib.sha256()
    cases = 0
    for w in range(1, 9):
        for t in range(0, 9):
            if witt_count(w, t) <= ENUM_CAP:
                digest.update(_basis_text(w, t).encode())
                cases += 1
    assert cases == 71
    assert digest.hexdigest() == (
        "5a67db5c6a45bf241f7997fccb4c18d25a1f1c8eddf6fb094b4cce9d1d09e78e"
    )


@pytest.mark.parametrize(
    "weight, letters, digest",
    [
        (4, 12, "814bb060932e34f94e98a3b0b680e54106e8fe17dc4afd8068c54d1a3fc19ad1"),
        (5, 11, "b81c11a57896fc2e3ecf885e579c24dbcf44ee96dd04fff73dc91f05e750f4b0"),
    ],
)
def test_two_digit_letter_bases_are_pinned(weight, letters, digest):
    assert hashlib.sha256(_basis_text(weight, letters).encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# Letters: a commutator's letter mask, read off its string in the tests
# ---------------------------------------------------------------------------


def _mask(rendered):
    """Bit i - 1 is set when x_i occurs in the rendered commutator."""
    return sum(1 << (i - 1) for i in {int(i) for i in re.findall(r"x(\d+)", rendered)})


def _leaves(tree):
    return [tree] if isinstance(tree, int) else _leaves(tree[0]) + _leaves(tree[1])


def test_accessors():
    cases = [((3, 3, 2), "[[x2,x1],x3]", 0b111), ((1, 2, 1), "x2", 0b10),
             ((3, 3, 3), "[[x3,x1],x1]", 0b101)]
    for (weight, letters, index), rendered, mask in cases:
        c = enumerate_basic(weight, letters)[index]
        assert (c, _mask(c)) == (rendered, mask)


def test_letter_multiset_sums_to_weight():
    # the multiset read off the string agrees with the leaves of the parsed tree
    for c in enumerate_basic(5, 3):
        letters = Counter(int(i) for i in re.findall(r"x(\d+)", c))
        assert sum(letters.values()) == 5
        assert letters == Counter(_leaves(_as_tuple_tree(c)))
        assert sum(1 << (i - 1) for i in letters) == _mask(c)


def test_weight_two_plus_needs_two_letters():
    for w in (2, 3, 4):
        for c in enumerate_basic(w, 3):
            assert bin(_mask(c)).count("1") >= 2


def test_mask_count_depends_only_on_popcount():
    # the symmetry that turns the oracle into b_i - b_(i-1) copies of Z_(n_i)
    for w in range(1, 7):
        for t in range(1, 5):
            per_mask = Counter(_mask(c) for c in enumerate_basic(w, t))
            by_size = {}
            for mask in range(1, 1 << t):
                by_size.setdefault(bin(mask).count("1"), set()).add(per_mask[mask])
            assert all(len(counts) == 1 for counts in by_size.values()), (w, t)


# ---------------------------------------------------------------------------
# Letter profile
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "weight, letters",
    [
        (w, t)
        for w in range(1, 9)
        for t in range(0, 9)
        if witt_count(w, t) <= ENUM_CAP
    ],
)
def test_letter_profile_equals_the_per_mask_counts(weight, letters):
    profile = letter_profile(weight, letters)
    assert len(profile) == min(weight, letters)
    per_mask = Counter(_mask(c) for c in enumerate_basic(weight, letters))
    sizes = {mask: bin(mask).count("1") for mask in range(1, 1 << letters)}
    expected = {
        mask: profile[k - 1]
        for mask, k in sizes.items()
        if k <= len(profile) and profile[k - 1]
    }
    assert per_mask == expected


def test_profile_is_counted_without_enumeration_or_witt(monkeypatch):
    # the oracle's counts come from the Hall recursion alone, never from the
    # rendered basis or the closed form it is meant to check
    def refuse(*args):
        raise AssertionError("the letter profile must not call this")

    letter_profile.cache_clear()
    monkeypatch.setattr(hall, "enumerate_basic", refuse)
    monkeypatch.setattr(hall, "witt_count", refuse)
    assert hall._profile(4, 4) == (0, 3, 9, 6)
    assert hall._profile(5, 5) == (0, 6, 30, 48, 24)
    assert hall._profile(6, 6) == (0, 9, 89, 260, 300, 120)
    assert hall._profile(7, 7) == (0, 18, 258, 1200, 2400, 2160, 720)
    assert hall._profile(8, 6) == (0, 30, 720, 5100, 15750, 23940)
    # above the cap, so only the private core reaches it
    eight = hall._profile(8, 8)
    assert eight == (0, 30, 720, 5100, 15750, 23940, 17640, 5040)
    total = sum(math.comb(8, k) * count for k, count in enumerate(eight, start=1))
    assert total == witt_count(8, 8) == 2_096_640


@pytest.mark.parametrize("call, nothing", [(letter_profile, (0,)), (enumerate_basic, [])])
def test_fewer_than_two_letters_answer_at_once(call, nothing):
    # a walk over the empty levels would take about 2.5 * 10^9 steps here
    letter_profile.cache_clear()
    start = time.perf_counter()
    assert call(100001, 1) == nothing
    assert time.perf_counter() - start < 1.0


def test_letter_profile_checks_the_cap_after_caching():
    # the cap is on the full alphabet, though the profile stops at the weight:
    # 995,280 commutators on 144 letters are admitted, 1,016,160 on 145 are not
    letter_profile.cache_clear()
    assert witt_count(3, 144) <= ENUM_CAP < witt_count(3, 145)
    for _ in range(2):
        assert letter_profile(3, 144) == (0, 2, 2)
        with pytest.raises(CapExceeded) as exc_info:
            letter_profile(3, 145)
        err = exc_info.value
        assert (err.weight, err.letters, err.count, err.cap) == (3, 145, 1_016_160, ENUM_CAP)


def test_letter_profile_cache_is_typed():
    # True hashes and compares as 1 does; a typed cache never hands it the
    # entry of 1, so the argument check runs and refuses it
    letter_profile.cache_clear()
    assert letter_profile(1, 3) == (1,)
    with pytest.raises(TypeError, match="^weight must be an int, got True$"):
        letter_profile(True, 3)
    with pytest.raises(TypeError, match="^letters must be an int, got 3.0$"):
        letter_profile(1, 3.0)


def test_letter_profile_sums_witt_once_per_key(monkeypatch):
    # the answer depends on (weight, letters) alone, so the cap check's Witt
    # sum runs once per key; a refusal is never cached
    calls = []

    def counted(*args):
        calls.append(args)
        return witt_count(*args)

    monkeypatch.setattr(hall, "witt_count", counted)
    letter_profile.cache_clear()
    for _ in range(50):
        tensor_oracle(CyclicDecomposition((12, 6, 2)), 2)
    assert calls == [(3, 3)]
    for _ in range(2):
        with pytest.raises(CapExceeded):
            letter_profile(8, 8)
    assert calls == [(3, 3), (8, 8), (8, 8)]


def test_letter_profile_validation():
    with pytest.raises(ValueError):
        letter_profile(0, 2)
    with pytest.raises(ValueError):
        letter_profile(2, -1)


# ---------------------------------------------------------------------------
# Cap handling
# ---------------------------------------------------------------------------


def test_cap_exceeded(monkeypatch):
    monkeypatch.setattr(hall, "ENUM_CAP", 17)
    with pytest.raises(CapExceeded) as exc_info:
        enumerate_basic(4, 3)
    err = exc_info.value
    assert (err.weight, err.letters, err.count, err.cap) == (4, 3, 18, 17)
    monkeypatch.setattr(hall, "ENUM_CAP", 18)
    assert enumerate_basic(4, 3)  # equal to the cap is allowed


def test_cap_refuses_a_huge_count_before_making_it(monkeypatch):
    # 3**4000001 would take about a second to build; the bound refuses at once
    def unused(*args):
        raise AssertionError("witt_count was called")

    monkeypatch.setattr(hall, "witt_count", unused)
    with pytest.raises(CapExceeded) as exc_info:
        hall.check_cap(4_000_001, 3)
    assert str(exc_info.value) == (
        "at least 2^3999978 basic commutators of weight 4000001 on 3 letters "
        "exceed the enumeration cap 1000000"
    )


def test_cap_message_bound_is_a_lower_bound(monkeypatch):
    # with nothing written out, every count is refused by the bound, and the
    # count must reach the power of two the message names
    monkeypatch.setattr(hall, "_EXACT_COUNT_BITS", -10**9)
    for weight in range(1, 80):
        for letters in range(0, 40):
            with pytest.raises(CapExceeded) as exc_info:
                hall.check_cap(weight, letters)
            bound = int(re.match(r"at least 2\^(-?\d+) ", str(exc_info.value))[1])
            assert witt_count(weight, letters) >= 2**bound or bound < 0


def test_counted_cap_message_shows_a_power_of_two():
    # 1388 bits by the bound, but the count has 2209: it is made, and shown
    # by the power of two below it
    count = witt_count(1400, 3)
    assert count.bit_length() > 2048
    with pytest.raises(CapExceeded) as exc_info:
        hall.check_cap(1400, 3)
    assert str(exc_info.value).startswith(f"at least 2^{count.bit_length() - 1} basic")
    assert exc_info.value.count == count


def test_cap_message_edge_is_2048_bits():
    # a count of 2,047 bits is written out; from 2,048 bits it is shown by
    # the power of two below it
    below = CapExceeded(3000, 3, 2**2047)
    assert str(below) == (
        f"{2**2047} basic commutators of weight 3000 on 3 letters "
        "exceed the enumeration cap 1000000"
    )
    assert str(CapExceeded(3000, 3, 2**2048)) == (
        "at least 2^2048 basic commutators of weight 3000 on 3 letters "
        "exceed the enumeration cap 1000000"
    )


def test_default_cap(monkeypatch):
    # the cap is a fixed 10**6 commutators, whatever the environment holds
    monkeypatch.delenv("NILMULT_ENUM_CAP", raising=False)
    assert ENUM_CAP == 10**6
    with pytest.raises(CapExceeded) as exc_info:
        enumerate_basic(8, 8)
    assert (exc_info.value.count, exc_info.value.cap) == (2_096_640, 10**6)


def test_env_var_does_not_override_cap(monkeypatch):
    # NILMULT_ENUM_CAP was once read on every call; now "5", "0" or "lots"
    # overrides nothing and changes no answer
    def answers():
        return (enumerate_basic(4, 3), letter_profile(5, 4),
                tensor_oracle(CyclicDecomposition((12, 6, 2)), 3))

    monkeypatch.delenv("NILMULT_ENUM_CAP", raising=False)
    expected = answers()
    for value in ("5", "0", "lots"):
        letter_profile.cache_clear()
        monkeypatch.setenv("NILMULT_ENUM_CAP", value)
        assert answers() == expected
        with pytest.raises(CapExceeded) as exc_info:
            enumerate_basic(8, 8)
        assert exc_info.value.cap == 10**6


def test_validation():
    with pytest.raises(ValueError):
        enumerate_basic(0, 2)
    with pytest.raises(ValueError):
        enumerate_basic(2, -1)
