import copy
import dataclasses
import decimal
import itertools
import math
import operator
import pickle
import random
import re
import sys
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilmult.abelian import (
    CyclicDecomposition,
    InvariantFactors,
    _event_walk,
    _exponent_counts,
    canonicalize,
    factorize,
    trial_division,
)
from nilmult.hall import CapExceeded, enumerate_basic, letter_profile
from nilmult import cli, hall, multiplier, witt
from nilmult.multiplier import (
    _STR_MAX_BITS,
    _TENS_LEAF_DIGITS,
    _TENS_MAX_BITS,
    _exact_decimal,
    MultiplierResult,
    VerificationReport,
    decimal_str,
    formula_digits,
    multiplier_order,
    nilpotent_multiplier,
    summand_digits,
    tensor_oracle,
    verify,
    witt_count_digits,
)
from nilmult.witt import b_sequence, exact_context, witt_count
from test_acceptance import direct_sum

small_decompositions = st.lists(st.integers(1, 12), min_size=1, max_size=3).map(
    lambda v: CyclicDecomposition(tuple(v))
)
small_classes = st.integers(1, 3)


def chain_of(*entries):
    return InvariantFactors(tuple(entries))


# ---------------------------------------------------------------------------
# Closed form
# ---------------------------------------------------------------------------


def test_classical_schur_example():
    result = nilpotent_multiplier(chain_of(12, 6, 2), 1)
    assert result.summands == ((6, 1), (2, 2))


def test_cyclic_groups_have_trivial_multiplier():
    for n in (2, 5, 97):
        for c in (1, 2, 7):
            result = nilpotent_multiplier(chain_of(n), c)
            assert not result.summands
    assert not nilpotent_multiplier(InvariantFactors(()), 4).summands


def test_elementary_abelian_class_two():
    assert nilpotent_multiplier(chain_of(2, 2), 2).summands == ((2, 2),)


def test_equal_orders_merge_into_one_summand():
    # chain (2, 2, 2), c = 1: exponents 1 and 2 both attach to order 2
    assert nilpotent_multiplier(chain_of(2, 2, 2), 1).summands == ((2, 3),)


def test_two_generator_groups_follow_the_witt_count():
    for n1, n2 in ((12, 4), (8, 8), (9, 3)):
        for c in (1, 2, 3, 4):
            result = nilpotent_multiplier(chain_of(n1, n2), c)
            assert result.summands == ((n2, witt_count(c + 1, 2)),)


def full_table_summands(chain, nilpotency_class):
    """The closed form position by position: the table b_1..b_k, then equal orders merged.

    The route the formula took before it evaluated one count per run of equal
    entries, kept as the reference for the run ends.
    """
    counts = witt._witt_sums(nilpotency_class + 1, range(1, len(chain) + 1))
    summands = []
    for i in range(2, len(chain) + 1):
        order, multiplicity = chain[i - 1], counts[i - 1] - counts[i - 2]
        if summands and summands[-1][0] == order:
            summands[-1][1] += multiplicity
        else:
            summands.append([order, multiplicity])
    return MultiplierResult(tuple((order, mult) for order, mult in summands))


@st.composite
def chains_with_runs(draw, max_rank=8):
    """Divisibility chains of rank <= max_rank, in runs of one to four equal entries."""
    factors = draw(st.lists(st.integers(2, 5), max_size=4))
    entries = list(itertools.accumulate(reversed(factors), operator.mul))[::-1]
    runs = draw(st.lists(st.integers(1, 4), min_size=len(entries), max_size=len(entries)))
    return chain_of(*[n for n, run in zip(entries, runs) for _ in range(run)][:max_rank])


# small classes, and classes on both sides of the exact-decimal bound at
# bit_length(rank - 1) = 3, 2 and 1 (weight * bits > _STR_MAX_BITS)
formula_classes = st.one_of(
    st.integers(1, 40),
    *[st.integers(_STR_MAX_BITS // bits - 40, _STR_MAX_BITS // bits + 40)
      for bits in (3, 2, 1)],
)


@given(chains_with_runs(), formula_classes)
@settings(max_examples=60, deadline=None)
@example(chain_of(12, 6, 6, 2, 2), _STR_MAX_BITS // 3 - 1)  # a unique first entry, int route
@example(chain_of(12, 6, 6, 2, 2), _STR_MAX_BITS // 3)  # the same past the bound
@example(chain_of(6, 6, 6, 6), 1)  # all entries equal
@example(chain_of(6, 6, 6, 6), 15_000)
@example(chain_of(), 3)  # rank 0
@example(chain_of(4), 30_000)  # rank 1
def test_run_ends_equal_the_full_table(chain, c):
    expected = full_table_summands(chain.chain, c)
    assert nilpotent_multiplier(chain, c) == expected
    assert formula_digits(chain, c) == (summand_digits(expected), multiplier_order(expected))


@pytest.fixture
def no_kept_counts(monkeypatch):
    """A fresh, empty store of kept Witt counts for the test.

    A count an earlier call kept is not evaluated again, so it would hide
    the evaluation, or the fault, that a test looks for.
    """
    monkeypatch.setattr(witt, "_kept", witt._Kept())


@pytest.mark.parametrize(
    "entries, ends",
    [((12, 12, 12, 6, 6, 2, 2), (3, 5, 7)), ((12, 6, 6, 2), (3, 4)),
     ((12, 6, 2), (2, 3)), ((2,) * 6, (6,))],
)
def test_only_the_run_ends_are_evaluated(monkeypatch, no_kept_counts, entries, ends):
    asked = []
    sums = witt._witt_sums

    def recording(weight, letters, number=int):
        asked.append((weight, tuple(letters), number is int))
        return sums(weight, letters, number)

    monkeypatch.setattr(witt, "_witt_sums", recording)
    chain = chain_of(*entries)
    # class 1000 keeps no table on two letters or more; class 10**5 is past
    # the exact-decimal bound on three
    nilpotent_multiplier(chain, 1000)
    formula_digits(chain, 10**5)
    assert asked == [(1001, ends, True), (10**5 + 1, ends, False)]


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------


def test_oracle_spot_values():
    assert not tensor_oracle(CyclicDecomposition((3, 2)), 1).summands
    assert tensor_oracle(CyclicDecomposition((2, 2)), 2).summands == ((2, 2),)
    assert not tensor_oracle(CyclicDecomposition(()), 3).summands


def test_oracle_matches_formula_on_two_generator_chains():
    for n1, n2 in ((12, 4), (8, 8), (9, 3), (10, 2)):
        for c in (1, 2, 3):
            oracle = tensor_oracle(CyclicDecomposition((n1, n2)), c)
            assert oracle.summands == ((n2, witt_count(c + 1, 2)),)


def test_oracle_accepts_non_canonical_input():
    # Z4 x Z6 = Z12 x Z2; every weight-3 commutator uses both letters
    result = tensor_oracle(CyclicDecomposition((4, 6)), 2)
    assert result.summands == ((2, 2),)
    assert verify(CyclicDecomposition((4, 6)), 2).group.chain == (12, 2)


def test_oracle_ignores_trivial_factors():
    with_ones = tensor_oracle(CyclicDecomposition((1, 12, 1, 6, 2)), 1)
    without = tensor_oracle(CyclicDecomposition((12, 6, 2)), 1)
    assert with_ones.summands == without.summands == ((6, 1), (2, 2))


def test_oracle_propagates_the_cap():
    # 2,096,640 basic commutators of weight 8 on 8 letters
    with pytest.raises(CapExceeded):
        tensor_oracle(CyclicDecomposition((2,) * 8), 7)


def per_mask_oracle(decomposition, nilpotency_class):
    """The oracle folded over every enumerated letter set, one gcd per mask.

    A commutator's mask has bit i - 1 set when x_i occurs in its string.
    """
    orders = decomposition.orders
    if not orders:
        return MultiplierResult(())
    per_mask = Counter(
        sum(1 << (int(i) - 1) for i in set(re.findall(r"x(\d+)", comm)))
        for comm in enumerate_basic(nilpotency_class + 1, len(orders))
    )
    occurring = Counter()
    for mask, count in per_mask.items():
        g = math.gcd(*(n for i, n in enumerate(orders) if mask >> i & 1))
        if g > 1:
            occurring[g] += count
    return MultiplierResult(_event_walk(_exponent_counts(occurring)))


def letter_set_oracle(decomposition, nilpotency_class):
    """The oracle folded over every letter set of each size, one gcd per set."""
    orders = [n for n in decomposition.orders if n > 1]
    if not orders:
        return MultiplierResult(())
    profile = letter_profile(nilpotency_class + 1, len(orders))
    occurring = Counter()
    for size, per_set in enumerate(profile, start=1):
        if per_set:
            for letters in itertools.combinations(orders, size):
                g = math.gcd(*letters)
                if g > 1:
                    occurring[g] += per_set
    return MultiplierResult(_event_walk(_exponent_counts(occurring)))


def gcd_state_oracle(decomposition, nilpotency_class):
    """The oracle folded over gcd states, one distinct order at a time.

    sets[k][g] counts the k-letter sets of the orders folded so far with gcd
    g > 1; j of the c copies of n join a (k - j)-set of gcd g in C(c, j) ways
    and make a k-set of gcd gcd(g, n).  The empty set has gcd 0.
    """
    copies = Counter(n for n in decomposition.orders if n > 1)
    if not copies:
        return MultiplierResult(())
    profile = letter_profile(nilpotency_class + 1, sum(copies.values()))
    sets = [{0: 1}] + [{} for _ in profile]
    for n, c in copies.items():
        for k in range(len(profile), 0, -1):  # sets[k - j] holds no copy of n yet
            level = sets[k]
            for j in range(1, min(c, k) + 1):
                for g, count in sets[k - j].items():
                    g = math.gcd(g, n)
                    if g > 1:
                        level[g] = level.get(g, 0) + math.comb(c, j) * count
    occurring = Counter()
    for per_set, by_gcd in zip(profile, sets[1:]):
        for g, count in by_gcd.items():
            occurring[g] += count * per_set
    return MultiplierResult(_event_walk(_exponent_counts(+occurring)))


@st.composite
def repeated_orders(draw, max_size):
    """Orders drawn from a pool of at most three, 1 among them often, so copies repeat."""
    pool = draw(st.lists(st.integers(1, 60) | st.just(1), min_size=1, max_size=3))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=max_size))


@given(st.lists(st.integers(1, 60), max_size=6) | repeated_orders(8), st.integers(1, 4))
@settings(deadline=None)
def test_oracle_matches_the_per_mask_fold(orders, c):
    d = CyclicDecomposition(tuple(orders))
    assert tensor_oracle(d, c) == per_mask_oracle(d, c)


@pytest.mark.parametrize(
    "orders, c",
    [
        ((6, 10, 15, 30), 3),  # 2, 3 and 5 each reach exponent 1 on 3 letters
        ((210, 210, 143, 286), 2),  # 3, 5, 7, 11 and 13 on 2 letters, 2 on 3
        ((2, 3, 5, 7, 6, 35), 2),  # 2, 3, 5 and 7 on 2 letters each
        ((4, 12, 9, 18, 2), 2),  # 2 and 3 reach exponent 2 on 2 letters each
        ((30, 30, 30, 30, 7, 7), 2),
    ],
)
def test_oracle_matches_the_per_mask_fold_on_shared_letter_counts(orders, c):
    d = CyclicDecomposition(orders)
    assert tensor_oracle(d, c) == per_mask_oracle(d, c)


def test_oracle_evaluates_each_letter_count_once(monkeypatch):
    # T(N) = sum_k p_k * C(N, k) is kept per process: comb runs for each
    # distinct (weight, N) on the first query and never again for it
    seen = []

    def counting_comb(n, k):
        seen.append(n)
        return math.comb(n, k)

    monkeypatch.setattr(multiplier, "comb", counting_comb)
    multiplier._letter_total.cache_clear()
    per_total = len(letter_profile(3, 6))  # one comb per entry of the profile
    # 2, 3 and 5 each reach exponent 1 on 3 letters, 7 on 2
    d = CyclicDecomposition((6, 10, 15, 30, 7, 7))
    assert tensor_oracle(d, 2) == nilpotent_multiplier(canonicalize(d), 2)
    assert Counter(seen) == {n: per_total for n in (2, 3)}
    # the same query again
    assert tensor_oracle(d, 2) == nilpotent_multiplier(canonicalize(d), 2)
    assert Counter(seen) == {n: per_total for n in (2, 3)}
    # other orders on the same letter counts: 11, 13 and 17 on 3 letters, 19 on 2
    other = CyclicDecomposition((143, 187, 221, 2431, 19, 19))
    assert tensor_oracle(other, 2) == nilpotent_multiplier(canonicalize(other), 2)
    assert tensor_oracle(other, 2) != tensor_oracle(d, 2)
    assert Counter(seen) == {n: per_total for n in (2, 3)}
    # another weight on the same letters is another total
    assert tensor_oracle(d, 1) == nilpotent_multiplier(canonicalize(d), 1)
    assert Counter(seen) == {2: per_total + 2, 3: per_total + 2}


@given(
    st.lists(st.integers(1, 10**6) | st.sampled_from([1, 2, 6, 12, 30, 210]), max_size=40)
    | repeated_orders(40),
    st.integers(1, 2),
)
@example([2 * 3 ** (k % 10) * 999983 ** (k % 2) for k in range(20)] * 2, 2)  # 40 letters, 20 orders
@example([6 * k for k in range(1, 41)], 2)  # 40 distinct orders
@example([1, 4, 4, 4, 4, 4, 6, 6, 6, 6, 6, 6, 6, 9, 9, 9, 9, 9, 9, 9, 9], 2)
@settings(deadline=None)
def test_oracle_matches_the_letter_set_fold(orders, c):
    d = CyclicDecomposition(tuple(orders))
    assert tensor_oracle(d, c) == letter_set_oracle(d, c)


# large primes as in the wide-mixed benchmark workload
LARGE_PRIMES = (999999937, 100000007, 9999991, 1000003, 999983, 99991)


@st.composite
def wide_mixed_orders(draw):
    """Up to 40 letters: mostly 2*p*k for p from two large primes, some 2*m, 1s, repeats."""
    primes = draw(st.lists(st.sampled_from(LARGE_PRIMES), min_size=1, max_size=2))
    order = st.one_of(
        st.builds(lambda p, k: 2 * p * k, st.sampled_from(primes), st.integers(1, 360)),
        st.integers(1, 2520).map(lambda m: 2 * m),
        st.just(1),
    )
    runs = draw(st.lists(st.tuples(order, st.integers(1, 3)), min_size=1, max_size=40))
    orders = [n for n, copies in runs for _ in range(copies)][:40]
    return draw(st.permutations(orders))


@given(wide_mixed_orders(), st.integers(1, 2))
@example([2 * 999983 * k for k in range(1, 41)], 2)  # 40 distinct orders on one prime
@example([2] * 40, 2)
@settings(deadline=None)
def test_oracle_matches_the_gcd_state_fold(orders, c):
    d = CyclicDecomposition(tuple(orders))
    assert tensor_oracle(d, c) == gcd_state_oracle(d, c)


def test_oracle_folds_copies_not_letters():
    # 498,501 pairs of letters, each of gcd 2, and one distinct order
    d = CyclicDecomposition((2,) * 999)
    assert tensor_oracle(d, 1) == nilpotent_multiplier(canonicalize(d), 1)
    assert tensor_oracle(d, 1).summands == ((2, 999 * 998 // 2),)


def primes_from(start, count):
    found = []
    n = start
    while len(found) < count:
        if n > 1 and all(n % p for p in range(2, math.isqrt(n) + 1)):
            found.append(n)
        n += 1
    return found


def test_oracle_on_more_than_61_letters():
    # masks of many letters once hashed alike (an int hashes modulo 2**61 - 1),
    # which made this query quadratic: 46 s before the letter profile
    primes = primes_from(10**5, 1401)
    d = CyclicDecomposition(tuple(p * q for p, q in zip(primes, primes[1:])))
    start = time.perf_counter()
    oracle = tensor_oracle(d, 1)
    elapsed = time.perf_counter() - start
    assert oracle == nilpotent_multiplier(canonicalize(d), 1)
    assert elapsed < 10.0, elapsed


# ---------------------------------------------------------------------------
# Agreement and invariance properties
# ---------------------------------------------------------------------------


@given(small_decompositions, small_classes)
@settings(deadline=None)
def test_formula_agrees_with_oracle(d, c):
    report = verify(d, c)
    assert report.equal, (d, c, report)


@given(small_decompositions, small_classes, st.randoms(use_true_random=False))
@settings(deadline=None)
def test_presentation_invariance(d, c, rng):
    shuffled = list(d.orders)
    rng.shuffle(shuffled)
    permuted = CyclicDecomposition(tuple(shuffled))
    assert tensor_oracle(permuted, c) == tensor_oracle(d, c)
    assert tensor_oracle(d, c) == nilpotent_multiplier(canonicalize(d), c)


# Metamorphic laws, each checked on each route on its own: coprime splitting
# (M(A + B) = M(A) + M(B) when |A| and |B| are coprime, the sum formed by
# test_acceptance's run-length merge) and presentation invariance.


def formula_route(orders, c):
    return nilpotent_multiplier(canonicalize(CyclicDecomposition(tuple(orders))), c)


def oracle_route(orders, c):
    return tensor_oracle(CyclicDecomposition(tuple(orders)), c)


# the formula runs on up to thousands of letters and at large classes; the
# oracle on up to 8 letters at classes its cap admits
law_formula_classes = st.integers(1, 5) | st.sampled_from([100, 5000])
law_oracle_classes = st.integers(1, 3)


@st.composite
def orders_on(draw, primes, many):
    """Orders that are products of powers of ``primes``, 1 among them; ``many``: in long runs."""
    order = st.tuples(*[st.integers(0, 3)] * len(primes)).map(
        lambda exponents: math.prod(p**e for p, e in zip(primes, exponents))
    )
    if not many:
        return draw(st.lists(order, max_size=4))
    runs = draw(st.lists(st.tuples(order, st.integers(1, 400)), max_size=4))
    return [n for n, copies in runs for _ in range(copies)]


@st.composite
def coprime_groups(draw, many):
    """The orders of A and of B, with gcd(|A|, |B|) = 1: 2, 3, 5 and 7 split between them."""
    primes = draw(st.permutations([2, 3, 5, 7]))
    cut = draw(st.integers(0, 4))
    return draw(orders_on(primes[:cut], many)), draw(orders_on(primes[cut:], many))


@given(coprime_groups(many=True), law_formula_classes)
@example(([4, 2], [9, 3, 3]), 2)
@example(([2] * 1000, [3] * 1500 + [9] * 10), 5000)
@settings(deadline=None)
def test_formula_splits_over_coprime_summands(groups, c):
    first, second = groups
    expected = direct_sum(formula_route(first, c), formula_route(second, c))
    assert formula_route(first + second, c) == expected


@given(coprime_groups(many=False), law_oracle_classes)
@example(([4, 2], [9, 3, 3]), 2)
@settings(deadline=None)
def test_oracle_splits_over_coprime_summands(groups, c):
    first, second = groups
    expected = direct_sum(oracle_route(first, c), oracle_route(second, c))
    assert oracle_route(first + second, c) == expected


def coprime_splits(n):
    """Every (m, n // m) with 1 < m < n and gcd(m, n // m) = 1."""
    return [(m, n // m) for m in range(2, n) if n % m == 0 and math.gcd(m, n // m) == 1]


@st.composite
def two_presentations(draw, orders):
    """Drawn orders, and the same group presented otherwise.

    The other presentation may split a factor Z_mn into Z_m + Z_n for coprime
    m and n; it adds up to two factors Z_1 and permutes the factors.
    """
    orders = draw(orders)
    other = list(orders)
    splittable = [i for i, n in enumerate(other) if coprime_splits(n)]
    if splittable and draw(st.booleans()):
        i = draw(st.sampled_from(splittable))
        other[i:i + 1] = draw(st.sampled_from(coprime_splits(other[i])))
    other += [1] * draw(st.integers(0, 2))
    return orders, draw(st.permutations(other))


@given(two_presentations(st.lists(st.integers(1, 60), max_size=8)
                         | repeated_orders(8).map(lambda orders: orders * 200)),
       law_formula_classes)
@example(([12, 6, 2], [6, 1, 2, 4, 3]), 3)
@settings(deadline=None)
def test_formula_ignores_the_presentation(orders, c):
    first, second = orders
    assert formula_route(second, c) == formula_route(first, c)


@given(two_presentations(st.lists(st.integers(1, 60), max_size=6)), law_oracle_classes)
@example(([12, 6, 2], [6, 1, 2, 4, 3]), 3)
@settings(deadline=None)
def test_oracle_ignores_the_presentation(orders, c):
    first, second = orders
    assert oracle_route(second, c) == oracle_route(first, c)


@given(st.lists(st.integers(2, 12), min_size=1, max_size=4), st.integers(1, 3))
@settings(deadline=None)
def test_multiplier_order_law(entries, c):
    chain = canonicalize(CyclicDecomposition(tuple(entries)))
    counts = b_sequence(c, max(len(chain), 1))
    expected = math.prod(
        chain.chain[i - 1] ** (counts[i - 1] - counts[i - 2])
        for i in range(2, len(chain) + 1)
    )
    assert multiplier_order(nilpotent_multiplier(chain, c)) == expected


@given(st.integers(2, 30), st.integers(1, 4))
def test_exponent_sum_is_b_k_when_all_orders_equal(n, c):
    k = 3
    result = nilpotent_multiplier(chain_of(*([n] * k)), c)
    assert sum(m for _, m in result.summands) == witt_count(c + 1, k)


@given(st.lists(st.integers(2, 12), min_size=2, max_size=4), st.integers(1, 3))
@settings(deadline=None)
def test_exponent_sum_never_exceeds_b_k(entries, c):
    chain = canonicalize(CyclicDecomposition(tuple(entries)))
    result = nilpotent_multiplier(chain, c)
    assert sum(m for _, m in result.summands) <= witt_count(c + 1, len(chain))


# ---------------------------------------------------------------------------
# Order rendering
# ---------------------------------------------------------------------------


def test_multiplier_order_examples():
    trivial = nilpotent_multiplier(chain_of(7), 2)
    assert multiplier_order(trivial) == 1
    schur = nilpotent_multiplier(chain_of(12, 6, 2), 1)
    assert multiplier_order(schur) == 24
    pair = nilpotent_multiplier(chain_of(2, 2), 2)
    assert multiplier_order(pair) == 4


def test_astronomical_orders_fall_back_to_factored_form():
    result = nilpotent_multiplier(chain_of(2, 2), 40)
    b2 = (2**41 - 2) // 41
    assert result.summands == ((2, b2),)
    assert multiplier_order(result) is None


def test_order_decimal_boundary():
    # 2^33219 has exactly 10**4 digits, 2^33220 one more
    value = multiplier_order(MultiplierResult(((2, 33219),)))
    assert value == 2**33219
    assert len(decimal_str(value)) == 10**4
    assert multiplier_order(MultiplierResult(((2, 33220),))) is None


def reference_multiplier_order(result):
    """The order multiplied out whenever an upper bound on its bits allows."""
    bits_upper = sum(mult * order.bit_length() for order, mult in result.summands)
    if bits_upper > 8 * multiplier.DIGIT_LIMIT:
        return None
    value = 1
    for order, mult in result.summands:
        value *= order**mult
    return value if value < 10**multiplier.DIGIT_LIMIT else None


@st.composite
def multiplier_results(draw, near_the_limit):
    """Results of up to four summands, some with orders of about ``DIGIT_LIMIT`` digits.

    Near the limit, the smallest order's multiplicity brings the order to
    ``DIGIT_LIMIT`` digits, then moves by up to 3; elsewhere multiplicities
    go up to 10**6.  Powers of two, whose lower bound 2**(bit_length - 1) is
    exact, are drawn as often as other orders.
    """
    entries = st.one_of(st.integers(2, 10**6), st.integers(1, 40).map(lambda k: 2**k))
    chain = [draw(entries)]
    for _ in range(draw(st.integers(0, 3))):
        chain.append(chain[-1] * draw(entries))
    chain.reverse()
    if not near_the_limit:
        mults = [draw(st.integers(1, 10**6)) for _ in chain]
        return MultiplierResult(tuple(zip(chain, mults)))
    mults = [draw(st.integers(1, 3000)) for _ in chain[1:]]
    digits = sum(mult * math.log10(order) for order, mult in zip(chain, mults))
    last = round((multiplier.DIGIT_LIMIT - digits) / math.log10(chain[-1]))
    mults.append(max(1, last + draw(st.integers(-3, 3))))
    return MultiplierResult(tuple(zip(chain, mults)))


@pytest.mark.parametrize(
    "summands, exact",
    [
        (((8, 11073),), True),  # 2**33219 < 10**10**4 < 2**33220
        (((16, 8305),), False),  # 2**33220, refused by its lower bound alone
        (((12, 1), (4, 16608)), False),  # 3 * 2**33218: multiplied, then refused
        (((6, 1), (2, 33216)), True),  # 3 * 2**33217
        ((), True),
    ],
)
def test_multiplier_order_at_the_digit_limit(summands, exact):
    result = MultiplierResult(summands)
    expected = reference_multiplier_order(result)
    assert (expected is not None) == exact
    assert multiplier_order(result) == expected


@given(st.one_of(multiplier_results(near_the_limit=True), multiplier_results(near_the_limit=False)))
@settings(deadline=None, max_examples=300)
def test_multiplier_order_matches_the_multiplying_reference(result):
    assert multiplier_order(result) == reference_multiplier_order(result)


def test_decimal_str_handles_huge_values():
    # decimal_str must equal str() on every method it picks, under any limit
    values = [0, 1, -1, 2**200_000]
    for bits in (_STR_MAX_BITS, _TENS_MAX_BITS):
        digits = math.floor(bits * math.log10(2))
        for k in (bits - 1, bits, bits + 1):
            values += [2**k - 1, 2**k, 1 - 2**k, -(2**k)]
        for k in (digits - 1, digits, digits + 1, digits + 2):
            values += [10**k - 1, 10**k]
    for level in range(7):  # the split points of the powers-of-ten method
        split = 10 ** (_TENS_LEAF_DIGITS << level)
        values += [split - 1, split]
    rng = random.Random(4)
    for _ in range(12):
        value = rng.getrandbits(rng.randrange(1, 300_001))
        values += [value, -value]
    original_limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        expected = [str(value) for value in values]
        assert [decimal_str(value) for value in values] == expected
        sys.set_int_max_str_digits(640)  # the smallest limit Python allows
        assert [decimal_str(value) for value in values] == expected
    finally:
        sys.set_int_max_str_digits(original_limit)


def test_decimal_str_is_str_at_once_up_to_the_str_bound(monkeypatch):
    # a value of at most _STR_MAX_BITS bits, of either sign, is split by
    # neither method
    def refuse(value, *level):
        raise AssertionError(f"rendered {value.bit_length()} bits by splitting")

    monkeypatch.setattr(multiplier, "_split_by_tens", refuse)
    monkeypatch.setattr(multiplier, "_split_by_twos", refuse)
    assert decimal_str(2**_STR_MAX_BITS - 1) == str(2**_STR_MAX_BITS - 1)
    assert decimal_str(1 - 2**_STR_MAX_BITS) == str(1 - 2**_STR_MAX_BITS)
    assert decimal_str(0) == "0"
    with pytest.raises(AssertionError):
        decimal_str(2**_STR_MAX_BITS)
    with pytest.raises(AssertionError):
        decimal_str(-(2**_STR_MAX_BITS))


# ---------------------------------------------------------------------------
# Multiplicity digits from exact decimal Witt counts
# ---------------------------------------------------------------------------


def with_repeats(rank):
    """A chain of the given rank in which equal entries merge summands."""
    return (12, 12, 12, 6, 6, 2, 2)[:rank]


def strict(rank):
    return (720, 360, 120, 60, 12, 6, 2)[-rank:]


@pytest.fixture
def decimal_calls(monkeypatch):
    """The weights of the exact-decimal digit lookups the multiplier module makes, with a fresh store.

    It makes them through ``witt._kept_digits``, which reads the digits of
    each multiplicity from the store, or evaluates them from checked exact
    decimal counts and keeps them.
    """
    calls = []
    original = multiplier._kept_digits

    def counted(weight, pairs):
        calls.append(weight)
        return original(weight, pairs)

    monkeypatch.setattr(multiplier, "_kept_digits", counted)
    monkeypatch.setattr(witt, "_kept", witt._Kept())
    return calls


def run_pairs(chain):
    """The (s, t) of each summand's multiplicity b_t - b_s: s is the previous run end, or 0."""
    ends = multiplier._run_ends(chain.chain)
    return list(zip((0, *ends), ends))


@pytest.mark.parametrize("rank", range(2, 8))
@pytest.mark.parametrize("make_chain", [with_repeats, strict])
def test_summand_digits_equal_decimal_str(rank, make_chain, decimal_calls):
    # classes on both sides of the exact-decimal threshold at every rank; the
    # formula and summand_digits do no decimal arithmetic, and formula_digits
    # does only past it, by the estimate (class + 1) * bit_length(rank - 1)
    # that `witt` uses too, with the same digits and order, and keeps the
    # digits of each multiplicity under (weight, s, t)
    chain = chain_of(*make_chain(rank))
    for c in (1, 2, 681, 682, 1023, 1024, 2047, 2048, 10**4, 10**5):
        result = nilpotent_multiplier(chain, c)
        digits = summand_digits(result)
        assert decimal_calls == []
        assert digits == [
            (decimal_str(order), decimal_str(mult)) for order, mult in result.summands
        ], (chain, c)
        exact = (c + 1) * (rank - 1).bit_length() > _STR_MAX_BITS
        assert exact == _exact_decimal(c + 1, rank)
        assert formula_digits(chain, c) == (digits, multiplier_order(result)), (chain, c)
        assert decimal_calls == ([c + 1] if exact else []), (chain, c)
        kept = [witt._kept.counts.get((c + 1, s, t)) for s, t in run_pairs(chain)]
        assert kept == ([mult for _, mult in digits] if exact else [None] * len(digits))
        # the least class past 2,048 bits: 2,049 * bit_length(1), 1,025 *
        # bit_length(2..3) = 2,050 and 683 * bit_length(4..6) = 2,049
        assert exact == (c >= {1: 2048, 2: 1024, 3: 682}[(rank - 1).bit_length()])
        decimal_calls.clear()


@pytest.fixture
def int_sums(monkeypatch):
    """The weights of the int ``_witt_sums`` calls, with the table cache cleared and a fresh store."""
    calls = []
    original = witt._witt_sums

    def counted(weight, letters, number=int):
        if number is int:
            calls.append(weight)
        return original(weight, letters, number)

    monkeypatch.setattr(witt, "_witt_sums", counted)
    witt._small_table.cache_clear()
    monkeypatch.setattr(witt, "_kept", witt._Kept())
    yield calls
    witt._small_table.cache_clear()


def test_large_formula_result_makes_ints_only_when_read(capsys, int_sums, decimal_calls):
    # the CLI prints a large formula query from exact decimal counts; only a
    # library caller's result, which holds its summands, makes the int table
    chain = canonicalize(CyclicDecomposition((6, 5, 4, 3, 2)))
    assert cli.main(["compute", "--group", "6,5,4,3,2", "--class", str(10**5),
                     "--method", "formula"]) == 0
    out = capsys.readouterr().out
    assert int_sums == []  # no int Witt sum, for the digits or the order
    assert decimal_calls == [10**5 + 1]
    result = nilpotent_multiplier(chain, 10**5)
    assert int_sums == [10**5 + 1]
    assert multiplier_order(result) is None
    assert f"multiplier: {cli._direct_sum(summand_digits(result))}\n" in out
    assert int_sums == [10**5 + 1]


def test_capped_query_makes_no_int_table(capsys, int_sums):
    # verify runs the oracle first, whose cap refuses the class by a bit-length
    # bound before the formula makes an int table
    assert cli.main(["compute", "--group", "6,5,4,3,2", "--class", str(10**6),
                     "--method", "both"]) == 3
    assert "exceed the enumeration cap" in capsys.readouterr().err
    assert int_sums == []


@pytest.mark.parametrize("rank", range(2, 65))
def test_sourced_results_are_past_the_order_bound(rank, decimal_calls):
    # the smallest class whose digits formula_digits sources from exact
    # decimal: the int route's order is too large too, so formula_digits may
    # answer None for it without the ints
    bits = (rank - 1).bit_length()
    c = _STR_MAX_BITS // bits  # weight c + 1 is the least over the bound
    assert _exact_decimal(c + 1, rank) and not _exact_decimal(c, rank)
    chain = chain_of(*strict(rank)) if rank <= 7 else chain_of(*[2**i for i in range(rank, 0, -1)])
    result = nilpotent_multiplier(chain, c)
    assert multiplier_order(result) is None
    assert formula_digits(chain, c) == (summand_digits(result), None)
    assert decimal_calls == [c + 1]
    # one class lower, the digits and the order are the int result's
    lower = nilpotent_multiplier(chain, c - 1)
    assert formula_digits(chain, c - 1) == (summand_digits(lower), multiplier_order(lower))
    assert decimal_calls == [c + 1]


@pytest.mark.parametrize("limit", [None, 640])
def test_reprs_are_total(limit):
    # the dataclass reprs wrote ints with str(), which the int-to-str digit
    # limit refuses past 4,300 digits (here 640): a multiplicity of 77,800
    # digits, and a chain entry of 4,772
    values = [
        nilpotent_multiplier(chain_of(4, 4, 2), 10**5),
        chain_of(3**10000),
        MultiplierResult(((4, 3),)),
        MultiplierResult(()),
        chain_of(7),
        chain_of(),
        chain_of(24, 4),
    ]
    original = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        expected = [
            f"MultiplierResult(summands={v.summands!r})" if isinstance(v, MultiplierResult)
            else f"InvariantFactors(chain={v.chain!r})"
            for v in values
        ]
        sys.set_int_max_str_digits(original if limit is None else limit)
        reprs = [repr(v) for v in values]
    finally:
        sys.set_int_max_str_digits(original)
    assert reprs == expected
    assert reprs[2:] == [
        "MultiplierResult(summands=((4, 3),))",
        "MultiplierResult(summands=())",
        "InvariantFactors(chain=(7,))",
        "InvariantFactors(chain=())",
        "InvariantFactors(chain=(24, 4))",
    ]


# The value classes as frozen dataclasses, the way they were declared before
# they became slots classes: equality, hash, repr and __match_args__ must read
# the same.  Every repr writes its ints with decimal_str (test_reprs_are_total);
# for small ints it is the dataclass repr.
DATACLASS_TWINS = {
    cls: dataclasses.make_dataclass(cls.__name__, fields, frozen=True)
    for cls, fields in [
        (CyclicDecomposition, [("orders", tuple, dataclasses.field(default=()))]),
        (InvariantFactors, [("chain", tuple, dataclasses.field(default=()))]),
        (MultiplierResult, [("summands", tuple)]),
        (VerificationReport, ["formula", "oracle", "equal", "group"]),
    ]
}


def value_examples():
    formula = nilpotent_multiplier(chain_of(12, 6, 2), 2)
    return [
        CyclicDecomposition(),
        CyclicDecomposition((2,)),
        CyclicDecomposition([8, 12]),
        CyclicDecomposition((1, 1, 12)),
        chain_of(),
        chain_of(2),
        chain_of(24, 4),
        MultiplierResult(()),
        MultiplierResult(((2, 1),)),
        MultiplierResult(((6, 1), (2, 2))),
        nilpotent_multiplier(chain_of(6, 2), 3000),  # a multiplicity of 900 digits
        formula,
        verify(CyclicDecomposition((12, 6, 2)), 2),
        verify(CyclicDecomposition((4, 2)), 1),
        VerificationReport(formula, MultiplierResult(()), False, chain_of(12, 6, 2)),
    ]


def dataclass_twin(value):
    return DATACLASS_TWINS[type(value)](
        *(getattr(value, name) for name in type(value).__match_args__)
    )


def test_values_read_as_their_dataclass_twins():
    values = value_examples()
    twins = [dataclass_twin(v) for v in values]
    for value, twin in zip(values, twins):
        assert type(value).__match_args__ == type(twin).__match_args__
        assert repr(value) == repr(twin)
        assert hash(value) == hash(twin)
    for (a, twin_a), (b, twin_b) in itertools.product(zip(values, twins), repeat=2):
        assert (a == b) == (twin_a == twin_b), (a, b)
        assert (a != b) == (twin_a != twin_b), (a, b)
    # equal values of different classes are not equal
    assert CyclicDecomposition((2,)) != InvariantFactors((2,))
    assert MultiplierResult(()) != ()
    assert CyclicDecomposition((8, 12)) != (8, 12)


@pytest.mark.parametrize("value", value_examples(), ids=lambda v: type(v).__name__)
def test_values_are_frozen(value):
    for name in (*type(value).__match_args__, "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert dataclass_twin(value) == dataclass_twin(value)  # nothing changed
    with pytest.raises(AttributeError):
        value.__dict__


@pytest.mark.parametrize("value", value_examples(), ids=lambda v: type(v).__name__)
def test_values_pickle_and_copy(value):
    for twin in (
        pickle.loads(pickle.dumps(value)),
        pickle.loads(pickle.dumps(value, protocol=0)),
        copy.copy(value),
        copy.deepcopy(value),
    ):
        assert type(twin) is type(value)
        assert twin == value
        assert repr(twin) == repr(value)
        assert all(getattr(twin, name) == getattr(value, name)
                   for name in type(value).__match_args__)


def test_values_match_positionally():
    match verify(CyclicDecomposition((12, 6, 2)), 1):
        case VerificationReport(
            MultiplierResult(summands), oracle, True, InvariantFactors(chain)
        ):
            assert summands == ((6, 1), (2, 2))
            assert oracle == MultiplierResult(summands)
            assert chain == (12, 6, 2)
        case other:
            pytest.fail(f"no match: {other!r}")
    match CyclicDecomposition((8, 12)):
        case CyclicDecomposition((8, second)):
            assert second == 12
        case other:
            pytest.fail(f"no match: {other!r}")
    match MultiplierResult(((4, 3), (2, 5))):
        case MultiplierResult(((order, mult), second)):
            assert (order, mult, second) == (4, 3, (2, 5))
        case other:
            pytest.fail(f"no match: {other!r}")


def test_corrupted_decimal_count_raises(monkeypatch, no_kept_counts):
    # the Decimal Witt sums are corrupted inside witt, after their own
    # divisibility check and before decimal_counts checks them modulo a prime
    sums = witt._witt_sums

    def off_by_one(weight, letters, number=int):
        counts = sums(weight, letters, number)
        if number is not int:
            with decimal.localcontext(exact_context()):
                counts[-1] += 1
        return counts

    monkeypatch.setattr(witt, "_witt_sums", off_by_one)
    chain = chain_of(6, 2, 2)
    # the modular Witt sums catch it, on the formula route and in witt_count_digits
    with pytest.raises(ArithmeticError, match="disagrees with its Witt sum modulo"):
        formula_digits(chain, 10**5)
    with pytest.raises(ArithmeticError, match="disagrees with its Witt sum modulo"):
        witt_count_digits(10**5 + 1, 3)
    # with the modular check made blind (every sum is 0 modulo 1), the int
    # route still tells them apart
    monkeypatch.setattr(witt, "_CHECK_PRIME", 1)
    digits, total = formula_digits(chain, 10**5)
    assert total is None
    expected = summand_digits(nilpotent_multiplier(chain, 10**5))
    assert [order for order, _ in digits] == [order for order, _ in expected] == ["2"]
    assert digits != expected
    assert witt_count_digits(10**5 + 1, 3) != decimal_str(witt_count(10**5 + 1, 3))
    monkeypatch.undo()
    # the blind check kept the corrupted counts; a fresh store evaluates them again
    monkeypatch.setattr(witt, "_kept", witt._Kept())
    assert formula_digits(chain, 10**5) == (expected, None)


def test_large_formula_leaves_the_callers_decimal_context_unchanged():
    def state(context):
        return (context.prec, context.rounding, context.Emax, context.Emin,
                context.capitals, context.clamp, dict(context.traps),
                dict(context.flags))

    with decimal.localcontext() as context:
        context.prec = 7
        context.rounding = decimal.ROUND_FLOOR
        context.Emax = 99
        context.traps[decimal.Inexact] = True
        context.traps[decimal.DivisionByZero] = False
        before = state(context)
        summands, _ = formula_digits(chain_of(6, 6, 3), 10**5)
        digits = witt_count_digits(10**5 + 1, 4)
        assert decimal.getcontext() is context
        assert state(context) == before
    assert summands == summand_digits(nilpotent_multiplier(chain_of(6, 6, 3), 10**5))
    assert digits == decimal_str(witt_count(10**5 + 1, 4))


@pytest.mark.parametrize(
    "weight, letters",
    [(1, 0), (6, 4), (_STR_MAX_BITS, 2), (_STR_MAX_BITS + 1, 2), (_STR_MAX_BITS // 2, 3),
     (_STR_MAX_BITS // 2 + 1, 3), (_STR_MAX_BITS // 3, 7), (_STR_MAX_BITS // 3 + 1, 7),
     (15_001, 3), (30_001, 2), (10**4, 7), (10**4 + 1, 7)],
)
def test_witt_count_digits_equal_decimal_str(weight, letters):
    # on both sides of the exact-decimal bound at bit_length(letters - 1) = 1, 2, 3
    assert witt_count_digits(weight, letters) == decimal_str(witt_count(weight, letters))


@pytest.mark.parametrize("rank", [2, 4, 5, 8, 64])
@pytest.mark.parametrize("bits, past", [(_STR_MAX_BITS, 0), (_STR_MAX_BITS, 1), (2 * _STR_MAX_BITS, 1)])
def test_no_multiplicity_is_split(monkeypatch, no_kept_counts, rank, bits, past):
    # just under the bound a multiplicity is an int of at most _STR_MAX_BITS
    # bits, which decimal_str writes by str(); past it, a Decimal written by
    # str().  The orders are 4 and 2, so nothing is split.  Past the bound
    # the store keeps the digits of both multiplicities, under the run ends
    # (0, rank - 1) and (rank - 1, rank), and of the count, under
    # (weight, 0, rank); under it the ints past witt._TABLE_MEMO_BITS.  So a
    # warm repeat evaluates nothing.
    calls = Counter()
    for module, name in ((multiplier, "_split_by_tens"), (multiplier, "_split_by_twos"),
                         (witt, "_witt_sums")):
        def counted(*args, _name=name, _original=getattr(module, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    weight = bits // (rank - 1).bit_length() + past
    assert _exact_decimal(weight, rank) == past
    if bits == _STR_MAX_BITS:  # the least weight past the bound is weight + 1 - past
        assert _exact_decimal(weight + 1 - past, rank) and not _exact_decimal(weight - past, rank)
    chain = chain_of(*[4] * (rank - 1), 2)
    digits = formula_digits(chain, weight - 1)
    count = witt_count_digits(weight, rank)
    assert len(count) > 300  # past 1,000 bits
    evaluated = calls["_witt_sums"]
    assert calls == {"_witt_sums": evaluated}  # no split
    assert formula_digits(chain, weight - 1) == digits
    if past:  # under the bound witt_count evaluates afresh: it keeps nothing
        assert witt_count_digits(weight, rank) == count
    assert calls == {"_witt_sums": evaluated}
    # the int route's digits
    assert digits == (summand_digits(nilpotent_multiplier(chain, weight - 1)), None)
    assert count == decimal_str(witt_count(weight, rank))


FORMULA_ARGV = ["compute", "--group", "12,12,6,6,6,2", "--class", "3000", "--method", "formula"]


def test_a_warm_formula_query_evaluates_no_witt_sum(monkeypatch, capsys, no_kept_counts):
    # the digits of every multiplicity are kept: a repeated query reads them
    # and evaluates no Witt sum, int or Decimal, with the same bytes out
    outputs = []
    for fmt in ("text", "json"):
        assert cli.main([*FORMULA_ARGV, "--format", fmt]) == 0
        outputs.append(capsys.readouterr().out)
    cold = formula_digits(chain_of(12, 12, 6, 6, 6, 2), 3000)

    def refuse(*args):
        raise AssertionError(f"a Witt sum was evaluated: {args[:2]}")

    monkeypatch.setattr(witt, "_witt_sums", refuse)
    for fmt, expected in zip(("text", "json"), outputs):
        assert cli.main([*FORMULA_ARGV, "--format", fmt]) == 0
        assert capsys.readouterr().out.encode() == expected.encode()
    assert formula_digits(chain_of(12, 12, 6, 6, 6, 2), 3000) == cold


# Run ends (s, t) of each summand: 8,4,2 and 8,8,2 (0, 2), (2, 3); 8,8,8 (0, 3);
# 12,12,6,6,6,2 (0, 2), (2, 5), (5, 6); 12,12,12,12,12,6 (0, 5), (5, 6);
# 2,2,2,2,2,2 (0, 6).  So t = 3, 5 and 6 each come with two values of s.
SHARED_ENDS = [(8, 4, 2), (8, 8, 2), (8, 8, 8), (12, 12, 6, 6, 6, 2),
               (12, 12, 12, 12, 12, 6), (2, 2, 2, 2, 2, 2)]


@pytest.mark.parametrize("entries", [SHARED_ENDS, SHARED_ENDS[::-1]], ids=["forward", "reversed"])
def test_chains_that_share_a_run_end_keep_their_own_digits(entries, no_kept_counts):
    # a multiplicity b_t - b_s is kept under (weight, s, t): a key without s
    # would give a chain the digits of another chain's run ending at t
    chains = [chain_of(*chain) for chain in entries]
    expected = [(summand_digits(nilpotent_multiplier(chain, 3000)), None) for chain in chains]
    for _ in ("cold", "warm"):
        assert [formula_digits(chain, 3000) for chain in chains] == expected
    digit_keys = {key for key in witt._kept.counts if key[2] is not int}
    assert digit_keys == {(3001, s, t) for chain in chains for s, t in run_pairs(chain)}


def test_a_count_that_fails_its_check_leaves_no_digits(monkeypatch, no_kept_counts):
    # the Decimal counts are checked together before any difference is kept
    sums = witt._witt_sums

    def off_by_one(weight, letters, number=int):
        counts = sums(weight, letters, number)
        if number is not int:
            with decimal.localcontext(exact_context()):
                counts[0] += 1
        return counts

    monkeypatch.setattr(witt, "_witt_sums", off_by_one)
    for call in (lambda: formula_digits(chain_of(12, 12, 6, 6, 6, 2), 3000),
                 lambda: witt_count_digits(3001, 6)):
        with pytest.raises(ArithmeticError, match="disagrees with its Witt sum modulo"):
            call()
        assert not witt._kept.counts and witt._kept.bits == 0


def test_kept_digits_are_charged_8_bits_a_character(monkeypatch, no_kept_counts):
    weight = 3001
    digits = {q: decimal_str(witt_count(weight, q)) for q in (3, 4, 5)}
    charge = {q: 8 * len(text) for q, text in digits.items()}
    # room for all three but one bit
    monkeypatch.setattr(witt, "_KEPT_BITS", sum(charge.values()) - 1)

    def holds(*letters):
        assert list(witt._kept.counts.items()) == [((weight, 0, q), digits[q]) for q in letters]
        assert witt._kept.bits == sum(charge[q] for q in letters) <= witt._KEPT_BITS

    assert [witt_count_digits(weight, q) for q in (3, 4)] == [digits[3], digits[4]]
    holds(3, 4)
    assert witt_count_digits(weight, 3) == digits[3]  # a hit makes it the most recent
    holds(4, 3)
    assert witt_count_digits(weight, 5) == digits[5]  # the least recently used goes
    holds(3, 5)
    # digits charged at most _TABLE_MEMO_BITS are not kept; one more character is
    witt._kept.keep((weight, 1, 2), "7" * (witt._TABLE_MEMO_BITS // 8))
    holds(3, 5)
    witt._kept.keep((weight, 1, 2), "7" * (witt._TABLE_MEMO_BITS // 8 + 1))
    assert list(witt._kept.counts)[-1] == (weight, 1, 2)
    assert witt._kept.bits == charge[3] + charge[5] + witt._TABLE_MEMO_BITS + 8


# ---------------------------------------------------------------------------
# Result type invariants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "summands",
    [((1, 2),), ((4, 0),), ((2, 1), (4, 1)), ((6, 1), (4, 1)), ((4, 1), (4, 2))],
)
def test_result_rejects_malformed_summands(summands):
    with pytest.raises(ValueError):
        MultiplierResult(summands)


def test_result_copies_any_iterable_of_pairs():
    expected = MultiplierResult(((4, 1), (2, 3)))
    pairs = [(4, 1), (2, 3)]
    for summands in ((pair for pair in pairs), pairs, [[4, 1], [2, 3]], iter(pairs)):
        result = MultiplierResult(summands)
        assert result == expected
        assert hash(result) == hash(expected)
        assert type(result.summands) is tuple
        assert all(type(pair) is tuple for pair in result.summands)
        assert repr(result) == "MultiplierResult(summands=((4, 1), (2, 3)))"


def test_result_keeps_no_reference_to_the_callers_list():
    pairs = [[4, 1]]
    result = MultiplierResult(pairs)
    pairs.append([3, 1])  # a broken chain, had the value kept the list
    pairs[0][1] = 5
    assert result.summands == ((4, 1),)
    assert hash(result) == hash(MultiplierResult(((4, 1),)))


@pytest.mark.parametrize(
    "make, value, error, message",
    [
        (CyclicDecomposition, (4, 0), ValueError, "cyclic order must be >= 1, got 0"),
        (CyclicDecomposition, (4, -3), ValueError, "cyclic order must be >= 1, got -3"),
        (CyclicDecomposition, (4, 2.0), TypeError, "cyclic order must be an int, got 2.0"),
        (CyclicDecomposition, (4, 10**12 + 1), ValueError,
         "cyclic order 1000000000001 exceeds the bound 1000000000000"),
        (InvariantFactors, (4, 1), ValueError, "invariant factor must be >= 2, got 1"),
        (InvariantFactors, (4, True), TypeError, "invariant factor must be an int, got True"),
        (InvariantFactors, (6, 4), ValueError, "broken divisibility chain: 4 does not divide 6"),
        (MultiplierResult, ((1, 2),), ValueError, "summand order must be >= 2, got 1"),
        (MultiplierResult, ((4, 0),), ValueError, "summand multiplicity must be >= 1, got 0"),
        (MultiplierResult, ((2, 1), (4, 1)), ValueError,
         "summand orders must strictly decrease along a divisibility chain; got 2 then 4"),
        (MultiplierResult, ((4, 1), (4, 2)), ValueError,
         "summand orders must strictly decrease along a divisibility chain; got 4 then 4"),
        # a float or a bool in either field of a summand
        (MultiplierResult, ((4, 1.5),), TypeError, "summand multiplicity must be an int, got 1.5"),
        (MultiplierResult, ((4.0, 1),), TypeError, "summand order must be an int, got 4.0"),
        (MultiplierResult, ((4, True),), TypeError, "summand multiplicity must be an int, got True"),
        (MultiplierResult, ((True, 1),), TypeError, "summand order must be an int, got True"),
        (MultiplierResult, ((4, 1), (2, decimal.Decimal(3))), TypeError,
         "summand multiplicity must be an int, got Decimal('3')"),
    ],
)
def test_each_single_fault_gets_its_message(make, value, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make(value)


ZEROS = "0" * 5000  # past the interpreter's default int-to-str digit limit


@pytest.mark.parametrize(
    "make, value, message",
    [
        (CyclicDecomposition, (10**5000,), f"cyclic order 1{ZEROS} exceeds the bound 1000000000000"),
        (InvariantFactors, (-(10**5000),), f"invariant factor must be >= 2, got -1{ZEROS}"),
        (InvariantFactors, (3 * 10**5000, 2 * 10**5000),
         f"broken divisibility chain: 2{ZEROS} does not divide 3{ZEROS}"),
        (MultiplierResult, ((4, -(10**5000)),), f"summand multiplicity must be >= 1, got -1{ZEROS}"),
        (MultiplierResult, ((3 * 10**5000, 1), (2 * 10**5000, 1)),
         f"summand orders must strictly decrease along a divisibility chain; got 3{ZEROS} then 2{ZEROS}"),
    ],
    ids=["order", "factor", "chain", "multiplicity", "summand-chain"],
)
def test_faults_in_huge_values_get_their_message(make, value, message):
    with pytest.raises(ValueError) as raised:
        make(value)
    assert str(raised.value) == message


HUGE = -(10**5000)


@pytest.mark.parametrize(
    "call, args, message",
    [
        (nilpotent_multiplier, (InvariantFactors((4, 2)), HUGE),
         f"nilpotency class must be >= 1, got -1{ZEROS}"),
        (tensor_oracle, (CyclicDecomposition((4, 2)), HUGE),
         f"nilpotency class must be >= 1, got -1{ZEROS}"),
        (witt_count, (HUGE, 2), f"weight must be >= 1, got -1{ZEROS}"),
        (witt_count, (3, HUGE), f"letters must be >= 0, got -1{ZEROS}"),
        (b_sequence, (HUGE, 2), f"nilpotency class must be >= 1, got -1{ZEROS}"),
        (b_sequence, (1, HUGE), f"rank must be >= 1, got -1{ZEROS}"),
        (witt.witt_counts, (HUGE, (2,)), f"weight and letters must be >= 1, got -1{ZEROS} and 2"),
        (witt.decimal_counts, (2, (HUGE,)),
         f"weight and letters must be >= 1, got 2 and -1{ZEROS}"),
        (witt.divisors, (HUGE,), f"n must be >= 1, got -1{ZEROS}"),
        (trial_division, (HUGE,), f"n must be >= 1, got -1{ZEROS}"),
        (factorize, (HUGE,), f"can only factor integers in [1, 1000000000000], got -1{ZEROS}"),
    ],
    ids=["formula-class", "oracle-class", "witt-weight", "witt-letters", "b-class", "b-rank",
         "counts", "decimal-counts", "divisors", "trial-division", "factorize"],
)
def test_huge_arguments_get_their_message(call, args, message):
    with pytest.raises(ValueError) as raised:
        call(*args)
    assert str(raised.value) == message


ARG = object()  # where the value under test goes in a call's arguments, tuples included


def with_arg(args, value):
    """``args`` with ``value`` in place of ``ARG``, inside tuples too."""
    return tuple(with_arg(arg, value) if type(arg) is tuple else value if arg is ARG else arg
                 for arg in args)


# 5000.0 takes formula_digits past the exact-decimal bound
@pytest.mark.parametrize("c", [True, 2.0, "3", None, decimal.Decimal(3), 5000.0])
@pytest.mark.parametrize(
    "call, args, what",
    [
        pytest.param(nilpotent_multiplier, (InvariantFactors((4, 2)), ARG), "nilpotency class",
                     id="nilpotent_multiplier-group0"),
        pytest.param(tensor_oracle, (CyclicDecomposition((4, 2)), ARG), "nilpotency class",
                     id="tensor_oracle-group1"),
        pytest.param(verify, (CyclicDecomposition((4, 2)), ARG), "nilpotency class",
                     id="verify-group2"),
        pytest.param(formula_digits, (InvariantFactors((4, 2)), ARG), "nilpotency class",
                     id="formula_digits-class"),
        pytest.param(witt_count_digits, (ARG, 3), "weight", id="witt_count_digits-weight"),
        pytest.param(witt_count_digits, (3, ARG), "letters", id="witt_count_digits-letters"),
        pytest.param(witt_count, (ARG, 3), "weight", id="witt_count-weight"),
        pytest.param(witt_count, (3, ARG), "letters", id="witt_count-letters"),
        pytest.param(witt.witt_counts, (ARG, (2, 3)), "weight", id="witt_counts-weight"),
        pytest.param(witt.witt_counts, (3, (1, ARG)), "letters", id="witt_counts-letters"),
        pytest.param(witt.decimal_counts, (ARG, (2, 3)), "weight", id="decimal_counts-weight"),
        pytest.param(witt.decimal_counts, (3, (1, ARG)), "letters", id="decimal_counts-letters"),
        pytest.param(b_sequence, (ARG, 2), "nilpotency class", id="b_sequence-class"),
        pytest.param(b_sequence, (1, ARG), "rank", id="b_sequence-rank"),
        pytest.param(witt.divisors, (ARG,), "n", id="divisors-n"),
        pytest.param(trial_division, (ARG,), "n", id="trial_division-n"),
        pytest.param(factorize, (ARG,), "n", id="factorize-n"),
        pytest.param(hall.check_cap, (ARG, 3), "weight", id="check_cap-weight"),
        pytest.param(hall.check_cap, (3, ARG), "letters", id="check_cap-letters"),
        pytest.param(letter_profile, (ARG, 3), "weight", id="letter_profile-weight"),
        pytest.param(letter_profile, (3, ARG), "letters", id="letter_profile-letters"),
        pytest.param(enumerate_basic, (ARG, 2), "weight", id="enumerate_basic-weight"),
        pytest.param(enumerate_basic, (2, ARG), "letters", id="enumerate_basic-letters"),
        pytest.param(cli.check_result_size, (ARG, 3), "weight", id="check_result_size-weight"),
        pytest.param(cli.check_result_size, (3, ARG), "letters", id="check_result_size-letters"),
        pytest.param(cli.invariant_chains, (ARG, 2), "max order", id="invariant_chains-order"),
        pytest.param(cli.invariant_chains, (4, ARG), "max rank", id="invariant_chains-rank"),
    ],
)
def test_class_must_be_an_int(call, args, what, c):
    # a bool, float, str or Decimal is no class, weight, letter count, rank
    # or n: every int argument of a public function is refused before any
    # work by the value classes' rule, abelian._check_ints
    with pytest.raises(TypeError, match=f"^{what} must be an int, got {re.escape(repr(c))}$"):
        call(*with_arg(args, c))


def test_report_constructor_checks_its_fields():
    formula = nilpotent_multiplier(chain_of(4, 2), 1)
    fields = [formula, formula, True, chain_of(4, 2)]
    for k, (wrong, message) in enumerate([
        ("x", "formula must be of type MultiplierResult, got str"),
        (None, "oracle must be of type MultiplierResult, got NoneType"),
        (1, "equal must be of type bool, got int"),
        ((4, 2), "group must be of type InvariantFactors, got tuple"),
    ]):
        with pytest.raises(TypeError, match=f"^{message}$"):
            VerificationReport(*fields[:k], wrong, *fields[k + 1:])
    with pytest.raises(TypeError):
        VerificationReport("x", None, 3, [1, 2])
    report = VerificationReport(*fields)
    assert hash(report) == hash(verify(CyclicDecomposition((4, 2)), 1))


@st.composite
def derived_values(draw):
    """The values canonicalize, nilpotent_multiplier, tensor_oracle and verify return on one input.

    The formula runs at a small class and at large ones, whose multiplicities
    are big ints; the oracle at classes its cap admits on up to 40 letters.
    """
    orders = draw(st.lists(st.integers(1, 60), max_size=6) | repeated_orders(8)
                  | wide_mixed_orders())
    d = CyclicDecomposition(tuple(orders))
    group = canonicalize(d)
    formula_class = draw(st.sampled_from([1, 2, 3, 64, 10**4]))
    oracle_class = draw(st.integers(1, 3))
    return [group, nilpotent_multiplier(group, formula_class),
            tensor_oracle(d, oracle_class), verify(d, oracle_class)]


@given(derived_values())
@example([InvariantFactors(()), MultiplierResult(()), MultiplierResult(()),
          verify(CyclicDecomposition(()), 1)])
@settings(deadline=None)
def test_derived_values_rebuild_through_the_public_constructors(values):
    # the routes build their values unchecked; the public constructor, which
    # checks, must accept each one and give the same value
    for value in values:
        rebuilt = type(value)(*(getattr(value, name) for name in type(value).__match_args__))
        assert rebuilt == value
        assert hash(rebuilt) == hash(value)


def test_result_equality_compares_summands_only():
    # Z6 x Z2 and Z2 x Z2 at class 2 both have multiplier Z2^(2)
    wide = nilpotent_multiplier(chain_of(6, 2), 2)
    narrow = nilpotent_multiplier(chain_of(2, 2), 2)
    assert wide == narrow == MultiplierResult(((2, 2),))
    assert hash(wide) == hash(narrow)
    assert tensor_oracle(CyclicDecomposition((4, 6)), 2) == narrow
    assert nilpotent_multiplier(chain_of(2, 2), 1) != narrow


def test_class_must_be_positive():
    with pytest.raises(ValueError):
        nilpotent_multiplier(chain_of(4, 2), 0)
    with pytest.raises(ValueError):
        tensor_oracle(CyclicDecomposition((4, 2)), 0)


def test_verify_report_contents():
    report = verify(CyclicDecomposition((12, 6, 2)), 1)
    assert report.equal
    assert report.formula.summands == report.oracle.summands == ((6, 1), (2, 2))
    assert report.group.chain == (12, 6, 2)


def test_compressed_form_merges_coprime_contributions():
    # gcd pattern {2, 3} from coprime letters: Z2 (+) Z3 must compress to Z6
    result = tensor_oracle(CyclicDecomposition((4, 6, 9)), 1)
    assert result.summands == ((6, 1),)
