import collections
import contextlib
import copy
import io
import itertools
import math
import pickle
import random
import re
import time
from collections import Counter
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nilmult import abelian, cli, multiplier
from nilmult.abelian import (
    MAX_ORDER,
    CyclicDecomposition,
    InvariantFactors,
    _event_walk,
    _exponent_counts,
    canonicalize,
    factorize,
)
from nilmult.multiplier import MultiplierResult, nilpotent_multiplier, tensor_oracle, verify
from test_acceptance import canonicalize_primary

# orders small enough that the lcm of four of them stays within MAX_ORDER,
# so canonical chains can be fed back in as decompositions
small_orders = st.lists(st.integers(1, 1000), max_size=4)
decompositions = small_orders.map(lambda v: CyclicDecomposition(tuple(v)))

# 1, prime powers, and twice two 12-digit primes, in runs of up to 50 copies:
# the counted pass adds a whole run to the chain at once
REPEAT_POOL = (1, 2, 4, 8, 3, 9, 27, 5, 25, 7, 2 * 100_000_000_003, 2 * 100_000_000_019)
repeated_decompositions = st.lists(
    st.tuples(st.sampled_from(REPEAT_POOL), st.integers(1, 50)), max_size=6
).map(lambda runs: CyclicDecomposition(
    tuple(order for order, copies in runs for _ in range(copies))[:60]
))


@pytest.mark.parametrize(
    "orders, expected",
    [
        ((8, 12), (24, 4)),
        ((6, 4), (12, 2)),
        ((12,), (12,)),
        ((2,), (2,)),
        ((1, 1, 1), ()),
        ((), ()),
        ((3, 2), (6,)),
        ((12, 6, 2), (12, 6, 2)),
        ((2, 2), (2, 2)),
        ((4, 1), (4,)),
        # a run of four 2s, longer than the 2 copies of 6
        ((2, 2, 2, 2, 6, 6), (6, 6, 2, 2, 2, 2)),
        # 3 copies of 6 on a chain of 2 entries
        ((4, 2, 6, 6, 6), (12, 6, 6, 2, 2)),
        # the gcd with 3 is 1 right after the skipped second 4
        ((12, 4, 4, 2, 3), (12, 12, 4, 2)),
        # 4 changes the first two of the four 6s only
        ((6, 6, 6, 6, 4, 4), (12, 12, 6, 6, 2, 2)),
    ],
)
def test_canonicalize_examples(orders, expected):
    assert canonicalize(CyclicDecomposition(orders)).chain == expected


@given(decompositions)
def test_canonicalize_is_idempotent(d):
    chain = canonicalize(d)
    assert canonicalize(CyclicDecomposition(chain.chain)) == chain


@given(decompositions)
def test_canonicalize_preserves_group_order(d):
    assert math.prod(canonicalize(d).chain) == math.prod(d.orders)


@given(decompositions, st.randoms(use_true_random=False))
def test_canonicalize_is_permutation_invariant(d, rng):
    shuffled = list(d.orders)
    rng.shuffle(shuffled)
    assert canonicalize(CyclicDecomposition(tuple(shuffled))) == canonicalize(d)


@given(decompositions)
def test_canonical_chain_is_divisibility_chain(d):
    chain = canonicalize(d).chain
    assert all(n >= 2 for n in chain)
    assert all(a % b == 0 for a, b in zip(chain, chain[1:]))


@given(st.integers(2, 10**5), st.integers(2, 10**5))
def test_coprime_pairs_merge(m, n):
    assume(math.gcd(m, n) == 1)
    assert canonicalize(CyclicDecomposition((m, n))).chain == (m * n,)


@given(st.lists(st.integers(1, 10**4), max_size=4))
def test_fixpoint_agrees_with_primary_decomposition(orders):
    d = CyclicDecomposition(tuple(orders))
    assert canonicalize(d) == canonicalize_primary(d)


@given(repeated_decompositions)
@settings(deadline=None)
def test_canonicalize_agrees_with_primary_on_repeated_orders(d):
    assert canonicalize(d) == canonicalize_primary(d)


def test_canonicalize_many_repeats_is_fast():
    # two distinct orders: one step per chain entry for each, not one per
    # pair of the 120,000 entries
    d = CyclicDecomposition((2,) * 60000 + (6,) * 60000)
    start = time.perf_counter()
    chain = canonicalize(d).chain
    elapsed = time.perf_counter() - start
    assert chain == (6,) * 60000 + (2,) * 60000
    assert elapsed < 1.0, elapsed


# a 12-digit prime shared by several orders
P12 = 999_999_999_989


@pytest.mark.parametrize(
    "multiset, expected",
    [
        # powers of one prime
        ({2: 3, 4: 1, 8: 2, 1024: 1}, ((1024, 1), (8, 2), (4, 1), (2, 3))),
        ({3**7: 1, 3: 4, 9: 2}, ((3**7, 1), (9, 2), (3, 4))),
        # p^a * q^b mixes
        ({12: 1, 18: 2, 8: 1, 27: 1}, ((216, 1), (36, 1), (18, 1), (6, 1))),
        ({2**5 * 3: 1, 2 * 3**4: 3, 6: 2}, ((2**5 * 3**4, 1), (2 * 3**4, 2), (6, 3))),
        # equal orders
        ({6: 4}, ((6, 4),)),
        ({10**12: 3}, ((10**12, 3),)),
        # several orders sharing one 12-digit prime
        ({2 * P12: 1, 3 * P12: 2, 5 * P12: 1, P12: 1},
         ((30 * P12, 1), (3 * P12, 1), (P12, 3))),
        ({P12: 2, 2 * P12: 1, 4: 1}, ((4 * P12, 1), (2 * P12, 1), (P12, 1))),
        # a base element that a later order splits, in either insertion order
        ({6: 1, 4: 1}, ((12, 1), (2, 1))),
        ({4: 1, 6: 1}, ((12, 1), (2, 1))),
        ({30: 1, 6: 1, 4: 1, 9: 1}, ((180, 1), (6, 2))),
        # base elements with one exponent beside ones with several
        ({6: 2, 18: 1, 10: 1}, ((90, 1), (6, 2), (2, 1))),
        ({P12: 3, 4 * P12: 1, 9: 2}, ((36 * P12, 1), (9 * P12, 1), (P12, 2))),
        ({30: 1, 7: 1, 22: 2}, ((2310, 1), (22, 1), (2, 1))),
        # powers of two split off: odd parts that merge, no odd part, 2**39
        # beside an odd order, and no even order at all
        ({6: 1, 12: 2, 24: 1}, ((24, 1), (12, 2), (6, 1))),
        ({2: 1, 4: 2, 8: 1}, ((8, 1), (4, 2), (2, 1))),
        ({2**39: 1, 3 * 2**39: 1, 5: 1}, ((15 * 2**39, 1), (2**39, 1))),
        ({9: 1, 15: 2}, ((45, 1), (15, 1), (3, 1))),
        ({}, ()),
    ],
)
def test_compressed_invariant_form_cases(multiset, expected):
    assert _event_walk(_exponent_counts(multiset)) == expected


# small primes, their powers and P12; products of one to three of them make
# base elements that divide, are divided by, or equal later inputs
BASE_POOL = (2, 3, 5, 7, 4, 8, 9, 27, 25, P12)
base_inputs = st.lists(
    st.lists(st.sampled_from(BASE_POOL), min_size=1, max_size=3).map(math.prod),
    max_size=8,
)


def reference_coprime_base(numbers):
    """The coprime base by a plain scan: no move to front, no second product test."""
    base = []
    product = 1
    pending = list(numbers)
    while pending:
        x = pending.pop()
        if math.gcd(product, x) == 1:
            base.append(x)
            product *= x
            continue
        for i, b in enumerate(base):
            g = math.gcd(b, x)
            if g == b:
                x //= b
                while x % b == 0:
                    x //= b
                if x == 1:
                    break
                g = math.gcd(b, x)
            if g > 1:
                del base[i]
                product //= b
                pending += [y for y in (g, b // g, x // g) if y > 1]
                break
        else:
            base.append(x)
            product *= x
    return base


def assert_coprime_base(base, numbers):
    assert all(b >= 2 for b in base)
    assert all(math.gcd(a, b) == 1 for a, b in itertools.combinations(base, 2))
    for x in numbers:
        for b in base:
            while x % b == 0:
                x //= b
        assert x == 1, x


@given(base_inputs, st.randoms(use_true_random=False))
@example([2, 12], random.Random(0))  # b divides a later x
@example([12, 2], random.Random(0))  # x divides b
@example([6, 6], random.Random(0))  # x equals b
@example([6, 4], random.Random(0))
@example([4, 6], random.Random(0))
@example([P12 * 2, P12**2, 4], random.Random(0))
def test_coprime_base_properties(numbers, rng):
    base = abelian._coprime_base(numbers)
    assert_coprime_base(base, numbers)
    assert all(any(x % b == 0 for x in numbers) for b in base)
    shuffled = list(numbers)
    rng.shuffle(shuffled)
    for reordered in (numbers[::-1], shuffled):
        assert sorted(abelian._coprime_base(reordered)) == sorted(base)


# even orders below 10**6 share 2 and often more; BASE_POOL products split them
shared_factor_inputs = st.lists(
    st.integers(1, 5 * 10**5).map(lambda n: 2 * n)
    | st.lists(st.sampled_from(BASE_POOL), min_size=1, max_size=3).map(math.prod),
    max_size=40,
)


@given(shared_factor_inputs)
@example([2, 12, 6, 4])  # 6 splits 4, then strips move 2 and 3 to the front
@example([18, 12, 2])  # 12 stripped of 2 joins as 3; 18 is stripped of 2, then 3
def test_coprime_base_matches_reference_scan(numbers):
    base = abelian._coprime_base(numbers)
    assert_coprime_base(base, numbers)
    assert sorted(base) == sorted(reference_coprime_base(numbers))


@pytest.mark.parametrize("seed", range(5))
def test_coprime_base_of_many_even_orders_matches_reference_scan(seed):
    # hundreds of distinct even orders, as the oracle's wide inputs have: the
    # stripped base element moves to the front again and again
    rng = random.Random(seed)
    numbers = list({2 * rng.randrange(1, 10**6 if seed % 2 else 5 * 10**11)
                    for _ in range(300)})
    base = abelian._coprime_base(numbers)
    assert_coprime_base(base, numbers)
    assert sorted(base) == sorted(reference_coprime_base(numbers))


def test_coprime_base_sees_only_odd_parts(monkeypatch):
    # each order's power of two is read from its bits, so the base is built
    # from the odd parts alone and 2 is counted beside it
    seen = []
    coprime_base = abelian._coprime_base

    def spy(numbers):
        numbers = list(numbers)
        seen.extend(numbers)
        return coprime_base(numbers)

    monkeypatch.setattr(abelian, "_coprime_base", spy)
    rng = random.Random(3)
    wide = {2 * rng.randrange(1, 10**6): rng.randint(1, 5) for _ in range(300)}
    for multiset in ({6: 1, 12: 2, 24: 1}, {2: 1, 4: 2, 8: 1}, {4 * P12: 1, 2**39: 3, 6: 2},
                     wide):
        counts = _exponent_counts(multiset)
        assert sum(counts[2].values()) == sum(multiset.values())
    assert _exponent_counts({6: 1, 12: 2, 24: 1}) == {3: {1: 4}, 2: {1: 1, 2: 2, 3: 1}}
    assert seen
    assert all(x % 2 for x in seen), [x for x in seen if x % 2 == 0][:5]


def reference_canonicalize(decomposition):
    """The chain by the per-entry walk: no run skip, a fresh gcd with the order at each entry."""
    chain = []
    for order, copies in Counter(r for r in decomposition.orders if r > 1).items():
        merged = []
        length = len(chain)
        for j in range(length + copies):
            g = order if j < copies else math.gcd(chain[j - copies], order)
            if g == 1:
                break
            if j < length:
                c = chain[j]
                merged.append(c if c % g == 0 else math.lcm(c, g))
            else:
                merged.append(g)
        chain[: len(merged)] = merged
    return InvariantFactors(tuple(chain))


# runs of 1-5 copies of even orders and of admissible BASE_POOL products (P12
# among them), so the chain has long runs of equal entries
run_orders = st.integers(1, 5 * 10**5).map(lambda n: 2 * n) | st.lists(
    st.sampled_from(BASE_POOL), min_size=1, max_size=3
).map(math.prod).filter(lambda n: n <= MAX_ORDER)
run_decompositions = st.lists(st.tuples(run_orders, st.integers(1, 5)), max_size=12).map(
    lambda runs: CyclicDecomposition(tuple(r for r, copies in runs for _ in range(copies)))
)


@given(run_decompositions)
@example(CyclicDecomposition((2, 2, 2, 2, 6, 6)))  # a run of four 2s, longer than 2 copies
@example(CyclicDecomposition((4, 2, 6, 6, 6)))  # 3 copies of 6 on a chain of 2
@example(CyclicDecomposition((12, 4, 4, 2, 3)))  # g is 1 right after the skipped 4
@example(CyclicDecomposition((6, 6, 6, 6, 4, 4)))  # 4 changes the first two 6s only
@example(CyclicDecomposition((6, 2, 2, 2, 2, 3)))  # g is 1 past the end, after a run
@example(CyclicDecomposition((P12, P12, 6, P12, 4, 2, 2)))  # a 12-digit prime in a run
@settings(deadline=None)
def test_canonicalize_matches_the_per_entry_walk(d):
    assert canonicalize(d) == reference_canonicalize(d)


@given(st.lists(st.integers(1, 60), min_size=1, max_size=8))
@example([4, 6, 1, 6, 4])  # repeats, a 1, and no divisibility order
@example([7, 11, 13])  # pairwise coprime: trivial
@example([60] * 8)
@example([1])
@settings(deadline=None)
def test_schur_multiplier_is_the_sum_of_the_pairwise_gcds(orders):
    # Schur at class 1 on any presentation: M(sum Z_{n_i}) = sum_{i<j}
    # Z_{gcd(n_i, n_j)}, put in invariant form by the per-entry walk, with no
    # Witt count and no Hall basis
    d = CyclicDecomposition(tuple(orders))
    gcds = [math.gcd(a, b) for a, b in itertools.combinations(orders, 2)]
    chain = reference_canonicalize(CyclicDecomposition(gcds)).chain
    expected = MultiplierResult(
        tuple((n, len(list(run))) for n, run in itertools.groupby(chain))
    )
    assert tensor_oracle(d, 1) == expected
    assert nilpotent_multiplier(canonicalize(d), 1) == expected


def test_canonicalize_builds_no_coprime_base(monkeypatch):
    # criterion 7 compares canonicalize with the coprime-base route, so the
    # two must stay independent
    def refuse(*args):
        raise AssertionError("canonicalize used the coprime-base route")

    for name in ("_coprime_base", "_exponent_counts", "_event_walk"):
        monkeypatch.setattr(abelian, name, refuse)
    orders = (12, 18, 8, P12, P12, 6 * 999_983, 4 * 999_983, 27, 2, 2, 2)
    assert canonicalize(CyclicDecomposition(orders)) == reference_canonicalize(
        CyclicDecomposition(orders)
    )


def reference_event_walk(counts):
    """The summands written out: summand i has the i-th largest exponent of each b."""
    exponents = {b: sorted((e for e, n in runs.items() for _ in range(n)), reverse=True)
                 for b, runs in counts.items()}
    factors = []
    for i in range(max((len(es) for es in exponents.values()), default=0)):
        factor = math.prod(b ** es[i] for b, es in exponents.items() if i < len(es))
        if factors and factors[-1][0] == factor:
            factors[-1][1] += 1
        else:
            factors.append([factor, 1])
    return tuple((factor, n) for factor, n in factors)


@given(
    st.dictionaries(
        st.sampled_from((2, 3, 5, 7, P12)),
        st.dictionaries(st.integers(1, 4), st.integers(0, 4), min_size=1, max_size=3),
        max_size=4,
    )
)
@example({2: {1: 0}, 3: {1: 2}})  # no summand has 2 at all
@example({2: {3: 0, 1: 2}, 5: {2: 1}})  # none at exponent 3, the largest
def test_event_walk_matches_the_written_out_summands(counts):
    # a count may be zero: the oracle gets T(1) = 0 for a base element that
    # only one letter holds, at any class
    assert abelian._event_walk(counts) == reference_event_walk(counts)


@given(
    st.dictionaries(
        st.lists(st.sampled_from(BASE_POOL), min_size=1, max_size=3).map(math.prod),
        st.integers(1, 50),
        max_size=8,
    ),
    st.randoms(use_true_random=False),
)
@example({6: 1, 4: 1}, random.Random(0))
@example({4: 2, 6: 3, 2: 1}, random.Random(0))
def test_compressed_invariant_form_ignores_insertion_order(multiset, rng):
    items = list(multiset.items())
    expected = _event_walk(_exponent_counts(multiset))
    assert _event_walk(_exponent_counts(dict(items[::-1]))) == expected
    rng.shuffle(items)
    assert _event_walk(_exponent_counts(dict(items))) == expected


def _primes_from(start, count):
    # a sieve of [start, start + 20 * count): primes near 10**6 are about
    # 14 apart on average
    limit = start + 20 * count
    sieve = bytearray([1]) * (limit - start)
    for d in range(2, math.isqrt(limit) + 1):
        first = -start % d
        sieve[first::d] = bytes(len(range(first, limit - start, d)))
    return [start + i for i, flag in enumerate(sieve) if flag][:count]


def test_compressed_invariant_form_many_coprime_orders_is_fast():
    # one gcd against the product of the base admits each new prime, so
    # thousands of pairwise coprime orders do not rescan the base
    primes = _primes_from(10**6, 3000)
    assert len(primes) == 3000
    start = time.perf_counter()
    summands = _event_walk(_exponent_counts({p: 1 for p in primes}))
    elapsed = time.perf_counter() - start
    assert summands == ((math.prod(primes), 1),)
    assert elapsed < 0.5, elapsed
    d = CyclicDecomposition(tuple(primes))
    assert canonicalize_primary(d) == canonicalize(d)


def test_compressed_invariant_form_and_oracle_factor_nothing(monkeypatch):
    orders = (12, 18, 8, P12, P12, 6 * 999_983, 4 * 999_983, 27)
    formula = nilpotent_multiplier(canonicalize(CyclicDecomposition(orders)), 2)

    def refuse(n):
        raise AssertionError(f"factored {n}")

    monkeypatch.setattr(abelian, "factorize", refuse)
    monkeypatch.setattr(abelian, "trial_division", refuse)
    assert _event_walk(_exponent_counts({12: 1, 18: 2, 8: 1, 27: 1})) == (
        (216, 1), (36, 1), (18, 1), (6, 1)
    )
    assert tensor_oracle(CyclicDecomposition(orders), 2) == formula
    assert canonicalize_primary(CyclicDecomposition(orders)) == canonicalize(
        CyclicDecomposition(orders)
    )


@given(st.integers(1, 10**6))
def test_factorize_reconstructs(n):
    factors = factorize(n)
    assert math.prod(p**e for p, e in factors.items()) == n
    for p in factors:
        # no composite "primes": nothing below p divides it
        assert all(p % q for q in range(2, min(p, 1000)) if q * q <= p)


def test_factorize_large_inputs():
    # a prime just below MAX_ORDER, and a semiprime straddling 10**6: both
    # must come out exactly despite the single factor above the trial bound
    assert factorize(999_999_999_989) == {999_999_999_989: 1}
    assert factorize(999_983 * 1_000_003) == {999_983: 1, 1_000_003: 1}


@pytest.mark.parametrize("bad", [0, -3, MAX_ORDER + 1])
def test_decomposition_rejects_bad_orders(bad):
    with pytest.raises(ValueError):
        CyclicDecomposition((bad,))


@pytest.mark.parametrize("bad", [True, False, 2.0, 6.0, "4", None, Fraction(4)])
def test_decomposition_rejects_non_int_orders(bad):
    with pytest.raises(TypeError, match=re.escape(repr(bad))):
        CyclicDecomposition((bad, 4))


@pytest.mark.parametrize(
    "orders, message",
    [
        # 1 == True and 2 == 2.0 hash alike: each order is validated, not
        # only the keys of the count
        ((1, True), "cyclic order must be an int, got True"),
        ((2, 2.0), "cyclic order must be an int, got 2.0"),
        (([1],), "cyclic order must be an int, got [1]"),
    ],
)
def test_decomposition_validates_every_order_before_counting(orders, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        CyclicDecomposition(orders)


@given(st.lists(st.integers(1, 12) | st.integers(1, MAX_ORDER), max_size=30)
       | repeated_decompositions.map(lambda d: d.orders))
def test_copies_count_the_orders_above_one(orders):
    expected = Counter(orders)
    expected.pop(1, None)
    copies = CyclicDecomposition(orders).copies
    assert copies == expected
    assert list(copies.items()) == list(expected.items())  # by first appearance


def test_copies_are_read_only():
    d = CyclicDecomposition((4, 2, 4, 1))
    assert isinstance(d.copies, MappingProxyType)
    with pytest.raises(TypeError):
        d.copies[4] = 5
    with pytest.raises(TypeError):
        del d.copies[2]
    with pytest.raises(AttributeError):
        d.copies = {}
    with pytest.raises(AttributeError):
        del d.copies
    assert dict(d.copies) == {4: 2, 2: 1}


def test_copies_are_not_part_of_the_value():
    d = CyclicDecomposition((4, 2, 4, 1))
    assert repr(d) == "CyclicDecomposition(orders=(4, 2, 4, 1))"
    assert type(d).__match_args__ == ("orders",)
    assert hash(d) == hash(((4, 2, 4, 1),))
    assert d.__reduce__() == (CyclicDecomposition, ((4, 2, 4, 1),))
    assert b"copies" not in pickle.dumps(d)
    for twin in (pickle.loads(pickle.dumps(d)), copy.copy(d), copy.deepcopy(d)):
        assert twin == d
        assert twin.copies == d.copies
    # the same count from other orders is another value
    for other in ((2, 4, 4), (4, 2, 4), (4, 4, 2, 1, 1)):
        assert CyclicDecomposition(other).copies == d.copies
        assert CyclicDecomposition(other) != d


def test_the_routes_read_the_count_and_build_no_counter(monkeypatch):
    # canonicalize, tensor_oracle and cmd_compute read the decomposition's
    # copies; none of them counts the orders again
    def refuse(*args, **kwargs):
        raise AssertionError("built a Counter")

    monkeypatch.setattr(collections, "Counter", refuse)
    for module in (abelian, multiplier, cli):
        monkeypatch.setattr(module, "Counter", refuse, raising=False)
    for orders, c in [((12, 6, 2), 1), ((1, 4, 4, 6, 1, 9, 9, 9), 2), ((1, 1), 3), ((), 1)]:
        report = verify(CyclicDecomposition(orders), c)
        assert report.equal
        argv = ["compute", "--group", ",".join(map(str, orders)) or "1", "--class", str(c),
                "--method", "both"]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(argv) == 0
        assert out.getvalue().endswith("verified: equal\n")


@pytest.mark.parametrize("bad", [True, 2.0, "4", Fraction(4)])
def test_invariant_factors_reject_non_int_entries(bad):
    with pytest.raises(TypeError, match=re.escape(repr(bad))):
        InvariantFactors((4, bad))


@pytest.mark.parametrize("bad_chain", [(1,), (6, 4), (2, 4), (12, 5)])
def test_invariant_factors_reject_bad_chains(bad_chain):
    with pytest.raises(ValueError):
        InvariantFactors(bad_chain)


def test_chain_entries_may_exceed_the_input_bound():
    # lcm of admissible orders can pass MAX_ORDER; the chain does not care
    InvariantFactors((2 * MAX_ORDER, 2))
