"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Everything here is exact arithmetic; the time budgets are
asserted as part of the criteria.
"""

import itertools
import math
import random
import time
from collections import Counter

from nilmult.abelian import (
    CyclicDecomposition,
    InvariantFactors,
    _event_walk,
    _exponent_counts,
    canonicalize,
)
from nilmult.hall import enumerate_basic
from nilmult.multiplier import (
    MultiplierResult,
    multiplier_order,
    nilpotent_multiplier,
    tensor_oracle,
    verify,
)
from nilmult.witt import b_sequence, witt_count


def canonicalize_primary(decomposition):
    """Invariant factors via primary decomposition, the cross-check for ``canonicalize``.

    The run-length core (``_exponent_counts``, then ``_event_walk``) on the
    counted nontrivial orders, its runs written out one by one.
    """
    multiset = Counter(r for r in decomposition.orders if r > 1)
    return InvariantFactors(
        tuple(order for order, run in _event_walk(_exponent_counts(multiset)) for _ in range(run))
    )


def direct_sum(first, second):
    """The direct sum of two results of coprime orders, by a run-length merge.

    Its invariant factors are the entrywise products of the two chains,
    position by position, a chain being 1 past its end: each step takes the
    shorter of the two current runs, with multiplicities kept as ints.  The
    result is rebuilt through the checking constructor.
    """
    runs = [[list(pair) for pair in first.summands], [list(pair) for pair in second.summands]]
    merged = []
    while runs[0] or runs[1]:
        length = min(side[0][1] for side in runs if side)
        order = 1
        for side in runs:
            if side:
                order *= side[0][0]
                side[0][1] -= length
                if not side[0][1]:
                    del side[0]
        merged.append((order, length))
    return MultiplierResult(merged)


def invariant_chains(max_order, max_rank):
    def extend(prefix):
        yield prefix
        if len(prefix) >= max_rank:
            return
        last = prefix[-1] if prefix else max_order
        for n in range(2, last + 1):
            if not prefix or last % n == 0:
                yield from extend(prefix + (n,))

    yield from extend(())


def timed(budget_seconds):
    start = time.perf_counter()

    def finish(label):
        elapsed = time.perf_counter() - start
        print(f"PASS {label} ({elapsed:.3f}s, budget {budget_seconds}s)")
        assert elapsed < budget_seconds, f"{label}: {elapsed:.3f}s over budget"

    return finish


def test_criterion_1_classical_schur_regression():
    done = timed(1.0)
    checked = 0
    for chain in invariant_chains(12, 4):
        expected = []
        for i, order in enumerate(chain[1:], start=2):
            if expected and expected[-1][0] == order:
                expected[-1][1] += i - 1
            else:
                expected.append([order, i - 1])
        result = nilpotent_multiplier(InvariantFactors(chain), 1)
        assert result.summands == tuple((o, m) for o, m in expected), chain
        checked += 1
    assert checked > 100
    done(f"criterion 1: classical Schur regression over {checked} chains")


def test_criterion_2_formula_oracle_equivalence():
    done = timed(10.0)
    cases = 0
    for chain in invariant_chains(12, 3):
        for c in (1, 2, 3):
            report = verify(CyclicDecomposition(chain), c)
            assert report.equal, (chain, c)
            cases += 1
    assert cases == 222
    done(f"criterion 2: formula == oracle on all {cases} (chain, class) cases")


def test_criterion_3_enumeration_witt_agreement():
    done = timed(1.0)
    largest = 0
    for w in range(1, 7):
        for t in range(1, 5):
            count = len(enumerate_basic(w, t))
            assert count == witt_count(w, t), (w, t)
            largest = max(largest, count)
    assert largest == 670
    done("criterion 3: enumeration matches Witt counts for w <= 6, t <= 4")


def test_criterion_4_presentation_invariance():
    done = timed(30.0)
    rng = random.Random(20260808)
    for _ in range(200):
        t = rng.randint(1, 3)
        orders = tuple(rng.randint(1, 12) for _ in range(t))
        c = rng.randint(1, 3)
        d = CyclicDecomposition(orders)
        baseline = tensor_oracle(d, c)
        assert baseline == nilpotent_multiplier(canonicalize(d), c), (orders, c)
        for perm in itertools.permutations(orders):
            assert tensor_oracle(CyclicDecomposition(perm), c) == baseline, (orders, c)
    done("criterion 4: presentation invariance on 200 random decompositions")


def test_criterion_5_cyclic_vanishing():
    done = timed(1.0)
    for n in range(2, 101):
        for c in range(1, 11):
            assert not nilpotent_multiplier(InvariantFactors((n,)), c).summands, (n, c)
    done("criterion 5: cyclic groups have trivial multipliers (n <= 100, c <= 10)")


def test_criterion_6_order_law():
    done = timed(10.0)
    for chain in invariant_chains(12, 3):
        for c in (1, 2, 3):
            result = nilpotent_multiplier(InvariantFactors(chain), c)
            value = multiplier_order(result)
            expected = 1
            if len(chain) >= 2:
                counts = b_sequence(c, len(chain))
                for i in range(2, len(chain) + 1):
                    expected *= chain[i - 1] ** (counts[i - 1] - counts[i - 2])
            assert value == expected, (chain, c)
    done("criterion 6: multiplier order equals the independent product")


def test_criterion_7_canonicalization_soundness():
    done = timed(30.0)
    rng = random.Random(1159_91775)
    for _ in range(10**5):
        orders = tuple(rng.randint(1, 10**4) for _ in range(rng.randint(0, 4)))
        d = CyclicDecomposition(orders)
        assert canonicalize(d) == canonicalize_primary(d), orders
    done("criterion 7: fixpoint and primary canonicalizers agree on 10^5 multisets")


def test_criterion_8_spot_values():
    done = timed(1.0)
    schur = nilpotent_multiplier(InvariantFactors((12, 6, 2)), 1)
    assert schur.summands == ((6, 1), (2, 2))
    pair = nilpotent_multiplier(InvariantFactors((2, 2)), 2)
    assert pair.summands == ((2, 2),)
    assert witt_count(3, 2) == 2
    assert not tensor_oracle(CyclicDecomposition((3, 2)), 1).summands
    done("criterion 8: spot values")


def test_criterion_9_wide_formula_oracle_equivalence():
    done = timed(30.0)
    cases = 0
    for chain in invariant_chains(32, 5):
        for c in range(1, 6):
            report = verify(CyclicDecomposition(chain), c)
            assert report.equal, (chain, c)
            cases += 1
    assert cases == 5710
    done(f"criterion 9: formula == oracle on all {cases} (chain, class) cases, "
         "entries <= 32, rank <= 5, class <= 5")


def test_criterion_10_wider_formula_oracle_equivalence():
    done = timed(30.0)
    cases = 0
    for chain in invariant_chains(32, 6):
        for c in range(1, 7):
            report = verify(CyclicDecomposition(chain), c)
            assert report.equal, (chain, c)
            cases += 1
    assert cases == 11568
    done(f"criterion 10: formula == oracle on all {cases} (chain, class) cases, "
         "entries <= 32, rank <= 6, class <= 6")


def test_criterion_11_high_rank_formula_oracle_equivalence():
    done = timed(30.0)
    cases = 0
    for chain in invariant_chains(12, 8):
        if len(chain) < 7:
            continue
        for c in range(1, 7):
            report = verify(CyclicDecomposition(chain), c)
            assert report.equal, (chain, c)
            cases += 1
    assert cases == 1932
    done(f"criterion 11: formula == oracle on all {cases} (chain, class) cases, "
         "entries <= 12, rank 7-8, class <= 6")


def test_criterion_12_coprime_splitting_at_large_classes():
    # M(A + B) = M(A) + M(B) for |A| and |B| coprime, on the formula alone:
    # a 2-group and a 3-group, each canonicalized alone and together, at
    # classes where the multiplicities have hundreds of thousands of bits
    done = timed(30.0)
    rng = random.Random(2026_1020)

    def formula(orders, c):
        return nilpotent_multiplier(canonicalize(CyclicDecomposition(orders)), c)

    for _ in range(200):
        twos = [2 ** rng.randint(0, 6) for _ in range(rng.randint(0, 8))]
        threes = [3 ** rng.randint(0, 4) for _ in range(rng.randint(0, 8))]
        both = twos + threes
        rng.shuffle(both)
        c = rng.randint(10**4, 10**5)
        assert formula(both, c) == direct_sum(formula(twos, c), formula(threes, c)), (
            twos, threes, c)
    done("criterion 12: coprime splitting on the formula over 200 2-group + 3-group "
         "pairs, classes 10^4-10^5")
