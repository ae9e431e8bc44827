import decimal
import functools
import sys
import threading

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from nilmult import witt
from nilmult.abelian import CyclicDecomposition
from nilmult.hall import check_cap, enumerate_basic
from nilmult.multiplier import decimal_str, verify
from nilmult.witt import (
    _moebius_terms,
    b_sequence,
    count_bits,
    decimal_counts,
    divisors,
    exact_context,
    witt_count,
    witt_counts,
)


@pytest.mark.parametrize(
    "n, expected", [(1, 1), (2, -1), (4, 0), (6, 1), (12, 0), (30, -1)]
)
def test_moebius_examples(n, expected):
    # the term for d = n has exponent n // n = 1 and coefficient mu(n)
    assert dict((e, mu) for mu, e in _moebius_terms(n)).get(1, 0) == expected


def test_moebius_divisor_sum_identity():
    # sum_{d | n} mu(d) is 1 at n = 1 and 0 everywhere else
    for n in range(1, 2001):
        total = sum(mu for mu, _ in _moebius_terms(n))
        assert total == (1 if n == 1 else 0), n


@given(st.integers(1, 5000))
def test_divisors_are_exactly_the_divisors(n):
    ds = divisors(n)
    assert ds == sorted(ds)
    assert ds == [d for d in range(1, n + 1) if n % d == 0]


@pytest.mark.parametrize(
    "weight, letters, expected",
    [
        (1, 0, 0),
        (1, 1, 1),
        (1, 9, 9),
        (2, 2, 1),
        (3, 2, 2),
        (2, 3, 3),
        (4, 2, 3),
        (6, 4, 670),
        (2, 1, 0),
        (5, 1, 0),
    ],
)
def test_witt_count_values(weight, letters, expected):
    assert witt_count(weight, letters) == expected


@given(st.integers(1, 30))
def test_weight_one_counts_the_letters(q):
    assert witt_count(1, q) == q


@given(st.integers(2, 40))
def test_single_letter_vanishes(w):
    assert witt_count(w, 1) == 0


@given(st.integers(1, 12), st.integers(0, 40))
def test_monotone_in_letters(w, q):
    assert witt_count(w, q) <= witt_count(w, q + 1)


def test_counts_match_enumeration():
    for w in range(1, 7):
        for t in range(1, 5):
            assert witt_count(w, t) == len(enumerate_basic(w, t)), (w, t)


def test_exact_arithmetic_for_prime_weights():
    # for prime w the closed form collapses to (q^w - q) / w
    assert witt_count(59, 2) == (2**59 - 2) // 59
    assert witt_count(31, 10) == (10**31 - 10) // 31


def test_b_sequence_examples():
    assert b_sequence(1, 4) == (0, 1, 3, 6)
    assert b_sequence(2, 2) == (0, 2)
    assert b_sequence(5, 1) == (0,)


@given(st.integers(2, 8))
def test_schur_case_reproduces_the_classical_exponents(k):
    counts = b_sequence(1, k)
    assert all(counts[i] - counts[i - 1] == i for i in range(1, k))


@given(st.integers(1, 6), st.integers(1, 8))
@example(63, 8)  # weight 64, a prime power
@example(359, 8)  # weight 360, highly composite
def test_b_sequence_table_shape(c, rank):
    counts = b_sequence(c, rank)
    assert isinstance(counts, tuple)
    assert len(counts) == rank
    assert counts[0] == 0
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    assert all(counts[i] == witt_count(c + 1, i + 1) for i in range(rank))


@pytest.fixture
def table_calls(monkeypatch):
    """The weights of the b tables `_witt_sums` makes, with the table cache cleared and a fresh store."""
    weights = []
    sums = witt._witt_sums

    def counted(weight, letters, number=int):
        if isinstance(letters, range):  # a b table, not a single count
            weights.append(weight)
        return sums(weight, letters, number)

    monkeypatch.setattr(witt, "_witt_sums", counted)
    witt._small_table.cache_clear()
    monkeypatch.setattr(witt, "_kept", witt._Kept())
    yield weights
    witt._small_table.cache_clear()


def test_a_small_table_is_made_once(table_calls):
    reports = [verify(CyclicDecomposition((12, 6, 2)), 2) for _ in range(50)]
    assert all(report.equal for report in reports)
    assert reports[0].formula.summands == ((6, 2), (2, 6))
    assert table_calls == [3]
    assert witt._small_table.cache_info().currsize == 1


def test_a_large_table_is_not_made_but_its_counts_are_kept(table_calls):
    # 6 * 10000 * bit_length(5) bits by the estimate, above _TABLE_MEMO_BITS:
    # no table is made or kept, but each count past _TABLE_MEMO_BITS is, so
    # the second call evaluates only the count on one letter, made without
    # the terms
    first, second = b_sequence(9999, 6), b_sequence(9999, 6)
    assert first == second and first[1] == witt_count(10000, 2)
    assert table_calls == []
    assert witt._small_table.cache_info().currsize == 0
    assert list(witt._kept.counts) == [(10000, q, int) for q in range(2, 7)]


@pytest.mark.parametrize(
    "c, rank, kept",
    [(1, 1, True), (1, 73, True), (1, 74, False), (127, 4, True), (128, 4, False),
     (2, 40, True), (4, 4, True), (511, 2, True), (512, 2, False), (999, 2, False)],
)
def test_a_table_is_kept_when_its_estimate_is_within_the_bound(table_calls, c, rank, kept):
    # rank * (c + 1) * bit_length(rank - 1) bits against _TABLE_MEMO_BITS (1024)
    assert (rank * (c + 1) * (rank - 1).bit_length() <= witt._TABLE_MEMO_BITS) == kept
    assert b_sequence(c, rank) == b_sequence(c, rank)
    # a table not kept is not made either: its counts are evaluated on their own
    assert table_calls == ([c + 1] if kept else [])
    assert witt._small_table.cache_info().currsize == kept


@given(
    st.integers(1, 2000),
    st.sets(st.integers(1, 60), min_size=1, max_size=6).map(lambda s: tuple(sorted(s))),
)
@example(2, (1, 73))  # the largest table kept at weight 2
@example(2, (74,))  # the smallest not kept
@example(1000, (2, 3))
def test_witt_counts_equal_witt_count(weight, letters):
    assert witt_counts(weight, letters) == [witt_count(weight, q) for q in letters]


def test_witt_counts_read_a_kept_table_and_evaluate_only_the_rest(table_calls):
    # weight 3 on 40 letters: 40 * count_bits(3, 40) = 720 bits, kept
    assert count_bits(3, 40) == 18 and witt_counts(3, (7, 40)) == [112, 21320]
    assert witt_counts(3, (2, 40)) == [2, 21320]
    assert table_calls == [3]
    assert witt._small_table.cache_info().currsize == 1
    # weight 1001 on 2 letters: 2002 bits, not kept; no table is made
    assert witt_counts(1001, (2,)) == [witt_count(1001, 2)]
    assert table_calls == [3]
    assert witt._small_table.cache_info().currsize == 1


@pytest.mark.parametrize(
    "weight, letters, bits",
    [(6, 4, 12), (6, 5, 18), (10**9, 1, 0), (5, 0, 0), (2**23, 2, 2**23)],
)
def test_count_bits_bounds_the_counts(weight, letters, bits):
    assert count_bits(weight, letters) == bits
    if weight < 100:
        assert all(witt_count(weight, q).bit_length() <= bits for q in range(letters + 1))


@pytest.mark.parametrize(
    "call",
    [
        lambda: witt_count(0, 3),
        lambda: witt_count(2, -1),
        lambda: b_sequence(0, 3),
        lambda: b_sequence(2, 0),
        lambda: _moebius_terms(0),
        lambda: divisors(0),
        lambda: decimal_counts(0, [3]),
        lambda: decimal_counts(2, (0, 1)),
        lambda: witt_counts(0, (3,)),
        lambda: witt_counts(2, (0, 1)),
    ],
)
def test_input_validation(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("counts", [witt_counts, decimal_counts])
def test_letters_must_be_a_nonempty_increasing_sequence(counts):
    with pytest.raises(ValueError, match="^letters must not be empty$"):
        counts(2, ())
    with pytest.raises(ValueError, match="^letters must increase, got 3 then 2$"):
        counts(2, (3, 2))
    with pytest.raises(ValueError, match="^letters must increase, got 4 then 4$"):
        counts(2, [1, 4, 4])
    with pytest.raises(ValueError, match="^letters must increase, got 5 then 4$"):
        counts(2, range(5, 3, -1))
    # the message of a count below 1 stays as it was
    with pytest.raises(ValueError, match="^weight and letters must be >= 1, got 2 and 0$"):
        counts(2, (0, 1))
    with pytest.raises(ValueError, match="^weight and letters must be >= 1, got 0 and 3$"):
        counts(0, (3,))


# what witt_counts takes too: increasing positive letter counts
increasing_letters = st.lists(st.integers(1, 40), min_size=1, max_size=5, unique=True).map(
    lambda letters: tuple(sorted(letters))
)


@given(st.integers(1, 400), increasing_letters)
@example(100001, (6,))
def test_decimal_counts_equal_witt_count(weight, letters):
    counts = decimal_counts(weight, letters)
    assert [str(count) for count in counts] == [
        decimal_str(witt_count(weight, q)) for q in letters
    ]
    # exact integers: exponent 0, never scientific notation
    assert all(count.as_tuple().exponent == 0 for count in counts)


# ---------------------------------------------------------------------------
# The shared power table against the per-letter sum
# ---------------------------------------------------------------------------

# weights whose Moebius exponents pair up for halving (2**k, 3 * 2**k and
# 100000 = 2**5 * 5**5), odd ones with no halving (p**2, 99999, 100001), and 1
GRID_WEIGHTS = [1, 2, 3, 4, 64, 12, 96, 49, 121, 99999, 100000, 100001]
GRID_LETTERS = range(41)


@functools.cache
def per_letter_counts(weight):
    """The Witt counts on 0..40 letters, each power of each letter raised afresh."""
    counts = []
    for q in GRID_LETTERS:
        total = sum(mu * q**exponent for mu, exponent in _moebius_terms(weight))
        assert total % weight == 0
        counts.append(total // weight)
    return counts


@pytest.mark.parametrize("weight", GRID_WEIGHTS)
def test_b_sequence_and_witt_count_equal_the_per_letter_sum(weight):
    expected = per_letter_counts(weight)
    assert [witt_count(weight, q) for q in GRID_LETTERS] == expected
    if weight == 1:
        return  # class 0 has no b sequence
    # each table holds every rank below it; the large weights try the ranks at
    # which a rule first has a letter to use
    ranks = range(1, 41) if weight < 1000 else (1, 2, 3, 4, 6, 9, 16, 40)
    for rank in ranks:
        assert b_sequence(weight - 1, rank) == tuple(expected[1 : rank + 1]), rank


@pytest.mark.parametrize("weight", GRID_WEIGHTS)
def test_decimal_counts_equal_the_per_letter_sum(weight):
    expected = per_letter_counts(weight)[1:]  # positive letter counts only
    counts = decimal_counts(weight, GRID_LETTERS[1:])
    assert all(isinstance(count, decimal.Decimal) for count in counts)
    assert all(count.as_tuple().exponent == 0 for count in counts)
    if weight < 1000:
        assert counts == expected
        return
    # digits of the large counts cost more than the counts; residues modulo two
    # Mersenne primes and the last 30 digits compare them
    with decimal.localcontext(exact_context()):
        for modulus in (2**61 - 1, 2**127 - 1, 10**30):
            assert [int(count % modulus) for count in counts] == [
                count % modulus for count in expected
            ], modulus


@pytest.mark.parametrize("weight", [1, 2, 3, 4, 100000])
def test_decimal_counts_are_decimals_on_no_letter_and_one(weight):
    # one letter is a count like any other; no letter is refused, as
    # witt_counts refuses it
    counts = decimal_counts(weight, (1,))
    assert [type(count) for count in counts] == [decimal.Decimal]
    assert counts == [1 if weight == 1 else 0]
    with pytest.raises(ValueError):
        decimal_counts(weight, (0,))


# a prime weight of 80 bits: trial division would run to its square root
PRIME_WEIGHT = 10**24 + 7


def test_fewer_than_two_letters_factor_no_weight(monkeypatch):
    # on no letter or one every count is 0, or 1 at weight 1, and no Moebius
    # term is needed, so the weight is not factored, however large
    def refuse(n):
        raise AssertionError(f"factored {n}")

    monkeypatch.setattr(witt, "trial_division", refuse)
    _moebius_terms.cache_clear()
    assert witt_count(PRIME_WEIGHT, 0) == 0
    assert witt_count(PRIME_WEIGHT, 1) == 0
    assert witt_count(1, 1) == 1
    assert witt_count(1, 0) == 0
    assert check_cap(PRIME_WEIGHT, 1) == 0
    assert witt_counts(PRIME_WEIGHT, (1,)) == [0]
    assert b_sequence(PRIME_WEIGHT - 1, 1) == (0,)
    assert decimal_counts(PRIME_WEIGHT, (1,)) == [0]
    assert decimal_counts(1, (1,)) == [1]
    with pytest.raises(AssertionError, match="factored"):
        witt_count(PRIME_WEIGHT, 2)  # two letters do need the terms


# ---------------------------------------------------------------------------
# The store of kept counts
# ---------------------------------------------------------------------------


@pytest.fixture
def evaluated(monkeypatch):
    """The letter tuples `_witt_sums` evaluates, with a fresh store."""
    asked = []
    sums = witt._witt_sums

    def recording(weight, letters, number=int):
        asked.append(tuple(letters))
        return sums(weight, letters, number)

    monkeypatch.setattr(witt, "_kept", witt._Kept())
    monkeypatch.setattr(witt, "_witt_sums", recording)
    return asked


def test_the_store_holds_4_mib():
    # the budget the README states: 2**25 bits by the store's charge
    assert witt._KEPT_BITS == 2**25 == 4 * 2**20 * 8


def kept_bits():
    """The store's total charge: 8 bits per character of digits, count_bits of an int."""
    return sum(8 * len(value) if isinstance(value, str) else count_bits(weight, q)
               for (weight, q, _), value in witt._kept.counts.items())


# 2001 * bit_length(q - 1) bits: 2001 on two letters, 4002 on 3 or 4, 6003 on 5 to 8
KEPT_WEIGHT = 2001
FRESH = {q: witt._witt_sums(KEPT_WEIGHT, (q,))[0] for q in range(2, 9)}
FRESH[0] = 0


def fresh_digits(pairs):
    """The digits of b_t - b_s at KEPT_WEIGHT for each (s, t), from the fresh ints."""
    return [str(FRESH[t] - FRESH[s]) for s, t in pairs]


@pytest.mark.parametrize("counts, number", [(witt_counts, int), (decimal_counts, decimal.Decimal)])
def test_kept_counts_equal_fresh_ones(evaluated, counts, number):
    # ranks that share counts: witt_counts evaluates only what no earlier call
    # kept, and a kept count equals a fresh one; decimal_counts evaluates
    # every count it is asked for and keeps none
    for letters, missing in [
        ((2, 3), (2, 3)),
        ((2, 3, 5), (5,)),
        ((3, 6), (6,)),
        ((2, 4, 5, 6), (4,)),
        ((2, 3, 4, 5, 6), ()),
    ]:
        result = counts(KEPT_WEIGHT, letters)
        if number is decimal.Decimal:
            missing = letters
        assert evaluated == ([missing] if missing else []), letters
        evaluated.clear()
        assert [type(count) for count in result] == [number] * len(letters)
        assert [str(count) for count in result] == [str(FRESH[q]) for q in letters]
    # in the order of their last use, the call that read them all
    kept = [(KEPT_WEIGHT, q, int) for q in (2, 3, 4, 5, 6)] if number is int else []
    assert list(witt._kept.counts) == kept
    # the other function evaluates its counts afresh: an int is never read as
    # a Decimal, nor a Decimal kept for witt_counts
    other = decimal_counts if number is int else witt_counts
    assert [str(count) for count in other(KEPT_WEIGHT, (2, 3))] == [str(FRESH[2]), str(FRESH[3])]
    assert evaluated == [(2, 3)]


def test_kept_digits_are_differences_keyed_by_both_ends(evaluated):
    # the digits of b_t - b_s are kept under (weight, s, t), b_0 = 0; a pair
    # that shares its end t but not its s is another entry, and a miss
    # evaluates only the ends of the pairs not kept
    pairs = [(0, 2), (2, 5), (5, 6)]
    assert witt._kept_digits(KEPT_WEIGHT, pairs) == fresh_digits(pairs)
    assert evaluated == [(2, 5, 6)]
    assert witt._kept_digits(KEPT_WEIGHT, [(0, 5), (5, 6), (0, 2)]) == fresh_digits(
        [(0, 5), (5, 6), (0, 2)])
    assert evaluated == [(2, 5, 6), (5,)]
    # the hits became the most recent, then the miss was kept
    assert list(witt._kept.counts) == [(KEPT_WEIGHT, s, t) for s, t in [(2, 5), (5, 6), (0, 2), (0, 5)]]
    assert all(type(value) is str for value in witt._kept.counts.values())
    assert witt._kept.bits == kept_bits() == 8 * sum(map(len, fresh_digits(
        [(0, 2), (2, 5), (5, 6), (0, 5)])))


def test_a_count_that_fails_its_check_is_not_kept(evaluated, monkeypatch):
    sums = witt._witt_sums

    def off_by_one(weight, letters, number=int):
        counts = sums(weight, letters, number)
        with decimal.localcontext(exact_context()):
            counts[-1] += 1
        return counts

    monkeypatch.setattr(witt, "_witt_sums", off_by_one)
    with pytest.raises(ArithmeticError, match="disagrees with its Witt sum modulo"):
        witt._kept_digits(KEPT_WEIGHT, [(0, 2), (2, 3)])
    assert not witt._kept.counts and witt._kept.bits == 0
    # an int sum that is not divisible by the weight: a term left out
    terms = witt._moebius_terms
    monkeypatch.setattr(witt, "_witt_sums", sums)
    monkeypatch.setattr(witt, "_moebius_terms", lambda weight: terms(weight)[1:])
    with pytest.raises(ArithmeticError, match="is not divisible by 2001"):
        witt_counts(KEPT_WEIGHT, (2, 3))
    assert not witt._kept.counts and witt._kept.bits == 0
    # the next clean calls evaluate them again, and keep them: digits and ints apart
    monkeypatch.setattr(witt, "_moebius_terms", terms)
    evaluated.clear()
    assert witt._kept_digits(KEPT_WEIGHT, [(0, 2), (2, 3)]) == fresh_digits([(0, 2), (2, 3)])
    assert witt_counts(KEPT_WEIGHT, (2, 3)) == [FRESH[2], FRESH[3]]
    assert evaluated == [(2, 3), (2, 3)]
    assert list(witt._kept.counts) == [
        (KEPT_WEIGHT, 0, 2), (KEPT_WEIGHT, 2, 3), (KEPT_WEIGHT, 2, int), (KEPT_WEIGHT, 3, int)]


def test_the_store_keeps_its_budget_least_recently_used_first(evaluated, monkeypatch):
    monkeypatch.setattr(witt, "_KEPT_BITS", 10_005)

    def holds(*keys):
        assert list(witt._kept.counts) == [(weight, q, int) for weight, q in keys]
        assert witt._kept.bits == kept_bits() <= witt._KEPT_BITS

    assert witt_counts(KEPT_WEIGHT, (2, 3, 4)) == [FRESH[2], FRESH[3], FRESH[4]]
    holds((KEPT_WEIGHT, 2), (KEPT_WEIGHT, 3), (KEPT_WEIGHT, 4))  # 10,005 bits
    assert witt_counts(KEPT_WEIGHT, (2,)) == [FRESH[2]]  # a hit makes it the most recent
    holds((KEPT_WEIGHT, 3), (KEPT_WEIGHT, 4), (KEPT_WEIGHT, 2))
    # 2,002 bits more: the least recently used count goes, not the first kept
    assert witt_counts(1001, (3,)) == [witt_count(1001, 3)]
    holds((KEPT_WEIGHT, 4), (KEPT_WEIGHT, 2), (1001, 3))
    # 6,003 bits more: two go
    assert witt_counts(KEPT_WEIGHT, (5,)) == [FRESH[5]]
    holds((1001, 3), (KEPT_WEIGHT, 5))
    # a count above the budget (12,003 bits) is never kept, and drops nothing
    assert witt_counts(4001, (5,)) == [witt_count(4001, 5)]
    holds((1001, 3), (KEPT_WEIGHT, 5))
    # nor is a count of at most _TABLE_MEMO_BITS, here on rank 74 at weight 2
    assert witt_counts(2, (2, 74)) == [1, witt_count(2, 74)]
    holds((1001, 3), (KEPT_WEIGHT, 5))
    evaluated.clear()
    assert witt_counts(KEPT_WEIGHT, (2, 5)) == [FRESH[2], FRESH[5]]
    assert evaluated == [(2,)]
    # 2,002 + 6,003 + 2,001 is one bit over the budget: the least recent goes
    holds((KEPT_WEIGHT, 5), (KEPT_WEIGHT, 2))


def test_a_hit_leaves_the_callers_decimal_context_unchanged(evaluated):
    def state(context):
        return (context.prec, context.rounding, context.Emax, context.Emin,
                dict(context.traps), dict(context.flags))

    pairs = [(0, 2), (2, 3)]
    with decimal.localcontext(decimal.Context(prec=5, traps=[decimal.Inexact])) as context:
        before = state(context)
        first = witt._kept_digits(KEPT_WEIGHT, pairs)
        second = witt._kept_digits(KEPT_WEIGHT, pairs)
        assert evaluated == [(2, 3)]  # the second call was all hits
        assert state(decimal.getcontext()) == before
    assert second == first == fresh_digits(pairs)


def test_threads_share_the_store(evaluated, monkeypatch):
    # four threads ask for overlapping counts under a budget that holds
    # about three of them, so they keep, hit and drop counts concurrently
    monkeypatch.setattr(witt, "_KEPT_BITS", 15_000)
    letters = [(2, 3), (3, 5), (2, 6), (5, 7, 8), (4,)]
    errors, start = [], threading.Barrier(4)

    def worker(k):
        start.wait()
        try:
            for i in range(400):
                chosen = letters[(k + i) % len(letters)]
                if (k + i) % 2:
                    assert witt_counts(KEPT_WEIGHT, chosen) == [FRESH[q] for q in chosen]
                else:  # the digits of differences share the store with the ints
                    pairs = list(zip((0, *chosen), chosen))
                    assert witt._kept_digits(KEPT_WEIGHT, pairs) == fresh_digits(pairs)
        except Exception as exc:  # an assertion in a thread is reported here
            errors.append(exc)

    workers = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in workers)
    assert errors == []
    assert witt._kept.bits == kept_bits() <= witt._KEPT_BITS
