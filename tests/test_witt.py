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
from nilmult.multiplier import decimal_str, verify, witt_count_digits
from nilmult.witt import (
    _decimal_sums,
    _moebius_terms,
    b_sequence,
    count_bits,
    divisors,
    exact_context,
    witt_count,
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
    # no table is kept, and no int either, so each call evaluates the counts;
    # their digits are kept, once witt_count_digits makes them in exact decimal
    first, second = b_sequence(9999, 6), b_sequence(9999, 6)
    assert first == second and first[1] == witt_count(10000, 2)
    assert table_calls == [10000, 10000]
    assert witt._small_table.cache_info().currsize == 0
    assert not witt._kept.counts
    assert [witt_count_digits(10000, q) for q in range(2, 7)] == list(map(decimal_str, first[1:]))
    assert table_calls == [10000, 10000]
    assert list(witt._kept.counts) == [(10000, 0, q) for q in range(2, 7)]


@pytest.mark.parametrize(
    "c, rank, kept",
    [(1, 1, True), (1, 73, True), (1, 74, False), (127, 4, True), (128, 4, False),
     (2, 40, True), (4, 4, True), (511, 2, True), (512, 2, False), (999, 2, False)],
)
def test_a_table_is_kept_when_its_estimate_is_within_the_bound(table_calls, c, rank, kept):
    # rank * (c + 1) * bit_length(rank - 1) bits against _TABLE_MEMO_BITS
    # (1024): the one rule, _small
    assert (rank * (c + 1) * (rank - 1).bit_length() <= witt._TABLE_MEMO_BITS) == kept
    assert witt._small(c + 1, rank) == kept
    assert b_sequence(c, rank) == b_sequence(c, rank)
    # a table not kept is evaluated on each call, and none of its counts is kept
    assert table_calls == ([c + 1] if kept else [c + 1, c + 1])
    assert witt._small_table.cache_info().currsize == kept
    assert not witt._kept.counts


@given(
    st.integers(1, 2000),
    st.sets(st.integers(1, 60), min_size=1, max_size=6).map(lambda s: tuple(sorted(s))),
)
@example(2, (1, 73))  # the largest table kept at weight 2
@example(2, (74,))  # the smallest not kept
@example(1000, (2, 3))
def test_witt_counts_equal_witt_count(weight, letters):
    assert witt._witt_counts(weight, letters) == [witt_count(weight, q) for q in letters]


def test_witt_counts_read_a_kept_table_and_evaluate_only_the_rest(table_calls):
    # weight 3 on 40 letters: 40 * count_bits(3, 40) = 720 bits, kept
    assert count_bits(3, 40) == 18 and witt._witt_counts(3, (7, 40)) == [112, 21320]
    assert witt._witt_counts(3, (2, 40)) == [2, 21320]
    assert table_calls == [3]
    assert witt._small_table.cache_info().currsize == 1
    # weight 1001 on 2 letters: 2002 bits, not kept; no table is made
    assert witt._witt_counts(1001, (2,)) == [witt_count(1001, 2)]
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
        lambda: witt_count_digits(0, 3),
        lambda: witt_count_digits(2, -1),
        lambda: check_cap(0, 3),
        lambda: check_cap(2, -1),
    ],
)
def test_input_validation(call):
    with pytest.raises(ValueError):
        call()


# what _witt_counts takes too: increasing positive letter counts
increasing_letters = st.lists(st.integers(1, 40), min_size=1, max_size=5, unique=True).map(
    lambda letters: tuple(sorted(letters))
)


@given(st.integers(1, 400), increasing_letters)
@example(100001, (6,))
def test_decimal_counts_equal_witt_count(weight, letters):
    counts = _decimal_sums(weight, letters)
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
    counts = _decimal_sums(weight, GRID_LETTERS[1:])
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
    # no letter and one are counts like any other to the sums, alone too
    counts = _decimal_sums(weight, (0, 1))
    assert [type(count) for count in counts] == [decimal.Decimal] * 2
    assert counts == [0, 1 if weight == 1 else 0]
    assert _decimal_sums(weight, (1,)) == counts[1:]
    assert _decimal_sums(weight, (0,)) == counts[:1]


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
    assert witt._witt_counts(PRIME_WEIGHT, (1,)) == [0]
    assert b_sequence(PRIME_WEIGHT - 1, 1) == (0,)
    assert _decimal_sums(PRIME_WEIGHT, (1,)) == [0]
    assert _decimal_sums(1, (1,)) == [1]
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
    """The store's total charge: 8 bits per character of digits."""
    return sum(8 * len(value) for value in witt._kept.counts.values())


# 2001 * bit_length(q - 1) bits: 2001 on two letters, 4002 on 3 or 4, 6003 on 5 to 8
KEPT_WEIGHT = 2001
FRESH = {q: witt._witt_sums(KEPT_WEIGHT, (q,))[0] for q in range(2, 9)}
FRESH[0] = 0


def fresh_digits(pairs):
    """The digits of b_t - b_s at KEPT_WEIGHT for each (s, t), from the fresh ints."""
    return [str(FRESH[t] - FRESH[s]) for s, t in pairs]


@pytest.mark.parametrize(
    "counts, number", [(witt._witt_counts, int), (_decimal_sums, decimal.Decimal)])
def test_kept_counts_equal_fresh_ones(evaluated, counts, number):
    # past a small table neither kind of count is kept: each call evaluates
    # every count it is asked for, equal to the fresh one; only the digits
    # of differences are kept, and reading them leaves both routes as they were
    for letters in [(2, 3), (2, 3, 5), (3, 6), (2, 4, 5, 6), (2, 3, 4, 5, 6)]:
        result = counts(KEPT_WEIGHT, letters)
        assert evaluated == [letters], letters
        evaluated.clear()
        assert [type(count) for count in result] == [number] * len(letters)
        assert [str(count) for count in result] == [str(FRESH[q]) for q in letters]
    assert not witt._kept.counts
    pairs = [(0, 2), (2, 5), (5, 6)]
    assert witt._kept_digits(KEPT_WEIGHT, pairs) == fresh_digits(pairs)
    assert list(witt._kept.counts) == [(KEPT_WEIGHT, s, t) for s, t in pairs]
    evaluated.clear()
    assert [str(count) for count in counts(KEPT_WEIGHT, (2, 5))] == [str(FRESH[2]), str(FRESH[5])]
    assert evaluated == [(2, 5)]


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


def test_a_small_tables_digits_are_its_int_differences(table_calls, monkeypatch):
    # weight 3 on 40 letters is a small table (720 bits): _kept_digits reads
    # its ints from _small_table and prints each difference by str(), with no
    # Decimal sum and nothing kept; the pair (0, 0) is "0"
    def refuse(*args):
        raise AssertionError(f"a Decimal sum was evaluated: {args}")

    monkeypatch.setattr(witt, "_decimal_sums", refuse)
    assert witt._small(3, 40)
    pairs = [(0, 2), (2, 7), (7, 40)]
    assert witt._kept_digits(3, pairs) == [
        str(witt_count(3, t) - witt_count(3, s)) for s, t in pairs] == ["2", "110", "21208"]
    assert witt._kept_digits(3, [(0, 40)]) == ["21320"]
    assert table_calls == [3]
    assert witt._kept_digits(PRIME_WEIGHT, [(0, 0)]) == ["0"]
    assert not witt._kept.counts and witt._kept.bits == 0


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
    # a sum that is not divisible by the weight: a term left out
    terms = witt._moebius_terms
    monkeypatch.setattr(witt, "_witt_sums", sums)
    monkeypatch.setattr(witt, "_moebius_terms", lambda weight: terms(weight)[1:])
    with pytest.raises(ArithmeticError, match="is not divisible by 2001"):
        witt._kept_digits(KEPT_WEIGHT, [(0, 2), (2, 3)])
    assert not witt._kept.counts and witt._kept.bits == 0
    # the next clean call evaluates them again, and keeps their digits; the
    # int counts are evaluated and not kept
    monkeypatch.setattr(witt, "_moebius_terms", terms)
    evaluated.clear()
    assert witt._kept_digits(KEPT_WEIGHT, [(0, 2), (2, 3)]) == fresh_digits([(0, 2), (2, 3)])
    assert witt._witt_counts(KEPT_WEIGHT, (2, 3)) == [FRESH[2], FRESH[3]]
    assert evaluated == [(2, 3), (2, 3)]
    assert list(witt._kept.counts) == [(KEPT_WEIGHT, 0, 2), (KEPT_WEIGHT, 2, 3)]


def test_the_store_keeps_its_budget_least_recently_used_first(evaluated, monkeypatch):
    # b_t - b_s at weight 2001 has 600 digits at (0, 2), 952 at (0, 3), 1,202
    # at (0, 4) and 1,396 at (4, 5)
    charge = {pair: 8 * len(fresh_digits([pair])[0]) for pair in [(0, 2), (0, 3), (0, 4), (4, 5)]}
    assert charge == {(0, 2): 4800, (0, 3): 7616, (0, 4): 9616, (4, 5): 11168}
    monkeypatch.setattr(witt, "_KEPT_BITS", 22_032)

    def holds(*pairs):
        assert list(witt._kept.counts) == [(KEPT_WEIGHT, s, t) for s, t in pairs]
        assert witt._kept.bits == kept_bits() <= witt._KEPT_BITS

    def read(*pairs):
        assert witt._kept_digits(KEPT_WEIGHT, list(pairs)) == fresh_digits(pairs)

    read((0, 2), (0, 3), (0, 4))
    holds((0, 2), (0, 3), (0, 4))  # 22,032 bits: the whole budget
    read((0, 2))  # a hit makes it the most recent
    holds((0, 3), (0, 4), (0, 2))
    # 11,168 bits more: the two least recently used go, not the first kept
    read((4, 5))
    holds((0, 2), (4, 5))
    # digits above the budget are never kept, and drop nothing
    witt._kept.keep((KEPT_WEIGHT, 1, 2), "7" * (22_032 // 8 + 1))
    holds((0, 2), (4, 5))
    # nor are digits charged at most _TABLE_MEMO_BITS, here b_74 at weight 2
    assert witt._kept_digits(2, [(0, 74)]) == [str(witt_count(2, 74))] == ["2701"]
    holds((0, 2), (4, 5))
    evaluated.clear()
    read((0, 2), (0, 3))
    assert evaluated == [(3,)]
    # 11,168 + 4,800 + 7,616 is past the budget: the least recent, (4, 5), goes
    holds((0, 2), (0, 3))


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
                if (k + i) % 2:  # the digits of counts, b_q - b_0
                    assert [witt_count_digits(KEPT_WEIGHT, q) for q in chosen] == [
                        str(FRESH[q]) for q in chosen]
                else:  # the digits of differences share the store with them
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
