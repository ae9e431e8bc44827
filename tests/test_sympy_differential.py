"""Differential tests of the arithmetic core against sympy.

``factorize``, ``divisors`` and the Witt terms ``witt._moebius_terms`` all
rest on the one trial-division loop in ``nilmult.abelian``; sympy is an
independent implementation of each (``factorint``, ``divisors`` and
``mobius``).  The run-length core, ``_event_walk(_exponent_counts(...))``,
factors nothing (it works on a coprime base); its reference here is the
primary decomposition built from ``factorint``.  The module is skipped when sympy is not installed.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilmult.abelian import MAX_ORDER, _event_walk, _exponent_counts, factorize
from nilmult.witt import _moebius_terms, divisors

sympy = pytest.importorskip("sympy")


def sympy_moebius_terms(n):
    """The nonzero (mu(d), n // d) over d | n, in sympy's divisor order."""
    return [(mu, n // d) for d in sympy.divisors(n) if (mu := int(sympy.mobius(d)))]


@st.composite
def straddling_semiprimes(draw):
    # p < 10**6 < q with p * q <= MAX_ORDER: q is never reached by trial
    # division and is only found as the cofactor left over at the end
    p = sympy.prevprime(draw(st.integers(3, 10**6)))
    q = sympy.prevprime(draw(st.integers(1_000_004, MAX_ORDER // p + 1)))
    return p * q


@given(st.integers(1, MAX_ORDER))
@settings(max_examples=50, deadline=None)
def test_factorize_matches_factorint(n):
    assert factorize(n) == sympy.factorint(n)


@given(straddling_semiprimes())
@settings(max_examples=25, deadline=None)
def test_factorize_splits_semiprimes_straddling_a_million(n):
    assert factorize(n) == sympy.factorint(n)
    assert len(factorize(n)) == 2


@given(straddling_semiprimes())
@settings(max_examples=25, deadline=None)
def test_moebius_matches_mobius_on_semiprimes(n):
    terms = sorted(_moebius_terms(n))
    assert terms == sorted(sympy_moebius_terms(n))
    assert len(terms) == 4


@given(st.integers(1, MAX_ORDER))
@settings(max_examples=50, deadline=None)
def test_moebius_matches_mobius(n):
    assert sorted(_moebius_terms(n)) == sorted(sympy_moebius_terms(n))


@given(st.integers(1, 10**6))
@settings(deadline=None)
def test_divisors_match_sympy(n):
    assert divisors(n) == sympy.divisors(n)


@pytest.mark.parametrize("n", [10**12 + 39, 2 * (10**12 + 39), 4 * (10**12 + 39)])
def test_moebius_is_unbounded(n):
    # the shared loop carries no MAX_ORDER guard; only factorize does
    assert n > MAX_ORDER
    assert sorted(_moebius_terms(n)) == sorted(sympy_moebius_terms(n))
    with pytest.raises(ValueError):
        factorize(n)


def factorint_invariant_form(multiset):
    """Run-length invariant factors via sympy's prime factorization of each order.

    Per prime, the exponents of all copies are sorted from the largest down;
    invariant factor j is the product of every prime to its j-th exponent.
    """
    exponents = {}
    for order, multiplicity in multiset.items():
        for p, e in sympy.factorint(order).items():
            exponents.setdefault(p, []).extend([e] * multiplicity)
    for column in exponents.values():
        column.sort(reverse=True)
    length = max(map(len, exponents.values()), default=0)
    runs = []
    for j in range(length):
        factor = 1
        for p, column in exponents.items():
            if j < len(column):
                factor *= p ** column[j]
        if runs and runs[-1][0] == factor:
            runs[-1][1] += 1
        else:
            runs.append([factor, 1])
    return tuple(map(tuple, runs))


SHARED_PRIMES = (2, 3, 5, 7, 999_983, 1_000_003, 100_000_000_003, 999_999_999_989)


@st.composite
def admissible_orders(draw):
    # plain integers rarely share a factor beyond small primes, so half the
    # orders are products of powers of a few primes, some of them large
    if draw(st.booleans()):
        return draw(st.integers(2, MAX_ORDER))
    order = 1
    for p in draw(st.lists(st.sampled_from(SHARED_PRIMES), min_size=1, max_size=6)):
        if order * p <= MAX_ORDER:
            order *= p
    return max(order, 2)


@given(st.dictionaries(admissible_orders(), st.integers(1, 4), max_size=8))
@settings(max_examples=100, deadline=None)
def test_compressed_invariant_form_matches_factorint(multiset):
    assert _event_walk(_exponent_counts(multiset)) == factorint_invariant_form(multiset)


BIG = 10**12 + 39  # prime, just above MAX_ORDER


@pytest.mark.parametrize(
    "multiset",
    [
        {BIG * 999_983: 1},
        {BIG * 999_983: 2, 999_983**2: 1, BIG: 3},
        {999_999_999_989**2: 1, 100_000_000_003**2: 2},
        {999_999_999_989**2: 1, 999_999_999_989 * 100_000_000_003: 2, 100_000_000_003**3: 1},
        {BIG**2 * 12: 1, BIG * 18: 1, 8: 2},
        # a power of two far past 64 bits, read from the bits all the same
        {2**80 * BIG: 1, 8 * BIG: 2},
    ],
)
def test_compressed_invariant_form_beyond_max_order(multiset):
    # factorize refuses these orders; the coprime base needs no bound
    assert max(multiset) > MAX_ORDER
    with pytest.raises(ValueError):
        factorize(max(multiset))
    assert _event_walk(_exponent_counts(multiset)) == factorint_invariant_form(multiset)
