"""Differential tests of the factorization layer against sympy.

``factorize``, ``divisors`` and the Witt terms ``witt._moebius_terms`` all
rest on the one trial-division loop in ``nilmult.abelian``; sympy is an
independent implementation of each (``factorint``, ``divisors`` and
``mobius``).  The module is skipped when sympy is not installed.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilmult.abelian import MAX_ORDER, factorize
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
