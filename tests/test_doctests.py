import doctest
import pathlib

import pytest

import nilmult.abelian
import nilmult.hall
import nilmult.multiplier
import nilmult.witt

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize(
    "module",
    [nilmult.abelian, nilmult.hall, nilmult.multiplier, nilmult.witt],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0


def test_readme_library_example_runs():
    failures, tried = doctest.testfile(str(README), module_relative=False)
    assert failures == 0
    assert tried > 0
