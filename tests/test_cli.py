import argparse
import collections
import contextlib
import decimal
import functools
import hashlib
import importlib.util
import io
import itertools
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import threading
import time
import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilmult import abelian, cli, hall, multiplier, witt
from nilmult.abelian import CyclicDecomposition, InvariantFactors, canonicalize
from nilmult.hall import CapExceeded, enumerate_basic
from nilmult.cli import (
    MAX_FACTORS,
    MAX_RESULT_BITS,
    MAX_SWEEP_CASES,
    GroupSpecError,
    build_parser,
    check_result_size,
    invariant_chains,
    main,
    parse_args,
    parse_group_spec,
)
from nilmult.multiplier import (
    MultiplierResult,
    decimal_str,
    formula_digits,
    multiplier_order,
    nilpotent_multiplier,
    summand_digits,
)
from nilmult.witt import witt_count
from test_acceptance import invariant_chains as recursive_invariant_chains


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def record_calls(monkeypatch, module, name):
    """Wrap `name` in every nilmult module that binds it; return its first arguments."""
    original = getattr(module, name)
    seen = []

    def wrapper(*args, **kwargs):
        seen.append(args[0])
        return original(*args, **kwargs)

    for module_name, bound in list(sys.modules.items()):
        if module_name.split(".")[0] == "nilmult" and getattr(bound, name, None) is original:
            monkeypatch.setattr(bound, name, wrapper)
    return seen


def wrong_oracle(monkeypatch):
    """Make every oracle call answer Z3^(2), so `both` and `sweep` disagree."""
    monkeypatch.setattr(
        multiplier, "tensor_oracle", lambda d, c: MultiplierResult(((3, 2),))
    )


# ---------------------------------------------------------------------------
# Group-spec grammar
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, expected",
    [
        ("12,6,2", (12, 6, 2)),
        ("Z12+Z6+Z2", (12, 6, 2)),
        ("Z2^3", (2, 2, 2)),
        ("Z2^3+Z5", (2, 2, 2, 5)),
        (" 12 , 6 ,2 ", (12, 6, 2)),
        ("Z 12 + Z6", (12, 6)),
        ("7", (7,)),
        ("1", (1,)),
        ("Z7", (7,)),
    ],
)
def test_parse_group_spec(text, expected):
    assert parse_group_spec(text).orders == expected


@pytest.mark.parametrize(
    "bad",
    ["", "  ", "Z", "2,,4", "Z2^", "Z2^0", "foo", "2+2", "Z2,Z4", "12;6", "Z-2", "-3"],
)
def test_parse_group_spec_rejects(bad):
    with pytest.raises(GroupSpecError):
        parse_group_spec(bad)


def test_parse_group_spec_order_bounds():
    with pytest.raises(ValueError):
        parse_group_spec("0")
    with pytest.raises(ValueError):
        parse_group_spec(str(10**12 + 1))


def test_parse_group_spec_factor_bound():
    # at the bound, 10**6 factors, a spec parses; one factor more is refused
    # before any list of orders is built, in either spelling.  The values are
    # literal, so a change of MAX_FACTORS fails here
    assert len(parse_group_spec("Z1^999999+Z2").orders) == 1_000_000
    message = "the group spec has 1000001 factors, above the bound of 1000000"
    for text in ("Z1^1000000+Z2", ",".join(["1"] * 1_000_001)):
        start = time.perf_counter()
        with pytest.raises(GroupSpecError, match=message):
            parse_group_spec(text)
        assert time.perf_counter() - start < 0.5


def test_huge_power_exits_1_at_once(capsys):
    # expanded, Z1^1000000000 would need about 16 GB
    start = time.perf_counter()
    code, out, err = run(capsys, "compute", "--group", "Z1^1000000000", "--class", "1")
    assert (code, out) == (1, "")
    assert err == (
        f"error: the group spec has 1000000000 factors, above the bound of {MAX_FACTORS}\n"
    )
    assert time.perf_counter() - start < 0.5


ONES = "1" * 5000
FACTOR_BOUND = f"above the bound of {MAX_FACTORS}"
ORDER_BOUND = f"exceeds the bound {abelian.MAX_ORDER}"


@pytest.mark.parametrize(
    "spec, message",
    [
        (f"Z2^{ONES}", f"the group spec has {ONES} factors, {FACTOR_BOUND}"),
        (f"Z2^{ONES}+Z3^2", f"the group spec has {ONES[:-1]}3 factors, {FACTOR_BOUND}"),
        ("Z2^11111111", f"the group spec has 11111111 factors, {FACTOR_BOUND}"),
        (f"Z{ONES}", f"cyclic order {ONES} {ORDER_BOUND}"),
        (ONES, f"cyclic order {ONES} {ORDER_BOUND}"),
        (f"6,{'0' * 5000}{'1' * 14}", f"cyclic order {'1' * 14} {ORDER_BOUND}"),
    ],
)
def test_over_long_numbers_get_their_bounds_message(capsys, spec, message):
    # refused by their length: int() would trip the default int-to-str digit limit
    code, out, err = run(capsys, "compute", "--group", spec, "--class", "1")
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_leading_zeros_do_not_count_towards_a_bound():
    zeros = "0" * 5000
    assert parse_group_spec(f"Z{zeros}4^{zeros}3").orders == (4, 4, 4)
    assert parse_group_spec(f"{zeros}12,{zeros}6").orders == (12, 6)


@given(st.lists(st.integers(1, 999), min_size=1, max_size=5), st.integers(1, 4))
def test_spec_round_trip(orders, power):
    spellings = [
        ",".join(map(str, orders)),
        "+".join(f"Z{r}" for r in orders),
        "+".join(f"Z{r}^{power}" for r in orders),
    ]
    for text in spellings:
        d = parse_group_spec(text)
        assert parse_group_spec(",".join(map(str, d.orders))) == d


# The grammar as two regular expressions: the spec parser checks its terms
# with str.partition and str.isdecimal instead, and must accept and refuse
# exactly what these do.  \d, like isdecimal(), matches the Unicode digits of
# category Nd, which int() reads.
SUMMAND = re.compile(r"Z(\d+)(?:\^(\d+))?")
PLAIN_INT = re.compile(r"\d+")


def reference_parse_group_spec(text):
    """The spec parser with its terms matched by ``SUMMAND`` and ``PLAIN_INT``."""
    compact = "".join(text.split())
    if not compact:
        raise GroupSpecError("empty group specification")
    orders = []
    if compact.startswith("Z"):
        powers = []
        long_powers = []
        factors = 0
        for term in compact.split("+"):
            m = SUMMAND.fullmatch(term)
            if not m:
                raise GroupSpecError(f"bad summand {term!r} in {text!r}")
            order, power = m.groups()
            if power is None:
                power = 1
            else:
                if len(power) > cli._FACTOR_DIGITS:
                    power = power.lstrip("0") or "0"
                    if len(power) > cli._FACTOR_DIGITS:
                        long_powers.append(power)
                        continue
                power = int(power)
                if power < 1:
                    raise GroupSpecError(f"power must be >= 1 in {term!r}")
            if len(order) > cli._ORDER_DIGITS:
                order = cli._long_order(order)
            powers.append((int(order), power))
            factors += power
        cli._check_factor_count(factors, long_powers)
        for order, power in powers:
            orders.extend([order] * power)
    else:
        pieces = compact.split(",")
        cli._check_factor_count(len(pieces))
        for piece in pieces:
            if not PLAIN_INT.fullmatch(piece):
                raise GroupSpecError(f"bad order {piece!r} in {text!r}")
            if len(piece) > cli._ORDER_DIGITS:
                piece = cli._long_order(piece)
            orders.append(int(piece))
    return CyclicDecomposition(tuple(orders))


def spec_outcome(parse, text):
    """The orders ``parse`` reads from ``text``, or the type and message of its refusal."""
    try:
        return parse(text).orders
    except ValueError as error:  # GroupSpecError, or an order CyclicDecomposition refuses
        return type(error), str(error)


ARABIC_INDIC = "".join(chr(0x0660 + d) for d in range(10))
FULLWIDTH = "".join(chr(0xFF10 + d) for d in range(10))


@pytest.mark.parametrize(
    "text",
    [
        f"{ARABIC_INDIC[1]}{ARABIC_INDIC[2]},{ARABIC_INDIC[6]}",  # 12,6
        f"Z{ARABIC_INDIC[4]}^{ARABIC_INDIC[3]}+Z2",
        f"{FULLWIDTH[1]}{FULLWIDTH[2]},{FULLWIDTH[0]}",  # 12,0
        f"Z{FULLWIDTH[8]}^{FULLWIDTH[2]}",
        "Z2^\u00b2",  # a superscript two is a digit, but not a decimal one
        "\u00b2",
        "Z",
        "Z^3",
        "Z2^",
        "Z2^^3",
        "Z2^3^4",
        "z2",
        "ZZ2",
        "2,,3",
        ",2",
        "+Z2",
        "Z2+",
        "Z2^0",
        "Z0",
        "Z2^3+Z3^0+Z",
        "12,6,2",
        "Z12+Z6+Z2^3",
    ],
)
def test_spec_parser_matches_the_regex_grammar(text):
    assert spec_outcome(parse_group_spec, text) == spec_outcome(reference_parse_group_spec, text)


def test_decimal_digits_are_the_regex_digits():
    # over every code point: \d and str.isdecimal() pick the same characters
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\d", everything) == [ch for ch in everything if ch.isdecimal()]


# argparse's pattern for a token that reads as a negative number, a value and
# not a flag; the parser tests for one with str methods instead.
NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


@given(st.text(alphabet="-.0123456789\u0661\u0969\uff15 \n", max_size=8))
@example("-5\n")  # $ matches before one trailing newline
@example("-5\n\n")
@example("-.5\n")
@example("-\n")
@example("-\u0661.\uff15")
@example("-5.")
@example("-.")
@example("--5")
@settings(deadline=None)
def test_negative_numbers_are_the_regex_negative_numbers(token):
    assert cli._is_negative_number(token) == bool(NEGATIVE_NUMBER.match(token))


@given(st.text(alphabet="Z^+,0123456789\u0661\u00b2 ", max_size=8))
@example("Z\u0661^\u0661\u0661")
@example("Z2^3+")
@settings(deadline=None)
def test_spec_parser_matches_the_regex_grammar_on_any_text(text):
    assert spec_outcome(parse_group_spec, text) == spec_outcome(reference_parse_group_spec, text)


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------


def test_compute_both_text(capsys):
    code, out, err = run(
        capsys, "compute", "--group", "12,6,2", "--class", "1", "--method", "both"
    )
    assert code == 0
    assert err == ""
    assert out == (
        "input: 12,6,2\n"
        "canonical: 12,6,2\n"
        "class: 1\n"
        "method: both\n"
        "multiplier: Z6 (+) Z2^(2)\n"
        "order: 24 = 6^1 · 2^2\n"
        "verified: equal\n"
    )


def test_compute_trivial(capsys):
    code, out, err = run(capsys, "compute", "--group", "Z5", "--class", "7")
    assert code == 0
    assert err == ""
    assert out == (
        "input: 5\n"
        "canonical: 5\n"
        "class: 7\n"
        "method: formula\n"
        "multiplier: trivial\n"
        "order: 1\n"
    )


def test_compute_huge_multiplicity_text(capsys):
    code, out, err = run(capsys, "compute", "--group", "2,2", "--class", "40")
    assert code == 0
    assert err == ""
    assert out == (
        "input: 2,2\n"
        "canonical: 2,2\n"
        "class: 40\n"
        "method: formula\n"
        "multiplier: Z2^(53634713550)\n"
        "order: 2^53634713550\n"
    )


@given(st.lists(st.integers(1, 12), min_size=1, max_size=4), st.integers(1, 3))
@settings(deadline=None)
def test_order_factored_multiplies_out_to_the_order(entries, c):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["compute", "--group", ",".join(map(str, entries)),
                     "--class", str(c), "--format", "json"])
    assert code == 0
    record = json.loads(out.getvalue())
    factors = [s.split("^") for s in record["order_factored"].split(" · ") if s]
    assert factors == [
        [str(s["order"]), s["multiplicity"]] for s in record["summands"]
    ]
    assert math.prod(int(base) ** int(exp) for base, exp in factors) == int(
        record["order_decimal"]
    )


@pytest.mark.parametrize("method", ["formula", "oracle", "both"])
def test_compute_canonicalizes_once(capsys, monkeypatch, method):
    calls = record_calls(monkeypatch, abelian, "canonicalize")
    code, out, _ = run(
        capsys, "compute", "--group", "4,6", "--class", "2", "--method", method
    )
    assert code == 0
    assert "canonical: 12,2" in out
    assert calls == [CyclicDecomposition((4, 6))]


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "argv, rendered",
    [
        (("--group", "12,6,2", "--class", "1", "--method", "both"),
         [6, 1, 2, 2, 12, 6, 2, 24]),
        (("--group", "2,2", "--class", "40"), [2, 2, 2]),
        (("--group", "Z5", "--class", "7"), [5, 1]),
    ],
)
def test_compute_renders_each_integer_once(capsys, monkeypatch, fmt, argv, rendered):
    # the chain entries, the orders and a result's multiplicities go through
    # decimal_str; the formula's multiplicity of 2,2 at class 40, from a small
    # table, is the str() of its int in witt._kept_digits, and no query here
    # evaluates an exact-decimal Witt sum
    calls = record_calls(monkeypatch, multiplier, "decimal_str")
    sums = record_calls(monkeypatch, witt, "_decimal_sums")
    code, out, _ = run(capsys, "compute", *argv, "--format", fmt)
    assert code == 0
    assert (calls, sums) == (rendered, [])
    if argv[1] == "2,2":
        assert out.count("53634713550") == 2


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_large_formula_multiplicities_skip_decimal_str(capsys, monkeypatch, fmt):
    # the multiplicities, of about 30,000 to 78,000 digits, come as exact
    # decimal digits from the formula; only orders and chain entries are rendered
    calls = record_calls(monkeypatch, multiplier, "decimal_str")
    code, out, _ = run(capsys, "compute", "--group", "12,12,6,6,2,2", "--class", "100000",
                       "--format", fmt)
    assert code == 0
    assert calls == [12, 6, 2, 12, 12, 6, 6, 2, 2]
    monkeypatch.undo()
    result = nilpotent_multiplier(InvariantFactors((12, 12, 6, 6, 2, 2)), 10**5)
    expected = [decimal_str(mult) for _, mult in result.summands]
    if fmt == "json":
        printed = [s["multiplicity"] for s in json.loads(out)["summands"]]
    else:
        multiplier_line = out.splitlines()[4]
        printed = [term.split("^(")[1].rstrip(")") for term in multiplier_line.split(" (+) ")]
    assert printed == expected


def test_large_witt_counts_skip_the_int(capsys, monkeypatch):
    rendered = record_calls(monkeypatch, multiplier, "decimal_str")
    counted = record_calls(monkeypatch, witt, "witt_count")
    code, out, _ = run(capsys, "witt", "--weight", "20001", "--letters", "7")
    assert code == 0
    assert (rendered, counted) == ([], [])
    monkeypatch.undo()
    assert out == decimal_str(witt_count(20001, 7)) + "\n"


def probable_primes(start, count):
    """The first `count` integers from `start` on that pass Fermat tests to bases 2 and 3."""
    passing = (n for n in itertools.count(start) if pow(2, n - 1, n) == pow(3, n - 1, n) == 1)
    return list(itertools.islice(passing, count))


def test_compute_prints_integers_past_the_digit_limit(capsys):
    # 400 distinct orders near 10**12 make one chain entry of about 4,800
    # digits; 800 orders near 10**6, each listed twice, make two entries of
    # about 4,800 digits and a summand of that order
    wide = probable_primes(10**12 - 10**7, 400)
    doubled = probable_primes(10**6, 800) * 2
    original_limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        expected = {}
        for orders in (wide, doubled):
            chain = canonicalize(CyclicDecomposition(tuple(orders))).chain
            assert chain == (math.lcm(*orders),) * (len(orders) // len(set(orders)))
            big = str(chain[0])
            assert len(big) > 4300
            group = ",".join(map(str, orders))
            if len(chain) == 1:
                summands, multiplier_text, order_text = [], "trivial", "1"
            else:
                summands, multiplier_text = [{"order": chain[0], "multiplicity": "1"}], f"Z{big}"
                order_text = f"{big} = {big}^1"
            expected[group, "text"] = (
                f"input: {group}\ncanonical: {','.join(map(str, chain))}\nclass: 1\n"
                f"method: formula\nmultiplier: {multiplier_text}\norder: {order_text}\n"
            )
            expected[group, "json"] = json.dumps({
                "schema_version": "1", "input": orders, "canonical": list(chain),
                "class": 1, "method": "formula", "summands": summands,
                "order_factored": f"{big}^1" if summands else "",
                "order_decimal": big if summands else "1", "verified": None,
            }, ensure_ascii=False) + "\n"
        for limit in (original_limit, 640):
            sys.set_int_max_str_digits(limit)
            for (group, fmt), out in expected.items():
                assert run(capsys, "compute", "--group", group, "--class", "1",
                           "--format", fmt) == (0, out, ""), (limit, fmt)
    finally:
        sys.set_int_max_str_digits(original_limit)


def test_compute_many_repeated_orders(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "compute", "--group", "Z2^60000", "--class", "1")
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == [
        "canonical: " + ",".join(["2"] * 60000),
        "class: 1",
        "method: formula",
        f"multiplier: Z2^({60000 * 59999 // 2})",
        f"order: 2^{60000 * 59999 // 2}",
    ]
    assert elapsed < 5.0, elapsed


def test_compute_mismatch_exits_2(capsys, monkeypatch):
    wrong_oracle(monkeypatch)
    argv = ("compute", "--group", "12,6,2", "--class", "1", "--method", "both")
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out.splitlines()[-1] == "verified: MISMATCH"
    assert "multiplier: Z6 (+) Z2^(2)" in out
    assert err == "mismatch: formula=Z6 (+) Z2^(2) oracle=Z3^(2)\n"
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 2
    assert json.loads(out)["verified"] is False
    assert err == "mismatch: formula=Z6 (+) Z2^(2) oracle=Z3^(2)\n"


def test_compute_canonicalizes_before_the_formula(capsys):
    code, out, _ = run(
        capsys, "compute", "--group", "4,6", "--class", "2", "--method", "both"
    )
    assert code == 0
    assert "canonical: 12,2" in out
    assert "multiplier: Z2^(2)" in out
    assert "verified: equal" in out


def test_compute_json_schema(capsys):
    code, out, _ = run(
        capsys,
        "compute", "--group", "Z12+Z6+Z2", "--class", "1",
        "--method", "both", "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    assert list(record) == [
        "schema_version", "input", "canonical", "class", "method",
        "summands", "order_factored", "order_decimal", "verified",
    ]
    assert record["schema_version"] == "1"
    assert record["input"] == [12, 6, 2]
    assert record["canonical"] == [12, 6, 2]
    assert record["class"] == 1
    assert record["method"] == "both"
    assert record["summands"] == [
        {"order": 6, "multiplicity": "1"},
        {"order": 2, "multiplicity": "2"},
    ]
    assert record["order_factored"] == "6^1 · 2^2"
    assert record["order_decimal"] == "24"
    assert record["verified"] is True


def test_compute_json_null_fields(capsys):
    code, out, _ = run(
        capsys, "compute", "--group", "9", "--class", "2", "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["summands"] == []
    assert record["order_factored"] == ""
    assert record["order_decimal"] == "1"
    assert record["verified"] is None


def test_compute_huge_multiplicity_serializes_as_string(capsys):
    code, out, _ = run(
        capsys, "compute", "--group", "2,2", "--class", "40", "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["summands"] == [{"order": 2, "multiplicity": "53634713550"}]
    assert record["order_decimal"] is None
    assert record["order_factored"] == "2^53634713550"


def test_equivalent_spellings_give_identical_records(capsys):
    outputs = []
    for spelling in ("Z2^3", "Z2+Z2+Z2", "2, 2, 2"):
        code, out, _ = run(
            capsys, "compute", "--group", spelling, "--class", "2",
            "--format", "json",
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def record_line(decomposition, chain, nilpotency_class, method, result, verified):
    """The JSON line of a compute query, as ``json.dumps`` writes its record dict.

    The reference for the line the CLI writes directly; it needs the
    int-to-str digit limit lifted.
    """
    summands = [{"order": order, "multiplicity": str(mult)} for order, mult in result.summands]
    total = multiplier_order(result)
    record = {
        "schema_version": "1",
        "input": list(decomposition.orders),
        "canonical": list(chain.chain),
        "class": nilpotency_class,
        "method": method,
        "summands": summands,
        "order_factored": " · ".join(f"{s['order']}^{s['multiplicity']}" for s in summands),
        "order_decimal": None if total is None else str(total),
        "verified": verified,
    }
    return json.dumps(record, ensure_ascii=False) + "\n"


@st.composite
def divisibility_chains(draw, strict):
    """Chains n_1, n_2 | n_1, ... of 0-4 entries >= 2, up to about 2**3000."""
    ratios = draw(st.lists(st.integers(2 if strict else 1, 2**1000), max_size=3))
    chain = [draw(st.integers(2, 2**100))] if ratios or draw(st.booleans()) else []
    for ratio in ratios:
        chain.append(chain[-1] * ratio)
    return tuple(reversed(chain))


@st.composite
def compute_outcomes(draw):
    """(decomposition, chain, class, method, result, verified) of a compute query.

    The fields are drawn independently, as the writer takes them.  A result
    is empty, has summands with multiplicities of up to 40,000 bits, or is
    the formula's on the drawn chain, whose digits the writer is given by
    ``formula_digits``; at the large classes its table is past 1,024 bits
    (``witt._small``) and the digits of its multiplicities come from exact
    decimal.
    """
    orders = draw(st.lists(st.integers(1, abelian.MAX_ORDER), min_size=1, max_size=5))
    chain = InvariantFactors(draw(divisibility_chains(strict=False)))
    nilpotency_class = draw(st.sampled_from([1, 2, 3, 12_000, 31_000]))
    source = draw(st.sampled_from(["empty", "summands", "formula"]))
    if source == "empty":
        result = MultiplierResult(())
    elif source == "summands":
        orders_out = draw(divisibility_chains(strict=True))
        mults = [draw(st.integers(1, 2**40_000)) for _ in orders_out]
        result = MultiplierResult(tuple(zip(orders_out, mults)))
    else:
        result = nilpotent_multiplier(chain, nilpotency_class)
    method = draw(st.sampled_from(["formula", "oracle", "both"]))
    verified = draw(st.sampled_from([None, True, False]))
    return CyclicDecomposition(tuple(orders)), chain, nilpotency_class, method, result, verified


def writer_digits(chain, nilpotency_class, result):
    """The (digits, order) the CLI gives the writer: by ``formula_digits`` for the formula."""
    if result == nilpotent_multiplier(chain, nilpotency_class):
        return formula_digits(chain, nilpotency_class)
    return summand_digits(result), multiplier_order(result)


@given(compute_outcomes())
@example((CyclicDecomposition((9,)), InvariantFactors((9,)), 2, "formula",
          MultiplierResult(()), None))
@example((CyclicDecomposition((1, 1)), InvariantFactors(()), 3, "both",
          MultiplierResult(()), True))
@example((CyclicDecomposition((2, 2)), InvariantFactors((2, 2)), 40, "oracle",
          MultiplierResult(((2, 53634713550),)), None))
@example((CyclicDecomposition((12, 6, 2)), InvariantFactors((12, 6, 2)), 1, "both",
          MultiplierResult(((6, 1), (2, 2))), True))
@example((CyclicDecomposition((12, 6, 2)), InvariantFactors((12, 6, 2)), 1, "both",
          MultiplierResult(((6, 1), (2, 2))), False))
@example((CyclicDecomposition((12, 12, 6, 6, 2, 2)), InvariantFactors((12, 12, 6, 6, 2, 2)),
          100_000, "formula", nilpotent_multiplier(InvariantFactors((12, 12, 6, 6, 2, 2)),
                                                   100_000), None))
@settings(deadline=None, max_examples=60)
def test_json_line_is_the_record_json_dumps_writes(outcome):
    decomposition, chain, nilpotency_class, method, result, verified = outcome
    original_limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        expected = record_line(*outcome)
        sys.set_int_max_str_digits(640)
        # written as the CLI writes it
        digits, total = writer_digits(chain, nilpotency_class, result)
        line = cli._compute_output(decomposition, chain, nilpotency_class, method, "json",
                                   digits, total, verified)
    finally:
        sys.set_int_max_str_digits(original_limit)
    assert line == expected
    if not digits:
        # no separator is left behind when there is nothing to separate
        assert '"summands": [], "order_factored": "", ' in line


def fstring_text_output(decomposition, chain, nilpotency_class, method, digits, total, verified):
    """The text output of a compute query, built from one f-string per summand and per line.

    The reference for the writer's one join: here each multiplicity's digits
    are copied into its summand's string, that string into the joined sum,
    and the sum into the output.
    """
    canonical = [decimal_str(n) for n in chain.chain]
    order_decimal = None if total is None else decimal_str(total)
    factored = " · ".join([f"{order}^{mult}" for order, mult in digits])
    direct_sum = " (+) ".join(
        f"Z{order}" if mult == "1" else f"Z{order}^({mult})" for order, mult in digits
    )
    if not digits:
        order_text = "1"
    elif order_decimal is None:
        order_text = factored
    else:
        order_text = f"{order_decimal} = {factored}"
    verdict = "" if verified is None else (
        f"verified: {'equal' if verified else 'MISMATCH'}\n"
    )
    return (
        f"input: {','.join(map(str, decomposition.orders))}\n"
        f"canonical: {','.join(canonical)}\n"
        f"class: {nilpotency_class}\n"
        f"method: {method}\n"
        f"multiplier: {direct_sum or 'trivial'}\n"
        f"order: {order_text}\n"
        f"{verdict}"
    )


@given(compute_outcomes())
@example((CyclicDecomposition((9,)), InvariantFactors((9,)), 2, "formula",
          MultiplierResult(()), None))
@example((CyclicDecomposition((2, 2)), InvariantFactors((2, 2)), 40, "oracle",
          MultiplierResult(((2, 53634713550),)), True))
@example((CyclicDecomposition((12, 6, 2)), InvariantFactors((12, 6, 2)), 1, "both",
          MultiplierResult(((6, 1), (2, 2))), None))
@example((CyclicDecomposition((12, 6, 2)), InvariantFactors((12, 6, 2)), 1, "both",
          MultiplierResult(((6, 1), (2, 2))), True))
@example((CyclicDecomposition((12, 6, 2)), InvariantFactors((12, 6, 2)), 1, "both",
          MultiplierResult(((6, 1), (2, 2))), False))
@example((CyclicDecomposition((12, 12, 6, 6, 2, 2)), InvariantFactors((12, 12, 6, 6, 2, 2)),
          100_000, "formula", nilpotent_multiplier(InvariantFactors((12, 12, 6, 6, 2, 2)),
                                                   100_000), None))
@settings(deadline=None, max_examples=60)
def test_text_output_is_the_fstring_writers(outcome):
    # the examples: the trivial multiplier, an order too large to print
    # (factored form only), a multiplicity of 1 (no "^(...)"), verified None,
    # True and False, and multiplicities of tens of thousands of digits
    decomposition, chain, nilpotency_class, method, result, verified = outcome
    original_limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        digits, total = writer_digits(chain, nilpotency_class, result)
        text = cli._compute_output(decomposition, chain, nilpotency_class, method, "text",
                                   digits, total, verified)
        expected = fstring_text_output(decomposition, chain, nilpotency_class, method,
                                       digits, total, verified)
    finally:
        sys.set_int_max_str_digits(original_limit)
    assert text == expected
    if not digits:
        assert "\nmultiplier: trivial\norder: 1\n" in text


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("text", "e5af055f50482dd5dfaa4be8a75e9c61cdaac45e9f8c3316a571f38305468f7d"),
        ("json", "139166aea9d7be29fdca2fb91408b3cde7d5858f0878bd5dad18076373f7aa95"),
    ],
)
def test_compute_output_is_pinned(capsys, fmt, digest):
    # the output of oracle-sweep's query set, byte for byte: --method both on
    # every chain with entries <= 16 and rank <= 4, at classes 1-4
    outputs = []
    for chain in invariant_chains(16, 4):
        group = ",".join(map(str, chain)) or "1"
        for c in range(1, 5):
            code, out, err = run(capsys, "compute", "--group", group, "--class", str(c),
                                 "--method", "both", "--format", fmt)
            assert (code, err) == (0, "")
            outputs.append(out)
    assert len(outputs) == 816
    assert hashlib.sha256("".join(outputs).encode()).hexdigest() == digest


def bench_workloads():
    """The benchmark's query generators, loaded from bench/workloads.py without importing bench."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("text", "4eb860ddd9cc28b30faa3e851dccf4550a620a8fc828e74f87e267ddb51b1f03"),
        ("json", "b60fb1f4fe3f9500a90fec8e2cec3d32c9c4788aed11341137c887857bc502f7"),
    ],
)
def test_wide_mixed_output_is_pinned(capsys, fmt, digest):
    # the output of wide-mixed's seed-1 pass, byte for byte: --method both on
    # 300 unsorted groups of rank 8-40 at class 1-2, in the given format
    outputs = []
    for argv in bench_workloads().wide_mixed(1):
        assert argv[-2:] == ["--format", "json"]
        code, out, err = run(capsys, *argv[:-1], fmt)
        assert (code, err) == (0, "")
        outputs.append(out)
    assert len(outputs) == 300
    assert hashlib.sha256("".join(outputs).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("text", "82875ef978a2d099b244020deb052d5d2103ede5cbd6b82d52d8b84132d35f07"),
        ("json", "981cb7155dd662f978d5323253aa7d678383c2b8dd7fa0fe8c7be6d39db16475"),
    ],
)
def test_formula_deep_output_is_pinned(capsys, fmt, digest):
    # the output of formula-deep's seed-1 pass, byte for byte: --method
    # formula on 120 strict chains of rank 2-6 at classes 10^3-10^5, all of
    # them past a small table (1,024 bits), in the given format
    outputs = []
    for argv in bench_workloads().formula_deep(1):
        assert argv[-2:] == ["--format", "json"]
        code, out, err = run(capsys, *argv[:-1], fmt)
        assert (code, err) == (0, "")
        outputs.append(out)
    assert len(outputs) == 120
    assert hashlib.sha256("".join(outputs).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "workload, checks",
    [
        ("oracle_sweep", {"cyclic order": 816, "nilpotency class": 2 * 816}),
        ("wide_mixed", {"cyclic order": 300, "nilpotency class": 2 * 300}),
        ("formula_deep", {"cyclic order": 120, "nilpotency class": 120}),
    ],
)
def test_compute_checks_its_ints_where_they_enter(monkeypatch, workload, checks):
    # the _check_ints calls of a warm seed-1 pass: the group's orders once a
    # query, in CyclicDecomposition, and the class where the library takes
    # it (tensor_oracle and nilpotent_multiplier for --method both, and
    # formula_digits alone for formula, which goes on to the unchecked
    # witt._kept_digits).  cmd_compute gives check_result_size's core the
    # weight and letters it built, unchecked
    queries = getattr(bench_workloads(), workload)(1)
    calls = collections.Counter()
    original = abelian._check_ints

    def spy(values, what, least):
        calls[what] += 1
        return original(values, what, least)

    with contextlib.redirect_stdout(io.StringIO()):
        for argv in queries:  # the warm-up pass fills the caches and the store
            assert main(argv) == 0
        for module in (abelian, cli, hall, multiplier, witt):
            if getattr(module, "_check_ints", None) is original:
                monkeypatch.setattr(module, "_check_ints", spy)
        for argv in queries:
            assert main(argv) == 0
    assert calls == checks


def test_a_warm_formula_deep_pass_evaluates_no_witt_sum(monkeypatch):
    # no formula-deep table is small (its least is 2,002 bits, rank 2 at
    # class 1,000), so the first pass keeps the digits of every multiplicity
    # and a second pass evaluates no Witt sum, int or Decimal
    queries = bench_workloads().formula_deep(1)
    calls = []
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in queries:  # the warm-up pass fills the store
            assert main(argv) == 0
        for name in ("_witt_sums", "_decimal_sums"):
            def counted(weight, letters, *rest, _name=name, _original=getattr(witt, name)):
                calls.append((_name, weight, tuple(letters)))
                return _original(weight, letters, *rest)

            monkeypatch.setattr(witt, name, counted)
        for argv in queries:
            assert main(argv) == 0
    assert calls == []


def test_compute_oracle_method(capsys):
    code, out, _ = run(
        capsys, "compute", "--group", "8,4", "--class", "3", "--method", "oracle"
    )
    assert code == 0
    assert "multiplier: Z4^(3)" in out


INPUT_ERRORS = [
    (("compute", "--group", "nonsense", "--class", "1"),
     "error: bad order 'nonsense' in 'nonsense'"),
    (("compute", "--group", "12,0", "--class", "1"), "error: cyclic order must be >= 1, got 0"),
    (("compute", "--group", str(10**12 + 1), "--class", "1"),
     "error: cyclic order 1000000000001 exceeds the bound 1000000000000"),
    (("compute", "--group", "4,2", "--class", "0"), "error: --class must be >= 1"),
    (("compute", "--group", "4,2", "--class", "x"),
     "nilmult compute: error: argument --class: invalid int value: 'x'"),
    (("compute", "--group", "4,2"),
     "nilmult compute: error: the following arguments are required: --class"),
    (("witt", "--weight", "two", "--letters", "3"),
     "nilmult witt: error: argument --weight: invalid int value: 'two'"),
    (("witt", "--weight", "0", "--letters", "3"), "error: weight must be >= 1, got 0"),
    (("witt", "--weight", "2", "--letters", "-1"), "error: letters must be >= 0, got -1"),
    (("basis", "--weight", "0", "--letters", "2"), "error: weight must be >= 1, got 0"),
    (("sweep", "--max-order", "0", "--max-rank", "1", "--max-class", "1"),
     "error: --max-order must be >= 1"),
    (("unknown-command",),
     "nilmult: error: argument command: invalid choice: 'unknown-command' "
     "(choose from 'compute', 'witt', 'basis', 'sweep')"),
    (("basis", "--weight", "2", "--letters", "-3"), "error: letters must be >= 0, got -3"),
]


@pytest.mark.parametrize(
    "argv, message", INPUT_ERRORS, ids=[f"argv{i}" for i in range(len(INPUT_ERRORS))]
)
def test_input_errors_exit_1(capsys, argv, message):
    # a refused command line returns 1 too; main never raises SystemExit.
    # The last stderr line is the refusal, after the usage line if the
    # command line itself is refused
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == message


def test_check_result_size_bound():
    check_result_size(MAX_RESULT_BITS, 2)
    check_result_size(MAX_RESULT_BITS // 2, 4)
    check_result_size(10**9, 1)  # a single letter has one commutator or none
    with pytest.raises(ValueError, match=f"{MAX_RESULT_BITS + 1} bits"):
        check_result_size(MAX_RESULT_BITS + 1, 2)
    with pytest.raises(ValueError, match=f"{MAX_RESULT_BITS + 2} bits"):
        check_result_size(MAX_RESULT_BITS // 2 + 1, 4)


@pytest.mark.parametrize(
    "call, args, error, message",
    [
        (check_result_size, (True, 10**6), TypeError, "weight must be an int, got True"),
        (check_result_size, (-5, 3), ValueError, "weight must be >= 1, got -5"),
        (check_result_size, (0, 3), ValueError, "weight must be >= 1, got 0"),
        (check_result_size, (3, -1), ValueError, "letters must be >= 0, got -1"),
        (check_result_size, (3, 2.0), TypeError, "letters must be an int, got 2.0"),
        (invariant_chains, (4.0, 2), TypeError, "max order must be an int, got 4.0"),
        (invariant_chains, (0, 2), ValueError, "max order must be >= 1, got 0"),
        (invariant_chains, (4, -1), ValueError, "max rank must be >= 0, got -1"),
        (invariant_chains, (4, False), TypeError, "max rank must be an int, got False"),
    ],
)
def test_public_cli_functions_check_their_ints(call, args, error, message):
    # the bounds the command line enforces, by abelian._check_ints, when the
    # function is called: invariant_chains refuses before it is iterated
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(*args)


@pytest.mark.parametrize(
    "argv, bits",
    [
        (("compute", "--group", "2,2", "--class", "1000000000"), 10**9 + 1),
        (("compute", "--group", "2,2", "--class", "1000000000",
          "--method", "oracle"), 10**9 + 1),
        (("compute", "--group", "2,2", "--class", "1000000000",
          "--method", "both"), 10**9 + 1),
        (("witt", "--weight", "1000000000", "--letters", "2"), 10**9),
        (("basis", "--weight", "1000000000", "--letters", "2"), 10**9),
    ],
)
def test_oversized_results_exit_1_before_any_arithmetic(capsys, monkeypatch, argv, bits):
    def refuse(*args):
        raise AssertionError("a Witt sum was computed")

    monkeypatch.setattr(witt, "_witt_sums", refuse)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == (
        f"error: the result would have about {bits} bits, "
        f"above the bound of {MAX_RESULT_BITS} bits\n"
    )


def test_oversized_result_message_fits_any_estimate(capsys):
    # a 4,299-digit weight still parses, but the estimate of 14,000 bits per
    # unit of weight has 4,303 digits, past the default int-to-str limit
    weight = 10**4299 - 1
    code, out, err = run(capsys, "witt", "--weight", str(weight),
                         "--letters", str(2**14000))
    assert (code, out) == (1, "")
    assert err == (
        f"error: the result would have about {decimal_str(weight * 14000)} bits, "
        f"above the bound of {MAX_RESULT_BITS} bits\n"
    )

def test_commands_leave_interpreter_state_unchanged(capsys):
    def state():
        context = decimal.getcontext()
        return (sys.get_int_max_str_digits(), context.prec, context.Emax,
                context.Emin, dict(context.traps))

    original_limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        before = state()
        assert main(["compute", "--group", "2,2", "--class", "60000",
                     "--format", "json"]) == 0
        assert main(["witt", "--weight", "100001", "--letters", "6"]) == 0
        after = state()
    finally:
        sys.set_int_max_str_digits(original_limit)
    capsys.readouterr()
    assert after == before


def test_cli_import_does_not_load_decimal():
    # decimal_str imports decimal only for huge values, keeping CLI start-up lean
    src = os.path.dirname(os.path.dirname(multiplier.__file__))
    probe = "import nilmult.cli, sys; assert 'decimal' not in sys.modules"
    subprocess.run([sys.executable, "-c", probe], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def test_cli_import_does_not_load_json():
    # compute writes its JSON line directly
    src = os.path.dirname(os.path.dirname(multiplier.__file__))
    probe = "import nilmult.cli, sys; assert 'json' not in sys.modules"
    subprocess.run([sys.executable, "-c", probe], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def test_cli_import_does_not_load_dataclasses_or_typing():
    # the value classes are hand-written slots classes and the option table
    # holds collections.namedtuple records: no dataclasses, and none of the
    # modules it pulls in.  -S: no site hook that imports typing first.
    src = os.path.dirname(os.path.dirname(multiplier.__file__))
    probe = (
        "import nilmult.cli, sys; loaded = sorted({'dataclasses', 'inspect', 'ast', "
        "'dis', 'tokenize', 'linecache', 'copy', 'typing'} & set(sys.modules)); "
        "assert not loaded, loaded"
    )
    subprocess.run([sys.executable, "-S", "-c", probe], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def test_cli_import_does_not_load_re():
    # a negative number is told from a flag with str methods.  -S: site
    # imports re itself
    src = os.path.dirname(os.path.dirname(multiplier.__file__))
    probe = "import nilmult.cli, sys; assert 're' not in sys.modules"
    subprocess.run([sys.executable, "-S", "-c", probe], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def test_cap_exceeded_exits_3(capsys):
    # both ask for the 2,096,640 basic commutators of weight 8 on 8 letters
    code, _, err = run(
        capsys, "compute", "--group", "2,2,2,2,2,2,2,2", "--class", "7", "--method", "oracle"
    )
    assert code == 3
    assert "--method formula" in err
    # basis checks the cap on the first line it asks for, before any write
    code, out, err = run(capsys, "basis", "--weight", "8", "--letters", "8")
    assert (code, out) == (3, "")
    assert "cap" in err


def test_cap_message_fits_any_count(capsys):
    # counts past 2048 bits are shown as a power of two that they reach, so
    # the message never depends on the int-to-str digit limit; these two are
    # refused by their bit-length bound, before the count is made
    compute = ("compute", "--group", "2,2", "--class", "20000", "--method", "oracle")
    basis = ("basis", "--weight", "3000000", "--letters", "2")
    original_limit = sys.get_int_max_str_digits()
    try:
        for limit in (original_limit, 640):
            sys.set_int_max_str_digits(limit)
            assert run(capsys, *compute) == (3, "", (
                "error: at least 2^19985 basic commutators of weight 20001 on 2 "
                "letters exceed the enumeration cap 1000000; "
                "rerun with --method formula\n"
            ))
            assert run(capsys, *basis) == (3, "", (
                "error: at least 2^2999977 basic commutators of weight 3000000 on 2 "
                "letters exceed the enumeration cap 1000000\n"
            ))
    finally:
        sys.set_int_max_str_digits(original_limit)
    with pytest.raises(CapExceeded) as exc_info:
        enumerate_basic(20001, 2)
    assert exc_info.value.count == witt_count(20001, 2)


@pytest.mark.parametrize("method", ["oracle", "both"])
def test_capped_query_is_refused_before_it_is_canonicalized(capsys, monkeypatch, method):
    # 2,000 distinct even orders are 1,999,000 commutators of weight 2, over
    # the cap; the oracle refuses them before canonicalize's quadratic pass
    def refuse(decomposition):
        raise AssertionError("canonicalized a refused query")

    for module in (abelian, cli, multiplier):
        monkeypatch.setattr(module, "canonicalize", refuse)
    orders = random.Random(23).sample(range(2, 10**6, 2), 2000)
    assert run(capsys, "compute", "--group", ",".join(map(str, orders)), "--class", "1",
               "--method", method) == (3, "", (
        "error: 1999000 basic commutators of weight 2 on 2000 letters exceed the "
        "enumeration cap 1000000; rerun with --method formula\n"
    ))


# ---------------------------------------------------------------------------
# witt / basis
# ---------------------------------------------------------------------------

# a prime weight of 80 bits, whose factorization by trial division would take hours
PRIME_WEIGHT = 10**24 + 7


@pytest.mark.parametrize(
    "argv, out",
    [
        (("witt", "--weight", str(PRIME_WEIGHT), "--letters", "1"), "0\n"),
        (("basis", "--weight", str(PRIME_WEIGHT), "--letters", "0"), ""),
        # the oracle's cap check counts the commutators on the one letter
        (("compute", "--group", "2", "--class", str(PRIME_WEIGHT - 1), "--method", "both"),
         f"input: 2\ncanonical: 2\nclass: {PRIME_WEIGHT - 1}\nmethod: both\n"
         "multiplier: trivial\norder: 1\nverified: equal\n"),
    ],
)
def test_fewer_than_two_letters_answer_at_once_at_a_prime_weight(capsys, argv, out):
    start = time.perf_counter()
    assert run(capsys, *argv) == (0, out, "")
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize(
    "weight, letters, expected",
    [("2", "4", "6"), ("1", "9", "9"), ("5", "1", "0"), ("6", "4", "670")],
)
def test_witt_command(capsys, weight, letters, expected):
    code, out, _ = run(capsys, "witt", "--weight", weight, "--letters", letters)
    assert code == 0
    assert out.strip() == expected


def test_basis_command(capsys):
    code, out, _ = run(capsys, "basis", "--weight", "3", "--letters", "2")
    assert code == 0
    assert out.splitlines() == ["[[x2,x1],x1]", "[[x2,x1],x2]"]
    code, out, _ = run(capsys, "basis", "--weight", "1", "--letters", "2")
    assert out.splitlines() == ["x1", "x2"]


@pytest.mark.parametrize(
    "weight, letters, digest",
    [
        (6, 4, "afa2fc77c5756ad88633480dc66d3d8643f190dab7003e0d3fb3f5070d6fc682"),
        (3, 12, "5ee242a3340d0b45008b615434d5f716423cd1452aeca7d004013f301296702d"),
    ],
)
def test_basis_output_is_pinned(capsys, weight, letters, digest):
    # the pinned basis order, byte for byte
    code, out, _ = run(
        capsys, "basis", "--weight", str(weight), "--letters", str(letters)
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("weight, letters", [(2, 3), (4, 2), (5, 3)])
def test_basis_line_count_matches_witt(capsys, weight, letters):
    code, out, _ = run(
        capsys, "basis", "--weight", str(weight), "--letters", str(letters)
    )
    assert code == 0
    assert len(out.splitlines()) == witt_count(weight, letters)


@pytest.mark.parametrize(
    "weight, letters, chunk",
    [(1, 2, None), (4, 2, 1), (4, 2, 2), (4, 2, 3), (6, 4, None), (7, 5, None)],
)
def test_basis_output_is_the_joined_list(capsys, monkeypatch, weight, letters, chunk):
    # written BASIS_CHUNK_LINES lines at a time; (7, 5) has 11,160 lines,
    # three chunks, and 3 lines in chunks of 1, 2 and 3 end on and off a chunk
    if chunk is not None:
        monkeypatch.setattr(cli, "BASIS_CHUNK_LINES", chunk)
    basis = enumerate_basic(weight, letters)
    assert (weight, letters) != (7, 5) or len(basis) > 2 * cli.BASIS_CHUNK_LINES
    code, out, err = run(
        capsys, "basis", "--weight", str(weight), "--letters", str(letters)
    )
    assert (code, err) == (0, "")
    assert out == "\n".join(basis) + "\n"


def test_basis_streams_its_chunks(monkeypatch):
    # each chunk is written as soon as it is rendered: (7, 5) has 11,160
    # lines, and no more than a chunk of them is pending at any write
    yielded = []

    def counted(weight, letters):
        for line in hall._iter_basic(weight, letters):
            yielded.append(line)
            yield line

    written = []
    sink = types.SimpleNamespace(
        write=lambda text: written.append((len(yielded), text.count("\n")))
    )
    monkeypatch.setattr(cli, "_iter_basic", counted)
    monkeypatch.setattr(sys, "stdout", sink)
    assert main(["basis", "--weight", "7", "--letters", "5"]) == 0
    assert written == [(4096, 4096), (8192, 4096), (11160, 2968)]
    assert yielded == enumerate_basic(7, 5)


def test_fewer_than_two_letters_answer_at_once(capsys):
    # no basic commutator above weight 1 has fewer than two letters, so nothing
    # is enumerated; the first call took 27 s while the level loops still ran
    trivial = ["canonical: 2", "multiplier: trivial", "order: 1"]
    for argv, lines in [
        (("compute", "--group", "2", "--class", "20000", "--method", "oracle"), trivial),
        (("basis", "--weight", "20000", "--letters", "0"), []),
        (("compute", "--group", "2", "--class", "100000", "--method", "both"),
         trivial + ["verified: equal"]),
        (("basis", "--weight", "100000", "--letters", "1"), []),
    ]:
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        elapsed = time.perf_counter() - start
        assert (code, err) == (0, ""), argv
        assert [line for line in out.splitlines() if line in lines] == lines, argv
        assert elapsed < 2.0, (argv, elapsed)


def test_trivial_factors_are_not_oracle_letters(capsys):
    # Z1^1500 + Z2^2 is the group Z2^2: the enumeration cap sees two letters,
    # not 1,502
    code, out, err = run(capsys, "compute", "--group", "Z1^1500+Z2^2",
                         "--class", "1", "--method", "oracle")
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == [
        "canonical: 2,2", "class: 1", "method: oracle", "multiplier: Z2",
        "order: 2 = 2^1",
    ]


def test_trivial_factors_are_not_letters_of_the_result_bound(capsys):
    # one letter of order 2 has no commutator above weight 1, whatever the class
    code, out, err = run(capsys, "compute", "--group", "Z1^3+Z2", "--class", "10000000")
    assert (code, err) == (0, "")
    assert out == (
        "input: 1,1,1,2\n"
        "canonical: 2\n"
        "class: 10000000\n"
        "method: formula\n"
        "multiplier: trivial\n"
        "order: 1\n"
    )


# ---------------------------------------------------------------------------
# The option table, against the argparse parser it replaced
# ---------------------------------------------------------------------------


class ReferenceParser(argparse.ArgumentParser):
    # usage problems are input errors (exit 1), as in nilmult
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser that ``build_parser`` returned before the option table."""
    parser = ReferenceParser(
        prog="nilmult",
        description="Exact nilpotent Schur multipliers of finite abelian groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="multiplier of a group")
    compute.add_argument("--group", required=True,
                         help='e.g. "12,6,2", "Z12+Z6+Z2", or "Z2^3"')
    compute.add_argument("--class", dest="class_c", type=int, required=True,
                         help="nilpotency class c >= 1")
    compute.add_argument("--method", choices=("formula", "oracle", "both"),
                         default="formula")
    compute.add_argument("--format", choices=("text", "json"), default="text")

    witt = sub.add_parser("witt", help="count basic commutators")
    witt.add_argument("--weight", type=int, required=True)
    witt.add_argument("--letters", type=int, required=True)

    basis = sub.add_parser("basis", help="list basic commutators")
    basis.add_argument("--weight", type=int, required=True)
    basis.add_argument("--letters", type=int, required=True)

    sweep = sub.add_parser("sweep", help="cross-validate formula against oracle")
    sweep.add_argument("--max-order", type=int, required=True)
    sweep.add_argument("--max-rank", type=int, required=True)
    sweep.add_argument("--max-class", type=int, required=True)
    return parser


def main_outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_refused(argv):
    code, out, err = main_outcome(argv)
    assert (code, out) == (1, ""), argv
    assert err.startswith("usage: nilmult"), (argv, err)
    assert "error:" in err.splitlines()[-1], (argv, err)


def assert_parses_like_argparse(argv):
    """The table reads ``argv`` as the reference parser does.

    Where argparse accepts it, every value a handler reads is the same.
    Where argparse prints help, so does the table, for the same command.
    Where argparse refuses it, the table exits 1 with an error on stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            reference = reference_parser().parse_args(list(argv))
    except SystemExit as exc:
        if exc.code == 0:
            code, table_out, table_err = main_outcome(argv)
            assert (code, table_err) == (0, ""), argv
            # "usage: nilmult [-h]" or "usage: nilmult compute"
            assert table_out.split()[:3] == out.getvalue().split()[:3], argv
        else:
            assert exc.code == 1
            assert_refused(argv)
        return
    command = build_parser()[reference.command]
    # argparse drops the "--" of a final "--flag=--" and stores [], on which
    # the handlers crash; the table keeps "--", which a str option holds and
    # an int or choice option refuses
    expected = {option.dest: getattr(reference, option.dest) for option in command.options.values()}
    dashed = [option for option in command.options.values() if expected[option.dest] == []]
    if any(option.kind is not str for option in dashed):
        assert_refused(argv)
        return
    expected.update((option.dest, "--") for option in dashed)
    args = parse_args(list(argv), build_parser())
    assert args.func is command.handler, argv
    for dest, value in expected.items():
        assert getattr(args, dest) == value, (argv, dest)


# argparse's rules on Python 3.11: (argv, the values a handler reads, or the
# exit code of help (0) or of a refused command line (1))
COMPUTE_DEFAULTS = {"method": "formula", "format": "text"}
RULE_CASES = [
    (["compute", "--group", "4,2", "--class", "1"],
     {"group": "4,2", "class_c": 1, **COMPUTE_DEFAULTS}),
    (["compute", "--group=4,2", "--class=1", "--method=both"],
     {"group": "4,2", "class_c": 1, "method": "both", "format": "text"}),
    (["compute", "--group=", "--class", "1"],
     {"group": "", "class_c": 1, **COMPUTE_DEFAULTS}),
    # a unique prefix
    (["compute", "--gr", "12,6,2", "--cl", "1", "--m", "both", "--for=json"],
     {"group": "12,6,2", "class_c": 1, "method": "both", "format": "json"}),
    (["sweep", "--max-o", "2", "--max-r=1", "--max-c", "1"],
     {"max_order": 2, "max_rank": 1, "max_class": 1}),
    (["sweep", "--max", "1", "--max-order", "2", "--max-rank", "1", "--max-class", "1"], 1),
    (["sweep", "-h", "--max", "1"], 1),  # every flag is read before -h acts
    # the last occurrence wins
    (["witt", "--weight", "2", "--letters", "3", "--weight", "5", "--w", "6"],
     {"weight": 6, "letters": 3}),
    # a value that starts with "-": "-", a negative number, or one with a space
    (["compute", "--group", "-", "--class", "1"],
     {"group": "-", "class_c": 1, **COMPUTE_DEFAULTS}),
    (["compute", "--group", "4,2", "--class", "-1"],
     {"group": "4,2", "class_c": -1, **COMPUTE_DEFAULTS}),
    (["compute", "--group", "-1 2", "--class", "1"],
     {"group": "-1 2", "class_c": 1, **COMPUTE_DEFAULTS}),
    (["compute", "--group", "--gr x", "--class", "1"],
     {"group": "--gr x", "class_c": 1, **COMPUTE_DEFAULTS}),
    (["compute", "--group", "-x", "--class", "1"], 1),
    (["compute", "--group", "--class", "1"], 1),
    (["compute", "--group", "--group=1 2", "--class", "1"], 1),
    (["witt", "--weight", "2", "--letters", "-x"], 1),
    # plain int()
    (["witt", "--weight", " +1_0 ", "--letters", "007"], {"weight": 10, "letters": 7}),
    (["witt", "--weight", "1.0", "--letters", "2"], 1),
    (["compute", "--group", "4,2", "--class", "1", "--method", "Both"], 1),
    # "--", a stray positional, a single-dash flag, a bad or missing command
    (["compute", "--group", "4,2", "--class", "1", "--"], 1),
    (["compute", "--group", "--", "4,2", "--class", "1"], 1),
    (["--", "compute", "--group", "4,2", "--class", "1"], 1),
    (["compute", "--group", "4,2", "--class", "1", "stray"], 1),
    (["compute", "-group", "4,2", "--class", "1"], 1),
    (["--group", "4,2", "compute", "--class", "1"], 1),
    (["--foo", "compute", "--group", "4,2", "--class", "1"], 1),
    (["frobnicate"], 1),
    ([], 1),
    # help, before and after the command, and its prefixes
    (["-h"], 0),
    (["--help"], 0),
    (["--he"], 0),
    (["-h", "frobnicate"], 0),
    (["compute", "-h"], 0),
    (["compute", "--h"], 0),
    (["compute", "--group", "4,2", "stray", "--help"], 0),
    (["--foo", "witt", "-h"], 0),
    (["compute", "--class", "x", "-h"], 1),  # flags act left to right
    (["compute", "-hh"], 0),  # -h twice
    (["compute", "-hx"], 1),
    (["--help=x"], 1),
    # an explicit "--" is the option's value; an int or choice option refuses
    # it only if it is still the value once the line is read
    (["compute", "--class=--", "-h"], 0),
    (["witt", "--weight=--", "--weight", "2", "--letters", "3"], {"weight": 2, "letters": 3}),
    (["compute", "--method=--", "--group", "4,2", "--class", "1", "--method", "both"],
     {"group": "4,2", "class_c": 1, "method": "both", "format": "text"}),
    (["compute", "--group", "4,2", "--class=--"], 1),
    (["compute", "--method=--", "--group", "4,2", "--class", "1"], 1),
    (["compute", "--group=--", "--class", "1"], {"group": "--", "class_c": 1, **COMPUTE_DEFAULTS}),
]


@pytest.mark.parametrize("argv, expected", RULE_CASES)
def test_option_table_rules(argv, expected):
    if isinstance(expected, dict):
        args = parse_args(argv, build_parser())
        assert args.func is build_parser()[argv[0]].handler
        assert {dest: getattr(args, dest) for dest in expected} == expected
        assert vars(args).keys() == {"func", *expected}
    elif expected == 0:
        code, out, err = main_outcome(argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: nilmult")
    else:
        assert_refused(argv)


USAGE = {
    None: "usage: nilmult [-h] {compute,witt,basis,sweep} ...",
    "compute": "usage: nilmult compute [-h] --group GROUP --class CLASS "
               "[--method {formula,oracle,both}] [--format {text,json}]",
    "witt": "usage: nilmult witt [-h] --weight WEIGHT --letters LETTERS",
    "sweep": "usage: nilmult sweep [-h] --max-order MAX_ORDER --max-rank MAX_RANK "
             "--max-class MAX_CLASS",
}
MAX_AMBIGUOUS = "ambiguous option: '--max' could match --max-order, --max-rank, --max-class"
METHOD_CHOICES = "(choose from 'formula', 'oracle', 'both')"
COMMAND_CHOICES = "(choose from 'compute', 'witt', 'basis', 'sweep')"
# the error of every refused RULE_CASES line, and of lines with two faults,
# where the one argparse meets first is reported
REFUSALS = {
    ("sweep", "--max", "1", "--max-order", "2", "--max-rank", "1", "--max-class", "1"):
        MAX_AMBIGUOUS,
    ("sweep", "-h", "--max", "1"): MAX_AMBIGUOUS,
    ("compute", "--group", "-x", "--class", "1"): "argument --group: expected one argument",
    ("compute", "--group", "--class", "1"): "argument --group: expected one argument",
    ("compute", "--group", "--group=1 2", "--class", "1"):
        "argument --group: expected one argument",
    ("witt", "--weight", "2", "--letters", "-x"): "argument --letters: expected one argument",
    ("witt", "--weight", "1.0", "--letters", "2"): "argument --weight: invalid int value: '1.0'",
    ("compute", "--group", "4,2", "--class", "1", "--method", "Both"):
        f"argument --method: invalid choice: 'Both' {METHOD_CHOICES}",
    ("compute", "--group", "4,2", "--class", "1", "--"): "unrecognized arguments: '--'",
    ("compute", "--group", "--", "4,2", "--class", "1"): "argument --group: expected one argument",
    ("--", "compute", "--group", "4,2", "--class", "1"):
        f"argument command: invalid choice: '--' {COMMAND_CHOICES}",
    ("compute", "--group", "4,2", "--class", "1", "stray"): "unrecognized arguments: 'stray'",
    ("compute", "-group", "4,2", "--class", "1"):
        "the following arguments are required: --group",
    ("--group", "4,2", "compute", "--class", "1"):
        f"argument command: invalid choice: '4,2' {COMMAND_CHOICES}",
    ("--foo", "compute", "--group", "4,2", "--class", "1"): "unrecognized arguments: '--foo'",
    ("frobnicate",): f"argument command: invalid choice: 'frobnicate' {COMMAND_CHOICES}",
    (): "the following arguments are required: command",
    ("compute", "--class", "x", "-h"): "argument --class: invalid int value: 'x'",
    ("compute", "-hx"): "argument -h/--help: ignored explicit argument 'x'",
    ("--help=x",): "argument -h/--help: ignored explicit argument 'x'",
    ("compute", "--group", "4,2", "--class=--"): "argument --class: invalid int value: '--'",
    ("compute", "--method=--", "--group", "4,2", "--class", "1"):
        f"argument --method: invalid choice: '--' {METHOD_CHOICES}",
    ("sweep", "--max-order", "x", "--max", "1"): MAX_AMBIGUOUS,
    ("sweep", "-hx", "--max"): MAX_AMBIGUOUS,
    ("compute", "--class", "x", "--method", "Both"): "argument --class: invalid int value: 'x'",
    ("compute", "--m", "x", "--gr"): f"argument --method: invalid choice: 'x' {METHOD_CHOICES}",
    ("compute", "--group", "--class", "1", "stray"): "argument --group: expected one argument",
    ("compute", "--class", "1", "stray"): "the following arguments are required: --group",
    ("witt", "--weight", "x", "--letters"): "argument --weight: invalid int value: 'x'",
    ("compute", "--help=x", "--cl"): "argument -h/--help: ignored explicit argument 'x'",
}


def test_every_refused_rule_case_is_pinned():
    assert {tuple(argv) for argv, expected in RULE_CASES if expected == 1} <= REFUSALS.keys()


@pytest.mark.parametrize("argv, message", REFUSALS.items())
def test_refusals_print_their_pinned_error(argv, message):
    code, out, err = main_outcome(argv)
    # the command is the first token that is not a flag, if it names one
    head = next((token for token in argv if token[:1] != "-" or token == "--"), None)
    name = head if head in USAGE else None
    prog = "nilmult" if name is None else f"nilmult {name}"
    assert (code, out, err) == (1, "", f"{USAGE[name]}\n{prog}: error: {message}\n")


# The reference is argparse of the running interpreter; later releases changed
# its handling of "--" and of some prefixes, so it is argparse 3.11 that the
# table follows.
on_argparse_311 = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="the table follows argparse 3.11's rules"
)


@on_argparse_311
@pytest.mark.parametrize("argv", [argv for argv, _ in RULE_CASES])
def test_option_table_rules_are_argparse_rules(argv):
    assert_parses_like_argparse(argv)


FLAGS = [flag for command in build_parser().values() for flag in command.options]
COMMAND_TOKENS = [*build_parser(), "comp", "frobnicate", "Compute", ""]
FLAG_TOKENS = [
    *FLAGS, "--gr", "--g", "--cl", "--c", "--m", "--me", "--for", "--f", "--we",
    "--w", "--l", "--let", "--max-o", "--max-r", "--max-c", "--max", "--ma",
    "--max-", "-group", "-g", "--foo", "---", "--", "-", "-h", "--help", "--he",
    "--h", "-hh", "-hx",
]
VALUE_TOKENS = [
    "4,2", "Z2^3", "12,6,2", "1", "2", "3", "0", "-1", "-2", "-1.5", "-.5", "-5\n",
    " +1_0 ", "1_000", "007", "+3", "x", "٣", "-٣", "formula", "oracle",
    "both", "text", "json", "-1 2", "a b", "-x y", "--gr x", "", "-", "--", "-x",
]
token = st.one_of(
    st.sampled_from(COMMAND_TOKENS + FLAG_TOKENS + VALUE_TOKENS),
    st.builds("{}={}".format, st.sampled_from(FLAG_TOKENS), st.sampled_from(VALUE_TOKENS)),
)
# mostly flags with their values, so that argparse accepts many of them
option_pair = st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUE_TOKENS)).map(list)
argv_lists = st.builds(
    lambda head, command, tail: [*head, command, *itertools.chain.from_iterable(tail)],
    st.lists(token, max_size=2),
    st.sampled_from(COMMAND_TOKENS),
    st.lists(st.one_of(option_pair, option_pair, token.map(lambda t: [t])), max_size=5),
)


# every command followed by every 1- and 2-token tail of these: each flag
# spelling, values of each kind, help, and "flag=value" forms, "=--" among them
TAIL_TOKENS = [
    *FLAG_TOKENS,
    "4,2", "1", "-1", "-1.5", "-5\n", " +1_0 ", "x", "٣", "both", "json", "-1 2", "--gr x", "",
    "-x", "--class=--", "--cl=--", "--method=--", "--group=--", "--weight=--",
    "--max-order=--", "--format=json", "--class=1", "--weight=2", "--max-rank=1",
    "--max=1", "--help=x", "-h=h",
]


@on_argparse_311
@pytest.mark.parametrize("command", list(build_parser()))
def test_short_command_lines_parse_like_argparse(command):
    for tail in itertools.chain(
        ([t] for t in TAIL_TOKENS), itertools.product(TAIL_TOKENS, repeat=2)
    ):
        assert_parses_like_argparse([command, *tail])


@on_argparse_311
@settings(max_examples=400, deadline=None)
@given(argv_lists)
def test_option_table_parses_like_argparse(argv):
    assert_parses_like_argparse(argv)


def test_main_reads_sys_argv_by_default(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["nilmult", "witt", "--w", "2", "--letters=4"])
    assert main() == 0
    assert capsys.readouterr().out == "6\n"


def test_help_names_every_command_and_option(capsys):
    table = build_parser()
    code, out, err = run(capsys, "-h")
    assert (code, err) == (0, "")
    for name, command in table.items():
        assert any(line.split()[:1] == [name] and command.help in line
                   for line in out.splitlines()), name
    code, out, err = run(capsys, "compute", "--help")
    assert (code, err) == (0, "")
    for flag, option in table["compute"].options.items():
        assert any(line.split()[:1] == [flag] and option.help in line
                   for line in out.splitlines()), flag


def test_cli_import_does_not_load_argparse():
    src = os.path.dirname(os.path.dirname(multiplier.__file__))
    probe = ("import nilmult.cli, sys; nilmult.cli.build_parser(); "
             "assert 'argparse' not in sys.modules")
    subprocess.run([sys.executable, "-c", probe], check=True,
                   env={**os.environ, "PYTHONPATH": src})


# ---------------------------------------------------------------------------
# One parser per process
# ---------------------------------------------------------------------------

PARSER_QUERIES = [
    ("compute", "--group", "12,6,2", "--class", "1", "--method", "both"),
    ("compute", "--group", "Z2^3", "--class", "2", "--format", "json"),
    ("compute", "--group", "8,4", "--class", "3", "--method", "oracle"),
    ("witt", "--weight", "6", "--letters", "4"),
    ("basis", "--weight", "3", "--letters", "3"),
    ("sweep", "--max-order", "6", "--max-rank", "2", "--max-class", "2"),
    ("compute", "--group", "nonsense", "--class", "1"),
    ("compute", "--group", "4,2", "--class", "x"),
    ("unknown-command",),
]


def test_main_builds_the_parser_once(capsys, monkeypatch):
    built = []
    original = cli.build_parser

    def counting_build_parser():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        codes = [main(list(argv)) for argv in PARSER_QUERIES * 3]
    finally:
        cli._parser.cache_clear()
    capsys.readouterr()
    assert codes == [0, 0, 0, 0, 0, 0, 1, 1, 1] * 3
    assert len(built) == 1


class ThreadSplitStream:
    """A text stream that keeps what each thread writes apart."""

    def __init__(self):
        self._local = threading.local()

    def write(self, text):
        self._local.__dict__.setdefault("parts", []).append(text)
        return len(text)

    def flush(self):
        pass

    def take(self):
        """Everything the calling thread wrote since its last take."""
        return "".join(self._local.__dict__.pop("parts", []))


def test_main_from_several_threads_matches_a_serial_run(monkeypatch):
    out, err = ThreadSplitStream(), ThreadSplitStream()
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)

    def run_all(queries):
        return [(main(list(argv)), out.take(), err.take()) for argv in queries]

    serial = run_all(PARSER_QUERIES)
    threads = 4
    rotations = [PARSER_QUERIES[k:] + PARSER_QUERIES[:k] for k in range(threads)]
    results = [None] * threads
    start = threading.Barrier(threads)

    def worker(k):
        start.wait()
        results[k] = run_all(rotations[k] * 5)

    # the threads race to build the parser, the letter profiles, the b
    # tables and the kept Witt counts, too
    cli._parser.cache_clear()
    hall.letter_profile.cache_clear()
    witt._small_table.cache_clear()
    monkeypatch.setattr(witt, "_kept", witt._Kept())
    workers = [threading.Thread(target=worker, args=(k,)) for k in range(threads)]
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
    for k in range(threads):
        assert results[k] == (serial[k:] + serial[:k]) * 5, k


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_invariant_chains_generation():
    chains = list(invariant_chains(6, 2))
    assert chains[0] == ()
    assert (6, 3) in chains and (6, 2) in chains and (4, 2) in chains
    assert all(all(a % b == 0 for a, b in zip(c, c[1:])) for c in chains)
    assert len(chains) == len(set(chains))
    # 1 empty + 5 singletons + divisor pairs of 2..6 (1+1+2+1+3)
    assert len(chains) == 14


@pytest.mark.parametrize("max_order, max_rank", [(12, 3), (32, 5), (6, 0), (1, 4)])
def test_invariant_chains_match_the_recursive_reference(max_order, max_rank):
    assert list(invariant_chains(max_order, max_rank)) == list(
        recursive_invariant_chains(max_order, max_rank)
    )


def test_sweep_sizing_walk_builds_no_tuples():
    # the walk that sizes a sweep yields one list, changed in place; the
    # chains it passes through are invariant_chains'
    walk = cli._chain_walk(12, 3)
    seen = [tuple(chain) for chain in walk]
    assert seen == list(invariant_chains(12, 3))
    lists = {id(chain) for chain in cli._chain_walk(12, 3)}
    assert len(lists) == 1


def test_invariant_chains_deeper_than_the_recursion_limit():
    # counted as they stream by: the chains hold 12.5 million entries in all
    count, last = 0, None
    for count, last in enumerate(invariant_chains(2, 5000), 1):
        pass
    assert count == 5001
    assert last == (2,) * 5000


def test_sweep_small(capsys):
    code, out, _ = run(
        capsys, "sweep", "--max-order", "6", "--max-rank", "2", "--max-class", "2"
    )
    assert code == 0
    assert "28 (chain, class) pairs: 28 equal, 0 mismatched" in out


def test_sweep_cyclic_only(capsys):
    code, out, _ = run(
        capsys, "sweep", "--max-order", "2", "--max-rank", "1", "--max-class", "5"
    )
    assert code == 0
    assert "10 (chain, class) pairs: 10 equal, 0 mismatched" in out


def test_sweep_reports_mismatches(capsys, monkeypatch):
    wrong_oracle(monkeypatch)
    code, out, _ = run(
        capsys, "sweep", "--max-order", "2", "--max-rank", "2", "--max-class", "1"
    )
    assert code == 2
    assert out.splitlines() == [
        "MISMATCH: chain=[] class=1 formula=trivial oracle=Z3^(2) "
        'reproducer: nilmult compute --group "1" --class 1 --method both',
        "MISMATCH: chain=[2] class=1 formula=trivial oracle=Z3^(2) "
        'reproducer: nilmult compute --group "2" --class 1 --method both',
        "MISMATCH: chain=[2, 2] class=1 formula=Z2 oracle=Z3^(2) "
        'reproducer: nilmult compute --group "2,2" --class 1 --method both',
        "checked 3 (chain, class) pairs: 0 equal, 3 mismatched",
    ]


def test_sweep_mismatch_reproducer_reproduces(capsys, monkeypatch):
    wrong_oracle(monkeypatch)
    code, out, _ = run(
        capsys, "sweep", "--max-order", "4", "--max-rank", "2", "--max-class", "2"
    )
    assert code == 2
    lines = [line for line in out.splitlines() if line.startswith("MISMATCH: ")]
    # 16 cases; (3, 3) at class 2 really is Z3^(2)
    assert len(lines) == 15
    for line in lines:
        head, command = line.split(" reproducer: ")
        argv = shlex.split(command)
        assert argv[:2] == ["nilmult", "compute"]
        chain = head.split("chain=")[1].split(" class=")[0]
        assert argv[argv.index("--group") + 1] == (chain[1:-1].replace(" ", "") or "1")
        assert run(capsys, *argv[1:])[0] == 2


def test_sweep_without_mismatch_prints_no_reproducer(capsys):
    code, out, _ = run(
        capsys, "sweep", "--max-order", "4", "--max-rank", "2", "--max-class", "2"
    )
    assert (code, out) == (0, "checked 16 (chain, class) pairs: 16 equal, 0 mismatched\n")


def test_sweep_is_deterministic(capsys):
    first = run(capsys, "sweep", "--max-order", "8", "--max-rank", "2", "--max-class", "2")
    second = run(capsys, "sweep", "--max-order", "8", "--max-rank", "2", "--max-class", "2")
    assert first == second


def refuse_verify(monkeypatch):
    def refuse(*args):
        raise AssertionError("a case was verified")

    monkeypatch.setattr(cli, "verify", refuse)


def equal_report(decomposition, c):
    """A stand-in for ``verify`` that answers every case equal, without checking it."""
    return types.SimpleNamespace(equal=True)


@pytest.mark.parametrize(
    "max_order, max_rank, max_class, cases",
    [(1, 3, 2, 2), (2, 1, 5, 10), (6, 2, 2, 28), (12, 0, 4, 4), (20, 4, 1, 292),
     (12, 3, 3, 222), (32, 5, 5, 5710)],  # the last is acceptance criterion 9
)
def test_sweep_cases_count_the_chains(capsys, monkeypatch, max_order, max_rank,
                                      max_class, cases):
    # the walk that sizes the sweep is the walk that runs it
    assert sum(1 for _ in invariant_chains(max_order, max_rank)) * max_class == cases
    monkeypatch.setattr(cli, "verify", equal_report)
    assert run(capsys, "sweep", "--max-order", str(max_order), "--max-rank",
               str(max_rank), "--max-class", str(max_class)) == (
        0, f"checked {cases} (chain, class) pairs: {cases} equal, 0 mismatched\n", ""
    )


def test_oversized_sweep_exits_1_before_any_verify(capsys, monkeypatch):
    refuse_verify(monkeypatch)
    huge = str(10**12)
    for argv, cases in [
        (("--max-order", "100000", "--max-rank", "2", "--max-class", "1"), 100001),
        (("--max-order", huge, "--max-rank", "1", "--max-class", "3"), 100002),
        # the walk stops at the first chain past the bound
        (("--max-order", "4", "--max-rank", "1414", "--max-class", "1"), 100001),
        # no case has two letters, so no cap is checked, whatever the class
        (("--max-order", huge, "--max-rank", "1", "--max-class", huge), 10**12),
        (("--max-order", huge, "--max-rank", "0", "--max-class", huge), 10**12),
        (("--max-order", "1", "--max-rank", "5", "--max-class", huge), 10**12),
    ]:
        code, out, err = run(capsys, "sweep", *argv)
        assert (code, out) == (1, "")
        assert err == (
            f"error: the sweep would check at least {cases} (chain, class) cases, "
            f"above the bound of {MAX_SWEEP_CASES}\n"
        )


def test_sweep_over_the_cap_exits_3_before_any_verify(capsys, monkeypatch):
    refuse_verify(monkeypatch)
    # 63 cases, within the case bound, but the case (2,2,2,2,2,2,2,2) at
    # class 7 asks for 2,096,640 of weight 8
    code, out, err = run(capsys, "sweep", "--max-order", "2", "--max-rank", "8",
                         "--max-class", "7")
    assert (code, out) == (3, "")
    assert err == (
        "error: 2096640 basic commutators of weight 8 on 8 letters exceed the "
        "enumeration cap 1000000\n"
    )


@pytest.mark.parametrize(
    "max_order, max_rank, max_class",
    [(1, 3, 2), (2, 1, 5), (6, 2, 2), (12, 3, 3), (20, 4, 1), (32, 5, 5)],
)
def test_sweep_commutators_count_the_enumeration(max_order, max_rank, max_class):
    # the sweep checks the cap on its largest case alone: no case of the
    # family has more basic commutators of weight c + 1 than that one
    most = max(
        witt_count(c + 1, len(chain))
        for chain in invariant_chains(max_order, max_rank)
        for c in range(1, max_class + 1)
    )
    largest = max_rank if max_order >= 2 else 0
    assert most == witt_count(max_class + 1, largest)


def test_sweep_over_the_cap_exits_3_before_counting_cases(capsys, monkeypatch):
    refuse_verify(monkeypatch)
    # the cap is checked first, on the largest case, and names it; the
    # first two are within the case bound, the last two far above it
    for argv, message in [
        (("2", "2000", "1"), "1999000 basic commutators of weight 2 on 2000 letters"),
        (("2", "1415", "2"), "944382320 basic commutators of weight 3 on 1415 letters"),
        (("2", str(10**9), "1"),
         "499999999500000000 basic commutators of weight 2 on 1000000000 letters"),
        (("2", "2", str(10**9)),
         "at least 2^999999970 basic commutators of weight 1000000001 on 2 letters"),
    ]:
        code, out, err = run(capsys, "sweep", "--max-order", argv[0],
                             "--max-rank", argv[1], "--max-class", argv[2])
        assert (code, out) == (3, "")
        assert err == f"error: {message} exceed the enumeration cap 1000000\n"


def test_sweep_over_the_old_commutator_bound_runs(capsys):
    # 10,666,600 basic commutators of weight 2 over its chains, but every
    # case is under the cap, and the oracle enumerates none of them
    assert sum(witt_count(2, k) for k in range(401)) == 10_666_600
    assert run(capsys, "sweep", "--max-order", "2", "--max-rank", "400",
               "--max-class", "1") == (
        0, "checked 401 (chain, class) pairs: 401 equal, 0 mismatched\n", ""
    )


@given(st.integers(1, 24), st.integers(0, 5), st.integers(1, 4),
       st.integers(0, 700), st.integers(1, 2000))
@settings(deadline=None, max_examples=80)
@example(2, 5, 4, 623, 2000)  # one commutator over the cap, on the largest case only
@example(2, 5, 4, 624, 23)  # at the cap, one case over the bound
@example(12, 3, 3, 10**6, 222)  # at the case bound
def test_sweep_verdict_is_the_brute_force_one(max_order, max_rank, max_class, cap, bound):
    # the cap first, on every case, then the cases; no refusal verifies a case
    chains = list(invariant_chains(max_order, max_rank))
    cases = [(chain, c) for chain in chains for c in range(1, max_class + 1)]
    over = [(witt_count(c + 1, len(chain)), c + 1, len(chain))
            for chain, c in cases if witt_count(c + 1, len(chain)) > cap]
    if over:
        count, weight, letters = max(over)
        expected = (3, "", f"error: {count} basic commutators of weight {weight} "
                           f"on {letters} letters exceed the enumeration cap {cap}\n")
    elif len(cases) > bound:
        counted = min(len(chains), bound // max_class + 1) * max_class
        expected = (1, "", f"error: the sweep would check at least {counted} "
                           f"(chain, class) cases, above the bound of {bound}\n")
    else:
        expected = (0, f"checked {len(cases)} (chain, class) pairs: "
                       f"{len(cases)} equal, 0 mismatched\n", "")
    verified = []

    def record(decomposition, c):
        verified.append((decomposition.orders, c))
        return equal_report(decomposition, c)

    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hall, "ENUM_CAP", cap)
        patch.setattr(cli, "MAX_SWEEP_CASES", bound)
        patch.setattr(cli, "verify", record)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["sweep", "--max-order", str(max_order), "--max-rank",
                         str(max_rank), "--max-class", str(max_class)])
    assert (code, out.getvalue(), err.getvalue()) == expected
    assert verified == ([] if code else cases)


def test_rank_0_sweep_over_huge_orders_checks_its_one_case():
    # the empty chain is the only case; sizing once walked every first entry
    # up to --max-order, and timed out
    src = os.path.dirname(os.path.dirname(multiplier.__file__))
    result = subprocess.run(
        [sys.executable, "-m", "nilmult", "sweep", "--max-order", str(10**12),
         "--max-rank", "0", "--max-class", "1"],
        capture_output=True, text=True, timeout=10,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (result.returncode, result.stdout, result.stderr) == (
        0, "checked 1 (chain, class) pairs: 1 equal, 0 mismatched\n", ""
    )
