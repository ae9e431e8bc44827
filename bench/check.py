"""Independent answer checker: rebuilds every expected record with sympy.

No nilmult code is used.  The group spec is parsed here, the invariant chain
comes from a primary decomposition by ``sympy.factorint``, and the counts b_i
of basic commutators of weight c+1 on i letters from the necklace formula with
``sympy.mobius`` and ``sympy.divisors``.  The multiplier is the direct sum over
i = 2..k of (b_i - b_{i-1}) copies of Z_{n_i}.  A ``--method both`` record
must also say ``"verified": true``.
"""

from __future__ import annotations

import json
import math
import re

from sympy import divisors, factorint, mobius

DIGIT_LIMIT = 10**4  # order_decimal is null beyond this many digits
_SUMMAND = re.compile(r"Z(\d+)(?:\^(\d+))?")


def parse_orders(spec: str) -> list[int]:
    """Cyclic orders of a spec in any of the three spellings the workloads use."""
    spec = "".join(spec.split())
    if not spec.startswith("Z"):
        return [int(piece) for piece in spec.split(",")]
    orders = []
    for term in spec.split("+"):
        order, power = _SUMMAND.fullmatch(term).groups()
        orders += [int(order)] * int(power or 1)
    return orders


def invariant_chain(orders: list[int]) -> list[int]:
    """n_1, n_2 | n_1, ... >= 2, from the primary decomposition."""
    exponents: dict[int, list[int]] = {}
    for r in orders:
        for p, e in factorint(r).items():
            exponents.setdefault(p, []).append(e)
    length = max((len(es) for es in exponents.values()), default=0)
    chain = [1] * length
    for p, es in exponents.items():
        for i, e in enumerate(sorted(es, reverse=True)):
            chain[i] *= p**e
    return chain


def basic_commutator_count(weight: int, letters: int) -> int:
    total = sum(int(mobius(d)) * letters ** (weight // d) for d in divisors(weight))
    if total % weight:
        raise ArithmeticError(f"necklace sum not divisible by {weight}")
    return total // weight


def expected_summands(chain: list[int], nilpotency_class: int) -> list[tuple[int, int]]:
    b = [basic_commutator_count(nilpotency_class + 1, i) for i in range(1, len(chain) + 1)]
    summands: list[list[int]] = []
    for i in range(1, len(chain)):
        multiplicity = b[i] - b[i - 1]
        if multiplicity == 0:
            continue
        if summands and summands[-1][0] == chain[i]:
            summands[-1][1] += multiplicity
        else:
            summands.append([chain[i], multiplicity])
    return [(order, mult) for order, mult in summands]


def expected_order_decimal(summands: list[tuple[int, int]]) -> str | None:
    """Decimal order of the multiplier, or None once it has more than DIGIT_LIMIT digits."""
    # every order is >= 2, so one multiplicity above this alone is too long
    if any(mult > 4 * DIGIT_LIMIT for _, mult in summands):
        return None
    if sum(mult * math.log10(order) for order, mult in summands) > DIGIT_LIMIT + 1:
        return None
    digits = str(math.prod(order**mult for order, mult in summands))
    return digits if len(digits) <= DIGIT_LIMIT else None


def _option(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def problems(argv: list[str], code: int | None, stdout: str) -> list[str]:
    """Everything wrong with one query's exit code and output; empty if correct."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        record = json.loads(stdout)
    except ValueError as exc:
        return [f"stdout is not one JSON record: {exc}"]
    orders = parse_orders(_option(argv, "--group"))
    nilpotency_class = int(_option(argv, "--class"))
    method = _option(argv, "--method")
    chain = invariant_chain(orders)
    summands = expected_summands(chain, nilpotency_class)

    found = []
    for key, want in (
        ("schema_version", "1"),
        ("input", orders),
        ("canonical", chain),
        ("class", nilpotency_class),
        ("method", method),
        ("verified", True if method == "both" else None),
    ):
        if record.get(key) != want:
            found.append(f"{key}: got {record.get(key)!r}, want {want!r}")
    got = record.get("summands", [])
    if [s.get("order") for s in got] != [order for order, _ in summands]:
        return found + [f"summand orders: got {[s.get('order') for s in got]}, "
                        f"want {[order for order, _ in summands]}"]
    for entry, (order, mult) in zip(got, summands):
        text = entry.get("multiplicity")
        if not (isinstance(text, str) and text.isdigit() and text[0] != "0" and int(text) == mult):
            found.append(f"multiplicity of Z{order} is wrong")
    if not found:
        factored = " · ".join(f"{s['order']}^{s['multiplicity']}" for s in got)
        if record.get("order_factored") != factored:
            found.append("order_factored does not match the summands")
        if record.get("order_decimal") != expected_order_decimal(summands):
            found.append("order_decimal is wrong")
    return found


def corrupt(stdout: str) -> str:
    """The same record with one answer changed: a multiplicity, else the chain."""
    record = json.loads(stdout)
    if record["summands"]:
        text = record["summands"][0]["multiplicity"]
        record["summands"][0]["multiplicity"] = text[:-1] + str((int(text[-1]) + 1) % 10)
    else:
        record["canonical"] = record["canonical"] + [2]
    return json.dumps(record, ensure_ascii=False)
