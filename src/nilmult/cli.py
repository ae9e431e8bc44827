"""Command-line front end.

Subcommands: ``compute`` (multiplier of a group, by formula, oracle, or both),
``witt`` (basic-commutator count), ``basis`` (enumerate basic commutators),
``sweep`` (cross-validate formula against oracle over a family of groups).

Exit codes: 0 success, 1 bad input (including a group spec above
``MAX_FACTORS`` factors, a result above ``MAX_RESULT_BITS`` and a sweep above
``MAX_SWEEP_CASES`` or ``MAX_SWEEP_COMMUTATORS``), 2 formula/oracle mismatch,
3 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from collections import Counter
from collections.abc import Sequence

from .abelian import MAX_ORDER, CyclicDecomposition, InvariantFactors, canonicalize
from .hall import CapExceeded, enumerate_basic
from .multiplier import (
    MultiplierResult,
    VerificationReport,
    decimal_str,
    multiplier_order,
    nilpotent_multiplier,
    summand_digits,
    tensor_oracle,
    verify,
    witt_count_digits,
)
from .witt import divisors, exact_context, witt_count

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_MISMATCH = 2
EXIT_CAP = 3

# Largest count, in bits, that compute, witt and basis will build.  One at the bound
# renders in under 2 s (CPython 3.11, x86-64); --class 10**9 on two letters
# would first build 2**(10**9), 125 MB, and then try to print it.
MAX_RESULT_BITS = 2**23

# Most (chain, class) cases sweep will check.  A small case takes about 0.1 ms
# (acceptance criterion 10 checks 11,568 in about 1 s), so a sweep at the
# bound runs for seconds or minutes, not hours.
MAX_SWEEP_CASES = 10**5

# Most basic commutators of weight c + 1 on a sweep's chains, summed over its
# cases: no fewer than the letter sets its oracle runs fold, one gcd each.  A
# sweep just under the bound (--max-order 2 --max-rank 390 --max-class 1, 9.9
# million pairs of letters) takes about 1.5 s (CPython 3.11, x86-64);
# acceptance criterion 9 counts 2,115,960.
MAX_SWEEP_COMMUTATORS = 10**7


# Most cyclic factors a group spec may list, powers counted out.  The parsed
# orders take about 16 bytes each, in a list and then a tuple: Z1^1000000000
# would ask for about 16 GB before any other bound could refuse it.  At the
# bound, parsing takes about 0.25 s and 16 MiB (CPython 3.11, x86-64).
MAX_FACTORS = 10**6

# A power or an order with more digits than its bound, leading zeros aside,
# is above the bound and is refused by its length, before int() reads it: the
# interpreter's int-to-str digit limit would refuse a long one with its own
# message.
_FACTOR_DIGITS = len(str(MAX_FACTORS))
_ORDER_DIGITS = len(str(MAX_ORDER))


class GroupSpecError(ValueError):
    """A group specification that does not match the accepted grammar."""


_SUMMAND = re.compile(r"Z(\d+)(?:\^(\d+))?")
_PLAIN_INT = re.compile(r"\d+")


def parse_group_spec(text: str) -> CyclicDecomposition:
    """Parse a group spec: "12,6,2", "Z12+Z6+Z2", or "Z2^3" (whitespace-free forms).

    Whitespace is ignored everywhere; anything outside the three spellings is
    rejected rather than guessed.  A spec of more than ``MAX_FACTORS`` factors,
    powers counted out, is refused before any list of orders is built, and an
    order above ``MAX_ORDER`` or a power above ``MAX_FACTORS`` by its length
    alone before it is converted.
    """
    compact = "".join(text.split())
    if not compact:
        raise GroupSpecError("empty group specification")
    orders: list[int] = []
    if compact.startswith("Z"):
        powers: list[tuple[int, int]] = []
        long_powers: list[str] = []
        factors = 0
        for term in compact.split("+"):
            m = _SUMMAND.fullmatch(term)
            if not m:
                raise GroupSpecError(f"bad summand {term!r} in {text!r}")
            order, power = m.groups()
            if power is None:
                power = 1
            else:
                if len(power) > _FACTOR_DIGITS:
                    power = power.lstrip("0") or "0"
                    if len(power) > _FACTOR_DIGITS:
                        long_powers.append(power)
                        continue
                power = int(power)
                if power < 1:
                    raise GroupSpecError(f"power must be >= 1 in {term!r}")
            if len(order) > _ORDER_DIGITS:
                order = _long_order(order)
            powers.append((int(order), power))
            factors += power
        _check_factor_count(factors, long_powers)
        for order, power in powers:
            orders.extend([order] * power)
    else:
        pieces = compact.split(",")
        _check_factor_count(len(pieces))
        for piece in pieces:
            if not _PLAIN_INT.fullmatch(piece):
                raise GroupSpecError(f"bad order {piece!r} in {text!r}")
            if len(piece) > _ORDER_DIGITS:
                piece = _long_order(piece)
            orders.append(int(piece))
    return CyclicDecomposition(tuple(orders))


def _long_order(digits: str) -> str:
    """Digits longer than ``MAX_ORDER`` without their leading zeros, if that makes them fit.

    Otherwise the order is above the bound by its length alone, and is refused.
    """
    significant = digits.lstrip("0") or "0"
    if len(significant) > _ORDER_DIGITS:
        # the message CyclicDecomposition gives for an order above the bound
        raise GroupSpecError(f"cyclic order {significant} exceeds the bound {MAX_ORDER}")
    return significant


def _check_factor_count(factors: int, long_powers: Sequence[str] = ()) -> None:
    """Refuse ``factors`` and ``long_powers`` if they sum above ``MAX_FACTORS``.

    A long power, digits without leading zeros, is above the bound by its
    length alone; it is never converted to an int, and the count in the
    message is summed in exact decimal.
    """
    if factors <= MAX_FACTORS and not long_powers:
        return
    if long_powers:
        import decimal

        with decimal.localcontext(exact_context()):
            count = str(factors + sum(map(decimal.Decimal, long_powers)))
    else:
        count = decimal_str(factors)
    raise GroupSpecError(
        f"the group spec has {count} factors, above the bound of {MAX_FACTORS}"
    )


def check_result_size(weight: int, letters: int) -> None:
    """Refuse, before any arithmetic, a count of basic commutators too big to build.

    The count of weight-w commutators on q letters is below q**w, so it has
    at most w * log2(q) bits; the estimate w * bit_length(q - 1) is at least
    that, and is 0 for a single letter.  For ``compute`` the letters are the
    factors of order > 1: a trivial factor adds no commutator to either route.
    """
    estimate = weight * max(letters - 1, 0).bit_length()
    if estimate > MAX_RESULT_BITS:
        raise ValueError(
            f"the result would have about {decimal_str(estimate)} bits, "
            f"above the bound of {MAX_RESULT_BITS} bits"
        )


def _summand_records(result: MultiplierResult) -> list[dict]:
    """The summands with each order and multiplicity rendered to decimal, once."""
    return [
        {"order": order, "multiplicity": mult} for order, mult in summand_digits(result)
    ]


def _direct_sum(summands: list[dict]) -> str:
    """Rendered summands as a direct sum, e.g. "Z6 (+) Z2^(2)"."""
    if not summands:
        return "trivial"
    return " (+) ".join(
        f"Z{s['order']}" if s["multiplicity"] == "1"
        else f"Z{s['order']}^({s['multiplicity']})"
        for s in summands
    )


def _output_record(
    decomposition: CyclicDecomposition,
    chain: InvariantFactors,
    nilpotency_class: int,
    method: str,
    result: MultiplierResult,
    verified: bool | None,
) -> dict:
    """Everything a query prints, built before anything is printed.

    ``input`` holds the parsed orders, which are at most ``MAX_ORDER``.  Chain
    entries, summand orders and multiplicities are decimal strings, from
    ``decimal_str`` or ``summand_digits``: a chain entry can be the lcm of
    hundreds of orders.
    """
    summands = _summand_records(result)
    order = multiplier_order(result)
    return {
        "schema_version": SCHEMA_VERSION,
        "input": list(decomposition.orders),
        "canonical": [decimal_str(n) for n in chain.chain],
        "class": nilpotency_class,
        "method": method,
        "summands": summands,
        "order_factored": " · ".join(
            f"{s['order']}^{s['multiplicity']}" for s in summands
        ),
        "order_decimal": decimal_str(order) if order is not None else None,
        "verified": verified,
    }


def _json_line(record: dict) -> str:
    """The record as ``json.dumps(record, ensure_ascii=False)`` would write it.

    Chain entries and summand orders are JSON numbers written from their
    rendered digits, spliced in where ``json.dumps`` wrote a placeholder:
    it would format them with int's repr, which the interpreter's int-to-str
    digit limit can refuse.  No other field can hold a NUL character.
    """
    canonical = f"[{', '.join(record['canonical'])}]"
    summands = "[" + ", ".join(
        f'{{"order": {s["order"]}, "multiplicity": "{s["multiplicity"]}"}}'
        for s in record["summands"]
    ) + "]"
    text = json.dumps(
        {**record, "canonical": "\0canonical", "summands": "\0summands"},
        ensure_ascii=False,
    )
    return (text.replace('"\\u0000canonical"', canonical, 1)
            .replace('"\\u0000summands"', summands, 1))


def _print_record(record: dict, fmt: str) -> None:
    if fmt == "json":
        print(_json_line(record))
        return
    print(f"input: {','.join(str(r) for r in record['input'])}")
    print(f"canonical: {','.join(record['canonical'])}")
    print(f"class: {record['class']}")
    print(f"method: {record['method']}")
    print(f"multiplier: {_direct_sum(record['summands'])}")
    if record["order_decimal"] is not None and record["order_factored"]:
        print(f"order: {record['order_decimal']} = {record['order_factored']}")
    elif record["order_factored"]:
        print(f"order: {record['order_factored']}")
    else:
        print("order: 1")
    if record["verified"] is not None:
        print(f"verified: {'equal' if record['verified'] else 'MISMATCH'}")


def _mismatch(report: VerificationReport) -> str:
    return (
        f"formula={_direct_sum(_summand_records(report.formula))} "
        f"oracle={_direct_sum(_summand_records(report.oracle))}"
    )


def cmd_compute(args: argparse.Namespace) -> int:
    if args.class_c < 1:
        raise ValueError("--class must be >= 1")
    decomposition = parse_group_spec(args.group)
    check_result_size(args.class_c + 1, sum(n > 1 for n in decomposition.orders))
    verified: bool | None = None
    try:
        if args.method == "both":
            report = verify(decomposition, args.class_c)
            chain, result, verified = report.group, report.formula, report.equal
            if not verified:
                print(f"mismatch: {_mismatch(report)}", file=sys.stderr)
        else:
            chain = canonicalize(decomposition)
            if args.method == "formula":
                result = nilpotent_multiplier(chain, args.class_c)
            else:
                result = tensor_oracle(decomposition, args.class_c)
    except CapExceeded as exc:
        print(f"error: {exc}; rerun with --method formula", file=sys.stderr)
        return EXIT_CAP
    record = _output_record(
        decomposition, chain, args.class_c, args.method, result, verified
    )
    _print_record(record, args.format)
    return EXIT_OK if verified is not False else EXIT_MISMATCH


def cmd_witt(args: argparse.Namespace) -> int:
    check_result_size(args.weight, args.letters)
    print(witt_count_digits(args.weight, args.letters))
    return EXIT_OK


def cmd_basis(args: argparse.Namespace) -> int:
    check_result_size(args.weight, args.letters)
    for comm in enumerate_basic(args.weight, args.letters):
        print(comm.rendered)
    return EXIT_OK


def invariant_chains(max_order: int, max_rank: int):
    """All divisibility chains with entries in 2..max_order and length <= max_rank.

    Depth first, each chain before its extensions, which go by increasing
    next entry.  ``pending[k]`` holds the candidates for entry k that are not
    yet tried, so the depth is bounded by the rank, not by the call stack.
    """
    yield ()
    chain: list[int] = []
    pending = [iter(range(2, max_order + 1))] if max_rank > 0 else []
    while pending:
        n = next(pending[-1], None)
        if n is None:
            pending.pop()
            if chain:
                chain.pop()
            continue
        chain.append(n)
        yield tuple(chain)
        if len(chain) < max_rank:
            pending.append(iter([d for d in divisors(n) if d >= 2]))
        else:
            chain.pop()


def sweep_size(max_order: int, max_rank: int, max_class: int) -> tuple[int, int]:
    """(chain, class) cases of a sweep, and basic commutators on their chains.

    ``chains_from(n)[k]`` counts the chains that start with n and have at most
    k + 1 entries: n alone, or n followed by a chain from n itself or from a
    proper divisor d >= 2 of n.  One walk over first entries sums them, in all
    and by length, and stops once the cases pass MAX_SWEEP_CASES; a list stops
    too, short of ``max_rank`` entries, once its last count passes
    MAX_SWEEP_CASES / max_class.  A case (chain, c) folds at most
    ``witt_count(c + 1, len(chain))`` letter sets, since each set it folds
    carries a basic commutator; those counts are summed, until they pass
    MAX_SWEEP_COMMUTATORS, only when the cases are within their bound (else
    the second number is 0).  A count above its bound is a lower bound.
    """

    @functools.cache
    def chains_from(n: int) -> list[int]:
        below = [chains_from(d) for d in divisors(n)[1:-1]] if max_rank > 1 else []
        counts = [1]
        while len(counts) < max_rank and counts[-1] * max_class <= MAX_SWEEP_CASES:
            k = len(counts)
            counts.append(1 + counts[k - 1] + sum(c[k - 1] for c in below))
        return counts

    chains = 1  # the empty chain
    # of_length[k]: chains with exactly k >= 2 entries; fewer than 2 letters
    # have no basic commutators of weight 2 or more
    of_length: Counter[int] = Counter()
    for n in range(2, max_order + 1) if max_rank else ():
        if chains * max_class > MAX_SWEEP_CASES:
            break
        counts = chains_from(n)
        chains += counts[-1]
        for k in range(1, len(counts)):
            of_length[k + 1] += counts[k] - counts[k - 1]
    cases, commutators = chains * max_class, 0
    if cases > MAX_SWEEP_CASES:
        return cases, commutators
    for length, count in sorted(of_length.items()):
        for c in range(1, max_class + 1):
            commutators += count * witt_count(c + 1, length)
            if commutators > MAX_SWEEP_COMMUTATORS:
                return cases, commutators
    return cases, commutators


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.max_order < 1:
        raise ValueError("--max-order must be >= 1")
    if args.max_rank < 0:
        raise ValueError("--max-rank must be >= 0")
    if args.max_class < 1:
        raise ValueError("--max-class must be >= 1")
    cases, commutators = sweep_size(args.max_order, args.max_rank, args.max_class)
    if cases > MAX_SWEEP_CASES:
        raise ValueError(
            f"the sweep would check at least {cases} (chain, class) cases, "
            f"above the bound of {MAX_SWEEP_CASES}"
        )
    if commutators > MAX_SWEEP_COMMUTATORS:
        raise ValueError(
            f"the sweep would enumerate at least {decimal_str(commutators)} basic "
            f"commutators, above the bound of {MAX_SWEEP_COMMUTATORS}"
        )
    checked = 0
    mismatched = 0
    for chain in invariant_chains(args.max_order, args.max_rank):
        for c in range(1, args.max_class + 1):
            report = verify(CyclicDecomposition(chain), c)
            checked += 1
            if not report.equal:
                mismatched += 1
                group = ",".join(map(decimal_str, chain)) or "1"
                print(f"MISMATCH: chain={list(chain)} class={c} {_mismatch(report)} "
                      f'reproducer: nilmult compute --group "{group}" --class {c} '
                      f"--method both")
    print(f"checked {checked} (chain, class) pairs: "
          f"{checked - mismatched} equal, {mismatched} mismatched")
    return EXIT_MISMATCH if mismatched else EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    # usage problems are input errors (exit 1); argparse's default exit 2 is
    # reserved for verification mismatches
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
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
    compute.set_defaults(func=cmd_compute)

    witt = sub.add_parser("witt", help="count basic commutators")
    witt.add_argument("--weight", type=int, required=True)
    witt.add_argument("--letters", type=int, required=True)
    witt.set_defaults(func=cmd_witt)

    basis = sub.add_parser("basis", help="list basic commutators")
    basis.add_argument("--weight", type=int, required=True)
    basis.add_argument("--letters", type=int, required=True)
    basis.set_defaults(func=cmd_basis)

    sweep = sub.add_parser("sweep", help="cross-validate formula against oracle")
    sweep.add_argument("--max-order", type=int, required=True)
    sweep.add_argument("--max-rank", type=int, required=True)
    sweep.add_argument("--max-class", type=int, required=True)
    sweep.set_defaults(func=cmd_sweep)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use; parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
