"""Command-line front end.

Subcommands: ``compute`` (multiplier of a group, by formula, oracle, or both),
``witt`` (basic-commutator count), ``basis`` (enumerate basic commutators),
``sweep`` (cross-validate formula against oracle over a family of groups).

The command line is read against one option table, ``build_parser()``: for
each subcommand its handler, its help, and its options, each with a dest, a
conversion (``int``, ``str`` or a tuple of choices), a default or
``REQUIRED``, and a help string.  Usage lines, ``--help`` and the parser's
error messages are all rendered from that table.  A flag may be spelled in
full, by a unique prefix (``--gr``), and with ``=`` (``--group=12,6,2``);
the rules are argparse's (Python 3.11), which the module does not import.
A command's tokens are read in one pass, left to right, and each value is
converted where it is read.  Help or a refusal ends the pass, but only once
the tokens not yet read, up to the first "--", are classified: an ambiguous
prefix anywhere before it is refused first, as argparse classifies every
token before it reads any.  An explicit "--" value (``--class=--``) is refused only if it
is still the option's value once the line is read, as in argparse.

``compute`` builds its whole answer as one join over fixed text and the
digit strings the library returned, so each multiplicity's digits are
copied once for each place they appear, and writes it with one
``sys.stdout.write``.  Its ``--format json`` line has the bytes
``json.dumps(record, ensure_ascii=False)`` would give for the record, and is
written directly: the module does not import ``json``.

Exit codes: 0 success (``-h``/``--help`` included), 1 bad input (including a
command line the table refuses, a group spec above ``MAX_FACTORS`` factors,
a result above ``MAX_RESULT_BITS`` and a sweep above ``MAX_SWEEP_CASES``),
2 formula/oracle mismatch, 3 enumeration cap exceeded (for ``sweep``, by its
largest case, checked before the cases are counted).  ``main`` returns the
code; it does not raise ``SystemExit``.
"""

from __future__ import annotations

import functools
import itertools
import sys
from collections import namedtuple
from collections.abc import Iterator, Sequence
from types import SimpleNamespace

from .abelian import MAX_ORDER, CyclicDecomposition, InvariantFactors, _check_ints, canonicalize
from .hall import CapExceeded, _iter_basic, check_cap
from .multiplier import (
    VerificationReport,
    decimal_str,
    formula_digits,
    multiplier_order,
    summand_digits,
    tensor_oracle,
    verify,
    witt_count_digits,
)
from .witt import count_bits, divisors, exact_context

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_MISMATCH = 2
EXIT_CAP = 3

# Largest count, in bits, that compute, witt and basis will build.  One at the bound
# renders in under 2 s (CPython 3.11, x86-64); --class 10**9 on two letters
# would first build 2**(10**9), 125 MB, and then try to print it.
MAX_RESULT_BITS = 2**23

# Most (chain, class) cases sweep will check.  The time this allows rests on
# the enumeration cap: a sweep that passes it has no chain of more than 1,414
# letters, and a case costs about 1.7 us per letter, so the worst admitted
# sweep takes about a minute.  --max-order 4 --max-rank 444 --max-class 1,
# 99,679 cases of 296 letters on average, took 51 s cold (CPython 3.11,
# x86-64, 2 shared vCPUs).
MAX_SWEEP_CASES = 10**5

# Lines of ``basis`` output joined into one write.  One print per line took
# 0.5 s for the 720,300 lines of weight 8 on 7 letters, chunks 0.02 s, to
# /dev/null (CPython 3.11, x86-64); a chunk of those lines is about 150 KB.
BASIS_CHUNK_LINES = 4096

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
            # Z<digits> or Z<digits>^<digits>; isdecimal() accepts the
            # Unicode decimal digits (category Nd) that int() reads
            order, caret, power = term[1:].partition("^")
            if not (term[:1] == "Z" and order.isdecimal() and (power.isdecimal() or not caret)):
                raise GroupSpecError(f"bad summand {term!r} in {text!r}")
            if not caret:
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
            if not piece.isdecimal():
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

    The estimate is ``count_bits``: w * bit_length(q - 1) bits bound the
    count of weight-w commutators on q letters, and it is 0 for a single
    letter.  For ``compute`` the letters are the factors of order > 1: a
    trivial factor adds no commutator to either route.  The weight (>= 1)
    and the letters (>= 0) are checked first, by ``_check_ints``, with the
    bounds of ``witt`` and ``basis``.
    """
    _check_ints([weight], "weight", 1)
    _check_ints([letters], "letters", 0)
    _check_result_size(weight, letters)


def _check_result_size(weight: int, letters: int) -> None:
    """``check_result_size`` for a weight and letters that are already checked ints."""
    estimate = count_bits(weight, letters)
    if estimate > MAX_RESULT_BITS:
        raise ValueError(
            f"the result would have about {decimal_str(estimate)} bits, "
            f"above the bound of {MAX_RESULT_BITS} bits"
        )


def _sum_pieces(digits: list[tuple[str, str]], pieces: list[str]) -> list[str]:
    """``pieces`` with the direct sum of the summands' (order, multiplicity) digits appended.

    Each multiplicity is appended as its own piece, not copied into another
    string; no summands append "trivial".
    """
    if not digits:
        pieces.append("trivial")
    sep = "Z"
    for order, mult in digits:
        if mult == "1":
            pieces.append(f"{sep}{order}")
        else:
            pieces += (f"{sep}{order}^(", mult, ")")
        sep = " (+) Z"
    return pieces


def _factored_pieces(digits: list[tuple[str, str]], pieces: list[str]) -> list[str]:
    """``pieces`` with the order in factored form, e.g. "6^1 · 2^2", appended.

    Each multiplicity is appended as its own piece, as in ``_sum_pieces``.
    """
    sep = ""
    for order, mult in digits:
        pieces += (f"{sep}{order}^", mult)
        sep = " · "
    return pieces


def _direct_sum(digits: list[tuple[str, str]]) -> str:
    """Summands' (order, multiplicity) digits as a direct sum, e.g. "Z6 (+) Z2^(2)"."""
    return "".join(_sum_pieces(digits, []))


_JSON_VERIFIED = {None: "null", True: "true", False: "false"}


def _compute_output(
    decomposition: CyclicDecomposition,
    chain: InvariantFactors,
    nilpotency_class: int,
    method: str,
    fmt: str,
    digits: list[tuple[str, str]],
    total: int | None,
    verified: bool | None,
) -> str:
    """The whole stdout of a ``compute`` query: one join over its pieces.

    ``digits`` and ``total`` are the summands' (order, multiplicity) digits
    and the multiplier's order or None, as ``formula_digits`` gives them, or
    ``summand_digits`` and ``multiplier_order``.  The pieces are the fixed
    text and the digit strings themselves, so the join copies each
    multiplicity's digits once for each of its two appearances (the summands
    and the factored order).  The chain entries (an entry can be the lcm of
    hundreds of orders) and the order are rendered once each, by
    ``decimal_str``.  ``str`` writes only the input orders, which are at
    most ``MAX_ORDER``, and the class, which ``int()`` read, so the
    interpreter's int-to-str digit limit never refuses a result.

    For ``json`` the line is the one ``json.dumps(record, ensure_ascii=False)``
    would write for the record: chain entries and summand orders as numbers,
    multiplicities and the order as decimal strings.  It is written directly:
    no string in it needs an escape, since each holds only digits, "^",
    " · " or a ``--method`` choice.
    """
    canonical = [decimal_str(n) for n in chain.chain]
    order_decimal = None if total is None else decimal_str(total)
    if fmt == "json":
        pieces = [
            f'{{"schema_version": "{SCHEMA_VERSION}", '
            f'"input": {list(decomposition.orders)}, '
            f'"canonical": [{", ".join(canonical)}], '
            f'"class": {nilpotency_class}, "method": "{method}", "summands": ['
        ]
        sep = ""
        for order, mult in digits:
            pieces += (f'{sep}{{"order": {order}, "multiplicity": "', mult, '"}')
            sep = ", "
        pieces.append('], "order_factored": "')
        _factored_pieces(digits, pieces)
        if order_decimal is None:
            pieces.append('", "order_decimal": null')
        else:
            pieces += ('", "order_decimal": "', order_decimal, '"')
        pieces.append(f', "verified": {_JSON_VERIFIED[verified]}}}\n')
        return "".join(pieces)
    pieces = [
        f"input: {','.join(map(str, decomposition.orders))}\n"
        f"canonical: {','.join(canonical)}\n"
        f"class: {nilpotency_class}\n"
        f"method: {method}\n"
        f"multiplier: "
    ]
    _sum_pieces(digits, pieces)
    if not digits:
        pieces.append("\norder: 1")
    else:
        pieces.append("\norder: ")
        if order_decimal is not None:
            pieces += (order_decimal, " = ")
        _factored_pieces(digits, pieces)
    pieces.append("\n" if verified is None else (
        f"\nverified: {'equal' if verified else 'MISMATCH'}\n"
    ))
    return "".join(pieces)


def _mismatch(report: VerificationReport) -> str:
    return (
        f"formula={_direct_sum(summand_digits(report.formula))} "
        f"oracle={_direct_sum(summand_digits(report.oracle))}"
    )


def cmd_compute(args: SimpleNamespace) -> int:
    if args.class_c < 1:
        raise ValueError("--class must be >= 1")
    decomposition = parse_group_spec(args.group)
    _check_result_size(args.class_c + 1, sum(decomposition.copies.values()))
    verified: bool | None = None
    try:
        if args.method == "both":
            report = verify(decomposition, args.class_c)
            chain, result, verified = report.group, report.formula, report.equal
            if not verified:
                print(f"mismatch: {_mismatch(report)}", file=sys.stderr)
        else:
            if args.method == "oracle":  # its cap refuses before the chain is made
                result = tensor_oracle(decomposition, args.class_c)
            chain = canonicalize(decomposition)
    except CapExceeded as exc:
        print(f"error: {exc}; rerun with --method formula", file=sys.stderr)
        return EXIT_CAP
    if args.method == "formula":
        digits, total = formula_digits(chain, args.class_c)
    else:
        digits, total = summand_digits(result), multiplier_order(result)
    sys.stdout.write(_compute_output(
        decomposition, chain, args.class_c, args.method, args.format, digits, total, verified
    ))
    return EXIT_OK if verified is not False else EXIT_MISMATCH


def cmd_witt(args: SimpleNamespace) -> int:
    check_result_size(args.weight, args.letters)
    print(witt_count_digits(args.weight, args.letters))
    return EXIT_OK


def cmd_basis(args: SimpleNamespace) -> int:
    check_result_size(args.weight, args.letters)
    lines = _iter_basic(args.weight, args.letters)
    while chunk := list(itertools.islice(lines, BASIS_CHUNK_LINES)):
        sys.stdout.write("\n".join(chunk) + "\n")
    return EXIT_OK


def invariant_chains(max_order: int, max_rank: int):
    """All divisibility chains with entries in 2..max_order and length <= max_rank.

    Depth first, each chain before its extensions, which go by increasing
    next entry.  ``max_order`` (>= 1) and ``max_rank`` (>= 0) are checked
    when it is called, by ``_check_ints``, with the bounds of ``sweep``.
    """
    _check_ints([max_order], "max order", 1)
    _check_ints([max_rank], "max rank", 0)
    return map(tuple, _chain_walk(max_order, max_rank))


def _chain_walk(max_order: int, max_rank: int):
    """The walk behind ``invariant_chains``, yielding one list changed in place.

    Each yield is the current chain; counting the yields builds no tuples.
    ``pending[k]`` holds the candidates for entry k that are not yet tried,
    so the depth is bounded by the rank, not by the call stack.
    """
    chain: list[int] = []
    yield chain
    pending = [iter(range(2, max_order + 1))] if max_rank > 0 else []
    below: dict[int, list[int]] = {}  # n -> its divisors >= 2, found once per n
    while pending:
        n = next(pending[-1], None)
        if n is None:
            pending.pop()
            if chain:
                chain.pop()
            continue
        chain.append(n)
        yield chain
        if len(chain) < max_rank:
            if n not in below:
                below[n] = [d for d in divisors(n) if d >= 2]
            pending.append(iter(below[n]))
        else:
            chain.pop()


def cmd_sweep(args: SimpleNamespace) -> int:
    if args.max_order < 1:
        raise ValueError("--max-order must be >= 1")
    if args.max_rank < 0:
        raise ValueError("--max-rank must be >= 0")
    if args.max_class < 1:
        raise ValueError("--max-class must be >= 1")
    if args.max_order >= 2 and args.max_rank >= 2:
        # for weight >= 2, witt_count grows with the weight and with the
        # letters, so a case is over the cap only if the largest one is
        check_cap(args.max_class + 1, args.max_rank)
    chains = _chain_walk(args.max_order, args.max_rank)
    cases = args.max_class * sum(
        1 for _ in itertools.islice(chains, MAX_SWEEP_CASES // args.max_class + 1)
    )
    if cases > MAX_SWEEP_CASES:
        raise ValueError(
            f"the sweep would check at least {cases} (chain, class) cases, "
            f"above the bound of {MAX_SWEEP_CASES}"
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


# ---------------------------------------------------------------------------
# The command line: one option table, and the parser that reads it
# ---------------------------------------------------------------------------

DESCRIPTION = "Exact nilpotent Schur multipliers of finite abelian groups."

# The default of an option that must be given.
REQUIRED = None


class Option(namedtuple("Option", "dest kind default help")):
    """One ``--flag VALUE`` of a command.

    ``kind`` converts the value: ``int`` (plain ``int()``), ``str``, or a
    tuple of the accepted values (None for -h/--help).  ``default`` is the
    value of ``dest`` when the flag is absent, or ``REQUIRED``.
    """

    __slots__ = ()


class Command(namedtuple("Command", "handler help options")):
    """A subcommand: its handler (parsed args to exit code), its help, and its options by flag."""

    __slots__ = ()


# -h/--help, which the program and every command take
HELP = Option("help", None, None, "show this help and exit")


class UsageExit(Exception):
    """A command line that ends at the parser, with ``code`` and ``text``.

    Code 0 is a request for help, whose text goes to stdout.  Code 1 is a
    refused command line, whose text, a usage line and an ``error:`` line,
    goes to stderr.
    """

    def __init__(self, code: int, text: str) -> None:
        super().__init__(text)
        self.code = code
        self.text = text


def build_parser() -> dict[str, Command]:
    """The option table: every subcommand by name, in the order help lists them."""
    return {
        "compute": Command(cmd_compute, "multiplier of a group", {
            "--group": Option("group", str, REQUIRED,
                              'e.g. "12,6,2", "Z12+Z6+Z2", or "Z2^3"'),
            "--class": Option("class_c", int, REQUIRED, "nilpotency class c >= 1"),
            "--method": Option("method", ("formula", "oracle", "both"), "formula",
                               "closed form, Hall-basis oracle, or both, compared"),
            "--format": Option("format", ("text", "json"), "text", "output format"),
        }),
        "witt": Command(cmd_witt, "count basic commutators", {
            "--weight": Option("weight", int, REQUIRED, "commutator weight w >= 1"),
            "--letters": Option("letters", int, REQUIRED, "number of letters q >= 0"),
        }),
        "basis": Command(cmd_basis, "list basic commutators", {
            "--weight": Option("weight", int, REQUIRED, "commutator weight w >= 1"),
            "--letters": Option("letters", int, REQUIRED, "number of letters q >= 0"),
        }),
        "sweep": Command(cmd_sweep, "cross-validate formula against oracle", {
            "--max-order": Option("max_order", int, REQUIRED, "largest chain entry"),
            "--max-rank": Option("max_rank", int, REQUIRED, "most chain entries"),
            "--max-class": Option("max_class", int, REQUIRED, "largest nilpotency class"),
        }),
    }


def parse_args(argv: Sequence[str], table: dict[str, Command]) -> SimpleNamespace:
    """The handler (``func``) and the option values (by ``dest``) that ``argv`` selects.

    Before the command name only -h/--help is known; an unknown flag there is
    kept, and refused once the whole command line is read.  Raises
    ``UsageExit`` for help and for every command line the table refuses.
    """
    extras: list[str] = []
    name = None
    try:
        for i, token in enumerate(argv):
            match = None if token[:1] != "-" or token == "--" else _classify(token, {})
            if match is None:
                if token not in table:
                    raise UsageExit(EXIT_INPUT, f"argument command: invalid choice: {token!r} "
                                                f"(choose from {', '.join(map(repr, table))})")
                name = token
                return _parse_command(table[name], argv[i + 1:], extras)
            if match[1] is HELP:
                raise _help_exit(match[0], match[2])
            extras.append(token)
        raise UsageExit(EXIT_INPUT, "the following arguments are required: command")
    except UsageExit as exc:
        if exc.code == EXIT_OK:
            raise UsageExit(EXIT_OK, _help(table, name)) from None
        prog = "nilmult" if name is None else f"nilmult {name}"
        raise UsageExit(EXIT_INPUT, f"{_usage(table, name)}\n{prog}: error: {exc.text}\n") from None


def _parse_command(command: Command, tokens: Sequence[str],
                   extras: list[str]) -> SimpleNamespace:
    """Read one command's tokens in one pass, left to right; ``UsageExit`` carries a bare message.

    The loop recognizes a flag spelled in full, and a value after a flag,
    itself; any other token goes through ``_classify``.  An option takes the
    next token as its value only if that token is a value, not a flag or
    "--", and converts it where it is read; when an option repeats, the last
    value wins.  An explicit "--" (``--class=--``) is kept as the value: an
    int or choice option refuses it only if it is still its value once the
    line is read.  Help or a refusal leaves the loop only after the tokens
    not yet read, up to the first "--", are classified (``_leave``), so an
    ambiguous prefix is refused first, even after -h or a bad value, as
    argparse classifies every token before it reads any.  The "--", what
    follows it and every stray token are unrecognized.
    """
    options = command.options
    end = tokens.index("--") if "--" in tokens else len(tokens)
    rest = iter(tokens[:end])  # the tokens not yet read
    values = {option.dest: option.default for option in options.values()}
    refusals: dict[str, str] = {}  # dest -> the refusal of an explicit "--" it took
    for token in rest:
        if (option := options.get(token)) is not None:
            flag, value = token, None
        else:
            match = _classify(token, options)
            if match is None or match[1] is None:
                extras.append(token)
                continue
            flag, option, value = match
            if option is HELP:
                _leave(rest, options, _help_exit(flag, value))
        if value is None:
            value = next(rest, "--")  # "--" once no token is left
            if value == "--" or (value[:1] == "-" and _classify(value, options)):
                _leave(rest, options, f"argument {flag}: expected one argument")
        error = None
        if option.kind is int:
            try:
                value = int(value)
            except ValueError:
                error = f"argument {flag}: invalid int value: {value!r}"
        elif option.kind is not str and value not in option.kind:
            error = (f"argument {flag}: invalid choice: {value!r} "
                     f"(choose from {', '.join(map(repr, option.kind))})")
        if error is not None and value != "--":
            _leave(rest, options, error)
        values[option.dest] = value
        if error is not None:
            refusals[option.dest] = error
    for dest, error in refusals.items():
        if values[dest] == "--":
            raise UsageExit(EXIT_INPUT, error)
    extras += tokens[end:]
    if REQUIRED in values.values():
        missing = [flag for flag, option in options.items() if values[option.dest] is REQUIRED]
        raise UsageExit(EXIT_INPUT, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise UsageExit(EXIT_INPUT, f"unrecognized arguments: {' '.join(map(repr, extras))}")
    return SimpleNamespace(func=command.handler, **values)


def _leave(rest: Iterator[str], options: dict[str, Option], stop: UsageExit | str) -> None:
    """Raise ``stop``, help or a refusal, or refuse the line with the message ``stop``.

    The tokens not yet read, ``rest``, are classified first, so an ambiguous
    prefix among them is refused instead.
    """
    for token in rest:
        _classify(token, options)
    raise stop if isinstance(stop, UsageExit) else UsageExit(EXIT_INPUT, stop)


def _classify(token: str, options: dict[str, Option]) -> tuple | None:
    """What ``token`` is among ``options`` and -h/--help.

    None for a value: a token that does not start with "-", "-" itself, and,
    unless it names a flag, a negative number or a token with a space in it.
    Otherwise (flag, option, explicit value or None), with option None for an
    unknown flag.  A flag is found by its full name, then by its name before
    an "=", then, for "--" flags, by a unique prefix before any "=".  "-h"
    followed by more characters is -h with those as its explicit value.
    """
    if token[:1] != "-" or token == "-":
        return None
    if token in options:
        return token, options[token], None
    if token in ("-h", "--help"):
        return token, HELP, None
    if token[1] == "-":
        prefix, equals, value = token.partition("=")
        flags = [*options, "--help"]
        if prefix in flags:
            flags = [prefix]
        else:
            flags = [flag for flag in flags if flag.startswith(prefix)]
            if len(flags) > 1:
                raise UsageExit(EXIT_INPUT,
                                f"ambiguous option: {token!r} could match {', '.join(flags)}")
        if flags:
            return flags[0], options.get(flags[0], HELP), value if equals else None
    elif token.startswith("-h"):
        return "-h", HELP, token[3:] if token[2] == "=" else token[2:]
    if _is_negative_number(token) or " " in token:
        return None
    return token, None, None


def _is_negative_number(token: str) -> bool:
    r"""Whether ``token`` reads as a negative number, which is a value, not a flag.

    argparse's pattern ``^-\d+$|^-\d*\.\d+$``, with ``str`` methods: "-",
    then digits, or digits (possibly none) before "." and digits after it.
    A digit is one ``str.isdecimal()`` accepts, the Unicode digits that
    ``\d`` matches, and one trailing newline is read past, as ``$`` does.
    """
    if token[:1] != "-":
        return False
    number = token[1:-1] if token.endswith("\n") else token[1:]
    whole, dot, fraction = number.partition(".")
    if not dot:
        return number.isdecimal()
    return (not whole or whole.isdecimal()) and fraction.isdecimal()


def _help_exit(flag: str, value: str | None) -> UsageExit:
    """A request for help, unless -h/--help carries a value that is not more -h flags.

    "-hh" and "-h=h" are -h twice; "--help=x" and "-hx" are refused.
    """
    if value is None or (flag == "-h" and value and not value.strip("h")):
        return UsageExit(EXIT_OK, "")
    return UsageExit(EXIT_INPUT, f"argument -h/--help: ignored explicit argument {value!r}")


def _metavar(flag: str, option: Option) -> str:
    if isinstance(option.kind, tuple):
        return "{" + ",".join(option.kind) + "}"
    return flag[2:].upper().replace("-", "_")


def _usage(table: dict[str, Command], name: str | None) -> str:
    """The usage line of the program (``name`` None) or of one command."""
    if name is None:
        return f"usage: nilmult [-h] {{{','.join(table)}}} ..."
    spelled = []
    for flag, option in table[name].options.items():
        text = f"{flag} {_metavar(flag, option)}"
        spelled.append(text if option.default is REQUIRED else f"[{text}]")
    return f"usage: nilmult {name} [-h] {' '.join(spelled)}"


def _help(table: dict[str, Command], name: str | None) -> str:
    """The help of the program (``name`` None) or of one command."""
    sections: dict[str, list[tuple[str, str]]] = {}
    options = [("-h, --help", HELP.help)]
    if name is None:
        about = DESCRIPTION
        sections["commands"] = [(command, entry.help) for command, entry in table.items()]
    else:
        about = table[name].help
        for flag, option in table[name].options.items():
            default = "" if option.default is REQUIRED else f" (default: {option.default})"
            options.append((f"{flag} {_metavar(flag, option)}", option.help + default))
    sections["options"] = options
    width = max(len(left) for rows in sections.values() for left, _ in rows)
    lines = [_usage(table, name), "", about]
    for heading, rows in sections.items():
        lines += ["", f"{heading}:", *(f"  {left:<{width}}  {text}" for left, text in rows)]
    if name is None:
        lines += ["", 'Run "nilmult COMMAND --help" for the options of a command.']
    return "\n".join(lines) + "\n"


@functools.cache
def _parser() -> dict[str, Command]:
    """The option table of the process, built on first use; parsing leaves it unchanged."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command line and return its exit code; never raises ``SystemExit``.

    ``argv`` defaults to ``sys.argv[1:]``.  Help exits 0 and a refused
    command line exits 1, like any other input error.
    """
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv, _parser())
    except UsageExit as exc:
        print(exc.text, end="", file=sys.stderr if exc.code else sys.stdout)
        return exc.code
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
