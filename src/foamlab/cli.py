"""Command-line front end.

Every subcommand renders one payload as a UTF-8 table (default),
RFC-4180-style CSV, or a single JSON object; the three renderings carry
the same numeric values at the selected precision.  Quantities accept an
optional unit suffix glued to the number (`1e-5cm`, `2.5s`,
`1e-29g/cm3`, and `4e-61/cm2`, which is 4e-6 with the `1/cm2` suffix);
no locale-dependent parsing.  A negative quantity may follow its option
after a space as after `=`.  Exit status: 0 on success, 2 on usage
errors, 1 on domain errors and unwritable output (message on stderr).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from itertools import compress, islice, repeat
from operator import contains, not_
from typing import Any, Callable, Iterable, Sequence

from . import __version__
from .constants import DEFAULT_CONSTANTS, load_constants
from .errors import ConfigError, ConsistencyError, DomainError
from .laws import clock_mass, length_uncertainty, max_length_for_density, time_uncertainty

# Quantity kind: (metavar letter, unit suffix).
_QUANTITIES = {
    "length": ("L", "cm"),
    "time": ("T", "s"),
    "density": ("RHO", "g/cm3"),
    "curvature": ("K", "1/cm2"),
}

# Help layout shared by the top-level parser and every subcommand.
_HELP_LAYOUT = {
    "epilog": (
        "quantities are CGS and accept an optional unit suffix glued to the number:\n"
        "  lengths NUMBER[cm], times NUMBER[s], densities NUMBER[g/cm3],\n"
        "  curvatures NUMBER[1/cm2]   e.g. --length 1e-5cm, --density 1e-29g/cm3"
    ),
    "formatter_class": argparse.RawDescriptionHelpFormatter,
}

_CONSTANT_UNITS = {
    "c": "cm/s", "hbar": "erg s", "G": "cm3/(g s2)", "l_planck": "cm", "t_planck": "s",
    "m_planck": "g",
}


def _precision(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"precision must be at least 1, got {value}")
    if value > 767:  # no double has more significant digits in its exact decimal expansion
        raise argparse.ArgumentTypeError(f"precision must be at most 767, got {value}")
    return value


class _Quantity:
    """argparse type for NUMBER[unit], the unit suffix being optional."""

    def __init__(self, kind: str) -> None:
        letter, self.unit = _QUANTITIES[kind]
        self.metavar = f"{letter}[{self.unit}]"

    def __call__(self, text: str) -> float:
        try:  # float() ignores the blanks around the number
            return float(text.strip().removesuffix(self.unit))
        except ValueError:
            message = f"expected NUMBER[{self.unit}], got {text!r}"
            raise argparse.ArgumentTypeError(message) from None


def _quantity(kind: str, required: bool = True) -> dict[str, Any]:
    """add_argument keywords for a quantity option; its unit joins the params."""
    parse = _Quantity(kind)
    return {"type": parse, "metavar": parse.metavar, "required": required}


def _integer(metavar: str, default: int | None = None) -> dict[str, Any]:
    """add_argument keywords for an integer option, required without a default."""
    return {"type": int, "metavar": metavar, "default": default, "required": default is None}


_Handler = Callable[[argparse.Namespace], "dict[str, Any]"]

# name: (help, {option: add_argument keywords}, handler), in definition order.
_COMMANDS: dict[str, tuple[str, dict[str, dict[str, Any]], _Handler]] = {}


def _command(
    name: str, help_text: str, **options: dict[str, Any]
) -> Callable[[_Handler], _Handler]:
    """Enter the decorated handler in _COMMANDS as subcommand `name`."""

    def enter(handler: _Handler) -> _Handler:
        _COMMANDS[name] = (help_text, options, handler)
        return handler

    return enter


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The foamlab parser, built on the first call and reused: a parse leaves no state in it.

    Its `commands` maps each subcommand name to that subcommand's parser,
    the same object the full parser hands a call to; _parse_args uses it
    directly for a call that starts with the name.
    """
    parser = argparse.ArgumentParser(
        prog="foamlab",
        description="cube-root space-time measurement uncertainty toolkit (CGS units)",
        **_HELP_LAYOUT,
    )
    parser.add_argument("--version", action="version", version=f"foamlab {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    parser.commands = commands.choices  # type: ignore[attr-defined]
    for name, (help_text, options, handler) in _COMMANDS.items():
        sub = commands.add_parser(name, help=help_text, **_HELP_LAYOUT)
        sub.add_argument(
            "--format", choices=("table", "csv", "json"), default="table",
            help="output rendering (default: table)",
        )
        sub.add_argument(
            "--precision", type=_precision, default=6, metavar="N",
            help="significant digits for printed numbers (default: 6)",
        )
        # uncertainty takes exactly one of --length and --time.
        group = sub.add_mutually_exclusive_group(required=True) if name == "uncertainty" else sub
        for option, keywords in options.items():
            group.add_argument(f"--{option}", **keywords)
        sub.set_defaults(handler=handler)
    return parser


def _join_negative_quantities(argv: Sequence[str]) -> list[str]:
    """argv with `--option -VALUE` as `--option=-VALUE` for the subcommand's quantity options.

    argparse takes a token such as -4e-6 or -1cm for an option, since it
    knows only plain decimals like -4 as negative numbers, so
    `--curvature -4e-6` would fail where `--curvature=-4e-6` parses.  A
    quantity never starts with "--", so such a token is left as the next option.
    """
    spellings = _QUANTITY_SPELLINGS.get(argv[0] if argv else "", ())
    joined = list(argv[:1])
    for token in argv[1:]:
        if joined[-1] in spellings and token[:1] == "-" != token[1:2]:
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv), skipping the top-level pass where it changes nothing.

    When argv[0] names a subcommand, the top-level pass hands argv[1:]
    unchanged to that subcommand's parser, so that parser alone gives the
    same namespace, help and errors, unless it leaves arguments over.  Such
    an argv, and any other, goes through the full parser.  Of its own, the
    top-level pass rejects only a token whose text before "=" is a prefix
    of both --help and --version: "--", and in some Python versions "-".
    So an argv holding "-=" goes the full way too.
    """
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None and "-=" not in " ".join(argv):
        args, left = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not left:
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse_args(_join_negative_quantities(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        output = _render(args.handler(args), args.format, args.precision)
    except (DomainError, ConfigError) as exc:
        print(f"foamlab: error: {exc}", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"foamlab: internal consistency error: {exc}", file=sys.stderr)
        return 1
    try:  # one write, so an error above leaves no partial output
        if sys.stdout is None:  # started with file descriptor 1 closed
            raise OSError("standard output is closed")
        sys.stdout.write(output)
        sys.stdout.flush()
    except OSError as exc:
        print(f"foamlab: error: cannot write the output: {exc}", file=sys.stderr)
        sys.stdout = open(os.devnull, "w")  # else the flush at exit fails again, noisily
        return 1
    return 0


def run() -> None:
    raise SystemExit(main())


# ---------------------------------------------------------------------------
# subcommand handlers: each takes the parsed arguments and returns a payload
# dict whose "rows" is a _Table


def _payload(
    args: argparse.Namespace, columns: Iterable, warnings: list[str], params: dict | None = None
) -> dict[str, Any]:
    """The payload of a (quantity, value, unit, status) table, given column by column.

    params default to the command's options in table order, each quantity
    option followed by its unit as `<option>_unit`.
    """
    if params is None:
        params = {}
        for option, keywords in _COMMANDS[args.command][1].items():
            params[option] = getattr(args, option)
            if isinstance(keywords.get("type"), _Quantity):
                params[f"{option}_unit"] = keywords["type"].unit
    return {
        "command": args.command,
        "params": params,
        "rows": _Table(["quantity", "value", "unit", "status"], list(columns)),
        "warnings": warnings,
    }


def _sub_planck(kind: str, value: float) -> list[str]:
    """The sub-Planck warning for a length or time input, if it applies."""
    planck = DEFAULT_CONSTANTS.l_planck if kind == "length" else DEFAULT_CONSTANTS.t_planck
    below = value < planck
    return [f"input below the Planck {kind}; result is physically meaningless"] if below else []


@_command(
    "constants", "print the active constant set",
    config={"metavar": "FILE", "help": "key = value document with c, hbar, G"},
)
def _cmd_constants(args: argparse.Namespace) -> dict[str, Any]:
    constants = DEFAULT_CONSTANTS
    if args.config:
        try:
            with open(args.config, encoding="utf-8-sig") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config!r}: {exc}") from None
        constants = load_constants(text)
    values = constants._asdict()
    columns = [list(values), list(values.values()), [_CONSTANT_UNITS[name] for name in values]]
    return {
        "command": "constants",
        "params": {"config": args.config},
        "rows": _Table(["name", "value", "unit"], columns),
        # A ConstantSet cannot be built inconsistent, so there is never a violation to list.
        "violations": [],
        "warnings": [],
    }


@_command(
    "uncertainty", "cube-root length/time uncertainty",
    length=_quantity("length", required=False), time=_quantity("time", required=False),
)
def _cmd_uncertainty(args: argparse.Namespace) -> dict[str, Any]:
    kind = "length" if args.length is not None else "time"
    value = getattr(args, kind)
    delta = length_uncertainty(value) if kind == "length" else time_uncertainty(value)
    unit = _QUANTITIES[kind][1]
    params = {"kind": kind, "input": value, "input_unit": unit}
    rows = [(f"delta_{kind}", delta, unit, "closed-form")]
    return _payload(args, zip(*rows), _sub_planck(kind, value), params)


@_command("clock-mass", "optimal clock mass for a length measurement", length=_quantity("length"))
def _cmd_clock_mass(args: argparse.Namespace) -> dict[str, Any]:
    rows = [("clock_mass", clock_mass(args.length), "g", "closed-form")]
    return _payload(args, zip(*rows), _sub_planck("length", args.length))


@_command("fluct", "curvature / Riemann-scalar / density fluctuations", length=_quantity("length"))
def _cmd_fluct(args: argparse.Namespace) -> dict[str, Any]:
    from . import wigner  # imported on first use, as in _cmd_mc: most commands never need it

    rows = [
        ("delta_c", wigner.curvature_uncertainty(args.length), "1/cm", "closed-form"),
        ("delta_r", wigner.riemann_scalar_fluctuation(args.length), "1/cm2", "order-of-magnitude"),
        ("delta_rho", wigner.density_fluctuation(args.length), "g/cm3", "order-of-magnitude"),
    ]
    warnings = _sub_planck("length", args.length)
    if args.length < wigner.LINEARIZATION_MIN_PLANCK * DEFAULT_CONSTANTS.l_planck:
        warnings.append("linearization questionable: l is below 100 Planck lengths")
    return _payload(args, zip(*rows), warnings)


@_command(
    "threshold", "largest length keeping density fluctuations below a bound",
    density=_quantity("density"),
)
def _cmd_threshold(args: argparse.Namespace) -> dict[str, Any]:
    max_length = max_length_for_density(args.density)
    return _payload(args, zip(*[("max_length", max_length, "cm", "order-of-magnitude")]), [])


@_command(
    "mc", "Monte Carlo verification of the curvature noise law", length=_quantity("length"),
    samples=_integer("N"), seed=_integer("S"), partitions=_integer("P", 1),
)
def _cmd_mc(args: argparse.Namespace) -> dict[str, Any]:
    # Imported here, not at module level: montecarlo loads NumPy, which no other command needs.
    from .montecarlo import McConfig, verify_curvature_uncertainty

    result = verify_curvature_uncertainty(
        McConfig(args.length, args.samples, args.seed, args.partitions)
    )
    rows = [
        ("empirical_variance", result.empirical_variance, "s2", "empirical"),
        ("closed_form_variance", result.closed_form_variance, "s2", "closed-form"),
        ("variance_ratio_empirical", result.empirical_variance / result.sigma2, "-", "empirical"),
        ("variance_ratio_closed", result.closed_form_variance / result.sigma2, "-", "closed-form"),
        ("relative_error", result.relative_error, "-", "derived"),
        ("empirical_delta_c", result.empirical_delta_c, "1/cm", "empirical"),
        ("closed_form_delta_c", result.closed_form_delta_c, "1/cm", "closed-form"),
    ]
    return _payload(args, zip(*rows), [])


@_command(
    "bounce", "toy clock-mirror bounce simulation", curvature=_quantity("curvature"),
    separation=_quantity("length"), pulses=_integer("N", 3),
)
def _cmd_bounce(args: argparse.Namespace) -> dict[str, Any]:
    from . import bounce  # imports wigner too; see _cmd_fluct

    model = bounce.BounceModel(k=args.curvature, l=args.separation)
    record = bounce.simulate_round_trips(model, args.pulses)
    # t_i and epoch_i rows alternate, then the estimate closes the table.
    pulses = range(1, args.pulses + 1)
    quantities, values = [""] * (2 * args.pulses), [0.0] * (2 * args.pulses)
    quantities[::2] = [f"t_{i}" for i in pulses]
    quantities[1::2] = [f"epoch_{i}" for i in pulses]
    values[::2], values[1::2] = record.times, record.emission_epochs
    columns = [
        quantities + ["estimated_curvature"],
        values + [record.estimated_curvature],
        ["s"] * len(values) + ["1/cm"],
        ["simulated"] * len(values) + ["estimated"],
    ]
    warning = "toy model: the 1/11 estimator normalization is not reproduced"
    return _payload(args, columns, [warning])


@_command(
    "report", "full claims-reproduction report",
    seed=_integer("S", 42), samples=_integer("N", 1_000_000), partitions=_integer("P", 1),
)
def _cmd_report(args: argparse.Namespace) -> dict[str, Any]:
    from .report import ClaimRow, build_claim_report  # loads NumPy; see _cmd_mc

    report = build_claim_report(seed=args.seed, samples=args.samples, partitions=args.partitions)
    rows = _Table(list(ClaimRow._fields), list(zip(*report.rows)))
    # _asdict is shallow, so the constants block is turned into a dict here: a JSON object.
    payload = {**report._asdict(), "constants": report.constants._asdict(), "rows": rows}
    return {"command": "report", **payload, "warnings": []}


def _quantity_spellings(options: dict[str, dict[str, Any]]) -> frozenset[str]:
    """Each `--name` that argparse reads as one of these quantity options.

    That is the option's full name, or a prefix of it that no other option
    of the subcommand, --format, --precision and --help included, starts with.
    """
    names = ["--format", "--precision", "--help", *(f"--{option}" for option in options)]
    quantities = [f"--{o}" for o, kw in options.items() if isinstance(kw.get("type"), _Quantity)]
    return frozenset(
        name[:end] for name in quantities for end in range(3, len(name) + 1)
        if end == len(name) or [n for n in names if n.startswith(name[:end])] == [name]
    )


# subcommand: the spellings of its quantity options, for _join_negative_quantities.
_QUANTITY_SPELLINGS = {name: _quantity_spellings(opts) for name, (_, opts, _) in _COMMANDS.items()}


# ---------------------------------------------------------------------------
# rendering

_VALUE_KEYS = ("value", "computed_value")
_MIN_NORMAL = sys.float_info.min

# The json module, bound by the first JSON render (see _render): the table
# format, which most runs use, and CSV do not need it.
json: Any = None


class _Table:
    """A row table held column by column: names[i] heads columns[i]."""

    def __init__(self, names: list[str], columns: list[Sequence[Any]]) -> None:
        self.names = names
        self.columns = columns


def _render(payload: dict[str, Any], fmt: str, precision: int) -> str:
    """Render the payload with row values and float params rounded to the display precision.

    The rows _Table becomes the cells of fmt column by column, and the raw
    table is released before one join builds the text.  The report's
    constants block keeps full precision.
    """
    global json
    if fmt == "json" and json is None:
        import json
    table = payload["rows"]
    cells = _Table(table.names, [
        _cells(column, fmt, precision, rounded=name in _VALUE_KEYS)
        for name, column in zip(table.names, table.columns)
    ])
    rendered = {**payload, "rows": cells}
    if "params" in payload:
        params = payload["params"]
        rendered["params"] = {key: _round_float(value, precision) for key, value in params.items()}
    del payload, table  # frees the raw columns, whose last reference main passes (3.11+)
    if fmt == "json":
        return _json_text(rendered)
    return _csv_text(cells) if fmt == "csv" else _render_table(rendered, precision)


def _cells(values: Sequence[Any], fmt: str, precision: int, rounded: bool) -> list[str]:
    """The cells for fmt of a column of leaf values, its floats rounded to the precision if rounded.

    At precision <= 15 a zero or normal float below 1e308 keeps its digits
    through the rounded double, so f"{v:.{precision}g}" is the table/CSV
    cell and, but for repr's ".0" and fixed notation below e+16, the JSON
    text.  So a rounded float column is formatted whole, by one "%.{p}g"
    call split at its separators, and only the cells that may differ are
    written again value by value: those without "e-" (zero, fixed notation,
    e+NN, inf, nan or near the largest double) but for fixed notation with
    a point, and those with "e-3" (perhaps subnormal), all found at C level.
    Any other column is written value by value.  A value outside the rule
    above goes through _round_float, which keeps its DomainError.  A JSON
    column of strings whose first string repeats encodes each distinct
    string once, so its equal cells share one object.
    """
    kinds = set(map(type, values))
    if kinds == {str} and fmt == "json":
        encode = json.encoder.encode_basestring
        if values.count(values[0]) > 1:
            distinct = set(values)
            encode = dict(zip(distinct, map(encode, distinct))).__getitem__
        return list(map(encode, values))
    if kinds == {str}:
        return list(values)
    once, as_json, spec = rounded and precision <= 15, fmt == "json", f".{precision}g"
    if once and kinds == {float}:
        text = f"%{spec}\0" * len(values) % tuple(values)
        cells = text.split("\0")
        cells.pop()  # the empty text after the last separator
        # Each cell holds "e-" and "e-3" at most once, so counting them in the
        # text tells each search how many cells to find; it stops at the last.
        missing, tiny = len(cells) - text.count("e-"), text.count("e-3")
        if missing + tiny in (0, len(cells)):  # no cell or every cell: nothing to search
            pending = range(missing + tiny)
        else:
            indices = range(len(cells))
            without = map(not_, map(contains, cells, repeat("e-")))
            pending = [
                *islice(compress(indices, without), missing),
                *islice(compress(indices, map(contains, cells, repeat("e-3"))), tiny),
            ]
    else:
        cells, pending = [""] * len(values), range(len(values))
    for index in pending:
        value, cell = values[index], cells[index]
        if "." in cell and "e" not in cell:  # fixed notation with a point is final
            continue
        if once and isinstance(value, float) and (_MIN_NORMAL <= abs(value) < 1e308 or not value):
            cell = cell or format(value, spec)  # a whole column's text is already this
            if as_json and "e" not in cell and "." not in cell:
                cell += ".0"
            elif as_json and "e+" in cell and int(cell.split("e+")[1]) < 16:
                cell = float.__repr__(float(cell))
        else:
            value = _round_float(value, precision) if rounded else value
            if as_json:
                cell = _strict_json(value)
            else:
                cell = format(value, spec) if isinstance(value, float) else str(value)
        cells[index] = cell
    return cells


def _round_float(value: Any, precision: int) -> Any:
    """Round a float to the display precision; a non-finite result is a domain error.

    Checking the rounded value also catches a finite value that rounds
    past the largest double at low precision.  Other values pass through.
    """
    if isinstance(value, float):
        rounded = float(f"{value:.{precision}g}")
        if not math.isfinite(rounded):
            raise DomainError(
                f"output value {value!r} is not finite at {precision} significant digits; "
                "the input is outside the representable range"
            )
        return rounded
    return value


def _strict_json(value: Any) -> str:
    """value as json.dumps(indent=2, ensure_ascii=False) writes it; NaN or inf is a DomainError."""
    try:
        return json.dumps(value, indent=2, ensure_ascii=False, allow_nan=False)
    except ValueError:
        raise DomainError("an output value is not finite; JSON has no encoding for it") from None


def _json_text(payload: dict[str, Any]) -> str:
    """A payload whose rows are a _Table of JSON texts as json.dumps(indent=2) writes it."""
    parts, opening = [], "{\n  "
    for key, value in payload.items():
        parts.append(f"{opening}{json.encoder.encode_basestring(key)}: ")
        opening = ",\n  "
        if key != "rows":  # the stdlib's lines, one level deeper
            parts.append(_strict_json(value).replace("\n", "\n  "))
        elif not value.columns or not value.columns[0]:
            parts.append("[]")
        else:  # a list of row dicts, written column by column
            count, start = len(value.columns[0]), len(parts)
            keys = [f"\n      {json.encoder.encode_basestring(name)}: " for name in value.names]
            width = 2 * len(keys)
            parts.extend(repeat("", width * count))  # grown in place: no temporary list
            for field, (field_key, column) in enumerate(zip(keys, value.columns)):
                lead = "," if field else "\n    },\n    {"  # a row's first key closes the last row
                parts[start + 2 * field :: width] = [lead + field_key] * count
                parts[start + 2 * field + 1 :: width] = column
            parts[start] = "[\n    {" + keys[0]
            parts.append("\n    }\n  ]")
    parts.append("\n}\n")
    return "".join(parts)


def _csv_text(table: _Table) -> str:
    """The names and rows of a _Table of cells as csv.writer(...).writerows writes them: rows
    end in CRLF, and a cell holding , " CR or LF, or a row's only cell when empty, is quoted
    with its quotes doubled.  One search of a column's joined text clears most columns."""
    width = len(table.columns)
    parts = ([","] * (2 * width - 1) + ["\r\n"]) * (len(table.columns[0]) + 1 if width else 1)
    for field, (name, column) in enumerate(zip(table.names, table.columns)):
        cells = [name, *column]
        text = "".join(cells)
        if width == 1 or any(mark in text for mark in ',"\r\n'):
            cells = [
                '"' + cell.replace('"', '""') + '"'
                if width == 1 and not cell or any(mark in cell for mark in ',"\r\n') else cell
                for cell in cells
            ]
        parts[2 * field :: 2 * width] = cells
    return "".join(parts)


def _render_table(payload: dict[str, Any], precision: int) -> str:
    lines: list[str] = []
    for key, value in payload.items():
        if isinstance(value, list):
            lines.extend(f"{key.rstrip('s')}: {item}" for item in value)
        elif key not in ("rows", "command"):
            fields = value if isinstance(value, dict) else {key: value}
            cells = _cells(list(fields.values()), "table", precision, rounded=False)
            lines.extend(f"{name}: {cell}" for name, cell in zip(fields, cells))
    names, columns = payload["rows"].names, payload["rows"].columns
    if columns and columns[0]:
        widths = [max(len(name), *map(len, column)) for name, column in zip(names, columns)]
        template = "  ".join(f"%-{width}s" for width in widths)
        if lines:
            lines.append("")
        for row in (names, ["-" * width for width in widths], *zip(*columns)):
            lines.append((template % tuple(row)).rstrip())
    lines.append("")  # the closing newline, in the one join
    return "\n".join(lines) or "\n"  # an empty payload is one newline
