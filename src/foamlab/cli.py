"""Command-line front end.

Every subcommand renders one payload as a UTF-8 table (default),
RFC-4180-style CSV, or a single JSON object; the three renderings carry
the same numeric values at the selected precision.  Quantities accept an
optional unit suffix glued to the number (`1e-5cm`, `2.5s`,
`1e-29g/cm3`, and `4e-61/cm2`, which is 4e-6 with the `1/cm2` suffix);
no locale-dependent parsing.  A negative quantity may follow its option
after a space as after `=`.  Exit status: 0 on success, 2 on usage
errors, 1 on domain errors (message on stderr).
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import sys
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
    """The foamlab parser, built on the first call and reused: a parse leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="foamlab",
        description="cube-root space-time measurement uncertainty toolkit (CGS units)",
        **_HELP_LAYOUT,
    )
    parser.add_argument("--version", action="version", version=f"foamlab {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
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


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(_join_negative_quantities(argv))
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
    sys.stdout.write(output)
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
    quantities = [name for i in range(1, args.pulses + 1) for name in (f"t_{i}", f"epoch_{i}")]
    values = [value for pair in zip(record.times, record.emission_epochs) for value in pair]
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

# The json and csv modules, bound by the first render in their format (see
# _render): the table format, which most runs use, needs neither.
json: Any = None
csv: Any = None


class _Table:
    """A row table held column by column: names[i] heads columns[i]."""

    def __init__(self, names: list[str], columns: list[Sequence[Any]]) -> None:
        self.names = names
        self.columns = columns


def _render(payload: dict[str, Any], fmt: str, precision: int) -> str:
    """Render the payload with row values and float params rounded to the display precision.

    The rows _Table becomes the cells of fmt column by column.  The report's
    constants block keeps full precision.
    """
    global json, csv
    if fmt == "json" and json is None:
        import json
    elif fmt == "csv" and csv is None:
        import csv
    table = payload["rows"]
    columns = [
        _cells(column, fmt, precision, rounded=name in _VALUE_KEYS)
        for name, column in zip(table.names, table.columns)
    ]
    rendered = {**payload, "rows": _Table(table.names, columns)}
    if "params" in payload:
        params = payload["params"]
        rendered["params"] = {key: _round_float(value, precision) for key, value in params.items()}
    if fmt == "json":
        items = []
        for key, value in rendered.items():
            if key == "rows":
                text = _json_table(value, "  ")
            else:  # the stdlib's lines, one level deeper
                text = _strict_json(value).replace("\n", "\n  ")
            items.append(f"  {json.encoder.encode_basestring(key)}: {text}")
        return "{\n" + ",\n".join(items) + "\n}\n"
    if fmt == "csv":
        buffer = io.StringIO()  # RFC-4180-style, CRLF endings
        csv.writer(buffer).writerows([table.names, *zip(*columns)])
        return buffer.getvalue()
    return _render_table(rendered, precision)


def _cells(values: Sequence[Any], fmt: str, precision: int, rounded: bool) -> list[str]:
    """The cells for fmt of a column of leaf values, its floats rounded to the precision if rounded.

    A rounded float is formatted once: at precision <= 15 a zero or normal
    float below 1e308 keeps its digits through the rounded double, so
    f"{v:.{precision}g}" is the table/CSV cell and, but for repr's ".0" and
    fixed notation below e+16, the JSON text.  Any other value goes through
    _round_float, which keeps its DomainError.
    """
    as_json = fmt == "json"
    if set(map(type, values)) == {str}:
        return list(map(json.encoder.encode_basestring, values)) if as_json else list(values)
    once, spec = rounded and precision <= 15, f".{precision}g"
    cells = []
    for value in values:
        if once and isinstance(value, float) and (_MIN_NORMAL <= abs(value) < 1e308 or not value):
            cell = format(value, spec)
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
        cells.append(cell)
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


def _json_table(table: _Table, indent: str) -> str:
    """The rows of a _Table of JSON texts as json.dumps(indent=2) writes row dicts at indent."""
    if not table.columns or not table.columns[0]:
        return "[]"
    row, count = indent + "  ", len(table.columns[0])
    keys = [f"{row}  {json.encoder.encode_basestring(name)}: " for name in table.names]
    width = 2 * len(keys)
    parts = [""] * (width * count)
    for field, (key, column) in enumerate(zip(keys, table.columns)):
        # A row's first key closes the row before it and opens its own.
        opening = f",\n{key}" if field else f"\n{row}}},\n{row}{{\n{key}"
        parts[2 * field :: width] = [opening] * count
        parts[2 * field + 1 :: width] = column
    parts[0] = f"[\n{row}{{\n{keys[0]}"
    return "".join(parts) + f"\n{row}}}\n{indent}]"


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
    return "\n".join(lines) + "\n"
