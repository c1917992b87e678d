"""Command-line front end.

Every subcommand renders one payload as a UTF-8 table (default),
RFC-4180-style CSV, or a single JSON object; the three renderings carry
the same numeric values at the selected precision.  Quantities accept an
optional unit suffix glued to the number (`1e-5cm`, `2.5s`,
`1e-29g/cm3`, and `4e-61/cm2`, which is 4e-6 with the `1/cm2` suffix);
no locale-dependent parsing.  Exit status: 0 on success, 2 on usage
errors, 1 on domain errors (message on stderr).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict
from typing import Any

from . import __version__
from .constants import default_constants, load_constants, validate_constants
from .errors import ConfigError, ConsistencyError, DomainError
from .laws import UncertaintyLaw
from .montecarlo import McConfig, verify_curvature_uncertainty
from .report import build_claim_report
from .wigner import fluctuation_profile, linearization_ok
from . import bounce

_UNITS = {
    "length": ("cm",),
    "time": ("s",),
    "density": ("g/cm3",),
    "curvature": ("1/cm2",),
}

_EPILOG = (
    "quantities are CGS and accept an optional unit suffix glued to the number:\n"
    "  lengths NUMBER[cm], times NUMBER[s], densities NUMBER[g/cm3],\n"
    "  curvatures NUMBER[1/cm2]   e.g. --length 1e-5cm, --density 1e-29g/cm3"
)


def _precision(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"precision must be at least 1, got {value}")
    return value


def _quantity_parser(kind: str):
    suffixes = _UNITS[kind]

    def parse(text: str) -> float:
        stripped = text.strip()
        number = stripped
        for suffix in sorted(suffixes, key=len, reverse=True):
            if stripped.endswith(suffix):
                number = stripped[: -len(suffix)].strip()
                break
        try:
            return float(number)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected NUMBER[{suffixes[0]}], got {text!r}"
            ) from None

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foamlab",
        description="cube-root space-time measurement uncertainty toolkit (CGS units)",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"foamlab {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, help_text: str):
        sub = commands.add_parser(
            name,
            help=help_text,
            epilog=_EPILOG,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        sub.add_argument(
            "--format", choices=("table", "csv", "json"), default="table",
            help="output rendering (default: table)",
        )
        sub.add_argument(
            "--precision", type=_precision, default=6, metavar="N",
            help="significant digits for printed numbers (default: 6)",
        )
        return sub

    sub = add_command("constants", "print the active constant set")
    sub.add_argument("--config", metavar="FILE", help="key = value document with c, hbar, G")
    sub.set_defaults(handler=_cmd_constants)

    sub = add_command("uncertainty", "cube-root length/time uncertainty")
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--length", type=_quantity_parser("length"), metavar="L[cm]")
    group.add_argument("--time", type=_quantity_parser("time"), metavar="T[s]")
    sub.set_defaults(handler=_cmd_uncertainty)

    sub = add_command("clock-mass", "optimal clock mass for a length measurement")
    sub.add_argument("--length", type=_quantity_parser("length"), metavar="L[cm]", required=True)
    sub.set_defaults(handler=_cmd_clock_mass)

    sub = add_command("fluct", "curvature / Riemann-scalar / density fluctuations")
    sub.add_argument("--length", type=_quantity_parser("length"), metavar="L[cm]", required=True)
    sub.set_defaults(handler=_cmd_fluct)

    sub = add_command("threshold", "largest length keeping density fluctuations below a bound")
    sub.add_argument(
        "--density", type=_quantity_parser("density"), metavar="RHO[g/cm3]", required=True
    )
    sub.set_defaults(handler=_cmd_threshold)

    sub = add_command("mc", "Monte Carlo verification of the curvature noise law")
    sub.add_argument("--length", type=_quantity_parser("length"), metavar="L[cm]", required=True)
    sub.add_argument("--samples", type=int, required=True, metavar="N")
    sub.add_argument("--seed", type=int, required=True, metavar="S")
    sub.add_argument("--partitions", type=int, default=1, metavar="P")
    sub.set_defaults(handler=_cmd_mc)

    sub = add_command("bounce", "toy clock-mirror bounce simulation")
    sub.add_argument(
        "--curvature", type=_quantity_parser("curvature"), metavar="K[1/cm2]", required=True
    )
    sub.add_argument(
        "--separation", type=_quantity_parser("length"), metavar="L[cm]", required=True
    )
    sub.add_argument("--pulses", type=int, default=3, metavar="N")
    sub.set_defaults(handler=_cmd_bounce)

    sub = add_command("report", "full claims-reproduction report")
    sub.add_argument("--seed", type=int, default=42, metavar="S")
    sub.add_argument("--samples", type=int, default=1_000_000, metavar="N")
    sub.add_argument("--partitions", type=int, default=1, metavar="P")
    sub.set_defaults(handler=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
# subcommand handlers: each returns a payload dict with a "rows" table


def _cmd_constants(args: argparse.Namespace) -> dict[str, Any]:
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config!r}: {exc}") from None
        constants = load_constants(text)
    else:
        constants = default_constants()
    rows = [
        {"name": "c", "value": constants.c, "unit": "cm/s"},
        {"name": "hbar", "value": constants.hbar, "unit": "erg s"},
        {"name": "G", "value": constants.G, "unit": "cm3/(g s2)"},
        {"name": "l_planck", "value": constants.l_planck, "unit": "cm"},
        {"name": "t_planck", "value": constants.t_planck, "unit": "s"},
        {"name": "m_planck", "value": constants.m_planck, "unit": "g"},
    ]
    return {
        "command": "constants",
        "params": {"config": args.config},
        "rows": rows,
        "violations": validate_constants(constants),
        "warnings": [],
    }


def _cmd_uncertainty(args: argparse.Namespace) -> dict[str, Any]:
    law = UncertaintyLaw()
    warnings: list[str] = []
    if args.length is not None:
        value = law.length_uncertainty(args.length)
        if law.sub_planck_length(args.length):
            warnings.append("input below the Planck length; result is physically meaningless")
        params = {"kind": "length", "input": args.length, "input_unit": "cm"}
        rows = [{"quantity": "delta_length", "value": value, "unit": "cm", "status": "closed-form"}]
    else:
        value = law.time_uncertainty(args.time)
        if law.sub_planck_time(args.time):
            warnings.append("input below the Planck time; result is physically meaningless")
        params = {"kind": "time", "input": args.time, "input_unit": "s"}
        rows = [{"quantity": "delta_time", "value": value, "unit": "s", "status": "closed-form"}]
    return {"command": "uncertainty", "params": params, "rows": rows, "warnings": warnings}


def _cmd_clock_mass(args: argparse.Namespace) -> dict[str, Any]:
    law = UncertaintyLaw()
    warnings: list[str] = []
    if law.sub_planck_length(args.length):
        warnings.append("input below the Planck length; result is physically meaningless")
    return {
        "command": "clock-mass",
        "params": {"length": args.length, "length_unit": "cm"},
        "rows": [
            {
                "quantity": "clock_mass",
                "value": law.clock_mass(args.length),
                "unit": "g",
                "status": "closed-form",
            }
        ],
        "warnings": warnings,
    }


def _cmd_fluct(args: argparse.Namespace) -> dict[str, Any]:
    law = UncertaintyLaw()
    profile = fluctuation_profile(args.length, law.constants)
    warnings: list[str] = []
    if law.sub_planck_length(args.length):
        warnings.append("input below the Planck length; result is physically meaningless")
    if not linearization_ok(args.length, law.constants):
        warnings.append("linearization questionable: l is below 100 Planck lengths")
    rows = [
        {"quantity": "delta_c", "value": profile.delta_c, "unit": "1/cm", "status": "closed-form"},
        {
            "quantity": "delta_r",
            "value": profile.delta_r,
            "unit": "1/cm2",
            "status": "order-of-magnitude",
        },
        {
            "quantity": "delta_rho",
            "value": profile.delta_rho,
            "unit": "g/cm3",
            "status": "order-of-magnitude",
        },
    ]
    return {
        "command": "fluct",
        "params": {"length": args.length, "length_unit": "cm"},
        "rows": rows,
        "warnings": warnings,
    }


def _cmd_threshold(args: argparse.Namespace) -> dict[str, Any]:
    law = UncertaintyLaw()
    return {
        "command": "threshold",
        "params": {"density": args.density, "density_unit": "g/cm3"},
        "rows": [
            {
                "quantity": "max_length",
                "value": law.max_length_for_density(args.density),
                "unit": "cm",
                "status": "order-of-magnitude",
            }
        ],
        "warnings": [],
    }


def _cmd_mc(args: argparse.Namespace) -> dict[str, Any]:
    config = McConfig(
        l=args.length, n_samples=args.samples, seed=args.seed, n_partitions=args.partitions
    )
    result = verify_curvature_uncertainty(config)
    rows = [
        {
            "quantity": "empirical_variance",
            "value": result.empirical_variance,
            "unit": "s2",
            "status": "empirical",
        },
        {
            "quantity": "closed_form_variance",
            "value": result.closed_form_variance,
            "unit": "s2",
            "status": "closed-form",
        },
        {
            "quantity": "variance_ratio_empirical",
            "value": result.empirical_variance / result.sigma2,
            "unit": "-",
            "status": "empirical",
        },
        {
            "quantity": "variance_ratio_closed",
            "value": result.closed_form_variance / result.sigma2,
            "unit": "-",
            "status": "closed-form",
        },
        {
            "quantity": "relative_error",
            "value": result.relative_error,
            "unit": "-",
            "status": "derived",
        },
        {
            "quantity": "empirical_delta_c",
            "value": result.empirical_delta_c,
            "unit": "1/cm",
            "status": "empirical",
        },
        {
            "quantity": "closed_form_delta_c",
            "value": result.closed_form_delta_c,
            "unit": "1/cm",
            "status": "closed-form",
        },
    ]
    return {
        "command": "mc",
        "params": {
            "length": args.length,
            "length_unit": "cm",
            "samples": args.samples,
            "seed": args.seed,
            "partitions": args.partitions,
        },
        "rows": rows,
        "warnings": [],
    }


def _cmd_bounce(args: argparse.Namespace) -> dict[str, Any]:
    model = bounce.BounceModel(k=args.curvature, l=args.separation)
    record = bounce.simulate_round_trips(model, args.pulses)
    rows: list[dict[str, Any]] = []
    for index, (trip, epoch) in enumerate(zip(record.times, record.emission_epochs), start=1):
        rows.append(
            {"quantity": f"t_{index}", "value": trip, "unit": "s", "status": "simulated"}
        )
        rows.append(
            {"quantity": f"epoch_{index}", "value": epoch, "unit": "s", "status": "simulated"}
        )
    rows.append(
        {
            "quantity": "estimated_curvature",
            "value": record.estimated_curvature,
            "unit": "1/cm",
            "status": "estimated",
        }
    )
    return {
        "command": "bounce",
        "params": {
            "curvature": args.curvature,
            "curvature_unit": "1/cm2",
            "separation": args.separation,
            "separation_unit": "cm",
            "pulses": args.pulses,
        },
        "rows": rows,
        "warnings": ["toy model: the 1/11 estimator normalization is not reproduced"],
    }


def _cmd_report(args: argparse.Namespace) -> dict[str, Any]:
    report = build_claim_report(
        seed=args.seed, samples=args.samples, partitions=args.partitions
    )
    return {
        "command": "report",
        "version": report.version,
        "seed": report.seed,
        "samples": report.samples,
        "partitions": report.partitions,
        "constants": asdict(report.constants),
        "rows": [asdict(row) for row in report.rows],
        "warnings": [],
    }


# ---------------------------------------------------------------------------
# rendering

_VALUE_KEYS = ("value", "computed_value")


def _render(payload: dict[str, Any], fmt: str, precision: int) -> str:
    rounded = _round_payload(payload, precision)
    if fmt == "json":
        return json.dumps(rounded, indent=2, ensure_ascii=False) + "\n"
    if fmt == "csv":
        return _render_csv(rounded, precision)
    return _render_table(rounded, precision)


def _round_payload(payload: dict[str, Any], precision: int) -> dict[str, Any]:
    """Round row values (and float params) to the display precision.

    The report's embedded constants block is provenance and keeps full
    precision.
    """
    result = dict(payload)
    result["rows"] = [
        {
            key: (_round_float(value, precision) if key in _VALUE_KEYS else value)
            for key, value in row.items()
        }
        for row in payload["rows"]
    ]
    if "params" in payload:
        result["params"] = {
            key: (_round_float(value, precision) if isinstance(value, float) else value)
            for key, value in payload["params"].items()
        }
    return result


def _round_float(value: Any, precision: int) -> Any:
    """Round to the display precision; a non-finite result is a domain error.

    Checking the rounded value also catches a finite value that rounds
    past the largest double at low precision.
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


def _format_cell(value: Any, precision: int) -> str:
    if isinstance(value, float):
        return f"{value:.{precision}g}"
    return str(value)


def _render_csv(payload: dict[str, Any], precision: int) -> str:
    rows = payload["rows"]
    columns = list(rows[0].keys()) if rows else []
    buffer = io.StringIO()
    writer = csv.writer(buffer)  # default dialect: RFC-4180-style, CRLF endings
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_cell(row[column], precision) for column in columns])
    return buffer.getvalue()


def _render_table(payload: dict[str, Any], precision: int) -> str:
    lines: list[str] = []
    for key, value in payload.items():
        if key in ("rows", "command"):
            continue
        if isinstance(value, dict):
            for sub_key, sub_value in value.items():
                lines.append(f"{sub_key}: {_format_cell(sub_value, precision)}")
        elif isinstance(value, list):
            for item in value:
                label = "warning" if key == "warnings" else key.rstrip("s")
                lines.append(f"{label}: {item}")
        else:
            lines.append(f"{key}: {_format_cell(value, precision)}")
    rows = payload["rows"]
    if rows:
        columns = list(rows[0].keys())
        table = [[_format_cell(row[column], precision) for column in columns] for row in rows]
        widths = [
            max(len(columns[i]), max(len(line[i]) for line in table)) for i in range(len(columns))
        ]
        if lines:
            lines.append("")
        lines.append("  ".join(name.ljust(width) for name, width in zip(columns, widths)).rstrip())
        lines.append("  ".join("-" * width for width in widths))
        for line in table:
            lines.append("  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip())
    return "\n".join(lines) + "\n"
