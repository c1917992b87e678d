"""The four workloads: the argv each operation sends, and the check of its output.

Every operation's inputs come from `random.Random(f"{name}:ops:{seed}")`, so
a seed fixes the whole sequence and the program only ever sees the argv.
A check returns None when the output is right, or a short reason.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

# CODATA 2018 in CGS, restated here so the sweep's reference values do not
# come from the program under test.
_C, _HBAR, _G = 2.99792458e10, 1.054571817e-27, 6.67430e-8
_LN_LP = 0.5 * (math.log(_HBAR) + math.log(_G) - 3.0 * math.log(_C))
_LN_TP = _LN_LP - math.log(_C)
_LN_MP = 0.5 * (math.log(_HBAR) + math.log(_C) - math.log(_G))
_LN_COEFF = math.log(math.sqrt(15.0 - 6.0 * 2.0 ** (2.0 / 3.0) + 3.0 ** (2.0 / 3.0)) / 11.0)
_LN_RHO_SCALE = math.log(_HBAR) - math.log(_C) - (2.0 / 3.0) * _LN_LP

# The sweep spans the input range the test suite covers, on which every
# query is expected to succeed.  Beyond it lie the known whole-domain
# defects (tracebacks, Infinity, precision loss), which a benchmark of
# operations that must not fail leaves to the tests.
SWEEP_LOW, SWEEP_HIGH = 1e-30, 1e12
# Six significant digits of output (the default --precision) round by at
# most 5e-6 relative.
VALUE_RTOL = 1e-5

MC_SAMPLES = 10_000_000
BOUNCE_PULSES = 20_000
BOUNCE_SEPARATION = 1.0


class Output:
    """What one call of `foamlab.cli.main` left behind."""

    def __init__(self, code, stdout: str, stderr: str) -> None:
        self.code = code  # exit code, or the exception that escaped main
        self.stdout = stdout
        self.stderr = stderr
        self.rows = 0  # rows of the rendered payload, once a check has parsed it


def strict_json(text: str):
    """Parse RFC 8259 JSON: reject Infinity, -Infinity and NaN."""

    def reject(token: str):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


class SchemaCheck:
    """Validate CLI output against `schemas/cli_output.schema.json`.

    Outputs with many rows (bounce-long has 40,001) are validated in two
    parts: jsonschema validates the document with its first row, and every
    row is checked against the row definition that document's branch of
    the schema names.  The row check supports exactly the keywords the row
    definitions use and refuses a schema that uses any other.
    """

    _ROW_KEYWORDS = {"type", "required", "additionalProperties", "properties"}
    _FIELD_KEYWORDS = {"type", "enum", "const"}
    _JSON_TYPES = {
        "string": lambda v: isinstance(v, str),
        "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
        "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
        "null": lambda v: v is None,
    }

    def __init__(self, schema: dict) -> None:
        import jsonschema

        cls = jsonschema.validators.validator_for(schema)
        self.validator = cls(schema)
        defs = schema["$defs"]
        envelope = {key: value for key, value in schema.items() if key != "oneOf"}
        self.branches = []
        for branch in schema["oneOf"]:
            body = defs[branch["$ref"].rsplit("/", 1)[-1]]
            row_ref = body["properties"]["rows"]["items"]["$ref"]
            row_check = self._compile_row(defs[row_ref.rsplit("/", 1)[-1]])
            self.branches.append((cls({**envelope, **branch}), row_check))

    def __call__(self, doc) -> str | None:
        rows = doc.get("rows") if isinstance(doc, dict) else None
        if not isinstance(rows, list) or len(rows) <= 64:
            error = next(self.validator.iter_errors(doc), None)
            return None if error is None else f"schema: {error.message[:80]}"
        head = {**doc, "rows": rows[:1]}
        error = next(self.validator.iter_errors(head), None)
        if error is not None:
            return f"schema: {error.message[:80]}"
        row_check = next(check for validator, check in self.branches if validator.is_valid(head))
        for row in rows:
            reason = row_check(row)
            if reason:
                return f"schema: {reason}"
        return None

    def _compile_row(self, row_schema: dict) -> Callable:
        if set(row_schema) - self._ROW_KEYWORDS or row_schema.get("type") != "object":
            raise ValueError(f"row schema uses keywords the row check lacks: {row_schema}")
        required = set(row_schema.get("required", ()))
        closed = row_schema.get("additionalProperties") is False
        fields = {}
        for key, spec in row_schema["properties"].items():
            if set(spec) - self._FIELD_KEYWORDS:
                raise ValueError(f"row field {key!r} uses keywords the row check lacks: {spec}")
            types = spec.get("type")
            types = [types] if isinstance(types, str) else types
            tests = []
            if types is not None:
                kinds = [self._JSON_TYPES[t] for t in types]
                tests.append(lambda v, kinds=kinds: any(kind(v) for kind in kinds))
            if "enum" in spec:
                tests.append(lambda v, allowed=spec["enum"]: v in allowed)
            if "const" in spec:
                tests.append(lambda v, const=spec["const"]: v == const)
            fields[key] = tests

        def check(row) -> str | None:
            if not isinstance(row, dict):
                return "row is not an object"
            if not required <= row.keys():
                return f"row lacks {sorted(required - row.keys())}"
            for key, value in row.items():
                tests = fields.get(key)
                if tests is None:
                    if closed:
                        return f"row has extra key {key!r}"
                elif not all(test(value) for test in tests):
                    return f"row field {key!r} = {value!r} is invalid"
            return None

        return check


def _json_rows(out: Output, schema: SchemaCheck) -> tuple[dict | None, str | None]:
    """The strict-JSON, schema-valid document of a successful call."""
    if isinstance(out.code, BaseException):
        return None, f"exception {type(out.code).__name__}"
    if out.code != 0:
        return None, f"exit {out.code}"
    try:
        doc = strict_json(out.stdout)
    except ValueError as exc:
        return None, f"invalid JSON ({str(exc)[:40]})"
    reason = schema(doc)
    if reason:
        return None, reason
    out.rows = len(doc["rows"])
    return doc, None


# ---------------------------------------------------------------------------
# report-default


def report_argv(rng: random.Random) -> list[str]:
    return ["report", "--format", "json", "--seed", str(rng.randrange(2**32))]


def report_check(argv: list[str], out: Output, schema: SchemaCheck) -> str | None:
    doc, reason = _json_rows(out, schema)
    if reason:
        return reason
    if doc["seed"] != int(argv[-1]) or doc["samples"] != 1_000_000:
        return "report provenance does not match the request"
    unreproduced = [
        row["claim_id"]
        for row in doc["rows"]
        if row["status"] != "reproduced" and row["claim_id"] != "clock-mass-1s"
    ]
    return f"unreproduced rows {unreproduced}" if unreproduced else None


# ---------------------------------------------------------------------------
# mc-large


def mc_argv(rng: random.Random) -> list[str]:
    return [
        "mc", "--length", "1cm", "--samples", str(MC_SAMPLES), "--partitions", "2",
        "--seed", str(rng.randrange(2**32)), "--format", "json",
    ]


def mc_check(argv: list[str], out: Output, schema: SchemaCheck) -> str | None:
    doc, reason = _json_rows(out, schema)
    if reason:
        return reason
    values = {row["quantity"]: row["value"] for row in doc["rows"]}
    bound = 7.0 * math.sqrt(2.0 / (MC_SAMPLES - 1))
    error = values.get("relative_error")
    if not (isinstance(error, (int, float)) and 0.0 <= error <= bound):
        return f"relative_error outside 7 sigma ({bound:.3g})"
    return None


# ---------------------------------------------------------------------------
# bounce-long


def bounce_argv(rng: random.Random) -> list[str]:
    # K log-uniform in [0.8e-9, 1.25e-9]: the window guard
    # sqrt(K) (pulses + 1) l stays at or below 0.71 < 1.
    curvature = math.exp(rng.uniform(math.log(0.8e-9), math.log(1.25e-9)))
    return [
        "bounce", "--curvature", repr(curvature), "--separation", f"{BOUNCE_SEPARATION}cm",
        "--pulses", str(BOUNCE_PULSES), "--format", "json",
    ]


def bounce_check(argv: list[str], out: Output, schema: SchemaCheck) -> str | None:
    doc, reason = _json_rows(out, schema)
    if reason:
        return reason
    rows = doc["rows"]
    if len(rows) != 2 * BOUNCE_PULSES + 1:
        return f"{len(rows)} rows for {BOUNCE_PULSES} pulses"
    elapsed = 0.0
    for index in range(BOUNCE_PULSES):
        trip, epoch = rows[2 * index], rows[2 * index + 1]
        if trip["quantity"] != f"t_{index + 1}" or epoch["quantity"] != f"epoch_{index + 1}":
            return f"row order broken at pulse {index + 1}"
        if abs(epoch["value"] - elapsed) > VALUE_RTOL * elapsed:
            return f"epoch_{index + 1} is not the sum of the trips before it"
        elapsed += trip["value"]
    curvature = float(argv[argv.index("--curvature") + 1])
    expected = -BOUNCE_SEPARATION * curvature / 11.0
    estimate = rows[-1]["value"]
    if rows[-1]["quantity"] != "estimated_curvature" or abs(estimate / expected - 1.0) > 1e-3:
        return "estimate not within 1e-3 of -l K / 11"
    return None


# ---------------------------------------------------------------------------
# closed-form-sweep

# (subcommand, flag) -> {quantity: ln(reference) as a function of ln(input)}
_SWEEP_QUERIES = {
    ("uncertainty", "--length"): {"delta_length": lambda x: (2 * _LN_LP + x) / 3},
    ("uncertainty", "--time"): {"delta_time": lambda x: (2 * _LN_TP + x) / 3},
    ("clock-mass", "--length"): {"clock_mass": lambda x: _LN_MP + (x - _LN_LP) / 3},
    ("fluct", "--length"): {
        "delta_c": lambda x: _LN_COEFF - x + 2 * (_LN_LP - x) / 3,
        "delta_r": lambda x: -2 * x + 4 * (_LN_LP - x) / 3,
        "delta_rho": lambda x: _LN_RHO_SCALE - 10 * x / 3,
    },
    ("threshold", "--density"): {"max_length": lambda x: 0.3 * (_LN_RHO_SCALE - x)},
}


def sweep_argv(rng: random.Random) -> list[str]:
    command, flag = rng.choice(list(_SWEEP_QUERIES))
    value = math.exp(rng.uniform(math.log(SWEEP_LOW), math.log(SWEEP_HIGH)))
    return [command, flag, repr(value), "--format", rng.choice(("table", "csv", "json"))]


def _text_values(fmt: str, text: str) -> dict[str, str]:
    """quantity -> printed value of a table or CSV rendering."""
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != ["quantity", "value", "unit", "status"]:
            raise ValueError("bad CSV header")
        return {row[0]: row[1] for row in rows[1:]}
    lines = text.splitlines()
    dashes = next(i for i, line in enumerate(lines) if line and set(line) <= {"-", " "})
    if lines[dashes - 1].split() != ["quantity", "value", "unit", "status"]:
        raise ValueError("bad table header")
    return {line.split()[0]: line.split()[1] for line in lines[dashes + 1:] if line.strip()}


def sweep_check(argv: list[str], out: Output, schema: SchemaCheck) -> str | None:
    command, flag, text, _, fmt = argv
    references = _SWEEP_QUERIES[(command, flag)]
    if isinstance(out.code, BaseException):
        return f"{command}: exception {type(out.code).__name__}"
    if out.code == 1:
        lines = out.stderr.splitlines()
        if len(lines) == 1 and lines[0].startswith("foamlab: error: ") and not out.stdout:
            return None
        return f"{command}: exit 1 without one 'foamlab: error:' line"
    if out.code != 0:
        return f"{command}: exit {out.code}"
    try:
        if fmt == "json":
            doc, reason = _json_rows(out, schema)
            if reason:
                return f"{command}: {reason}"
            printed = {row["quantity"]: row["value"] for row in doc["rows"]}
        else:
            printed = {k: float(v) for k, v in _text_values(fmt, out.stdout).items()}
            out.rows = len(printed)
    except (ValueError, StopIteration, IndexError) as exc:
        return f"{command}: unparsable {fmt} output ({type(exc).__name__})"
    if printed.keys() != references.keys():
        return f"{command}: quantities {sorted(printed)}"
    ln_input = math.log(float(text))
    for quantity, reference in references.items():
        value, ln_ref = printed[quantity], reference(ln_input)
        if not math.isfinite(value):
            return f"{command}: non-finite {quantity} on exit 0"
        if abs(value / math.exp(ln_ref) - 1.0) > VALUE_RTOL:
            return f"{command}: {quantity} differs from the reference by more than {VALUE_RTOL}"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[random.Random], list[str]]
    check: Callable[[list[str], Output, SchemaCheck], str | None]
    items_per_op: int  # work items per operation, for items_per_s
    item: str  # what items_per_op counts, plural
    memory_ops: int  # operations in the tracemalloc pass
    warmup_ops: int

    def rng(self, seed: int, stream: str = "ops") -> random.Random:
        return random.Random(f"{self.name}:{stream}:{seed}")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("report-default", report_argv, report_check, 1_000_000, "MC samples", 1, 1),
        Workload("mc-large", mc_argv, mc_check, MC_SAMPLES, "MC samples", 1, 1),
        Workload("bounce-long", bounce_argv, bounce_check, BOUNCE_PULSES, "pulses", 1, 1),
        Workload("closed-form-sweep", sweep_argv, sweep_check, 1, "queries", 200, 50),
    )
}
