import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from foamlab import bounce
from foamlab.cli import _VALUE_KEYS, _Table, _render, _round_float, build_parser
from foamlab.errors import DomainError

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = Path(__file__).parent / "golden"
SCHEMA = json.loads((REPO_ROOT / "schemas" / "cli_output.schema.json").read_text())

SAMPLE_INVOCATIONS = {
    "constants": ["constants", "--format", "json"],
    "uncertainty": ["uncertainty", "--length", "1cm", "--format", "json"],
    "clock-mass": ["clock-mass", "--length", "1cm", "--format", "json"],
    "fluct": ["fluct", "--length", "1e-5cm", "--format", "json"],
    "threshold": ["threshold", "--density", "1e-29g/cm3", "--format", "json"],
    "mc": ["mc", "--length", "1cm", "--samples", "2000", "--seed", "7", "--format", "json"],
    "bounce": [
        "bounce", "--curvature", "4e-61/cm2", "--separation", "1cm", "--pulses", "3",
        "--format", "json",
    ],
    "report": ["report", "--samples", "20000", "--format", "json"],
}


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, run_cli):
        code, _, _ = run_cli([])
        assert code == 2

    def test_unknown_flag_is_usage_error(self, run_cli):
        code, _, _ = run_cli(["uncertainty", "--bogus"])
        assert code == 2

    def test_unknown_subcommand_is_usage_error(self, run_cli):
        code, _, _ = run_cli(["frobnicate"])
        assert code == 2

    def test_malformed_quantity_is_usage_error(self, run_cli):
        code, _, _ = run_cli(["fluct", "--length", "abc"])
        assert code == 2

    def test_wrong_unit_suffix_is_usage_error(self, run_cli):
        code, _, _ = run_cli(["fluct", "--length", "1e-5s"])
        assert code == 2

    def test_zero_precision_is_usage_error(self, run_cli):
        code, _, _ = run_cli(["constants", "--precision", "0"])
        assert code == 2

    def test_exclusive_group_rejects_both(self, run_cli):
        code, _, _ = run_cli(["uncertainty", "--length", "1cm", "--time", "1s"])
        assert code == 2

    def test_negative_length_is_domain_error(self, run_cli):
        code, out, err = run_cli(["fluct", "--length=-1cm"])
        assert code == 1
        assert out == ""
        assert "error" in err and "positive" in err

    def test_zero_density_is_domain_error(self, run_cli):
        code, _, err = run_cli(["threshold", "--density", "0g/cm3"])
        assert code == 1
        assert "rho_max" in err

    def test_guard_violation_is_domain_error(self, run_cli):
        code, _, err = run_cli(["bounce", "--curvature", "0.05", "--separation", "1cm"])
        assert code == 1
        assert "guard" in err

    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_overflowing_result_is_domain_error(self, run_cli, fmt):
        # delta_rho = 1.72e308 rounds to 2e308, past the largest double, at one digit.
        argv = ["fluct", "--length", "7.1e-98", "--precision", "1", "--format", fmt]
        code, out, err = run_cli(argv)
        assert code == 1
        assert out == ""
        assert err.startswith("foamlab: error:") and err.count("\n") == 1

    @pytest.mark.parametrize("length", ["5e-324", "1e-300", "1e-200", "1e300"])
    def test_unrepresentable_mc_length_is_domain_error(self, run_cli, length):
        code, out, err = run_cli(["mc", "--length", length, "--samples", "1000", "--seed", "1"])
        assert code == 1
        assert out == ""
        assert err.startswith("foamlab: error:") and err.count("\n") == 1
        # The length given, not the t = l/c that underflows to 0 at 5e-324 cm.
        assert f"l = {float(length)!r} cm" in err

    def test_negative_report_seed_is_domain_error(self, run_cli):
        code, out, err = run_cli(["report", "--seed", "-3"])
        assert code == 1
        assert out == ""
        assert err.startswith("foamlab: error:") and err.count("\n") == 1

    def test_missing_config_file_is_domain_error(self, run_cli):
        code, _, err = run_cli(["constants", "--config", "/nonexistent/path.conf"])
        assert code == 1
        assert "config" in err

    @pytest.mark.parametrize("c", ["1e308", "1e-120", "3e-108"])
    def test_config_outside_double_range_is_domain_error(self, run_cli, tmp_path, c):
        # c**3 overflows at 1e308, underflows to 0 at 1e-120 and is subnormal at 3e-108.
        config = tmp_path / "extreme.conf"
        config.write_text(f"c = {c}\n")
        code, out, err = run_cli(["constants", "--config", str(config)])
        assert code == 1
        assert out == ""
        assert err.startswith("foamlab: error:") and err.count("\n") == 1

    def test_success_is_zero(self, run_cli):
        code, out, err = run_cli(["clock-mass", "--length", "1cm"])
        assert code == 0
        assert err == ""
        assert "clock_mass" in out


class TestQuantityParsing:
    @pytest.mark.parametrize(
        "text",
        ["1e-5cm", "1e-5 cm", "1e-5"],
    )
    def test_length_spellings(self, run_cli, text):
        code, out, _ = run_cli(["fluct", "--length", text, "--format", "json"])
        assert code == 0
        assert json.loads(out)["params"]["length"] == 1e-5

    def test_density_suffix(self, run_cli):
        code, out, _ = run_cli(["threshold", "--density", "1e-29g/cm3", "--format", "json"])
        assert code == 0
        assert json.loads(out)["params"]["density"] == 1e-29

    def test_curvature_suffix_disambiguation(self, run_cli):
        # "4e-61/cm2" is 4e-6 with the 1/cm2 suffix, not 4e-61
        code, out, _ = run_cli(
            ["bounce", "--curvature", "4e-61/cm2", "--separation", "1cm", "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["params"]["curvature"] == 4e-6

    @pytest.mark.parametrize(
        "command, option, value",
        [
            (["bounce", "--separation", "1cm"], "--curvature", "-4e-6"),
            (["bounce", "--separation", "1cm"], "--curvature", "-4e-61/cm2"),
            (["bounce", "--separation", "1cm"], "--curvature", "-4"),
            (["bounce", "--curvature", "4e-6"], "--separation", "-1cm"),
            (["uncertainty"], "--length", "-1e-5cm"),
            (["uncertainty"], "--time", "-2.5s"),
            (["clock-mass"], "--length", "-1e-5"),
            (["fluct"], "--length", "-1cm"),
            (["threshold"], "--density", "-1e-29g/cm3"),
            (["mc", "--samples", "10", "--seed", "1"], "--length", "-1e-3cm"),
            (["fluct"], "--len", "-1cm"),
            (["bounce", "--separation", "1cm"], "--curv", "-4e-6"),
            (["fluct"], "--length", "-inf"),
            (["fluct"], "--length", "-abc"),
        ],
    )
    def test_negative_value_after_a_space(self, run_cli, command, option, value):
        # argparse takes -4e-6 or -1cm for an option; both spellings must parse alike.
        spaced = run_cli(command + [option, value, "--format", "json"])
        joined = run_cli(command + [f"{option}={value}", "--format", "json"])
        assert spaced == joined

    def test_negative_curvature_after_a_space_is_answered(self, run_cli):
        argv = ["bounce", "--curvature", "-4e-6", "--separation", "1cm", "--format", "json"]
        code, out, _ = run_cli(argv)
        assert code == 0
        assert json.loads(out)["params"]["curvature"] == -4e-6

    def test_option_after_a_quantity_option_is_still_a_usage_error(self, run_cli):
        code, out, err = run_cli(["fluct", "--length", "--format", "json"])
        assert (code, out) == (2, "")
        assert "--length: expected one argument" in err

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["constants", "--c", "-x"], "--config"),
            (["mc", "--length", "1cm", "--samples", "10", "--se", "-1e3"], "--seed"),
            (["mc", "--length", "1cm", "--samples", "10", "--seed", "1", "--p", "-1"], None),
        ],
    )
    def test_negative_value_after_another_option_is_left_to_argparse(self, run_cli, argv, option):
        # Only the parsed subcommand's quantity options, under a prefix that is theirs alone, join.
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert (f"{option}: expected one argument" if option else "ambiguous option") in err


class TestValues:
    def test_fluct_water_density(self, run_cli):
        code, out, _ = run_cli(["fluct", "--length", "1e-5cm", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        rows = {row["quantity"]: row for row in payload["rows"]}
        assert rows["delta_rho"]["value"] == pytest.approx(11.8554, rel=1e-4, abs=0)
        assert rows["delta_rho"]["unit"] == "g/cm3"
        assert rows["delta_rho"]["status"] == "order-of-magnitude"
        assert rows["delta_c"]["status"] == "closed-form"
        assert payload["warnings"] == []

    def test_threshold_value(self, run_cli):
        code, out, _ = run_cli(["threshold", "--density", "1e-29g/cm3", "--format", "json"])
        payload = json.loads(out)
        assert payload["rows"][0]["value"] == pytest.approx(1.052385e4, rel=1e-4, abs=0)

    def test_clock_mass_value(self, run_cli):
        code, out, _ = run_cli(["clock-mass", "--length", "1cm", "--format", "json"])
        assert json.loads(out)["rows"][0]["value"] == pytest.approx(1.854566e6, rel=1e-4, abs=0)

    def test_uncertainty_time(self, run_cli):
        code, out, _ = run_cli(["uncertainty", "--time", "1s", "--format", "json"])
        row = json.loads(out)["rows"][0]
        assert row["quantity"] == "delta_time"
        assert row["value"] == pytest.approx(1.427117e-29, rel=1e-4, abs=0)

    def test_sub_planck_warning(self, run_cli):
        code, out, _ = run_cli(["uncertainty", "--length", "1e-35cm", "--format", "json"])
        payload = json.loads(out)
        assert any("Planck" in w for w in payload["warnings"])

    def test_linearization_warning(self, run_cli):
        code, out, _ = run_cli(["fluct", "--length", "1e-32cm", "--format", "json"])
        payload = json.loads(out)
        assert any("linearization" in w for w in payload["warnings"])

    def test_bounce_flat_trips(self, run_cli):
        code, out, _ = run_cli(
            ["bounce", "--curvature", "0", "--separation", "1cm", "--format", "json",
             "--precision", "12"]
        )
        rows = {row["quantity"]: row["value"] for row in json.loads(out)["rows"]}
        expected = 1.0 / 2.99792458e10
        for name in ("t_1", "t_2", "t_3"):
            assert rows[name] == pytest.approx(expected, rel=1e-10, abs=0)
        assert rows["estimated_curvature"] == pytest.approx(0.0, abs=1e-10)

    def test_mc_fields(self, run_cli):
        code, out, _ = run_cli(
            ["mc", "--length", "1cm", "--samples", "50000", "--seed", "3", "--format", "json"]
        )
        rows = {row["quantity"]: row["value"] for row in json.loads(out)["rows"]}
        assert rows["variance_ratio_closed"] == pytest.approx(7.55568, rel=1e-4, abs=0)
        assert rows["variance_ratio_empirical"] == pytest.approx(7.5557, rel=0.05, abs=0)
        assert rows["closed_form_delta_c"] == pytest.approx(3.441523e-23, rel=1e-4, abs=0)

    def test_natural_units_config(self, run_cli, tmp_path):
        config = tmp_path / "natural.conf"
        config.write_text("c = 1\nhbar = 1  # natural\nG = 1\n")
        code, out, _ = run_cli(["constants", "--config", str(config), "--format", "json"])
        payload = json.loads(out)
        values = {row["name"]: row["value"] for row in payload["rows"]}
        assert values["l_planck"] == 1.0
        assert payload["violations"] == []


class TestRenderings:
    def test_csv_is_rfc4180_style(self, run_cli):
        code, out, _ = run_cli(["fluct", "--length", "1e-5cm", "--format", "csv"])
        assert code == 0
        assert "\r\n" in out
        lines = out.split("\r\n")
        assert lines[0] == "quantity,value,unit,status"

    def test_formats_carry_identical_values(self, run_cli):
        _, json_out, _ = run_cli(["fluct", "--length", "1e-5cm", "--format", "json"])
        _, csv_out, _ = run_cli(["fluct", "--length", "1e-5cm", "--format", "csv"])
        _, table_out, _ = run_cli(["fluct", "--length", "1e-5cm", "--format", "table"])
        json_values = {row["quantity"]: row["value"] for row in json.loads(json_out)["rows"]}
        csv_values = {
            row["quantity"]: float(row["value"])
            for row in csv.DictReader(io.StringIO(csv_out))
        }
        assert csv_values == json_values
        for quantity, value in json_values.items():
            assert f"{value:.6g}" in table_out
            assert quantity in table_out

    def test_precision_flag(self, run_cli):
        _, out, _ = run_cli(
            ["clock-mass", "--length", "1cm", "--format", "json", "--precision", "3"]
        )
        assert json.loads(out)["rows"][0]["value"] == 1.85e6

    def test_help_documents_unit_grammar(self, run_cli):
        code, out, _ = run_cli(["fluct", "--help"])
        assert code == 0
        assert "unit suffix" in out
        assert "g/cm3" in out


class TestSchema:
    @pytest.mark.parametrize("name", sorted(SAMPLE_INVOCATIONS))
    def test_json_output_validates(self, run_cli, name):
        code, out, _ = run_cli(SAMPLE_INVOCATIONS[name])
        assert code == 0
        jsonschema.validate(json.loads(out), SCHEMA)


# L log-uniform over every positive double, 5e-324 ... 1.7e308.
whole_range_lengths = st.floats(math.log10(5e-324), math.log10(1.7e308)).map(
    lambda exponent: max(10.0**exponent, 5e-324)
)


# |K| l^2 of the curved bounce runs.  Below l ~ 1e-157 cm the curvature
# overflows to inf, which the CLI rejects with one error line.
CURVED_STRENGTH = 1e-6


def curved_bounce(sign: float):
    return lambda l: [
        "bounce", f"--curvature={sign * CURVED_STRENGTH / l / l!r}", "--separation", repr(l)
    ]


def printed_references(argv, sweep_references) -> dict:
    """quantity: its log-space reference, for the rows of `argv` that have one.

    mc has no sweep entry; its closed-form delta_C is the one fluct prints.
    """
    if argv[0] == "mc":
        return {"closed_form_delta_c": sweep_references[("fluct", "--length")]["delta_c"]}
    return sweep_references[(argv[0], argv[1])]


def assert_matches_reference(payload, argv, l: float, sweep_references) -> None:
    """Each printed row of `argv[0] argv[1] l` is the log-space reference at l, to 6 digits.

    mc prints its estimates too; only its row with a reference is checked.
    """
    references = printed_references(argv, sweep_references)
    rows = payload["rows"]
    if argv[0] == "mc":
        rows = [row for row in rows if row["quantity"] in references]
    assert [row["quantity"] for row in rows] == list(references)
    for row in rows:
        reference = math.exp(references[row["quantity"]](math.log(l)))
        # Half a unit in the 6th digit, plus the reference's own rounding.
        assert math.isclose(row["value"], reference, rel_tol=5e-6 + 1e-12, abs_tol=0.0)


class TestWholeRange:
    """Any positive input ends in a valid answer (exit 0) or one error line (exit 1)."""

    @pytest.mark.parametrize(
        "command",
        [
            lambda l: ["uncertainty", "--length", repr(l)],
            lambda l: ["uncertainty", "--time", repr(l)],
            lambda l: ["fluct", "--length", repr(l)],
            lambda l: ["clock-mass", "--length", repr(l)],
            lambda l: ["threshold", "--density", repr(l)],
            lambda l: ["mc", "--length", repr(l), "--samples", "2000", "--seed", "7"],
            lambda l: ["bounce", "--curvature=0", "--separation", repr(l)],
            curved_bounce(1.0),
            curved_bounce(-1.0),
        ],
        ids=[
            "uncertainty_length", "uncertainty_time", "fluct", "clock_mass", "threshold", "mc",
            "flat_bounce", "curved_bounce", "anticurved_bounce",
        ],
    )
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(l=whole_range_lengths)
    @example(l=1e-313)
    @example(l=1e-300)
    @example(l=1e-200)
    @example(l=1e155)
    @example(l=1e300)
    def test_exits_cleanly(self, run_cli, sweep_references, command, l):
        argv = command(l)
        code, out, err = run_cli(argv + ["--format", "json"])
        assert code in (0, 1)
        if code == 1:
            assert out == "" and err.startswith("foamlab: error:") and err.count("\n") == 1
            if argv[0] != "bounce":
                # Refused only where some printed quantity is not a normal double
                # (1e-6 relative within the range counts as its edge).
                references = printed_references(argv, sweep_references).values()
                ln_min, ln_max = math.log(sys.float_info.min), math.log(sys.float_info.max)
                assert not all(ln_min + 1e-6 < ln(math.log(l)) < ln_max - 1e-6 for ln in references)
        else:
            payload = json.loads(out)
            assert json.loads(json.dumps(payload, allow_nan=False)) == payload
            jsonschema.validate(payload, SCHEMA)
            if argv[0] == "bounce":
                # Within the model's 4 |K| l^2 of -lK/11, and rounded to 6 digits.
                k = float(argv[1].removeprefix("--curvature="))
                estimate = payload["rows"][-1]["value"]
                tolerance = 4.0 * abs(k) * l * l + 5e-6
                assert math.isclose(estimate, -l * k / 11.0, rel_tol=tolerance, abs_tol=0.0)
            else:
                assert_matches_reference(payload, argv, l, sweep_references)

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(l=st.floats(math.log10(7.1e-98), math.log10(3.3e-93)).map(lambda e: 10.0**e))
    @example(l=7.1e-98)
    @example(l=3.3e-93)
    def test_fluct_density_beyond_its_power_overflow(self, run_cli, sweep_references, l):
        # delta_rho fits in a double here although l**(-10/3) alone overflows.
        argv = ["fluct", "--length", repr(l)]
        code, out, err = run_cli(argv + ["--format", "json"])
        assert (code, err) == (0, "")
        assert_matches_reference(json.loads(out), argv, l, sweep_references)


# JSON leaves at the edges of json.dumps: escapes, line separators, signed
# zero, subnormals, huge doubles and ints beyond 64 bits.
json_texts = st.text() | st.sampled_from(
    ['"', "\\", "\x00\x1f\x7f", "\u2028\u2029", "é ✓ 𝔊", "%s %"]
)
json_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 1.7e308]
)
json_ints = st.integers() | st.sampled_from([2**64, 2**64 + 1, -(2**70)])
json_leaves = st.none() | st.booleans() | json_ints | json_floats | json_texts
column_values = st.sampled_from(
    [
        json_floats, json_texts, st.booleans(), json_ints, st.none(),
        json_floats | json_ints, json_floats | st.none(), json_leaves,
    ]
)


def dumps(value) -> str:
    return json.dumps(value, indent=2, ensure_ascii=False)


class TestJsonWriter:
    """A rendered payload is json.dumps(indent=2, ensure_ascii=False) of its rounded values."""

    @given(
        names=st.lists(
            json_texts.filter(lambda name: name not in _VALUE_KEYS), max_size=4, unique=True
        ),
        data=st.data(),
        precision=st.integers(1, 17),
    )
    def test_rendered_row_table_matches_json_dumps(self, names, data, precision):
        # A value column is rounded in the same pass; the reference rounds a copy of each row.
        strategies = {name: data.draw(column_values) for name in names}
        strategies["value"] = st.floats(-1e300, 1e300) | st.text(max_size=3) | st.none()
        count = data.draw(st.integers(0, 6))
        columns = {
            name: [data.draw(strategy) for _ in range(count)]
            for name, strategy in strategies.items()
        }
        params = data.draw(
            st.dictionaries(json_texts, st.floats(-1e300, 1e300) | json_ints | st.none())
        )
        warnings = data.draw(st.lists(json_texts, max_size=3))
        table = _Table(list(columns), list(columns.values()))
        payload = {"command": "rows", "params": params, "rows": table, "warnings": warnings}
        expected = {
            **payload,
            "params": {key: _round_float(value, precision) for key, value in params.items()},
            "rows": [
                {
                    key: _round_float(value, precision) if key == "value" else value
                    for key, value in zip(columns, row)
                }
                for row in zip(*columns.values())
            ],
        }
        assert _render(payload, "json", precision) == dumps(expected) + "\n"

    def test_zero_row_table_with_int_and_none_params(self):
        params = {"config": None, "pulses": 3, "length": 1.23456789}
        table = _Table(["quantity", "value"], [[], []])
        payload = {"command": "x", "params": params, "rows": table, "warnings": []}
        expected = {**payload, "params": {**params, "length": 1.23457}, "rows": []}
        assert _render(payload, "json", 6) == dumps(expected) + "\n"

    @pytest.mark.parametrize(
        "payload",
        [
            # full-precision provenance, never rounded
            {
                "command": "report", "constants": {"c": [1.0, math.nan]},
                "rows": _Table([], []), "warnings": [],
            },
            # a float column that is not a value column
            {
                "command": "bounce",
                "rows": _Table(
                    ["quantity", "value", "bound"], [["t_1", "t_2"], [1.0, 1.0], [2.0, math.inf]]
                ),
                "warnings": [],
            },
            {"command": "x", "rows": _Table([], []), "warnings": [], "extra": (-math.inf,)},
        ],
        ids=["nested_nan", "inf_column", "minus_inf"],
    )
    def test_non_finite_output_is_domain_error(self, payload):
        with pytest.raises(DomainError, match="not finite"):
            _render(payload, "json", 6)


def format_cell(value, precision: int) -> str:
    """A table/CSV cell as the row-dict render path wrote it."""
    return f"{value:.{precision}g}" if isinstance(value, float) else str(value)


# Normal, subnormal, signed-zero and near-maximum doubles.
cell_floats = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.floats(-2.3e-308, 2.3e-308)
    | st.floats(1e307, 1.7976931348623157e308)
    | st.floats(-1.7976931348623157e308, -1e307)
    | st.sampled_from([0.0, -0.0, 5e-324, 1.04e-322, 2.2250738585072014e-308, 1e16, 9.5e307])
)


class TestFormatOnce:
    """A rounded float is formatted once, into the bytes that rounding and then formatting give."""

    @staticmethod
    def rendered(values, fmt: str, precision: int) -> str:
        payload = {"command": "x", "rows": _Table(["value"], [values]), "warnings": []}
        return _render(payload, fmt, precision)

    @given(values=st.lists(cell_floats, min_size=1, max_size=8), precision=st.integers(1, 17))
    @example(values=[1.04e-322], precision=2)
    @example(values=[0.0, -0.0], precision=6)
    @example(values=[1234567.0, 1e16], precision=6)
    @example(values=[1e15, -1.5e15], precision=2)
    @example(values=[1.7e308], precision=1)
    def test_matches_round_then_format(self, values, precision):
        try:
            rounded = [_round_float(value, precision) for value in values]
        except DomainError:
            for fmt in ("json", "table", "csv"):
                with pytest.raises(DomainError, match="not finite"):
                    self.rendered(values, fmt, precision)
            return
        rows = [{"value": value} for value in rounded]
        expected_json = dumps({"command": "x", "rows": rows, "warnings": []}) + "\n"
        assert self.rendered(values, "json", precision) == expected_json
        cells = [format_cell(value, precision) for value in rounded]
        assert self.rendered(values, "csv", precision) == "".join(
            f"{line}\r\n" for line in ["value", *cells]
        )
        assert self.rendered(values, "table", precision).splitlines()[2:] == cells

    @pytest.mark.parametrize(
        "value, precision, json_text, cell",
        [
            (1.04e-322, 2, "1e-322", "9.9e-323"),
            (0.0, 6, "0.0", "0"),
            (-0.0, 6, "-0.0", "-0"),
            (1234567.0, 6, "1234570.0", "1.23457e+06"),
            (1e16, 6, "1e+16", "1e+16"),
        ],
    )
    def test_pinned_cells(self, value, precision, json_text, cell):
        assert f'"value": {json_text}\n' in self.rendered([value], "json", precision)
        assert self.rendered([value], "csv", precision) == f"value\r\n{cell}\r\n"
        assert self.rendered([value], "table", precision).splitlines()[-1] == cell


def reference_bounce_render(k: float, l: float, n_pulses: int, fmt: str, precision: int = 6) -> str:
    """A `bounce` payload as row dicts, rendered as the CLI did before tables were columns."""
    record = bounce.simulate_round_trips(bounce.BounceModel(k=k, l=l), n_pulses)
    rows = []
    for index, (trip, epoch) in enumerate(zip(record.times, record.emission_epochs), start=1):
        rows.append({"quantity": f"t_{index}", "value": trip, "unit": "s", "status": "simulated"})
        rows.append(
            {"quantity": f"epoch_{index}", "value": epoch, "unit": "s", "status": "simulated"}
        )
    rows.append(
        {
            "quantity": "estimated_curvature", "value": record.estimated_curvature,
            "unit": "1/cm", "status": "estimated",
        }
    )
    params = {
        "curvature": k, "curvature_unit": "1/cm2", "separation": l, "separation_unit": "cm",
        "pulses": n_pulses,
    }
    payload = {
        "command": "bounce",
        "params": {key: _round_float(value, precision) for key, value in params.items()},
        "rows": [
            {key: _round_float(v, precision) if key in _VALUE_KEYS else v for key, v in row.items()}
            for row in rows
        ],
        "warnings": ["toy model: the 1/11 estimator normalization is not reproduced"],
    }
    if fmt == "json":
        return dumps(payload) + "\n"
    names = list(rows[0])
    cells = [[format_cell(row[name], precision) for name in names] for row in payload["rows"]]
    if fmt == "csv":
        buffer = io.StringIO()
        csv.writer(buffer).writerows([names, *cells])
        return buffer.getvalue()
    lines = [f"{key}: {format_cell(value, precision)}" for key, value in payload["params"].items()]
    lines += [f"warning: {warning}" for warning in payload["warnings"]]
    widths = [max(map(len, column)) for column in zip(names, *cells)]
    lines.append("")
    for line in (names, ["-" * width for width in widths], *cells):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip())
    return "\n".join(lines) + "\n"


class TestLongTable:
    """A long bounce table renders byte for byte as the row-dict path rendered it."""

    @pytest.mark.parametrize("fmt", ["json", "table", "csv"])
    def test_matches_row_dict_render(self, run_cli, fmt):
        code, out, err = run_cli(
            ["bounce", "--curvature", "1e-9", "--separation", "1cm", "--pulses", "2000",
             "--format", fmt]
        )
        assert (code, err) == (0, "")
        assert out == reference_bounce_render(1e-9, 1.0, 2000, fmt)


class TestParserReuse:
    def test_calls_in_one_process_match_a_fresh_parser(self, run_cli):
        calls = [["uncertainty", "--bogus"], ["--version"], ["clock-mass", "--length", "1cm"]]
        assert build_parser() is build_parser()
        reused = [run_cli(argv) for argv in calls]
        fresh = []
        for argv in calls:
            build_parser.cache_clear()
            fresh.append(run_cli(argv))
        assert [code for code, _, _ in reused] == [2, 0, 0]
        assert reused == fresh


class TestDeterminism:
    def test_report_json_byte_identical(self, run_cli):
        args = ["report", "--samples", "20000", "--format", "json"]
        _, first, _ = run_cli(args)
        _, second, _ = run_cli(args)
        assert first == second

    def test_mc_byte_identical(self, run_cli):
        args = ["mc", "--length", "1cm", "--samples", "2000", "--seed", "7", "--format", "json"]
        _, first, _ = run_cli(args)
        _, second, _ = run_cli(args)
        assert first == second


class TestGoldenFiles:
    @pytest.mark.parametrize(
        "golden_name, args",
        [
            ("constants.json", ["constants", "--format", "json"]),
            ("fluct_1e-5cm.json", ["fluct", "--length", "1e-5cm", "--format", "json"]),
            ("threshold_1e-29.json", ["threshold", "--density", "1e-29g/cm3", "--format", "json"]),
            (
                "mc_l1_n20000_s7.json",
                ["mc", "--length", "1cm", "--samples", "20000", "--seed", "7", "--format", "json"],
            ),
            (
                "bounce_k4e-6_l1_p3.json",
                [
                    "bounce", "--curvature", "4e-61/cm2", "--separation", "1cm",
                    "--pulses", "3", "--format", "json",
                ],
            ),
            ("report_default.json", ["report", "--format", "json"]),
            ("fluct_1e-5cm.csv", ["fluct", "--length", "1e-5cm", "--format", "csv"]),
            ("uncertainty_l1.json", ["uncertainty", "--length", "1cm", "--format", "json"]),
            ("uncertainty_t1.json", ["uncertainty", "--time", "1s", "--format", "json"]),
            ("clock_mass_l1.json", ["clock-mass", "--length", "1cm", "--format", "json"]),
            (
                "mc_l1_n20000_s7.txt",
                ["mc", "--length", "1cm", "--samples", "20000", "--seed", "7"],
            ),
            (
                "bounce_k4e-6_l1_p3.txt",
                ["bounce", "--curvature", "4e-61/cm2", "--separation", "1cm", "--pulses", "3"],
            ),
            ("report_default.txt", ["report", "--format", "table"]),
            ("report_default.csv", ["report", "--format", "csv"]),
            ("constants.txt", ["constants", "--format", "table"]),
            ("constants.csv", ["constants", "--format", "csv"]),
        ],
    )
    def test_matches_golden(self, run_cli, golden_name, args):
        code, out, _ = run_cli(args)
        assert code == 0
        # bytes comparison: read_text would fold the CSV's CRLF endings
        golden = (GOLDEN_DIR / golden_name).read_bytes().decode("utf-8")
        assert out == golden


def test_module_entry_point_smoke():
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "foamlab", "threshold", "--density", "1e-29g/cm3"],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0
    assert "max_length" in proc.stdout


NUMPY_FREE_COMMANDS = ["uncertainty", "clock-mass", "fluct", "threshold", "constants", "bounce"]

# Runs in a fresh interpreter: this process has NumPy loaded already.  Each
# step lists which of the modules named in argv[2] are loaded, so a cost
# moved from the import into the first command shows too.  Two cores are
# pinned, so `mc` at two partitions runs worker threads on any host.
IMPORT_PROBE = """
import contextlib, io, json, os, sys
os.cpu_count = lambda: 2
def heavy():
    return [name for name in json.loads(sys.argv[2]) if name in sys.modules]
import foamlab
loaded = {"foamlab": heavy()}
import foamlab.cli
loaded["foamlab.cli"] = heavy()
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert foamlab.cli.main(argv) == 0, argv
    loaded[argv[0]] = heavy()
import foamlab.montecarlo
loaded["montecarlo"] = "numpy" in sys.modules
print(json.dumps(loaded))
"""


def run_import_probe(argvs: list[list[str]], modules: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, json.dumps(argvs), json.dumps(modules)],
        capture_output=True, text=True, check=True, cwd=REPO_ROOT,
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
    )
    return json.loads(proc.stdout)


def test_numpy_free_commands_do_not_load_numpy():
    argvs = [SAMPLE_INVOCATIONS[name] for name in NUMPY_FREE_COMMANDS]
    steps = ["foamlab", "foamlab.cli", *NUMPY_FREE_COMMANDS]
    expected = {**dict.fromkeys(steps, []), "montecarlo": True}
    assert run_import_probe(argvs, ["numpy", "dataclasses", "inspect"]) == expected


def test_mc_and_report_threads_load_no_executor():
    # mc runs three blocks on two threads; report runs one beside its identity batch.
    argvs = [
        ["mc", "--length", "1cm", "--samples", "2000001", "--seed", "1", "--partitions", "2"],
        ["report", "--samples", "20000"],
    ]
    expected = {"foamlab": [], "foamlab.cli": [], "mc": [], "report": [], "montecarlo": True}
    assert run_import_probe(argvs, ["concurrent.futures"]) == expected


def test_public_names_resolve_to_their_submodule():
    import foamlab

    for name in foamlab.__all__:
        if name != "__version__":
            value = getattr(foamlab, name)
            assert value is getattr(sys.modules[value.__module__], name)
    with pytest.raises(AttributeError, match="no_such_name"):
        foamlab.no_such_name
