import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

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
        code, out, err = run_cli(["clock-mass", "--length", "1e308", "--format", fmt])
        assert code == 1
        assert out == ""
        assert err.startswith("foamlab: error:") and err.count("\n") == 1

    @pytest.mark.parametrize("length", ["1e-300", "1e-200", "1e300"])
    def test_unrepresentable_mc_length_is_domain_error(self, run_cli, length):
        code, out, err = run_cli(["mc", "--length", length, "--samples", "1000", "--seed", "1"])
        assert code == 1
        assert out == ""
        assert err.startswith("foamlab: error:") and err.count("\n") == 1

    def test_missing_config_file_is_domain_error(self, run_cli):
        code, _, err = run_cli(["constants", "--config", "/nonexistent/path.conf"])
        assert code == 1
        assert "config" in err

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


class TestValues:
    def test_fluct_water_density(self, run_cli):
        code, out, _ = run_cli(["fluct", "--length", "1e-5cm", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        rows = {row["quantity"]: row for row in payload["rows"]}
        assert rows["delta_rho"]["value"] == pytest.approx(11.8554, rel=1e-4)
        assert rows["delta_rho"]["unit"] == "g/cm3"
        assert rows["delta_rho"]["status"] == "order-of-magnitude"
        assert rows["delta_c"]["status"] == "closed-form"
        assert payload["warnings"] == []

    def test_threshold_value(self, run_cli):
        code, out, _ = run_cli(["threshold", "--density", "1e-29g/cm3", "--format", "json"])
        payload = json.loads(out)
        assert payload["rows"][0]["value"] == pytest.approx(1.052385e4, rel=1e-4)

    def test_clock_mass_value(self, run_cli):
        code, out, _ = run_cli(["clock-mass", "--length", "1cm", "--format", "json"])
        assert json.loads(out)["rows"][0]["value"] == pytest.approx(1.854566e6, rel=1e-4)

    def test_uncertainty_time(self, run_cli):
        code, out, _ = run_cli(["uncertainty", "--time", "1s", "--format", "json"])
        row = json.loads(out)["rows"][0]
        assert row["quantity"] == "delta_time"
        assert row["value"] == pytest.approx(1.427117e-29, rel=1e-4)

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
            assert rows[name] == pytest.approx(expected, rel=1e-10)
        assert rows["estimated_curvature"] == pytest.approx(0.0, abs=1e-10)

    def test_mc_fields(self, run_cli):
        code, out, _ = run_cli(
            ["mc", "--length", "1cm", "--samples", "50000", "--seed", "3", "--format", "json"]
        )
        rows = {row["quantity"]: row["value"] for row in json.loads(out)["rows"]}
        assert rows["variance_ratio_closed"] == pytest.approx(7.55568, rel=1e-4)
        assert rows["variance_ratio_empirical"] == pytest.approx(7.5557, rel=0.05)
        assert rows["closed_form_delta_c"] == pytest.approx(3.441523e-23, rel=1e-4)

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
