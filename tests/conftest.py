import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from foamlab.cli import main


@pytest.fixture()
def run_cli():
    """Run the CLI in-process; returns (exit_code, stdout, stderr)."""

    def runner(args: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
        return code, out.getvalue(), err.getvalue()

    return runner


@pytest.fixture(scope="session")
def sweep_references():
    """(subcommand, flag) -> {quantity: ln(value) as a function of ln(input)}.

    The log-space CODATA references of perfbench/workloads.py, which the
    benchmark checks its closed-form sweep against; no intermediate of
    theirs can overflow or underflow.
    """
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve annotations through sys.modules
    spec.loader.exec_module(module)
    return module._SWEEP_QUERIES
