"""Benchmark for foamlab: one closed-loop client calling `foamlab.cli.main` in-process.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The client sends an operation's argv only after the previous one returned,
with stdout and stderr captured, and checks every output (see
workloads.py).  The seed fixes every operation's inputs.

--trace 0 gives the end-to-end metrics: the set-up time of a fresh
interpreter, per-operation wall time from an untraced closed loop of S
seconds, throughput, tracemalloc peak memory from a separate pass, and the
share of operations that succeeded.

--trace 1 gives the per-layer metrics: an untraced loop of S/2 seconds,
then a loop of S/2 seconds over the same inputs with spans around every
call into a foamlab module (spans.py), a tracemalloc pass for the
montecarlo layer's peak, and on mc-large a partition-scaling probe.  The
spans are written to .perfbench/ in the repository root.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  `failed` counts
every operation whose output failed its check, and `correct` is true only
when none did.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import gc
import importlib
import io
import json
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from spans import Tracer, patch_layers, unpatch
from workloads import MC_SAMPLES, WORKLOADS, Output, SchemaCheck

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCHEMA = ROOT / "schemas" / "cli_output.schema.json"
SPAN_DIR = ROOT / ".perfbench"

LAYERS = ("cli", "report", "montecarlo", "bounce", "wigner", "laws", "constants")
SETUP_REPEATS = 15
TAIL_BEYOND = 10  # the tail percentile keeps this many operations beyond it
SCALING_REPEATS = 3
# Arrays one MC sample fills: normal draws (3 doubles), the factor
# product (3 doubles) and the second difference (1 double).
MC_BYTES_PER_SAMPLE = 3 * 8 + 3 * 8 + 8
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import foamlab.cli; print(time.perf_counter() - start)"
)


def load_program():
    """Import foamlab from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        cli = importlib.import_module("foamlab.cli")
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import foamlab from {SRC}: {exc}") from None
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"perfbench: foamlab was imported from {cli.__file__}, not {SRC}")
    return cli, [importlib.import_module(f"foamlab.{name}") for name in LAYERS]


def import_seconds() -> float:
    """Time a fresh interpreter takes to import foamlab.cli."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout)


class SetupSampler:
    """SETUP_REPEATS import times, taken between operations spread over the run."""

    def __init__(self, seconds: float) -> None:
        self.samples: list[float] = []
        self.every = seconds / SETUP_REPEATS
        self.due = time.perf_counter()

    def __call__(self) -> None:
        if len(self.samples) < SETUP_REPEATS and time.perf_counter() >= self.due:
            self.samples.append(import_seconds())
            self.due += self.every

    def finish(self) -> list[float]:
        while len(self.samples) < SETUP_REPEATS:
            self.samples.append(import_seconds())
        return self.samples


class Client:
    """Closed-loop client for one workload and seed; tallies check results."""

    def __init__(self, cli, workload, schema: SchemaCheck, seed: int) -> None:
        self.cli = cli
        self.workload = workload
        self.schema = schema
        self.seed = seed
        self.attempted = 0
        self.rows = 0
        self.failures: collections.Counter[str] = collections.Counter()

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def call(self, argv: list[str]) -> tuple[Output, float]:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # an exception escaping main is a failed operation
                code = exc
            elapsed = time.perf_counter() - start
        return Output(code, stdout.getvalue(), stderr.getvalue()), elapsed

    def warm_up(self) -> None:
        rng = self.workload.rng(self.seed, "warmup")
        for _ in range(self.workload.warmup_ops):
            argv = self.workload.argv(rng)
            self.workload.check(argv, self.call(argv)[0], self.schema)
        gc.collect()
        gc.freeze()

    def closed_loop(
        self, seconds: float, min_ops: int, before_op=None, after_op=None
    ) -> list[float]:
        """Per-operation wall times for at least `seconds` and `min_ops` operations."""
        rng = self.workload.rng(self.seed)
        times: list[float] = []
        deadline = time.perf_counter() + seconds
        while len(times) < min_ops or time.perf_counter() < deadline:
            argv = self.workload.argv(rng)
            gc.collect()
            if before_op is not None:
                before_op(len(times))
            out, elapsed = self.call(argv)
            times.append(elapsed)
            self.attempted += 1
            reason = self.workload.check(argv, out, self.schema)
            self.rows += out.rows
            if reason is not None:
                self.failures[reason] += 1
            if after_op is not None:
                after_op()
        return times

    def memory_pass(self) -> float:
        """Largest tracemalloc peak of one operation above its starting level, in MB."""
        rng = self.workload.rng(self.seed)
        peaks = []
        tracemalloc.start()
        try:
            for _ in range(self.workload.memory_ops):
                argv = self.workload.argv(rng)
                gc.collect()
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                self.call(argv)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        return max(peaks) / 1e6


class LayerPeak:
    """Peak traced memory inside calls into one layer, above the level at entry."""

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.peak = 0
        self._depth = 0

    def wrap(self, fn, layer: str, name: str):
        if layer != self.layer:
            return None

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            if self._depth:
                return fn(*args, **kwargs)
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            self._depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                self.peak = max(self.peak, tracemalloc.get_traced_memory()[1] - entry)

        return measured


def scaling_efficiency(seed: int) -> float:
    """t(p=1) / (2 t(p=2)) of the MC layer at the mc-large size and seed, untraced."""
    montecarlo = importlib.import_module("foamlab.montecarlo")
    times: dict[int, list[float]] = {1: [], 2: []}
    for _ in range(SCALING_REPEATS):
        for partitions in (1, 2):
            config = montecarlo.McConfig(
                l=1.0, n_samples=MC_SAMPLES, seed=seed, n_partitions=partitions
            )
            gc.collect()
            start = time.perf_counter()
            montecarlo.verify_curvature_uncertainty(config)
            times[partitions].append(time.perf_counter() - start)
    return statistics.median(times[1]) / (2.0 * statistics.median(times[2]))


def end_to_end(client: Client, seconds: float) -> dict[str, tuple[float, str]]:
    client.warm_up()
    sampler = SetupSampler(seconds)
    times = sorted(client.closed_loop(seconds, min_ops=TAIL_BEYOND + 1, after_op=sampler))
    setup = sorted(sampler.finish())
    peak = client.memory_pass()
    n, best, median = len(times), times[0], statistics.median(times)
    tail_rank = n - TAIL_BEYOND
    items = client.workload.items_per_op
    print(f"setup: fresh-interpreter import of foamlab.cli, best {setup[0]:.6g} s, "
          f"median {statistics.median(setup):.6g} s of {len(setup)}")
    print(f"wall per operation over {n}: best {best:.6g} s, median {median:.6g} s, "
          f"tail p{100.0 * tail_rank / n:.1f} (rank {tail_rank}) {times[tail_rank - 1]:.6g} s")
    print(f"error_ratio = {client.failed / n:.6g} ({client.failed} of {n})")
    print(f"{items} {client.workload.item} per operation; "
          f"per second at the median: {items / median:.6g}")
    if client.workload.item == "MC samples":
        print(f"mc_samples_per_s = {items / best:.6g} 1/s (at the best operation)")
    return {
        "setup_s": (setup[0], "s"),
        "wall_best_s": (best, "s"),
        "items_per_s": (items / best, "1/s"),
        "peak_mem_mb": (peak, "MB"),
        "success_ratio": (1.0 - client.failed / n, "fraction"),
    }


def per_layer(client: Client, modules, seconds: float) -> dict[str, tuple[float, str]]:
    client.warm_up()
    untraced = client.closed_loop(seconds / 2.0, min_ops=3)
    rows_before = client.rows
    tracer = Tracer(
        work={
            "montecarlo.verify_curvature_uncertainty": (
                "montecarlo.samples", lambda config, *args, **kwargs: config.n_samples
            ),
            "bounce.simulate_round_trips": ("bounce.pulses", lambda model, n_pulses: n_pulses),
        }
    )
    patches = patch_layers(modules, tracer.wrap)
    try:
        traced = client.closed_loop(
            seconds / 2.0, min_ops=3, before_op=lambda index: setattr(tracer, "op", index)
        )
    finally:
        unpatch(patches)
    n = len(traced)
    span_file = SPAN_DIR / f"spans-{client.workload.name}-seed{client.seed}.tsv.gz"
    tracer.write(span_file)

    layer_peak = LayerPeak("montecarlo")
    patches = patch_layers(modules, layer_peak.wrap)
    try:
        client.memory_pass()
    finally:
        unpatch(patches)

    scaling = 0.0
    if client.workload.name == "mc-large":
        first = client.workload.argv(client.workload.rng(client.seed))
        scaling = scaling_efficiency(int(first[first.index("--seed") + 1]))

    self_s = tracer.self_seconds_by_layer()
    samples = tracer.amounts["montecarlo.samples"] / n
    pulses = tracer.amounts["bounce.pulses"] / n
    gap_evals = tracer.calls["bounce.mirror_separation"] / n
    metrics = {f"{layer}.self_s": (self_s.get(layer, 0.0) / n, "s") for layer in LAYERS}
    metrics.update(
        {
            "wigner.second_difference_variance.calls": (
                tracer.calls["wigner.second_difference_variance"] / n, "count"
            ),
            "laws.calls": (tracer.calls_in_layer("laws") / n, "count"),
            "constants.default_constants.calls": (
                tracer.calls["constants.default_constants"] / n, "count"
            ),
            "montecarlo.samples": (samples, "count"),
            "montecarlo.bytes_computed": (samples * MC_BYTES_PER_SAMPLE, "B"),
            "montecarlo.peak_mem_mb": (layer_peak.peak / 1e6, "MB"),
            "montecarlo.scaling_eff": (scaling, "ratio"),
            "bounce.pulses": (pulses, "count"),
            "bounce.gap_evals_per_pulse": (gap_evals / pulses if pulses else 0.0, "count"),
            "cli.rows_rendered": ((client.rows - rows_before) / n, "count"),
            "trace.overhead_ratio": (min(traced) / min(untraced), "ratio"),
        }
    )
    traced_wall = statistics.fmean(traced)
    print(f"operations: {len(untraced)} untraced, {n} traced; "
          f"{len(tracer.names)} spans in {span_file.relative_to(ROOT)}")
    print(f"traced wall per operation (mean): {traced_wall:.6g} s; self time per layer:")
    for layer in LAYERS:
        own = self_s.get(layer, 0.0) / n
        print(f"  {layer:<11} {own:11.6g} s  {100.0 * own / traced_wall:5.1f} %")
    return metrics


def declared_metrics(trace: bool) -> list[str] | None:
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    spec = json.loads(path.read_text(encoding="utf-8"))
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli, modules = load_program()
    schema = SchemaCheck(json.loads(SCHEMA.read_text(encoding="utf-8")))
    client = Client(cli, WORKLOADS[args.workload], schema, args.seed)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    if args.trace:
        metrics = per_layer(client, modules, args.seconds)
    else:
        metrics = end_to_end(client, args.seconds)
    for reason, count in client.failures.most_common():
        print(f"failed x{count}: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")

    declared = declared_metrics(bool(args.trace))
    if declared is not None and sorted(declared) != sorted(metrics):
        raise SystemExit(
            f"perfbench: metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(declared)}"
        )
    result = {
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
