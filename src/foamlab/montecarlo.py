"""Monte Carlo verification of the closed-form curvature noise.

Applying the cube-root time law to the single intervals (length t),
adjacent pairs (2t) and the full triple (3t), with t = l/c and exchange
symmetry cov12 = cov23, pins a unique covariance for (t1, t2, t3):

    Var(t_i)              = sigma^2
    Var(t_i + t_{i+1})    = 2^(2/3) sigma^2
    Var(t1 + t2 + t3)     = 3^(2/3) sigma^2

ngvandam_covariance builds that matrix, and verify_curvature_uncertainty
samples it to reproduce the closed-form noise empirically.  The law only
fixes first and second moments; samples are drawn multivariate Gaussian
(the maximum-entropy choice, and any distribution with these moments
gives the same second-difference variance).

Numerical note: at laboratory scales the fluctuations sit ~22 orders of
magnitude below the mean flight time, so mean + delta would round to the
mean exactly in double precision.  Samples are therefore generated and
analysed in fluctuation space (zero-mean deltas); the second difference
annihilates the common mean anyway.

Streaming: the n samples are split into fixed blocks of BLOCK_ROWS rows.
Block b draws standard normals z from NumPy PCG64 seeded with
SeedSequence(seed, spawn_key=(b,)), in chunks of CHUNK_ROWS rows from that
one generator, which yields the same stream as one whole-block draw.  Each
chunk goes straight to its second differences z @ (F^T w), with F F^T the
covariance and w = (1, -2, 1), and is reduced to (count, mean, M2).  Chunks
merge in order within a block, and blocks merge in block order, by the
pairwise update of Chan, Golub & LeVeque (1979).  Memory is O(chunk), not
O(n).

Determinism: results depend on (seed, n_samples) only.  n_partitions caps
the worker threads that compute blocks, at min(n_partitions, os.cpu_count(),
number of blocks), with no pool at all for one worker.  It never changes
what is drawn or the merge order, so results are bit-identical across
partition counts.  Block keys stay below the report's batch key 1_000_003
(report._max_identity_gap) for n_samples below about 1e12.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .constants import ConstantSet, Curvature, Length, default_constants
from .errors import DomainError
from .laws import UncertaintyLaw
from .wigner import TripletCovariance, curvature_uncertainty, second_difference_variance

# Correlations forced by the interval variances above:
# adjacent: Var(t_i + t_j) = 2 sigma^2 (1 + rho) = 2^(2/3) sigma^2
# outer:    Var(sum)       = 3 sigma^2 + 4 rho_adj sigma^2 + 2 rho_out sigma^2 = 3^(2/3) sigma^2
ADJACENT_CORRELATION = 2.0 ** (-1.0 / 3.0) - 1.0
OUTER_CORRELATION = (3.0 ** (2.0 / 3.0) - 3.0) / 2.0 - (2.0 ** (2.0 / 3.0) - 2.0)

BLOCK_ROWS = 1_000_000
CHUNK_ROWS = 1 << 16
SECOND_DIFFERENCE = np.array([1.0, -2.0, 1.0])

# (count, mean, M2): M2 is the sum of squared deviations from the mean.
Moments = tuple[int, float, float]


@dataclass(frozen=True)
class McConfig:
    """Sampling parameters for one verification run.

    n_partitions caps the worker threads; results do not depend on it.
    """

    l: Length
    n_samples: int
    seed: int
    n_partitions: int = 1

    def validate(self) -> None:
        if not (isinstance(self.l, (int, float)) and math.isfinite(self.l) and self.l > 0):
            raise DomainError(f"l must be a strictly positive finite length, got {self.l!r}")
        if not (isinstance(self.n_samples, int) and self.n_samples >= 1):
            raise DomainError(f"n_samples must be a positive integer, got {self.n_samples!r}")
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2**64):
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not (isinstance(self.n_partitions, int) and self.n_partitions >= 1):
            raise DomainError(f"n_partitions must be a positive integer, got {self.n_partitions!r}")


@dataclass(frozen=True)
class McResult:
    """Empirical versus closed-form second-difference statistics.

    closed_form_variance is second_difference_variance of the sampled
    covariance (VARIANCE_RATIO * sigma2 for the cube-root matrix);
    closed_form_delta_c is the closed-form noise law at l, bit-identical
    to wigner.curvature_uncertainty.
    """

    empirical_variance: float
    closed_form_variance: float
    relative_error: float
    empirical_delta_c: Curvature
    closed_form_delta_c: Curvature
    sigma2: float


def ngvandam_covariance(l: Length, constants: ConstantSet | None = None) -> TripletCovariance:
    """Covariance of (t1, t2, t3) implied by the cube-root law at length l."""
    cs = constants or default_constants()
    sigma = UncertaintyLaw(cs).time_uncertainty(l / cs.c)
    sigma2 = sigma * sigma
    return TripletCovariance(
        sigma2=sigma2,
        cov12=sigma2 * ADJACENT_CORRELATION,
        cov23=sigma2 * ADJACENT_CORRELATION,
        cov13=sigma2 * OUTER_CORRELATION,
    )


def eigenvalues(cov: TripletCovariance) -> tuple[float, float, float]:
    """Eigenvalues of the covariance matrix, descending."""
    values = np.linalg.eigvalsh(cov.matrix())
    return (float(values[2]), float(values[1]), float(values[0]))


def verify_curvature_uncertainty(
    config: McConfig,
    constants: ConstantSet | None = None,
    cov_override: TripletCovariance | None = None,
) -> McResult:
    """Empirically reproduce the closed-form curvature noise at config.l.

    Streams Gaussian triplets of the cube-root covariance (or cov_override,
    a test hook) through the second difference, block by block as the
    module docstring describes, and compares the sample variance against
    the closed form.  The empirical delta_C uses the linearized estimator
    sqrt(Var) * c / (11 l^2).  A delta_C that is not a normal double at
    config.l raises DomainError.
    """
    config.validate()
    cs = constants or default_constants()
    cov = cov_override if cov_override is not None else ngvandam_covariance(config.l, cs)
    if config.n_samples < 2:
        raise DomainError("n_samples must be at least 2 to estimate a variance")
    closed_form_delta_c = _representable(
        "closed-form delta_C", curvature_uncertainty(config.l, cs), config.l
    )
    closed_form_variance = second_difference_variance(cov)
    block = functools.partial(_block_moments, config.seed, _psd_factor(cov).T @ SECOND_DIFFERENCE)
    n = config.n_samples
    sizes = [min(BLOCK_ROWS, n - start) for start in range(0, n, BLOCK_ROWS)]
    workers = min(config.n_partitions, os.cpu_count() or 1, len(sizes))
    if workers == 1:
        moments = list(map(block, range(len(sizes)), sizes))
    else:
        # Imported here, not at module level: it adds ~8 ms to every CLI start.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            moments = list(pool.map(block, range(len(sizes)), sizes))
    count, _, m2 = functools.reduce(_combine, moments)

    empirical_variance = m2 / (count - 1)
    relative_error = abs(empirical_variance - closed_form_variance) / closed_form_variance
    # Dividing by l twice: l**2 alone overflows above ~1e154 cm and goes
    # subnormal (losing digits) below ~1e-154 cm, where delta_C still fits.
    empirical_delta_c = _representable(
        "empirical delta_C",
        math.sqrt(empirical_variance) * cs.c / (11.0 * config.l) / config.l,
        config.l,
    )
    return McResult(
        empirical_variance=empirical_variance,
        closed_form_variance=closed_form_variance,
        relative_error=relative_error,
        empirical_delta_c=empirical_delta_c,
        closed_form_delta_c=closed_form_delta_c,
        sigma2=cov.sigma2,
    )


def _block_moments(seed: int, projection: np.ndarray, index: int, rows: int) -> Moments:
    """Moments of the second differences of block `index`, drawn chunk by chunk.

    Runs on worker threads, so it calls only private helpers and NumPy
    (perfbench/spans.py wraps public names with a span stack that is not
    thread-safe).  NumPy releases the GIL in the normal fill and the
    matrix product, so blocks overlap on separate cores.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
    chunks = (
        _chunk_moments(rng.standard_normal((min(CHUNK_ROWS, rows - start), 3)) @ projection)
        for start in range(0, rows, CHUNK_ROWS)
    )
    return functools.reduce(_combine, chunks)


def _chunk_moments(diffs: np.ndarray) -> Moments:
    mean = float(diffs.mean())
    deviations = diffs - mean
    # einsum, not a BLAS dot: OpenBLAS's threaded ddot made two worker
    # threads run one after the other (no speed-up at two workers).
    return len(diffs), mean, float(np.einsum("i,i->", deviations, deviations))


def _combine(a: Moments, b: Moments) -> Moments:
    """Merge two (count, mean, M2) summaries (Chan, Golub & LeVeque 1979)."""
    count_a, mean_a, m2_a = a
    count_b, mean_b, m2_b = b
    count = count_a + count_b
    delta = mean_b - mean_a
    return (
        count,
        mean_a + delta * count_b / count,
        m2_a + m2_b + delta * delta * count_a * count_b / count,
    )


def _representable(name: str, value: float, l: Length) -> float:
    """value, if it is a normal double; DomainError otherwise."""
    if not sys.float_info.min <= value <= sys.float_info.max:
        raise DomainError(f"{name} at l = {l!r} cm is not a representable double (got {value!r})")
    return value


def _psd_factor(cov: TripletCovariance) -> np.ndarray:
    """Factor F with F F^T = cov, after cov.validate() rejects indefinite input.

    Cholesky when strictly positive definite; on the PSD boundary (for
    example the all-ones correlation) an eigenvalue factor with negatives
    clipped at zero.
    """
    cov.validate()
    matrix = cov.matrix()
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        values, vectors = np.linalg.eigh(matrix)
        return vectors * np.sqrt(np.clip(values, 0.0, None))
