"""Monte Carlo verification of the closed-form curvature noise.

Applying the cube-root time law to the single intervals (length t),
adjacent pairs (2t) and the full triple (3t), with t = l/c and exchange
symmetry cov12 = cov23, pins a unique covariance for (t1, t2, t3):

    Var(t_i)              = sigma^2
    Var(t_i + t_{i+1})    = 2^(2/3) sigma^2
    Var(t1 + t2 + t3)     = 3^(2/3) sigma^2

ngvandam_covariance builds that matrix, and verify_curvature_uncertainty
samples it, and no other, to reproduce the closed-form noise empirically.
Its correlation matrix is strictly positive definite (smallest eigenvalue
about 0.6836), so it has a Cholesky factor at every l.  The law only
fixes first and second moments; samples are Gaussian (the maximum-entropy
choice, and any distribution with these moments gives the same
second-difference variance).  Like every law in the toolkit, the
covariance is in the CODATA-2018 set DEFAULT_CONSTANTS.

Numerical note: at laboratory scales the fluctuations sit ~22 orders of
magnitude below the mean flight time, so mean + delta would round to the
mean exactly in double precision.  Samples are therefore generated and
analysed in fluctuation space (zero-mean deltas); the second difference
annihilates the common mean anyway.

One normal per sample: a sample's second difference is z . (F^T w), with
z three standard normals, F the Cholesky factor of the covariance and
w = (1, -2, 1).  That is exactly N(0, |F^T w|^2), so each sample is drawn
as one standard normal scaled by |F^T w|.  The scale is taken from the
factor F, not from the closed form w^T cov w, so the run still checks F
along w against it.

Streaming: the n samples are split into fixed blocks of BLOCK_ROWS rows.
Block b draws standard normals from NumPy PCG64 seeded with
SeedSequence(seed, spawn_key=(b,)), in chunks of CHUNK_ROWS from that one
generator, which yields the same stream as one whole-block draw.  Each
chunk is scaled in place to its second differences and reduced to
(count, mean, M2), so a sample takes 8 bytes of working memory.  Chunks
merge in order within a block, and blocks merge in block order, by the
pairwise update of Chan, Golub & LeVeque (1979).  Memory is O(chunk), not
O(n).

Determinism: results depend on (seed, n_samples) only.  n_partitions caps
the threads that compute blocks, the calling thread among them, at
min(n_partitions, os.cpu_count(), number of blocks).  It never changes
what is drawn or the merge order, so results are bit-identical across
partition counts.  Block keys stay below the report's batch key 1_000_003
(report._max_identity_gap) for n_samples below about 1e12.  Worker
threads call only private helpers and NumPy, and every public call stays
on the calling thread.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from typing import NamedTuple

import numpy as np

from .constants import (
    DEFAULT_CONSTANTS,
    Curvature,
    Length,
    is_number,
    require_positive_finite,
    require_representable,
    shown,
)
from .errors import DomainError
from .laws import time_uncertainty
from .wigner import TripletCovariance, curvature_uncertainty, second_difference_variance


def _fgn_correlation(k: int) -> float:
    """Lag-k correlation of fractional Gaussian noise with H = 1/3 (Mandelbrot & Van Ness 1968)."""
    return ((k + 1) ** (2.0 / 3.0) - 2.0 * k ** (2.0 / 3.0) + abs(k - 1) ** (2.0 / 3.0)) / 2.0


ADJACENT_CORRELATION = _fgn_correlation(1)
OUTER_CORRELATION = _fgn_correlation(2)

BLOCK_ROWS = 1_000_000
CHUNK_ROWS = 1 << 16

# (count, mean, M2): M2 is the sum of squared deviations from the mean.
Moments = tuple[int, float, float]


class McConfig(NamedTuple):
    """Sampling parameters for one verification run.

    n_partitions caps the threads that compute blocks, the calling thread
    among them; results do not depend on it.
    """

    l: Length
    n_samples: int
    seed: int
    n_partitions: int = 1

    def validate(self) -> None:
        require_positive_finite("l", self.l)
        if not (is_number(self.n_samples, int) and self.n_samples >= 1):
            raise DomainError(f"n_samples must be a positive integer, got {shown(self.n_samples)}")
        if not (is_number(self.seed, int) and 0 <= self.seed < 2**64):
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {shown(self.seed)}")
        if not (is_number(self.n_partitions, int) and self.n_partitions >= 1):
            raise DomainError(
                f"n_partitions must be a positive integer, got {shown(self.n_partitions)}"
            )


class McResult(NamedTuple):
    """Empirical versus closed-form second-difference statistics.

    closed_form_variance is second_difference_variance of the cube-root
    covariance that was sampled, VARIANCE_RATIO * sigma2; closed_form_delta_c
    is the closed-form noise law at l, bit-identical to
    wigner.curvature_uncertainty.
    """

    empirical_variance: float
    closed_form_variance: float
    relative_error: float
    empirical_delta_c: Curvature
    closed_form_delta_c: Curvature
    sigma2: float


def ngvandam_covariance(l: Length) -> TripletCovariance:
    """Covariance of (t1, t2, t3) implied by the cube-root law at length l."""
    sigma = time_uncertainty(l / DEFAULT_CONSTANTS.c)
    sigma2 = sigma * sigma
    return TripletCovariance(
        sigma2=sigma2,
        cov12=sigma2 * ADJACENT_CORRELATION,
        cov23=sigma2 * ADJACENT_CORRELATION,
        cov13=sigma2 * OUTER_CORRELATION,
    )


def verify_curvature_uncertainty(config: McConfig) -> McResult:
    """Empirically reproduce the closed-form curvature noise at config.l.

    Streams the second differences of Gaussian triplets of the cube-root
    covariance at config.l, one normal per sample and block by block as
    the module docstring describes, and compares the sample variance
    against the closed form.  The empirical delta_C uses the linearized
    estimator sqrt(Var) * c / (11 l^2).  A delta_C that is not a normal
    double at config.l raises DomainError.

    The blocks compute on min(n_partitions, os.cpu_count(), blocks)
    threads, the calling thread among them.  A Ctrl-C, or else the first
    exception from a block, stops the threads after their current block
    and is raised here once every thread has joined.
    """
    config.validate()
    if config.n_samples < 2:
        raise DomainError("n_samples must be at least 2 to estimate a variance")
    # Checked first, so the error names l: where delta_C overflows, t = l/c underflows to 0.
    closed_form_delta_c = curvature_uncertainty(config.l)
    cov = ngvandam_covariance(config.l)
    closed_form_variance = second_difference_variance(cov)  # validates cov
    block = functools.partial(_block_moments, config.seed, _second_difference_scale(cov))
    n = config.n_samples
    sizes = [min(BLOCK_ROWS, n - start) for start in range(0, n, BLOCK_ROWS)]
    workers = min(config.n_partitions, os.cpu_count() or 1, len(sizes))
    moments: list = [None] * len(sizes)
    errors: list[BaseException] = []
    # Shared by every thread; next() on a range iterator is one call under the GIL.
    indices = iter(range(len(sizes)))

    def work() -> None:
        try:
            for index in indices:
                if errors:  # a block failed, or Ctrl-C reached the calling thread
                    return
                moments[index] = block(index, sizes[index])
        except BaseException as error:
            errors.append(error)

    threads = []
    try:
        for _ in range(workers - 1):
            thread = threading.Thread(target=work, name="foamlab-mc-blocks")
            thread.start()
            threads.append(thread)
        work()
        for thread in threads:
            thread.join()
    except BaseException as error:  # Ctrl-C while starting or joining the threads
        errors.append(error)  # the threads stop after their current block
        for thread in threads:
            thread.join()
        raise
    if errors:
        raise errors[0]
    count, _, m2 = functools.reduce(_combine, moments)

    empirical_variance = m2 / (count - 1)
    relative_error = abs(empirical_variance - closed_form_variance) / closed_form_variance
    # Dividing by l twice: l**2 alone overflows above ~1e154 cm and goes
    # subnormal (losing digits) below ~1e-154 cm, where delta_C still fits.
    empirical_delta_c = require_representable(
        "empirical delta_C",
        math.sqrt(empirical_variance) * DEFAULT_CONSTANTS.c / (11.0 * config.l) / config.l,
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


def _block_moments(seed: int, scale: float, index: int, rows: int) -> Moments:
    """Moments of the second differences of block `index`, drawn chunk by chunk.

    Runs on worker threads as well as the calling thread, so it calls only
    private helpers and NumPy (perfbench/spans.py wraps public names with
    a span stack that is not thread-safe).  NumPy releases the GIL in the
    normal fill and the array passes, so blocks overlap on separate cores.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
    chunks = (
        _chunk_moments(rng.standard_normal(min(CHUNK_ROWS, rows - start)), scale)
        for start in range(0, rows, CHUNK_ROWS)
    )
    return functools.reduce(_combine, chunks)


def _chunk_moments(draws: np.ndarray, scale: float) -> Moments:
    """(count, mean, M2) of the second differences draws * scale, worked out in place."""
    draws *= scale
    mean = float(draws.mean())
    draws -= mean
    # einsum, not a BLAS dot: OpenBLAS's threaded ddot made two worker
    # threads run one after the other (no speed-up at two workers).
    return len(draws), mean, float(np.einsum("i,i->", draws, draws))


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


def _second_difference_scale(cov: TripletCovariance) -> float:
    """|F^T w|, the standard deviation of t1 - 2 t2 + t3, from the lower Cholesky factor F of cov.

    F is written out in LAPACK's operation order, so it does not depend on the BLAS build.  The
    cube-root covariance is strictly positive definite, so the factor needs no fallback.
    """
    s, c12, c23, c13 = cov
    f11 = math.sqrt(s)
    f21, f31 = c12 * (1.0 / f11), c13 * (1.0 / f11)
    f22 = math.sqrt(s - f21 * f21)
    f32 = (c23 - f31 * f21) * (1.0 / f22)
    f33 = math.sqrt(s - (f31 * f31 + f32 * f32))
    return math.hypot(f11 - 2.0 * f21 + f31, f32 - 2.0 * f22, f33)
