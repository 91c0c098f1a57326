"""Exact Gaussian law of the full-batch chain on the quadratic loss.

With a quadratic loss and full batches the update is affine in the state
plus isotropic Gaussian noise, so the parameter law stays Gaussian with an
isotropic covariance and evolves by a scalar variance recursion. That gives
closed-form KL between the laws conditioned on two datasets, an exact
mutual-information upper bound by averaging that KL over dataset pairs, and
a ground truth against which the per-step KL inequality can be verified
with no discretization error.

Mini-batch chains are deliberately out of scope: their laws are mixtures
over batch paths, not single Gaussians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .losses import LossModel
from .sgld import SGLDConfig, _block_len, array_rows, check_count, write_csv

__all__ = [
    "OracleTrace",
    "oracle_trace",
    "oracle_pair_gaps",
    "oracle_mi_from_gaps",
    "KLRecursionReport",
    "verify_kl_recursion",
]

SEQ_WORDS = 51  # 8-byte words of a spawned SeedSequence: tracemalloc
                # counted 407 B a sequence over 20,000


def _response_and_var(eta: float, beta: float, R: float, s_sq: float, T: int):
    """Unit response a_t and variance v_t of the affine recursion, t = 0..T.

    a_t is the coefficient of zbar in the mean after t steps from mean 0;
    v_t is the per-coordinate variance from v_0 = s^2. Shared by every
    dataset because neither depends on the data.
    """
    a = np.empty(T + 1)
    v = np.empty(T + 1)
    a[0], v[0] = 0.0, s_sq
    decay = 1.0 - eta * R
    add = 2.0 * eta / beta
    # |1 - eta R| > 1 overflows, and `verify` reports the first step it does
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(T):
            a[t + 1] = decay * a[t] + eta * R
            v[t + 1] = decay**2 * v[t] + add
    return a, v


@dataclass(frozen=True)
class OracleTrace:
    """Exact law sequence for one dataset pair, with the KL between them.

    Each array has an entry per step: response and var are
    `_response_and_var`'s a_t and v_t; mean_norm tracks the chain
    conditioned on the first dataset; kl[t] is KL(law | first dataset,
    law | second dataset) at step t, zero at t=0 where both start from the
    same initial Gaussian.
    """

    response: np.ndarray
    mean_norm: np.ndarray
    var: np.ndarray
    kl: np.ndarray

    def to_csv(self, path) -> None:
        write_csv(path, ("t", "mean_norm", "var", "kl"),
                  array_rows(range(len(self.kl)), self.mean_norm, self.var, self.kl))


def oracle_trace(
    dataset: np.ndarray, dataset_alt: np.ndarray, config: SGLDConfig, R: float
) -> OracleTrace:
    """Exact per-step law and KL trace for a fixed dataset pair.

    Both chains start from the same N(0, s^2 I), so their variances agree
    at every step and the KL reduces to a_t^2 ||zbar - zbar'||^2 / (2 v_t).
    """
    if config.k != config.n:
        raise ValueError("the exact law covers full-batch chains only (k = n)")
    dataset = np.asarray(dataset, dtype=float)
    dataset_alt = np.asarray(dataset_alt, dtype=float)
    zbar = dataset.mean(axis=0)
    zbar_alt = dataset_alt.mean(axis=0)
    a, v = _response_and_var(config.eta, config.beta, R, config.s_sq, config.T)
    gap_sq = float((zbar - zbar_alt) @ (zbar - zbar_alt))
    # a law past the float range gives inf and nan, whose first step `verify` reports
    with np.errstate(over="ignore", invalid="ignore"):
        return OracleTrace(response=a, mean_norm=a * float(np.linalg.norm(zbar)),
                           var=v, kl=a**2 * gap_sq / (2.0 * v))


def oracle_pair_gaps(
    model: LossModel,
    seed: int,
    n: int,
    n_dataset_pairs: int,
    control_identical: bool = False,
) -> np.ndarray:
    """Per-pair ||zbar_S - zbar_S'||^2 over independent dataset pairs, each
    dataset drawn by `model.sample_data`; `control_identical` sets S' = S.

    The data-only part of the bound: it depends on (seed, n, pairs,
    control), not on the step size, temperature or horizon, so a grid of
    horizons can draw its pairs once and pass them to `oracle_mi_from_gaps`.
    The pairs' sequences are spawned a block at a time, the children one
    call would spawn, so at most a block of them is held.
    """
    check_count("n_dataset_pairs", n_dataset_pairs)
    gaps = np.empty(n_dataset_pairs)
    root, block = np.random.SeedSequence(seed), _block_len(SEQ_WORDS)
    seqs = (seq for i0 in range(0, n_dataset_pairs, block)
            for seq in root.spawn(min(block, n_dataset_pairs - i0)))
    for i, seq in enumerate(seqs):
        s_seq, s_alt_seq = seq.spawn(2)
        S = model.sample_data(np.random.default_rng(s_seq), n)
        S_alt = S if control_identical else model.sample_data(
            np.random.default_rng(s_alt_seq), n)
        diff = S.mean(axis=0) - S_alt.mean(axis=0)
        gaps[i] = float(diff @ diff)
    return gaps


def oracle_mi_from_gaps(gaps: np.ndarray, a_T: float, v_T: float) -> float:
    """Mutual-information upper bound: the mean over dataset pairs of the
    full-batch chain's exact KL at T, so the only error is the pair Monte Carlo.

    gaps are `oracle_pair_gaps`' and a_T and v_T `_response_and_var`'s
    entries at the horizon T; each pair's KL is a_T^2 ||zbar_S - zbar_S'||^2 / (2 v_T).
    Returns the pairs' mean KL as a float, np.mean's bits; a law past the
    float range gives inf or nan.
    """
    return float(np.mean(float(a_T)**2 * gaps / (2.0 * float(v_T))))


@dataclass(frozen=True)
class KLRecursionReport:
    """Violations of KL_t <= contraction * KL_{t-1} + per_step_add along a
    trace, and the least slack over its steps."""

    n_violations: int
    worst_slack: float


def verify_kl_recursion(kl_trace, contraction: float,
                        per_step_add: float) -> KLRecursionReport:
    """Check the one-step KL inequality along a trace.

    Slack at step t is contraction * KL_{t-1} + per_step_add - KL_t;
    a negative slack is a violation. worst_slack is the minimum over steps
    (trace of length < 2 has no steps to check).
    """
    kl = np.asarray(kl_trace, dtype=float)
    if kl.ndim != 1:
        raise ValueError("kl_trace must be a flat sequence")
    if not (contraction >= 0 and per_step_add >= 0):
        raise ValueError("contraction and per_step_add must be nonnegative")
    if kl.shape[0] < 2:
        return KLRecursionReport(n_violations=0, worst_slack=math.inf)
    slack = contraction * kl[:-1] + per_step_add - kl[1:]
    # a NaN slack is a violation too
    return KLRecursionReport(n_violations=int((~(slack >= 0)).sum()),
                             worst_slack=float(slack.min()))
