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

from .estimators import EstimateWithError, _estimate
from .losses import LossModel
from .sgld import SGLDConfig, check_bytes, check_count, write_csv

__all__ = [
    "check_horizon",
    "check_pairs",
    "OracleTrace",
    "oracle_trace",
    "oracle_pair_gaps",
    "oracle_mi_from_gaps",
    "oracle_mi_upper",
    "KLRecursionReport",
    "verify_kl_recursion",
]


def check_horizon(T: int) -> None:
    """Raise ValueError if the law of a horizon of T steps needs an array of
    more than ARRAY_BYTE_CAP bytes: `_response_and_var`'s and
    `oracle_trace`'s are (T + 1)-long, 8 bytes an entry."""
    check_bytes(f"{T} oracle steps", {"law trace": 8 * (T + 1)})


def check_pairs(n_dataset_pairs: int) -> None:
    """Raise ValueError if `oracle_pair_gaps` over `n_dataset_pairs` pairs
    needs more than ARRAY_BYTE_CAP bytes for its float64 gaps."""
    check_bytes(f"{n_dataset_pairs} dataset pairs", {"gap array": 8 * n_dataset_pairs})


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

    mean_norm tracks the chain conditioned on the first dataset; kl[t] is
    KL(law | first dataset, law | second dataset) at step t, zero at t=0
    where both start from the same initial Gaussian.
    """

    steps: np.ndarray
    mean_norm: np.ndarray
    var: np.ndarray
    kl: np.ndarray

    def to_csv(self, path) -> None:
        write_csv(path, ("t", "mean_norm", "var", "kl"),
                  zip(self.steps.tolist(), self.mean_norm.tolist(), self.var.tolist(),
                      self.kl.tolist()))


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
        return OracleTrace(
            steps=np.arange(config.T + 1),
            mean_norm=a * float(np.linalg.norm(zbar)),
            var=v.copy(),
            kl=a**2 * gap_sq / (2.0 * v),
        )


def oracle_pair_gaps(
    model: LossModel,
    seed: int,
    n: int,
    n_dataset_pairs: int,
    control_identical: bool = False,
) -> np.ndarray:
    """Per-pair ||zbar_S - zbar_S'||^2 over the dataset pairs of `oracle_mi_upper`,
    each dataset drawn by `model.sample_data`.

    The data-only part of the bound: it depends on (seed, n, pairs,
    control), not on the step size, temperature or horizon, so a grid of
    horizons can draw its pairs once and pass them to `oracle_mi_from_gaps`.
    """
    check_count("n_dataset_pairs", n_dataset_pairs)
    gaps = np.empty(n_dataset_pairs)
    for i, seq in enumerate(np.random.SeedSequence(seed).spawn(n_dataset_pairs)):
        s_seq, s_alt_seq = seq.spawn(2)
        S = model.sample_data(np.random.default_rng(s_seq), n)
        S_alt = S if control_identical else model.sample_data(
            np.random.default_rng(s_alt_seq), n)
        diff = S.mean(axis=0) - S_alt.mean(axis=0)
        gaps[i] = float(diff @ diff)
    return gaps


def oracle_mi_from_gaps(gaps: np.ndarray, a_T: float, v_T: float) -> EstimateWithError:
    """`oracle_mi_upper` from the pairs' squared mean gaps and the law at T.

    a_T and v_T are `_response_and_var`'s entries at the horizon T; each
    pair's KL at T is a_T^2 ||zbar_S - zbar_S'||^2 / (2 v_T).
    """
    return _estimate(float(a_T)**2 * gaps / (2.0 * float(v_T)), "oracle_mi_upper")


def oracle_mi_upper(
    model: LossModel,
    config: SGLDConfig,
    n_dataset_pairs: int,
    control_identical: bool = False,
) -> EstimateWithError:
    """Mutual-information upper bound from closed-form KL over dataset pairs.

    Averages KL(law of W_T given S, law of W_T given S') over independent
    dataset pairs drawn by `model.sample_data`, the law being the
    full-batch chain's at the model's R; each pair's KL is exact, so the
    only error is the pair Monte Carlo. `control_identical` replaces S' by
    S, which must give 0. A model without R, or k < n, is a ValueError.
    """
    if config.k != config.n:
        raise ValueError("the exact law covers full-batch chains only (k = n)")
    R = model.constants().R
    if R is None:
        raise ValueError("the exact law needs the model's curvature R, and "
                         f"{type(model).__name__} has none")
    gaps = oracle_pair_gaps(model, config.seed, config.n, n_dataset_pairs,
                            control_identical)
    a, v = _response_and_var(config.eta, config.beta, R, config.s_sq, config.T)
    return oracle_mi_from_gaps(gaps, a[-1], v[-1])


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
