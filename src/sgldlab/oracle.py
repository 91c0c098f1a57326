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

from .losses import LossConstants, LossModel
from .sgld import SGLDConfig, _block_len, array_rows, check_count, stream, write_csv

__all__ = [
    "has_oracle_law",
    "OracleTrace",
    "oracle_trace",
    "oracle_pair_gaps",
    "oracle_mi_from_gaps",
    "KLRecursionReport",
    "verify_kl_recursion",
    "oracle_section",
]

SEQ_WORDS = 51  # 8-byte words of a spawned SeedSequence: tracemalloc
                # counted 407 B a sequence over 20,000


def has_oracle_law(lc: LossConstants) -> bool:
    """Whether `verify` checks a loss against the oracle's law, which needs R."""
    return lc.R is not None


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


def _pair_kl(a, v, gap_sq):
    """KL between the laws on a dataset pair at a_t and v_t: a_t^2
    ||zbar_S - zbar_S'||^2 / (2 v_t), from `_response_and_var`'s a_t and
    v_t and the pair's squared mean gap (either side may be an array)."""
    return a**2 * gap_sq / (2.0 * v)


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
    at every step and the KL reduces to `_pair_kl`'s.
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
                           var=v, kl=_pair_kl(a, v, gap_sq))


def oracle_pair_gaps(
    model: LossModel,
    seed: int,
    n: int,
    n_dataset_pairs: int,
) -> np.ndarray:
    """Per-pair ||zbar_S - zbar_S'||^2 over independent dataset pairs, each
    dataset drawn by `model.sample_data`.

    The data-only part of the bound: it depends on (seed, n, pairs), not on
    the step size, temperature or horizon, so a grid of horizons can draw
    its pairs once and pass them to `oracle_mi_from_gaps`.
    The pairs' sequences are spawned a block at a time, the children one
    call would spawn, so at most a block of them is held.
    """
    check_count("n_dataset_pairs", n_dataset_pairs)
    gaps = np.empty(n_dataset_pairs)
    root, block = stream(seed, "mi_pairs"), _block_len(SEQ_WORDS)
    seqs = (seq for i0 in range(0, n_dataset_pairs, block)
            for seq in root.spawn(min(block, n_dataset_pairs - i0)))
    for i, seq in enumerate(seqs):
        s_seq, s_alt_seq = seq.spawn(2)
        # S is reduced to its mean before S' is drawn
        zbar = model.sample_data(np.random.default_rng(s_seq), n).mean(axis=0)
        diff = zbar - model.sample_data(np.random.default_rng(s_alt_seq), n).mean(axis=0)
        gaps[i] = float(diff @ diff)
    return gaps


def oracle_mi_from_gaps(gaps: np.ndarray, a_T: float, v_T: float) -> float:
    """Mutual-information upper bound: the mean over dataset pairs of the
    full-batch chain's exact KL at T, so the only error is the pair Monte Carlo.

    gaps are `oracle_pair_gaps`' and a_T and v_T `_response_and_var`'s
    entries at the horizon T; each pair's KL is `_pair_kl`'s. Returns the
    pairs' mean KL as a float, np.mean's bits; a law past the float range
    gives inf or nan.
    """
    return float(np.mean(_pair_kl(float(a_T), float(v_T), gaps)))


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


def oracle_section(model: LossModel, config: SGLDConfig, out, falsify: bool):
    """`verify`'s oracle section: the KL recursion, contraction exp(-eta R / 4)
    and add eta (beta/2) R^2 ||zbar_S - zbar_S'||^2, along the exact law of
    the full-batch chain `config` on a dataset pair drawn from the
    "verify_pair" stream, written to `out`'s oracle_trace.csv, and
    the identical-pair control. Falsified, the recursion is contraction 1
    and add 0, which a KL that grows from 0 cannot meet. Returns ({"oracle":
    report}, hard failures); a family without R (`has_oracle_law`) is skipped.
    """
    lc = model.constants()
    if not has_oracle_law(lc):
        return {"oracle": {"skipped": "loss family has no curvature constant; "
                                      "exact law unavailable"}}, []
    s_seq, alt_seq = stream(config.seed, "verify_pair").spawn(2)
    S = model.sample_data(np.random.default_rng(s_seq), config.n)
    S_alt = model.sample_data(np.random.default_rng(alt_seq), config.n)
    trace = oracle_trace(S, S_alt, config, R=lc.R)
    with out.file("oracle_trace.csv") as path:
        trace.to_csv(path)
    gap_sq = float(np.sum((S.mean(axis=0) - S_alt.mean(axis=0)) ** 2))
    if falsify:
        contraction, add = 1.0, 0.0
    else:
        contraction = math.exp(-config.eta * lc.R / 4.0)
        add = config.eta * (config.beta / 2.0) * lc.R**2 * gap_sq
    # each array tested on its own: a stack of the three is 3 rows
    step = min((int(np.argmin(ok)) for ok in map(np.isfinite, (
        trace.mean_norm, trace.var, trace.kl)) if not ok.all()), default=None)
    if step is not None:
        # |1 - eta R| > 1: the law leaves the float range, and no recursion
        # or MI value is defined past it
        return ({"oracle": {"non_finite_from_step": step}},
                [f"oracle law not finite from step {step}"])
    rec = verify_kl_recursion(trace.kl, contraction, add)
    # the identical-pair control: `bounds`' MI at eight pairs with S' = S,
    # whose gaps are exactly zero
    mi_zero = oracle_mi_from_gaps(np.zeros(8), trace.response[-1], trace.var[-1])
    failures = []
    if rec.n_violations > 0:
        failures.append(f"kl recursion violated at {rec.n_violations} steps")
    if mi_zero != 0.0:
        failures.append("identical-pair MI control is nonzero")
    return {"oracle": {"recursion_violations": rec.n_violations,
                       "recursion_worst_slack": rec.worst_slack,
                       "identical_pair_mi": mi_zero, "contraction": contraction,
                       "per_step_add": add}}, failures
