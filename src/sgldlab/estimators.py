"""Monte Carlo estimators for the quantities the bounds talk about.

Covers the train-test gap of the final iterate, the conditional variance
of the minibatch gradient, gradient stability across resampled datasets,
p-th moments of the iterate norm, and the log moment generating function
of the loss. Every estimator is seeded, reports a standard error where one
is defined, and emits CSV rows {estimator, t_or_lambda, mean, stderr, n}.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .losses import LossModel
from .sgld import (
    SGLDConfig,
    _block_len,
    _draw_offsets,
    _fy_subset_rows,
    _run_chains_lockstep,
    check_count,
)

__all__ = [
    "EstimateWithError",
    "EVAL_LOSSES",
    "empirical_gen_gap",
    "grad_variance_trace",
    "grad_stability_trace",
    "stability_datasets",
    "stability_chains",
    "stability_estimates",
    "PthMomentReport",
    "pth_moment_min_chains",
    "pth_moment_check",
    "LogMgfReport",
    "admitted_lambdas",
    "logmgf_check",
    "write_estimates_csv",
]

TEST_POOL_FACTOR = 10    # test pool size = factor * n per trial
BOOTSTRAP_RESAMPLES = 200
EVAL_LOSSES = ("same_as_f", "surrogate")  # raw loss, bounded surrogate f/(1+f)


@dataclass(frozen=True)
class EstimateWithError:
    """A Monte Carlo estimate with its standard error.

    stderr is the sample standard deviation divided by sqrt(n_samples);
    zero when the estimate is exact.
    """

    mean: float
    stderr: float
    n_samples: int
    estimator_name: str

    def __post_init__(self) -> None:
        if not math.isfinite(self.mean):
            raise ValueError(f"estimate must be finite, got {self.mean}")
        if not (self.stderr >= 0 and math.isfinite(self.stderr)):
            raise ValueError(f"stderr must be nonnegative and finite, got {self.stderr}")


def _estimate(samples: np.ndarray, name: str) -> EstimateWithError:
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    sd = float(samples.std(ddof=1)) if n > 1 else 0.0
    return EstimateWithError(
        mean=float(samples.mean()),
        stderr=sd / math.sqrt(n),
        n_samples=n,
        estimator_name=name,
    )


def _estimates(rows: np.ndarray, name: str) -> list[EstimateWithError]:
    """`_estimate` of each row of a (b, m) block, in one pass over the block."""
    m = rows.shape[1]
    means = rows.mean(axis=1)
    sds = rows.std(axis=1, ddof=1) if m > 1 else np.zeros(rows.shape[0])
    root_m = math.sqrt(m)
    return [EstimateWithError(mean=float(mu), stderr=float(sd) / root_m,
                              n_samples=m, estimator_name=name)
            for mu, sd in zip(means, sds)]


def _surrogate(values: np.ndarray) -> np.ndarray:
    # bounded evaluation loss g = f / (1 + f), mapping [0, inf) into [0, 1)
    return values / (1.0 + values)


def _eval_losses(model: LossModel, w: np.ndarray, Z: np.ndarray) -> np.ndarray:
    W = np.broadcast_to(w, (Z.shape[0], w.shape[0]))
    return model.eval_many(W, Z)


# ------------------------------------------------------------------ gen gap


def empirical_gen_gap(
    model: LossModel,
    config: SGLDConfig,
    n_trials: int,
    eval_loss: str = "same_as_f",
) -> EstimateWithError:
    """Mean train-test gap of the final iterate over independent trials.

    Each trial draws a fresh dataset S from the model's data distribution,
    runs one chain on it, and compares the mean loss of W_T on a fresh test
    pool of 10 n points against the mean loss on S. `eval_loss` selects the raw training loss
    ("same_as_f") or the bounded surrogate f/(1+f) ("surrogate").
    """
    check_count("n_trials", n_trials)
    if eval_loss not in EVAL_LOSSES:
        raise ValueError(f"unknown eval_loss {eval_loss!r}")

    root = np.random.SeedSequence(config.seed)
    trial_seqs = root.spawn(n_trials)
    datasets, chain_seqs, pool_seqs = [], [], []
    for seq in trial_seqs:
        ds_seq, chain_seq, pool_seq = seq.spawn(3)
        datasets.append(model.sample_data(np.random.default_rng(ds_seq), config.n))
        chain_seqs.append(chain_seq)
        pool_seqs.append(pool_seq)

    traces = _run_chains_lockstep(config, model, np.stack(datasets), chain_seqs,
                                  series=0)

    n_pool = TEST_POOL_FACTOR * config.n
    gaps = np.empty(n_trials)
    for i, tr in enumerate(traces):
        pool = model.sample_data(np.random.default_rng(pool_seqs[i]), n_pool)
        w = tr.final_state
        test_vals = _eval_losses(model, w, pool)
        train_vals = _eval_losses(model, w, datasets[i])
        if eval_loss == "surrogate":
            test_vals = _surrogate(test_vals)
            train_vals = _surrogate(train_vals)
        gaps[i] = test_vals.mean() - train_vals.mean()
    return _estimate(gaps, f"gen_gap[{eval_loss}]")


# ------------------------------------------------------- gradient statistics


def grad_variance_trace(
    model: LossModel,
    dataset: np.ndarray,
    trace,
    n_resamples: int,
    rng_seed: int | None = None,
) -> list[EstimateWithError]:
    """Conditional minibatch-gradient variance at each stored state.

    At W_t the conditional mean of the minibatch gradient is the full-batch
    gradient, known exactly, so the estimator averages squared deviations
    of freshly resampled minibatch gradients around it. Full batch (k = n)
    has no sampling noise and returns exact zeros without resampling.
    """
    check_count("n_resamples", n_resamples)
    cfg = trace.config
    dataset = np.asarray(dataset, dtype=float)
    if cfg.k == cfg.n:
        return [
            EstimateWithError(0.0, 0.0, n_resamples, "grad_variance[exact_full_batch]")
            for _ in trace.stored_steps
        ]
    if rng_seed is None:
        rng_seed = cfg.seed
    rng = np.random.default_rng(np.random.SeedSequence([rng_seed, 0xE57]))

    # blocks of stored states; drawing a block's offsets in one call gives
    # the same stream as one (n_resamples, k) draw per state
    out = []
    high = cfg.n - np.arange(cfg.k)
    # per state: an (n_resamples, n) Fisher-Yates scratch, and the
    # (n_resamples, k, z) minibatches next to the (n, z) full batch
    words = max(n_resamples * cfg.n, (n_resamples * cfg.k + cfg.n) * dataset.shape[1])
    block = _block_len(words)
    for r0 in range(0, trace.states.shape[0], block):
        W = trace.states[r0:r0 + block]
        b = W.shape[0]
        gfull = model.grad_minibatch(W, np.broadcast_to(dataset, (b, *dataset.shape)))
        offs = _draw_offsets(rng, high, b * n_resamples)
        idx = _fy_subset_rows(offs, cfg.n)
        G = model.grad_resampled(W, dataset, idx)
        dev = G - np.repeat(gfull, n_resamples, axis=0)
        sq = np.einsum("ij,ij->i", dev, dev).reshape(b, n_resamples)
        out.extend(_estimates(sq, "grad_variance"))
    return out


def grad_stability_trace(
    model: LossModel,
    config: SGLDConfig,
    n_pairs: int,
    control_identical: bool = False,
) -> list[EstimateWithError]:
    """E ||grad_F(W_t, S) - grad_F(W_t, S')||^2 over dataset pairs.

    Per pair, S and S' are drawn independently from the model's data
    distribution, one chain runs on S, and both full-batch gradients are
    evaluated at its stored states, by blocks of steps. The
    chain's law is driven by S only; the statistic is asymmetric in that
    respect. `control_identical` replaces S' by S (the statistic is then
    exactly zero; falsification control).

    The composition of its two phases: `stability_chains` draws the pairs
    and runs their chains, `stability_estimates` evaluates the stored steps.
    """
    return stability_estimates(
        model, *stability_chains(model, config, n_pairs, control_identical))


def stability_datasets(
    model: LossModel,
    config: SGLDConfig,
    n_pairs: int,
    control_identical: bool = False,
) -> tuple[np.ndarray, list]:
    """The pairs of `grad_stability_trace`: their datasets as one (2 n_pairs,
    n, z) array, the n_pairs datasets S then their n_pairs datasets S', and
    the seed sequence of each pair's chain."""
    check_count("n_pairs", n_pairs)
    root = np.random.SeedSequence(config.seed)
    datasets, datasets_alt, chain_seqs = [], [], []
    for seq in root.spawn(n_pairs):
        s_seq, s_alt_seq, chain_seq = seq.spawn(3)
        S = model.sample_data(np.random.default_rng(s_seq), config.n)
        datasets.append(S)
        datasets_alt.append(
            S if control_identical
            else model.sample_data(np.random.default_rng(s_alt_seq), config.n))
        chain_seqs.append(chain_seq)
    return np.stack(datasets + datasets_alt), chain_seqs


def stability_chains(
    model: LossModel,
    config: SGLDConfig,
    n_pairs: int,
    control_identical: bool = False,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Phase (a) of `grad_stability_trace`: the `stability_datasets` array
    and each pair's chain, run on its S, at the stored steps, one (steps, d)
    array per pair."""
    datasets, chain_seqs = stability_datasets(model, config, n_pairs,
                                              control_identical)
    traces = _run_chains_lockstep(config, model, datasets[:n_pairs], chain_seqs,
                                  series=0)
    return datasets, [tr.states for tr in traces]


def stability_estimates(
    model: LossModel,
    datasets: np.ndarray,
    states,
    until=None,
) -> list[EstimateWithError]:
    """Phase (b) of `grad_stability_trace`: the estimate at each step of
    `states`, one (steps, d) array per pair, from the pairs'
    `stability_datasets` array.

    Per pair and per block of steps, one `LossModel.stability_sq` call
    gives the squared gradient differences. The blocks lie on a fixed grid
    from the first step, `_block_len` steps long by one dataset's (steps,
    n) margins, since a family's bits may depend on a row's place in its
    block. So a range of steps starting on the grid gives the bits of the
    same rows of a whole trace. `until`, when given, is called with each
    block's first step and the block length before the block is evaluated,
    and returns the index of the step to stop before: a step on the grid,
    or the number of steps. The estimates of the steps before it are
    returned.
    """
    n_pairs = len(states)
    n_steps = states[0].shape[0]
    block = _block_len(datasets.shape[1])
    out = []
    for r0 in range(0, n_steps, block):
        if until is not None and r0 >= until(r0, block):
            break
        # sq[r, p] is pair p at the block's r-th step
        sq = np.empty((min(block, n_steps - r0), n_pairs))
        for p, s in enumerate(states):
            sq[:, p] = model.stability_sq(s[r0:r0 + block], datasets[p],
                                          datasets[n_pairs + p])
        out.extend(_estimates(sq, "grad_stability"))
    return out


# ----------------------------------------------------------------- p-th moments


@dataclass(frozen=True)
class PthMomentReport:
    """Empirical p-th moments of ||W_T|| against the trajectory moment bound.

    For each p: `empirical` is (mean ||W_T||^p)^(1/p); `unit_C_rhs` is the
    bound with universal constant 1, (E||W_0||^p)^(1/p) + sqrt((p + beta b
    + d)/(beta m)) with the initial moment exact for the Gaussian start;
    `fitted_C` is the smallest universal constant making the bound hold.
    `fitted_C_bounded` flags whether max_p fitted_C <= 2 * fitted_C(2).
    """

    p_values: tuple[int, ...]
    empirical: tuple[float, ...]
    unit_C_rhs: tuple[float, ...]
    fitted_C: tuple[float, ...]
    n_samples: int
    fitted_C_bounded: bool

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _gaussian_norm_moment(d: int, s_sq: float, p: int) -> float:
    # (E ||W_0||^p)^(1/p) for W_0 ~ N(0, s_sq I_d): s * (E chi_d^p)^(1/p)
    logm = (p / 2.0) * math.log(2.0) + math.lgamma((d + p) / 2.0) - math.lgamma(d / 2.0)
    return math.sqrt(s_sq) * math.exp(logm / p)


def pth_moment_min_chains(p_list) -> int:
    """Fewest final states `pth_moment_check` accepts for `p_list`, a
    nonempty list of even integers in [2, 12] (else ValueError)."""
    p_list = [int(p) for p in p_list]
    if not p_list:
        raise ValueError("p_list is empty")
    for p in p_list:
        if p % 2 != 0 or p < 2 or p > 12:
            raise ValueError(f"p must be an even integer in [2, 12], got {p}")
    return max(30, 5 * max(p_list))


def pth_moment_check(
    traces,
    p_list,
    lc,
    beta: float,
    d: int,
    s_sq: float,
) -> PthMomentReport:
    """Fit the universal constant of the p-th moment bound per p."""
    need = pth_moment_min_chains(p_list)
    p_list = [int(p) for p in p_list]
    finals = np.stack([tr.final_state for tr in traces])
    n = finals.shape[0]
    if n < need:
        raise ValueError(
            f"{n} samples is too few for p up to {max(p_list)}; need at least {need}"
        )
    norms = np.linalg.norm(finals, axis=1)

    empirical, unit_rhs, fitted = [], [], []
    for p in p_list:
        emp = float(np.mean(norms**p) ** (1.0 / p))
        rhs = _gaussian_norm_moment(d, s_sq, p) + math.sqrt((p + beta * lc.b + d)
                                                            / (beta * lc.m))
        empirical.append(emp)
        unit_rhs.append(rhs)
        fitted.append(emp / rhs)
    bounded = max(fitted) <= 2.0 * fitted[p_list.index(2)] if 2 in p_list else True
    return PthMomentReport(
        p_values=tuple(p_list),
        empirical=tuple(empirical),
        unit_C_rhs=tuple(unit_rhs),
        fitted_C=tuple(fitted),
        n_samples=n,
        fitted_C_bounded=bounded,
    )


# --------------------------------------------------------------------- log-MGF


@dataclass(frozen=True)
class LogMgfReport:
    """Empirical log moment generating function against its envelope.

    Per grid point: the empirical log E exp(lambda (f - mean f)), a
    bootstrap percentile band, the envelope sigma_e_sq lambda^2 / 2, and
    whether the point estimate violates the envelope.
    """

    lambdas: tuple[float, ...]
    logmgf: tuple[float, ...]
    band_lo: tuple[float, ...]
    band_hi: tuple[float, ...]
    envelope: tuple[float, ...]
    n_violations: int
    n_samples: int
    n_bootstrap: int


def _log_mean_exp(rows: np.ndarray) -> list[float]:
    """log mean exp of each row of a (b, m) block, shifted by the row's max,
    overwriting the block. The log is math.log, which np.log does not match
    in every last bit."""
    top = rows.max(axis=1)
    rows -= top[:, None]
    means = np.exp(rows, out=rows).mean(axis=1)
    return [t + math.log(mean) for t, mean in zip(top.tolist(), means.tolist())]


def admitted_lambdas(lambda_grid, nu: float) -> list[float]:
    """The grid as floats if inside |lambda| < 1/(2 nu), else ValueError: half
    the admissible region, where the empirical MGF is still estimable."""
    cap = 1.0 / (2.0 * nu)
    lambdas = [float(lam) for lam in lambda_grid]
    for lam in lambdas:
        if not abs(lam) < cap:
            raise ValueError(f"lambda={lam} outside the admitted grid |lambda| < {cap}")
    return lambdas


def logmgf_check(
    loss_samples: np.ndarray,
    sigma_e_sq: float,
    nu: float,
    lambda_grid,
    rng_seed: int = 0,
    n_bootstrap: int = BOOTSTRAP_RESAMPLES,
) -> LogMgfReport:
    """Empirical log-MGF of centered loss samples on a lambda grid.

    The grid must pass `admitted_lambdas`. lambda = 0 returns exactly 0.
    """
    samples = np.asarray(loss_samples, dtype=float)
    if samples.ndim != 1 or samples.size < 2:
        raise ValueError("need a flat sample of at least 2 loss values")
    if not (sigma_e_sq > 0 and nu > 0):
        raise ValueError("sigma_e_sq and nu must be positive")
    lambdas = admitted_lambdas(lambda_grid, nu)

    centered = samples - samples.mean()
    rng = np.random.default_rng(np.random.SeedSequence([rng_seed, 0x176F]))
    # every resample at once, each row centered on its own mean
    boot_centered = samples[rng.integers(0, samples.size, size=(n_bootstrap, samples.size))]
    boot_centered -= boot_centered.mean(axis=1, keepdims=True)

    vals, los, his, envs = [], [], [], []
    n_violations = 0
    for lam in lambdas:
        point = _log_mean_exp((lam * centered)[None])[0] if lam != 0.0 else 0.0
        env = sigma_e_sq * lam**2 / 2.0
        if lam == 0.0:
            lo = hi = 0.0
        else:
            lo, hi = np.percentile(_log_mean_exp(lam * boot_centered), [2.5, 97.5])
        if point > env:
            n_violations += 1
        vals.append(point)
        los.append(float(lo))
        his.append(float(hi))
        envs.append(env)
    return LogMgfReport(
        lambdas=tuple(lambdas),
        logmgf=tuple(vals),
        band_lo=tuple(los),
        band_hi=tuple(his),
        envelope=tuple(envs),
        n_violations=n_violations,
        n_samples=int(samples.size),
        n_bootstrap=int(n_bootstrap),
    )


# ------------------------------------------------------------------------ CSV


ESTIMATES_CSV_COLUMNS = ("estimator", "t_or_lambda", "mean", "stderr", "n")


def write_estimates_csv(path, rows) -> None:
    """Emit estimate rows as CSV {estimator, t_or_lambda, mean, stderr, n}.

    `rows` is an iterable of (estimator_name, t_or_lambda, EstimateWithError).
    """
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ESTIMATES_CSV_COLUMNS)
        for name, tl, est in rows:
            writer.writerow([name, tl, repr(est.mean), repr(est.stderr), est.n_samples])
