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

from .constants import moment_lemma_bound
from .losses import LossModel
from .sgld import (
    SGLDConfig,
    _block_len,
    _draw_offsets,
    _fy_subset_rows,
    array_rows,
    check_count,
    stream,
    write_csv,
)

__all__ = [
    "EVAL_LOSSES",
    "gap_trials",
    "gen_gap",
    "variance_resamples",
    "grad_variance_trace",
    "stability_block",
    "stability_chains",
    "PthMomentReport",
    "pth_moment_min_chains",
    "pth_moment_check",
    "LogMgfReport",
    "admitted_lambdas",
    "logmgf_check",
    "NotFinite",
    "write_estimates_csv",
]

TEST_POOL_FACTOR = 10    # test pool size = factor * n per trial
BOOTSTRAP_RESAMPLES = 200
EVAL_LOSSES = ("same_as_f", "surrogate")  # raw loss, bounded surrogate f/(1+f)
LOGMGF_MIN_SAMPLES = 2   # `logmgf_check` centres its sample on the sample mean


def _mean_stderr(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(means, standard errors) of the rows of a (b, m) block, as arrays."""
    m = rows.shape[1]
    if m == 1:
        return rows.mean(axis=1), np.zeros(rows.shape[0])
    return rows.mean(axis=1), rows.std(axis=1, ddof=1) / math.sqrt(m)


def _surrogate(values: np.ndarray) -> np.ndarray:
    # bounded evaluation loss g = f / (1 + f), mapping [0, inf) into [0, 1)
    return values / (1.0 + values)


def _eval_losses(model: LossModel, w: np.ndarray, Z: np.ndarray) -> np.ndarray:
    W = np.broadcast_to(w, (Z.shape[0], w.shape[0]))
    return model.eval_many(W, Z)


# ------------------------------------------------------------------ gen gap


def gap_trials(model: LossModel, config: SGLDConfig, datasets: np.ndarray):
    """Draw the trials of the train-test gap: trial i's dataset S into row i
    of the (n_trials, n, z_dim) `datasets`. Returns the trials' chain seed
    sequences, each for a chain on its S, and their test pools' sequences
    (see `gen_gap`). The streams it shares: README's "Reproducibility model"."""
    check_count("n_trials", datasets.shape[0])
    chain_seqs, pool_seqs = [], []
    for i, seq in enumerate(stream(config.seed, "gap").spawn(datasets.shape[0])):
        ds_seq, chain_seq, pool_seq = seq.spawn(3)
        datasets[i] = model.sample_data(np.random.default_rng(ds_seq), config.n)
        chain_seqs.append(chain_seq)
        pool_seqs.append(pool_seq)
    return chain_seqs, pool_seqs


def gen_gap(model: LossModel, datasets: np.ndarray, final_states, pool_seqs,
            eval_loss: str = "same_as_f") -> tuple[np.ndarray, np.ndarray]:
    """The mean train-test gap of the final iterate over the trials
    `gap_trials` drew, from each trial's dataset S, its chain's final state
    W_T and its test pool's seed sequence: per trial, the mean loss of W_T
    on a fresh pool of 10 n points minus its mean loss on S. `eval_loss`
    selects the raw training loss ("same_as_f") or the bounded surrogate
    f/(1+f) ("surrogate"). Returns (means, standard errors) over the trials,
    one entry each, the shape of `stability_block`'s; `run` writes them as
    `gap.csv`'s one row at T, and its writer refuses a non-finite mean."""
    if eval_loss not in EVAL_LOSSES:
        raise ValueError(f"unknown eval_loss {eval_loss!r}")
    n_pool = TEST_POOL_FACTOR * datasets.shape[1]
    gaps = np.empty(len(pool_seqs))
    # finite states can have losses past the float range, and the writer's
    # NotFinite, not a numpy warning, reports the gap they give
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (S, w, pool_seq) in enumerate(zip(datasets, final_states, pool_seqs)):
            pool = model.sample_data(np.random.default_rng(pool_seq), n_pool)
            test_vals = _eval_losses(model, w, pool)
            train_vals = _eval_losses(model, w, S)
            if eval_loss == "surrogate":
                test_vals = _surrogate(test_vals)
                train_vals = _surrogate(train_vals)
            gaps[i] = test_vals.mean() - train_vals.mean()
        return _mean_stderr(gaps[None])


# ------------------------------------------------------- gradient statistics


def variance_resamples(config: SGLDConfig) -> bool:
    """Whether `grad_variance_trace` resamples minibatches: at k < n only."""
    return config.k < config.n


def grad_variance_trace(
    model: LossModel,
    dataset: np.ndarray,
    trace,
    n_resamples: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Conditional minibatch-gradient variance at each stored state, as
    (means, standard errors) over the resamples, one entry per stored step.

    At W_t the conditional mean of the minibatch gradient is the full-batch
    gradient, known exactly, so the estimator averages squared deviations
    of freshly resampled minibatch gradients around it. Full batch (k = n)
    has no sampling noise and returns exact zeros without resampling.
    Each state's n per-point gradients are taken once and centred on their
    mean, the full-batch gradient; a resample's deviation is the mean of
    its k centred rows. The rows are added one minibatch position at a
    time, in minibatch order, into one (n_resamples, d) sum per state, so
    each deviation has the bits of the axis-0 sum of its gathered rows and
    no (k, n_resamples, d) gather is held. The resamples are drawn from a
    stream of the trace's config seed.
    """
    check_count("n_resamples", n_resamples)
    cfg = trace.config
    dataset = np.asarray(dataset, dtype=float)
    n_states = trace.states.shape[0]
    if not variance_resamples(cfg):
        return np.zeros(n_states), np.zeros(n_states)
    rng = np.random.default_rng(stream(cfg.seed, "variance"))

    # blocks of stored states; drawing a block's offsets in one call gives
    # the same stream as one (n_resamples, k) draw per state
    means, stderrs = np.empty(n_states), np.empty(n_states)
    n, k, R = cfg.n, cfg.k, n_resamples
    high = n - np.arange(k)
    # per state: an (R, n) Fisher-Yates scratch, n rows of the point table,
    # and the (R, d) deviation sum and gathered rows. The scratch counts as
    # R n words, though it holds one byte per entry up to n = 256
    # (`_index_dtype`), and a state's three (R, k) int64 arrays (offsets,
    # swap targets and row indices) go uncounted. On logistic-probe (R n =
    # 60,000) a block is 4 states. In-process on a 2-vCPU host, blocks of
    # 16, 36, 64 and 128 states wrote the same bytes in 1.06-1.39,
    # 1.25-1.29, 1.55-1.79 and 1.92-1.97 s against 1.18 s at 4, and hold
    # more memory, so the count stays as it is
    block = min(n_states, _block_len(max(R * n, n * dataset.shape[1], R * cfg.d)))
    # one point per row, the dataset once per state of a block; and the
    # first row of each resample's state in the flattened per-point table
    points = np.tile(dataset, (block, 1))[:, None]
    first = np.repeat(n * np.arange(block), R)
    for r0 in range(0, n_states, block):
        W = trace.states[r0:r0 + block]
        b = W.shape[0]
        per_point = model.grad_minibatch(np.repeat(W, n, axis=0), points[:b * n])
        per_point = per_point.reshape(b, n, -1)
        per_point -= per_point.mean(axis=1, keepdims=True)
        per_point = per_point.reshape(b * n, -1)
        idx = _fy_subset_rows(_draw_offsets(rng, high, b * R), n)
        # the resamples' rows of that table, minibatch position-major, added
        # one position at a time in minibatch order. Every index is in range,
        # so "clip" changes none; the default "raise" would buffer `out`
        rows = idx.T + first[:b * R]
        dev = np.take(per_point, rows[0], axis=0)
        gathered = np.empty_like(dev)
        for j in range(1, k):
            dev += np.take(per_point, rows[j], axis=0, out=gathered, mode="clip")
        dev /= k
        sq = np.einsum("ij,ij->i", dev, dev).reshape(b, R)
        means[r0:r0 + b], stderrs[r0:r0 + b] = _mean_stderr(sq)
    return means, stderrs


def stability_chains(model: LossModel, config: SGLDConfig, datasets: np.ndarray,
                     datasets_alt: np.ndarray):
    """Draw the pairs of the gradient stability trace: pair p's S and S'
    into row p of the (n_pairs, n, z_dim) `datasets` and `datasets_alt`,
    each from the model's data distribution. Returns the pairs' chain seed
    sequences, each for a chain on its S, whose law S alone drives (see
    `stability_block`). The streams it shares: README's "Reproducibility model"."""
    n_pairs = datasets.shape[0]
    check_count("n_pairs", n_pairs)
    chain_seqs = []
    for p, seq in enumerate(stream(config.seed, "stability").spawn(n_pairs)):
        s_seq, s_alt_seq, chain_seq = seq.spawn(3)
        datasets[p] = model.sample_data(np.random.default_rng(s_seq), config.n)
        datasets_alt[p] = model.sample_data(np.random.default_rng(s_alt_seq), config.n)
        chain_seqs.append(chain_seq)
    return chain_seqs


def stability_block(model: LossModel, datasets: np.ndarray, datasets_alt: np.ndarray,
                    states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mean and standard error over the pairs of ||grad F_S(W_t) -
    grad F_S'(W_t)||^2 at each step of `states`, a (steps, n_pairs, d) array
    whose column p is pair p's chain (or any leading columns of a wider
    one), from the pairs' datasets S and S' as `stability_chains` drew them.

    Per pair and per block of steps, one `LossModel.stability_sq` call
    gives the squared gradient differences. The blocks are `_block_len`
    steps long by one dataset's (steps, n) margins. Each step's values have
    the same bits however the steps are split into calls, so a trace
    evaluated chunk by chunk equals one evaluated whole.
    """
    n_steps, n_pairs = states.shape[0], datasets.shape[0]
    block = _block_len(datasets.shape[1])
    sq = np.empty((n_steps, n_pairs))  # sq[r, p] is pair p at the r-th step
    for r0 in range(0, n_steps, block):
        for p in range(n_pairs):
            sq[r0:r0 + block, p] = model.stability_sq(states[r0:r0 + block, p],
                                                      datasets[p], datasets_alt[p])
    return _mean_stderr(sq)


# ----------------------------------------------------------------- p-th moments


@dataclass(frozen=True)
class PthMomentReport:
    """Empirical p-th moments of ||W_T|| against the trajectory moment bound.

    For each p: `empirical` is (mean ||W_T||^p)^(1/p); `unit_C_rhs` is the
    bound with universal constant 1, `constants.moment_lemma_bound`;
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
    final_states: np.ndarray,
    p_list,
    lc,
    beta: float,
    d: int,
    s_sq: float,
) -> PthMomentReport:
    """Fit the universal constant of the p-th moment bound per p, from the
    (n_chains, d) final states W_T of independent chains. A moment past the
    float range, of finite states too, is refused by NotFinite."""
    need = pth_moment_min_chains(p_list)
    p_list = [int(p) for p in p_list]
    finals = np.asarray(final_states, dtype=float)
    n = finals.shape[0]
    if n < need:
        raise ValueError(
            f"{n} samples is too few for p up to {max(p_list)}; need at least {need}"
        )
    norms = np.linalg.norm(finals, axis=1)

    empirical, unit_rhs, fitted = [], [], []
    for p in p_list:
        with np.errstate(over="ignore"):
            emp = float(np.mean(norms**p) ** (1.0 / p))
        if not math.isfinite(emp):
            raise NotFinite(f"pth_moments: the p = {p} moment of the final states' "
                            f"norms is past the float range")
        rhs = moment_lemma_bound(lc, beta, d, s_sq, p)
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


def _log_mean_exp(rows: np.ndarray) -> list[float]:
    """log mean exp of each row of a (b, m) block, shifted by the row's max,
    overwriting the block. The log is math.log, which np.log does not match
    in every last bit."""
    top = rows.max(axis=1)
    rows -= top[:, None]
    means = np.exp(rows, out=rows).mean(axis=1)
    return [t + math.log(mean) for t, mean in zip(top.tolist(), means.tolist())]


def _percentiles(values, qs) -> list[float]:
    """`np.percentile(values, qs)` by its default linear rule, to the bit.

    With the values sorted, q's virtual index is v = (len - 1) q / 100, a
    and b are the values at floor(v) and the next index, and g = v -
    floor(v); the percentile is a + (b - a) g for g < 0.5, else b - (b - a)
    (1 - g), and NaN if a value is NaN. A sort, not np.percentile, whose
    partition imports numpy.ma (about 1 MB and 20 ms)."""
    x = np.sort(np.asarray(values, dtype=float)).tolist()
    if math.isnan(x[-1]):  # the sort puts NaN last
        return [math.nan for _ in qs]
    out = []
    for q in qs:
        v = (len(x) - 1) * (q / 100.0)
        i = math.floor(v)
        if i >= len(x) - 1:
            out.append(x[-1])
            continue
        a, b, g = x[i], x[i + 1], v - i
        out.append(b - (b - a) * (1.0 - g) if g >= 0.5 else a + (b - a) * g)
    return out


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
) -> LogMgfReport:
    """Empirical log-MGF of centered loss samples on a lambda grid, its band
    from BOOTSTRAP_RESAMPLES resamples.

    The grid must pass `admitted_lambdas`. lambda = 0 returns exactly 0.
    """
    samples = np.asarray(loss_samples, dtype=float)
    if samples.ndim != 1 or samples.size < LOGMGF_MIN_SAMPLES:
        raise ValueError(f"need a flat sample of at least {LOGMGF_MIN_SAMPLES} loss values")
    if not (sigma_e_sq > 0 and nu > 0):
        raise ValueError("sigma_e_sq and nu must be positive")
    lambdas = admitted_lambdas(lambda_grid, nu)

    centered = samples - samples.mean()
    rng = np.random.default_rng(stream(rng_seed, "logmgf_bootstrap"))
    # every resample at once, each row centered on its own mean
    boot_centered = samples[rng.integers(0, samples.size,
                                         size=(BOOTSTRAP_RESAMPLES, samples.size))]
    boot_centered -= boot_centered.mean(axis=1, keepdims=True)

    vals, los, his, envs = [], [], [], []
    n_violations = 0
    for lam in lambdas:
        point = _log_mean_exp((lam * centered)[None])[0] if lam != 0.0 else 0.0
        env = sigma_e_sq * lam**2 / 2.0
        if lam == 0.0:
            lo = hi = 0.0
        else:
            lo, hi = _percentiles(_log_mean_exp(lam * boot_centered), (2.5, 97.5))
        if point > env:
            n_violations += 1
        vals.append(point)
        los.append(lo)
        his.append(hi)
        envs.append(env)
    return LogMgfReport(
        lambdas=tuple(lambdas),
        logmgf=tuple(vals),
        band_lo=tuple(los),
        band_hi=tuple(his),
        envelope=tuple(envs),
        n_violations=n_violations,
        n_samples=int(samples.size),
    )


# ------------------------------------------------------------------------ CSV


ESTIMATES_CSV_COLUMNS = ("estimator", "t_or_lambda", "mean", "stderr", "n")


class NotFinite(ValueError):
    """A number past the float range where an estimate must be recorded."""


def write_estimates_csv(path, name: str, t, means, stderrs, n_samples: int) -> None:
    """Emit an estimate table as CSV {estimator, t_or_lambda, mean, stderr, n},
    from columns (see `array_rows`): row i is `name`'s estimate at t[i] (a
    step, or a lambda of the log-MGF) with means[i] and stderrs[i] over
    n_samples samples. Refused, by NotFinite, unless every mean is finite and
    every stderr finite and nonnegative."""
    means, stderrs = np.asarray(means, dtype=float), np.asarray(stderrs, dtype=float)
    if not (np.isfinite(means).all() and np.isfinite(stderrs).all()
            and (stderrs >= 0).all()):
        raise NotFinite(f"{name}: every mean must be finite and every stderr "
                        f"nonnegative and finite")
    write_csv(path, ESTIMATES_CSV_COLUMNS,
              ((name, tl, mean, stderr, n_samples)
               for tl, mean, stderr in array_rows(t, means, stderrs)))
