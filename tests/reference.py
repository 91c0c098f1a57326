"""Second sources the tests check the library against.

Each function here is a composition or a quantity that `sgldlab` does not
run itself, built from the library's own pieces: each loss family's scalar
value and gradient at one point, the only collector of
whole chain traces (`collect`; the library reads the chain engine a chunk
at a time), with every chain's gradient series, one chain on a given
dataset, ensembles on a given dataset, the in-process gap and stability
estimators that `run`'s worker reproduces in one pass, the exact
mutual-information bound of one config, the grid KL and Fisher
information of two densities, a density's variance, and the
minibatch-variance bound. Not a test file: the tests import it.
"""

import math

import numpy as np

from sgldlab import fokker_planck, sgld
from sgldlab.losses import LogisticRidgeLoss, NonconvexRidgeLoss, QuadraticLoss
from sgldlab.oracle import _response_and_var, oracle_mi_from_gaps, oracle_pair_gaps
from sgldlab.estimators import (
    gap_trials,
    gen_gap,
    stability_block,
    stability_chains,
)

SERIES = ("grad_var_sample", "grad_fullbatch_norm", "grad_minibatch_norm")

# ------------------------------------------------------------------ losses


def loss_eval(model, w, z) -> float:
    """f(w, z) of `model`'s family at one parameter vector w and one data
    point z, as a float: the scalar form of `eval_many`."""
    w = np.asarray(w, dtype=float)
    z = np.asarray(z, dtype=float)
    if isinstance(model, QuadraticLoss):
        diff = w - z
        return 0.5 * model.R * float(diff @ diff)
    if isinstance(model, LogisticRidgeLoss):
        margin = z[-1] * float(w @ z[:-1])
        return float(np.logaddexp(0.0, -margin)) + 0.5 * model.lam * float(w @ w)
    if isinstance(model, NonconvexRidgeLoss):
        return 0.5 * model.lam * float(w @ w) + model.a * math.cos(float(w @ z))
    raise TypeError(f"no scalar loss for {type(model).__name__}")


def loss_grad(model, w, z) -> np.ndarray:
    """The gradient in w of f(w, z) of `model`'s family at one point: the
    scalar form of `grad_minibatch` at k = 1. The logistic sigmoid is taken
    with `math.exp`, through its overflow."""
    w = np.asarray(w, dtype=float)
    z = np.asarray(z, dtype=float)
    if isinstance(model, QuadraticLoss):
        return model.R * (w - z)
    if isinstance(model, LogisticRidgeLoss):
        x, y = z[:-1], z[-1]
        margin = y * float(w @ x)
        if margin > -700:
            try:
                sig = 1.0 / (1.0 + math.exp(margin))
            except OverflowError:  # margin above ~709.78: 1 + exp(-margin) rounds to 1
                sig = math.exp(-margin)
        else:
            sig = 1.0
        return -y * sig * x + model.lam * w
    if isinstance(model, NonconvexRidgeLoss):
        return model.lam * w - model.a * math.sin(float(w @ z)) * z
    raise TypeError(f"no scalar gradient for {type(model).__name__}")


# ------------------------------------------------------------------ chains


def collect(config, model, datasets, chain_seqs):
    """The traces of `sgld._lockstep_chunks`' chains, each held whole, with
    every chain's gradient series taken step by step from the chunks'
    states and minibatch indices: at each step, one `grad_minibatch` call
    over every chain's state before the update and its minibatch (its
    whole dataset when k = n), and one over the whole datasets."""
    c = len(chain_seqs)
    T = config.T
    states = np.empty((c, len(sgld._stored_steps(T)), config.d))
    w_norm_sq = np.empty((c, T + 1))
    grad_series = np.empty((3, c, T))
    chains = np.arange(c)[:, None]
    row = 0
    for chunk in sgld._lockstep_chunks(config, model, datasets, chain_seqs):
        t0, m = chunk.t0, chunk.steps.shape[0]
        w_norm_sq[:, t0:t0 + m] = chunk.w_norm_sq.T
        for s in range(m if t0 else 0):
            W = last if s == 0 else chunk.steps[s - 1]
            G_full = model.grad_minibatch(W, datasets)
            G = G_full if chunk.indices is None else model.grad_minibatch(
                W, datasets[chains, chunk.indices[s]])
            t, D = t0 - 1 + s, G - G_full
            grad_series[0, :, t] = np.einsum("ij,ij->i", D, D)
            grad_series[1, :, t] = np.sqrt(np.einsum("ij,ij->i", G_full, G_full))
            grad_series[2, :, t] = np.sqrt(np.einsum("ij,ij->i", G, G))
        last = chunk.steps[-1].copy()
        kept = chunk.states.shape[0]
        states[:, row:row + kept] = chunk.states.swapaxes(0, 1)
        row += kept
    return [sgld.ChainTrace(config=config, states=states[i], w_norm_sq=w_norm_sq[i],
                            **dict(zip(SERIES, grad_series[:, i])))
            for i in range(c)]


def run_chain(config, model, dataset, seed_seq=None):
    """One chain on `dataset`, on the stream `seed_seq`, SeedSequence(seed)
    when None; deterministic given (seed, config, dataset)."""
    dataset = np.asarray(dataset, dtype=float)
    if dataset.shape[0] != config.n:
        raise ValueError(f"dataset has {dataset.shape[0]} rows, config.n = {config.n}")
    if dataset.ndim != 2 or dataset.shape[1] != model.z_dim:
        raise ValueError(f"dataset must be (n, {model.z_dim}), got {dataset.shape}")
    if config.d != model.d:
        raise ValueError(f"config.d = {config.d} but model.d = {model.d}")
    if seed_seq is None:
        seed_seq = np.random.SeedSequence(config.seed)
    return collect(config, model, dataset[None], [seed_seq])[0]


def ensemble(config, model, dataset=None, n_chains=1, n_datasets=1):
    """The chains whose final states `sgld.run_ensemble` returns, held
    whole, on `ensemble_seqs`' streams, over one given (n, z_dim) `dataset`
    when not None (each dataset's own sequence stays reserved for the draw,
    so the chains' streams are the same)."""
    seqs = sgld.ensemble_seqs(config.seed, n_chains, n_datasets)
    chain_seqs = [seq for _, chains in seqs for seq in chains]
    shape = (config.n, model.z_dim)
    drawn = [model.sample_data(np.random.default_rng(ds_seq), config.n)
             for ds_seq, _ in seqs] if dataset is None else [dataset]
    if len(drawn) > 1:
        datasets = np.repeat(np.stack(drawn), n_chains, axis=0)
    else:  # shared by every chain, and never copied per chain
        drawn = np.asarray(drawn[0], dtype=float)
        if drawn.shape != shape:
            raise ValueError(f"dataset has shape {drawn.shape}, expected {shape}")
        datasets = np.broadcast_to(drawn, (len(chain_seqs),) + shape)
    return collect(config, model, datasets, chain_seqs)


# -------------------------------------------------------------- estimators


def empirical_gen_gap(model, config, n_trials, eval_loss="same_as_f"):
    """Mean train-test gap of the final iterate over `n_trials` independent
    trials, each a chain on a fresh S scored against a fresh test pool, as
    (means, stderrs) arrays of one entry: the composition of `gap_trials`,
    the trials' chains and `gen_gap`."""
    datasets = np.empty((n_trials, config.n, model.z_dim))
    chain_seqs, pool_seqs = gap_trials(model, config, datasets)
    traces = collect(config, model, datasets, chain_seqs)
    return gen_gap(model, datasets, [tr.states[-1] for tr in traces], pool_seqs, eval_loss)


def grad_stability_trace(model, config, n_pairs, control_identical=False):
    """E ||grad_F(W_t, S) - grad_F(W_t, S')||^2 over `n_pairs` dataset
    pairs at each stored step of a chain on S, as (means, stderrs) arrays
    with an entry per stored step: the composition of `stability_chains`,
    the pairs' chains, each held whole, and `stability_block`.
    `control_identical` replaces S' by S, which makes the statistic exactly
    zero."""
    datasets, datasets_alt = np.empty((2, n_pairs, config.n, model.z_dim))
    chain_seqs = stability_chains(model, config, datasets, datasets_alt)
    if control_identical:
        datasets_alt[:] = datasets
    traces = collect(config, model, datasets, chain_seqs)
    return stability_block(model, datasets, datasets_alt,
                           np.stack([tr.states for tr in traces], axis=1))


# ------------------------------------------------------------------ oracle


def oracle_mi_upper(model, config, n_dataset_pairs):
    """The exact mutual-information upper bound at `config`'s horizon, over
    `n_dataset_pairs` dataset pairs drawn from `config.seed`: the
    composition of `oracle_pair_gaps`, `_response_and_var` at the model's R
    and `oracle_mi_from_gaps` that `bounds` runs, as a float. A model
    without R, or k < n, is a ValueError."""
    if config.k != config.n:
        raise ValueError("the exact law covers full-batch chains only (k = n)")
    R = model.constants().R
    if R is None:
        raise ValueError("the exact law needs the model's curvature R, and "
                         f"{type(model).__name__} has none")
    gaps = oracle_pair_gaps(model, config.seed, config.n, n_dataset_pairs)
    a, v = _response_and_var(config.eta, config.beta, R, config.s_sq, config.T)
    return oracle_mi_from_gaps(gaps, a[-1], v[-1])


# ---------------------------------------------------------- Fokker-Planck


def mass(rho):
    """The total mass of a `DensityField` on its grid."""
    return float(rho.values.sum() * rho.grid.h)


def variance(rho):
    """The variance of a unit-mass `DensityField` on its grid's cell centres."""
    w, h = rho.grid.centers, rho.grid.h
    mean = (rho.values * w).sum() * h
    return float((rho.values * (w - mean) ** 2).sum() * h)


def _shared_band(rho, gamma):
    """rho and log(rho/gamma) on the two densities' shared support band."""
    if rho.grid != gamma.grid:
        raise ValueError("densities live on different grids")
    r, q = rho.values, gamma.values
    band = fokker_planck._support_band(fokker_planck._support_mask(r, q))
    return fokker_planck._band_log_ratio(r, q, band)


def kl_on_grid(rho, gamma):
    """Quadrature KL(rho | gamma) over the shared support band."""
    return float(fokker_planck._kl(rho.grid.h, *_shared_band(rho, gamma)))


def fisher_on_grid(rho, gamma):
    """Quadrature relative Fisher information over the shared support band:
    the sum of h rho (d/dw log(rho/gamma))^2, with central differences on
    the band's interior and one-sided ones at its edges."""
    return float(fokker_planck._fisher(rho.grid.h, *_shared_band(rho, gamma)))


# --------------------------------------------------------------- constants


def minibatch_delta(n, k):
    """Variance factor delta = (n-k)/(k(n-1)) of uniform size-k minibatches:
    1 at k = 1 and 0 at k = n (full batch)."""
    if n < 2:
        raise ValueError(f"dataset size n must be at least 2, got {n}")
    if not 1 <= k <= n:
        raise ValueError(f"batch size k must satisfy 1 <= k <= n, got k={k}, n={n}")
    return (n - k) / (k * (n - 1))


def sg_variance_bound(lc, n, k, w_norm_sq):
    """Upper bound 8 delta M^2 (||w||^2 + k/m) on E||grad_full(w) -
    grad_batch(w)||^2 at one point w."""
    if w_norm_sq < 0:
        raise ValueError(f"w_norm_sq must be nonnegative, got {w_norm_sq}")
    return 8.0 * minibatch_delta(n, k) * lc.M**2 * (w_norm_sq + k / lc.m)
