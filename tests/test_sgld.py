"""SGLD engine: primitives, determinism, ensembles, accounting."""

import ast
import csv
import dataclasses
import importlib
import json
import math
import pathlib
import pkgutil
import sys
import tracemalloc

import numpy as np
import pytest

import sgldlab
import sgldlab.sgld as sgld
from sgldlab import cli, config
from sgldlab.constants import (
    admissibility_failures,
    lsi_constant,
    lsi_route,
    moment_bound_C0,
)
from sgldlab.losses import LogisticRidgeLoss, NonconvexRidgeLoss, QuadraticLoss
from sgldlab.sgld import SGLDConfig, run_ensemble, sample_initial

from reference import SERIES, collect, ensemble, run_chain


def quad_model(d=2):
    return QuadraticLoss(1.0, 1.0, d)


def quad_config(**kw):
    base = dict(eta=0.05, beta=4.0, k=10, n=100, T=200, d=2, s_sq=1.0, seed=123)
    base.update(kw)
    return SGLDConfig(**base)


def admission_failures(cfg, model):
    # `run`'s refusal at the default config: the KL chain's range checks at
    # the c_LS of the model's own log-Sobolev route
    lc = model.constants()
    c_LS = lsi_constant(lc, cfg.beta, cfg.d, lsi_route(lc))
    return admissibility_failures(lc, cfg.eta, cfg.beta, c_LS)


# ---------------------------------------------------------------- primitives


def test_sample_initial_requires_positive_variance():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_initial(2, 0.0, rng)
    with pytest.raises(ValueError):
        sample_initial(2, -1.0, rng)


def test_sample_initial_moments():
    rng = np.random.default_rng(1)
    s_sq = 2.5
    draws = np.stack([sample_initial(4, s_sq, rng) for _ in range(25_000)])
    flat = draws.ravel()  # 1e5 variates
    n = flat.size
    se_mean = math.sqrt(s_sq / n)
    assert abs(flat.mean()) < 3 * se_mean
    se_var = s_sq * math.sqrt(2.0 / (n - 1))
    assert abs(flat.var(ddof=1) - s_sq) < 3 * se_var


def test_sample_minibatch_full_batch_is_identity_without_draws():
    # k = n: every step uses the whole dataset and nothing is drawn from the
    # batch stream, so the chain is the full-batch recursion on the noise stream
    model = quad_model()
    cfg = quad_config(k=100, T=40)
    ds = model.sample_data(np.random.default_rng(6), cfg.n)
    tr = run_chain(cfg, model, ds)
    init_s, _, noise_s = np.random.SeedSequence(cfg.seed).spawn(3)
    w = sample_initial(cfg.d, cfg.s_sq, np.random.default_rng(init_s))
    xis = np.random.default_rng(noise_s).standard_normal((cfg.T, cfg.d))
    full = model.full_batch_grad(ds[None])
    for t in range(cfg.T):
        w = w - cfg.eta * full(w[None])[0] + math.sqrt(2 * cfg.eta / cfg.beta) * xis[t]
        assert np.array_equal(tr.states[t + 1], w)


def fy_subsets(n, k, rows, seed):
    # offsets drawn as the engine draws them: position j from 0..n-1-j
    offsets = np.random.default_rng(seed).integers(0, n - np.arange(k), size=(rows, k))
    return sgld._fy_subset_rows(offsets, n)


def test_sample_minibatch_distinct_members():
    idx = fy_subsets(10, 4, 200, seed=2)
    assert idx.shape == (200, 4)
    assert all(len(set(row)) == 4 for row in idx.tolist())
    assert np.all((0 <= idx) & (idx < 10))


@pytest.mark.parametrize("offsets", [
    np.array([[5, 0, 3]]),             # (1, k) int64: its transpose is contiguous
    np.array([[5], [0], [3]]),         # (rows, 1)
    np.array([[5, 0, 3], [1, 2, 0]]),
    np.asfortranarray([[5, 0, 3], [1, 2, 0]]),
    np.array([[5, 0, 3]], dtype=np.uint8),
])
def test_fisher_yates_leaves_its_offsets_alone(offsets):
    before = offsets.copy()
    sgld._fy_subset_rows(offsets, 10)
    assert np.array_equal(offsets, before) and offsets.dtype == before.dtype


@pytest.mark.parametrize("n, k", [(1, 1), (10, 4), (200, 20), (3000, 1), (50, 50)])
def test_fisher_yates_narrow_scratch_equals_int64_loop(n, k):
    # the engine's swaps on its narrowest index scratch against a plain
    # int64 loop
    rng = np.random.default_rng(n + k)
    offsets = rng.integers(0, n - np.arange(k), size=(30, k))
    want = np.empty((30, k), dtype=np.int64)
    for r in range(30):
        perm = np.arange(n, dtype=np.int64)
        for j in range(k):
            t = j + offsets[r, j]
            perm[j], perm[t] = perm[t], perm[j]
        want[r] = perm[:k]
    got = sgld._fy_subset_rows(offsets, n)
    assert got.dtype == sgld._index_dtype(n)
    assert np.array_equal(got, want)
    assert sgld._index_dtype(200) == np.uint8
    assert sgld._index_dtype(3000) == np.uint16


@pytest.mark.parametrize("n, k, rows", [
    (200, 20, 1200), (200, 20, 7), (3, 2, 1001), (7, 5, 1), (2, 1, 33),
    (2**32, 2, 99),      # the largest range: raw draws pass through
    (2**31 + 1, 3, 500),  # about half the raw draws rejected
    (2**32 + 5, 2, 9),   # past 32 bits: numpy's own draw
    (5, 5, 40),          # a range of 1 takes no draw
])
def test_draw_offsets_equal_generator_integers(n, k, rows):
    # values and generator state after, also with a 32-bit half held over
    # from the call before
    high = (n - np.arange(k)).astype(np.int64)
    for seed in range(4):
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for call in range(4):
            if call % 2:
                for r in (want_rng, got_rng):
                    r.integers(0, 2**32, dtype=np.uint32)
            want = want_rng.integers(0, high, size=(rows, k))
            got = sgld._draw_offsets(got_rng, high, rows)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_sample_minibatch_uniform_frequencies():
    # n=4, k=2: chi-square over the 12 ordered pairs in 30000 draws; the
    # 99% critical value at 11 degrees of freedom is 24.72
    idx = fy_subsets(4, 2, 30_000, seed=3)
    counts = np.bincount(idx[:, 0] * 4 + idx[:, 1], minlength=16)
    counts = np.delete(counts, [0, 5, 10, 15])  # no pair repeats a member
    expected = idx.shape[0] / 12.0
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2 < 24.72, f"chi-square {chi2} outside the 99% band"


def test_sgld_step_pure_noise_when_gradient_vanishes(monkeypatch):
    # with a zero gradient each engine step adds sqrt(2 eta / beta) xi_t only
    model = quad_model()
    monkeypatch.setattr(model, "grad_minibatch", lambda W, Z: np.zeros_like(W))
    cfg = quad_config(T=30)
    tr = run_chain(cfg, model, model.sample_data(np.random.default_rng(0), cfg.n))
    _, _, noise_s = np.random.SeedSequence(cfg.seed).spawn(3)
    xis = np.random.default_rng(noise_s).standard_normal((cfg.T, cfg.d))
    w = tr.states[0]
    for t in range(cfg.T):
        w = w + math.sqrt(2 * cfg.eta / cfg.beta) * xis[t]
        assert np.array_equal(tr.states[t + 1], w)


def test_sgld_step_drift_recursion_with_noise_suppressed():
    # beta = 1e300 scales the noise to about 1e-151, below the rounding of
    # the states, so each full-batch step is the drift (1 - eta R) w + eta R zbar
    model = quad_model()
    cfg = quad_config(k=100, T=5, eta=0.1, beta=1e300)
    ds = model.sample_data(np.random.default_rng(4), cfg.n)
    tr = run_chain(cfg, model, ds)
    for t in range(cfg.T):
        want = (1 - cfg.eta) * tr.states[t] + cfg.eta * ds.mean(axis=0)
        np.testing.assert_allclose(tr.states[t + 1], want, rtol=1e-14, atol=1e-15)


# -------------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValueError):
        quad_config(eta=0.0)
    with pytest.raises(ValueError):
        quad_config(beta=-1.0)
    with pytest.raises(ValueError):
        quad_config(k=0)
    with pytest.raises(ValueError):
        quad_config(k=101)
    with pytest.raises(ValueError):
        quad_config(T=-1)
    with pytest.raises(ValueError):
        quad_config(s_sq=0.0)
    with pytest.raises(ValueError):
        quad_config(seed=2**64)


def test_strict_mode_refusal_lists_failures():
    # `run` refuses, and prints, exactly these failures
    model = quad_model()  # M=1, m=0.5: eta cap m/(5 M^2) = 0.1, 2/m = 4
    failures = admission_failures(quad_config(eta=0.5, beta=1.0), model)
    assert any("beta >= 2/m" in f for f in failures)
    assert any("eta < m/(5 M^2)" in f for f in failures)


def test_strict_mode_accepts_valid_config():
    model = quad_model()
    assert admission_failures(quad_config(eta=0.05, beta=4.0, T=10), model) == []


def test_strict_mode_eta_one_cap():
    model = quad_model()
    failures = admission_failures(quad_config(eta=1.5, beta=4.0), model)
    assert any("eta < 1" in f for f in failures)


# ----------------------------------------------------------------- run_chain


def test_run_chain_T0_contains_only_initial_state():
    model = quad_model()
    ds = model.sample_data(np.random.default_rng(0), 100)
    tr = run_chain(quad_config(T=0), model, ds)
    assert tr.states.shape == (1, 2)
    assert tr.w_norm_sq.shape == (1,)
    assert tr.grad_var_sample.shape == (0,)
    assert tr.noise_variates == 0


def test_run_chain_deterministic():
    model = quad_model()
    ds = model.sample_data(np.random.default_rng(0), 100)
    a = run_chain(quad_config(), model, ds)
    b = run_chain(quad_config(), model, ds)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.w_norm_sq, b.w_norm_sq)
    assert np.array_equal(a.grad_var_sample, b.grad_var_sample)
    c = run_chain(quad_config(seed=124), model, ds)
    assert not np.array_equal(a.states, c.states)


def test_run_chain_noise_accounting():
    model = quad_model()
    ds = model.sample_data(np.random.default_rng(0), 100)
    tr = run_chain(quad_config(T=777), model, ds)
    assert tr.noise_variates == 777 * 2


def _chain_record_by_hand(cfg, model, ds, seq):
    """One chain rebuilt step by step from the documented stream layout.

    Substreams spawn in the order (init, batch, noise); offsets and noise
    are drawn per STEP_CHUNK steps; each step's minibatch comes from k
    partial Fisher-Yates swaps of 0..n-1 by that step's own offsets, and
    k = n draws no offsets and takes the full batch. Returns every state
    and every per-step series, the squared norms being the per-row
    reduction einsum("ij,ij->i") of one row at a time.
    """
    init_s, batch_s, noise_s = seq.spawn(3)
    rng_i = np.random.default_rng(init_s)
    rng_b = np.random.default_rng(batch_s)
    rng_n = np.random.default_rng(noise_s)
    w = math.sqrt(cfg.s_sq) * rng_i.standard_normal(cfg.d)
    high = cfg.n - np.arange(cfg.k)
    scale = math.sqrt(2 * cfg.eta / cfg.beta)
    full = model.full_batch_grad(ds[None])

    def sq(v):
        return np.einsum("ij,ij->i", v[None], v[None])[0]

    rec = {name: [] for name in ("states", "w_norm_sq", *SERIES)}
    rec["states"].append(w)
    rec["w_norm_sq"].append(sq(w))
    for start in range(0, cfg.T, sgld.STEP_CHUNK):
        cl = min(sgld.STEP_CHUNK, cfg.T - start)
        if cfg.k < cfg.n:
            offs = rng_b.integers(0, high, size=(cl, cfg.k))
        xis = rng_n.standard_normal((cl, cfg.d))
        for s in range(cl):
            g_full = full(w[None])[0]
            if cfg.k < cfg.n:
                idx = np.arange(cfg.n)
                for j in range(cfg.k):
                    tgt = j + offs[s, j]
                    idx[j], idx[tgt] = idx[tgt], idx[j]
                g = model.grad_minibatch(w[None], ds[idx[: cfg.k]][None])[0]
            else:
                g = g_full
            rec["grad_var_sample"].append(sq(g - g_full))
            rec["grad_fullbatch_norm"].append(np.sqrt(sq(g_full)))
            rec["grad_minibatch_norm"].append(np.sqrt(sq(g)))
            w = w - cfg.eta * g + scale * xis[s]
            rec["states"].append(w)
            rec["w_norm_sq"].append(sq(w))
    return {name: np.array(v) for name, v in rec.items()}


def _chain_by_hand(cfg, model, ds, seq):
    """All states of one chain, from `_chain_record_by_hand`."""
    return _chain_record_by_hand(cfg, model, ds, seq)["states"]


def test_run_chain_matches_documented_stream_layout():
    # one RNG chunk, then several chunks with k < n
    model = quad_model()
    ds = model.sample_data(np.random.default_rng(8), 100)
    for T in (37, 2 * sgld.STEP_CHUNK + 37):
        cfg = quad_config(T=T, k=10)
        tr = run_chain(cfg, model, ds)
        want = _chain_by_hand(cfg, model, ds, np.random.SeedSequence(cfg.seed))
        assert np.array_equal(tr.states, want)


@pytest.mark.parametrize("block_steps", [None, 341, 2])
def test_ensemble_matches_documented_stream_layout(monkeypatch, block_steps):
    # one and three chains on each of three independent datasets, grouped
    # dataset-major: by default a Fisher-Yates block spans a whole chunk;
    # 341 steps do not divide a 512-step chunk, and 2 steps leave a 1-step
    # block to end the 37-step chunk
    model = quad_model()
    cfg = quad_config(T=2 * sgld.STEP_CHUNK + 37, k=10)
    for n_chains in (1, 3):
        if block_steps is not None:
            words_per_step = 3 * n_chains * cfg.n
            monkeypatch.setattr(sgld, "BLOCK_WORDS",
                                (block_steps + 1) * words_per_step - 1)
            assert sgld._block_len(words_per_step) == block_steps
        traces = ensemble(cfg, model, n_chains=n_chains, n_datasets=3)
        assert len(traces) == 3 * n_chains
        for i, ds_seq in enumerate(np.random.SeedSequence(cfg.seed).spawn(3)):
            sampler_seq, *chain_seqs = ds_seq.spawn(1 + n_chains)
            ds = model.sample_data(np.random.default_rng(sampler_seq), cfg.n)
            for j, chain_seq in enumerate(chain_seqs):
                want = _chain_by_hand(cfg, model, ds, chain_seq)
                assert np.array_equal(traces[i * n_chains + j].states, want)


def run_series(cfg, model, datasets, chain_seqs):
    """Chain 0's gradient series as `run` takes them: `cli._update_series`
    on each chunk of one engine pass."""
    series = np.empty((3, cfg.T))
    for chunk in sgld._lockstep_chunks(cfg, model, datasets, chain_seqs):
        if chunk.t0:
            cli._update_series(model, datasets[0], last, chunk,
                               series[:, chunk.t0 - 1:chunk.t0 - 1 + chunk.steps.shape[0]])
        last = chunk.steps[-1:, 0].copy()
    return series


@pytest.mark.parametrize("strided", [False, True])
@pytest.mark.parametrize("series", [1, None])
@pytest.mark.parametrize("k", [10, 100])
@pytest.mark.parametrize("n_datasets", [1, 2])
def test_engine_bookkeeping_equals_per_step_record(monkeypatch, n_datasets, k,
                                                    series, strided):
    # every recorded field of each chain against the step-by-step record:
    # chunks of 512, 512 and 37 steps; one shared or two stacked datasets;
    # k < n and k = n; the gradient series of chain 0 as `run` takes them
    # (series 1), or of every chain as the reference collects them (None)
    if strided:
        # stride ceil(1061 / 100) = 11: steps 0, 11, ..., 1056 plus 1061
        monkeypatch.setattr(sgld, "STATE_STORE_CAP", 100)
    model = quad_model()
    cfg = quad_config(T=2 * sgld.STEP_CHUNK + 37, k=k)
    n_chains = 2
    traces = ensemble(cfg, model, n_chains=n_chains, n_datasets=n_datasets)
    seqs = [ds_seq.spawn(1 + n_chains)
            for ds_seq in np.random.SeedSequence(cfg.seed).spawn(n_datasets)]
    drawn = [model.sample_data(np.random.default_rng(sampler_seq), cfg.n)
             for sampler_seq, *_ in seqs]
    if series == 1:
        datasets = np.repeat(np.stack(drawn), n_chains, axis=0)
        chain_seqs = [seq for _, chains in sgld.ensemble_seqs(cfg.seed, n_chains, n_datasets)
                      for seq in chains]  # fresh ones: spawning is stateful
        got = run_series(cfg, model, datasets, chain_seqs)
        traces[0] = dataclasses.replace(traces[0], **dict(zip(SERIES, got)))
    for i, ((_, *chain_seqs), ds) in enumerate(zip(seqs, drawn)):
        for j, chain_seq in enumerate(chain_seqs):
            tr = traces[i * n_chains + j]
            want = _chain_record_by_hand(cfg, model, ds, chain_seq)
            stride = 11 if strided else 1
            steps = np.r_[np.arange(0, cfg.T, stride), cfg.T]
            stored = sgld._stored_steps(cfg.T)
            assert np.array_equal(stored, np.unique(steps))
            assert np.array_equal(tr.states, want["states"][stored])
            assert np.array_equal(tr.w_norm_sq, want["w_norm_sq"])
            if series is None or i == j == 0:
                for name in SERIES:
                    assert np.array_equal(getattr(tr, name), want[name])


@pytest.mark.parametrize("k", [5, 30])
@pytest.mark.parametrize(
    "model",
    [QuadraticLoss(1.0, 1.0, 3), LogisticRidgeLoss(1.0, 1.0, 3),
     NonconvexRidgeLoss(1.0, 0.5, 1.0, 3)],
    ids=["quadratic", "logistic", "nonconvex"],
)
def test_lockstep_full_batch_series_equals_per_state_gradients(model, k):
    # chunks of 512 and 37 steps over three chains, each on its own dataset;
    # k < n and k = n: each step's full-batch gradient, one state at a time
    cfg = quad_config(T=sgld.STEP_CHUNK + 37, k=k, n=30, d=3)
    rng = np.random.default_rng(9)
    datasets = np.stack([model.sample_data(rng, cfg.n) for _ in range(3)])
    seqs = np.random.SeedSequence(cfg.seed).spawn(3)
    for i, tr in enumerate(collect(cfg, model, datasets, seqs)):
        G = np.concatenate([model.full_batch_grad(datasets[i:i + 1])(w[None])
                            for w in tr.states[:-1]])
        assert np.array_equal(tr.grad_fullbatch_norm,
                              np.sqrt(np.einsum("ij,ij->i", G, G)))


def test_run_chain_full_batch_variance_sample_is_zero():
    model = quad_model()
    ds = model.sample_data(np.random.default_rng(0), 20)
    tr = run_chain(quad_config(n=20, k=20, T=50), model, ds)
    assert np.all(tr.grad_var_sample == 0.0)


def test_run_chain_state_striding(monkeypatch):
    monkeypatch.setattr(sgld, "STATE_STORE_CAP", 10)
    model = quad_model()
    ds = model.sample_data(np.random.default_rng(0), 100)
    tr = run_chain(quad_config(T=25), model, ds)
    # stride ceil(25/10) = 3: steps 0,3,...,24 plus the final 25
    stored = sgld._stored_steps(25)
    np.testing.assert_array_equal(stored, np.r_[np.arange(0, 25, 3), 25])
    assert tr.states.shape == (len(stored), 2)
    assert tr.w_norm_sq.shape == (26,)
    # final stored state is W_T
    assert tr.w_norm_sq[-1] == pytest.approx(float(tr.states[-1] @ tr.states[-1]))


def test_run_chain_dataset_validation():
    model = quad_model()
    ds = model.sample_data(np.random.default_rng(0), 50)
    with pytest.raises(ValueError):
        run_chain(quad_config(), model, ds)  # n mismatch
    with pytest.raises(ValueError):
        run_chain(quad_config(n=50, k=10, d=3), model, ds)  # d mismatch


def test_chain_mean_matches_linear_recursion():
    # full-batch quadratic: E W_{t+1} = (1 - eta R) E W_t + eta R zbar
    model = quad_model()
    cfg = quad_config(k=100, T=100, eta=0.05, beta=4.0)
    traces = ensemble(cfg, model, n_chains=400, n_datasets=1)
    ds_rng = np.random.default_rng(
        np.random.SeedSequence(cfg.seed).spawn(1)[0].spawn(1)[0]
    )
    zbar = model.sample_data(ds_rng, cfg.n).mean(axis=0)
    for t_check in (10, 100):
        states = np.stack([tr.states[t_check] for tr in traces])
        decay = (1 - cfg.eta) ** t_check
        want = (1 - decay) * zbar  # E W_0 = 0
        se = states.std(axis=0, ddof=1) / math.sqrt(states.shape[0])
        assert np.all(np.abs(states.mean(axis=0) - want) < 3 * se + 1e-12), (
            f"t={t_check}: ensemble mean off the oracle recursion"
        )


# -------------------------------------------------------------- run_ensemble


def test_ensemble_single_equals_run_chain():
    model = quad_model()
    cfg = quad_config(T=60)
    [tr_e] = ensemble(cfg, model, n_chains=1, n_datasets=1)
    root = np.random.SeedSequence(cfg.seed)
    ds_seq = root.spawn(1)[0]
    sampler_seq, chain_seq = ds_seq.spawn(2)
    ds = model.sample_data(np.random.default_rng(sampler_seq), cfg.n)
    tr_s = run_chain(cfg, model, ds, seed_seq=chain_seq)
    assert np.array_equal(tr_e.states, tr_s.states)
    assert np.array_equal(tr_e.grad_var_sample, tr_s.grad_var_sample)


@pytest.mark.parametrize("k", [10, 100])
@pytest.mark.parametrize("n_datasets", [1, 2])
def test_run_ensemble_returns_the_final_states_of_the_whole_traces(n_datasets, k):
    # chunks of 512 and 37 steps; k < n and k = n; one shared or two
    # stacked datasets, dataset-major
    model = quad_model()
    cfg = quad_config(T=sgld.STEP_CHUNK + 37, k=k)
    finals = run_ensemble(cfg, model, n_chains=3, n_datasets=n_datasets)
    traces = ensemble(cfg, model, n_chains=3, n_datasets=n_datasets)
    assert finals.shape == (3 * n_datasets, cfg.d)
    assert np.array_equal(finals, np.stack([tr.states[-1] for tr in traces]))


def test_run_ensemble_holds_no_chain_by_step_array():
    # 50 full-batch chains of 20,000 steps: whole traces, every state,
    # ||W||^2 and gradient series, would take about 40 MB, against about
    # 1 MB for the engine's chunk buffers
    model = quad_model()
    cfg = quad_config(k=100, T=20_000)
    c = 50
    traces_bytes = 8 * c * (len(sgld._stored_steps(cfg.T)) * cfg.d
                            + (cfg.T + 1) + 3 * cfg.T)
    tracemalloc.start()
    try:
        finals = run_ensemble(cfg, model, n_chains=c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < traces_bytes / 10
    assert finals.shape == (c, cfg.d)


@pytest.mark.parametrize("series", [1, None])
@pytest.mark.parametrize(
    "model", [QuadraticLoss(1.0, 1.0, 16), LogisticRidgeLoss(1.0, 1.0, 15)],
    ids=["quadratic", "logistic"])
def test_shared_dataset_ensemble_makes_no_per_chain_copy(model, series):
    # 64 chains on one (4096, 16) dataset: a (c, n, z) copy of its broadcast
    # would take 32 MiB, against about 1 MiB for the largest per-step block;
    # the engine with chain 0's series as `run` takes them (series 1), or
    # `run_ensemble` (None)
    cfg = quad_config(n=4096, k=8, T=3, d=model.d)
    c = 64
    broadcast_bytes = c * cfg.n * model.z_dim * 8
    tracemalloc.start()
    try:
        if series is None:
            run_ensemble(cfg, model, n_chains=c)
        else:
            ds = model.sample_data(np.random.default_rng(0), cfg.n)
            run_series(cfg, model, np.broadcast_to(ds, (c,) + ds.shape),
                       np.random.SeedSequence(cfg.seed).spawn(c))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < broadcast_bytes / 4


def test_engine_buffers_have_the_bytes_of_the_config_table():
    # k < n over 300 points (uint16 indices) and T past one chunk: the step
    # and index buffers the chunks view are the table's n_chains arrays
    cfg = config.parse({
        "loss": {"family": "quadratic", "R": 1.0, "d": 3},
        "sgld": {"eta": 0.05, "beta": 4.0, "k": 7, "T": 600},
        "data": {"n": 300}, "estimators": {"n_chains": 5}})
    model, s = cfg.model(), cfg.sgld_config()
    rows = {key: arrays for key, _, arrays in config._arrays(cfg, model, s)}
    arrays = rows["estimators.n_chains"]
    ds = model.sample_data(np.random.default_rng(0), s.n)
    chunks = sgld._lockstep_chunks(s, model, np.broadcast_to(ds, (5,) + ds.shape),
                                   np.random.SeedSequence(s.seed).spawn(5))
    next(chunks)  # the initial states
    chunk = next(chunks)
    assert chunk.steps.base.nbytes == arrays["step buffer"] == 8 * 512 * 5 * 3
    assert chunk.indices.base.nbytes == arrays["index buffer"] == 2 * 512 * 5 * 7


def test_ensemble_chains_differ_within_dataset():
    model = quad_model()
    traces = ensemble(quad_config(T=20), model, n_chains=2, n_datasets=1)
    assert not np.array_equal(traces[0].states, traces[1].states)


def test_ensemble_rejects_bad_counts():
    model = quad_model()
    with pytest.raises(ValueError):
        run_ensemble(quad_config(), model, n_chains=0)


@pytest.mark.parametrize("k", [7, 40])
@pytest.mark.parametrize("n_datasets", [1, 2])
def test_ensemble_on_a_given_dataset_equals_lockstep_on_its_chain_streams(n_datasets, k):
    # each dataset child's first sequence stays reserved for the draw, so the
    # chains run on children 1..c of every dataset child, all on the given data
    model = LogisticRidgeLoss(1.0, 1.0, 3)
    cfg = quad_config(T=60, k=k, n=40, d=3)
    ds = model.sample_data(np.random.default_rng(4), cfg.n)
    got = ensemble(cfg, model, dataset=ds, n_chains=3, n_datasets=n_datasets)
    seqs = [seq for ds_seq in np.random.SeedSequence(cfg.seed).spawn(n_datasets)
            for seq in ds_seq.spawn(4)[1:]]
    want = collect(cfg, model, np.broadcast_to(ds, (len(seqs),) + ds.shape), seqs)
    assert len(got) == len(want) == 3 * n_datasets
    for a, b in zip(got, want):
        for name in ("states", "w_norm_sq") + SERIES:
            assert np.array_equal(getattr(a, name), getattr(b, name))


def test_ensemble_refuses_a_dataset_of_the_wrong_shape():
    model = quad_model()
    cfg = quad_config(T=5)
    ds = model.sample_data(np.random.default_rng(0), cfg.n)
    for bad in (ds[:-1], ds[:, :1], ds[None]):
        with pytest.raises(ValueError, match="dataset has shape"):
            ensemble(cfg, model, dataset=bad)


def test_ensemble_second_moment_within_C0():
    model = quad_model()
    cfg = quad_config(eta=0.05, beta=4.0, k=10, T=300, s_sq=1.0)
    assert admission_failures(cfg, model) == []
    traces = ensemble(cfg, model, n_chains=1000, n_datasets=1)
    c0 = moment_bound_C0(model.constants(), cfg.eta, cfg.beta, cfg.d, cfg.s_sq)
    norms = np.stack([tr.w_norm_sq for tr in traces])  # (1000, T+1)
    mean_t = norms.mean(axis=0)
    se_t = norms.std(axis=0, ddof=1) / math.sqrt(norms.shape[0])
    assert np.all(mean_t <= c0 + 3 * se_t), (
        f"second moment exceeded C0={c0}: max {mean_t.max()}"
    )


# ------------------------------------------------------------- serialization


def test_trace_csv_round_trip(tmp_path):
    model = quad_model()
    ds = model.sample_data(np.random.default_rng(0), 100)
    tr = run_chain(quad_config(T=10), model, ds)
    path = tmp_path / "trace.csv"
    tr.to_csv(path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "w_norm_sq", "grad_var_sample",
                       "grad_fullbatch_norm", "grad_minibatch_norm"]
    assert len(rows) == 12  # header + T+1 rows
    assert rows[-1][2:] == ["", "", ""]  # no update on the final state
    assert float(rows[1][1]) == tr.w_norm_sq[0]
    assert float(rows[5][2]) == tr.grad_var_sample[4]


def test_write_csv_cells_read_back_as_written(tmp_path):
    floats = [0.1, 1e-300, -0.0, math.inf, math.nan, 1 / 3]
    path = tmp_path / "cells.csv"
    sgld.write_csv(path, ("a", "b"), [(*floats, None, 7, "x|y", "")])
    assert path.read_bytes().count(b"\r\n") == 2
    with open(path, newline="") as fh:
        header, row = list(csv.reader(fh))
    assert header == ["a", "b"]
    for cell, value in zip(row, floats):
        back = float(cell)
        assert (math.isnan(back) if math.isnan(value)
                else back == value and math.copysign(1, back) == math.copysign(1, value))
    assert row[len(floats):] == ["", "7", "x|y", ""]


# ------------------------------------------------------------ package surface


def test_every_module_export_resolves():
    modules = [info.name for info in pkgutil.iter_modules(sgldlab.__path__)]
    assert "sgld" in modules and "oracle" in modules
    for name in modules:
        module = importlib.import_module(f"sgldlab.{name}")
        exported = getattr(module, "__all__", None)
        if exported is None:
            continue
        missing = [attr for attr in exported if not hasattr(module, attr)]
        assert not missing, f"sgldlab.{name}.__all__ names missing {missing}"
        namespace = {}
        exec(f"from sgldlab.{name} import *", namespace)
        assert set(exported) <= set(namespace)


def _referenced(path):
    """(name, owner) for each name the Python file at `path` loads, reads as
    an attribute or imports, owner being the top-level function or class it
    appears in (None outside any)."""
    found = set()
    for top in ast.parse(path.read_text()).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.add((node.id, owner))
            elif isinstance(node, ast.Attribute):
                found.add((node.attr, owner))
            elif isinstance(node, ast.alias):
                found.add((node.name, owner))
    return found


def _callee(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _calls(path):
    """(callee name, positional count, keyword names) of each call in the
    Python file at `path`; a count or names of None is a * or ** splat,
    which may set any parameter. A function a call passes on, as
    `partial(f, 1, k=2)` or `_check(key, f, 1, k=2)` do, counts as called
    with the arguments after it."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        keywords = None if any(k.arg is None for k in node.keywords) else {
            k.arg for k in node.keywords}
        for i, fn in [(-1, node.func), *enumerate(node.args)]:
            after = node.args[i + 1:]
            count = None if any(isinstance(a, ast.Starred) for a in after) else len(after)
            found.append((_callee(fn), count, keywords))
    return found


def _defaulted_parameters(path):
    """(callee name, position or None, name) of each parameter with a default
    of each function in the Python file at `path`, the position counted
    without a method's self; `__init__` is called by its class's name."""
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, ast.FunctionDef):
                args = child.args
                params = args.posonlyargs + args.args
                static = any(_callee(d) == "staticmethod" for d in child.decorator_list)
                if cls is not None and not static:
                    params = params[1:]
                key = cls if child.name == "__init__" else child.name
                first = len(params) - len(args.defaults)
                found.extend((key, i, a.arg) for i, a in enumerate(params) if i >= first)
                found.extend((key, None, a.arg) for a, d in zip(args.kwonlyargs,
                                                                args.kw_defaults) if d)
                visit(child, None)
            else:
                visit(child, cls)

    visit(ast.parse(path.read_text()), None)
    return found


# each family, k = n and k < n, enough chains for the log-MGF and p-th moment
# checks, and small enough that all five subcommands take about a second
GUARD_CONFIGS = [
    {"loss": {"family": "quadratic", "R": 1.0, "d": 2},
     "sgld": {"k": 20}, "verify": {"oracle_T": 30}, "estimators": {"mi_pairs": 2}},
    {"loss": {"family": "logistic_ridge", "lam": 1.0, "d": 3}, "sgld": {"k": 5},
     "estimators": {"n_resamples": 2}},
    {"loss": {"family": "nonconvex_ridge", "lam": 1.0, "a": 0.2, "d": 3},
     "sgld": {"k": 5}, "estimators": {"n_resamples": 2}},
]


def _members_read_by_the_cli(tmp_path, monkeypatch):
    """The (class, member) reads of sgldlab dataclasses' fields, methods and
    properties that sgldlab code makes while `certify`, `run`, `bounds`,
    `verify` and `compare` run on `GUARD_CONFIGS`, and the dataclasses with
    their members. A read in the class's own `__post_init__` does not count:
    a field only validated is used by nothing. `dataclasses.asdict`'s reads
    count, so a class written through it has every field read."""
    from sgldlab.cli import main

    classes = {}
    for info in pkgutil.iter_modules(sgldlab.__path__):
        module = importlib.import_module(f"sgldlab.{info.name}")
        for cls in vars(module).values():
            if (isinstance(cls, type) and dataclasses.is_dataclass(cls)
                    and cls.__module__ == module.__name__):
                classes[cls] = {f.name for f in dataclasses.fields(cls)} | {
                    name for name, value in vars(cls).items()
                    if (callable(value) or isinstance(value, property))
                    and (not name.startswith("__") or name == "__getitem__")}
    library = {importlib.import_module(f"sgldlab.{info.name}").__file__
               for info in pkgutil.iter_modules(sgldlab.__path__)}
    validation = {cls: vars(cls)["__post_init__"].__code__
                  for cls in classes if "__post_init__" in vars(cls)}
    reads = set()

    def record(cls, name, code):
        if ((code.co_filename in library and code is not validation.get(cls))
                or code.co_name == "_asdict_inner"):
            reads.add((cls, name))

    def getter(self, name):
        record(type(self), name, sys._getframe(1).f_code)
        return object.__getattribute__(self, name)

    for cls in classes:
        monkeypatch.setattr(cls, "__getattribute__", getter)
        if "__getitem__" in vars(cls):
            def item(self, key, _get=vars(cls)["__getitem__"]):
                record(type(self), "__getitem__", sys._getframe(1).f_code)
                return _get(self, key)
            monkeypatch.setattr(cls, "__getitem__", item)

    for i, over in enumerate(GUARD_CONFIGS):
        cfg = {"sgld": {"eta": 0.05, "beta": 4.0, "T": 30, **over["sgld"]},
               "data": {"n": 20}, "bounds": {"sigma_g_sq": 0.25},
               "estimators": {"n_chains": 30, "n_trials": 2, "n_pairs": 2,
                              **over["estimators"]},
               "loss": {**over["loss"], "certify_samples": 200},
               "verify": over.get("verify", {})}
        path, out = tmp_path / f"{i}.json", tmp_path / str(i)
        path.write_text(json.dumps(cfg))
        common = ["--config", str(path), "--out"]
        for argv in (["certify", *common, str(out / "certify")],
                     ["run", *common, str(out / "run")],
                     ["bounds", *common, str(out / "bounds"), "--traces", str(out / "run")],
                     ["verify", *common, str(out / "verify")],
                     ["compare", str(out / "bounds"), "--out", str(out / "compare")]):
            assert main(argv) == 0, argv
    return reads, classes


def test_every_export_has_a_caller_in_the_library_or_the_benchmark(tmp_path, monkeypatch):
    # each `__all__` name is used in src/ or perfbench/ outside its own
    # definition, each defaulted parameter is set by some call there, and
    # each dataclass member is read there; what only the tests call or read
    # lives in tests/reference.py
    repo = pathlib.Path(__file__).resolve().parents[1]
    library = sorted((repo / "src" / "sgldlab").glob("*.py"))
    benchmark = sorted((repo / "perfbench").glob("*.py"))
    refs = {path: _referenced(path) for path in library + benchmark}
    uncalled = []
    for info in pkgutil.iter_modules(sgldlab.__path__):
        own = repo / "src" / "sgldlab" / f"{info.name}.py"
        exported = getattr(importlib.import_module(f"sgldlab.{info.name}"), "__all__", [])
        uncalled += [f"{info.name}.{name}" for name in exported
                     if not any(used == name and (path != own or owner != name)
                                for path, found in refs.items() for used, owner in found)]
    assert uncalled == []

    calls = [call for path in library + benchmark for call in _calls(path)]
    unset = [f"{path.stem}.{key}({name})" for path in library
             for key, position, name in _defaulted_parameters(path)
             if not any(callee == key and (
                 count is None or keywords is None or name in keywords
                 or position is not None and count > position)
                 for callee, count, keywords in calls)]
    assert unset == []

    # the benchmark's names count as reads: its probe reads what it names
    named = {node.attr for path in benchmark for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute)}
    reads, classes = _members_read_by_the_cli(tmp_path, monkeypatch)
    unread = sorted(f"{cls.__module__.rpartition('.')[2]}.{cls.__name__}.{name}"
                    for cls, members in classes.items() for name in members
                    if (cls, name) not in reads and name not in named)
    assert unread == []
