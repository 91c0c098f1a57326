"""SGLD engine: primitives, determinism, ensembles, accounting."""

import csv
import math

import numpy as np
import pytest

import sgldlab.sgld as sgld
from sgldlab.constants import moment_bound_C0
from sgldlab.losses import make_quadratic
from sgldlab.sgld import (
    ChainTrace,
    SGLDConfig,
    StrictModeError,
    dataset_fingerprint,
    run_chain,
    run_ensemble,
    sample_initial,
    sample_minibatch,
    sgld_step,
    strict_mode_failures,
)


def quad_model(d=2):
    return make_quadratic(1.0, 1.0, d)


def quad_config(**kw):
    base = dict(eta=0.05, beta=4.0, k=10, n=100, T=200, d=2, s_sq=1.0, seed=123)
    base.update(kw)
    return SGLDConfig(**base)


class _ZeroNoise:
    """Stand-in generator whose Gaussian draws are all zero."""

    def standard_normal(self, size):
        return np.zeros(size)


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
    rng_a = np.random.default_rng(5)
    rng_b = np.random.default_rng(5)
    idx = sample_minibatch(7, 7, rng_a)
    np.testing.assert_array_equal(idx, np.arange(7))
    # no randomness consumed: both generators still aligned
    assert rng_a.integers(0, 1000) == rng_b.integers(0, 1000)


def test_sample_minibatch_distinct_members():
    rng = np.random.default_rng(2)
    for _ in range(200):
        idx = sample_minibatch(10, 4, rng)
        assert len(set(idx.tolist())) == 4
        assert np.all((0 <= idx) & (idx < 10))


def test_sample_minibatch_uniform_frequencies():
    # n=3, k=1: chi-square over 30000 draws, 99% critical value df=2 is 9.21
    rng = np.random.default_rng(3)
    counts = np.zeros(3)
    draws = 30_000
    for _ in range(draws):
        counts[sample_minibatch(3, 1, rng)[0]] += 1
    expected = draws / 3.0
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2 < 9.21, f"chi-square {chi2} outside the 99% band"


def test_sample_minibatch_errors():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_minibatch(3, 4, rng)
    with pytest.raises(ValueError):
        sample_minibatch(3, 0, rng)


def test_sgld_step_zero_eta_is_identity():
    model = quad_model()
    ds = model.sample_data(np.random.default_rng(0), 5)
    w = np.array([0.3, -0.7])
    out = sgld_step(w, model, ds, np.arange(5), eta=0.0, beta=2.0,
                    rng=np.random.default_rng(1))
    np.testing.assert_array_equal(out, w)


def test_sgld_step_pure_noise_when_gradient_vanishes():
    model = quad_model()
    ds = np.zeros((4, 2))
    w = np.zeros(2)
    out = sgld_step(w, model, ds, np.arange(4), eta=0.1, beta=2.0,
                    rng=np.random.default_rng(9))
    xi = np.random.default_rng(9).standard_normal(2)
    np.testing.assert_allclose(out, math.sqrt(2 * 0.1 / 2.0) * xi, rtol=1e-15)


def test_sgld_step_drift_recursion_with_noise_suppressed():
    model = quad_model()
    rng = np.random.default_rng(4)
    ds = model.sample_data(rng, 6)
    w = np.array([1.0, -2.0])
    out = sgld_step(w, model, ds, np.arange(6), eta=0.1, beta=2.0, rng=_ZeroNoise())
    want = (1 - 0.1) * w + 0.1 * ds.mean(axis=0)
    np.testing.assert_allclose(out, want, rtol=1e-14)


def test_sgld_step_dimension_mismatch():
    model = quad_model()
    ds = model.sample_data(np.random.default_rng(0), 5)
    with pytest.raises(ValueError):
        sgld_step(np.zeros(3), model, ds, np.arange(5), 0.1, 2.0,
                  np.random.default_rng(0))
    with pytest.raises(ValueError):
        sgld_step(np.zeros(2), model, ds, np.array([], dtype=int), 0.1, 2.0,
                  np.random.default_rng(0))


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
    model = quad_model()  # M=1, m=0.5: eta cap m/(5 M^2) = 0.1, 2/m = 4
    cfg = quad_config(eta=0.5, beta=1.0, strict_mode=True)
    ds = model.sample_data(np.random.default_rng(0), 100)
    with pytest.raises(StrictModeError) as exc:
        run_chain(cfg, model, ds)
    msg = str(exc.value)
    assert "beta >= 2/m" in msg
    assert "eta < m/(5 M^2)" in msg


def test_strict_mode_accepts_valid_config():
    model = quad_model()
    cfg = quad_config(eta=0.05, beta=4.0, T=10, strict_mode=True)
    ds = model.sample_data(np.random.default_rng(0), 100)
    assert strict_mode_failures(cfg, model) == []
    run_chain(cfg, model, ds)


def test_strict_mode_eta_one_cap():
    model = quad_model()
    failures = strict_mode_failures(quad_config(eta=1.5, beta=4.0), model)
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


def _chain_by_hand(cfg, model, ds, seq):
    """All states of one chain, rebuilt from the documented stream layout.

    Substreams spawn in the order (init, batch, noise); offsets and noise
    are drawn per STEP_CHUNK steps; each step's minibatch comes from k
    partial Fisher-Yates swaps of 0..n-1 by that step's own offsets.
    """
    init_s, batch_s, noise_s = seq.spawn(3)
    rng_i = np.random.default_rng(init_s)
    rng_b = np.random.default_rng(batch_s)
    rng_n = np.random.default_rng(noise_s)
    w = math.sqrt(cfg.s_sq) * rng_i.standard_normal(cfg.d)
    high = cfg.n - np.arange(cfg.k)
    scale = math.sqrt(2 * cfg.eta / cfg.beta)
    states = [w]
    for start in range(0, cfg.T, sgld.STEP_CHUNK):
        cl = min(sgld.STEP_CHUNK, cfg.T - start)
        offs = rng_b.integers(0, high, size=(cl, cfg.k))
        xis = rng_n.standard_normal((cl, cfg.d))
        for s in range(cl):
            idx = np.arange(cfg.n)
            for j in range(cfg.k):
                tgt = j + offs[s, j]
                idx[j], idx[tgt] = idx[tgt], idx[j]
            g = model.grad_minibatch(w[None], ds[idx[: cfg.k]][None])[0]
            w = w - cfg.eta * g + scale * xis[s]
            states.append(w)
    return np.stack(states)


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
    # three chains over independent datasets: by default a Fisher-Yates
    # block spans a whole chunk; 341 steps do not divide a 512-step chunk,
    # and 2 steps leave a 1-step block to end the 37-step chunk
    model = quad_model()
    cfg = quad_config(T=2 * sgld.STEP_CHUNK + 37, k=10)
    if block_steps is not None:
        words_per_step = 3 * cfg.n
        monkeypatch.setattr(sgld, "BLOCK_WORDS", (block_steps + 1) * words_per_step - 1)
        assert sgld._block_len(words_per_step) == block_steps
    traces = run_ensemble(cfg, model, n_chains=1, n_datasets=3)
    for tr, ds_seq in zip(traces, np.random.SeedSequence(cfg.seed).spawn(3)):
        sampler_seq, chain_seq = ds_seq.spawn(2)
        ds = model.sample_data(np.random.default_rng(sampler_seq), cfg.n)
        assert np.array_equal(tr.states, _chain_by_hand(cfg, model, ds, chain_seq))


def test_lockstep_without_series_keeps_states():
    model = quad_model()
    cfg = quad_config(T=90, k=10)
    ds = model.sample_data(np.random.default_rng(4), cfg.n)
    def run(series):
        seqs = np.random.SeedSequence(cfg.seed).spawn(2)  # spawning is stateful
        return sgld._run_chains_lockstep(cfg, model, np.stack([ds, ds[::-1]]),
                                         seqs, ["a", "b"], series=series)

    full, bare = run(True), run(False)
    for a, b in zip(full, bare):
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.w_norm_sq, b.w_norm_sq)
        assert np.all(np.isnan(b.grad_var_sample))
        assert np.all(np.isnan(b.grad_fullbatch_norm))
        assert np.all(np.isnan(b.grad_minibatch_norm))


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
    np.testing.assert_array_equal(tr.stored_steps,
                                  np.r_[np.arange(0, 25, 3), 25])
    assert tr.states.shape == (len(tr.stored_steps), 2)
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
    traces = run_ensemble(cfg, model, n_chains=400, n_datasets=1)
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
    [tr_e] = run_ensemble(cfg, model, n_chains=1, n_datasets=1)
    root = np.random.SeedSequence(cfg.seed)
    ds_seq = root.spawn(1)[0]
    sampler_seq, chain_seq = ds_seq.spawn(2)
    ds = model.sample_data(np.random.default_rng(sampler_seq), cfg.n)
    tr_s = run_chain(cfg, model, ds, seed_seq=chain_seq)
    assert np.array_equal(tr_e.states, tr_s.states)
    assert np.array_equal(tr_e.grad_var_sample, tr_s.grad_var_sample)
    assert tr_e.dataset_id == tr_s.dataset_id


def test_ensemble_counts_and_grouping():
    model = quad_model()
    cfg = quad_config(T=5)
    traces = run_ensemble(cfg, model, n_chains=3, n_datasets=2)
    assert len(traces) == 6
    ids = [tr.dataset_id for tr in traces]
    assert len(set(ids[:3])) == 1 and len(set(ids[3:])) == 1
    assert ids[0] != ids[3]


def test_ensemble_chains_differ_within_dataset():
    model = quad_model()
    traces = run_ensemble(quad_config(T=20), model, n_chains=2, n_datasets=1)
    assert not np.array_equal(traces[0].states, traces[1].states)


def test_ensemble_rejects_bad_counts():
    model = quad_model()
    with pytest.raises(ValueError):
        run_ensemble(quad_config(), model, n_chains=0)


def test_ensemble_second_moment_within_C0():
    model = quad_model()
    cfg = quad_config(eta=0.05, beta=4.0, k=10, T=300, s_sq=1.0, strict_mode=True)
    traces = run_ensemble(cfg, model, n_chains=1000, n_datasets=1)
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


def test_trace_final_state_save(tmp_path):
    model = quad_model()
    ds = model.sample_data(np.random.default_rng(0), 100)
    tr = run_chain(quad_config(T=5), model, ds)
    path = tmp_path / "final.npy"
    tr.save_final_state(path)
    np.testing.assert_array_equal(np.load(path), tr.final_state)


def test_dataset_fingerprint_sensitivity():
    ds = np.zeros((3, 2))
    a = dataset_fingerprint(ds)
    ds2 = ds.copy()
    ds2[0, 0] = 1e-12
    assert a != dataset_fingerprint(ds2)
    assert a == dataset_fingerprint(np.zeros((3, 2)))


def test_trace_validate_catches_bad_shapes():
    model = quad_model()
    ds = model.sample_data(np.random.default_rng(0), 100)
    tr = run_chain(quad_config(T=5), model, ds)
    bad = ChainTrace(
        config=tr.config, dataset_id=tr.dataset_id, states=tr.states,
        stored_steps=tr.stored_steps, w_norm_sq=tr.w_norm_sq[:-1],
        grad_var_sample=tr.grad_var_sample,
        grad_fullbatch_norm=tr.grad_fullbatch_norm,
        grad_minibatch_norm=tr.grad_minibatch_norm,
        noise_variates=tr.noise_variates,
    )
    with pytest.raises(ValueError):
        bad.validate()
