"""Tests for the Monte Carlo estimators."""

import csv
import dataclasses
import math
import re

import numpy as np
import pytest

import sgldlab.estimators as estimators
import sgldlab.sgld as sgld
from sgldlab.constants import (
    admissibility_failures,
    lsi_constant,
    lsi_route,
    moment_bound_C0,
    subexp_params,
)
from sgldlab.estimators import (
    NotFinite,
    grad_variance_trace,
    logmgf_check,
    pth_moment_check,
    write_estimates_csv,
)
from sgldlab.losses import (
    LogisticRidgeLoss,
    LossConstants,
    LossModel,
    NonconvexRidgeLoss,
    QuadraticLoss,
)
from sgldlab.sgld import SGLDConfig, run_ensemble, stream

from reference import (
    collect,
    empirical_gen_gap,
    ensemble,
    grad_stability_trace,
    run_chain,
    sg_variance_bound,
)


class ConstantLoss(LossModel):
    """f(w, z) = 0.5 ||w||^2 regardless of z; no data dependence at all."""

    def __init__(self, d: int):
        super().__init__(d, LossConstants(M=1.0, m=1.0, b=1.0, A=1.0, data_radius=1.0))
        self.z_dim = d

    def eval_many(self, W, Z):
        W = np.atleast_2d(np.asarray(W, dtype=float))
        return 0.5 * np.einsum("ij,ij->i", W, W)

    def grad_minibatch(self, W, Zb):
        return np.asarray(W, dtype=float).copy()


def quad_cfg(**kw):
    base = dict(eta=0.05, beta=4.0, k=10, n=100, T=200, d=2, s_sq=1.0, seed=2024)
    base.update(kw)
    return SGLDConfig(**base)


def reseeded(trace, seed):
    # the trace under a config of another seed, the seed of its variance's
    # resamples
    return dataclasses.replace(trace, config=dataclasses.replace(trace.config, seed=seed))


# ------------------------------------------------------------------- gen gap


def test_gen_gap_constant_loss_is_zero():
    model = ConstantLoss(d=2)
    cfg = quad_cfg(n=20, k=20, T=50, d=2)
    means, stderrs = empirical_gen_gap(model, cfg, n_trials=5)
    assert means.shape == stderrs.shape == (1,)
    assert abs(means[0]) <= stderrs[0] + 1e-14


def test_gen_gap_requires_two_trials():
    model = QuadraticLoss(R=1.0, data_radius=1.0, d=2)
    with pytest.raises(ValueError):
        empirical_gen_gap(model, quad_cfg(), n_trials=1)


def test_gen_gap_rejects_unknown_eval_loss():
    model = QuadraticLoss(R=1.0, data_radius=1.0, d=2)
    with pytest.raises(ValueError):
        empirical_gen_gap(model, quad_cfg(), n_trials=2, eval_loss="raw")


def test_gen_gap_reproducible_by_seed():
    model = QuadraticLoss(R=1.0, data_radius=1.0, d=2)
    cfg = quad_cfg(n=30, k=30, T=40)
    a = empirical_gen_gap(model, cfg, n_trials=4)
    b = empirical_gen_gap(model, cfg, n_trials=4)
    assert [x.tolist() for x in a] == [x.tolist() for x in b]


def test_gen_gap_shrinks_with_n():
    # mean gap at n=400 below mean gap at n=50, 30 repetitions each;
    # large beta keeps injected-noise variance small so the dataset-mean
    # signal, which scales like 1/n, dominates
    model = QuadraticLoss(R=1.0, data_radius=1.0, d=5)
    small = quad_cfg(n=50, k=50, T=150, d=5, beta=1000.0, seed=91)
    large = quad_cfg(n=400, k=400, T=150, d=5, beta=1000.0, seed=91)
    (gap_small,), _ = empirical_gen_gap(model, small, n_trials=30)
    (gap_large,), _ = empirical_gen_gap(model, large, n_trials=30)
    assert gap_large < gap_small


def test_gen_gap_surrogate_bounded_and_distinct():
    model = QuadraticLoss(R=1.0, data_radius=1.0, d=2)
    cfg = quad_cfg(n=30, k=30, T=40)
    (raw,), _ = empirical_gen_gap(model, cfg, n_trials=6, eval_loss="same_as_f")
    (sur,), _ = empirical_gen_gap(model, cfg, n_trials=6, eval_loss="surrogate")
    assert abs(sur) <= 1.0
    assert sur != raw


# ------------------------------------------------------------- grad variance


def test_grad_variance_full_batch_exact_zero():
    model = QuadraticLoss(R=1.0, data_radius=1.0, d=2)
    cfg = quad_cfg(k=50, n=50, T=30)
    ds = model.sample_data(np.random.default_rng(0), cfg.n)
    trace = run_chain(cfg, model, ds)
    means, stderrs = grad_variance_trace(model, ds, trace, n_resamples=100)
    assert means.shape == stderrs.shape == sgld._stored_steps(cfg.T).shape
    assert np.all(means == 0.0) and np.all(stderrs == 0.0)


def test_grad_variance_needs_two_resamples():
    model = QuadraticLoss(R=1.0, data_radius=1.0, d=2)
    cfg = quad_cfg(T=10)
    ds = model.sample_data(np.random.default_rng(0), cfg.n)
    trace = run_chain(cfg, model, ds)
    with pytest.raises(ValueError):
        grad_variance_trace(model, ds, trace, n_resamples=1)


def test_grad_variance_time_independent_for_quadratic():
    # gradient is R(w - zbar_B): its conditional variance depends only on
    # the minibatch mean, not on w, so estimates at different t must agree
    model = QuadraticLoss(R=1.0, data_radius=1.0, d=2)
    cfg = quad_cfg(k=5, n=50, T=40, seed=7)
    ds = model.sample_data(np.random.default_rng(1), cfg.n)
    trace = run_chain(cfg, model, ds)
    means, stderrs = grad_variance_trace(model, ds, trace, n_resamples=4000)
    joint = math.hypot(stderrs[0], stderrs[-1])
    assert abs(means[0] - means[-1]) <= 3.0 * joint


def test_grad_variance_within_lemma_bound():
    model = QuadraticLoss(R=1.0, data_radius=1.0, d=2)
    cfg = quad_cfg(k=5, n=50, T=40, seed=11)
    ds = model.sample_data(np.random.default_rng(2), cfg.n)
    trace = run_chain(cfg, model, ds)
    means, _ = grad_variance_trace(model, ds, trace, n_resamples=2000)
    lc = model.constants()
    for mean, step in zip(means, sgld._stored_steps(cfg.T)):
        bound = sg_variance_bound(lc, cfg.n, cfg.k, float(trace.w_norm_sq[step]))
        assert mean <= bound


def test_grad_variance_reproducible():
    model = QuadraticLoss(R=1.0, data_radius=1.0, d=2)
    cfg = quad_cfg(k=5, n=50, T=10)
    ds = model.sample_data(np.random.default_rng(3), cfg.n)
    trace = run_chain(cfg, model, ds)
    a = grad_variance_trace(model, ds, trace, n_resamples=200)
    b = grad_variance_trace(model, ds, trace, n_resamples=200)
    assert np.array_equal(a, b)
    c = grad_variance_trace(model, ds, reseeded(trace, 99), n_resamples=200)
    assert not np.array_equal(c, a)


# ------------------------------------------------------------ grad stability


@pytest.mark.parametrize("family", ["quadratic", "logistic", "nonconvex"])
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_grad_stability_identical_datasets_zero(family, d):
    model = {"quadratic": QuadraticLoss(1.0, 1.0, d),
             "logistic": LogisticRidgeLoss(1.0, 1.0, d),
             "nonconvex": NonconvexRidgeLoss(1.0, 0.5, 1.0, d)}[family]
    cfg = quad_cfg(n=20, k=20, T=5, d=d)
    means, stderrs = grad_stability_trace(model, cfg, n_pairs=8, control_identical=True)
    assert len(means) == len(stderrs) == 6
    assert np.all(means == 0.0) and np.all(stderrs == 0.0)


def test_grad_stability_quadratic_matches_closed_form():
    # statistic per pair is R^2 ||zbar_S - zbar_S'||^2, independent of W_t;
    # reconstruct the pair datasets through the documented stream layout
    R = 1.5
    model = QuadraticLoss(R=R, data_radius=1.0, d=2)
    cfg = quad_cfg(n=25, k=25, T=3, seed=314)
    n_pairs = 40
    means, stderrs = grad_stability_trace(model, cfg, n_pairs=n_pairs)

    closed = np.empty(n_pairs)
    root = np.random.SeedSequence(cfg.seed)
    for i, seq in enumerate(root.spawn(n_pairs)):
        s_seq, s_alt_seq, _ = seq.spawn(3)
        S = model.sample_data(np.random.default_rng(s_seq), cfg.n)
        S_alt = model.sample_data(np.random.default_rng(s_alt_seq), cfg.n)
        diff = S.mean(axis=0) - S_alt.mean(axis=0)
        closed[i] = R**2 * float(diff @ diff)
    expect_mean = closed.mean()
    expect_se = closed.std(ddof=1) / math.sqrt(n_pairs)
    for mean, stderr in zip(means, stderrs):
        assert mean == pytest.approx(expect_mean, rel=1e-12)
        assert stderr == pytest.approx(expect_se, rel=1e-12)


def test_grad_stability_scales_like_one_over_n():
    model = QuadraticLoss(R=1.0, data_radius=1.0, d=2)
    small = quad_cfg(n=25, k=25, T=2, seed=5)
    large = quad_cfg(n=100, k=100, T=2, seed=5)
    est_small = grad_stability_trace(model, small, n_pairs=200)[0][-1]
    est_large = grad_stability_trace(model, large, n_pairs=200)[0][-1]
    ratio = est_small / est_large
    assert 2.8 < ratio < 5.2


# ------------------------------------------- blocked traces vs per-row loop


def _mean_and_stderr(rows):
    rows = [np.asarray(r, dtype=float) for r in rows]
    return (np.array([r.mean() for r in rows]),
            np.array([r.std(ddof=1) / math.sqrt(r.size) for r in rows]))


def _variance_per_row(model, dataset, trace, n_resamples):
    # one offset draw, Fisher-Yates shuffle and kernel call per stored state
    cfg = trace.config
    rng = np.random.default_rng(stream(cfg.seed, "variance"))
    high = cfg.n - np.arange(cfg.k)
    rows = []
    for w in trace.states:
        gfull = model.grad_minibatch(w[None], dataset[None])[0]
        offs = rng.integers(0, high, size=(n_resamples, cfg.k))
        idx = np.empty((n_resamples, cfg.k), dtype=int)
        for r in range(n_resamples):
            perm = np.arange(cfg.n)
            for j in range(cfg.k):
                tgt = j + offs[r, j]
                perm[j], perm[tgt] = perm[tgt], perm[j]
            idx[r] = perm[:cfg.k]
        G = model.grad_minibatch(np.broadcast_to(w, (n_resamples, cfg.d)), dataset[idx])
        rows.append(np.einsum("ij,ij->i", G - gfull, G - gfull))
    return _mean_and_stderr(rows)


def _stability_per_row(model, config, n_pairs, control_identical):
    # the pair datasets and chains of the documented layout, then one pair
    # of full-batch kernel calls per stored step
    DS, DS_alt, seqs = [], [], []
    for seq in np.random.SeedSequence(config.seed).spawn(n_pairs):
        s_seq, s_alt_seq, chain_seq = seq.spawn(3)
        S = model.sample_data(np.random.default_rng(s_seq), config.n)
        DS.append(S)
        DS_alt.append(S if control_identical
                      else model.sample_data(np.random.default_rng(s_alt_seq), config.n))
        seqs.append(chain_seq)
    DS, DS_alt = np.stack(DS), np.stack(DS_alt)
    traces = collect(config, model, DS, seqs)
    rows = []
    for row in range(traces[0].states.shape[0]):
        W = np.stack([tr.states[row] for tr in traces])
        diff = model.grad_minibatch(W, DS) - model.grad_minibatch(W, DS_alt)
        rows.append(np.einsum("ij,ij->i", diff, diff))
    return _mean_and_stderr(rows)


GRAD_MODELS = [QuadraticLoss(R=1.0, data_radius=1.0, d=2),
               LogisticRidgeLoss(1.0, 1.0, 3)]


@pytest.mark.parametrize("model", [*GRAD_MODELS, NonconvexRidgeLoss(1.0, 0.5, 1.0, 3)],
                         ids=["quadratic", "logistic", "nonconvex"])
@pytest.mark.parametrize("strided", [False, True])
def test_grad_variance_blocks_equal_per_row_loop(monkeypatch, model, strided):
    # the centred per-point gradients, gathered and summed, round
    # differently from one minibatch kernel call per resample, so the two
    # agree to rounding, not to the bit
    if strided:
        # stride 5 over T = 47: 11 stored states in blocks of 4, 4 and 3
        monkeypatch.setattr(sgld, "STATE_STORE_CAP", 10)
        monkeypatch.setattr(sgld, "BLOCK_WORDS", 4 * 20 * 30)  # (20 resamples, n = 30)
    cfg = quad_cfg(k=5, n=30, T=47, d=model.d, seed=21)
    ds = model.sample_data(np.random.default_rng(6), cfg.n)
    trace = reseeded(run_chain(cfg, model, ds), 4)
    got_mean, got_se = grad_variance_trace(model, ds, trace, n_resamples=20)
    assert len(got_mean) == trace.states.shape[0] == (11 if strided else 48)
    want_mean, want_se = _variance_per_row(model, ds, trace, 20)
    np.testing.assert_allclose(got_mean, want_mean, rtol=1e-12, atol=0)
    np.testing.assert_allclose(got_se, want_se, rtol=1e-12, atol=0)


@pytest.mark.parametrize("model", [QuadraticLoss(1.0, 1.0, 1), LogisticRidgeLoss(1.0, 1.2, 1),
                                   LogisticRidgeLoss(1.0, 1.2, 5),
                                   NonconvexRidgeLoss(1.0, 0.5, 1.0, 3)],
                         ids=["quadratic-d1", "logistic-d1", "logistic-d5", "nonconvex-d3"])
@pytest.mark.parametrize("strided", [False, True])
def test_grad_variance_trace_the_same_in_any_blocks(monkeypatch, model, strided):
    # each state's resamples are summed in minibatch order, so the trace
    # has the same bits whatever the number of states per block
    if strided:
        monkeypatch.setattr(sgld, "STATE_STORE_CAP", 10)  # stride 5 over T = 47
    cfg = quad_cfg(k=6, n=30, T=47, d=model.d, seed=31)
    ds = model.sample_data(np.random.default_rng(7), cfg.n)
    trace = reseeded(run_chain(cfg, model, ds), 2)
    traces = []
    for words in (sgld.BLOCK_WORDS, 3 * 9 * 30, 1):  # default, 3 states, one state
        monkeypatch.setattr(sgld, "BLOCK_WORDS", words)
        traces.append(grad_variance_trace(model, ds, trace, n_resamples=9))
    assert traces[0][0].shape == (11 if strided else 48,)
    for got in traces[1:]:
        assert np.array_equal(got, traces[0])


@pytest.mark.parametrize("model", [*GRAD_MODELS, NonconvexRidgeLoss(1.0, 0.5, 1.0, 3)],
                         ids=["quadratic", "logistic", "nonconvex"])
@pytest.mark.parametrize("strided", [False, True])
@pytest.mark.parametrize("control_identical", [False, True])
def test_grad_stability_blocks_equal_per_row_loop(monkeypatch, model, strided,
                                                  control_identical):
    # the per-pair block contractions round differently from the per-step
    # kernel calls, so the two agree to rounding, not to the bit
    cfg = quad_cfg(k=5, n=30, T=47, d=model.d, seed=22)
    if strided:
        # stride 5 over T = 47: 11 stored steps in blocks of 4, 4 and 3, by
        # the (4 steps, n = 30) margins
        monkeypatch.setattr(sgld, "STATE_STORE_CAP", 10)
        monkeypatch.setattr(sgld, "BLOCK_WORDS", 4 * 30)
    got_mean, got_se = grad_stability_trace(model, cfg, n_pairs=6,
                                            control_identical=control_identical)
    assert len(got_mean) == len(got_se) == (11 if strided else 48)
    want_mean, want_se = _stability_per_row(model, cfg, 6, control_identical)
    np.testing.assert_allclose(got_mean, want_mean, rtol=1e-12, atol=0)
    np.testing.assert_allclose(got_se, want_se, rtol=1e-12, atol=0)
    if control_identical:
        assert np.all(got_mean == 0.0) and np.all(got_se == 0.0)


def test_gradient_trace_blocks_bound_fisher_yates_scratch(monkeypatch):
    # k = 1 with a large n: each Fisher-Yates call's (rows, n) scratch fits
    # BLOCK_WORDS, or covers one unit (one state's resamples, one step of
    # every chain), which is what an unblocked loop allocates
    fy = sgld._fy_subset_rows
    calls = []

    def recorder(offsets, n):
        calls.append(offsets.shape[0] * n)
        return fy(offsets, n)

    monkeypatch.setattr(sgld, "_fy_subset_rows", recorder)
    monkeypatch.setattr(estimators, "_fy_subset_rows", recorder)
    model = QuadraticLoss(R=1.0, data_radius=1.0, d=2)
    cfg = quad_cfg(k=1, n=4000, T=6)
    assert 300 * cfg.n > sgld.BLOCK_WORDS

    traces = ensemble(cfg, model, n_chains=50, n_datasets=1)
    assert calls and max(calls) <= sgld.BLOCK_WORDS
    calls.clear()
    ds = model.sample_data(np.random.default_rng(3), cfg.n)
    grad_variance_trace(model, ds, reseeded(traces[0], 1), n_resamples=300)
    assert calls == [300 * cfg.n] * 7


@pytest.mark.parametrize("m", [1, 2, 3, 7, 300, 1001])
def test_block_estimates_equal_per_row_estimate(m):
    rng = np.random.default_rng(m)
    rows = rng.exponential(size=(6, m)) * 10.0 ** rng.integers(-8, 8, size=(6, 1))
    rows[1] = 0.0  # what control_identical gives
    rows[2] = rows[2, 0]
    got = estimators._mean_stderr(rows)
    want = [estimators._mean_stderr(row[None]) for row in rows]
    assert got[0].tolist() == [mean for (mean,), _ in want]
    assert got[1].tolist() == [stderr for _, (stderr,) in want]
    assert got[0][1] == 0.0 and got[1][1] == 0.0


# -------------------------------------------------------------- p-th moments


def test_pth_moment_p2_below_moment_bound():
    model = QuadraticLoss(R=1.0, data_radius=1.0, d=2)
    cfg = quad_cfg(k=10, n=100, T=300, seed=21)
    lc = model.constants()
    c_LS = lsi_constant(lc, cfg.beta, cfg.d, lsi_route(lc))
    assert admissibility_failures(lc, cfg.eta, cfg.beta, c_LS) == []
    finals = run_ensemble(cfg, model, n_chains=400)
    report = pth_moment_check(finals, [2], lc, beta=cfg.beta, d=cfg.d, s_sq=cfg.s_sq)
    c0 = moment_bound_C0(lc, cfg.eta, cfg.beta, cfg.d, cfg.s_sq)
    sq = np.einsum("ij,ij->i", finals, finals)
    se = sq.std(ddof=1) / math.sqrt(sq.size)
    assert report.empirical[0] ** 2 <= c0 + 3.0 * se


def test_pth_moment_fitted_C_stays_bounded():
    model = QuadraticLoss(R=1.0, data_radius=1.0, d=2)
    cfg = quad_cfg(k=50, n=50, T=150, seed=22)
    finals = run_ensemble(cfg, model, n_chains=400)
    lc = model.constants()
    report = pth_moment_check(
        finals, [2, 4, 6, 8, 10, 12], lc, beta=cfg.beta, d=cfg.d, s_sq=cfg.s_sq
    )
    assert report.fitted_C_bounded
    assert max(report.fitted_C) <= 2.0 * report.fitted_C[0]
    assert report.n_samples == 400


def test_pth_moment_rejects_odd_or_large_p():
    model = QuadraticLoss(R=1.0, data_radius=1.0, d=2)
    cfg = quad_cfg(k=20, n=20, T=5)
    finals = run_ensemble(cfg, model, n_chains=100)
    lc = model.constants()
    for bad in ([3], [14], [0]):
        with pytest.raises(ValueError):
            pth_moment_check(finals, bad, lc, beta=cfg.beta, d=cfg.d, s_sq=cfg.s_sq)


def test_pth_moment_rejects_too_few_samples():
    model = QuadraticLoss(R=1.0, data_radius=1.0, d=2)
    cfg = quad_cfg(k=20, n=20, T=5)
    finals = run_ensemble(cfg, model, n_chains=40)
    lc = model.constants()
    with pytest.raises(ValueError):
        pth_moment_check(finals, [12], lc, beta=cfg.beta, d=cfg.d, s_sq=cfg.s_sq)


def test_pth_moment_refuses_a_moment_past_the_float_range():
    # finite states of norm sqrt(2) 1e30: the mean of ||W||^12 is past the
    # float range, that of ||W||^2 is not
    lc = QuadraticLoss(R=1.0, data_radius=1.0, d=2).constants()
    finals = np.full((60, 2), 1e30)
    with pytest.raises(NotFinite, match=r"^pth_moments: the p = 12 moment .* float range$"):
        pth_moment_check(finals, [2, 12], lc, beta=4.0, d=2, s_sq=1.0)
    report = pth_moment_check(finals, [2], lc, beta=4.0, d=2, s_sq=1.0)
    assert report.empirical[0] == pytest.approx(math.sqrt(2.0) * 1e30, rel=1e-15)


def test_pth_moment_matches_gaussian_ground_truth():
    # full-batch quadratic with a mean-zero dataset keeps W_T exactly
    # Gaussian N(0, v_T I); compare raw p-th moments against the closed form
    d, n, T, eta, beta, s_sq = 2, 8, 120, 0.05, 4.0, 1.0
    model = QuadraticLoss(R=1.0, data_radius=1.0, d=d)
    half = model.sample_data(np.random.default_rng(17), n // 2)
    sym = np.concatenate([half, -half], axis=0)
    cfg = SGLDConfig(eta=eta, beta=beta, k=n, n=n, T=T, d=d, s_sq=s_sq, seed=404)
    traces = ensemble(cfg, model, dataset=sym, n_chains=2000)

    decay = (1.0 - eta) ** 2
    v = s_sq
    for _ in range(T):
        v = decay * v + 2.0 * eta / beta
    norms = np.linalg.norm(np.stack([tr.states[-1] for tr in traces]), axis=1)
    for p in (2, 4):
        logm = (p / 2.0) * math.log(2.0) + math.lgamma((d + p) / 2.0) \
            - math.lgamma(d / 2.0)
        exact = v ** (p / 2.0) * math.exp(logm)
        emp = norms**p
        se = emp.std(ddof=1) / math.sqrt(emp.size)
        assert abs(emp.mean() - exact) <= 3.0 * se


# ------------------------------------------------------------------- log-MGF


def _loss_samples(n_samples: int, seed: int = 55):
    model = QuadraticLoss(R=1.0, data_radius=1.0, d=2)
    cfg = quad_cfg(n=20, k=20, T=60, seed=seed)
    W = run_ensemble(cfg, model, n_datasets=n_samples, n_chains=1)
    zrng = np.random.default_rng(np.random.SeedSequence([seed, 0x2]))
    Z = model.sample_data(zrng, n_samples)
    return model.eval_many(W, Z), model


def test_logmgf_zero_at_lambda_zero():
    samples, model = _loss_samples(100)
    pars = subexp_params(model.constants(), beta=4.0, d=2, s_sq=1.0)
    rep = logmgf_check(samples, pars["sigma_e_sq"], pars["nu"], [0.0])
    assert rep.logmgf == (0.0,)
    assert rep.band_lo == (0.0,) and rep.band_hi == (0.0,)
    assert rep.n_violations == 0


def test_logmgf_symmetric_grid_below_envelope():
    samples, model = _loss_samples(200)
    pars = subexp_params(model.constants(), beta=4.0, d=2, s_sq=1.0)
    grid = [-0.5, -0.1, 0.0, 0.1, 0.5]
    rep = logmgf_check(samples, pars["sigma_e_sq"], pars["nu"], grid)
    assert rep.n_violations == 0
    assert all(v <= e for v, e in zip(rep.logmgf, rep.envelope))
    assert all(lo <= hi for lo, hi in zip(rep.band_lo, rep.band_hi))


def test_logmgf_rejects_lambda_outside_half_interval():
    samples, model = _loss_samples(50)
    pars = subexp_params(model.constants(), beta=4.0, d=2, s_sq=1.0)
    cap = 1.0 / (2.0 * pars["nu"])
    for lam in (cap, -cap, cap + 1.0):
        with pytest.raises(ValueError):
            logmgf_check(samples, pars["sigma_e_sq"], pars["nu"], [lam])


def test_logmgf_centering_is_exact():
    samples, _ = _loss_samples(80)
    centered = samples - samples.mean()
    assert abs(centered.mean()) < 1e-12


def test_logmgf_reproducible_and_band_orders():
    samples, model = _loss_samples(120)
    pars = subexp_params(model.constants(), beta=4.0, d=2, s_sq=1.0)
    a = logmgf_check(samples, pars["sigma_e_sq"], pars["nu"], [0.3, -0.3])
    b = logmgf_check(samples, pars["sigma_e_sq"], pars["nu"], [0.3, -0.3])
    assert a == b


@pytest.mark.parametrize("n", [2, 7, 120])
def test_logmgf_bands_equal_per_resample_loop(n):
    # the point estimate and the bootstrap band against one resample at a
    # time, drawn as documented: BOOTSTRAP_RESAMPLES rows of n indices from
    # rng_seed's "logmgf_bootstrap" stream
    samples, model = _loss_samples(n)
    pars = subexp_params(model.constants(), beta=4.0, d=2, s_sq=1.0)
    grid = [-0.5, -0.1, 0.0, 0.3]
    rep = logmgf_check(samples, pars["sigma_e_sq"], pars["nu"], grid, rng_seed=5)
    n_boot = estimators.BOOTSTRAP_RESAMPLES

    def log_mean_exp(x):
        top = float(np.max(x))
        return top + math.log(float(np.mean(np.exp(x - top))))

    rng = np.random.default_rng(stream(5, "logmgf_bootstrap"))
    boot_idx = rng.integers(0, n, size=(n_boot, n))
    for i, lam in enumerate(grid):
        if lam == 0.0:
            assert rep.logmgf[i] == rep.band_lo[i] == rep.band_hi[i] == 0.0
            continue
        assert rep.logmgf[i] == log_mean_exp(lam * (samples - samples.mean()))
        boot = np.empty(n_boot)
        for b in range(n_boot):
            sub = samples[boot_idx[b]]
            boot[b] = log_mean_exp(lam * (sub - sub.mean()))
        lo, hi = np.percentile(boot, [2.5, 97.5])
        assert (rep.band_lo[i], rep.band_hi[i]) == (float(lo), float(hi))


def test_percentiles_equal_numpy_percentile():
    # the logmgf band's sorted-array percentiles against np.percentile's
    # partition: sizes 1 to 400, ties, and a NaN
    rng = np.random.default_rng(11)
    for trial in range(2000):
        x = rng.standard_normal(int(rng.integers(1, 400))) * 10.0 ** rng.integers(-3, 4)
        if trial % 5 == 0:
            x = np.round(x, 1)
        qs = (2.5, 97.5) if trial % 2 else tuple(rng.uniform(0.0, 100.0, size=3))
        want = np.percentile(x, qs).tolist()
        assert estimators._percentiles(x.tolist(), qs) == want
    x = [1.0, float("nan"), 0.5]
    assert all(math.isnan(v) for v in estimators._percentiles(x, (2.5, 97.5)))
    assert all(math.isnan(v) for v in np.percentile(x, [2.5, 97.5]))


def test_logmgf_input_validation():
    with pytest.raises(ValueError):
        logmgf_check(np.array([1.0]), 1.0, 1.0, [0.1])
    with pytest.raises(ValueError):
        logmgf_check(np.array([1.0, 2.0]), -1.0, 1.0, [0.1])


# ------------------------------------------------------------------------ CSV


STRIDED_STEPS = sgld._stored_steps(30_001)  # every 4th step, then T
# the four tables `run` writes: gap.csv's one row at T, logmgf.csv's rows
# at its lambdas, and the variance and stability traces' rows at the
# stored steps
ESTIMATE_TABLES = {
    "gap": ("gen_gap[same_as_f]", [60], [0.25], [0.125], 32),
    "logmgf": ("logmgf", (-0.5, 0.0, 0.5), [-0.01, 0.0, 0.02], np.array([0.1, 0.0, 0.2]),
               64),
    "variance": ("grad_variance", np.arange(5), np.linspace(1.0, 2.0, 5),
                 np.full(5, 0.5), 300),
    "stability": ("grad_stability", STRIDED_STEPS, np.linspace(0.0, 1.0, len(STRIDED_STEPS)),
                  np.zeros(len(STRIDED_STEPS)), 20),
}


def test_write_estimates_csv(tmp_path):
    path = tmp_path / "est.csv"
    write_estimates_csv(path, "gv", [3], [0.125], [0.5], 16)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "estimator,t_or_lambda,mean,stderr,n"
    cells = lines[1].split(",")
    assert cells[0] == "gv" and float(cells[2]) == 0.125 and cells[4] == "16"
    for name, t, means, stderrs, n in ESTIMATE_TABLES.values():
        write_estimates_csv(path, name, t, means, stderrs, n)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["estimator", "t_or_lambda", "mean", "stderr", "n"]
        assert rows[1:] == [[name, repr(tl), repr(m), repr(se), str(n)] for tl, m, se in
                            zip(np.asarray(t).tolist(), np.asarray(means).tolist(),
                                np.asarray(stderrs).tolist())]


@pytest.mark.parametrize("column, bad", [
    ("means", math.nan), ("means", math.inf), ("means", -math.inf),
    ("stderrs", -1e-300), ("stderrs", math.nan), ("stderrs", math.inf)])
@pytest.mark.parametrize("table", ESTIMATE_TABLES)
def test_write_estimates_csv_refuses_a_non_finite_mean_or_bad_stderr(
        tmp_path, table, column, bad):
    name, t, means, stderrs, n = ESTIMATE_TABLES[table]
    cols = {"means": np.array(means, dtype=float), "stderrs": np.array(stderrs, dtype=float)}
    cols[column][-1] = bad
    with pytest.raises(ValueError, match=f"^{re.escape(name)}: every mean must be finite"):
        write_estimates_csv(tmp_path / "est.csv", name, t, cols["means"], cols["stderrs"], n)
    assert not (tmp_path / "est.csv").exists()
