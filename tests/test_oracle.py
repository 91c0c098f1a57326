"""Tests for the exact Gaussian law and its KL machinery."""

import math
import tracemalloc

import numpy as np
import pytest

import sgldlab.oracle as oracle
import sgldlab.sgld as sgld
from sgldlab.config import parse
from sgldlab.constants import kl_recursion_constants
from sgldlab.losses import NonconvexRidgeLoss, QuadraticLoss
from sgldlab.oracle import (
    KLRecursionReport,
    OracleTrace,
    _response_and_var,
    oracle_mi_from_gaps,
    oracle_pair_gaps,
    oracle_trace,
    verify_kl_recursion,
)
from sgldlab.sgld import SGLDConfig, _stored_steps, stream

from reference import empirical_gen_gap, ensemble, oracle_mi_upper


def full_batch_cfg(**kw):
    base = dict(eta=0.05, beta=4.0, k=20, n=20, T=400, d=2, s_sq=1.0, seed=808)
    base.update(kw)
    return SGLDConfig(**base)


# ------------------------------------------------------- one step of the law


def test_ou_step_fixed_point_mean():
    # the mean a_t zbar nears its fixed point zbar as 1 - a_t = (1 - eta R)^t
    a, _ = _response_and_var(eta=0.05, beta=4.0, R=1.0, s_sq=1.0, T=200)
    np.testing.assert_allclose(1.0 - a, 0.95 ** np.arange(201), rtol=0, atol=1e-14)


def test_ou_step_noise_floor_from_zero_var():
    _, v = _response_and_var(eta=0.05, beta=4.0, R=1.0, s_sq=0.0, T=1)
    assert v[1] == 2.0 * 0.05 / 4.0


def test_ou_step_stationary_variance_algebra():
    eta, beta, R = 0.05, 4.0, 1.0
    v_geo = (2.0 * eta / beta) / (1.0 - (1.0 - eta * R) ** 2)
    v_closed = 1.0 / (beta * R * (1.0 - eta * R / 2.0))
    assert v_geo == pytest.approx(v_closed, rel=1e-14)
    _, v = _response_and_var(eta, beta, R, s_sq=v_geo, T=3)
    np.testing.assert_allclose(v, v_geo, rtol=1e-14)
    # small-step limit recovers the equilibrium variance 1/(beta R)
    assert 1.0 / (beta * R * (1.0 - 1e-9 * R / 2.0)) == pytest.approx(
        1.0 / (beta * R), rel=1e-8
    )


def test_kl_identical_states_zero():
    model = QuadraticLoss(R=1.0, data_radius=1.0, d=2)
    S = model.sample_data(np.random.default_rng(2), 20)
    assert np.all(oracle_trace(S, S, full_batch_cfg(), R=1.0).kl == 0.0)


def test_kl_frozen_unit_mean_shift():
    # one step from N(0, 1/2) with eta R = 1/2 and 2 eta / beta = 1/8 leaves
    # means 0 and 1/2 at variance 1/4: a one-sd shift, KL 1/2
    cfg = full_batch_cfg(eta=0.5, beta=8.0, n=4, k=4, T=1, d=1, s_sq=0.5)
    tr = oracle_trace(np.zeros((4, 1)), np.ones((4, 1)), cfg, R=1.0)
    assert tr.var[1] == 0.25
    assert tr.kl[1] == pytest.approx(0.5, rel=1e-14)


# -------------------------------------------------------------- oracle trace


def test_oracle_trace_requires_full_batch():
    model = QuadraticLoss(R=1.0, data_radius=1.0, d=2)
    ds = model.sample_data(np.random.default_rng(0), 20)
    cfg = full_batch_cfg(k=10)
    with pytest.raises(ValueError):
        oracle_trace(ds, ds, cfg, R=1.0)


def test_oracle_trace_equals_the_per_step_gaussian_recursion():
    # each law N(m_t, v_t I) stepped one update at a time, m' = (1 - eta R) m
    # + eta R zbar and v' = (1 - eta R)^2 v + 2 eta / beta, with the KL of
    # two isotropic Gaussians in full; both start from N(0, s^2 I)
    R, d = 1.3, 3
    model = QuadraticLoss(R=R, data_radius=1.0, d=d)
    rng = np.random.default_rng(5)
    S, S_alt = model.sample_data(rng, 20), model.sample_data(rng, 20)
    cfg = full_batch_cfg(d=d, T=300, s_sq=0.7)
    tr = oracle_trace(S, S_alt, cfg, R=R)
    assert tr.response.shape == (cfg.T + 1,)
    decay = 1.0 - cfg.eta * R
    m, m_alt, v, a = np.zeros(d), np.zeros(d), cfg.s_sq, 0.0
    for t in range(cfg.T + 1):
        kl = 0.5 * d * (v / v - 1.0 - math.log(v / v)) + float(
            (m - m_alt) @ (m - m_alt)) / (2.0 * v)
        assert tr.var[t] == v
        assert tr.response[t] == a  # the mean from 0 is a_t zbar
        assert tr.mean_norm[t] == pytest.approx(np.linalg.norm(m), rel=1e-12, abs=0)
        assert tr.kl[t] == pytest.approx(kl, rel=1e-12, abs=0)
        m = decay * m + cfg.eta * R * S.mean(axis=0)
        m_alt = decay * m_alt + cfg.eta * R * S_alt.mean(axis=0)
        v = decay**2 * v + 2.0 * cfg.eta / cfg.beta
        a = decay * a + cfg.eta * R
    assert tr.kl[-1] > 0.0


def test_oracle_trace_kl_plateau_matches_stationary_formula():
    model = QuadraticLoss(R=1.0, data_radius=1.0, d=2)
    rng = np.random.default_rng(42)
    S = model.sample_data(rng, 20)
    S_alt = model.sample_data(rng, 20)
    cfg = full_batch_cfg(T=1000)
    tr = oracle_trace(S, S_alt, cfg, R=1.0)
    assert tr.kl[0] == 0.0
    gap_sq = float(np.sum((S.mean(axis=0) - S_alt.mean(axis=0)) ** 2))
    sigma_inf_sq = 1.0 / (cfg.beta * 1.0 * (1.0 - cfg.eta * 1.0 / 2.0))
    plateau = gap_sq / (2.0 * sigma_inf_sq)
    assert tr.kl[-1] == pytest.approx(plateau, rel=1e-10)
    # increments die out: the trace is uniformly bounded and converges
    diffs = np.abs(np.diff(tr.kl))
    assert diffs[-1] < 1e-12 * max(1.0, tr.kl[-1])
    assert tr.kl.max() <= plateau * (1.0 + 1e-9)


def test_oracle_matches_ensemble_moments():
    # exact mean/variance recursions against a 1000-chain ensemble at
    # several stored steps, full-batch quadratic on one fixed dataset
    model = QuadraticLoss(R=1.0, data_radius=1.0, d=2)
    ds = model.sample_data(np.random.default_rng(9), 20)
    cfg = full_batch_cfg(T=500, seed=515)
    traces = ensemble(cfg, model, dataset=ds, n_chains=1000)
    a, v = _response_and_var(cfg.eta, cfg.beta, 1.0, cfg.s_sq, cfg.T)
    zbar = ds.mean(axis=0)
    states = np.stack([tr.states for tr in traces])  # (chains, steps, d)
    stored = _stored_steps(cfg.T)
    for row in (0, 10, 100, 500):
        t = int(stored[row])
        X = states[:, row, :]
        mean_se = math.sqrt(v[t] / X.shape[0]) if v[t] > 0 else 0.0
        np.testing.assert_allclose(
            X.mean(axis=0), a[t] * zbar, atol=max(3.0 * mean_se, 1e-12)
        )
        if t > 0:
            var_emp = X.var(axis=0, ddof=1)
            var_se = v[t] * math.sqrt(2.0 / (X.shape[0] - 1))
            np.testing.assert_allclose(var_emp, v[t], atol=3.0 * var_se)


# ------------------------------------------------------- the MI upper bound


def test_mi_identical_control_is_exact_zero():
    # `verify`'s control: pairs with S' = S have squared mean gaps of exactly
    # zero, and the MI the oracle gives such gaps is exactly zero
    model = QuadraticLoss(R=1.0, data_radius=1.0, d=2)
    cfg = full_batch_cfg(T=100)
    a, v = _response_and_var(cfg.eta, cfg.beta, 1.0, cfg.s_sq, cfg.T)
    assert per_pair_mi_loop(model.sample_data, cfg, 1.0, 12, control_identical=True)[0] == 0.0
    assert oracle_mi_from_gaps(np.zeros(12), a[-1], v[-1]) == 0.0


def per_pair_kls(pair_gaps, config, R):
    # each pair's KL at T in one expression, from its squared mean gap
    a, v = _response_and_var(config.eta, config.beta, R, config.s_sq, config.T)
    aT, vT = float(a[-1]), float(v[-1])
    return np.array([aT**2 * gap / (2.0 * vT) for gap in pair_gaps])


def per_pair_mi_loop(mu_sampler, config, R, n_pairs, control_identical=False):
    # the bound as one loop over pairs, with the standard error of its
    # pair Monte Carlo
    gaps = np.empty(n_pairs)
    for i, seq in enumerate(np.random.SeedSequence(config.seed).spawn(n_pairs)):
        s_seq, s_alt_seq = seq.spawn(2)
        S = np.asarray(mu_sampler(np.random.default_rng(s_seq), config.n), dtype=float)
        S_alt = S if control_identical else np.asarray(
            mu_sampler(np.random.default_rng(s_alt_seq), config.n), dtype=float)
        diff = S.mean(axis=0) - S_alt.mean(axis=0)
        gaps[i] = float(diff @ diff)
    kls = per_pair_kls(gaps, config, R)
    sd = float(kls.std(ddof=1)) if n_pairs > 1 else 0.0
    return float(kls.mean()), sd / math.sqrt(n_pairs)


def mi_and_stderr(model, config, n_pairs):
    # the oracle's bound, and the standard error the per-pair loop gives it
    return (oracle_mi_upper(model, config, n_dataset_pairs=n_pairs),
            per_pair_mi_loop(model.sample_data, config, model.R, n_pairs)[1])


@pytest.mark.parametrize("n_pairs", [1, 2, 37, 200])
@pytest.mark.parametrize("control", [False, True])
def test_mi_bitwise_equals_the_per_pair_loop(n_pairs, control):
    # the control is `verify`'s: exact-zero gaps stand for pairs with S' = S
    model = QuadraticLoss(R=1.3, data_radius=1.0, d=3)
    for cfg in (full_batch_cfg(), full_batch_cfg(n=7, k=7, T=33, eta=0.2, seed=3)):
        if control:
            a, v = _response_and_var(cfg.eta, cfg.beta, 1.3, cfg.s_sq, cfg.T)
            mi = oracle_mi_from_gaps(np.zeros(n_pairs), a[-1], v[-1])
        else:
            mi = oracle_mi_upper(model, cfg, n_dataset_pairs=n_pairs)
        assert mi == per_pair_mi_loop(model.sample_data, cfg, 1.3, n_pairs, control)[0]


def test_mi_bitwise_equals_the_per_pair_loop_past_the_pairwise_blocks():
    # numpy sums 10^5 entries in pairwise blocks of 128, and the mean keeps
    # the bits of the loop's and of the (1, m) row mean the estimators take
    # (`estimators._mean_stderr`); the draw of the pairs, pinned by the test
    # above, is replaced by seeded squared gaps, which cost no dataset draws
    cfg = full_batch_cfg(n=7, k=7, T=33, eta=0.2, seed=3)
    gaps = np.random.default_rng(5).exponential(0.1, size=10**5)
    a, v = _response_and_var(cfg.eta, cfg.beta, 1.3, cfg.s_sq, cfg.T)
    mi = oracle_mi_from_gaps(gaps, a[-1], v[-1])
    kls = per_pair_kls(gaps, cfg, 1.3)
    assert mi == float(kls.mean()) == kls.reshape(1, -1).mean(axis=1).tolist()[0]


def test_mi_from_gaps_reuses_one_draw_across_horizons():
    model = QuadraticLoss(R=1.0, data_radius=1.0, d=2)
    gaps = oracle_pair_gaps(model, 808, 20, 50)
    assert gaps.shape == (50,) and np.all(gaps > 0)
    # one response run to the longest horizon serves every shorter one
    a, v = _response_and_var(0.05, 4.0, 1.0, 1.0, 5000)
    for T in (0, 1, 400, 5000):
        cfg = full_batch_cfg(T=T)
        want = oracle_mi_upper(model, cfg, n_dataset_pairs=50)
        assert oracle_mi_from_gaps(gaps, a[T], v[T]) == want
    with pytest.raises(ValueError):
        oracle_pair_gaps(model, 808, 20, 0)


def per_pair_gaps(model, seed, n, n_pairs):
    # each pair's squared mean gap, its sequences spawned in one call
    gaps = []
    for seq in np.random.SeedSequence(seed).spawn(n_pairs):
        S, S_alt = (model.sample_data(np.random.default_rng(s), n) for s in seq.spawn(2))
        diff = S.mean(axis=0) - S_alt.mean(axis=0)
        gaps.append(float(diff @ diff))
    return np.array(gaps)


def test_pair_gaps_keep_their_bits_across_spawn_blocks(monkeypatch):
    # blocks of 3 sequences: 10 pairs spawn 3, 3, 3 and 1, the children
    # one spawn of 10 gives
    monkeypatch.setattr(sgld, "BLOCK_WORDS", 4 * oracle.SEQ_WORDS - 1)
    assert sgld._block_len(oracle.SEQ_WORDS) == 3
    model = QuadraticLoss(R=1.0, data_radius=1.0, d=2)
    assert np.array_equal(oracle_pair_gaps(model, 7, 5, 10),
                          per_pair_gaps(model, 7, 5, 10))


def test_pair_gaps_hold_one_block_of_sequences(monkeypatch):
    # blocks of 100 sequences, about 0.4 KB each: the peak grows by the
    # 8-byte gaps alone from 400 to 1,600 pairs, where all the pairs'
    # sequences at once would add about 0.5 MB
    monkeypatch.setattr(sgld, "BLOCK_WORDS", 100 * oracle.SEQ_WORDS)
    model = QuadraticLoss(R=1.0, data_radius=1.0, d=1)
    oracle_pair_gaps(model, 7, 1, 10)  # first-call allocations out of the peaks
    peaks = []
    for n_pairs in (400, 1600):
        tracemalloc.start()
        try:
            oracle_pair_gaps(model, 7, 1, n_pairs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 1200 * 50, peaks


def test_pair_gaps_hold_one_dataset_at_a_time():
    # one pair of 10^6 points in d = 4: each dataset is the 32 MB draw
    # `config._arrays` counts for bounds.n_grid. S is reduced to its mean
    # before S' is drawn, and the draw is scaled in place, so the peak is one
    # draw and its norm's temporaries, 76 MiB; S held whole beside S', each
    # scaled out of place, peaked at 137 MiB
    model = QuadraticLoss(R=1.0, data_radius=1.0, d=4)
    oracle_pair_gaps(model, 3, 10, 1)  # first-call allocations out of the peak
    tracemalloc.start()
    try:
        gaps = oracle_pair_gaps(model, 3, 10**6, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 80 * 2**20, peak
    assert np.array_equal(gaps, per_pair_gaps(model, 3, 10**6, 1))


def test_mi_requires_full_batch():
    model = QuadraticLoss(R=1.0, data_radius=1.0, d=2)
    with pytest.raises(ValueError):
        oracle_mi_upper(model, full_batch_cfg(k=5), n_dataset_pairs=4)


def test_mi_requires_the_models_R():
    # the law's recursion runs at the model's R; the nonconvex family has none
    model = NonconvexRidgeLoss(lam=1.0, a=0.5, data_radius=1.0, d=2)
    with pytest.raises(ValueError, match="curvature R"):
        oracle_mi_upper(model, full_batch_cfg(), n_dataset_pairs=4)


def test_mi_bounded_in_T():
    model = QuadraticLoss(R=1.0, data_radius=1.0, d=2)
    a, a_se = mi_and_stderr(model, full_batch_cfg(T=10_000), 300)
    b, b_se = mi_and_stderr(model, full_batch_cfg(T=100_000), 300)
    joint = math.hypot(a_se, b_se)
    assert abs(a - b) <= 3.0 * joint


def test_mi_scales_like_one_over_n():
    model = QuadraticLoss(R=1.0, data_radius=1.0, d=2)
    small, small_se = mi_and_stderr(model, full_batch_cfg(n=25, k=25), 400)
    large, large_se = mi_and_stderr(model, full_batch_cfg(n=100, k=100), 400)
    ratio = small / large
    rel_se = math.hypot(small_se / small, large_se / large)
    assert abs(ratio - 4.0) <= 3.0 * ratio * rel_se


def test_gen_gap_within_mi_bound_chain():
    # the information-theoretic chain: empirical gap of the bounded
    # surrogate loss vs sqrt(2 sigma_g^2 MI / n) with sigma_g^2 = 1/4
    model = QuadraticLoss(R=1.0, data_radius=1.0, d=2)
    cfg = full_batch_cfg(n=25, k=25, T=400, seed=99)
    mi, mi_se = mi_and_stderr(model, cfg, 400)
    (gap,), (gap_se,) = empirical_gen_gap(model, cfg, n_trials=30, eval_loss="surrogate")
    bound = math.sqrt(2.0 * 0.25 * mi / cfg.n)
    bound_se = bound * mi_se / (2.0 * mi)
    assert gap <= bound + 3.0 * math.hypot(gap_se, bound_se)


# ------------------------------------------------------- verify_kl_recursion


def test_recursion_all_zero_trace_satisfied():
    rep = verify_kl_recursion(np.zeros(50), contraction=math.exp(-0.01), per_step_add=0.0)
    assert rep.n_violations == 0
    assert rep.worst_slack == 0.0


def test_recursion_zero_violations_on_exact_oracle():
    # strongly convex constants: contraction e^{-eta R / 4}, additive term
    # eta (beta/2) sup_t E||grad gap||^2 = eta (beta/2) R^2 ||zbar gap||^2
    model = QuadraticLoss(R=1.0, data_radius=1.0, d=2)
    rng = np.random.default_rng(1234)
    S = model.sample_data(rng, 100)
    S_alt = model.sample_data(rng, 100)
    cfg = SGLDConfig(eta=0.01, beta=4.0, k=100, n=100, T=10_000, d=2,
                     s_sq=0.1, seed=0)
    tr = oracle_trace(S, S_alt, cfg, R=1.0)
    gap_sq = float(np.sum((S.mean(axis=0) - S_alt.mean(axis=0)) ** 2))
    rep = verify_kl_recursion(
        tr.kl,
        contraction=math.exp(-cfg.eta * 1.0 / 4.0),
        per_step_add=cfg.eta * (cfg.beta / 2.0) * 1.0**2 * gap_sq,
    )
    assert rep.n_violations == 0
    assert rep.worst_slack >= 0.0


@pytest.mark.parametrize("cseed", range(7, 15))
def test_library_kl_recursion_holds_on_the_exact_law(cseed):
    # the contraction exp(-eta / (4 beta c_LS)) that `bounds.kl_chain`
    # unrolls, with the exact add eta (beta/2) R^2 ||zbar_S - zbar_S'||^2,
    # holds at every step of the exact KL trace on `verify`'s dataset pair,
    # on the blocks of perfbench's quadratic-fullbatch workload that the
    # law reads (its config seeds are 7-14)
    cfg = parse({"loss": {"family": "quadratic", "R": 1.0, "d": 4},
                 "sgld": {"eta": 0.05, "beta": 4.0, "k": 100, "T": 4000, "seed": cseed},
                 "data": {"n": 100}})
    model, s = cfg.model(), cfg.sgld_config()
    R = model.constants().R
    s_seq, alt_seq = stream(s.seed, "verify_pair").spawn(2)
    S, S_alt = (model.sample_data(np.random.default_rng(seq), s.n) for seq in (s_seq, alt_seq))
    trace = oracle_trace(S, S_alt, cfg.oracle_config(), R=R)
    gap = S.mean(axis=0) - S_alt.mean(axis=0)
    contraction = kl_recursion_constants(cfg.derived(), s.eta, s.beta)["contraction"]
    rep = verify_kl_recursion(trace.kl, contraction, s.eta * (s.beta / 2.0) * R**2 * (gap @ gap))
    assert (rep.n_violations, trace.kl.shape[0]) == (0, 2001)
    assert rep.worst_slack > 0.0, rep


def test_recursion_falsification_control():
    rising = np.arange(5.0)
    rep = verify_kl_recursion(rising, contraction=1.0, per_step_add=0.0)
    assert rep.n_violations == 4
    assert rep.worst_slack == -1.0
    # a NaN slack is a violation, not a pass
    assert verify_kl_recursion([0.0, math.nan], contraction=1.0,
                               per_step_add=0.0).n_violations == 1


def test_recursion_short_trace_and_validation():
    rep = verify_kl_recursion([1.0], contraction=1.0, per_step_add=0.0)
    assert rep.n_violations == 0 and rep.worst_slack == math.inf
    with pytest.raises(ValueError):
        verify_kl_recursion([[1.0, 2.0]], contraction=1.0, per_step_add=0.0)
    with pytest.raises(ValueError):
        verify_kl_recursion([1.0, 2.0], contraction=-0.5, per_step_add=0.0)


# ------------------------------------------------------------------------ CSV


def test_oracle_trace_csv_roundtrip(tmp_path):
    model = QuadraticLoss(R=1.0, data_radius=1.0, d=2)
    rng = np.random.default_rng(3)
    S = model.sample_data(rng, 10)
    S_alt = model.sample_data(rng, 10)
    cfg = full_batch_cfg(n=10, k=10, T=5)
    tr = oracle_trace(S, S_alt, cfg, R=1.0)
    path = tmp_path / "oracle.csv"
    tr.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,mean_norm,var,kl"
    assert len(lines) == 7
    cells = lines[-1].split(",")
    assert int(cells[0]) == 5
    assert float(cells[2]) == pytest.approx(tr.var[-1], rel=0)
    assert float(cells[3]) == pytest.approx(tr.kl[-1], rel=0)


def test_oracle_trace_csv_holds_no_whole_column(tmp_path):
    # 10^5 steps: each array is 0.8 MB, and four whole lists of them would
    # be about 13 MB; the rows go out `sgld.CSV_BLOCK_ROWS` at a time, which
    # peaks near 0.2 MB whatever T is
    T = 10**5
    values = np.linspace(0.0, 1.0, T + 1)
    tr = OracleTrace(response=values, mean_norm=values, var=values, kl=values)
    tr.to_csv(tmp_path / "warm.csv")  # first-call allocations out of the peak
    tracemalloc.start()
    try:
        tr.to_csv(tmp_path / "oracle.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (T + 1) // 2, peak
    assert (tmp_path / "oracle.csv").read_bytes() == (tmp_path / "warm.csv").read_bytes()
