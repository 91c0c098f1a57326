"""Loss family constants, gradients, and certification."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgldlab.losses as losses
import sgldlab.sgld as sgld
from sgldlab.losses import (
    CERT_TOL,
    FD_DEGENERATE_NORM,
    FD_MINIBATCH,
    FD_POINTS,
    FD_REL_TOL,
    LogisticRidgeLoss,
    LossConstants,
    NonconvexRidgeLoss,
    QuadraticLoss,
    _fd_gradient_check,
    _weights,
    certify,
)

from reference import loss_eval, loss_grad


# ---------------------------------------------------------------- quadratic


def test_quadratic_constants_frozen():
    lc = QuadraticLoss(1.0, 1.0, 2).constants()
    assert lc.M == 1.0
    assert lc.m == 0.5
    assert lc.b == 0.5
    assert lc.A == 0.5
    assert lc.R == 1.0


def test_quadratic_minimum_at_data_point():
    model = QuadraticLoss(1.0, 1.0, 2)
    zero = np.zeros(2)
    assert loss_eval(model, zero, zero) == 0.0
    assert np.all(loss_grad(model, zero, zero) == 0.0)
    z = np.array([0.3, -0.4])
    assert loss_eval(model, z, z) == 0.0


def test_quadratic_gradient_difference_identity():
    # gradient is linear in w, so the smoothness bound is an exact equality
    model = QuadraticLoss(1.7, 1.0, 3)
    rng = np.random.default_rng(0)
    for _ in range(50):
        w, wbar = rng.standard_normal(3), rng.standard_normal(3)
        z = rng.standard_normal(3)
        lhs = np.linalg.norm(loss_grad(model, w, z) - loss_grad(model, wbar, z))
        rhs = 1.7 * np.linalg.norm(w - wbar)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_quadratic_invalid_parameters():
    with pytest.raises(ValueError):
        QuadraticLoss(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        QuadraticLoss(1.0, -1.0, 2)
    with pytest.raises(ValueError):
        QuadraticLoss(1.0, 1.0, 0)


# ------------------------------------------------------------ logistic ridge


def test_logistic_constants_frozen():
    lc = LogisticRidgeLoss(1.0, 1.0, 3).constants()
    assert lc.m == 0.5
    assert lc.b == 0.5
    assert lc.M == 1.25
    assert lc.A == pytest.approx(math.log(2.0))
    assert lc.R == 1.0


def test_logistic_value_at_origin():
    model = LogisticRidgeLoss(1.0, 1.0, 3)
    z = np.array([0.5, -0.2, 0.1, 1.0])  # last slot is the label
    val = loss_eval(model, np.zeros(3), z)
    assert val == pytest.approx(math.log(2.0))
    assert val <= model.constants().A + 1e-15


def test_logistic_gradient_matches_finite_differences():
    model = LogisticRidgeLoss(1.0, 1.0, 4)
    rng = np.random.default_rng(7)
    Z = model.sample_data(rng, 100)
    for i in range(100):
        w = rng.uniform(-3, 3, size=4)
        z = Z[i]
        g = loss_grad(model, w, z)
        h = 1e-5 * (1.0 + np.linalg.norm(w))
        fd = np.empty(4)
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            fd[j] = (loss_eval(model, w + e, z) - loss_eval(model, w - e, z)) / (2 * h)
        assert np.linalg.norm(fd - g) < 1e-5 * max(np.linalg.norm(g), 1e-6), (
            f"finite differences disagree at sample {i}"
        )


def test_logistic_scalar_grad_survives_huge_margins():
    # exp(margin) overflows past margin ~709; the scalar path must still
    # agree with the vectorized one there
    model = LogisticRidgeLoss(1.0, 1.0, 1)
    for margin in (-800.0, -720.0, 705.0, 720.0, 800.0):
        w = np.array([margin])
        z = np.array([1.0, 1.0])
        np.testing.assert_allclose(loss_grad(model, w, z),
                                   model.grad_minibatch(w[None], z[None, None])[0],
                                   rtol=1e-15)
    # below the overflow the old expression is kept, bit for bit; w[1] = 0
    # leaves grad[1] = -sigmoid(-margin) unmasked by the ridge term, and at
    # 706.2294853020038 exp(-margin) differs from it in the last bit
    model = LogisticRidgeLoss(1.0, 1.0, 2)
    z = np.array([1.0, 1.0, 1.0])
    for margin in (-650.0, 0.5, 706.2294853020038, 709.5, 709.78):
        w = np.array([margin, 0.0])
        old = -1.0 * (1.0 / (1.0 + math.exp(margin))) * z[:-1] + 1.0 * w
        assert np.array_equal(loss_grad(model, w, z).view(np.uint64), old.view(np.uint64))


def test_certify_small_lambda_logistic_returns_a_report():
    # the certify cube reaches margins far past 709 when lambda is small
    report = certify(LogisticRidgeLoss(0.01, 1.0, 10), n_samples=2000)
    assert len(report.checks) == 6


def test_expit_within_one_eps_of_longdouble_reference():
    # the logistic weight y sigma(-y m) of margin m and label y, as
    # 0.5 (y - tanh(m / 2)), is accurate in absolute terms only: y - tanh
    # cancels where the weight is near 0, so no relative (ulp) bound holds there
    edges = np.array([np.inf, -np.inf, 0.0, -0.0, 800.0, -800.0])
    for y, sig in ((1.0, [0.0, 1.0, 0.5, 0.5, 0.0, 1.0]),
                   (-1.0, [1.0, 0.0, 0.5, 0.5, 1.0, 0.0])):
        got = _weights(edges.copy(), np.full(edges.shape, y))
        assert np.array_equal(got, y * np.array(sig)), y

    rng = np.random.default_rng(17)
    m = np.concatenate([rng.standard_normal(200_000) * 40.0,
                        rng.uniform(-1.0, 1.0, 100_000),
                        np.linspace(-750.0, 750.0, 30_001)])
    Y = rng.integers(0, 2, size=m.shape) * 2.0 - 1.0
    t = -(Y * m).astype(np.longdouble)
    e = np.exp(-np.abs(t))
    ref = Y * (np.where(t >= 0, 1.0, e) / (1.0 + e))
    err = np.abs(_weights(m.copy(), Y).astype(np.longdouble) - ref)
    assert float(err.max()) <= np.finfo(float).eps

    # the bits of the sigmoid form it replaces, subnormal margins included
    tiny = np.finfo(float).smallest_subnormal
    sub = np.array([tiny, 7 * tiny, 2.0**-1040, 2.0**-1023 - tiny])
    m_all = np.concatenate([m, edges, sub, -sub])
    Y_all = rng.integers(0, 2, size=m_all.shape) * 2.0 - 1.0
    old = Y_all * 0.5 * (1.0 + np.tanh(-Y_all * m_all / 2.0))
    assert np.array_equal(_weights(m_all.copy(), Y_all), old)

    grid = np.linspace(-60.0, 60.0, 1_200_001)
    for y in (1.0, -1.0):
        w = _weights(grid.copy(), np.full(grid.shape, y))
        assert np.all((y * w >= 0.0) & (y * w <= 1.0))
        assert np.all(np.diff(w) <= 0.0)
    # in place: the margins' buffer carries the weights
    buf = m.copy()
    assert _weights(buf, Y) is buf


def test_logistic_invalid_lambda():
    with pytest.raises(ValueError):
        LogisticRidgeLoss(0.0, 1.0, 2)


def test_logistic_labels_are_plus_minus_one():
    model = LogisticRidgeLoss(1.0, 1.0, 3)
    Z = model.sample_data(np.random.default_rng(3), 500)
    assert set(np.unique(Z[:, -1])) <= {-1.0, 1.0}
    assert np.all(np.linalg.norm(Z[:, :-1], axis=1) <= 1.0 + 1e-12)


# ---------------------------------------------------------- nonconvex ridge


def test_nonconvex_constants_frozen():
    lc = NonconvexRidgeLoss(1.0, 0.5, 1.0, 3).constants()
    assert lc.M == 1.5
    assert lc.m == 0.5
    assert lc.b == 0.125
    assert lc.A == 0.5
    assert lc.R is None


def test_nonconvex_amplitude_zero_reduces_to_ridge():
    lc = NonconvexRidgeLoss(2.0, 0.0, 1.0, 3).constants()
    assert lc.m == 1.0
    assert lc.b == 0.0


def test_nonconvex_origin_value():
    model = NonconvexRidgeLoss(1.0, 0.5, 1.0, 3)
    Z = model.sample_data(np.random.default_rng(0), 20)
    for z in Z:
        assert loss_eval(model, np.zeros(3), z) == pytest.approx(0.5)


def test_nonconvex_invalid_parameters():
    with pytest.raises(ValueError):
        NonconvexRidgeLoss(-1.0, 0.5, 1.0, 2)
    with pytest.raises(ValueError):
        NonconvexRidgeLoss(1.0, -0.5, 1.0, 2)


# ------------------------------------------------- vectorized consistency


@pytest.mark.parametrize(
    "factory",
    [
        lambda: QuadraticLoss(1.3, 1.0, 3),
        lambda: LogisticRidgeLoss(0.7, 1.5, 3),
        lambda: NonconvexRidgeLoss(1.1, 0.4, 1.2, 3),
    ],
)
def test_vectorized_paths_match_scalar(factory):
    model = factory()
    rng = np.random.default_rng(11)
    W = rng.uniform(-2, 2, size=(8, model.d))
    Z = model.sample_data(rng, 8)
    ev = model.eval_many(W, Z)
    gv = model.grad_minibatch(W, Z[:, None])
    for i in range(8):
        assert ev[i] == pytest.approx(loss_eval(model, W[i], Z[i]), rel=1e-12, abs=1e-14)
        np.testing.assert_allclose(gv[i], loss_grad(model, W[i], Z[i]), rtol=1e-12, atol=1e-14)

    # minibatch mean gradient against an explicit loop
    Zb = model.sample_data(rng, 24).reshape(8, 3, -1)
    got = model.grad_minibatch(W, Zb)
    want = np.stack(
        [np.mean([loss_grad(model, W[i], Zb[i, j]) for j in range(3)], axis=0) for i in range(8)]
    )
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("d", [1, 4])
@pytest.mark.parametrize(
    "factory",
    [QuadraticLoss, LogisticRidgeLoss,
     lambda R, r, d: NonconvexRidgeLoss(R, 0.4, r, d)],
    ids=["quadratic", "logistic", "nonconvex"],
)
def test_full_batch_grad_bitwise_equals_grad_minibatch(factory, d):
    # on the inputs the chain engine and the stability trace build
    model = factory(1.3, 1.2, d)
    rng = np.random.default_rng(5)
    c, n = 6, 300
    W = rng.uniform(-2, 2, size=(c, d))

    shared = np.broadcast_to(model.sample_data(rng, n), (c, n, model.z_dim))
    assert np.array_equal(model.full_batch_grad(shared)(W),
                          model.grad_minibatch(W, shared))

    stacked = np.stack([model.sample_data(rng, n) for _ in range(c)])
    full = model.full_batch_grad(stacked)
    for _ in range(2):  # the function is reused step after step
        W = rng.uniform(-2, 2, size=(c, d))
        assert np.array_equal(full(W), model.grad_minibatch(W, stacked))


# ------------------------------------------------------------- certification


def test_certify_quadratic_clean():
    report = certify(QuadraticLoss(1.0, 1.0, 2), n_samples=10_000, rng_seed=0)
    assert report.passed
    for check in report.checks:
        assert check.n_violations == 0, f"{check.inequality_name} violated"


@pytest.mark.parametrize(
    "factory",
    [
        lambda: LogisticRidgeLoss(1.0, 1.0, 3),
        lambda: NonconvexRidgeLoss(1.0, 0.5, 1.0, 3),
    ],
)
def test_certify_other_families_clean(factory):
    report = certify(factory(), n_samples=10_000, rng_seed=1)
    assert report.passed


def test_certify_understated_smoothness_fails_with_witness():
    bad = QuadraticLoss(1.0, 1.0, 2).with_constants(M=0.5, R=None)
    report = certify(bad, n_samples=2_000, rng_seed=0)
    assert not report.passed
    smooth = next(c for c in report.checks if c.inequality_name == "smoothness")
    assert smooth.n_violations > 0
    assert smooth.worst_margin < -CERT_TOL
    # witness carries the offending sample
    assert {"w", "w_bar", "z", "margin"} <= set(smooth.witness)
    w = np.array(smooth.witness["w"])
    wbar = np.array(smooth.witness["w_bar"])
    z = np.array(smooth.witness["z"])
    model = QuadraticLoss(1.0, 1.0, 2)
    lhs = np.linalg.norm(loss_grad(model, w, z) - loss_grad(model, wbar, z))
    assert lhs > 0.5 * np.linalg.norm(w - wbar)  # violates the claimed M


@pytest.mark.parametrize(
    "factory",
    [
        lambda: QuadraticLoss(1.0, 1.0, 2),
        lambda: LogisticRidgeLoss(1.0, 1.0, 3),
        lambda: NonconvexRidgeLoss(1.0, 0.5, 1.0, 3),
    ],
    ids=["quadratic", "logistic", "nonconvex"],
)
def test_certify_checks_the_kernel_the_chains_run(factory, monkeypatch):
    # a wrong grad_minibatch must fail certify
    model = factory()
    assert certify(model, n_samples=2_000, rng_seed=0).passed
    cls = type(model)
    kernel = cls.grad_minibatch
    monkeypatch.setattr(cls, "grad_minibatch", lambda self, W, Zb: 3.0 * kernel(self, W, Zb))
    report = certify(model, n_samples=2_000, rng_seed=0)
    assert any(c.n_violations > 0 for c in report.checks)


@pytest.mark.parametrize("mutation", ["data-sign-flipped", "sum-not-mean"])
@pytest.mark.parametrize(
    "factory",
    [
        lambda: QuadraticLoss(1.0, 1.0, 2),
        lambda: LogisticRidgeLoss(1.0, 1.0, 3),
        lambda: NonconvexRidgeLoss(1.0, 0.5, 1.0, 3),
    ],
    ids=["quadratic", "logistic", "nonconvex"],
)
def test_certify_fails_a_kernel_with_a_wrong_data_term(factory, mutation, monkeypatch):
    # every sampled check runs one point per row, where a flipped data term
    # still meets the claimed inequalities and a sum equals the mean; the
    # finite-difference check's 3-point minibatches catch both
    model = factory()
    cls = type(model)
    kernel = cls.grad_minibatch

    def mutated(self, W, Zb):
        # at all-zero points every family's data term vanishes
        rest = kernel(self, W, np.zeros_like(Zb[:, :1]))
        data = kernel(self, W, Zb) - rest
        return rest + (-data if mutation == "data-sign-flipped" else Zb.shape[1] * data)

    monkeypatch.setattr(cls, "grad_minibatch", mutated)
    report = certify(model, n_samples=2_000, rng_seed=7)
    assert not report.passed
    fd = next(c for c in report.checks if c.inequality_name == "gradient_fd")
    assert fd.n_violations > 90


@pytest.mark.parametrize(
    "model",
    [QuadraticLoss(1.0, 1.0, 4), LogisticRidgeLoss(1.0, 1.0, 5),
     NonconvexRidgeLoss(1.0, 0.5, 1.0, 20)],
    ids=["quadratic", "logistic", "nonconvex"],
)
def test_certify_sampled_checks_match_a_blockwise_computation(model):
    # the five sampled checks over all rows at once give the bits of 4096-row
    # blocks, each drawn from its own child seed and checked on its own
    n_samples, chunk, seed = 2 * 4096 + 37, 4096, 7
    lc = model.constants()
    half_width = 10.0 * max(1.0, math.sqrt(lc.b / lc.m))
    root_M_bm = lc.M * math.sqrt(lc.b / lc.m)
    names = ("smoothness", "dissipativity", "origin_gradient",
             "envelope_lower", "envelope_upper")
    margins = {name: [] for name in names}
    W_all, Wbar_all, Z_all = [], [], []
    seq = np.random.SeedSequence(seed)
    for child in seq.spawn(3):
        rng = np.random.default_rng(child)
        take = min(chunk, n_samples - sum(len(w) for w in W_all))
        W = rng.uniform(-half_width, half_width, size=(take, model.d))
        Wbar = rng.uniform(-half_width, half_width, size=(take, model.d))
        Z = model.sample_data(rng, take)
        G = model.grad_minibatch(W, Z[:, None])
        Gbar = model.grad_minibatch(Wbar, Z[:, None])
        G0 = model.grad_minibatch(np.zeros((take, model.d)), Z[:, None])
        f_vals = model.eval_many(W, Z)
        w_norm = np.linalg.norm(W, axis=1)
        margins["smoothness"].append(lc.M * np.linalg.norm(W - Wbar, axis=1)
                                     - np.linalg.norm(G - Gbar, axis=1))
        margins["dissipativity"].append(np.einsum("ij,ij->i", G, W)
                                        - (lc.m * w_norm**2 - lc.b))
        margins["origin_gradient"].append(root_M_bm - np.linalg.norm(G0, axis=1))
        margins["envelope_lower"].append(
            f_vals - (lc.m / 3.0 * w_norm**2 - lc.b / 2.0 * math.log(3.0)))
        margins["envelope_upper"].append(
            lc.M / 2.0 * w_norm**2 + root_M_bm * w_norm + lc.A - f_vals)
        W_all.append(W)
        Wbar_all.append(Wbar)
        Z_all.append(Z)
    W, Wbar, Z = (np.concatenate(a) for a in (W_all, Wbar_all, Z_all))
    assert len(W) == n_samples

    report = certify(model, n_samples=n_samples, rng_seed=seed)
    for check, name in zip(report.checks[:5], names, strict=True):
        m = np.concatenate(margins[name])
        worst = int(np.argmin(m))
        assert check.inequality_name == name
        assert check.n_samples == n_samples
        assert check.n_violations == int(np.sum(m < -CERT_TOL)) == 0
        assert check.worst_margin == m[worst]
        assert check.witness["margin"] == m[worst]
        assert check.witness["z"] == Z[worst].tolist()
        if name != "origin_gradient":
            assert check.witness["w"] == W[worst].tolist()
        if name == "smoothness":
            assert check.witness["w_bar"] == Wbar[worst].tolist()
    assert [c.inequality_name for c in report.checks[5:]] == ["gradient_fd"]


def _fd_margins_unblocked(model, seed_seq, half_width):
    """The gradient_fd margins with every coordinate in one eval_many call."""
    k, d, n_points = FD_MINIBATCH, model.d, FD_POINTS
    rng = np.random.default_rng(seed_seq)
    W = rng.uniform(-half_width, half_width, size=(n_points, d))
    Zb = model.sample_data(rng, n_points * k).reshape(n_points, k, model.z_dim)
    g = model.grad_minibatch(W, Zb)
    h = 1e-5 * (1.0 + np.linalg.norm(W, axis=1))
    step = h[:, None, None] * np.eye(d)

    def mean_loss(states):
        rows = np.repeat(states[:, :, None], k, axis=2).reshape(-1, d)
        pts = np.repeat(Zb[:, None], d, axis=1).reshape(-1, model.z_dim)
        return model.eval_many(rows, pts).reshape(n_points, d, k).mean(axis=2)

    fd = (mean_loss(W[:, None] + step) - mean_loss(W[:, None] - step)) / (2.0 * h[:, None])
    g_norm = np.linalg.norm(g, axis=1)
    rel_err = np.divide(np.linalg.norm(fd - g, axis=1), g_norm,
                        out=np.zeros(n_points), where=g_norm >= FD_DEGENERATE_NORM)
    return FD_REL_TOL - rel_err


@pytest.mark.parametrize(
    "factory",
    [QuadraticLoss, LogisticRidgeLoss,
     lambda R, r, d: NonconvexRidgeLoss(R, 0.4, r, d)],
    ids=["quadratic", "logistic", "nonconvex"],
)
@pytest.mark.parametrize("coords_per_block", [None, 1, 3])
def test_fd_gradient_check_blocks_give_the_unblocked_margins(monkeypatch, factory,
                                                            coords_per_block):
    model = factory(1.3, 1.2, 4)
    if coords_per_block is not None:
        # blocks of 1, or of 3 then 1, of the d = 4 coordinates
        monkeypatch.setattr(sgld, "BLOCK_WORDS",
                            coords_per_block * 100 * FD_MINIBATCH * model.z_dim)
    seen = []
    check_from_margins = losses._check_from_margins

    def recording(name, margins, witnesses, tol):
        seen.append(margins.copy())
        return check_from_margins(name, margins, witnesses, tol)

    monkeypatch.setattr(losses, "_check_from_margins", recording)
    _fd_gradient_check(model, np.random.SeedSequence(9), 7.0)
    want = _fd_margins_unblocked(model, np.random.SeedSequence(9), 7.0)
    assert np.array_equal(seen[0], want)


def test_fd_gradient_check_memory_does_not_grow_with_d():
    # unblocked, the (100 d 3, d) shifted states alone were 96 MB at d = 200
    model = NonconvexRidgeLoss(1.0, 0.5, 1.0, 200)
    tracemalloc.start()
    try:
        check = _fd_gradient_check(model, np.random.SeedSequence(3), 10.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert check.n_samples == 100 and check.n_violations == 0
    assert peak < 4 * 8 * sgld.BLOCK_WORDS


def test_certify_envelope_lower_at_origin():
    model = QuadraticLoss(1.0, 1.0, 2)
    lc = model.constants()
    Z = model.sample_data(np.random.default_rng(5), 200)
    lower = -lc.b / 2 * math.log(3.0)
    for z in Z:
        assert loss_eval(model, np.zeros(2), z) >= lower - 1e-9


def test_certify_report_json_schema():
    report = certify(QuadraticLoss(1.0, 1.0, 2), n_samples=500, rng_seed=0)
    d = report.to_dict()
    assert {"model_name", "constants", "passed", "checks", "seed", "tol"} <= set(d)
    for check in d["checks"]:
        assert {"inequality_name", "n_samples", "n_violations", "worst_margin", "witness"} <= set(
            check
        )


def test_certify_deterministic_in_seed():
    a = certify(NonconvexRidgeLoss(1.0, 0.5, 1.0, 2), n_samples=1000, rng_seed=9)
    b = certify(NonconvexRidgeLoss(1.0, 0.5, 1.0, 2), n_samples=1000, rng_seed=9)
    assert a.to_dict() == b.to_dict()


# -------------------------------------------------------- property checks


@given(
    R=st.floats(0.1, 5.0),
    radius=st.floats(0.1, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_quadratic_assumptions_hold_at_random_points(R, radius, seed):
    model = QuadraticLoss(R, radius, 2)
    lc = model.constants()
    rng = np.random.default_rng(seed)
    W = rng.uniform(-20, 20, size=(32, 2))
    Z = model.sample_data(rng, 32)
    G = model.grad_minibatch(W, Z[:, None])
    inner = np.einsum("ij,ij->i", G, W)
    norms = np.linalg.norm(W, axis=1)
    assert np.all(inner >= lc.m * norms**2 - lc.b - 1e-9), "dissipativity failed"
    f_vals = model.eval_many(W, Z)
    lower = lc.m / 3 * norms**2 - lc.b / 2 * math.log(3)
    upper = lc.M / 2 * norms**2 + lc.M * math.sqrt(lc.b / lc.m) * norms + lc.A
    assert np.all(f_vals >= lower - 1e-9), "lower envelope failed"
    assert np.all(f_vals <= upper + 1e-9), "upper envelope failed"


@given(
    lam=st.floats(0.2, 3.0),
    a=st.floats(0.0, 2.0),
    radius=st.floats(0.2, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=25, deadline=None)
def test_nonconvex_assumptions_hold_at_random_points(lam, a, radius, seed):
    model = NonconvexRidgeLoss(lam, a, radius, 3)
    lc = model.constants()
    rng = np.random.default_rng(seed)
    W = rng.uniform(-15, 15, size=(32, 3))
    Wbar = rng.uniform(-15, 15, size=(32, 3))
    Z = model.sample_data(rng, 32)
    G = model.grad_minibatch(W, Z[:, None])
    Gbar = model.grad_minibatch(Wbar, Z[:, None])
    lhs = np.linalg.norm(G - Gbar, axis=1)
    rhs = lc.M * np.linalg.norm(W - Wbar, axis=1)
    assert np.all(lhs <= rhs + 1e-9), "smoothness failed"
    inner = np.einsum("ij,ij->i", G, W)
    norms = np.linalg.norm(W, axis=1)
    assert np.all(inner >= lc.m * norms**2 - lc.b - 1e-9), "dissipativity failed"


def test_constants_validation():
    with pytest.raises(ValueError):
        LossConstants(M=-1.0, m=0.5, b=0.5, A=0.5, data_radius=1.0)
    with pytest.raises(ValueError):
        LossConstants(M=1.0, m=0.5, b=0.5, A=0.5, data_radius=1.0, R=2.0)
    with pytest.raises(ValueError):
        LossConstants(M=1.0, m=0.5, b=-0.1, A=0.5, data_radius=1.0)


def test_origin_grad_bound_frozen_value():
    # B = M sqrt(b/m) = 2 sqrt(4) = 4, and 0 without a dissipativity offset
    assert LossConstants(M=2.0, m=0.5, b=2.0, A=0.0, data_radius=1.0).origin_grad_bound == 4.0
    assert LossConstants(M=2.0, m=0.5, b=0.0, A=0.0, data_radius=1.0).origin_grad_bound == 0.0


# ----------------------------------------- gradient paths at extreme inputs

FAMILY_FACTORIES = {
    "quadratic": lambda p, d: QuadraticLoss(p, 1.5, d),
    "logistic": lambda p, d: LogisticRidgeLoss(p, 1.5, d),
    "nonconvex": lambda p, d: NonconvexRidgeLoss(p, 0.5, 1.5, d),
}


@given(
    family=st.sampled_from(sorted(FAMILY_FACTORIES)),
    param=st.sampled_from([0.01, 1.0, 5.0]),
    d=st.integers(1, 6),
    margin=st.sampled_from([None, 709.78, -709.78, 709.79, -709.79, 800.0, -800.0]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_gradient_paths_agree_and_stay_finite(family, param, d, margin, seed):
    # the scalar, one-point (k = 1) minibatch, minibatch and full-batch
    # paths of one family at states from the certify cube, and for
    # logistic at states whose margin y <w, x> with one data point is the
    # given extreme
    model = FAMILY_FACTORIES[family](param, d)
    lc = model.constants()
    half_width = 10.0 * max(1.0, math.sqrt(lc.b / lc.m))  # certify's cube
    rng = np.random.default_rng(seed)
    c, n = 3, 8
    datasets = np.stack([model.sample_data(rng, n) for _ in range(c)])
    W = rng.uniform(-half_width, half_width, size=(c, d))
    if margin is not None and family == "logistic":
        for i in range(c):
            x, y = datasets[i, i, :-1], datasets[i, i, -1]
            if x @ x > 0:
                W[i] = margin * y * x / (x @ x)

    # scalar against one point per row, and the minibatch mean against both
    flatW = np.repeat(W, n, axis=0)
    flatZ = datasets.reshape(c * n, -1)
    rows = model.grad_minibatch(flatW, flatZ[:, None])
    scalar = np.stack([loss_grad(model, w, z) for w, z in zip(flatW, flatZ)])
    atol = 1e-12 * (1.0 + np.abs(W).max())
    np.testing.assert_allclose(rows, scalar, rtol=1e-9, atol=atol)
    mini = model.grad_minibatch(W, datasets)
    np.testing.assert_allclose(mini, rows.reshape(c, n, d).mean(axis=1), rtol=1e-9,
                               atol=atol)

    # full batch, bit for bit
    full = model.full_batch_grad(datasets)
    assert np.array_equal(full(W), mini)

    for arr in (rows, scalar, mini):
        assert np.all(np.isfinite(arr))
