"""Derived-constant chains: moments, LSI, KL recursion, sub-exponential."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgldlab.constants import (
    DerivedConstants,
    admissibility_failures,
    ParametrixOverrides,
    derive_constants,
    kl_recursion_constants,
    lsi_constant,
    moment_bound_C0,
    moment_lemma_bound,
    subexp_params,
)
from sgldlab.losses import LossConstants, QuadraticLoss

from reference import minibatch_delta, sg_variance_bound

UNIT_LC = LossConstants(M=1.0, m=1.0, b=1.0, A=0.5, data_radius=1.0, R=1.0)


# -------------------------------------------------------------- second moment


def test_moment_bound_frozen_value():
    # s^2=1, m=1, b=1, M=1, eta=0.1, beta=2, d=2:
    # C0 = 1 + 2 (1 + 10*0.1 + 1) = 7
    assert moment_bound_C0(UNIT_LC, eta=0.1, beta=2.0, d=2, s_sq=1.0) == 7.0


def test_moment_lemma_bound_frozen_values():
    # m = b = 1, beta = 2, d = 2, s_sq = 1: (E||W_0||^p)^(1/p) is sqrt(2) at
    # p = 2 and (E chi_2^4)^(1/4) = 8^(1/4) at p = 4, and the lemma's second
    # term is sqrt((p + 4) / 2)
    assert moment_lemma_bound(UNIT_LC, beta=2.0, d=2, s_sq=1.0, p=2) == pytest.approx(
        math.sqrt(2.0) + math.sqrt(3.0), rel=1e-14)
    assert moment_lemma_bound(UNIT_LC, beta=2.0, d=2, s_sq=1.0, p=4) == pytest.approx(
        8.0 ** 0.25 + 2.0, rel=1e-14)


def test_moment_bound_reduces_to_initial_variance():
    lc = LossConstants(M=1.0, m=1.0, b=0.0, A=0.5, data_radius=1.0)
    c0 = moment_bound_C0(lc, eta=0.1, beta=1e12, d=1, s_sq=2.5)
    assert c0 == pytest.approx(2.5, abs=1e-10)


def test_moment_bound_monotone():
    base = moment_bound_C0(UNIT_LC, 0.1, 2.0, 2, 1.0)
    assert moment_bound_C0(UNIT_LC, 0.1, 2.0, 2, 2.0) > base  # s_sq
    assert moment_bound_C0(UNIT_LC, 0.1, 2.0, 4, 1.0) > base  # d
    bigger_b = LossConstants(M=1.0, m=1.0, b=2.0, A=0.5, data_radius=1.0)
    assert moment_bound_C0(bigger_b, 0.1, 2.0, 2, 1.0) > base  # b


def test_moment_bound_step_size_range():
    # validity cap is min(1, m/(5 M^2)) = 0.2 here
    with pytest.raises(ValueError):
        moment_bound_C0(UNIT_LC, eta=0.2, beta=2.0, d=2, s_sq=1.0)
    with pytest.raises(ValueError):
        moment_bound_C0(UNIT_LC, eta=0.0, beta=2.0, d=2, s_sq=1.0)
    moment_bound_C0(UNIT_LC, eta=0.19, beta=2.0, d=2, s_sq=1.0)  # inside


def test_step_size_cap_where_M_squared_underflows():
    # M = 1e-300: M^2 underflows to 0, and m/(5 M^2) = 1e299 is still the cap
    lc = QuadraticLoss(R=1e-300, data_radius=1.0, d=2).constants()
    assert lc.M**2 == 0.0
    moment_bound_C0(lc, eta=0.5, beta=2.0, d=2, s_sq=1.0)  # eta < 1 <= the cap
    failures = admissibility_failures(lc, eta=0.5, beta=4.0, c_LS=1.0)
    assert failures == [f"beta >= 2/m violated: beta=4.0 < {2.0 / lc.m}"]


# ------------------------------------------------------------ minibatch noise


def test_delta_frozen_values():
    assert minibatch_delta(3, 1) == 1.0
    assert minibatch_delta(100, 100) == 0.0
    assert minibatch_delta(100, 10) == pytest.approx(90 / (10 * 99))


def test_delta_errors():
    with pytest.raises(ValueError):
        minibatch_delta(1, 1)
    with pytest.raises(ValueError):
        minibatch_delta(10, 0)
    with pytest.raises(ValueError):
        minibatch_delta(10, 11)


@given(n=st.integers(2, 500), data=st.data())
@settings(max_examples=50, deadline=None)
def test_delta_range(n, data):
    k = data.draw(st.integers(1, n))
    delta = minibatch_delta(n, k)
    assert 0.0 <= delta <= 1.0
    if k < n:
        assert delta > 0.0
    else:
        assert delta == 0.0


def test_sg_variance_full_batch_is_zero():
    assert sg_variance_bound(UNIT_LC, n=50, k=50, w_norm_sq=3.0) == 0.0


def test_sg_variance_monte_carlo_never_exceeds_bound():
    # brute force: true minibatch-mean gradient variance on the quadratic
    # family stays below 8 delta M^2 (||w||^2 + k/m)
    model = QuadraticLoss(1.0, 1.0, 3)
    lc = model.constants()
    rng = np.random.default_rng(42)
    n, k = 20, 4
    Z = model.sample_data(rng, n)
    full = model.grad_minibatch(np.zeros((1, 3)), Z[None, :, :])
    for trial in range(5):
        w = rng.uniform(-3, 3, size=3)
        gfull = model.grad_minibatch(w[None], Z[None, :, :])[0]
        sq_devs = np.empty(10_000)
        for i in range(10_000):
            idx = rng.choice(n, size=k, replace=False)
            gb = model.grad_minibatch(w[None], Z[None, idx, :])[0]
            sq_devs[i] = np.sum((gfull - gb) ** 2)
        bound = sg_variance_bound(lc, n, k, float(w @ w))
        assert sq_devs.mean() <= bound, f"trial {trial}: {sq_devs.mean()} > {bound}"
    del full


# ------------------------------------------------------------------------ LSI


def test_lsi_strongly_convex_frozen():
    assert lsi_constant(UNIT_LC, beta=2.0, d=2, mode="strongly_convex") == 0.25


def test_lsi_strongly_convex_requires_R():
    lc = LossConstants(M=1.0, m=0.5, b=0.5, A=0.5, data_radius=1.0)
    with pytest.raises(ValueError):
        lsi_constant(lc, beta=2.0, d=2, mode="strongly_convex")


def test_lsi_general_requires_beta_range():
    lc = LossConstants(M=1.0, m=0.5, b=0.5, A=0.5, data_radius=1.0)
    with pytest.raises(ValueError):
        lsi_constant(lc, beta=1.0, d=2, mode="general_dissipative")  # beta < 2/m = 4
    lsi_constant(lc, beta=4.0, d=2, mode="general_dissipative")


def test_lsi_general_monotone_in_dimension():
    vals = [lsi_constant(UNIT_LC, beta=2.0, d=d, mode="general_dissipative")
            for d in range(1, 11)]
    assert all(b >= a for a, b in zip(vals, vals[1:])), "not nondecreasing in d"


def test_lsi_general_increases_with_universal_constant():
    lo = lsi_constant(UNIT_LC, 2.0, 2, "general_dissipative", universal_C=1.0)
    hi = lsi_constant(UNIT_LC, 2.0, 2, "general_dissipative", universal_C=2.0)
    assert hi > lo


@pytest.mark.parametrize("beta", [127.5, 1e8])
def test_lsi_general_overflow_is_a_value_error(beta):
    # the exponent is 5.5 beta + 8: at beta = 127.5 exp stays finite but
    # c_LS does not; at 1e8 exp itself overflows
    assert lsi_constant(UNIT_LC, 125.0, 2, mode="general_dissipative") < math.inf
    with pytest.raises(ValueError, match="general_dissipative mode overflows"):
        lsi_constant(UNIT_LC, beta, 2, mode="general_dissipative")


def test_lsi_unknown_mode():
    with pytest.raises(ValueError):
        lsi_constant(UNIT_LC, 2.0, 2, mode="bogus")


# --------------------------------------------------------------- KL recursion


def _unit_dc(eta=0.1, beta=2.0, d=2, s_sq=1.0, lsi_mode="strongly_convex"):
    return derive_constants(UNIT_LC, eta=eta, beta=beta, d=d, s_sq=s_sq,
                            lsi_mode=lsi_mode)


def test_kl_recursion_D_constants_frozen():
    # hand evaluation at M=m=b=1, A=1/2, beta=2, d=2, s^2=1, defaults:
    # core S = 1 + 2 (1 + 10 + 1) = 25
    # D4 = M^2 (S + b/m) = 26, D5 = 2 M^2 (S + b/m) = 52 at C1~ = 0
    dc = _unit_dc()
    assert dc.D1 == 156.0                       # 2 (D4 + D5)
    assert dc.D2 == pytest.approx(104.0 + 2.0 / math.sqrt(2 * math.pi) + 2.0)
    b1 = math.log(2 * math.pi) + 0.5 * (1 + 4 * 12)
    b2 = 2 * 25.0 + 1.0 + 0.5
    assert dc.D3 == pytest.approx(b1 + b2)


def test_kl_recursion_limits():
    dc = _unit_dc()
    out = kl_recursion_constants(dc, eta=1e-12, beta=2.0)
    assert 0 < 1.0 - out["contraction"] < 1e-9
    assert 0 < out["per_step_add"] < 1e-6


def test_kl_recursion_monotone_in_D():
    dc = _unit_dc()
    import dataclasses
    base = kl_recursion_constants(dc, 0.01, 2.0)["per_step_add"]
    for bump in ({"D2": dc.D2 * 2},
                 {"D3": dc.D3 * 2},
                 {"D1": dc.D1 * 2}):
        dc2 = dataclasses.replace(dc, **bump)
        assert kl_recursion_constants(dc2, 0.01, 2.0)["per_step_add"] > base


def test_kl_recursion_unrolling_matches_geometric_series():
    dc = _unit_dc()
    out = kl_recursion_constants(dc, 0.01, 2.0)
    c, a = out["contraction"], out["per_step_add"]
    for T in (1, 7, 1000):
        brute = sum(a * c**t for t in range(T))
        closed = a * (1 - c**T) / (1 - c)
        assert brute == pytest.approx(closed, rel=1e-12)


def test_kl_recursion_step_size_guard():
    # one rule: the failure eta >= 4 beta c_LS that `admissibility_failures`
    # lists is the one `kl_recursion_constants` raises
    dc = _unit_dc()  # c_LS = 0.25, so 4 beta c_LS = 2
    for eta in (1.0, 2.0, 3.0):
        listed = [f for f in admissibility_failures(UNIT_LC, eta, 2.0, dc.c_LS)
                  if f.startswith("eta < 4 beta c_LS")]
        if eta < 2.0:
            assert listed == []
            assert kl_recursion_constants(dc, eta, 2.0)["horizon"] == 2.0
            continue
        assert listed == [f"eta < 4 beta c_LS violated: eta={eta} >= 2.0"]
        with pytest.raises(ValueError, match=re.escape(listed[0])):
            kl_recursion_constants(dc, eta=eta, beta=2.0)


# ------------------------------------------------------------ sub-exponential


def test_subexp_frozen_value():
    # beta=2, d=2, s^2=1 at unit constants: a0 = 2 sqrt(2), a1 = sqrt(2)+1,
    # K = max(1, (1/2) log 3) = 1, so C5 = (3 sqrt(2) + 1)^2 + 1 = 20 + 6 sqrt(2)
    out = subexp_params(UNIT_LC, beta=2.0, d=2, s_sq=1.0)
    want_C5 = 20.0 + 6.0 * math.sqrt(2.0)
    assert out["C5"] == pytest.approx(want_C5, rel=1e-14)
    assert out["sigma_e_sq"] == pytest.approx(4 * math.e**2 * want_C5**2, rel=1e-14)
    assert out["nu"] == pytest.approx(1 / (2 * math.e * want_C5), rel=1e-14)


@given(
    M=st.floats(0.1, 10.0),
    m=st.floats(0.05, 5.0),
    b=st.floats(0.0, 10.0),
    A=st.floats(0.0, 5.0),
    beta=st.floats(0.1, 50.0),
    d=st.integers(1, 50),
    s_sq=st.floats(0.01, 10.0),
)
@settings(max_examples=100, deadline=None)
def test_subexp_identity(M, m, b, A, beta, d, s_sq):
    lc = LossConstants(M=M, m=m, b=b, A=A, data_radius=1.0)
    out = subexp_params(lc, beta=beta, d=d, s_sq=s_sq)
    assert out["sigma_e_sq"] * out["nu"] ** 2 == pytest.approx(1.0, rel=1e-12)
    assert out["C5"] > 0


def test_subexp_scaling_in_C5():
    # doubling C5 must halve nu and quadruple sigma_e_sq
    a = subexp_params(UNIT_LC, 2.0, 2, 1.0)
    C5 = a["C5"]
    assert 4 * math.e**2 * (2 * C5) ** 2 == pytest.approx(4 * a["sigma_e_sq"])
    assert 1 / (2 * math.e * 2 * C5) == pytest.approx(a["nu"] / 2)


def test_subexp_monotone():
    base = subexp_params(UNIT_LC, 2.0, 2, 1.0)["C5"]
    ups = [
        LossConstants(M=2.0, m=1.0, b=1.0, A=0.5, data_radius=1.0),
        LossConstants(M=1.0, m=1.0, b=2.0, A=0.5, data_radius=1.0),
    ]
    for lc in ups:
        assert subexp_params(lc, 2.0, 2, 1.0)["C5"] > base
    assert subexp_params(UNIT_LC, 2.0, 4, 1.0)["C5"] > base  # d
    assert subexp_params(UNIT_LC, 2.0, 2, 2.0)["C5"] > base  # s_sq


# --------------------------------------------------------------- full record


def test_derive_constants_record():
    dc = _unit_dc()
    assert dc.c_LS == 0.25
    assert dc.C0 == 7.0
    assert dc.D1 == 2 * (26.0 + 52.0)  # 2 (D4 + D5)
    assert any("heuristic" in note for note in dc.notes)


def test_derived_constants_validation():
    with pytest.raises(ValueError):
        DerivedConstants(c_LS=0.25, C0=7.0, D1=0.0, D2=1.0, D3=1.0,
                         sigma_e_sq=1.0, nu=1.0)
    with pytest.raises(ValueError):
        DerivedConstants(c_LS=-0.25, C0=7.0, D1=156.0, D2=1.0, D3=1.0,
                         sigma_e_sq=1.0, nu=1.0)


def test_parametrix_overrides_validation():
    with pytest.raises(ValueError):
        ParametrixOverrides(C1_prime=-1.0)
    ov = ParametrixOverrides(C1_tilde=3.0)
    dc = derive_constants(UNIT_LC, eta=0.1, beta=2.0, d=2, s_sq=1.0,
                          lsi_mode="strongly_convex", overrides=ov)
    # quadratic-in-time expansion coefficient feeds D5, and so D1
    assert dc.D1 > 156.0
