"""Tests for the bound evaluators and their reports."""

import json
import math

import numpy as np
import pytest

from sgldlab.bounds import (
    BOUND_NAMES,
    SIGMA_G_SQ_BOUNDS,
    BoundEntry,
    bound_farghly_shape,
    bound_pensia,
    bound_strongly_convex,
    bound_subexp_gen,
    bound_time_independent,
    bound_xu_raginsky,
    evaluate_grid,
    excess_risk_bound,
    kl_chain,
    write_bounds_csv,
)
from sgldlab.config import parse
from sgldlab.constants import derive_constants
from sgldlab.losses import LossConstants
from sgldlab.sgld import SGLDConfig

UNIT_LC = LossConstants(M=1.0, m=1.0, b=1.0, A=0.5, data_radius=1.0, R=1.0)


def unit_dc(eta=0.1, beta=2.0, d=2, s_sq=1.0):
    return derive_constants(UNIT_LC, eta=eta, beta=beta, d=d, s_sq=s_sq,
                            lsi_mode="strongly_convex")


def unit_cfg(T, eta=0.1, beta=2.0, n=100):
    return SGLDConfig(eta=eta, beta=beta, k=n, n=n, T=T, d=2, s_sq=1.0, seed=0)


# --------------------------------------------------------------- xu_raginsky


def test_xu_raginsky_zero_mi():
    assert bound_xu_raginsky(0.25, 50, 0.0).value == 0.0


def test_xu_raginsky_frozen_value():
    assert bound_xu_raginsky(1.0, 2, 1.0).value == pytest.approx(1.0, rel=1e-14)


def test_xu_raginsky_quadruple_n_halves():
    a = bound_xu_raginsky(0.25, 100, 0.7).value
    b = bound_xu_raginsky(0.25, 400, 0.7).value
    assert a == pytest.approx(2.0 * b, rel=1e-12)


def test_xu_raginsky_rejects_negative_mi():
    with pytest.raises(ValueError):
        bound_xu_raginsky(0.25, 50, -1e-9)


# -------------------------------------------------------------------- pensia


def test_pensia_zero_variances():
    entry = bound_pensia(np.zeros(100), eta=0.01, beta=4.0, d=2, n=50,
                         sigma_g_sq=0.25)
    assert entry.value == 0.0
    assert entry.constants_used["info_bound"] == 0.0


def test_pensia_single_step_frozen():
    # one update with Var = d/(beta eta) accumulates exactly (d/2) log 2
    eta, beta, d = 0.01, 4.0, 3
    entry = bound_pensia([d / (beta * eta)], eta=eta, beta=beta, d=d, n=10,
                         sigma_g_sq=1.0)
    assert entry.constants_used["info_bound"] == pytest.approx(
        0.5 * d * math.log(2.0), rel=1e-14
    )


def test_pensia_info_linear_in_T():
    short = bound_pensia(np.full(500, 0.7), eta=0.01, beta=4.0, d=2, n=50,
                         sigma_g_sq=0.25)
    long = bound_pensia(np.full(1000, 0.7), eta=0.01, beta=4.0, d=2, n=50,
                        sigma_g_sq=0.25)
    assert long.constants_used["info_bound"] == pytest.approx(
        2.0 * short.constants_used["info_bound"], rel=1e-12
    )


def test_pensia_rejects_negative_entry():
    with pytest.raises(ValueError):
        bound_pensia([0.1, -0.2], eta=0.01, beta=4.0, d=2, n=50, sigma_g_sq=0.25)


# -------------------------------------------------------- time-independent


def test_time_independent_zero_horizon():
    entry = bound_time_independent(kl_chain(UNIT_LC, unit_dc(), unit_cfg(T=0)),
                                   n=100, sigma_g_sq=0.25)
    assert entry.preconditions_ok
    assert entry.value == 0.0


def test_time_independent_saturates_in_T():
    dc = unit_dc()
    values = [
        bound_time_independent(kl_chain(UNIT_LC, dc, unit_cfg(T=T)),
                               n=100, sigma_g_sq=0.25).value
        for T in (0, 5, 10, 20, 100, 10_000)
    ]
    assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
    # eta T >= 4 beta c_LS = 2 from T = 20 on: exactly constant
    assert values[3] == values[4] == values[5]
    assert values[2] < values[3]
    entry = bound_time_independent(kl_chain(UNIT_LC, dc, unit_cfg(T=100)),
                                   n=100, sigma_g_sq=0.25)
    assert "min-saturated" in entry.notes


def test_time_independent_sqrt_n_invariant():
    dc = unit_dc()
    ref = None
    for n in (10, 100, 10_000):
        v = bound_time_independent(kl_chain(UNIT_LC, dc, unit_cfg(T=50)),
                                   n=n, sigma_g_sq=0.25).value
        scaled = v * math.sqrt(n)
        if ref is None:
            ref = scaled
        assert scaled == pytest.approx(ref, rel=1e-9)


def test_time_independent_precondition_failures():
    dc = unit_dc()
    cold = unit_cfg(T=50, beta=1.0)  # beta < 2/m
    entry = bound_time_independent(kl_chain(UNIT_LC, dc, cold), n=100, sigma_g_sq=0.25)
    assert not entry.preconditions_ok
    assert entry.value is None
    assert any("beta" in note for note in entry.notes)
    # the same checks, in the same words, as `run`'s refusal
    assert entry.notes == ("beta >= 2/m violated: beta=1.0 < 2.0",)
    hot = unit_cfg(T=50, eta=0.5)  # eta above m/(5 M^2) = 0.2
    entry = bound_time_independent(kl_chain(UNIT_LC, dc, hot), n=100, sigma_g_sq=0.25)
    assert not entry.preconditions_ok and entry.value is None


def test_time_independent_carries_heuristic_notes():
    entry = bound_time_independent(kl_chain(UNIT_LC, unit_dc(), unit_cfg(T=50)),
                                   n=100, sigma_g_sq=0.25)
    assert any("heuristic" in note for note in entry.notes)


# ---------------------------------------------------------- strongly convex


def test_strongly_convex_zero_integrand():
    stamps = np.linspace(0.0, 10.0, 101)
    trace = np.column_stack([stamps, np.zeros_like(stamps)])
    entry = bound_strongly_convex(trace, R=1.0, beta=4.0, n=50, sigma_g_sq=0.25,
                                  T=10.0)
    assert entry.value == 0.0


def test_strongly_convex_constant_integrand_closed_form():
    v, R, beta, n, sg, T = 0.3, 1.0, 4.0, 50, 0.25, 4.0
    stamps = np.linspace(0.0, T, 2001)
    trace = np.column_stack([stamps, np.full_like(stamps, v)])
    entry = bound_strongly_convex(trace, R=R, beta=beta, n=n, sigma_g_sq=sg, T=T)
    integral = (4.0 * v / R) * (1.0 - math.exp(-T * R / 4.0))
    expect = math.sqrt(2.0 * beta * sg * integral / n)
    assert entry.value == pytest.approx(expect, rel=1e-6)
    assert entry.constants_used["weighted_integral"] == pytest.approx(
        integral, rel=1e-6
    )


def test_strongly_convex_early_times_barely_matter():
    R, T = 1.0, 80.0
    stamps = np.linspace(0.0, T, 4001)
    base = np.full_like(stamps, 1.0)
    damped = base.copy()
    damped[stamps < T / 2] = 0.5
    b1 = bound_strongly_convex(np.column_stack([stamps, base]), R=R, beta=4.0,
                               n=50, sigma_g_sq=0.25, T=T).value
    b2 = bound_strongly_convex(np.column_stack([stamps, damped]), R=R, beta=4.0,
                               n=50, sigma_g_sq=0.25, T=T).value
    assert b2 <= b1
    assert (b1 - b2) / b1 < math.exp(-T * R / 8.0)


def test_strongly_convex_input_validation():
    with pytest.raises(ValueError):
        bound_strongly_convex(np.empty((0, 2)), R=1.0, beta=4.0, n=50,
                              sigma_g_sq=0.25, T=1.0)
    stamps = np.linspace(0.0, 0.5, 6)  # covers only half of [0, 1]
    trace = np.column_stack([stamps, np.ones_like(stamps)])
    with pytest.raises(ValueError):
        bound_strongly_convex(trace, R=1.0, beta=4.0, n=50, sigma_g_sq=0.25, T=1.0)
    bad_order = np.array([[0.0, 1.0], [0.7, 1.0], [0.7, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        bound_strongly_convex(bad_order, R=1.0, beta=4.0, n=50, sigma_g_sq=0.25,
                              T=1.0)
    negative = np.array([[0.0, 1.0], [1.0, -1.0]])
    with pytest.raises(ValueError):
        bound_strongly_convex(negative, R=1.0, beta=4.0, n=50, sigma_g_sq=0.25,
                              T=1.0)


def test_strongly_convex_zero_horizon():
    trace = np.array([[0.0, 5.0]])
    entry = bound_strongly_convex(trace, R=1.0, beta=4.0, n=50, sigma_g_sq=0.25,
                                  T=0.0)
    assert entry.value == 0.0


# ------------------------------------------------------------ farghly shape


def test_farghly_frozen_value():
    entry = bound_farghly_shape(C1=1.0, C2=1.0, eta=0.01, T=10**6, n=100, k=10)
    assert entry.constants_used["saturation"] == pytest.approx(200.0 / 90.0,
                                                               rel=1e-14)
    assert entry.value == pytest.approx((20.0 / 9.0) * 1.1, rel=1e-12)
    assert "comparison-only" in entry.notes


def test_farghly_zero_horizon():
    assert bound_farghly_shape(1.0, 1.0, eta=0.01, T=0, n=100, k=10).value == 0.0


def test_farghly_small_eta_divergence():
    # with the dataset branch of the min pinned, value grows like 1/sqrt(eta)
    a = bound_farghly_shape(1.0, 1.0, eta=1e-4, T=10**12, n=100, k=10).value
    b = bound_farghly_shape(1.0, 1.0, eta=1e-8, T=10**12, n=100, k=10).value
    assert b / a == pytest.approx(100.0, rel=1e-3)


def test_farghly_requires_subsampling():
    with pytest.raises(ValueError):
        bound_farghly_shape(1.0, 1.0, eta=0.01, T=100, n=10, k=10)


def test_farghly_step_size_condition_flagged():
    ok = bound_farghly_shape(1.0, 1.0, eta=0.01, T=100, n=100, k=10, m=1.0)
    assert ok.preconditions_ok
    bad = bound_farghly_shape(1.0, 1.0, eta=0.9, T=100, n=100, k=10, m=1.0)
    assert not bad.preconditions_ok
    assert bad.value is not None  # still computed, comparison-only


# --------------------------------------------------------------- subexp gen


def test_subexp_zero_input():
    assert bound_subexp_gen(0.0, 2.0, 1.0).value == 0.0


def test_subexp_knee_continuity_frozen():
    entry = bound_subexp_gen(1.0, sigma_e_sq=2.0, nu=1.0)
    assert entry.value == pytest.approx(2.0, rel=1e-14)
    assert math.sqrt(2.0 * 2.0 * 1.0) == pytest.approx(2.0, rel=1e-14)
    assert 1.0 * 1.0 + 2.0 / 2.0 == pytest.approx(2.0, rel=1e-14)


def test_subexp_sqrt_branch_frozen():
    entry = bound_subexp_gen(0.5, sigma_e_sq=2.0, nu=1.0)
    assert entry.value == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert "branch=sqrt" in entry.notes


def test_subexp_linear_branch():
    entry = bound_subexp_gen(5.0, sigma_e_sq=2.0, nu=1.0)
    assert entry.value == pytest.approx(5.0 + 1.0, rel=1e-14)
    assert "branch=linear" in entry.notes


def test_subexp_validation():
    with pytest.raises(ValueError):
        bound_subexp_gen(-0.1, 2.0, 1.0)
    with pytest.raises(ValueError):
        bound_subexp_gen(0.1, -2.0, 1.0)


# --------------------------------------------------------------- excess risk


def test_excess_risk_frozen_minimization_term():
    cfg = unit_cfg(T=100, beta=2.0)
    entry = excess_risk_bound(UNIT_LC, unit_dc(beta=2.0), cfg, n=100,
                              gen_bound=0.1)
    expect = 0.5 * (1.0 + math.log(2.0))
    assert entry.constants_used["minimization_term"] == pytest.approx(expect,
                                                                      rel=1e-14)


def test_excess_risk_minimization_vanishes_with_beta():
    values = []
    for beta in (1e2, 1e3, 1e4, 1e5, 1e6):
        cfg = SGLDConfig(eta=0.1, beta=beta, k=10, n=10, T=100, d=2, s_sq=1.0,
                         seed=0)
        dc = unit_dc(beta=beta)
        entry = excess_risk_bound(UNIT_LC, dc, cfg, n=10, gen_bound=0.0)
        values.append(entry.constants_used["minimization_term"])
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-4


def test_excess_risk_total_dominates_terms():
    cfg = unit_cfg(T=100)
    entry = excess_risk_bound(UNIT_LC, unit_dc(), cfg, n=100, gen_bound=0.07)
    used = entry.constants_used
    for key in ("gen_term", "convergence_term", "minimization_term"):
        assert entry.value >= used[key] >= 0.0
    assert entry.value == pytest.approx(
        used["gen_term"] + used["convergence_term"] + used["minimization_term"],
        rel=1e-14,
    )
    assert "order-level-convergence-term" in entry.notes


def test_excess_risk_rejects_negative_gen():
    with pytest.raises(ValueError):
        excess_risk_bound(UNIT_LC, unit_dc(), unit_cfg(T=10), n=100,
                          gen_bound=-0.1)


# --------------------------------------------------- report and comparisons


def test_pensia_overtakes_time_independent():
    dc = unit_dc()
    ratios = []
    for T in (1000, 1_000_000):
        pen = bound_pensia(np.full(T, 1.0), eta=0.1, beta=2.0, d=2, n=100,
                           sigma_g_sq=0.25)
        ti = bound_time_independent(kl_chain(UNIT_LC, dc, unit_cfg(T=T)),
                                    n=100, sigma_g_sq=0.25)
        ratios.append(pen.value / ti.value)
    assert ratios[1] > ratios[0]


def test_bound_entry_invariant():
    with pytest.raises(ValueError):
        BoundEntry(name="bad", value=-1.0)
    with pytest.raises(ValueError):
        BoundEntry(name="bad", value=math.inf)
    BoundEntry(name="fine", value=None, preconditions_ok=False)


def test_bound_report_roundtrip(tmp_path):
    dc = unit_dc()
    entries = (
        bound_xu_raginsky(0.25, 100, 0.5),
        bound_pensia(np.full(100, 0.5), eta=0.1, beta=2.0, d=2, n=100,
                     sigma_g_sq=0.25),
        bound_time_independent(kl_chain(UNIT_LC, dc, unit_cfg(T=100)),
                               n=100, sigma_g_sq=0.25),
        bound_time_independent(kl_chain(UNIT_LC, dc, unit_cfg(T=100, beta=1.0)),
                               n=100, sigma_g_sq=0.25),
        bound_farghly_shape(1.0, 1.0, eta=0.01, T=1000, n=100, k=10),
        bound_subexp_gen(0.5, 2.0, 1.0),
    )
    parsed = json.loads(json.dumps([e.to_dict() for e in entries]))
    assert len(parsed) == 6
    assert parsed[0]["name"] == "xu_raginsky"

    path = tmp_path / "bounds.csv"
    write_bounds_csv(path, entries)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "name,value,T,n,eta,beta,flags"
    assert len(lines) == 7
    failed_row = lines[4].split(",")
    assert failed_row[1] == ""  # no value for the failed-precondition entry

    assert entries[-1].name == "subexp_gen"
    assert entries[-1].value == pytest.approx(math.sqrt(2.0))
    assert set(BOUND_NAMES) >= set(e.name for e in entries)


# ---------------------------------------------------------------- the grid


def grid_inputs(k, which):
    """evaluate_grid's arguments on a quadratic config of T = 40 and n = 20,
    with in-memory traces at every step; sigma_g_sq is 0.25 where `which`
    names a bound that reads it."""
    sigma_g_sq = 0.25 if set(which) & set(SIGMA_G_SQ_BOUNDS) else None
    cfg = parse({"loss": {"family": "quadratic", "R": 1.0, "d": 2},
                 "sgld": {"eta": 0.05, "beta": 4.0, "k": k, "T": 40, "seed": 3},
                 "data": {"n": 20},
                 "bounds": {"sigma_g_sq": sigma_g_sq, "which": which}})
    rng = np.random.default_rng(0)
    steps = np.arange(41)
    return (cfg.model(), cfg.derived(), cfg["bounds"], cfg.sgld_config(),
            (steps, rng.uniform(0.0, 0.1, 41)), (steps, rng.uniform(0.0, 0.02, 41)),
            [0, 10, 40], [10, 20, 30], 20)


@pytest.mark.parametrize("k", [5, 20], ids=["subsampled", "full-batch"])
def test_evaluate_grid_excess_risk_alone_equals_its_entries_in_the_full_grid(k):
    full = evaluate_grid(*grid_inputs(k, list(BOUND_NAMES)))
    alone = evaluate_grid(*grid_inputs(k, ["excess_risk"]))
    assert alone == [e for e in full if e.name == "excess_risk"]
    assert len(alone) == 3 * 3 and {e.value is None for e in alone} == {False}


@pytest.mark.parametrize("k", [5, 20], ids=["subsampled", "full-batch"])
def test_evaluate_grid_keeps_the_order_of_which_at_each_point(k):
    names = len(BOUND_NAMES)
    full = evaluate_grid(*grid_inputs(k, list(BOUND_NAMES)))
    reverse = evaluate_grid(*grid_inputs(k, list(reversed(BOUND_NAMES))))
    assert len(reverse) == len(full) == 3 * 3 * names
    for at in range(0, len(full), names):
        assert reverse[at:at + names] == full[at:at + names][::-1]
    # both branches of xu_raginsky's gate and farghly_shape's are reached
    valued = {e.name for e in full if e.value is not None}
    assert ("xu_raginsky" in valued) == (k == 20)
    assert ("farghly_shape" in valued) == (k == 5)
