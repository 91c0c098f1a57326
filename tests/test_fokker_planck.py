"""Tests for the finite-volume density-evolution lab."""

import math

import numpy as np
import pytest

from sgldlab import fokker_planck, sgld
from sgldlab.fokker_planck import (
    DensityField,
    Grid1D,
    check_dt,
    evolve_pair,
    fp_step,
    gibbs_density,
    suggested_halfwidth,
    verify_inequality_12,
)

from reference import fisher_on_grid, kl_on_grid, mass, variance

BETA, R = 2.0, 1.0


def quad_grid(n_cells=256, halfwidth=None):
    if halfwidth is None:
        halfwidth = suggested_halfwidth(BETA, R)
    return Grid1D(-halfwidth, halfwidth, n_cells)


def gaussian_on(grid, mean, var):
    return gibbs_density(grid, (grid.centers - mean) ** 2 / (2.0 * var), 1.0)


def stable_dt(grid, grad, beta, safety=0.45):
    return safety * grid.h**2 / (2.0 / beta + grid.h * float(np.abs(grad).max()))


# ------------------------------------------------------------------- types


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(1.0, 0.0, 128)
    with pytest.raises(ValueError):
        Grid1D(0.0, 1.0, 32)
    g = Grid1D(-2.0, 2.0, 128)
    assert g.h == pytest.approx(4.0 / 128)
    assert g.centers.shape == (128,)
    assert g.centers[0] == pytest.approx(-2.0 + g.h / 2)


def test_density_validation():
    g = Grid1D(-1.0, 1.0, 64)
    ok = np.full(64, 0.5)
    DensityField(grid=g, values=ok)
    with pytest.raises(ValueError):
        DensityField(grid=g, values=np.full(64, 0.6))  # mass 1.2
    bad = ok.copy()
    bad[0] = -0.1
    bad[1] += 0.1
    with pytest.raises(ValueError):
        DensityField(grid=g, values=bad)
    with pytest.raises(ValueError):
        DensityField(grid=g, values=np.full(32, 1.0))


def test_density_refuses_non_finite_values():
    g = Grid1D(-1.0, 1.0, 64)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            DensityField(grid=g, values=np.full(64, bad))
        one = np.full(64, 0.5)
        one[3] = bad
        with pytest.raises(ValueError):
            DensityField(grid=g, values=one)


def test_mass_check_fails_a_nan_row():
    # the mass rule on stacked rows, as the pair run checks a block of steps
    h = Grid1D(-1.0, 1.0, 64).h
    ok = np.full(64, 0.5)
    fokker_planck._check_mass(np.stack([[ok, ok], [ok, ok]]), h)
    for bad in (np.full(64, np.nan), np.full(64, 0.6)):
        with pytest.raises(ValueError, match="mass"):
            fokker_planck._check_mass(bad, h)
        with pytest.raises(ValueError, match="mass"):
            fokker_planck._check_mass(np.stack([[ok, ok], [ok, bad]]), h)


def test_suggested_halfwidth():
    assert suggested_halfwidth(2.0, 2.0) == pytest.approx(8.0 * 0.5)


# ------------------------------------------------------------------- gibbs


def test_gibbs_flat_potential_uniform():
    g = Grid1D(-3.0, 5.0, 128)
    rho = gibbs_density(g, np.zeros(128), beta=7.0)
    np.testing.assert_allclose(rho.values, 1.0 / 8.0, rtol=1e-14)


def test_gibbs_quadratic_variance():
    g = quad_grid(512)
    rho = gibbs_density(g, 0.5 * R * g.centers**2, BETA)
    assert variance(rho) == pytest.approx(1.0 / (BETA * R), rel=1e-4)
    halved = gibbs_density(g, 0.5 * R * g.centers**2, 2 * BETA)
    assert variance(halved) == pytest.approx(1.0 / (2 * BETA * R), rel=1e-4)


def test_gibbs_overflow_safe_and_input_checks():
    g = Grid1D(-1.0, 1.0, 64)
    rho = gibbs_density(g, 1e6 * g.centers**2, beta=1.0)  # would overflow naively
    assert mass(rho) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        gibbs_density(g, np.full(64, np.inf), beta=1.0)


# ------------------------------------------------------------------ fp_step


def test_step_gibbs_is_stationary():
    g = quad_grid(256)
    grad = R * g.centers
    pi = gibbs_density(g, 0.5 * R * g.centers**2, BETA)
    dt = stable_dt(g, grad, BETA, safety=0.9)
    out = fp_step(pi, grad, BETA, dt)
    np.testing.assert_allclose(out.values, pi.values, rtol=0, atol=1e-8)


def test_step_conserves_mass_to_1e12():
    g = quad_grid(256)
    grad = R * g.centers
    rho = gaussian_on(g, 1.5, 0.3)
    dt = stable_dt(g, grad, BETA)
    worst = 0.0
    for _ in range(200):
        new = fp_step(rho, grad, BETA, dt)
        worst = max(worst, abs(mass(new) - mass(rho)))
        rho = new
    assert worst <= 1e-12
    assert rho.clamped_mass < 1e-10


def test_step_heat_kernel_variance_growth():
    g = Grid1D(-4.0, 4.0, 512)
    beta = 1.0
    rho = gaussian_on(g, 0.0, 0.25)
    dt = stable_dt(g, np.zeros(512), beta, safety=0.9)
    n_steps = int(0.05 / dt)
    for _ in range(n_steps):
        rho = fp_step(rho, np.zeros(512), beta, dt)
    target = 0.25 + 2.0 * n_steps * dt / beta
    assert variance(rho) == pytest.approx(target, rel=1e-3)


def test_step_refuses_unstable_dt():
    g = quad_grid(256)
    grad = R * g.centers
    pi = gibbs_density(g, 0.5 * R * g.centers**2, BETA)
    dt_max = g.h**2 / (2.0 / BETA + g.h * float(np.abs(grad).max()))
    with pytest.raises(ValueError, match="suggested dt"):
        fp_step(pi, grad, BETA, 1.5 * dt_max)


def test_step_input_checks():
    g = quad_grid(256)
    pi = gibbs_density(g, 0.5 * g.centers**2, BETA)
    with pytest.raises(ValueError):
        fp_step(pi, np.zeros(100), BETA, 1e-5)
    with pytest.raises(ValueError):
        fp_step(pi, np.zeros(256), -1.0, 1e-5)


def test_step_refuses_a_non_finite_grad():
    g = quad_grid(256)
    pi = gibbs_density(g, 0.5 * g.centers**2, BETA)
    grad = R * g.centers
    dt = stable_dt(g, grad, BETA)
    for bad in (np.nan, np.inf, -np.inf):
        rough = grad.copy()
        rough[100] = bad
        with pytest.raises(ValueError, match="finite"):
            check_dt(g, rough, BETA, dt)
        with pytest.raises(ValueError, match="finite"):
            fp_step(pi, rough, BETA, dt)
        with pytest.raises(ValueError, match="finite"):
            evolve_pair(g, grad, rough, BETA, dt, 3, pi, pi)


# ------------------------------------------------------------ kl and fisher


def test_kl_and_fisher_identical_zero():
    g = quad_grid(128)
    rho = gaussian_on(g, 0.3, 0.4)
    assert kl_on_grid(rho, rho) == 0.0
    assert fisher_on_grid(rho, rho) == 0.0


def test_kl_matches_analytic_gaussian():
    g = Grid1D(-6.0, 6.0, 256)
    s2, dmu = 0.5, 0.6
    p = gaussian_on(g, -dmu / 2, s2)
    q = gaussian_on(g, dmu / 2, s2)
    exact = dmu**2 / (2.0 * s2)
    assert kl_on_grid(p, q) == pytest.approx(exact, rel=1e-3)


def test_kl_quadrature_error_within_h_squared_envelope():
    # superconvergent midpoint quadrature: the error sits at the rounding
    # floor well below any C h^2, so halving h keeps it under the envelope
    def err(n_cells):
        g = Grid1D(-6.0, 6.0, n_cells)
        p = gaussian_on(g, -0.3, 0.5)
        q = gaussian_on(g, 0.3, 0.5)
        exact = 0.6**2 / (2.0 * 0.5)
        return abs(kl_on_grid(p, q) - exact) / exact

    coarse, fine = err(256), err(512)
    assert fine <= max(coarse / 2.0, 1e-9)
    assert coarse < 1e-9


def test_fisher_matches_analytic_constant_score():
    # equal-variance Gaussians: the log-ratio slope is the constant
    # dmu / s2, so Fisher = (dmu / s2)^2
    g = Grid1D(-6.0, 6.0, 512)
    s2, dmu = 0.5, 0.6
    p = gaussian_on(g, -dmu / 2, s2)
    q = gaussian_on(g, dmu / 2, s2)
    assert fisher_on_grid(p, q) == pytest.approx((dmu / s2) ** 2, rel=1e-6)


def test_kl_nonnegative_on_probe_pairs():
    g = quad_grid(256)
    pairs = [
        (gaussian_on(g, 0.0, 0.3), gaussian_on(g, 0.5, 0.7)),
        (gaussian_on(g, -1.0, 1.0), gibbs_density(g, 0.5 * g.centers**2, BETA)),
    ]
    for p, q in pairs:
        assert kl_on_grid(p, q) >= -1e-9


def test_kl_disjoint_support_raises():
    g = Grid1D(-1.0, 1.0, 64)
    left = np.zeros(64)
    left[:32] = 1.0 / (32 * g.h)
    right = np.zeros(64)
    right[32:] = 1.0 / (32 * g.h)
    p = DensityField(grid=g, values=left)
    q = DensityField(grid=g, values=right)
    with pytest.raises(ValueError):
        kl_on_grid(p, q)


def test_kl_grid_mismatch_raises():
    p = gaussian_on(Grid1D(-2.0, 2.0, 64), 0.0, 0.3)
    q = gaussian_on(Grid1D(-2.0, 2.0, 128), 0.0, 0.3)
    with pytest.raises(ValueError):
        kl_on_grid(p, q)


# ------------------------------------------------------- paired verification


def run_shifted_pair(n_cells, T_end=0.4):
    g = Grid1D(-5.0, 5.0, n_cells)
    w = g.centers
    cs, ca = 0.2, -0.2
    gs, ga = R * (w - cs), R * (w - ca)
    dt = stable_dt(g, gs, BETA)
    start = gaussian_on(g, 1.0, 0.3)
    run = evolve_pair(g, gs, ga, BETA, dt, int(T_end / dt), start, start)
    return run, verify_inequality_12(run, BETA)


def test_inequality_12_growth_case():
    # identical initial densities, different potentials: KL starts at 0,
    # grows, and the growth rate stays inside the inequality everywhere
    run, rep = run_shifted_pair(256)
    assert run.kl[0] == 0.0
    assert run.kl[-1] > 0.0
    assert rep.n_violations == 0
    assert run.clamped_mass < 1e-10


def test_inequality_12_contraction_case():
    # same potential, displaced start: pure contraction, stability term 0
    g = quad_grid(256)
    grad = R * g.centers
    pi = gibbs_density(g, 0.5 * R * g.centers**2, BETA)
    start = gaussian_on(g, 1.5, 0.3)
    dt = stable_dt(g, grad, BETA)
    run = evolve_pair(g, grad, grad, BETA, dt, 400, start, pi)
    rep = verify_inequality_12(run, BETA)
    assert run.stability.max() == 0.0
    assert rep.n_violations == 0
    assert np.all(np.diff(run.kl) <= 1e-9)  # KL to the fixed target decays


def test_inequality_12_degenerate_case_identically_zero():
    g = quad_grid(128)
    grad = R * g.centers
    pi = gibbs_density(g, 0.5 * R * g.centers**2, BETA)
    dt = stable_dt(g, grad, BETA)
    run = evolve_pair(g, grad, grad, BETA, dt, 50, pi, pi)
    rep = verify_inequality_12(run, BETA)
    assert np.all(run.kl == 0.0)
    assert rep.n_violations == 0


def test_inequality_12_rate_small_and_improves_with_resolution():
    _, coarse = run_shifted_pair(256)
    _, fine = run_shifted_pair(512)
    assert coarse.violation_rate <= 0.01
    assert fine.violation_rate <= coarse.violation_rate


def test_h_theorem_monotone_kl_to_gibbs():
    g = quad_grid(256)
    grad = R * g.centers
    pi = gibbs_density(g, 0.5 * R * g.centers**2, BETA)
    rho = gaussian_on(g, 1.5, 0.3)
    dt = stable_dt(g, grad, BETA)
    kls = []
    for _ in range(300):
        kls.append(kl_on_grid(rho, pi))
        rho = fp_step(rho, grad, BETA, dt)
    assert np.all(np.diff(np.array(kls)) <= 1e-9)


def test_evolve_pair_validation():
    g = quad_grid(128)
    pi = gibbs_density(g, 0.5 * g.centers**2, BETA)
    with pytest.raises(ValueError):
        evolve_pair(g, np.zeros(128), np.zeros(128), BETA, 1e-5, 0, pi, pi)
    grad = R * g.centers
    too_big = 1.01 * stable_dt(g, grad, BETA, safety=1.0)
    for ga in (grad, np.zeros(128)):  # either density's step can be unstable
        with pytest.raises(ValueError, match="stability limit"):
            evolve_pair(g, grad, ga, BETA, too_big, 3, pi, pi)
        with pytest.raises(ValueError, match="stability limit"):
            evolve_pair(g, ga, grad, BETA, too_big, 3, pi, pi)


def reference_evolve_pair(grid, grad_s, grad_alt, beta, dt, n_steps, rho, gamma):
    # the pair loop written with the public one-step and quadrature functions
    kl, fisher, stability = [], [], []
    for step in range(n_steps + 1):
        kl.append(kl_on_grid(rho, gamma))
        fisher.append(fisher_on_grid(rho, gamma))
        stability.append((beta / 2.0) * float(
            grid.h * np.sum(rho.values * (grad_s - grad_alt) ** 2)))
        if step < n_steps:
            rho = fp_step(rho, grad_s, beta, dt)
            gamma = fp_step(gamma, grad_alt, beta, dt)
    return (np.array(kl), np.array(fisher), np.array(stability),
            rho.clamped_mass + gamma.clamped_mass)


@pytest.mark.parametrize("case", ["shifted", "contraction", "steep"])
def test_evolve_pair_bitwise_equals_the_fp_step_loop(case):
    g = quad_grid(128)
    w = g.centers
    if case == "shifted":
        gs, ga = R * (w - 0.2), R * (w + 0.2)
        rho = gamma = gaussian_on(g, 1.0, 0.3)
    elif case == "contraction":
        gs = ga = R * w
        rho = gaussian_on(g, 1.5, 0.3)
        gamma = gibbs_density(g, 0.5 * R * w**2, BETA)
    else:  # steep potentials and a narrow start: the shared band moves
        gs, ga = 40.0 * (w - 1.0), 40.0 * (w + 1.0)
        rho = gamma = gaussian_on(g, 0.0, 0.01)
    dt = stable_dt(g, gs, BETA, safety=0.9)
    run = evolve_pair(g, gs, ga, BETA, dt, 120, rho, gamma)
    kl, fisher, stability, clamped = reference_evolve_pair(
        g, gs, ga, BETA, dt, 120, rho, gamma)
    assert np.array_equal(run.kl, kl)
    assert np.array_equal(run.fisher, fisher)
    assert np.array_equal(run.stability, stability)
    assert run.clamped_mass == clamped


def pair_case(case):
    """(grid, grad_s, grad_alt, dt, rho, gamma) of a 120-step pair run."""
    g = quad_grid(128)
    w = g.centers
    if case == "shifted":
        gs, ga = R * (w - 0.2), R * (w + 0.2)
        rho = gamma = gaussian_on(g, 1.0, 0.3)
    elif case == "contraction":
        gs = ga = R * w
        rho = gaussian_on(g, 1.5, 0.3)
        gamma = gibbs_density(g, 0.5 * R * w**2, BETA)
    elif case == "steep":  # the shared band moves
        gs, ga = 40.0 * (w - 1.0), 40.0 * (w + 1.0)
        rho = gamma = gaussian_on(g, 0.0, 0.01)
    else:  # "clamped": a five-cell spike on an empty grid under rough,
        # high-Peclet gradients at the stability limit, where the face
        # fluxes cancel to rounding-level negative cells that get floored
        gs, ga = np.random.default_rng(0).normal(0.0, 300.0, (2, 128))
        values = np.zeros(128)
        values[60:65] = 1.0
        rho = gamma = DensityField(g, values / (values.sum() * g.h))
        dt = stable_dt(g, np.concatenate([gs, ga]), BETA, safety=1.0)
        return g, gs, ga, dt, rho, gamma
    return g, gs, ga, stable_dt(g, gs, BETA, safety=0.9), rho, gamma


def check_against_the_fp_step_loop(case):
    """Assert `evolve_pair` equals the fp_step loop bit for bit on `case`;
    returns the loop's clamped mass."""
    g, gs, ga, dt, rho, gamma = pair_case(case)
    run = evolve_pair(g, gs, ga, BETA, dt, 120, rho, gamma)
    kl, fisher, stability, clamped = reference_evolve_pair(
        g, gs, ga, BETA, dt, 120, rho, gamma)
    assert np.array_equal(run.kl, kl)
    assert np.array_equal(run.fisher, fisher)
    assert np.array_equal(run.stability, stability)
    assert run.clamped_mass == clamped
    return clamped


def test_evolve_pair_bitwise_equals_the_fp_step_loop_when_it_clamps():
    assert check_against_the_fp_step_loop("clamped") > 0.0


def band_starts(case, n_steps):
    """The steps at which the fp_step loop's shared support band changes."""
    g, gs, ga, dt, rho, gamma = pair_case(case)
    bands = []
    for _ in range(n_steps + 1):
        mask = fokker_planck._support_mask(rho.values, gamma.values)
        bands.append(fokker_planck._support_band(mask))
        rho = fp_step(rho, gs, BETA, dt)
        gamma = fp_step(gamma, ga, BETA, dt)
    return [s for s in range(1, n_steps + 1) if bands[s] != bands[s - 1]]


@pytest.mark.parametrize("block_steps", [1, 7])
@pytest.mark.parametrize("case", ["shifted", "contraction", "steep", "clamped"])
def test_evolve_pair_blocks_equal_the_fp_step_loop(monkeypatch, case, block_steps):
    # a step of the pair run stores 2 n_cells words; 121 states fill 17 blocks
    # of 7 and a last of 2; in the steep case the band changes inside blocks
    # of 7, so a band found in one block carries on across block edges
    monkeypatch.setattr(sgld, "BLOCK_WORDS", 2 * 128 * block_steps + 1)
    assert sgld._block_len(2 * 128) == block_steps
    if case == "steep":
        starts = band_starts(case, 120)
        assert any(s % 7 for s in starts) and len(starts) >= 2
        assert any(a // 7 < b // 7 for a, b in zip(starts, starts[1:]))
    check_against_the_fp_step_loop(case)


def face_flux_step(values, grad, beta, dt, h):
    """One Chang-Cooper step as a conservative face-flux update: the face
    density, its drift flux, the diffusion flux, their difference through
    each interior face, and the flux divergence; then negative cells floored."""
    v_face = 0.5 * (grad[:-1] + grad[1:])
    delta = fokker_planck._cc_weight(beta * v_face * h)
    face_density = delta * values[:-1] + (1.0 - delta) * values[1:]
    drift = v_face * face_density
    diffusion = -(1.0 / beta) * (values[1:] - values[:-1]) / h
    flux = np.zeros(values.shape[0] + 1)  # the walls carry no flux
    flux[1:-1] = diffusion - drift
    return np.maximum(values - dt * (flux[1:] - flux[:-1]) / h, 0.0)


@pytest.mark.parametrize("case", ["shifted", "contraction", "steep", "clamped"])
def test_fp_step_equals_the_face_flux_step(case):
    g, gs, ga, dt, rho, gamma = pair_case(case)
    for density, grad in ((rho, gs), (gamma, ga)):
        want = face_flux_step(density.values, grad, BETA, dt, g.h)
        got = fp_step(density, grad, BETA, dt).values
        eps = np.finfo(float).eps
        assert np.abs(got - want).max() <= 4 * eps * density.values.max()


@pytest.mark.parametrize("case", ["shifted", "contraction", "steep", "clamped"])
def test_generator_is_a_mass_conserving_nonnegative_step(case):
    # I + dt A: nonnegative off the diagonal, and each column sums to 1, so
    # the mass sum_i rho_i h moves between cells and none is made or lost.
    # An off-diagonal entry is (dt/h)(D/h) B(+-w) >= 0, B(w) = w/(e^w - 1) at
    # the face Peclet number w, but formed as a difference of terms up to
    # (dt/h)|v_f|; at high Peclet number (the steep and clamped cases) it can
    # round below 0 by less than an ulp of the largest entry, the rounding
    # the clamp floors
    g, gs, ga, dt, _, _ = pair_case(case)
    bands = fokker_planck._generator(g, [gs, ga], BETA, dt)
    left, diag, right = bands[:, 0], bands[:, 1], bands[:, 2]
    ulp = np.finfo(float).eps * max(left.max(), right.max())
    assert left.min() >= -ulp and right.min() >= -ulp
    assert (left[:, 0] == 0).all() and (right[:, -1] == 0).all()
    column = diag.copy()
    column[:, :-1] += left[:, 1:]
    column[:, 1:] += right[:, :-1]
    assert np.abs(column - 1.0).max() <= 4 * np.finfo(float).eps


def test_kl_and_fisher_use_the_longest_shared_support_run():
    # supports split into runs of 5, 40, 40 and 20 cells: the first of the
    # two longest is the band, as the split-and-max form picked it
    g = quad_grid(128)
    values = np.zeros(128)
    for lo, hi in ((2, 7), (10, 50), (60, 100), (105, 125)):
        values[lo:hi] = 1.0 + 0.01 * np.arange(hi - lo)
    rho = DensityField(g, values / (values.sum() * g.h))
    q = values * (1.0 + 0.05 * np.sin(np.arange(128)))
    gamma = DensityField(g, q / (q.sum() * g.h))
    idx = np.nonzero((rho.values > 0) & (gamma.values > 0))[0]
    runs = np.split(idx, np.nonzero(np.diff(idx) > 1)[0] + 1)
    band = max(runs, key=len)
    assert band[0] == 10 and band.shape[0] == 40
    r, q = rho.values[band], gamma.values[band]
    assert kl_on_grid(rho, gamma) == float(g.h * np.sum(r * np.log(r / q)))
    score = np.gradient(np.log(r / q), g.h)
    assert fisher_on_grid(rho, gamma) == float(g.h * np.sum(r * score**2))


def test_short_run_has_no_checkable_steps():
    g = quad_grid(128)
    grad = R * g.centers
    pi = gibbs_density(g, 0.5 * R * g.centers**2, BETA)
    dt = stable_dt(g, grad, BETA)
    run = evolve_pair(g, grad, grad, BETA, dt, 1, pi, pi)
    rep = verify_inequality_12(run, BETA)
    assert rep.n_checked == 0 and rep.n_violations == 0


def test_run_csv_roundtrip(tmp_path):
    run, rep = run_shifted_pair(256, T_end=0.02)
    path = tmp_path / "fp.csv"
    run.to_csv(path, rep)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,kl,fisher,stability_term,dkl_dt,slack"
    assert len(lines) == run.kl.shape[0] + 1
    first = lines[1].split(",")
    assert first[4] == "" and first[5] == ""  # no centered difference at t=0
    mid = lines[2].split(",")
    assert float(mid[1]) == pytest.approx(run.kl[1], rel=0)
    assert float(mid[4]) == pytest.approx(rep.dkl_dt[1], rel=0)
