"""Acceptance gate: one test per shipping criterion, frozen seeds throughout.

Run with -v for one pass/fail line per criterion. Each test states its
tolerance inline; configurations are the committed desk-scale experiments,
so every number here is reproducible bit for bit.
"""

import json
import math
import time

import numpy as np

from sgldlab.bounds import (
    bound_pensia,
    bound_strongly_convex,
    bound_subexp_gen,
    bound_time_independent,
    kl_chain,
)
from sgldlab.cli import main
from sgldlab.constants import derive_constants, subexp_params
from sgldlab.estimators import logmgf_check, pth_moment_check
from sgldlab.fokker_planck import (
    Grid1D,
    evolve_pair,
    fp_step,
    gibbs_density,
    verify_inequality_12,
)
from sgldlab.losses import (
    LogisticRidgeLoss,
    NonconvexRidgeLoss,
    QuadraticLoss,
    certify,
)
from sgldlab.oracle import oracle_trace, verify_kl_recursion, _response_and_var
from sgldlab.sgld import SGLDConfig, run_ensemble, stream

from reference import empirical_gen_gap, ensemble, grad_stability_trace, kl_on_grid, mass

FAMILIES = {
    "quadratic": QuadraticLoss(1.0, 1.0, 2),
    "logistic_ridge": LogisticRidgeLoss(1.0, 1.0, 3),
    "nonconvex_ridge": NonconvexRidgeLoss(1.0, 0.5, 1.0, 3),
}

SAMPLED_CHECKS = ("smoothness", "dissipativity", "origin_gradient",
                  "envelope_lower", "envelope_upper")


def _pass(n, msg):
    print(f"[criterion {n:02d}] PASS - {msg}")


def test_criterion_01_loss_certification():
    """10^5-point certification of all three families, zero violations at 1e-9."""
    t0 = time.monotonic()
    for name, model in FAMILIES.items():
        report = certify(model, n_samples=100_000, rng_seed=0)
        for check in report.checks:
            if check.inequality_name in SAMPLED_CHECKS:
                assert check.n_samples == 100_000
                assert check.n_violations == 0, (
                    f"{name}.{check.inequality_name}: "
                    f"{check.n_violations} violations, "
                    f"worst margin {check.worst_margin}"
                )
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"certification took {elapsed:.1f} s"
    _pass(1, f"3 families x 5 inequalities x 1e5 samples in {elapsed:.1f} s")


def test_criterion_02_gradient_correctness():
    """Central differences match analytic gradients to 1e-5 at 100 points."""
    for name, model in FAMILIES.items():
        report = certify(model, n_samples=100, rng_seed=0)
        fd = next(c for c in report.checks if c.inequality_name == "gradient_fd")
        assert fd.n_samples == 100
        assert fd.n_violations == 0, f"{name}: fd mismatch {fd.witness}"
    _pass(2, "analytic gradients match finite differences, all families")


def test_criterion_03_oracle_equivalence():
    """500-chain ensemble matches the exact Gaussian law within 3 SE."""
    t0 = time.monotonic()
    model = QuadraticLoss(1.0, 1.0, 2)
    cfg = SGLDConfig(eta=0.01, beta=4.0, k=100, n=100, T=5000, d=2,
                     s_sq=1.0, seed=271828)
    dataset = model.sample_data(
        np.random.default_rng(np.random.SeedSequence([cfg.seed, 1])), cfg.n
    )
    traces = ensemble(cfg, model, dataset=dataset, n_chains=500)
    a, v = _response_and_var(cfg.eta, cfg.beta, 1.0, cfg.s_sq, cfg.T)
    zbar = dataset.mean(axis=0)
    N = len(traces)
    for t in (10, 100, 1000, 5000):
        W = np.stack([tr.states[t] for tr in traces])
        mean_se = math.sqrt(v[t] / N)
        var_se = v[t] * math.sqrt(2.0 / (N - 1))
        assert np.all(np.abs(W.mean(axis=0) - a[t] * zbar) <= 3 * mean_se), t
        assert np.all(np.abs(W.var(axis=0, ddof=1) - v[t]) <= 3 * var_se), t
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"oracle comparison took {elapsed:.1f} s"
    _pass(3, f"mean/variance at t in {{10,100,1000,5000}} in {elapsed:.1f} s")


def test_criterion_04_kl_evolution_inequality():
    """Exact KL trace satisfies the discrete contraction; control is caught."""
    model = QuadraticLoss(1.0, 1.0, 2)
    cfg = SGLDConfig(eta=0.01, beta=4.0, k=100, n=100, T=10_000, d=2,
                     s_sq=0.1, seed=1234)
    rng = np.random.default_rng(1234)
    S = model.sample_data(rng, cfg.n)
    S_alt = model.sample_data(rng, cfg.n)
    trace = oracle_trace(S, S_alt, cfg, R=1.0)
    gap_sq = float(np.sum((S.mean(axis=0) - S_alt.mean(axis=0)) ** 2))
    # stability statistic R^2 ||zbar - zbar'||^2 is t-independent, so it is
    # its own supremum over the trajectory
    contraction = math.exp(-cfg.eta * 1.0 / 4.0)
    add = cfg.eta * (cfg.beta / 2.0) * gap_sq
    report = verify_kl_recursion(trace.kl, contraction, add)
    assert report.n_violations == 0
    assert report.worst_slack >= 0.0

    control = verify_kl_recursion(trace.kl, 1.0, 0.0)
    assert control.n_violations > 0
    _pass(4, f"0 violations over T=10^4; control flags {control.n_violations}")


def test_criterion_05_time_independence_vs_linear_growth():
    """Saturated chain bound is T-independent; per-step sum keeps growing."""
    model = QuadraticLoss(1.0, 1.0, 5)
    lc = model.constants()
    dc = derive_constants(lc, eta=0.01, beta=4.0, d=5, s_sq=1.0,
                          lsi_mode="strongly_convex")
    # horizon 4 beta c_LS = 2, so eta T >= 2 from T = 200 on
    values = {}
    for T in (1000, 1_000_000):
        cfg = SGLDConfig(eta=0.01, beta=4.0, k=50, n=50, T=T, d=5, s_sq=1.0,
                         seed=0)
        entry = bound_time_independent(kl_chain(lc, dc, cfg), cfg.n, 0.25)
        assert entry.preconditions_ok and "min-saturated" in entry.notes
        values[T] = entry.value
    rel = abs(values[1000] - values[1_000_000]) / values[1000]
    assert rel <= 1e-12, f"saturated values differ by {rel}"

    infos = {}
    for T in (1000, 1_000_000):
        entry = bound_pensia(np.ones(T), eta=0.01, beta=4.0, d=5, n=50,
                             sigma_g_sq=0.25)
        infos[T] = entry.constants_used["info_bound"]
    ratio = infos[1_000_000] / infos[1000]
    assert ratio >= 100.0, f"information ratio {ratio} under constant variance"
    _pass(5, f"chain bound rel diff {rel:.1e}; info ratio {ratio:.0f}x")


CRIT6_CFG = SGLDConfig(eta=0.01, beta=4.0, k=50, n=50, T=2000, d=5,
                       s_sq=1.0, seed=4242)


def test_criterion_06_validity():
    """Measured surrogate gap sits below both computed bounds, margin >= 10x."""
    t0 = time.monotonic()
    model = QuadraticLoss(1.0, 1.0, 5)
    lc = model.constants()
    cfg = CRIT6_CFG
    sigma_g_sq = 0.25  # surrogate f/(1+f) has range [0, 1]

    (gap,), (gap_se,) = empirical_gen_gap(model, cfg, n_trials=200,
                                          eval_loss="surrogate")
    dc = derive_constants(lc, eta=cfg.eta, beta=cfg.beta, d=cfg.d, s_sq=cfg.s_sq,
                          lsi_mode="strongly_convex")
    chain = bound_time_independent(kl_chain(lc, dc, cfg), cfg.n, sigma_g_sq)
    assert chain.preconditions_ok

    stab, _ = grad_stability_trace(model, cfg, n_pairs=100)
    steps = np.arange(cfg.T + 1)
    trace = np.column_stack([cfg.eta * steps,
                             [max(mean, 0.0) for mean in stab.tolist()]])
    convex = bound_strongly_convex(trace, R=lc.R, beta=cfg.beta, n=cfg.n,
                                   sigma_g_sq=sigma_g_sq, T=cfg.eta * cfg.T)

    for entry in (chain, convex):
        assert gap + 3 * gap_se <= entry.value, (
            f"validity violation: gap {gap} vs {entry.name} {entry.value}"
        )
        assert entry.value / gap >= 10.0, (
            f"margin under 10x: {entry.name} {entry.value} / gap {gap}"
        )
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    _pass(6, f"gap {gap:.2e} <= {convex.value:.2e} (convex) "
             f"<= {chain.value:.2e} (chain), {elapsed:.1f} s")


def test_criterion_07_inverse_sqrt_n_scaling():
    """Bound x sqrt(n) is n-free exactly; measured gap decreases in n."""
    model = QuadraticLoss(1.0, 1.0, 5)
    lc = model.constants()
    n_grid = (50, 100, 200, 400)

    scaled = []
    for n in n_grid:
        cfg = SGLDConfig(eta=0.01, beta=4.0, k=n, n=n, T=1000, d=5, s_sq=1.0,
                         seed=0)
        dc = derive_constants(lc, eta=cfg.eta, beta=cfg.beta, d=cfg.d,
                              s_sq=cfg.s_sq, lsi_mode="strongly_convex")
        entry = bound_time_independent(kl_chain(lc, dc, cfg), n, 0.25)
        scaled.append(entry.value * math.sqrt(n))
    spread = (max(scaled) - min(scaled)) / scaled[0]
    assert spread <= 1e-9, f"sqrt(n-scaled bound varies by {spread}"

    means = []
    for n in n_grid:
        cfg = SGLDConfig(eta=0.01, beta=100.0, k=n, n=n, T=500, d=5, s_sq=1.0,
                         seed=31415)
        (mean,), _ = empirical_gen_gap(model, cfg, n_trials=200,
                                       eval_loss="same_as_f")
        means.append(mean)
    assert all(means[i] > means[i + 1] for i in range(len(means) - 1)), means
    _pass(7, f"scaled spread {spread:.1e}; gap means {np.round(means, 5)}")


def test_criterion_08_fokker_planck_suite():
    """Conservation, fixed point, H-theorem, and dissipation rate at 512 cells."""
    t0 = time.monotonic()
    beta, R = 2.0, 1.0
    grid = Grid1D(-5.0, 5.0, 512)
    w = grid.centers

    # Gibbs fixed point: one step moves no cell by more than 1e-8
    pi = gibbs_density(grid, R * w**2 / 2.0, beta)
    grad = R * w
    dt = 0.45 * grid.h**2 / (2.0 / beta + grid.h * float(np.abs(grad).max()))
    stepped = fp_step(pi, grad, beta, dt)
    assert float(np.abs(stepped.values - pi.values).max()) <= 1e-8

    # mass conservation and H-theorem under relaxation to the fixed point
    rho = gibbs_density(grid, (w - 1.0) ** 2, 1.0)
    kls, mass_drift = [], 0.0
    for _ in range(400):
        kls.append(kl_on_grid(rho, pi))
        before = mass(rho)
        rho = fp_step(rho, grad, beta, dt)
        mass_drift = max(mass_drift, abs(mass(rho) - before))
    assert mass_drift <= 1e-12, f"mass drift {mass_drift}"
    diffs = np.diff(kls)
    assert np.all(diffs <= 1e-9), f"KL rose by {diffs.max()}"

    # two-sample dissipation inequality at two resolutions
    rates = {}
    for n_cells in (256, 512):
        g = Grid1D(-5.0, 5.0, n_cells)
        x = g.centers
        gs, ga = R * (x - 0.2), R * (x + 0.2)
        dtc = 0.45 * g.h**2 / (2.0 / beta + g.h * float(np.abs(gs).max()))
        start = gibbs_density(g, (x - 1.0) ** 2, 1.0)
        run = evolve_pair(g, gs, ga, beta, dtc, int(0.4 / dtc), start, start)
        report = verify_inequality_12(run, beta)
        rates[n_cells] = report.violation_rate
        assert report.violation_rate <= 0.01, (n_cells, report.violation_rate)
    assert rates[512] <= rates[256]
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"FP suite took {elapsed:.1f} s"
    _pass(8, f"drift {mass_drift:.1e}, rates {rates}, {elapsed:.1f} s")


def test_criterion_09_sub_exponentiality():
    """Log-MGF of the logistic loss under its envelope; moments stay flat."""
    model = LogisticRidgeLoss(1.0, 1.0, 5)
    cfg = SGLDConfig(eta=0.05, beta=2.0, k=20, n=20, T=2000, d=5, s_sq=1.0,
                     seed=16180)
    finals = run_ensemble(cfg, model, n_datasets=2000, n_chains=1)
    Z = model.sample_data(
        np.random.default_rng(stream(cfg.seed, "logmgf_points")), 2000
    )
    samples = model.eval_many(finals, Z)

    pars = subexp_params(model.constants(), beta=cfg.beta, d=cfg.d,
                         s_sq=cfg.s_sq)
    cap = 1.0 / (2.0 * pars["nu"])
    grid = np.linspace(-0.95 * cap, 0.95 * cap, 9)
    report = logmgf_check(samples, pars["sigma_e_sq"], pars["nu"], grid,
                          rng_seed=cfg.seed)
    assert report.n_violations == 0
    assert report.n_samples == 2000
    assert all(lo <= point <= hi or lam == 0.0
               for lam, point, lo, hi in zip(report.lambdas, report.logmgf,
                                             report.band_lo, report.band_hi))

    moments = pth_moment_check(finals, [2, 4, 6, 8, 10, 12],
                               model.constants(), beta=cfg.beta, d=cfg.d,
                               s_sq=cfg.s_sq)
    base = moments.fitted_C[moments.p_values.index(2)]
    assert max(moments.fitted_C) <= 2.0 * base
    assert moments.fitted_C_bounded
    _pass(9, f"0/{len(grid)} envelope violations; fitted C in "
             f"[{min(moments.fitted_C):.3f}, {max(moments.fitted_C):.3f}]")


def test_criterion_10_rate_function_inverse():
    """Branch agreement at the knee where continuity holds; parameter identity."""
    # at nu = 1 the two branch formulas agree exactly at the switch point
    for sigma_e_sq in (0.5, 2.0, 8.0):
        knee = sigma_e_sq / 2.0
        sqrt_side = bound_subexp_gen(knee, sigma_e_sq, 1.0).value
        lin_side = 1.0 * knee + sigma_e_sq / 2.0
        assert sqrt_side == lin_side, (sigma_e_sq, sqrt_side, lin_side)

    # every emitted parameter pair satisfies sigma_e_sq nu^2 = 1, and its
    # branch switch can only step upward (the bound stays valid)
    for model in FAMILIES.values():
        for beta in (2.0, 4.0, 16.0):
            for s_sq in (0.5, 1.0):
                pars = subexp_params(model.constants(), beta=beta,
                                     d=model.d, s_sq=s_sq)
                identity = pars["sigma_e_sq"] * pars["nu"] ** 2
                assert abs(identity - 1.0) <= 1e-12
                knee = pars["sigma_e_sq"] / (2.0 * pars["nu"])
                below = math.sqrt(2.0 * pars["sigma_e_sq"] * knee)
                above = pars["nu"] * knee + pars["sigma_e_sq"] / (2.0 * pars["nu"])
                assert above >= below
    _pass(10, "knee continuity exact at nu=1; sigma_e_sq nu^2 = 1 identically")


def test_criterion_11_reproducibility(tmp_path):
    """run/bounds/verify twice with one config: every CSV byte-identical."""
    config = {
        "loss": {"family": "quadratic", "R": 1.0, "d": 2},
        "sgld": {"eta": 0.05, "beta": 4.0, "k": 5, "T": 60, "s_sq": 1.0,
                 "seed": 77},
        "data": {"n": 20},
        "bounds": {"sigma_g_sq": 0.25},
        "estimators": {"n_trials": 4, "n_chains": 6, "n_resamples": 40,
                       "n_pairs": 6},
        "fp": {"n_cells": 64, "T_end": 0.1},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))

    compared = 0
    for command, extra in (("run", []), ("bounds", []), ("verify", [])):
        dirs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{command}_{tag}"
            argv = [command, "--config", str(cfg), "--out", str(out)] + extra
            if command == "bounds":
                argv += ["--traces", str(tmp_path / "run_a")]
            assert main(argv) == 0, command
            dirs.append(out)
        for csv_path in sorted(dirs[0].glob("*.csv")):
            twin = dirs[1] / csv_path.name
            assert csv_path.read_bytes() == twin.read_bytes(), (
                f"{command}/{csv_path.name} differs between identical runs"
            )
            compared += 1
    assert compared >= 10
    _pass(11, f"{compared} CSV files byte-identical across reruns")
