"""Generalization and excess-risk bound formulas, evaluated into reports.

Each bound evaluator is a pure function returning a BoundEntry: the value,
the inputs it saw, the constants it consumed, whether its preconditions
held, and short flag notes ("heuristic-constant", "comparison-only",
"order-level", ...). `write_bounds_csv` writes entries as a flat CSV; their
JSON form is the list of the entries' dicts. `evaluate_grid`
evaluates the bounds a config names over a (T, n) grid from a run's
traces, and is the one place that says which bound has no value where.

Conventions shared by every evaluator: sigma_g_sq is the sub-Gaussian
variance proxy of the evaluation loss (1/4 for losses clipped to [0, 1]),
n is the dataset size the bound speaks about, and the headline value is
always the generalization-gap scale, after the sqrt(2 sigma_g_sq KL / n)
conversion wherever the underlying quantity is an information measure.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .constants import DerivedConstants, admissibility_failures, kl_recursion_constants
from .losses import LossConstants, LossModel, QuadraticLoss
from .oracle import _response_and_var, oracle_mi_from_gaps, oracle_pair_gaps
from .sgld import SGLDConfig, _stored_steps, write_csv

__all__ = [
    "BoundEntry",
    "write_bounds_csv",
    "BOUND_NAMES",
    "BOUNDS_CSV_COLUMNS",
    "KLChain",
    "kl_chain",
    "bound_xu_raginsky",
    "bound_pensia",
    "bound_time_independent",
    "bound_strongly_convex",
    "bound_farghly_shape",
    "bound_subexp_gen",
    "excess_risk_bound",
    "horizon_grid",
    "evaluate_grid",
]

BOUND_NAMES = (
    "xu_raginsky",
    "pensia",
    "time_independent",
    "strongly_convex",
    "farghly_shape",
    "subexp_gen",
    "excess_risk",
)

BOUNDS_CSV_COLUMNS = ("name", "value", "T", "n", "eta", "beta", "flags")


@dataclass(frozen=True)
class BoundEntry:
    """One evaluated bound: value plus full provenance of the evaluation."""

    name: str
    value: float | None
    inputs: dict = field(default_factory=dict)
    constants_used: dict = field(default_factory=dict)
    preconditions_ok: bool = True
    notes: tuple = ()

    def __post_init__(self) -> None:
        if self.preconditions_ok and self.value is not None:
            if not (self.value >= 0 and math.isfinite(self.value)):
                raise ValueError(
                    f"bound {self.name!r}: value {self.value} must be "
                    "nonnegative and finite when preconditions hold"
                )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def write_bounds_csv(path, entries) -> None:
    """One row per entry; (T, n, eta, beta) cells are empty when absent."""
    write_csv(path, BOUNDS_CSV_COLUMNS,
              [(e.name, None if e.value is None else float(e.value),
                *(e.inputs.get(key) for key in ("T", "n", "eta", "beta")),
                "|".join(e.notes))
               for e in entries])


def _gen_from_info(sigma_g_sq: float, n: int, info: float) -> float:
    # sqrt(2 sigma_g_sq I / n): information measure to gap scale
    return math.sqrt(2.0 * sigma_g_sq * info / n)


# ----------------------------------------------------------- mutual information


def bound_xu_raginsky(sigma_g_sq: float, n: int, mi_upper: float) -> BoundEntry:
    """Gap bound sqrt(2 sigma_g_sq mi_upper / n) from a MI upper bound."""
    if mi_upper < 0:
        raise ValueError(f"mi_upper must be nonnegative, got {mi_upper}")
    if not sigma_g_sq > 0:
        raise ValueError(f"sigma_g_sq must be positive, got {sigma_g_sq}")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    return BoundEntry(
        name="xu_raginsky",
        value=_gen_from_info(sigma_g_sq, n, mi_upper),
        inputs={"n": n, "sigma_g_sq": sigma_g_sq, "mi_upper": mi_upper},
    )


def bound_pensia(
    variance_trace, eta: float, beta: float, d: int, n: int, sigma_g_sq: float
) -> BoundEntry:
    """Per-update MI accumulation from conditional gradient variances.

    Each entry of variance_trace is the conditional gradient variance at
    the state one update consumes, so the information bound is the sum of
    (d/2) log(1 + beta eta Var / d) over the passed entries. A state-
    indexed trace of length T+1 should be passed without its final entry.
    """
    var = np.asarray(variance_trace, dtype=float)
    if var.ndim != 1:
        raise ValueError("variance_trace must be a flat sequence")
    if var.size and var.min() < 0:
        raise ValueError(f"variance entries must be nonnegative, min {var.min()}")
    info = 0.5 * d * float(np.log1p(beta * eta * var / d).sum())
    return BoundEntry(
        name="pensia",
        value=_gen_from_info(sigma_g_sq, n, info),
        inputs={"n": n, "eta": eta, "beta": beta, "d": d, "sigma_g_sq": sigma_g_sq,
                "T": int(var.size)},
        constants_used={"info_bound": info},
    )


# ------------------------------------------------------ time-independent chain


@dataclass(frozen=True)
class KLChain:
    """The KL bound of the per-step recursion at one horizon, or why it is void.

    It depends on neither n nor sigma_g_sq, so one evaluation per horizon
    serves `bound_time_independent`, `bound_subexp_gen` and the excess risk.
    """

    config: SGLDConfig
    kl: float | None          # None outside the admissible (beta, eta) ranges
    constants_used: dict = field(default_factory=dict)
    notes: tuple = ()         # the failed checks when kl is None


def kl_chain(lc: LossConstants, dc: DerivedConstants, config: SGLDConfig) -> KLChain:
    """Horizon-saturating KL bound of the per-step KL recursion.

    KL_T <= 4 beta c_LS * min(1, eta T / (4 beta c_LS)) * (V + c3) /
    (1 - eta/(4 beta c_LS)) with V = beta D1 / 2 and c3 = D2/(4 beta c_LS)
    + D3/(2 beta) from `kl_recursion_constants`. Outside the admissible
    (beta, eta) ranges (`admissibility_failures`) there is no bound and the
    failed checks are the notes.
    """
    eta, beta, T = config.eta, config.beta, config.T
    failures = admissibility_failures(lc, eta, beta, dc.c_LS)
    if failures:
        return KLChain(config=config, kl=None, notes=tuple(failures))
    rec = kl_recursion_constants(dc, eta, beta)
    horizon = rec["horizon"]
    stability, const = rec["stability_coeff"], rec["const_coeff"]
    saturation = min(1.0, eta * T / horizon)
    kl = horizon * saturation * (stability + const) / (1.0 - eta / horizon)
    notes = list(dc.notes)
    if saturation == 1.0:
        notes.append("min-saturated")
    return KLChain(
        config=config,
        kl=kl,
        constants_used={
            "c_LS": dc.c_LS,
            "D1": dc.D1,
            "D2": dc.D2,
            "D3": dc.D3,
            "kl_bound": kl,
            "stability_coeff": stability,
            "const_coeff": const,
        },
        notes=tuple(notes),
    )


def bound_time_independent(chain: KLChain, n: int, sigma_g_sq: float) -> BoundEntry:
    """Time-independent gap bound sqrt(2 sigma_g_sq KL_T / n) from `kl_chain`.

    Without a KL bound no value is produced and the chain's failed checks
    are the notes.
    """
    cfg = chain.config
    return BoundEntry(
        name="time_independent",
        value=None if chain.kl is None else _gen_from_info(sigma_g_sq, n, chain.kl),
        inputs={"n": n, "eta": cfg.eta, "beta": cfg.beta, "T": cfg.T,
                "sigma_g_sq": sigma_g_sq},
        constants_used=chain.constants_used,
        preconditions_ok=chain.kl is not None,
        notes=chain.notes,
    )


# ------------------------------------------------------------- strongly convex


def bound_strongly_convex(
    grad_diff_trace,
    R: float,
    beta: float,
    n: int,
    sigma_g_sq: float,
    T: float,
) -> BoundEntry:
    """Gap bound from the exponentially weighted gradient-stability integral.

    grad_diff_trace is an (N, 2) array of rows (t, value) covering [0, T]
    in continuous time; the integral int_0^T e^{-(T-t) R/4} value(t) dt is
    computed by trapezoid on the given stamps with exact weights, and the
    bound is sqrt((2 beta sigma_g_sq / n) * integral).
    """
    trace = np.asarray(grad_diff_trace, dtype=float)
    if trace.size == 0:
        raise ValueError("grad_diff_trace is empty")
    if trace.ndim != 2 or trace.shape[1] != 2:
        raise ValueError("grad_diff_trace must be rows of (t, value)")
    if not R > 0:
        raise ValueError(f"R must be positive, got {R}")
    stamps, values = trace[:, 0], trace[:, 1]
    if values.min() < 0:
        raise ValueError("gradient-difference values must be nonnegative")
    if T > 0:
        if stamps.shape[0] < 2 or np.any(np.diff(stamps) <= 0):
            raise ValueError("time stamps must be strictly increasing")
        cover = 1e-9 * max(1.0, T)
        if stamps[0] > cover or stamps[-1] < T - cover:
            raise ValueError(
                f"trace [{stamps[0]}, {stamps[-1]}] does not cover [0, {T}]"
            )
        weighted = np.exp(-(T - stamps) * R / 4.0) * values
        integral = float(
            np.sum((stamps[1:] - stamps[:-1]) * (weighted[1:] + weighted[:-1])) / 2.0
        )
    else:
        integral = 0.0
    return BoundEntry(
        name="strongly_convex",
        value=math.sqrt(2.0 * beta * sigma_g_sq * integral / n),
        inputs={"n": n, "beta": beta, "R": R, "T": T, "sigma_g_sq": sigma_g_sq},
        constants_used={"weighted_integral": integral},
    )


# ------------------------------------------------------------ shape comparison


def bound_farghly_shape(
    C1: float, C2: float, eta: float, T: int, n: int, k: int, m: float | None = None
) -> BoundEntry:
    """Comparison-only shape C1 (eta T ^ n(C2+1)/(n-k)) (k/(n sqrt(eta)) + sqrt(eta)).

    C1 and C2 are user-supplied stand-ins for constants this artifact does
    not derive; the entry is flagged accordingly. When the dissipativity
    slope m is supplied the step-size condition eta <= 1/(2m) is checked
    and failure clears preconditions_ok, but the shape is still computed.
    """
    if not (C1 > 0 and C2 > 0):
        raise ValueError(f"C1 and C2 must be positive, got C1={C1}, C2={C2}")
    if n <= k:
        raise ValueError(f"need n > k, got n={n}, k={k}")
    if not (eta > 0 and T >= 0):
        raise ValueError("need eta > 0 and T >= 0")
    notes = ["comparison-only"]
    ok = True
    if m is not None and eta > 1.0 / (2.0 * m):
        ok = False
        notes.append(f"eta={eta} > 1/(2m)={1.0 / (2.0 * m)}")
    saturation = min(eta * T, n * (C2 + 1.0) / (n - k))
    value = C1 * saturation * (k / (n * math.sqrt(eta)) + math.sqrt(eta))
    return BoundEntry(
        name="farghly_shape",
        value=value,
        inputs={"n": n, "k": k, "eta": eta, "T": T, "C1": C1, "C2": C2},
        constants_used={"saturation": saturation},
        preconditions_ok=ok,
        notes=tuple(notes),
    )


# ------------------------------------------------------------- sub-exponential


def bound_subexp_gen(y: float, sigma_e_sq: float, nu: float) -> BoundEntry:
    """Piecewise conjugate-inverse bound for sub-exponential losses.

    sqrt(2 sigma_e_sq y) while y <= sigma_e_sq/(2 nu), then the linear
    continuation nu y + sigma_e_sq/(2 nu). The active branch is recorded.
    The input y is the per-datum information rate, a KL bound divided by n.
    """
    if y < 0:
        raise ValueError(f"y must be nonnegative, got {y}")
    if not (sigma_e_sq > 0 and nu > 0):
        raise ValueError("sigma_e_sq and nu must be positive")
    knee = sigma_e_sq / (2.0 * nu)
    if y <= knee:
        value, branch = math.sqrt(2.0 * sigma_e_sq * y), "sqrt"
    else:
        value, branch = nu * y + knee, "linear"
    return BoundEntry(
        name="subexp_gen",
        value=value,
        inputs={"y": y, "sigma_e_sq": sigma_e_sq, "nu": nu},
        constants_used={"knee": knee},
        notes=(f"branch={branch}",),
    )


# ----------------------------------------------------------------- excess risk


def excess_risk_bound(
    lc: LossConstants,
    dc: DerivedConstants,
    config: SGLDConfig,
    n: int,
    gen_bound: float,
) -> BoundEntry:
    """Excess-risk decomposition: gap + sampler convergence + Gibbs suboptimality.

    The Gibbs term is exact: (d / (2 beta)) log((e M / m)(b beta / d + 1)).
    The convergence term is order-level only: leading constants
    (M sqrt(C0) + M sqrt(b/m)) times sqrt(c_LS kl_to_gibbs) with
    kl_to_gibbs = e^{-2 T eta/(beta c_LS)} + eta, and is flagged as such.
    The value is the sum of the three terms.
    """
    if gen_bound < 0:
        raise ValueError(f"gen_bound must be nonnegative, got {gen_bound}")
    beta, d, eta, T = config.beta, config.d, config.eta, config.T
    minimization = (d / (2.0 * beta)) * math.log(
        (math.e * lc.M / lc.m) * (lc.b * beta / d + 1.0)
    )
    kl_to_gibbs = math.exp(-2.0 * T * eta / (beta * dc.c_LS)) + eta
    convergence = (lc.M * math.sqrt(dc.C0) + lc.M * math.sqrt(lc.b / lc.m)) * math.sqrt(
        dc.c_LS * kl_to_gibbs
    )
    total = gen_bound + convergence + minimization
    notes = ("order-level-convergence-term",) + tuple(dc.notes)
    return BoundEntry(
        name="excess_risk",
        value=total,
        inputs={"n": n, "eta": eta, "beta": beta, "T": T, "gen_bound": gen_bound},
        constants_used={
            "gen_term": gen_bound,
            "convergence_term": convergence,
            "minimization_term": minimization,
            "kl_to_gibbs": kl_to_gibbs,
        },
        notes=notes,
    )


# ------------------------------------------------------------------ the grid


def horizon_grid(T_grid, T: int) -> list:
    """The horizons `evaluate_grid` evaluates for a run of horizon T: the
    entries of `T_grid`, each a step the run stores (`sgld._stored_steps`),
    or when `T_grid` is None {0, T/4, T/2, T}, each at the last stored step
    not after it."""
    steps = _stored_steps(T)
    if T_grid is None:
        at = np.searchsorted(steps, [0, T // 4, T // 2, T], side="right")
        return sorted({int(step) for step in steps[at - 1]})
    for t in T_grid:
        if t not in steps:
            raise ValueError(f"entry {t} is not a step a run of T = {T} stores")
    return list(T_grid)


def evaluate_grid(model: LossModel, dc, b: dict, config: SGLDConfig, variance,
                  stability, T_grid, n_grid, mi_pairs: int) -> list:
    """The bounds `b["which"]` names at every (T, n) of the grid, T outer,
    each point's entries in `which` order and stamped with (T, n, eta,
    beta). A bound with no value at a point is an entry without one, its
    note the reason.

    `b` is a config's bounds block, `config` the run's SGLDConfig and `dc`
    its derived constants, or why they are undefined. `variance` and
    `stability` are the run's (steps, values) traces, at the steps
    `sgld._stored_steps(config.T)`; a negative value is read as 0, and the
    variance holds its value over the steps a strided trace skips. T_grid
    is `horizon_grid`'s; n_grid None is the run's n. xu_raginsky's exact
    MI is the oracle's, averaged over `mi_pairs` dataset pairs drawn once
    per n.
    """
    lc, which, sigma_g_sq = model.constants(), b["which"], b["sigma_g_sq"]
    eta, beta = config.eta, config.beta
    T_grid = horizon_grid(T_grid, config.T)
    n_grid = n_grid or [config.n]
    # each update's conditional variance: the updates after a stored step in
    # `skips` repeat its value
    var_steps, stab_steps = variance[0], stability[0]
    per_update = np.repeat(np.maximum(variance[1], 0.0),
                           np.diff(np.append(var_steps, var_steps[-1] + 1)))
    skips = var_steps[:-1][np.diff(var_steps) > 1]
    stab_values = np.maximum(stability[1], 0.0)
    # the oracle's law is exact for the full-batch quadratic chain, at the
    # model's own R, not a claimed one; its dataset pairs depend on n alone
    # and its response on T alone, so the pairs are drawn once per n and
    # the response run once
    exact_mi = isinstance(model, QuadraticLoss) and config.k == config.n
    if exact_mi and "xu_raginsky" in which and sigma_g_sq is not None:
        pair_gaps = {n: oracle_pair_gaps(model, config.seed, n, mi_pairs) for n in n_grid}
        a, v = _response_and_var(eta, beta, model.R, config.s_sq, max(T_grid))

    def evaluate(name, cfg, n, chain, trace, point):
        """`name`'s entry at (cfg.T, n), or the reason it has none."""
        T = cfg.T
        if sigma_g_sq is None and name in (
                "xu_raginsky", "pensia", "time_independent", "strongly_convex"):
            return "sigma_g_sq-unavailable"
        if name == "xu_raginsky":
            if not exact_mi:
                return "exact-mi-needs-full-batch-quadratic"
            return bound_xu_raginsky(sigma_g_sq, n,
                                     oracle_mi_from_gaps(pair_gaps[n], a[T], v[T]))
        if name == "pensia":
            entry = bound_pensia(per_update[:T], eta=eta, beta=beta, d=cfg.d, n=n,
                                 sigma_g_sq=sigma_g_sq)
            if np.any(skips < T):
                entry = dataclasses.replace(
                    entry, notes=entry.notes + ("variance-trace-strided",))
            return entry
        if name == "strongly_convex":
            if lc.R is None:
                return "needs-R"
            return bound_strongly_convex(trace, R=lc.R, beta=beta, n=n,
                                         sigma_g_sq=sigma_g_sq, T=eta * T)
        if name == "farghly_shape":
            if cfg.k >= min(cfg.n, n):
                return "needs-subsampling"
            return bound_farghly_shape(b["farghly_C1"], b["farghly_C2"], eta=eta, T=T,
                                       n=n, k=cfg.k, m=lc.m)
        if isinstance(chain, str):  # the KL chain's bounds, without dc
            return chain
        if name == "time_independent":
            return bound_time_independent(chain, n, sigma_g_sq)
        if name == "subexp_gen":
            if chain.kl is None:
                return "kl-chain-unavailable"
            sub = bound_subexp_gen(chain.kl / n, dc.sigma_e_sq, dc.nu)
            return dataclasses.replace(sub, notes=sub.notes + tuple(dc.notes))
        gen = point["subexp_gen"]  # excess_risk
        if isinstance(gen, str):
            return gen
        return excess_risk_bound(lc, dc, cfg, n, gen.value)

    # excess_risk reads its point's subexp_gen, which BOUND_NAMES puts first
    needed = [name for name in BOUND_NAMES if name in which
              or (name == "subexp_gen" and "excess_risk" in which)]
    entries = []
    for T in T_grid:
        cfg = dataclasses.replace(config, T=T)
        keep = stab_steps <= T
        trace = np.column_stack([eta * stab_steps[keep], stab_values[keep]])
        chain = dc if isinstance(dc, str) else kl_chain(lc, dc, cfg)
        for n in n_grid:
            point = {}
            for name in needed:
                point[name] = evaluate(name, cfg, n, chain, trace, point)
            for name in which:
                entry = point[name]
                if isinstance(entry, str):
                    entry = BoundEntry(name=name, value=None, preconditions_ok=False,
                                       notes=(entry,))
                # uniform (T, n, eta, beta) keys so every CSV row is addressable
                stamped = {**entry.inputs, "T": T, "n": n, "eta": eta, "beta": beta}
                entries.append(dataclasses.replace(entry, inputs=stamped))
    return entries
