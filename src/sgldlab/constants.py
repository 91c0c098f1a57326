"""Derived theoretical constants for SGLD over certified losses.

Everything here is a closed-form function of the certified loss constants
(M, m, b, A, optionally R), the algorithm hyperparameters (eta, beta, k, n,
d, s_sq) and a handful of non-explicit universal constants that default to 1
and are flagged heuristic wherever they enter.

The constant chains, in dependency order:

* `moment_bound_C0`: along the whole trajectory E||W_t||^2 <= C0 with
  C0 = s^2 + 2 max(1, 1/m) (b + 10 eta M^2 b/m + d/beta), valid for
  eta in (0, min(1, m/(5 M^2))).

* `moment_lemma_bound`: the trajectory moment lemma, (E||W_t||^p)^(1/p)
  <= C ((E||W_0||^p)^(1/p) + sqrt((p + beta b + d)/(beta m))), at C = 1;
  `estimators.pth_moment_check` fits C to the final states.

* `lsi_constant`: the stationary law of the dynamics satisfies a
  log-Sobolev inequality. Two modes, of which `lsi_route` picks the one a
  loss takes:
  - strongly_convex: the Gibbs potential beta*F is beta*R-strongly convex,
    giving c_LS = 1/(2 beta R).
  - general_dissipative: an explicit but enormously conservative constant
    assembled from a drift term 2(2m^2+8M^2)/(beta m^2 M), a tail term
    6M(d+beta)/m, and a base-measure factor rho0_inv that is exponential in
    (b beta + d)/m. The universal prefactor C defaults to 1 (heuristic).

* KL-recursion constants `D1..D3` (built inside `derive_constants`): one
  discrete update contracts the KL divergence to the stationary law by
  exp(-eta/(4 beta c_LS)) and adds eta (D2/(4 beta c_LS) + D3/(2 beta)
  + beta D1/2), with D1 = 2 (D4 + D5). D4 and D5 live only inside
  `_kl_recursion_D`, which sums them into D1. D2 and D5 contain constants
  from a short-time transition density expansion that the theory leaves
  unspecified; they are taken from `ParametrixOverrides` (defaults C1' =
  C2' = 1, C0~ = 1, C1~ = 0, flagged heuristic).

* `subexp_params`: the training loss evaluated along the dynamics is
  sub-exponential. From the moment growth (E|f(W_T)|^p)^(1/p)
  <= C0_f + C1_f p one gets E f^p <= C5^p p^p with C5 = C0_f + C1_f, and
  the moment generating function envelope constants sigma_e_sq = 4 e^2
  C5^2, nu = 1/(2 e C5). These satisfy sigma_e_sq * nu^2 = 1 identically.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .losses import LossConstants

LSI_MODES = ("strongly_convex", "general_dissipative")  # `lsi_constant` modes

__all__ = [
    "LSI_MODES",
    "ParametrixOverrides",
    "DerivedConstants",
    "moment_bound_C0",
    "moment_lemma_bound",
    "lsi_route",
    "lsi_constant",
    "kl_recursion_constants",
    "admissibility_failures",
    "subexp_params",
    "derive_constants",
    "check_universal_C",
]


@dataclass(frozen=True)
class ParametrixOverrides:
    """Non-explicit constants of the short-time density expansion.

    The theory proves existence but gives no values; defaults are 1 (and 0
    for the quadratic-in-time coefficient, whose contribution over one step
    of length eta is negligible). Every derived constant using them is
    heuristic to the same degree.
    """

    C1_prime: float = 1.0
    C2_prime: float = 1.0
    C0_tilde: float = 1.0
    C1_tilde: float = 0.0
    heuristic: bool = True

    def __post_init__(self) -> None:
        for name in ("C1_prime", "C2_prime", "C0_tilde", "C1_tilde"):
            value = getattr(self, name)
            if not (value >= 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be nonnegative and finite, got {value}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class DerivedConstants:
    """The derived constants the bounds read, for one configuration.

    Fields:
        c_LS: log-Sobolev constant of the stationary law.
        C0: uniform-in-time second-moment bound E||W_t||^2 <= C0.
        D1..D3: per-step KL-recursion constants (see `_kl_recursion_D`).
        sigma_e_sq, nu: sub-exponential parameters of the training loss.
        notes: provenance flags (heuristic constants, LSI mode).
    """

    c_LS: float
    C0: float
    D1: float
    D2: float
    D3: float
    sigma_e_sq: float
    nu: float
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name in ("c_LS", "C0", "D1", "D2", "D3", "sigma_e_sq", "nu"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(f"derived constant {name} must be positive and finite, got {v}")


# ------------------------------------------------------------------- moments


def moment_bound_C0(lc: LossConstants, eta: float, beta: float, d: int, s_sq: float) -> float:
    """Uniform-in-time second-moment bound of the iterates.

    C0 = s^2 + 2 max(1, 1/m) (b + 10 eta M^2 b/m + d/beta), valid for step
    sizes eta in (0, min(1, m/(5 M^2))).
    """
    _check_positive(beta=beta, s_sq=s_sq)
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    failures = _eta_failures(lc, eta)
    if not eta > 0 or failures:
        raise ValueError(
            f"eta={eta} outside the validity range (0, min(1, m/(5 M^2)))"
            + "".join(f"; {f}" for f in failures)
        )
    return s_sq + _moment_core(lc, eta, beta, d)


def _moment_core(lc: LossConstants, eta: float, beta: float, d: int) -> float:
    # C0 - s^2; at eta = 1 its worst case over the step sizes in (0, 1],
    # which the step-size free recursion constants use
    return 2.0 * max(1.0, 1.0 / lc.m) * (
        lc.b + 10.0 * eta * lc.M**2 * lc.b / lc.m + d / beta
    )


def moment_lemma_bound(lc: LossConstants, beta: float, d: int, s_sq: float, p: int) -> float:
    """The trajectory moment lemma at universal constant 1:
    (E||W_t||^p)^(1/p) <= (E||W_0||^p)^(1/p) + sqrt((p + beta b + d)/(beta m)),
    the initial moment exact for the Gaussian start W_0 ~ N(0, s_sq I_d)."""
    return _gaussian_norm_moment(d, s_sq, p) + math.sqrt((p + beta * lc.b + d)
                                                        / (beta * lc.m))


def _gaussian_norm_moment(d: int, s_sq: float, p: int) -> float:
    # (E ||W_0||^p)^(1/p) for W_0 ~ N(0, s_sq I_d): s * (E chi_d^p)^(1/p)
    logm = (p / 2.0) * math.log(2.0) + math.lgamma((d + p) / 2.0) - math.lgamma(d / 2.0)
    return math.sqrt(s_sq) * math.exp(logm / p)


# ----------------------------------------------------------------------- LSI


def lsi_route(lc: LossConstants) -> str:
    """The `lsi_constant` mode a loss takes: strongly_convex if and only if
    it has a strong-convexity modulus R, else general_dissipative."""
    return "strongly_convex" if lc.R is not None else "general_dissipative"


def lsi_constant(
    lc: LossConstants,
    beta: float,
    d: int,
    mode: str,
    universal_C: float = 1.0,
) -> float:
    """Log-Sobolev constant of the stationary law, by one of two routes.

    strongly_convex: requires the family's strong-convexity modulus R; the
    Gibbs potential beta*F is then beta*R-strongly convex and
    c_LS = 1/(2 beta R).

    general_dissipative: requires beta >= 2/m; returns
    2 drift + 2 rho0_inv (tail + 2) with
        drift    = (2 m^2 + 8 M^2) / (beta m^2 M)
        tail     = 6 M (d + beta) / m
        rho0_inv = (2 C (d + b beta) / (m beta))
                   * exp((2/m)(M + B)(b beta + d) + beta (A + B))
                   + 1/(m beta (d + b beta))
    where B = `LossConstants.origin_grad_bound` bounds the gradient at the
    origin and C is an unspecified universal constant (default 1,
    heuristic). The exponential makes this astronomically conservative; it
    exists to make the chain fully explicit, not to be tight.
    """
    _check_positive(beta=beta)
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    if mode == "strongly_convex":
        if lc.R is None:
            raise ValueError("strongly_convex mode requires a strong-convexity modulus R")
        return 1.0 / (2.0 * beta * lc.R)
    if mode != "general_dissipative":
        raise ValueError(f"unknown mode {mode!r}")
    failures = _beta_failures(lc, beta)
    if failures:
        raise ValueError(f"general_dissipative mode requires {failures[0]}")
    check_universal_C(universal_C)
    M, m, b, A = lc.M, lc.m, lc.b, lc.A
    B = lc.origin_grad_bound
    drift = (2.0 * m**2 + 8.0 * M**2) / (beta * m**2 * M)
    tail = 6.0 * M * (d + beta) / m
    exponent = (2.0 / m) * (M + B) * (b * beta + d) + beta * (A + B)
    try:
        growth = math.exp(exponent)
    except OverflowError:
        growth = math.inf
    rho0_inv = (
        2.0 * universal_C * (d + b * beta) / (m * beta) * growth
        + 1.0 / (m * beta * (d + b * beta))
    )
    c_LS = 2.0 * drift + 2.0 * rho0_inv * (tail + 2.0)
    if c_LS == math.inf:
        raise ValueError(f"general_dissipative mode overflows: c_LS, with a factor "
                         f"exp({exponent:g}), exceeds the float range")
    return c_LS


# ------------------------------------------------------------- KL recursion


def _kl_recursion_D(
    lc: LossConstants,
    beta: float,
    d: int,
    s_sq: float,
    eta: float,
    overrides: ParametrixOverrides,
) -> tuple[float, float, float]:
    """The constants (D1, D2, D3) of the one-step KL recursion, D1 being
    2 (D4 + D5).

    All are step-size free except D5's quadratic-in-time expansion term,
    evaluated at its worst case t = eta over the step interval. Built from
    the eta-free second-moment core
    S = s^2 + 2 max(1, 1/m)(b + 10 M^2 b/m + d/beta).
    """
    M, m, b, A = lc.M, lc.m, lc.b, lc.A
    S = s_sq + _moment_core(lc, 1.0, beta, d)

    D2 = (
        beta**2 * M**2 * (S + b / m)
        + d * overrides.C1_prime / math.sqrt(2.0 * math.pi * s_sq)
        + d * overrides.C2_prime
    )
    B1 = (d / 2.0) * math.log(2.0 * math.pi * s_sq) + (1.0 / (2.0 * s_sq)) * (
        s_sq + 2.0 * _moment_core(lc, 1.0, beta, d)
    )
    B2 = beta * M * S + beta * b / (2.0 * m) + A
    D3 = B1 + B2
    D4 = M**2 * S + M**2 * b / m
    D5 = 2.0 * M**2 * overrides.C0_tilde * (overrides.C1_tilde * eta**2 + S) + 2.0 * M**2 * b / m
    return 2.0 * (D4 + D5), D2, D3


def kl_recursion_constants(dc: DerivedConstants, eta: float, beta: float) -> dict:
    """Per-step contraction and additive drift of the KL recursion.

    One discrete update satisfies
        KL_t <= contraction * KL_{t-1} + per_step_add
    with contraction = exp(-eta/horizon), horizon = 4 beta c_LS, and
    per_step_add = eta (D2/(4 beta c_LS) + D3/(2 beta) + beta D1/2).
    The additive part splits into a gradient-stability piece
    stability_coeff = beta D1 / 2 and a constant piece
    const_coeff = D2/(4 beta c_LS) + D3/(2 beta), both per unit step.
    """
    _check_positive(eta=eta, beta=beta)
    tau, failures = _kl_horizon(eta, beta, dc.c_LS)
    if failures:
        raise ValueError(f"{failures[0]}; the unrolled recursion bound is invalid")
    stability_coeff = beta * dc.D1 / 2.0
    const_coeff = dc.D2 / tau + dc.D3 / (2.0 * beta)
    return {
        "horizon": tau,
        "contraction": math.exp(-eta / tau),
        "per_step_add": eta * (stability_coeff + const_coeff),
        "stability_coeff": stability_coeff,
        "const_coeff": const_coeff,
    }


def admissibility_failures(
    lc: LossConstants, eta: float, beta: float, c_LS: float | str
) -> list[str]:
    """Which validated (beta, eta) ranges of the KL chain a configuration leaves.

    Checks, in order: beta >= 2/m, eta < m/(5 M^2), eta < 1, and
    eta < 4 beta c_LS; c_LS is why `lsi_constant` is undefined when it is,
    and the last check is then reported as unavailable for that reason.
    """
    failures = _beta_failures(lc, beta) + _eta_failures(lc, eta)
    if isinstance(c_LS, str):
        failures.append(f"eta < 4 beta c_LS unavailable: {c_LS}")
    else:
        failures += _kl_horizon(eta, beta, c_LS)[1]
    return failures


def _kl_horizon(eta: float, beta: float, c_LS: float) -> tuple[float, list[str]]:
    # the KL recursion's horizon 4 beta c_LS, and the failure eta >= it,
    # at which the unrolled recursion bound is invalid
    horizon = 4.0 * beta * c_LS
    if eta >= horizon:
        return horizon, [f"eta < 4 beta c_LS violated: eta={eta} >= {horizon}"]
    return horizon, []


def _beta_failures(lc: LossConstants, beta: float) -> list[str]:
    if beta < 2.0 / lc.m:
        return [f"beta >= 2/m violated: beta={beta} < {2.0 / lc.m}"]
    return []


def _eta_failures(lc: LossConstants, eta: float) -> list[str]:
    # the moment lemma's step-size range (0, min(1, m/(5 M^2)))
    failures = []
    cap_m = lc.m / lc.M / (5.0 * lc.M)  # M**2 underflows to 0 below M = 1e-162
    if eta >= cap_m:
        failures.append(f"eta < m/(5 M^2) violated: eta={eta} >= {cap_m}")
    if eta >= 1.0:
        failures.append(f"eta < 1 violated: eta={eta}")
    return failures


# ------------------------------------------------------------ sub-exponential


def subexp_params(
    lc: LossConstants,
    beta: float,
    d: int,
    s_sq: float,
    universal_C: float = 1.0,
) -> dict:
    """Sub-exponential parameters of the training loss along the dynamics.

    Chain: the p-th moments of ||W_T|| satisfy
        (E||W_T||^{2p})^{1/(2p)} <= a0 + a1 sqrt(p)
    with a0 = C (s sqrt(d) + sqrt(q0)), a1 = C (s sqrt(2) + sqrt(2/(beta m)))
    and q0 = (beta b + d)/(beta m): the trajectory moment lemma
    (`moment_lemma_bound`) at order 2p, relaxed by sqrt(x + y) <= sqrt(x) +
    sqrt(y) in both of its terms. The loss envelope |f(w, z)| <=
    M ||w||^2 + K with K = max(M b/(2m) + A, (b/2) log 3) then gives
        (E|f(W_T)|^p)^{1/p} <= C0_f + C1_f p,
        C0_f = M (a0^2 + a0 a1) + K,   C1_f = M (a1^2 + a0 a1),
    using sqrt(p) <= (1 + p)/2. Composing, E f^p <= C5^p p^p with
    C5 = C0_f + C1_f = M (a0 + a1)^2 + K, and finally
        sigma_e_sq = 4 e^2 C5^2,   nu = 1/(2 e C5),
    which satisfy sigma_e_sq * nu^2 = 1 identically. The universal constant
    C of the moment lemma defaults to 1 (heuristic).
    """
    _check_positive(beta=beta, s_sq=s_sq)
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    check_universal_C(universal_C)
    M, m, b, A = lc.M, lc.m, lc.b, lc.A
    s = math.sqrt(s_sq)
    try:
        q0 = (beta * b + d) / (beta * m)
        a0 = universal_C * (s * math.sqrt(d) + math.sqrt(q0))
        a1 = universal_C * (s * math.sqrt(2.0) + math.sqrt(2.0 / (beta * m)))
        K = max(M * b / (2.0 * m) + A, (b / 2.0) * math.log(3.0))
        C0_f = M * (a0**2 + a0 * a1) + K
        C1_f = M * (a1**2 + a0 * a1)
        C5 = C0_f + C1_f
        sigma_e_sq = 4.0 * math.e**2 * C5**2
    except (OverflowError, ZeroDivisionError):
        sigma_e_sq = math.inf
    if not math.isfinite(sigma_e_sq):
        raise ValueError(f"sigma_e_sq = 4 e^2 C5^2 exceeds the float range at beta = "
                         f"{beta}, s_sq = {s_sq}, universal_C = {universal_C}")
    return {
        "sigma_e_sq": sigma_e_sq,
        "nu": 1.0 / (2.0 * math.e * C5),
        "C5": C5,
        "C0_f": C0_f,
        "C1_f": C1_f,
    }


# ------------------------------------------------------------------ assembly


def derive_constants(
    lc: LossConstants,
    eta: float,
    beta: float,
    d: int,
    s_sq: float,
    lsi_mode: str,
    overrides: ParametrixOverrides | None = None,
    universal_C_lsi: float = 1.0,
    universal_C_moment: float = 1.0,
) -> DerivedConstants:
    """Assemble the derived constants of one configuration."""
    overrides = overrides if overrides is not None else ParametrixOverrides()
    c_LS = lsi_constant(lc, beta, d, mode=lsi_mode, universal_C=universal_C_lsi)
    C0 = moment_bound_C0(lc, eta, beta, d, s_sq)
    D1, D2, D3 = _kl_recursion_D(lc, beta, d, s_sq, eta, overrides)
    sub = subexp_params(lc, beta, d, s_sq, universal_C=universal_C_moment)

    notes = [f"lsi_mode={lsi_mode}"]
    if lsi_mode == "general_dissipative":
        notes.append(f"heuristic-constant: LSI universal C = {universal_C_lsi}")
    if overrides.heuristic:
        notes.append("heuristic-constant: short-time expansion constants "
                     f"{overrides.to_dict()}")
    notes.append(f"heuristic-constant: moment-lemma universal C = {universal_C_moment}")

    return DerivedConstants(
        c_LS=c_LS,
        C0=C0,
        D1=D1,
        D2=D2,
        D3=D3,
        sigma_e_sq=sub["sigma_e_sq"],
        nu=sub["nu"],
        notes=tuple(notes),
    )


def check_universal_C(universal_C: float) -> None:
    """Raise ValueError unless a universal constant C, of `lsi_constant` or
    of `subexp_params`, is positive."""
    if universal_C <= 0:
        raise ValueError(f"universal_C must be positive, got {universal_C}")


def _check_positive(**kwargs: float) -> None:
    for name, v in kwargs.items():
        if not (v > 0 and math.isfinite(v)):
            raise ValueError(f"{name} must be positive and finite, got {v}")
