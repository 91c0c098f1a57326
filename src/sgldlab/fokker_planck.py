"""1-D finite-volume solver for the density evolution of the continuous dynamics.

Evolves two dataset-conditioned densities side by side under
drho/dt = d/dw (beta^{-1} drho/dw + rho dF/dw) with zero-flux boundaries,
and verifies the KL-evolution inequality
dKL/dt <= -(1/(2 beta)) Fisher + (beta/2) E_rho |F_S' - F_S''|^2
step by step against the stored traces.

The face flux uses exponential-fitting weights chosen so the zero-flux
balance reproduces the exact Boltzmann ratio between neighboring cells:
writing w = beta * F'_face * h for the face Peclet number, the left cell
gets weight delta(w) = 1/w - 1/(e^w - 1), which makes the discrete Gibbs
density an exact fixed point whenever F'_face * h equals the exact
potential increment across the face (true for quadratic potentials with
face gradients averaged from the adjacent cells).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid1D",
    "DensityField",
    "gibbs_density",
    "fp_step",
    "kl_on_grid",
    "fisher_on_grid",
    "FPPairRun",
    "evolve_pair",
    "Inequality12Report",
    "verify_inequality_12",
    "suggested_halfwidth",
    "check_dt",
]

MASS_TOL = 1e-8
SUPPORT_FLOOR = 1e-300
SUPPORT_REL_FLOOR = 1e-12


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell-centered grid on [w_min, w_max]."""

    w_min: float
    w_max: float
    n_cells: int

    def __post_init__(self) -> None:
        if not self.w_max > self.w_min:
            raise ValueError(f"need w_max > w_min, got [{self.w_min}, {self.w_max}]")
        if self.n_cells < 64:
            raise ValueError(f"need at least 64 cells, got {self.n_cells}")

    @property
    def h(self) -> float:
        return (self.w_max - self.w_min) / self.n_cells

    @property
    def centers(self) -> np.ndarray:
        return self.w_min + (np.arange(self.n_cells) + 0.5) * self.h


@dataclass(frozen=True)
class DensityField:
    """Nonnegative per-cell density with unit mass on its grid.

    clamped_mass accumulates the (tiny) mass added by flooring negative
    cells to zero across the steps that produced this field.
    """

    grid: Grid1D
    values: np.ndarray
    t: float = 0.0
    clamped_mass: float = 0.0

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n_cells,):
            raise ValueError(
                f"values shape {values.shape} != ({self.grid.n_cells},)"
            )
        if values.min() < 0:
            raise ValueError(f"negative density {values.min()}")
        mass = float(values.sum() * self.grid.h)
        if abs(mass - 1.0) > MASS_TOL:
            raise ValueError(f"mass {mass} deviates from 1 beyond {MASS_TOL}")
        object.__setattr__(self, "values", values)

    def mass(self) -> float:
        return float(self.values.sum() * self.grid.h)

    def mean(self) -> float:
        return float((self.values * self.grid.centers).sum() * self.grid.h)

    def variance(self) -> float:
        mu = self.mean()
        return float((self.values * (self.grid.centers - mu) ** 2).sum() * self.grid.h)


def suggested_halfwidth(beta: float, m: float) -> float:
    """Domain half-width that keeps truncated mass negligible: 8 sqrt(1/(beta m))."""
    return 8.0 * math.sqrt(1.0 / (beta * m))


def gibbs_density(grid: Grid1D, potential: np.ndarray, beta: float) -> DensityField:
    """Normalized e^{-beta F} on the grid, overflow-safe by max subtraction."""
    F = np.asarray(potential, dtype=float)
    if F.shape != (grid.n_cells,):
        raise ValueError(f"potential shape {F.shape} != ({grid.n_cells},)")
    if not np.all(np.isfinite(F)):
        raise ValueError("potential must be finite on the grid")
    logp = -beta * F
    logp -= logp.max()
    p = np.exp(logp)
    p /= p.sum() * grid.h
    return DensityField(grid=grid, values=p, t=0.0)


def _cc_weight(w: np.ndarray) -> np.ndarray:
    # left-cell weight 1/w - 1/(e^w - 1); smooth at 0 (-> 1/2), upwinding at
    # large |w| (-> 0 or 1), so computed by series near 0 and expm1 elsewhere
    out = np.empty_like(w)
    small = np.abs(w) < 1e-8
    out[small] = 0.5 - w[small] / 12.0
    ws = w[~small]
    with np.errstate(over="ignore"):
        out[~small] = 1.0 / ws - 1.0 / np.expm1(ws)
    return out


def fp_step(
    rho: DensityField, grad: np.ndarray, beta: float, dt: float
) -> DensityField:
    """One conservative explicit step; refuses time steps beyond stability.

    grad holds the per-cell potential gradient; face values are averages
    of the adjacent cells. The stability limit is h^2 / (2/beta +
    h max|grad|); a dt above it raises with a suggested replacement.
    """
    return _advance(rho, _face_terms(rho.grid, grad, beta, dt), beta, dt)


def check_dt(grid: Grid1D, grad: np.ndarray, beta: float, dt: float) -> None:
    """Raise ValueError unless beta, dt > 0 and dt is within `fp_step`'s
    stability limit for `grad` on `grid`."""
    if not (beta > 0 and dt > 0):
        raise ValueError("beta and dt must be positive")
    h = grid.h
    D = 1.0 / beta
    dt_max = h * h / (2.0 * D + h * float(np.abs(grad).max()))
    if dt > dt_max:
        raise ValueError(
            f"dt={dt} exceeds the stability limit {dt_max}; "
            f"suggested dt = {0.9 * dt_max}"
        )


def _face_terms(grid: Grid1D, grad: np.ndarray, beta: float, dt: float):
    """The part of `fp_step` fixed by (grid, grad, beta, dt): checks dt, and
    returns the face gradients and both Chang-Cooper weights."""
    h = grid.h
    g = np.asarray(grad, dtype=float)
    if g.shape != (grid.n_cells,):
        raise ValueError(f"grad shape {g.shape} != ({grid.n_cells},)")
    check_dt(grid, g, beta, dt)
    v_face = 0.5 * (g[:-1] + g[1:])
    delta = _cc_weight(beta * v_face * h)
    return v_face, delta, 1.0 - delta


def _advance(rho: DensityField, faces, beta: float, dt: float) -> DensityField:
    """One `fp_step` from the `_face_terms` of its grad."""
    v_face, delta, delta_right = faces
    grid = rho.grid
    h = grid.h
    D = 1.0 / beta
    rho_face = delta * rho.values[:-1] + delta_right * rho.values[1:]
    flux = -(D / h) * (rho.values[1:] - rho.values[:-1]) - v_face * rho_face
    # zero-flux boundaries: mass moves only through interior faces
    div = (np.concatenate([flux, [0.0]]) - np.concatenate([[0.0], flux])) / h
    new = rho.values - dt * div
    clamped = float(-new[new < 0].sum() * h) if np.any(new < 0) else 0.0
    new = np.maximum(new, 0.0)
    return DensityField(
        grid=grid,
        values=new,
        t=rho.t + dt,
        clamped_mass=rho.clamped_mass + clamped,
    )


def _support_band(rho: DensityField, gamma: DensityField) -> slice:
    """The longest run of cells where both densities clear the floors
    (the first such run on ties)."""
    r, q = rho.values, gamma.values
    mask = (
        (r > SUPPORT_FLOOR)
        & (q > SUPPORT_FLOOR)
        & (r > SUPPORT_REL_FLOOR * r.max())
        & (q > SUPPORT_REL_FLOOR * q.max())
    )
    if not mask.any():
        raise ValueError("densities share no support above the floors")
    idx = np.nonzero(mask)[0]
    breaks = np.nonzero(np.diff(idx) > 1)[0] + 1
    starts = np.concatenate([[0], breaks])
    ends = np.concatenate([breaks, [idx.shape[0]]])
    i = int(np.argmax(ends - starts))
    return slice(int(idx[starts[i]]), int(idx[ends[i] - 1]) + 1)


def _band_log_ratio(rho: DensityField, gamma: DensityField):
    """rho and log(rho/gamma) on the shared support band."""
    if rho.grid != gamma.grid:
        raise ValueError("densities live on different grids")
    band = _support_band(rho, gamma)
    r = rho.values[band]
    return r, np.log(r / gamma.values[band])


def _kl(h: float, r: np.ndarray, log_ratio: np.ndarray) -> float:
    return float(h * np.sum(r * log_ratio))


def _fisher(h: float, r: np.ndarray, log_ratio: np.ndarray) -> float:
    if r.shape[0] < 2:
        raise ValueError("support band too narrow for differences")
    score = np.gradient(log_ratio, h)
    return float(h * np.sum(r * score**2))


def kl_on_grid(rho: DensityField, gamma: DensityField) -> float:
    """Quadrature KL(rho | gamma) over the shared support band."""
    return _kl(rho.grid.h, *_band_log_ratio(rho, gamma))


def fisher_on_grid(rho: DensityField, gamma: DensityField) -> float:
    """Quadrature relative Fisher information over the shared support band.

    Sum of h * rho * (d/dw log(rho/gamma))^2 with central differences on
    the band interior and one-sided differences at its edges.
    """
    return _fisher(rho.grid.h, *_band_log_ratio(rho, gamma))


# ---------------------------------------------------------------- paired runs


@dataclass(frozen=True)
class FPPairRun:
    """Side-by-side evolution of two densities with per-step traces.

    kl, fisher and stability are indexed by step 0..n_steps; stability is
    the (beta/2) E_rho |grad gap|^2 term of the KL-evolution inequality.
    """

    grid: Grid1D
    beta: float
    dt: float
    kl: np.ndarray
    fisher: np.ndarray
    stability: np.ndarray
    clamped_mass: float

    def to_csv(self, path, report: Inequality12Report) -> None:
        """Write the traces with `report`, this run's `verify_inequality_12`."""
        import csv

        times = np.arange(self.kl.shape[0]) * self.dt
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "kl", "fisher", "stability_term", "dkl_dt",
                             "slack"])
            for i in range(self.kl.shape[0]):
                dkl = report.dkl_dt[i]
                slack = report.slack[i]
                writer.writerow(
                    [
                        repr(float(times[i])),
                        repr(float(self.kl[i])),
                        repr(float(self.fisher[i])),
                        repr(float(self.stability[i])),
                        "" if math.isnan(dkl) else repr(float(dkl)),
                        "" if math.isnan(slack) else repr(float(slack)),
                    ]
                )


def evolve_pair(
    grid: Grid1D,
    grad_s: np.ndarray,
    grad_alt: np.ndarray,
    beta: float,
    dt: float,
    n_steps: int,
    rho0: DensityField,
    gamma0: DensityField,
) -> FPPairRun:
    """Run rho under grad_s and gamma under grad_alt, recording the traces.

    Each step is `fp_step`'s; the face terms, fixed by the gradient, are
    computed once per density.
    """
    if n_steps < 1:
        raise ValueError(f"need at least 1 step, got {n_steps}")
    grad_s = np.asarray(grad_s, dtype=float)
    grad_alt = np.asarray(grad_alt, dtype=float)
    gap_sq = (grad_s - grad_alt) ** 2
    faces_s = _face_terms(rho0.grid, grad_s, beta, dt)
    faces_alt = _face_terms(gamma0.grid, grad_alt, beta, dt)

    kl = np.empty(n_steps + 1)
    fisher = np.empty(n_steps + 1)
    stability = np.empty(n_steps + 1)
    rho, gamma = rho0, gamma0
    for step in range(n_steps + 1):
        r, log_ratio = _band_log_ratio(rho, gamma)
        kl[step] = _kl(rho.grid.h, r, log_ratio)
        fisher[step] = _fisher(rho.grid.h, r, log_ratio)
        stability[step] = (beta / 2.0) * float(
            grid.h * np.sum(rho.values * gap_sq)
        )
        if step < n_steps:
            rho = _advance(rho, faces_s, beta, dt)
            gamma = _advance(gamma, faces_alt, beta, dt)
    return FPPairRun(
        grid=grid,
        beta=beta,
        dt=dt,
        kl=kl,
        fisher=fisher,
        stability=stability,
        clamped_mass=rho.clamped_mass + gamma.clamped_mass,
    )


@dataclass(frozen=True)
class Inequality12Report:
    """Per-step slack of dKL/dt <= -(1/(2 beta)) Fisher + stability.

    dkl_dt and slack are full-length arrays with NaN at the endpoints
    where the centered difference is unavailable; violated marks interior
    steps whose slack is below -tol.
    """

    dkl_dt: np.ndarray
    rhs: np.ndarray
    slack: np.ndarray
    tol: np.ndarray
    violated: np.ndarray
    n_checked: int
    n_violations: int

    @property
    def violation_rate(self) -> float:
        return self.n_violations / self.n_checked if self.n_checked else 0.0


def verify_inequality_12(run: FPPairRun, beta: float) -> Inequality12Report:
    """Check the KL-evolution inequality along a paired run.

    The time derivative comes from centered differences of the stored KL
    trace, so the comparison carries O(h^2 + dt) discretization noise;
    the tolerance is 10 (h^2 + dt) scaled by the local magnitude of the
    right-hand side or derivative, whichever is larger.
    """
    kl, fisher, stability = run.kl, run.fisher, run.stability
    rhs = -fisher / (2.0 * beta) + stability
    T1 = kl.shape[0]
    dkl = np.full(T1, np.nan)
    slack = np.full(T1, np.nan)
    if T1 < 3:
        return Inequality12Report(
            dkl_dt=dkl, rhs=rhs, slack=slack, tol=np.empty(0),
            violated=np.zeros(0, dtype=bool), n_checked=0, n_violations=0,
        )
    dkl[1:-1] = (kl[2:] - kl[:-2]) / (2.0 * run.dt)
    inner = slice(1, T1 - 1)
    floor = 1e-10 * max(1.0, float(np.abs(rhs).max()))
    scale = np.maximum(np.maximum(np.abs(rhs[inner]), np.abs(dkl[inner])), floor)
    tol = 10.0 * (run.grid.h**2 + run.dt) * scale
    slack[inner] = rhs[inner] - dkl[inner]
    violated = slack[inner] < -tol
    return Inequality12Report(
        dkl_dt=dkl,
        rhs=rhs,
        slack=slack,
        tol=tol,
        violated=violated,
        n_checked=int(violated.shape[0]),
        n_violations=int(violated.sum()),
    )
