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

Each face flux is linear in its two cells, so a step is rho -> (I + dt A)
rho, with A the tridiagonal Chang-Cooper generator: a run builds the three
bands of I + dt A once (`_generator`), and a step is three multiply-adds of
them (`_advance`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .sgld import _block_len, array_rows, write_csv

__all__ = [
    "Grid1D",
    "DensityField",
    "gibbs_density",
    "fp_step",
    "FPPairRun",
    "evolve_pair",
    "Inequality12Report",
    "verify_inequality_12",
    "fp_section",
    "suggested_halfwidth",
    "check_dt",
    "stability_limit",
]

MASS_TOL = 1e-8
SUPPORT_FLOOR = 1e-300
SUPPORT_REL_FLOOR = 1e-12


def _check_mass(values: np.ndarray, h: float) -> None:
    """Raise unless each row of `values` has unit mass within MASS_TOL; a
    NaN mass fails."""
    worst = np.max(np.abs(values.sum(axis=-1) * h - 1.0))
    if not worst <= MASS_TOL:
        raise ValueError(f"mass deviates from 1 by {worst}, beyond {MASS_TOL}")


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
        return self.cell_centers(np.arange(self.n_cells))

    def cell_centers(self, cells) -> np.ndarray:
        """The centers of the cells `cells`, each with the bits of its
        `centers` entry."""
        return self.w_min + (np.asarray(cells) + 0.5) * self.h


@dataclass(frozen=True)
class DensityField:
    """Nonnegative per-cell density with unit mass on its grid.

    clamped_mass accumulates the (tiny) mass added by flooring negative
    cells to zero across the steps that produced this field.
    """

    grid: Grid1D
    values: np.ndarray
    clamped_mass: float = 0.0

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n_cells,):
            raise ValueError(
                f"values shape {values.shape} != ({self.grid.n_cells},)"
            )
        # a NaN fails both checks below, +inf the mass check
        if not values.min() >= 0:
            raise ValueError(f"negative or NaN density {values.min()}")
        _check_mass(values, self.grid.h)
        object.__setattr__(self, "values", values)


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
    return DensityField(grid=grid, values=p)


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
    """One conservative explicit step, rho -> (I + dt A) rho with A the
    Chang-Cooper generator of `grad` (see `_generator`); refuses a dt beyond
    `stability_limit`, suggesting a replacement.

    grad holds the per-cell potential gradient; face values are averages
    of the adjacent cells.
    """
    new = np.empty((1, rho.grid.n_cells))
    clamped = _advance(rho.values[None], _generator(rho.grid, [grad], beta, dt),
                       rho.grid.h, new)
    return DensityField(rho.grid, new[0], clamped_mass=rho.clamped_mass + clamped[0])


def stability_limit(grid: Grid1D, grad: np.ndarray, beta: float) -> float:
    """The largest time step `fp_step` takes under `grad` on `grid`:
    h^2 / (2/beta + h max|grad|), below which I + dt A has a nonnegative
    diagonal."""
    h = grid.h
    return h * h / (2.0 * (1.0 / beta) + h * float(np.abs(grad).max()))


def check_dt(grid: Grid1D, grad: np.ndarray, beta: float, dt: float) -> None:
    """Raise ValueError unless beta, dt > 0, grad is finite with one entry per
    cell of `grid`, and dt is within `stability_limit` for `grad`."""
    if not (beta > 0 and dt > 0):
        raise ValueError("beta and dt must be positive")
    if np.shape(grad) != (grid.n_cells,):
        raise ValueError(f"grad shape {np.shape(grad)} != ({grid.n_cells},)")
    if not np.isfinite(grad).all():
        raise ValueError("grad must be finite on the grid")
    dt_max = stability_limit(grid, grad, beta)
    if dt > dt_max:
        raise ValueError(f"dt={dt} exceeds the stability limit {dt_max}; "
                         f"suggested dt = {0.9 * dt_max}")


def _generator(grid: Grid1D, grads, beta: float, dt: float) -> np.ndarray:
    """The bands (rows, 3, n_cells) of I + dt A for the stacked rows of
    `grads`, after `check_dt` on each: each cell's left, self and right
    coefficient.

    Face f, between cells f and f + 1, carries the flux a_f rho_f - b_f
    rho_{f+1}, with v_f the face gradient, delta_f its Chang-Cooper weight,
    D = 1/beta, a_f = D/h - v_f delta_f and b_f = D/h + v_f (1 - delta_f).
    The walls carry no flux: the entries reaching past them are 0.
    """
    g = np.stack([np.asarray(grad, dtype=float) for grad in grads])
    for row in g:
        check_dt(grid, row, beta, dt)
    h = grid.h
    D = 1.0 / beta
    v_face = 0.5 * (g[:, :-1] + g[:, 1:])
    delta = _cc_weight(beta * v_face * h)
    rate = dt / h
    a = rate * (D / h - v_face * delta)
    b = rate * (D / h + v_face * (1.0 - delta))
    bands = np.zeros((g.shape[0], 3, grid.n_cells))
    bands[:, 0, 1:] = a
    bands[:, 2, :-1] = b
    bands[:, 1] = 1.0
    bands[:, 1, :-1] -= a
    bands[:, 1, 1:] -= b
    return bands


def _advance(values: np.ndarray, bands: np.ndarray, h: float,
             out: np.ndarray) -> list:
    """One `fp_step` of each row of `values` (rows, n_cells) by the matching
    `bands` of I + dt A, written to `out`, then its negative cells floored
    to 0. `out` may be `values`: both neighbour products are taken first.

    Returns the mass each row's flooring added.
    """
    from_left = bands[:, 0, 1:] * values[:, :-1]
    from_right = bands[:, 2, :-1] * values[:, 1:]
    np.multiply(bands[:, 1], values, out=out)
    out[:, 1:] += from_left
    out[:, :-1] += from_right
    clamped = [0.0] * out.shape[0]
    if out.min() < 0:
        clamped = [float(-row[row < 0].sum() * h) for row in out]
    np.maximum(out, 0.0, out=out)
    return clamped


def _support_mask(r: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per row, the cells where both densities clear the floors."""
    return (
        (r > SUPPORT_FLOOR)
        & (q > SUPPORT_FLOOR)
        & (r > SUPPORT_REL_FLOOR * r.max(axis=-1, keepdims=True))
        & (q > SUPPORT_REL_FLOOR * q.max(axis=-1, keepdims=True))
    )


def _support_band(mask: np.ndarray) -> slice:
    """The longest run of cells of a 1-d support mask (the first such run
    on ties)."""
    if not mask.any():
        raise ValueError("densities share no support above the floors")
    idx = np.nonzero(mask)[0]
    breaks = np.nonzero(np.diff(idx) > 1)[0] + 1
    starts = np.concatenate([[0], breaks])
    ends = np.concatenate([breaks, [idx.shape[0]]])
    i = int(np.argmax(ends - starts))
    return slice(int(idx[starts[i]]), int(idx[ends[i] - 1]) + 1)


def _band_log_ratio(r: np.ndarray, q: np.ndarray, band: slice):
    """Per row, r and log(r/q) on `band`."""
    r = r[..., band]
    return r, np.log(r / q[..., band])


def _kl(h: float, r: np.ndarray, log_ratio: np.ndarray):
    return h * np.sum(r * log_ratio, axis=-1)


def _fisher(h: float, r: np.ndarray, log_ratio: np.ndarray):
    if r.shape[-1] < 2:
        raise ValueError("support band too narrow for differences")
    score = np.gradient(log_ratio, h, axis=-1)
    return h * np.sum(r * score**2, axis=-1)


# ---------------------------------------------------------------- paired runs


@dataclass(frozen=True)
class FPPairRun:
    """Side-by-side evolution of two densities with per-step traces.

    kl, fisher and stability are indexed by step 0..n_steps; stability is
    the (beta/2) E_rho |grad gap|^2 term of the KL-evolution inequality.
    """

    grid: Grid1D
    dt: float
    kl: np.ndarray
    fisher: np.ndarray
    stability: np.ndarray
    clamped_mass: float

    def to_csv(self, path, report: Inequality12Report) -> None:
        """Write the traces with `report`, this run's `verify_inequality_12`,
        a block of rows at a time (see `array_rows`); step i's time is i * dt."""
        def defined(value):  # the undefined ends are empty cells
            return None if math.isnan(value) else value

        dt = float(self.dt)
        write_csv(path, ("t", "kl", "fisher", "stability_term", "dkl_dt", "slack"),
                  ((i * dt, kl, fisher, stability, defined(dkl_dt), defined(slack))
                   for i, kl, fisher, stability, dkl_dt, slack in array_rows(
                       range(self.kl.shape[0]), self.kl, self.fisher, self.stability,
                       report.dkl_dt, report.slack)))


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

    The two densities advance as the rows of one (2, n_cells) array, each
    row by `fp_step`'s arithmetic, with the bands of each row's I + dt A
    built once. The states of a block of steps (`sgld._block_len` of the
    2 n_cells words a step stores) are kept, then checked and measured at
    once: each state's mass, its stability term, and KL and Fisher as row
    reductions over the shared support band, found once per run of steps
    whose support mask does not change. Every number equals that of the
    `fp_step` loop.
    """
    if n_steps < 1:
        raise ValueError(f"need at least 1 step, got {n_steps}")
    if rho0.grid != grid or gamma0.grid != grid:
        raise ValueError("densities live on different grids")
    grads = [np.asarray(grad_s, dtype=float), np.asarray(grad_alt, dtype=float)]
    bands = _generator(grid, grads, beta, dt)
    gap_sq = (grads[0] - grads[1]) ** 2
    h = grid.h

    n_rows = n_steps + 1
    kl = np.empty(n_rows)
    fisher = np.empty(n_rows)
    stability = np.empty(n_rows)
    states = np.empty((min(_block_len(2 * grid.n_cells), n_rows), 2, grid.n_cells))
    states[0] = rho0.values, gamma0.values
    clamped_s, clamped_alt = rho0.clamped_mass, gamma0.clamped_mass
    for first in range(0, n_rows, states.shape[0]):
        rows = min(states.shape[0], n_rows - first)
        # states[-1] holds the last step of the previous block, which is full
        for j in range(0 if first else 1, rows):
            c_s, c_alt = _advance(states[j - 1], bands, h, states[j])
            clamped_s += c_s
            clamped_alt += c_alt
        block = states[:rows]
        _check_mass(block, h)
        r, q = block[:, 0], block[:, 1]
        stability[first:first + rows] = (beta / 2.0) * (
            h * np.sum(r * gap_sq, axis=-1))
        mask = _support_mask(r, q)
        changes = np.nonzero((mask[1:] != mask[:-1]).any(axis=-1))[0] + 1
        edges = [0, *changes.tolist(), rows]
        for lo, hi in zip(edges[:-1], edges[1:]):
            band_r, log_ratio = _band_log_ratio(
                r[lo:hi], q[lo:hi], _support_band(mask[lo]))
            kl[first + lo:first + hi] = _kl(h, band_r, log_ratio)
            fisher[first + lo:first + hi] = _fisher(h, band_r, log_ratio)
    return FPPairRun(grid=grid, dt=dt, kl=kl, fisher=fisher, stability=stability,
                     clamped_mass=clamped_s + clamped_alt)


@dataclass(frozen=True)
class Inequality12Report:
    """Per-step slack of dKL/dt <= -(1/(2 beta)) Fisher + stability.

    dkl_dt and slack are full-length arrays with NaN at the endpoints
    where the centered difference is unavailable; n_violations counts the
    n_checked interior steps whose slack is below -tol (see
    `verify_inequality_12`).
    """

    dkl_dt: np.ndarray
    slack: np.ndarray
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
    right-hand side or derivative, whichever is larger. A run of one step
    has no interior step, and so no step to check.
    """
    kl, fisher, stability = run.kl, run.fisher, run.stability
    rhs = -fisher / (2.0 * beta) + stability
    T1 = kl.shape[0]
    dkl = np.full(T1, np.nan)
    slack = np.full(T1, np.nan)
    dkl[1:-1] = (kl[2:] - kl[:-2]) / (2.0 * run.dt)
    inner = slice(1, T1 - 1)
    floor = 1e-10 * max(1.0, float(np.abs(rhs).max()))
    scale = np.maximum(np.maximum(np.abs(rhs[inner]), np.abs(dkl[inner])), floor)
    tol = 10.0 * (run.grid.h**2 + run.dt) * scale
    slack[inner] = rhs[inner] - dkl[inner]
    violated = slack[inner] < -tol
    return Inequality12Report(dkl_dt=dkl, slack=slack, n_checked=int(violated.shape[0]),
                              n_violations=int(violated.sum()))


def fp_section(runs, beta: float, out, falsify: bool):
    """`verify`'s Fokker-Planck section: the KL-evolution inequality along
    each of `runs`, (label, grid, grad_s, grad_alt, dt, n_steps) as
    `config._verify_fp_runs` gives them, from one Gibbs density, written to
    `out`'s fp_<label>.csv. It fails a pair the grid cannot carry, a coarse
    violation rate above 1% and a fine rate above the coarse. Falsified, the
    stability term is dropped, which a KL that grows from 0 cannot meet.
    Returns ({"fp_<label>": report}, hard failures).
    """
    sections, failures, rates = {}, [], {}
    for label, grid, gs, ga, dt, n_steps in runs:
        start = gibbs_density(grid, (grid.centers - 1.0) ** 2, 1.0)
        try:
            run = evolve_pair(grid, gs, ga, beta, dt, n_steps, start, start)
        except ValueError as exc:
            # the grid cannot carry the pair (say, its two densities part
            # on it): the check fails, not the command
            sections[f"fp_{label}"] = {"n_cells": grid.n_cells, "failed": str(exc)}
            failures.append(f"fp_{label}: {exc}")
            continue
        if falsify:
            run = replace(run, stability=np.zeros_like(run.stability))
        rep = verify_inequality_12(run, beta)
        with out.file(f"fp_{label}.csv") as path:
            run.to_csv(path, rep)
        rates[label] = rep.violation_rate
        sections[f"fp_{label}"] = {"n_cells": grid.n_cells, "n_checked": rep.n_checked,
                                   "violation_rate": rep.violation_rate,
                                   "clamped_mass": run.clamped_mass}
    if rates.get("coarse", 0.0) > 0.01:
        failures.append(f"fp violation rate {rates['coarse']} above 1%")
    if len(rates) == 2 and rates["fine"] > rates["coarse"]:
        failures.append("fp violation rate grew under refinement")
    return sections, failures
