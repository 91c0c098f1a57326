"""Loss families with certified smoothness and dissipativity constants.

Every loss in this module is a map f(w, z) from a parameter vector w in R^d
and a data point z to a real value, together with its gradient in w and a
record of analytically derived constants:

    M            smoothness modulus:   ||grad(w,z) - grad(w',z)|| <= M ||w - w'||
    m, b         dissipativity:        <grad(w,z), w> >= m ||w||^2 - b
    A            origin bound:         |f(0, z)| <= A for every admissible z
    R            strong convexity modulus, when the family has one
    data_radius  radius of the ball containing every admissible z

Three concrete families are provided (quadratic, logistic with ridge,
cosine-perturbed ridge), chosen so that all constants above are closed form.
The `certify` operation stress-tests the claimed constants on a large random
sample and reports violations with witness points instead of trusting the
algebra.
"""

from __future__ import annotations

import copy
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LossConstants",
    "LossModel",
    "QuadraticLoss",
    "LogisticRidgeLoss",
    "NonconvexRidgeLoss",
    "InequalityCheck",
    "CertificationReport",
    "certify",
    "check_samples",
]

CERT_TOL = 1e-9          # slack allowed on O(1) inequality margins in float64
FD_REL_TOL = 1e-5        # central-difference gradient agreement threshold
FD_DEGENERATE_NORM = 1e-6  # skip FD relative error where the gradient vanishes
FD_MINIBATCH = 3         # points per FD minibatch: above 1, a sum is no mean
FD_POINTS = 100          # states of the FD gradient check
# the constants a claim may change: those `certify` and the bounds read
CLAIMABLE = ("M", "m", "b", "A", "R")


@dataclass(frozen=True)
class LossConstants:
    """Certified constants of one loss family.

    Args:
        M: smoothness modulus, > 0.
        m: dissipativity slope, > 0.
        b: dissipativity offset, >= 0.
        A: bound on |f(0, z)| over the data ball, >= 0.
        data_radius: radius of the ball containing all data points, > 0.
        R: strong-convexity modulus if the family has one (0 < R <= M).
    """

    M: float
    m: float
    b: float
    A: float
    data_radius: float
    R: float | None = None

    def __post_init__(self) -> None:
        if not (self.M > 0 and math.isfinite(self.M)):
            raise ValueError(f"M must be positive and finite, got {self.M}")
        if not (self.m > 0 and math.isfinite(self.m)):
            raise ValueError(f"m must be positive and finite, got {self.m}")
        if not (self.b >= 0 and math.isfinite(self.b)):
            raise ValueError(f"b must be nonnegative and finite, got {self.b}")
        if not (self.A >= 0 and math.isfinite(self.A)):
            raise ValueError(f"A must be nonnegative and finite, got {self.A}")
        if not (self.data_radius > 0 and math.isfinite(self.data_radius)):
            raise ValueError(f"data_radius must be positive, got {self.data_radius}")
        if self.R is not None and not (0 < self.R <= self.M + 1e-12):
            raise ValueError(f"R must satisfy 0 < R <= M, got R={self.R}, M={self.M}")

    @property
    def origin_grad_bound(self) -> float:
        """B = M sqrt(b/m), the bound on ||grad(0, z)|| that smoothness and
        dissipativity give: `certify` checks it, and the general
        log-Sobolev constant and the excess risk's convergence term read it."""
        return self.M * math.sqrt(self.b / self.m)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


class LossModel:
    """Contract shared by all loss families.

    Families implement three kernels, the ones the chains, the estimators
    and `certify` run: `eval_many`, `grad_minibatch` and `stability_sq`.
    Their constructor checks the family's own parameters, passes `d`
    (parameter dimension) and the family's constants to this constructor,
    and sets `self.z_dim` (data point width). `grad_minibatch` is the one
    vectorised gradient: the chains run it and `certify` checks it.
    `stability_sq` gives one dataset pair's squared full-batch gradient
    differences over a block of states, the stability estimator's input; it
    agrees with `grad_minibatch` to rounding, not to the bit.
    `full_batch_grad` (on (c, d) states) is an optional override; its
    default calls `grad_minibatch`, and an override (the quadratic
    family's) must return the same bits.
    """

    d: int
    z_dim: int
    _constants: LossConstants

    def __init__(self, d: int, constants: LossConstants):
        if not (isinstance(d, (int, np.integer)) and d >= 1):
            raise ValueError(f"d must be a positive integer, got {d}")
        self.d = int(d)
        self._constants = constants

    def constants(self) -> LossConstants:
        return self._constants

    # -- kernels ------------------------------------------------------------

    def eval_many(self, W: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """Row-wise loss values: out[i] = f(W[i], Z[i])."""
        raise NotImplementedError

    def grad_minibatch(self, W: np.ndarray, Zb: np.ndarray) -> np.ndarray:
        """Per-chain mean gradient over per-chain minibatches.

        Args:
            W: (c, d) stacked parameter states, one row per chain.
            Zb: (c, k, z_dim) per-chain minibatch of data points.

        Returns:
            (c, d) array; row i is the mean over k points of the gradient
            in w of f(W[i], .). At k = 1, `grad_minibatch(W, Z[:, None])`
            gives the row-wise gradients at (W[i], Z[i]).
        """
        raise NotImplementedError

    def stability_sq(self, W: np.ndarray, S: np.ndarray,
                     S_alt: np.ndarray) -> np.ndarray:
        """Squared full-batch gradient differences of one dataset pair.

        Args:
            W: (b, d) parameter states.
            S, S_alt: (n, z_dim) the pair's datasets.

        Returns:
            (b,) array; entry i is ||grad F_S(W[i]) - grad F_S'(W[i])||^2,
            with F_S the mean loss over S. Each entry depends on W[i] alone,
            but its bits may depend on b and on the row's place in the block.
            With S_alt equal to S every entry is exactly 0.
        """
        raise NotImplementedError

    def full_batch_grad(self, datasets: np.ndarray):
        """Full-batch gradients over fixed per-chain datasets.

        Args:
            datasets: (c, n, z_dim), row i being chain i's whole dataset.

        Returns:
            A function of (c, d) states W giving `grad_minibatch(W, datasets)`.
        """
        return lambda W: self.grad_minibatch(W, datasets)

    # -- data sampling ------------------------------------------------------

    def sample_data(self, rng: np.random.Generator, n_points: int) -> np.ndarray:
        """Draw n_points data points uniformly from the data ball."""
        return _uniform_ball(rng, n_points, self.z_dim, self._constants.data_radius)

    # -- utilities ----------------------------------------------------------

    def with_constants(self, **changes) -> "LossModel":
        """Copy of this model whose claimed constants are altered.

        Exists so the certifier's failure path can be exercised against a
        model with deliberately wrong claims. Only `CLAIMABLE` constants can
        be claimed: a claimed `data_radius` would change the data drawn.
        """
        refused = [key for key in changes if key not in CLAIMABLE]
        if refused:
            raise ValueError(f"only {', '.join(CLAIMABLE)} can be claimed, "
                             f"not {', '.join(refused)}")
        other = copy.copy(self)
        other._constants = dataclasses.replace(self._constants, **changes)
        return other


def _uniform_ball(rng: np.random.Generator, n: int, d: int, radius: float) -> np.ndarray:
    """Uniform sample from the d-ball of the given radius."""
    x = rng.standard_normal((n, d))
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    x /= norms
    x *= radius * rng.random((n, 1)) ** (1.0 / d)
    return x


# ======================================================================
# Concrete families
# ======================================================================


class QuadraticLoss(LossModel):
    """f(w, z) = (R/2) ||w - z||^2, R-strongly convex, gradient R (w - z).

    Constants: M = R (exact, gradient is R-Lipschitz with equality),
    m = R/2 and b = (R/2) r^2 from completing the square in
    <grad, w> = R||w||^2 - R<z, w>, A = (R/2) r^2 since f(0,z) = (R/2)||z||^2.
    """

    def __init__(self, R: float, data_radius: float, d: int):
        if not R > 0:
            raise ValueError(f"R must be positive, got {R}")
        self.R = float(R)
        try:
            r2 = float(data_radius) ** 2
        except OverflowError:  # LossConstants refuses the infinite b and A
            r2 = math.inf
        super().__init__(d, LossConstants(
            M=self.R,
            m=self.R / 2.0,
            b=self.R / 2.0 * r2,
            A=self.R / 2.0 * r2,
            data_radius=float(data_radius),
            R=self.R,
        ))
        self.z_dim = self.d

    def eval_many(self, W, Z):
        diff = np.atleast_2d(W) - np.atleast_2d(Z)
        return 0.5 * self.R * np.einsum("ij,ij->i", diff, diff)

    def grad_minibatch(self, W, Zb):
        # gradient is linear in z, so the minibatch mean collapses to z-bar
        return self.R * (np.asarray(W, dtype=float) - np.asarray(Zb, dtype=float).mean(axis=1))

    def full_batch_grad(self, datasets):
        # the datasets are fixed, so each z-bar is taken once
        zbar = np.asarray(datasets, dtype=float).mean(axis=1)
        return lambda W: self.R * (np.asarray(W, dtype=float) - zbar)

    def stability_sq(self, W, S, S_alt):
        # the difference R (zbar_S' - zbar_S) does not depend on W: one value
        # for every state
        diff = self.R * (np.mean(S_alt, axis=0) - np.mean(S, axis=0))
        return np.full(W.shape[0], diff @ diff)


class LogisticRidgeLoss(LossModel):
    """f(w, (x, y)) = log(1 + exp(-y <w, x>)) + (lam/2) ||w||^2.

    Data points are stored as length d+1 vectors, the label y in the last
    slot. Labels are +-1 and ||x|| <= data_radius.

    Constants: the logistic Hessian term is bounded by ||x||^2 / 4, so
    M = r^2/4 + lam; <grad, w> >= lam ||w||^2 - ||x|| ||w|| gives
    m = lam/2, b = r^2 / (2 lam) by Young's inequality; f(0, z) = log 2 = A;
    the ridge term makes the loss lam-strongly convex, R = lam.
    """

    def __init__(self, lam: float, data_radius: float, d: int):
        if not lam > 0:
            raise ValueError(f"lambda must be positive, got {lam}")
        self.lam = float(lam)
        r = float(data_radius)
        super().__init__(d, LossConstants(
            M=r * r / 4.0 + self.lam,
            m=self.lam / 2.0,
            b=r * r / (2.0 * self.lam),
            A=math.log(2.0),
            data_radius=r,
            R=self.lam,
        ))
        self.z_dim = self.d + 1

    def eval_many(self, W, Z):
        W = np.atleast_2d(W)
        Z = np.atleast_2d(Z)
        X, Y = Z[:, :-1], Z[:, -1]
        margins = Y * np.einsum("ij,ij->i", W, X)
        # log(1 + exp(-margin)) without overflow for large |margin|
        return np.logaddexp(0.0, -margins) + 0.5 * self.lam * np.einsum("ij,ij->i", W, W)

    def grad_minibatch(self, W, Zb):
        # row c: the mean gradient at W[c] over the k points of Zb[c]
        W = np.asarray(W, dtype=float)
        Zb = np.asarray(Zb, dtype=float)
        X = Zb[:, :, :-1]
        factor = _weights(np.einsum("cd,ckd->ck", W, X), Zb[:, :, -1])
        return -_back_contract(factor, X) / X.shape[1] + self.lam * W

    def stability_sq(self, W, S, S_alt):
        # lam W cancels. Each dataset takes its own contractions: stacked
        # into one (2 n)-long contraction, the bits follow the BLAS thread
        # count
        diff = self._data_sum(W, S) - self._data_sum(W, S_alt)
        diff /= S.shape[0]
        return np.einsum("ij,ij->i", diff, diff)

    @staticmethod
    def _data_sum(W, dataset):
        # sum_i y_i sigma(-y_i <W[c], x_i>) x_i per state c, the inner
        # products turned into weights in place
        X = dataset[:, :-1]
        factor = _weights(_margins(W, X), np.ascontiguousarray(dataset[:, -1]))
        return _back_contract(factor, X)

    def sample_data(self, rng, n_points):
        x = _uniform_ball(rng, n_points, self.d, self._constants.data_radius)
        y = rng.integers(0, 2, size=(n_points, 1)) * 2.0 - 1.0
        return np.concatenate([x, y], axis=1)


class NonconvexRidgeLoss(LossModel):
    """f(w, z) = (lam/2) ||w||^2 + a cos(<w, z>), nonconvex for a > 0.

    Constants: the cosine perturbation has Hessian norm at most a ||z||^2,
    so M = lam + a r^2; <grad, w> >= lam ||w||^2 - a ||z|| ||w|| gives
    m = lam/2, b = a^2 r^2 / (2 lam); f(0, z) = a = A. No strong-convexity
    modulus is claimed.
    """

    def __init__(self, lam: float, a: float, data_radius: float, d: int):
        if not lam > 0:
            raise ValueError(f"lambda must be positive, got {lam}")
        if not a >= 0:
            raise ValueError(f"amplitude a must be nonnegative, got {a}")
        self.lam = float(lam)
        self.a = float(a)
        r = float(data_radius)
        try:
            a_sq = self.a**2
        except OverflowError:  # LossConstants refuses the infinite b
            a_sq = math.inf
        super().__init__(d, LossConstants(
            M=self.lam + self.a * r * r,
            m=self.lam / 2.0,
            b=a_sq * r * r / (2.0 * self.lam),
            A=self.a if self.a > 0 else 0.0,
            data_radius=r,
        ))
        self.z_dim = self.d

    def eval_many(self, W, Z):
        W = np.atleast_2d(W)
        Z = np.atleast_2d(Z)
        dots = np.einsum("ij,ij->i", W, Z)
        return 0.5 * self.lam * np.einsum("ij,ij->i", W, W) + self.a * np.cos(dots)

    def grad_minibatch(self, W, Zb):
        W = np.asarray(W, dtype=float)
        Zb = np.asarray(Zb, dtype=float)
        dots = np.einsum("cd,ckd->ck", W, Zb)
        return self.lam * W - self.a * np.einsum("ck,ckd->cd", np.sin(dots), Zb) / Zb.shape[1]

    def stability_sq(self, W, S, S_alt):
        # lam W cancels; each dataset takes its own contractions, as in the
        # logistic family
        diff = self._data_sum(W, S) - self._data_sum(W, S_alt)
        diff *= self.a / S.shape[0]
        return np.einsum("ij,ij->i", diff, diff)

    @staticmethod
    def _data_sum(W, dataset):
        # sum_i sin(<W[c], z_i>) z_i per state c, the sines taken in place
        dots = _margins(W, dataset)
        return _back_contract(np.sin(dots, out=dots), dataset)


def _weights(dots: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """y sigma(-y <w, x>) from the inner products <w, x> and the +-1 labels
    y, in place in `dots`, as 0.5 (y - tanh(<w, x> / 2)).

    tanh saturates instead of overflowing, so every input is safe: +-inf
    and |<w, x>| >= 40 give exactly 0 or y, and +-0 gives y / 2. The weight
    is within one machine epsilon of y sigma(-y <w, x>) in absolute error
    only: y - tanh cancels where the weight is near 0, and its relative
    error grows there. It has the bits of y * 0.5 (1 + tanh(-y <w, x> / 2)),
    save the sign of an exactly-zero weight.
    """
    dots *= 0.5
    np.tanh(dots, out=dots)
    np.subtract(Y, dots, out=dots)
    dots *= 0.5
    return dots


def _margins(W: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The (b, n) inner products <W[c], X[i]> of b states and n shared points,
    as one (1, d) @ (d, n) product per row c, like `_back_contract`. So a
    row's bits depend neither on the other rows nor on the BLAS thread
    count, as a (b, d) @ (d, n) product's do."""
    return np.matmul(W[:, None, :], np.ascontiguousarray(X.T))[:, 0]


def _back_contract(factor: np.ndarray, X: np.ndarray) -> np.ndarray:
    """sum_k factor[c, k] X[c, k, :] as one batched (1, k) @ (k, d) product
    per row c; X may be one (k, d) array shared by every row. Each row is
    its own BLAS call of the same shape, so a row's bits do not depend on
    the other rows of the call (unlike one (c, k) @ (k, d) product, whose
    output rows take different kernel paths by position)."""
    return np.matmul(factor[:, None, :], X)[:, 0]


# ======================================================================
# Certification
# ======================================================================


@dataclass(frozen=True)
class InequalityCheck:
    """Outcome of stress-testing one claimed inequality.

    `worst_margin` is the smallest observed slack (inequality RHS minus LHS);
    a negative value beyond tolerance is a violation. `witness` holds the
    sampled point that attained the worst margin.
    """

    inequality_name: str
    n_samples: int
    n_violations: int
    worst_margin: float
    witness: dict

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class CertificationReport:
    """Full certification outcome for one model's claimed constants."""

    model_name: str
    constants: LossConstants
    checks: tuple[InequalityCheck, ...]
    seed: int
    tol: float

    @property
    def passed(self) -> bool:
        return all(c.n_violations == 0 for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "model_name": self.model_name,
            "constants": self.constants.to_dict(),
            "passed": self.passed,
            "seed": self.seed,
            "tol": self.tol,
            "checks": [c.to_dict() for c in self.checks],
        }


def _check_from_margins(
    name: str, margins: np.ndarray, witnesses: dict, tol: float
) -> InequalityCheck:
    worst_idx = int(np.argmin(margins))
    n_violations = int(np.sum(margins < -tol))
    witness = {key: np.asarray(val)[worst_idx].tolist() for key, val in witnesses.items()}
    witness["margin"] = float(margins[worst_idx])
    return InequalityCheck(
        inequality_name=name,
        n_samples=int(margins.size),
        n_violations=n_violations,
        worst_margin=float(margins[worst_idx]),
        witness=witness,
    )


def check_samples(n_samples: int) -> None:
    """Raise ValueError unless `certify` can draw `n_samples` points."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be positive, got {n_samples}")


def certify(
    model: LossModel,
    n_samples: int = 10_000,
    rng_seed: int = 0,
) -> CertificationReport:
    """Stress-test a model's claimed constants on random samples.

    Parameters w are drawn uniformly from the cube of half-width
    10 * max(1, sqrt(b/m)), which covers the region where the dynamics
    concentrate; data points come from the model's data distribution.
    Each block of 4096 samples is drawn from its own child seed.

    Checks performed, each on `grad_minibatch`, the kernel the chains run
    (at one point per row in the five sampled checks):
      smoothness         ||grad(w,z) - grad(w',z)|| <= M ||w - w'||
      dissipativity      <grad(w,z), w> >= m ||w||^2 - b
      origin_gradient    ||grad(0,z)|| <= B
      envelope_lower     f(w,z) >= (m/3) ||w||^2 - (b/2) log 3
      envelope_upper     f(w,z) <= (M/2) ||w||^2 + B ||w|| + A
      gradient_fd        on 3-point minibatches at 100 states, central
                         differences of the minibatch mean of `eval_many`
                         match `grad_minibatch` to rel. error 1e-5

    with B = `LossConstants.origin_grad_bound`. Returns a report with
    per-inequality violation counts and witness points; a margin below
    -CERT_TOL is a violation. A wrong claim yields a failing report, never
    an exception.
    """
    check_samples(n_samples)
    lc = model.constants()
    half_width = 10.0 * max(1.0, math.sqrt(lc.b / lc.m))
    B = lc.origin_grad_bound

    from .sgld import stream  # sgld imports this module
    seq = stream(rng_seed, "certify")
    chunk = 4096
    W = np.empty((n_samples, model.d))
    Wbar = np.empty((n_samples, model.d))
    Z = np.empty((n_samples, model.z_dim))
    for i, child in enumerate(seq.spawn(-(-n_samples // chunk))):
        rng = np.random.default_rng(child)
        rows = slice(i * chunk, min((i + 1) * chunk, n_samples))
        take = rows.stop - rows.start
        W[rows] = rng.uniform(-half_width, half_width, size=(take, model.d))
        Wbar[rows] = rng.uniform(-half_width, half_width, size=(take, model.d))
        Z[rows] = model.sample_data(rng, take)

    # the kernels are row-independent, so one call over all rows gives the
    # bits of per-block calls; each gradient array goes once its margins do
    Z1 = Z[:, None]
    G = model.grad_minibatch(W, Z1)
    smooth = (lc.M * np.linalg.norm(W - Wbar, axis=1)
              - np.linalg.norm(G - model.grad_minibatch(Wbar, Z1), axis=1))
    w_norm = np.linalg.norm(W, axis=1)
    dissip = np.einsum("ij,ij->i", G, W) - (lc.m * w_norm**2 - lc.b)
    del G
    origin = B - np.linalg.norm(model.grad_minibatch(np.zeros_like(W), Z1), axis=1)
    f_vals = model.eval_many(W, Z)
    lower = lc.m / 3.0 * w_norm**2 - lc.b / 2.0 * math.log(3.0)
    upper = lc.M / 2.0 * w_norm**2 + B * w_norm + lc.A

    checks = (
        _check_from_margins("smoothness", smooth, {"w": W, "w_bar": Wbar, "z": Z}, CERT_TOL),
        _check_from_margins("dissipativity", dissip, {"w": W, "z": Z}, CERT_TOL),
        _check_from_margins("origin_gradient", origin, {"z": Z}, CERT_TOL),
        _check_from_margins("envelope_lower", f_vals - lower, {"w": W, "z": Z}, CERT_TOL),
        _check_from_margins("envelope_upper", upper - f_vals, {"w": W, "z": Z}, CERT_TOL),
        _fd_gradient_check(model, seq.spawn(1)[0], half_width),
    )
    return CertificationReport(
        model_name=type(model).__name__,
        constants=lc,
        checks=checks,
        seed=int(rng_seed),
        tol=CERT_TOL,
    )


def _fd_gradient_check(
    model: LossModel, seed_seq: np.random.SeedSequence, half_width: float,
) -> InequalityCheck:
    """Central differences of the minibatch mean of `eval_many` against
    `grad_minibatch`, on FD_MINIBATCH-point minibatches at FD_POINTS states
    of the cube. The coordinates go in blocks whose (point, coordinate, k)
    rows hold at most `sgld.BLOCK_WORDS` words, so memory does not grow
    with d^2; `eval_many` is row-wise, so the blocks give the same bits."""
    from .sgld import _block_len  # sgld imports this module

    k, d, n_points = FD_MINIBATCH, model.d, FD_POINTS
    rng = np.random.default_rng(seed_seq)
    W = rng.uniform(-half_width, half_width, size=(n_points, d))
    Zb = model.sample_data(rng, n_points * k).reshape(n_points, k, model.z_dim)
    g = model.grad_minibatch(W, Zb)
    g_norm = np.linalg.norm(g, axis=1)
    h = 1e-5 * (1.0 + np.linalg.norm(W, axis=1))

    def mean_loss(states: np.ndarray) -> np.ndarray:
        # states (n_points, b, d): the minibatch mean of the loss at each
        # shifted state, as one eval_many call over (point, coordinate, k) rows
        shape = (*states.shape[:2], k)
        rows = np.broadcast_to(states[:, :, None], (*shape, d))
        pts = np.broadcast_to(Zb[:, None], (*shape, model.z_dim))
        return model.eval_many(rows.reshape(-1, d),
                               pts.reshape(-1, model.z_dim)).reshape(shape).mean(axis=2)

    fd = np.empty((n_points, d))
    block = _block_len(n_points * k * model.z_dim)
    for j0 in range(0, d, block):
        # step[i, j] = h[i] e_(j0 + j), the block's rows of h[i] I
        step = h[:, None, None] * np.eye(min(block, d - j0), d, k=j0)
        fd[:, j0:j0 + block] = ((mean_loss(W[:, None] + step) - mean_loss(W[:, None] - step))
                                / (2.0 * h[:, None]))
    # a vanishing gradient (a degenerate point) counts as agreement
    rel_err = np.divide(np.linalg.norm(fd - g, axis=1), g_norm,
                        out=np.zeros(n_points), where=g_norm >= FD_DEGENERATE_NORM)
    # violations here mean rel. error at or past the threshold, not a
    # float-slack overrun, so the check uses tol = 0
    return _check_from_margins("gradient_fd", FD_REL_TOL - rel_err,
                               {"w": W, "z": Zb, "rel_err": rel_err}, tol=0.0)
