"""The experiment config: its schema, the rules that refuse a value, and the
validated `ExperimentConfig` the subcommands read.

`_SCHEMAS` holds each key's default, JSON type and the rule its value alone
must pass; `_check_values` holds the rules that read more than one key.
`_arrays` is the one table of the arrays whose bytes grow with a count,
which `_check_values` holds to `sgld.ARRAY_BYTE_CAP`, and `_readers` the one
table of the keys only some configs read, of which it refuses any value but
the default where the reading code's own condition says it goes unread.
`parse` checks a dict against both, and `load_config` reads one from a JSON
file. Each refusal is a ConfigError that names its key, raised before any
subcommand opens its output directory, by the rule of the code that uses
the value.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .bounds import (BOUND_NAMES, KL_CHAIN_BOUNDS, SIGMA_G_SQ_BOUNDS, bound_farghly_shape,
                     bound_xu_raginsky, draws_oracle_pairs, farghly_subsamples, horizon_grid)
from .constants import (LSI_MODES, ParametrixOverrides, check_universal_C, derive_constants,
                        lsi_route, subexp_params)
from .estimators import (EVAL_LOSSES, LOGMGF_MIN_SAMPLES, admitted_lambdas,
                         pth_moment_min_chains, variance_resamples)
from .fokker_planck import Grid1D, stability_limit, suggested_halfwidth
from .losses import LogisticRidgeLoss, NonconvexRidgeLoss, QuadraticLoss, check_samples
from .oracle import has_oracle_law
from .sgld import (ARRAY_BYTE_CAP, CHAIN_RNG_BYTES, STEP_CHUNK, SGLDConfig, _index_dtype,
                   check_count, check_size)


class ConfigError(Exception):
    pass


def _check(key: str, rule, *args, **kwargs):
    """`rule(*args, **kwargs)`, its ValueError reported against config key `key`."""
    try:
        return rule(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _coerce(value, expected):
    """`value` as JSON type `expected` (a float key takes an int in the float
    range too)."""
    if expected is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"expected a number, got {value!r}")
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int beyond the float range
            finite = False
        if not finite:
            raise ValueError(f"expected a finite number, got {value!r}")
        return float(value)
    if not isinstance(value, expected) or expected is int and isinstance(value, bool):
        what = "an integer" if expected is int else expected.__name__
        raise ValueError(f"expected {what}, got {value!r}")
    return value


def _one_of(names, what: str):
    """The rule refusing any value but `names`, as an unknown `what`."""
    def rule(value):
        if value not in names:
            raise ValueError(f"unknown {what} {value!r}")
    return rule


def _entries(rule, whole=None):
    """The rule of a list: `rule` on each entry, then `whole` on the list."""
    def check(entries):
        for entry in entries:
            rule(entry)
        if whole is not None:
            whole(entries)
    return check


def _grid(entries):
    """The rule of a whole bounds list: no empty list and no repeated entry,
    since bounds.csv has one row per (name, T, n), the key `compare` reads
    it by (null, not [], selects a grid's default)."""
    if not entries:
        raise ValueError("empty list")
    repeated = sorted({e for e in entries if entries.count(e) > 1})
    if repeated:
        raise ValueError(f"repeated entries {repeated}")


_INT, _FLOAT = partial(_coerce, expected=int), partial(_coerce, expected=float)


_REQ = object()

# per block: key -> (default or the required marker, JSON type, the rule a
# given value must pass or None); a null given for a null default stays null
_SCHEMAS = {
    "loss": {
        "family": (_REQ, str, None),
        "d": (_REQ, int, partial(check_size, "d")),
        "data_radius": (1.0, float, None),
        "R": (None, float, None),
        "lam": (None, float, None),
        "a": (None, float, None),
        "claimed": (None, dict, None),
        "certify_samples": (10_000, int, check_samples),
    },
    "sgld": {
        "eta": (_REQ, float, None),
        "beta": (_REQ, float, None),
        "k": (_REQ, int, partial(check_size, "k")),
        "T": (_REQ, int, partial(check_size, "T")),
        "s_sq": (1.0, float, None),
        "seed": (0, int, None),
    },
    "data": {
        "n": (_REQ, int, partial(check_size, "n")),
    },
    "bounds": {
        "which": (list(BOUND_NAMES), list,
                  _entries(_one_of(BOUND_NAMES, "bound name"), _grid)),
        # xu_raginsky's rule; n = 1 and a zero MI fit every config
        "sigma_g_sq": (None, float, partial(bound_xu_raginsky, n=1, mi_upper=0.0)),
        # farghly_shape's rule; the other constant at 1, eta = 1, T = 0 and
        # n = 2 > k = 1 fit every config
        "farghly_C1": (1.0, float, partial(bound_farghly_shape, C2=1.0, eta=1.0,
                                           T=0, n=2, k=1)),
        "farghly_C2": (1.0, float, partial(bound_farghly_shape, 1.0, eta=1.0,
                                           T=0, n=2, k=1)),
        # null: `lsi_route` of the model, set at load
        "lsi_mode": (None, str, _one_of(LSI_MODES, "mode")),
        "universal_C_lsi": (1.0, float, check_universal_C),
        "universal_C_moment": (1.0, float, check_universal_C),
        "T_grid": (None, list, _entries(_INT, _grid)),
        "n_grid": (None, list, _entries(_INT, _grid)),
        "parametrix": (None, dict, None),
    },
    "estimators": {
        "n_trials": (10, int, partial(check_count, "n_trials")),
        "n_chains": (32, int, partial(check_count, "n_chains")),
        "n_resamples": (300, int, partial(check_count, "n_resamples")),
        "n_pairs": (50, int, partial(check_count, "n_pairs")),
        "mi_pairs": (200, int, partial(check_count, "n_dataset_pairs")),
        "p_list": ([2, 4], list, _entries(_INT, pth_moment_min_chains)),
        "lambda_grid": ([-0.5, -0.1, 0.1, 0.5], list, _entries(_FLOAT)),
        "eval_loss": ("surrogate", str, _one_of(EVAL_LOSSES, "loss")),
    },
    "fp": {
        "n_cells": (256, int, None),
        "halfwidth": (None, float, None),
        "dt_safety": (0.45, float, None),
        "T_end": (0.3, float, None),
        "center_gap": (0.4, float, None),
    },
    "verify": {
        "falsify": (False, bool, None),
        "oracle_T": (2000, int, None),
    },
}
_REQUIRED_BLOCKS = ("loss", "sgld", "data")

# loss family -> (constructor, the loss keys it takes, all required)
_FAMILIES = {
    "quadratic": (QuadraticLoss, ("R",)),
    "logistic_ridge": (LogisticRidgeLoss, ("lam",)),
    "nonconvex_ridge": (NonconvexRidgeLoss, ("lam", "a")),
}
_FAMILY_KEYS = sorted({key for _, keys in _FAMILIES.values() for key in keys})


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, fully-defaulted experiment description."""

    blocks: dict

    def __getitem__(self, name: str) -> dict:
        return self.blocks[name]

    def config_hash(self) -> str:
        canonical = json.dumps(self.blocks, sort_keys=True, indent=2)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    def model(self):
        loss = self.blocks["loss"]
        family = loss["family"]
        if family not in _FAMILIES:
            raise ConfigError(f"unknown loss family {family!r}")
        make, keys = _FAMILIES[family]
        for key in _FAMILY_KEYS:
            if key not in keys and loss[key] is not None:
                raise ConfigError(f"loss.{key}: the {family} family takes no {key}")
        if any(loss[key] is None for key in keys):
            raise ConfigError(f"the {family} family requires "
                              + " and ".join(f"loss.{key}" for key in keys))
        try:
            model = make(**{key: loss[key] for key in keys},
                         data_radius=loss["data_radius"], d=loss["d"])
        except ValueError as exc:
            raise ConfigError(f"loss: {exc}") from exc
        if loss["claimed"] is not None:
            # deliberately wrong claims, for exercising the certifier
            try:
                model = model.with_constants(**loss["claimed"])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"loss.claimed: {exc}") from exc
        return model

    def sgld_config(self) -> SGLDConfig:
        s = self.blocks["sgld"]
        try:
            return SGLDConfig(
                eta=s["eta"], beta=s["beta"], k=s["k"],
                n=self.blocks["data"]["n"], T=s["T"],
                d=self.blocks["loss"]["d"], s_sq=s["s_sq"],
                seed=s["seed"],
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"sgld: {exc}") from exc

    def oracle_config(self) -> SGLDConfig:
        """`verify`'s oracle chain: the run's at full batch, verify.oracle_T steps."""
        s, T = self.sgld_config(), self.blocks["verify"]["oracle_T"]
        if T < 1:  # a one-entry KL trace has no step to check
            raise ConfigError(f"verify.oracle_T: the oracle's KL recursion needs at "
                              f"least 1 step, got {T}")
        return _check("verify.oracle_T", dataclasses.replace, s, k=s.n, T=T)

    def parametrix(self) -> ParametrixOverrides | None:
        """bounds.parametrix as overrides, None for the defaults; a malformed
        one is a ConfigError."""
        over = self.blocks["bounds"]["parametrix"]
        if over is None:
            return None
        try:
            return ParametrixOverrides(**over)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bounds.parametrix: {exc}") from exc

    def derived(self):
        """The derived constants, or why they are undefined for this config.

        A malformed bounds.parametrix is a ConfigError; a configuration
        outside a derivation's range (say, eta >= m/(5 M^2) in a run made
        with --allow-unsafe) yields the reason, for the bounds to carry.
        """
        b = self.blocks["bounds"]
        s = self.blocks["sgld"]
        try:
            return derive_constants(
                self.model().constants(), eta=s["eta"], beta=s["beta"],
                d=self.blocks["loss"]["d"], s_sq=s["s_sq"],
                lsi_mode=b["lsi_mode"], overrides=self.parametrix(),
                universal_C_lsi=b["universal_C_lsi"],
                universal_C_moment=b["universal_C_moment"],
            )
        except ValueError as exc:
            return f"derived-constants-unavailable: {exc}"


def load_config(path) -> ExperimentConfig:
    """`parse` of the JSON file at `path`."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # malformed JSON, undecodable text, too long an int
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse(raw)


def parse(raw) -> ExperimentConfig:
    """The config `raw`, a dict as JSON gives it, fully defaulted, if it
    passes the schema and every rule; else ConfigError."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - set(_SCHEMAS)
    if unknown:
        raise ConfigError(f"unknown config blocks: {sorted(unknown)}")
    for block in _REQUIRED_BLOCKS:
        if block not in raw:
            raise ConfigError(f"missing required config block {block!r}")
    blocks = {}
    for block, schema in _SCHEMAS.items():
        given = raw.get(block, {})
        if not isinstance(given, dict):
            raise ConfigError(f"block {block!r} must be an object")
        unknown = set(given) - set(schema)
        if unknown:
            raise ConfigError(f"unknown keys in {block!r}: {sorted(unknown)}")
        out = blocks[block] = {}
        for key, (default, expected, rule) in schema.items():
            if key not in given:
                if default is _REQ:
                    raise ConfigError(f"missing required key {block}.{key}")
                out[key] = default
            elif given[key] is None and default is None:
                out[key] = None
            else:
                out[key] = _check(f"{block}.{key}", _coerce, given[key], expected)
                if rule is not None:
                    _check(f"{block}.{key}", rule, out[key])
    cfg = ExperimentConfig(blocks=blocks)
    _check_values(cfg)
    return cfg


def _check_values(cfg: ExperimentConfig) -> None:
    """The rules that read more than one key, each the rule of the code that
    uses the values, and the byte cap of `_arrays`' table; an unset
    bounds.lsi_mode takes the model's route."""
    model = cfg.model()  # family-specific parameter validation
    lc = model.constants()
    bnd, est = cfg["bounds"], cfg["estimators"]
    if bnd["lsi_mode"] is None:
        bnd["lsi_mode"] = lsi_route(lc)
    sgld_cfg = cfg.sgld_config()
    for key, who, arrays in _arrays(cfg, model, sgld_cfg):
        for what, size in arrays.items():
            if size > ARRAY_BYTE_CAP:
                raise ConfigError(f"{key}: {who} need a {size}-byte {what}, above "
                                  f"the {ARRAY_BYTE_CAP}-byte cap")
    nu = _check("bounds.universal_C_moment", subexp_params, lc, beta=sgld_cfg.beta,
                d=sgld_cfg.d, s_sq=sgld_cfg.s_sq,
                universal_C=bnd["universal_C_moment"])["nu"]
    _check("estimators.lambda_grid", admitted_lambdas, est["lambda_grid"], nu)
    for (block, key), (read, why) in _readers(cfg, model, sgld_cfg).items():
        if not read and cfg[block][key] != _SCHEMAS[block][key][0]:
            raise ConfigError(f"{block}.{key}: {why}")
    _check("fp", _verify_fp_runs, cfg, lc, ends_only=True)
    cfg.oracle_config()  # the chain `verify` checks
    cfg.parametrix()  # the parse `derived` makes
    _check("bounds.T_grid", horizon_grid, bnd["T_grid"], sgld_cfg.T)
    for n in bnd["n_grid"] or ():
        # SGLDConfig states the dataset-size rule; k = 1 fits every size
        _check("bounds.n_grid", dataclasses.replace, sgld_cfg, n=n, k=1)


def _readers(cfg: ExperimentConfig, model, s: SGLDConfig) -> dict:
    """(block, key) -> (whether the code that reads the key reads it on this
    config, what reads it and when) of each key that only some configs read."""
    b, which, family = cfg["bounds"], cfg["bounds"]["which"], cfg["loss"]["family"]
    lambda_grid = (cfg["estimators"]["n_chains"] >= LOGMGF_MIN_SAMPLES,
                   f"only the log-MGF check reads it, at {LOGMGF_MIN_SAMPLES} or more chains")
    farghly = ("farghly_shape" in which and any(farghly_subsamples(s.k, s.n, n)
                                                for n in b["n_grid"] or [s.n]),
               "only farghly_shape reads it, at a k below the run's n and an n of the grid")
    return {
        ("estimators", "mi_pairs"): (draws_oracle_pairs(model, b, s), "only xu_raginsky's "
                                     "oracle reads it: on the quadratic family at k = n, "
                                     "with xu_raginsky named and bounds.sigma_g_sq set"),
        ("estimators", "n_resamples"): (variance_resamples(s), "only the variance estimator "
                                        "reads it, at k < n"),
        ("estimators", "lambda_grid"): lambda_grid,
        ("verify", "oracle_T"): (has_oracle_law(model.constants()), f"the {family} "
                                 "family has no R, so verify runs no oracle check"),
        ("bounds", "universal_C_lsi"): (
            b["lsi_mode"] == "general_dissipative", f"the strongly_convex route reads no "
            f"universal C, got {b['universal_C_lsi']}; leave it at "
            f"{_SCHEMAS['bounds']['universal_C_lsi'][0]} or set bounds.lsi_mode to "
            f"general_dissipative"),
        **{("bounds", key): (any(name in which for name in names),
                             f"only {', '.join(names)} in bounds.which read it")
           for key, names in (("sigma_g_sq", SIGMA_G_SQ_BOUNDS),
                              ("parametrix", KL_CHAIN_BOUNDS))},
        ("bounds", "universal_C_moment"): (
            lambda_grid[0] or any(name in which for name in KL_CHAIN_BOUNDS),
            f"only the log-MGF check, at {LOGMGF_MIN_SAMPLES} or more chains, and "
            f"{', '.join(KL_CHAIN_BOUNDS)} in bounds.which read it"),
        **dict.fromkeys([("bounds", "farghly_C1"), ("bounds", "farghly_C2")], farghly),
    }


def _arrays(cfg: ExperimentConfig, model, s: SGLDConfig) -> list:
    """(key, who, {array: bytes}) of each count whose arrays grow with it:
    the bytes of each array it makes a subcommand allocate, as the code
    that allocates it sizes it; an array made only at k < n is 0 at k = n,
    and the oracle's data draw is 0 where `bounds` draws no oracle pairs."""
    est, draws = cfg["estimators"], cfg["loss"]["certify_samples"]
    R, pairs, oracle_T = est["n_resamples"], est["mi_pairs"], cfg["verify"]["oracle_T"]
    sub, index = s.k < s.n, np.dtype(_index_dtype(s.n)).itemsize
    chunk, cells = min(STEP_CHUNK, s.T), cfg["fp"]["n_cells"]
    n_max = max(cfg["bounds"]["n_grid"] or [s.n])

    def engine(c: int, own_data: bool) -> tuple:
        # `_lockstep_chunks`' buffers and c chains' RNG objects; `run`'s
        # worker gives each chain its own dataset
        return f"{c} chains", {"step buffer": 8 * chunk * c * s.d,
                               "index buffer": sub * index * chunk * c * s.k,
                               "dataset stack": own_data * 8 * c * s.n * model.z_dim,
                               "RNG state": CHAIN_RNG_BYTES * c}

    return [
        ("estimators.n_chains", *engine(est["n_chains"], False)),
        ("estimators.n_pairs + estimators.n_trials",
         *engine(est["n_pairs"] + est["n_trials"], True)),
        # one state's resamples in `grad_variance_trace`
        ("estimators.n_resamples", f"{R} resamples", {
            "offset array": sub * 8 * R * s.k, "deviation sum": sub * 8 * R * s.d,
            "Fisher-Yates scratch": sub * index * s.n * R}),
        ("estimators.mi_pairs", f"{pairs} dataset pairs", {"gap array": 8 * pairs}),
        # `bounds`' oracle draws each pair's (n, z_dim) datasets at every n of
        # the grid
        ("bounds.n_grid", f"{n_max}-point datasets", {
            "data draw": draws_oracle_pairs(model, cfg["bounds"], s) * 8 * n_max
            * model.z_dim}),
        ("loss.certify_samples", f"{draws} samples", {
            "state draw": 8 * draws * model.d, "data draw": 8 * draws * model.z_dim}),
        ("verify.oracle_T", f"{oracle_T} oracle steps", {"law trace": 8 * (oracle_T + 1)}),
        # `run`'s (3, T) chain 0 series; its (T + 1)-long norms, and `bounds`'
        # law up to a T_grid entry, are no larger
        ("sgld.T", f"{s.T} steps", {"gradient series": 24 * s.T}),
        # `verify`'s fine Fokker-Planck run: the (2, 3, 2 n_cells) bands
        ("fp.n_cells", f"{cells} cells", {"band array": 96 * cells}),
    ]


# the most steps of one of `verify`'s Fokker-Planck runs. A step takes about
# 64 us at 1,024 cells, so a run at the cap takes seconds and its
# (n_steps + 1)-long traces a few MB; a cap of numpy's largest array let
# fp.halfwidth 1e-3 over 64 cells ask for 341,337,621 rows (2.54 GiB) and
# fail in the middle of `verify`. The benchmark's runs take at most 3,942.
FP_STEP_CAP = 10**5


def _verify_fp_runs(cfg: ExperimentConfig, lc, ends_only: bool = False):
    """(label, grid, grad_s, grad_alt, dt, n_steps) of each of `verify`'s
    Fokker-Planck runs: two shifted quadratics on the coarse grid and on
    twice its cells, with dt the `fp.dt_safety` share of the stability limit
    at grad_s, and n_steps the steps of dt in `fp.T_end` (at least 2), at
    most `FP_STEP_CAP`, and within both gradients' limits. `ends_only`, as
    load runs it, gives the gradients at the two end cells alone: they are
    linear in w, so the largest |grad| is at an end."""
    fp = cfg["fp"]
    if not fp["T_end"] > 0:
        raise ValueError(f"T_end must be positive, got {fp['T_end']}")
    beta = cfg["sgld"]["beta"]
    R_fp = lc.R if lc.R is not None else lc.m
    hw = fp["halfwidth"] or suggested_halfwidth(beta, lc.m)
    runs = []
    for label, n_cells in (("coarse", fp["n_cells"]), ("fine", 2 * fp["n_cells"])):
        grid = Grid1D(-hw, hw, n_cells)
        w = grid.cell_centers([0, n_cells - 1]) if ends_only else grid.centers
        cs, ca = fp["center_gap"] / 2.0, -fp["center_gap"] / 2.0
        gs, ga = R_fp * (w - cs), R_fp * (w - ca)
        limit = stability_limit(grid, gs, beta)
        if not limit > 0:  # h^2 underflows, or 2/beta + h max|grad| overflows
            raise ConfigError(
                f"fp.halfwidth: {hw} over {n_cells} cells, at beta = {beta} and "
                f"max|grad| = {float(np.abs(gs).max())}, leaves the Fokker-Planck "
                f"step no positive dt (its stability limit is {limit})")
        dt = fp["dt_safety"] * limit
        if not dt > 0:  # T_end / dt below would divide by a zero dt
            raise ConfigError(f"fp.dt_safety: {fp['dt_safety']} of the stability "
                              f"limit {limit} gives dt = {dt}; dt must be positive")
        steps = fp["T_end"] / dt
        if not steps <= FP_STEP_CAP:
            raise ValueError(f"T_end = {fp['T_end']} is {steps} steps of dt = {dt} "
                             f"over {n_cells} cells of halfwidth {hw}; a run takes at "
                             f"most {FP_STEP_CAP}: lower fp.T_end, or widen the cells "
                             f"(fewer fp.n_cells or a larger fp.halfwidth)")
        runs.append((label, grid, gs, ga, dt, max(2, int(steps))))
    # after both grids' step caps, so a config past a cap is refused by fp
    for _, grid, gs, ga, dt, _ in runs:
        for grad in (gs, ga):
            dt_max = stability_limit(grid, grad, beta)
            if not dt <= dt_max:  # a NaN limit, from a non-finite grad, too
                raise ConfigError(f"fp.dt_safety: dt={dt} exceeds the stability limit "
                                  f"{dt_max}; suggested dt = {0.9 * dt_max}")
    return runs
