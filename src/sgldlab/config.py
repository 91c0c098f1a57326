"""The experiment config: its schema, the rules that refuse a value, and the
validated `ExperimentConfig` the subcommands read.

`_SCHEMAS` holds each key's default, JSON type and the rule its value alone
must pass; `_check_values` holds the rules that read more than one key.
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

from .bounds import BOUND_NAMES, bound_farghly_shape, bound_xu_raginsky, horizon_grid
from .constants import (LSI_MODES, ParametrixOverrides, derive_constants, lsi_route,
                        subexp_params)
from .estimators import EVAL_LOSSES, admitted_lambdas, check_resamples, pth_moment_min_chains
from .fokker_planck import Grid1D, check_dt, stability_limit, suggested_halfwidth
from .losses import (LogisticRidgeLoss, NonconvexRidgeLoss, QuadraticLoss, check_draws,
                     check_samples)
from .oracle import check_horizon, check_pairs
from .sgld import SGLDConfig, check_chains, check_count, check_size


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
        "universal_C_lsi": (1.0, float, None),
        "universal_C_moment": (1.0, float, None),
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
    uses the values; an unset bounds.lsi_mode takes the model's route."""
    model = cfg.model()  # family-specific parameter validation
    lc = model.constants()
    bnd, est = cfg["bounds"], cfg["estimators"]
    if bnd["lsi_mode"] is None:
        bnd["lsi_mode"] = lsi_route(lc)
    sgld_cfg = cfg.sgld_config()
    # the chain engine's largest arrays in `run`'s process and in its worker,
    # whose chains each have their own dataset
    _check("estimators.n_chains", check_chains, sgld_cfg, est["n_chains"])
    _check("estimators.n_pairs + estimators.n_trials", check_chains, sgld_cfg,
           est["n_pairs"] + est["n_trials"], model.z_dim)
    # the largest arrays of the variance trace, the oracle's pairs and certify
    _check("estimators.n_resamples", check_resamples, sgld_cfg, est["n_resamples"])
    _check("estimators.mi_pairs", check_pairs, est["mi_pairs"])
    _check("loss.certify_samples", check_draws, model, cfg["loss"]["certify_samples"])
    nu = _check("bounds.universal_C_moment", subexp_params, lc, beta=sgld_cfg.beta,
                d=sgld_cfg.d, s_sq=sgld_cfg.s_sq,
                universal_C=bnd["universal_C_moment"])["nu"]
    _check("estimators.lambda_grid", admitted_lambdas, est["lambda_grid"], nu)
    # lsi_constant reads its universal C on the general dissipative route only
    default_C_lsi = _SCHEMAS["bounds"]["universal_C_lsi"][0]
    if bnd["lsi_mode"] == "strongly_convex" and bnd["universal_C_lsi"] != default_C_lsi:
        raise ConfigError(
            f"bounds.universal_C_lsi: the strongly_convex route reads no universal C, "
            f"got {bnd['universal_C_lsi']}; leave it at {default_C_lsi} or set "
            f"bounds.lsi_mode to general_dissipative")
    for _, grid, gs, ga, dt, _ in _check("fp", _verify_fp_runs, cfg, lc):
        for grad in (gs, ga):
            _check("fp.dt_safety", check_dt, grid, grad, sgld_cfg.beta, dt)
    oracle_T = cfg["verify"]["oracle_T"]
    if oracle_T < 1:  # a one-entry KL trace has no step to check
        raise ConfigError(f"verify.oracle_T: the oracle's KL recursion needs at "
                          f"least 1 step, got {oracle_T}")
    _check("verify.oracle_T", dataclasses.replace, sgld_cfg, k=sgld_cfg.n, T=oracle_T)
    _check("verify.oracle_T", check_horizon, oracle_T)
    cfg.parametrix()  # the parse `derived` makes
    if cfg["verify"]["falsify"] and lc.R is None:
        # falsify changes the oracle section only, which needs R
        raise ConfigError(f"verify.falsify: the {cfg['loss']['family']} family has "
                          f"no R, so verify runs no oracle check to falsify")
    _check("bounds.T_grid", horizon_grid, bnd["T_grid"], sgld_cfg.T)
    for n in bnd["n_grid"] or ():
        # SGLDConfig states the dataset-size rule; k = 1 fits every size
        _check("bounds.n_grid", dataclasses.replace, sgld_cfg, n=n, k=1)


# the most steps of one of `verify`'s Fokker-Planck runs. A step takes about
# 64 us at 1,024 cells, so a run at the cap takes seconds and its
# (n_steps + 1)-long traces a few MB; a cap of numpy's largest array let
# fp.halfwidth 1e-3 over 64 cells ask for 341,337,621 rows (2.54 GiB) and
# fail in the middle of `verify`. The benchmark's runs take at most 3,942.
FP_STEP_CAP = 10**5


def _verify_fp_runs(cfg: ExperimentConfig, lc):
    """(label, grid, grad_s, grad_alt, dt, n_steps) of each of `verify`'s
    Fokker-Planck runs: two shifted quadratics on the coarse grid and on
    twice its cells, with dt the `fp.dt_safety` share of the stability limit
    at grad_s, and n_steps the steps of dt in `fp.T_end` (at least 2), at
    most `FP_STEP_CAP`."""
    fp = cfg["fp"]
    if not fp["T_end"] > 0:
        raise ValueError(f"T_end must be positive, got {fp['T_end']}")
    beta = cfg["sgld"]["beta"]
    R_fp = lc.R if lc.R is not None else lc.m
    hw = fp["halfwidth"] or suggested_halfwidth(beta, lc.m)
    runs = []
    for label, n_cells in (("coarse", fp["n_cells"]), ("fine", 2 * fp["n_cells"])):
        grid = Grid1D(-hw, hw, n_cells)
        w = grid.centers
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
    return runs
