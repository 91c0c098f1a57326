"""Command-line entry point wiring configs to the library modules.

Subcommands: certify | run | bounds | verify | compare. A single JSON
config drives everything; the schema is strict (unknown keys rejected,
defaults echoed back), every invocation writes a manifest with the config
hash, seed, precondition results and the produced files, and an output
directory is protected by a lock file against concurrent runs.

Exit codes: 0 success, 1 usage or config error or a failed run, 2 assertion
or violation, 128 + the signal number when SIGINT or SIGTERM interrupts it.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import json
import math
import os
import shutil
import signal
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .bounds import (
    BOUND_NAMES,
    BOUNDS_CSV_COLUMNS,
    BoundEntry,
    BoundReport,
    bound_farghly_shape,
    bound_pensia,
    bound_strongly_convex,
    bound_subexp_gen,
    bound_time_independent,
    bound_xu_raginsky,
    excess_risk_bound,
    kl_chain,
)
from .constants import (
    LSI_MODES,
    ParametrixOverrides,
    admissibility_failures,
    derive_constants,
    lsi_constant,
    lsi_route,
    subexp_params,
)
from .estimators import (
    ESTIMATES_CSV_COLUMNS,
    EVAL_LOSSES,
    EstimateWithError,
    admitted_lambdas,
    empirical_gen_gap,
    grad_variance_trace,
    logmgf_check,
    pth_moment_check,
    pth_moment_min_chains,
    stability_chains,
    stability_datasets,
    stability_estimates,
    write_estimates_csv,
)
from .fokker_planck import (
    Grid1D,
    check_dt,
    evolve_pair,
    gibbs_density,
    suggested_halfwidth,
    verify_inequality_12,
)
from .losses import certify, make_logistic_ridge, make_nonconvex_ridge, make_quadratic
from .oracle import (
    _response_and_var,
    oracle_mi_from_gaps,
    oracle_mi_upper,
    oracle_pair_gaps,
    oracle_trace,
    verify_kl_recursion,
)
from .sgld import SGLDConfig, check_count, run_ensemble


class ConfigError(Exception):
    pass


# ------------------------------------------------------------- config schema

_REQ = object()

# per block: key -> (default or required marker, expected type)
_SCHEMAS = {
    "loss": {
        "family": (_REQ, str),
        "d": (_REQ, int),
        "data_radius": (1.0, float),
        "R": (None, float),
        "lam": (None, float),
        "a": (None, float),
        "claimed": (None, dict),
        "certify_samples": (10_000, int),
    },
    "sgld": {
        "eta": (_REQ, float),
        "beta": (_REQ, float),
        "k": (_REQ, int),
        "T": (_REQ, int),
        "s_sq": (1.0, float),
        "seed": (0, int),
    },
    "data": {
        "n": (_REQ, int),
    },
    "bounds": {
        "which": (list(BOUND_NAMES), list),
        "sigma_g_sq": (None, float),
        "farghly_C1": (1.0, float),
        "farghly_C2": (1.0, float),
        "lsi_mode": (None, str),  # null: `lsi_route` of the model, set at load
        "universal_C_lsi": (1.0, float),
        "universal_C_moment": (1.0, float),
        "T_grid": (None, list),
        "n_grid": (None, list),
        "parametrix": (None, dict),
    },
    "estimators": {
        "n_trials": (10, int),
        "n_chains": (32, int),
        "n_resamples": (300, int),
        "n_pairs": (50, int),
        "mi_pairs": (200, int),
        "p_list": ([2, 4], list),
        "lambda_grid": ([-0.5, -0.1, 0.1, 0.5], list),
        "eval_loss": ("surrogate", str),
    },
    "fp": {
        "n_cells": (256, int),
        "halfwidth": (None, float),
        "dt_safety": (0.45, float),
        "T_end": (0.3, float),
        "center_gap": (0.4, float),
    },
    "verify": {
        "falsify": (False, bool),
        "oracle_T": (2000, int),
    },
}
_REQUIRED_BLOCKS = ("loss", "sgld", "data")

# loss family -> (constructor, the loss keys it takes, all required)
_FAMILIES = {
    "quadratic": (make_quadratic, ("R",)),
    "logistic_ridge": (make_logistic_ridge, ("lam",)),
    "nonconvex_ridge": (make_nonconvex_ridge, ("lam", "a")),
}
_FAMILY_KEYS = sorted({key for _, keys in _FAMILIES.values() for key in keys})


def _coerce(block: str, key: str, value, expected):
    if expected is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{block}.{key}: expected a number, got {value!r}")
        if not math.isfinite(value):
            raise ConfigError(f"{block}.{key}: expected a finite number, got {value!r}")
        return float(value)
    if expected is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{block}.{key}: expected an integer, got {value!r}")
        return value
    if not isinstance(value, expected):
        raise ConfigError(
            f"{block}.{key}: expected {expected.__name__}, got {value!r}"
        )
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, fully-defaulted experiment description."""

    blocks: dict

    def __getitem__(self, name: str) -> dict:
        return self.blocks[name]

    def canonical_json(self) -> str:
        return json.dumps(self.blocks, sort_keys=True, indent=2)

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]

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

    def sgld_config(self, seed: int | None = None) -> SGLDConfig:
        s = self.blocks["sgld"]
        try:
            return SGLDConfig(
                eta=s["eta"], beta=s["beta"], k=s["k"],
                n=self.blocks["data"]["n"], T=s["T"],
                d=self.blocks["loss"]["d"], s_sq=s["s_sq"],
                seed=s["seed"] if seed is None else seed,
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"sgld: {exc}") from exc

    def derived(self):
        """The derived constants, or why they are undefined for this config.

        A malformed bounds.parametrix is a ConfigError; a configuration
        outside a derivation's range (say, eta >= m/(5 M^2) in a run made
        with --allow-unsafe) yields the reason, for the bounds to carry.
        """
        b = self.blocks["bounds"]
        s = self.blocks["sgld"]
        over = None
        if b["parametrix"] is not None:
            try:
                over = ParametrixOverrides(**b["parametrix"])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bounds.parametrix: {exc}") from exc
        try:
            return derive_constants(
                self.model().constants(), eta=s["eta"], beta=s["beta"],
                d=self.blocks["loss"]["d"], s_sq=s["s_sq"],
                lsi_mode=b["lsi_mode"], overrides=over,
                universal_C_lsi=b["universal_C_lsi"],
                universal_C_moment=b["universal_C_moment"],
            )
        except ValueError as exc:
            return f"derived-constants-unavailable: {exc}"


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
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
        out = {}
        for key, (default, expected) in schema.items():
            if key in given:
                out[key] = (
                    None if given[key] is None and default is None
                    else _coerce(block, key, given[key], expected)
                )
            elif default is _REQ:
                raise ConfigError(f"missing required key {block}.{key}")
            else:
                out[key] = default
        blocks[block] = out
    for name in blocks["bounds"]["which"]:
        if name not in BOUND_NAMES:
            raise ConfigError(f"bounds.which: unknown bound name {name!r}")
    if blocks["bounds"]["lsi_mode"] not in (None, *LSI_MODES):
        raise ConfigError(f"bounds.lsi_mode: unknown mode "
                          f"{blocks['bounds']['lsi_mode']!r}")
    cfg = ExperimentConfig(blocks=blocks)
    lc = cfg.model().constants()  # family-specific parameter validation
    if blocks["bounds"]["lsi_mode"] is None:
        blocks["bounds"]["lsi_mode"] = lsi_route(lc)
    _check_values(cfg)
    return cfg


def _check(key: str, rule, *args, **kwargs):
    """`rule(*args, **kwargs)`, its ValueError reported against config key `key`."""
    try:
        return rule(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _check_values(cfg: ExperimentConfig) -> None:
    """Refuse, before any subcommand opens its output directory, each value
    that the code using it would refuse later; each refusal is that code's."""
    sgld_cfg = cfg.sgld_config()
    lc = cfg.model().constants()
    est = cfg["estimators"]
    if est["eval_loss"] not in EVAL_LOSSES:
        raise ConfigError(f"estimators.eval_loss: unknown loss {est['eval_loss']!r}")
    for key, param in (("n_trials", "n_trials"), ("n_chains", "n_chains"),
                       ("n_resamples", "n_resamples"), ("n_pairs", "n_pairs"),
                       ("mi_pairs", "n_dataset_pairs")):
        _check(f"estimators.{key}", check_count, param, est[key])
    _check("estimators.p_list", pth_moment_min_chains, est["p_list"])
    bnd = cfg["bounds"]
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
    _check("verify.oracle_T", dataclasses.replace, sgld_cfg, k=sgld_cfg.n,
           T=cfg["verify"]["oracle_T"])
    for T in bnd["T_grid"] or ():
        _coerce("bounds", "T_grid", T, int)
    for n in bnd["n_grid"] or ():
        # SGLDConfig states the dataset-size rule; k = 1 fits every size
        _check("bounds.n_grid", dataclasses.replace, sgld_cfg,
               n=_coerce("bounds", "n_grid", n, int), k=1)
    # bounds.csv has one row per (name, T, n), the key `compare` reads it by;
    # an empty list would give no rows (null selects a grid's default)
    for key in ("which", "T_grid", "n_grid"):
        entries = bnd[key]
        if entries is None:
            continue
        if not entries:
            raise ConfigError(f"bounds.{key}: empty list")
        repeated = sorted({e for e in entries if entries.count(e) > 1})
        if repeated:
            raise ConfigError(f"bounds.{key}: repeated entries {repeated}")


def _verify_fp_runs(cfg: ExperimentConfig, lc):
    """(label, grid, grad_s, grad_alt, dt, n_steps) of each of `verify`'s
    Fokker-Planck runs: two shifted quadratics on the coarse grid and on
    twice its cells, with dt the `fp.dt_safety` share of the stability limit
    at grad_s, and n_steps the steps of dt in `fp.T_end` (at least 2), few
    enough that numpy can allocate the pair's (n_steps + 1)-long traces."""
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
        dt = fp["dt_safety"] * grid.h**2 / (
            2.0 / beta + grid.h * float(np.abs(gs).max()))
        steps = fp["T_end"] / dt
        if not (steps + 1) * 8 <= np.iinfo(np.intp).max:
            raise ValueError(f"T_end = {fp['T_end']} is {steps} steps of dt = {dt}; "
                             f"the step count must be finite, and its (steps + 1)-"
                             f"long float64 traces within numpy's largest array")
        runs.append((label, grid, gs, ga, dt, max(2, int(steps))))
    return runs


# ---------------------------------------------------------------- run support


class _OutputDir:
    """Locked output directory that tracks the files written into it.

    Its manifest.json is written when the work starts and again when it
    completes, then listing the files; it does not list itself. Every file,
    the manifest included, is written to a temp file that a rename puts in
    place, so none is ever seen part-written. `.lock`
    holds the owning process id, so a lock left by a process that is gone
    is reported as stale. A directory holding anything but its `.lock` is
    refused, so no file of an earlier invocation sits among the new ones.
    A KeyboardInterrupt (SIGINT or SIGTERM, see `main`) leaving a started
    manifest sets its status to `interrupted`; any other failure leaves it
    `running`.
    """

    def __init__(self, path):
        self.path = path
        self.lock_path = os.path.join(path, ".lock")
        self.manifest_path = os.path.join(path, "manifest.json")
        self.files = []
        self.manifest = None

    def __enter__(self):
        os.makedirs(self.path, exist_ok=True)
        try:
            fd = os.open(self.lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            pid = _lock_owner(self.lock_path)
            if pid is not None and not _pid_alive(pid):
                raise ConfigError(
                    f"output directory {self.path} has a stale lock: its owner, "
                    f"pid {pid}, is not running (remove {self.lock_path})"
                )
            raise ConfigError(
                f"output directory {self.path} is locked by another invocation "
                f"(remove {self.lock_path} if that run is dead)"
            )
        with os.fdopen(fd, "w") as fh:
            fh.write(f"{os.getpid()}\n")
        left = sorted(set(os.listdir(self.path)) - {".lock"})
        if left:
            os.unlink(self.lock_path)
            raise ConfigError(f"output directory {self.path} is not empty "
                              f"({len(left)} entries); give a new or empty --out")
        return self

    def __exit__(self, exc_type, exc, tb):
        try:
            if (exc_type is not None and issubclass(exc_type, KeyboardInterrupt)
                    and self.manifest is not None
                    and self.manifest["status"] == "running"):
                self.manifest["status"] = "interrupted"
                _write_json(self.manifest_path, self.manifest)
        finally:
            try:
                os.unlink(self.lock_path)
            except FileNotFoundError:
                pass
        return False

    @contextlib.contextmanager
    def file(self, name: str):
        """The temp path to write artifact `name` to; it takes the name when
        the with block completes, and goes if the block raises."""
        with _replacing(os.path.join(self.path, name)) as tmp:
            yield tmp
        if name not in self.files:
            self.files.append(name)

    def write_json(self, name: str, payload) -> None:
        with self.file(name) as tmp:
            _dump_json(tmp, payload)

    def save_npy(self, name: str, array) -> None:
        # through a handle: np.save appends ".npy" to a name lacking it
        with self.file(name) as tmp, open(tmp, "wb") as fh:
            np.save(fh, array)

    def start_manifest(self, **fields) -> None:
        self.t0 = time.monotonic()
        self.manifest = {"status": "running", **fields, "files": [],
                         "wall_clock_seconds": None}
        _write_json(self.manifest_path, self.manifest)

    def finish_manifest(self) -> None:
        self.manifest["status"] = "complete"
        self.manifest["files"] = sorted(self.files)
        self.manifest["wall_clock_seconds"] = round(time.monotonic() - self.t0, 3)
        _write_json(self.manifest_path, self.manifest)


def _lock_owner(lock_path) -> int | None:
    """The pid a `.lock` names; None if it names none (say, still empty)."""
    try:
        with open(lock_path) as fh:
            pid = int(fh.read())
    except (OSError, ValueError):
        return None
    return pid if pid > 0 else None


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)  # signal 0: existence check, nothing is sent
    except (ProcessLookupError, OverflowError):  # gone, or no pid at all
        return False
    except PermissionError:  # alive, owned by another user
        return True
    return True


@contextlib.contextmanager
def _replacing(path):
    """A temp path in `path`'s directory, renamed to `path` by os.replace
    when the with block completes: a write that fails part way leaves the
    previous file whole, or none, and no temp file behind."""
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def _dump_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_json(path, payload) -> None:
    with _replacing(path) as tmp:
        _dump_json(tmp, payload)


def _start_config_manifest(out: _OutputDir, cfg: ExperimentConfig, seed: int,
                           preconditions) -> None:
    out.start_manifest(config=cfg.blocks, config_hash=cfg.config_hash(), seed=seed,
                       artifact_version=__version__, preconditions=preconditions)


def _seed_of(args, cfg: ExperimentConfig) -> int:
    """The run's seed, `--seed` over the config's, refused by `SGLDConfig`'s
    rule before any subcommand opens its output directory."""
    if args.seed is None:
        return cfg["sgld"]["seed"]
    _check("--seed", dataclasses.replace, cfg.sgld_config(), seed=args.seed)
    return args.seed


# ---------------------------------------------------------------- subcommands


def cmd_certify(args) -> int:
    cfg = load_config(args.config)
    model = cfg.model()
    seed = _seed_of(args, cfg)
    report = certify(model, n_samples=cfg["loss"]["certify_samples"],
                     rng_seed=seed)
    with _OutputDir(args.out) as out:
        _start_config_manifest(out, cfg, seed, {})
        out.write_json("certify_report.json", report.to_dict())
        out.finish_manifest()
    for check in report.checks:
        state = "ok" if check.n_violations == 0 else "VIOLATED"
        print(f"certify {check.inequality_name}: {state} "
              f"({check.n_violations}/{check.n_samples})")
    print(f"certify {model.__class__.__name__}: "
          f"{'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 2


def cmd_run(args) -> int:
    # imported here, not at module top, to keep them off every start-up
    import mmap
    from multiprocessing import get_context

    cfg = load_config(args.config)
    model = cfg.model()
    seed = _seed_of(args, cfg)
    sgld_cfg = cfg.sgld_config(seed=seed)
    est = cfg["estimators"]

    quick = certify(model, n_samples=2000, rng_seed=seed)
    lc, b = model.constants(), cfg["bounds"]
    try:
        # the route and constant `bounds` evaluates the KL chain with
        c_LS = lsi_constant(lc, sgld_cfg.beta, sgld_cfg.d, b["lsi_mode"],
                            b["universal_C_lsi"])
    except ValueError as exc:
        c_LS = str(exc)
    strict_fails = admissibility_failures(lc, sgld_cfg.eta, sgld_cfg.beta, c_LS)
    preconditions = {
        "certified": quick.passed,
        "strict_mode_failures": strict_fails,
    }
    if not quick.passed and not args.allow_unsafe:
        print("run refused: loss certification failed (use --allow-unsafe to "
              "override)", file=sys.stderr)
        return 2
    if strict_fails and not args.allow_unsafe:
        print("run refused: parameter ranges outside the certified regime "
              "(use --allow-unsafe to override):", file=sys.stderr)
        for failure in strict_fails:
            print(f"  - {failure}", file=sys.stderr)
        return 2

    with _OutputDir(args.out) as out:
        _start_config_manifest(out, cfg, seed, preconditions)

        root = np.random.SeedSequence([seed, 0xDA7A])
        dataset = np.asarray(
            model.sample_data(np.random.default_rng(root), cfg["data"]["n"]),
            dtype=float,
        )
        out.save_npy("dataset.npy", dataset)
        # the gap and the stability trace read nothing the stages below
        # compute, so a forked worker runs them while this process runs the
        # rest; once this process is idle (one shared byte) it may take the
        # tail of the stability evaluation, see `_handoff`
        parent_idle = mmap.mmap(-1, 1)
        with _worker_process(get_context("fork"), os.getpid(), parent_idle, model,
                             sgld_cfg, est) as (worker, receive):
            # the stages' arrays are gone once it returns, so a tail of the
            # stability evaluation does not add to this process's peak
            stored_steps = _run_own_stages(out, cfg, model, dataset, sgld_cfg, seed)
            parent_idle[0] = 1
            try:
                stability, gap = _worker_results(receive, model, sgld_cfg,
                                                 est["n_pairs"])
            except EOFError:
                # killed, say out of memory: the lock goes, the manifest stays running
                worker.join()
                print(f"run failed: the stability and gap worker died "
                      f"(exit code {worker.exitcode})", file=sys.stderr)
                return 1
        with out.file("stability.csv") as path:
            write_estimates_csv(
                path, [("grad_stability", int(step), e)
                       for step, e in zip(stored_steps, stability)])
        with out.file("gap.csv") as path:
            write_estimates_csv(path, [(gap.estimator_name, sgld_cfg.T, gap)])
        out.finish_manifest()
    print(f"run complete: {len(out.files)} files in {args.out}")
    return 0


def _run_own_stages(out: _OutputDir, cfg: ExperimentConfig, model, dataset,
                    sgld_cfg: SGLDConfig, seed: int) -> np.ndarray:
    """The stages `run` keeps in its own process: the ensemble, chain 0's
    trace and variance, the moments, the log-MGF and p-th moment checks.
    Returns chain 0's stored steps."""
    est, lc = cfg["estimators"], model.constants()
    traces = run_ensemble(sgld_cfg, model,
                          dataset_sampler=lambda rng, m: dataset,
                          n_chains=est["n_chains"], series=1)
    with out.file("chain_000.csv") as path:
        traces[0].to_csv(path)
    out.save_npy("final_states.npy",
                 np.stack([tr.final_state for tr in traces]))

    norms = np.stack([tr.w_norm_sq for tr in traces])
    with out.file("moments.csv") as path, open(path, "w") as fh:
        fh.write("t,mean_w_norm_sq\n")
        means = norms.mean(axis=0)
        for t in range(means.shape[0]):
            fh.write(f"{t},{repr(float(means[t]))}\n")

    variance = grad_variance_trace(model, dataset, traces[0],
                                   n_resamples=est["n_resamples"])
    with out.file("variance.csv") as path:
        write_estimates_csv(
            path,
            [("grad_variance", int(step), e)
             for step, e in zip(traces[0].stored_steps, variance)],
        )

    if len(traces) >= 2:
        pars = subexp_params(lc, beta=sgld_cfg.beta, d=sgld_cfg.d, s_sq=sgld_cfg.s_sq,
                             universal_C=cfg["bounds"]["universal_C_moment"])
        zrng = np.random.default_rng(np.random.SeedSequence([seed, 0x10F]))
        Z = model.sample_data(zrng, len(traces))
        samples = model.eval_many(
            np.stack([tr.final_state for tr in traces]), Z
        )
        mgf = logmgf_check(samples, pars["sigma_e_sq"], pars["nu"],
                           est["lambda_grid"], rng_seed=seed)
        out.manifest["checks"] = {"logmgf": {
            "lambdas": list(mgf.lambdas), "envelope": list(mgf.envelope),
            "n_violations": mgf.n_violations}}
        if mgf.n_violations:
            print(f"run: log-MGF above its envelope at {mgf.n_violations} "
                  f"of {len(mgf.lambdas)} lambdas")
        with out.file("logmgf.csv") as path:
            write_estimates_csv(
                path,
                [("logmgf", lam,
                  EstimateWithError(val, (hi - lo) / 2.0, mgf.n_samples, "logmgf"))
                 for lam, val, lo, hi in zip(mgf.lambdas, mgf.logmgf,
                                             mgf.band_lo, mgf.band_hi)],
            )
    need = pth_moment_min_chains(est["p_list"])
    if len(traces) >= need:
        moments = pth_moment_check(traces, est["p_list"],
                                   lc, beta=sgld_cfg.beta,
                                   d=sgld_cfg.d, s_sq=sgld_cfg.s_sq)
        out.write_json("pth_moments.json", moments.to_dict())
    else:
        out.write_json("pth_moments.json", {
            "skipped": f"needs at least {need} chains for "
                       f"p up to {max(est['p_list'])}, have {len(traces)}"
        })
    return traces[0].stored_steps


_SIGNALS = (signal.SIGINT, signal.SIGTERM)


@contextlib.contextmanager
def _worker_process(ctx, *args):
    """`_worker(receive, send, *args)` in a process of the fork context
    `ctx`, yielding the process and the receiving end of its one-way pipe.

    The process is terminated and joined on leaving, however the with block
    ends. SIGINT and SIGTERM stay blocked across the fork, so neither reaches
    the child before it has dropped this process's handlers.
    """
    receive, send = ctx.Pipe(duplex=False)
    process = ctx.Process(target=_worker, args=(receive, send, *args))
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, _SIGNALS)
    try:
        process.start()
        try:
            send.close()  # the child's end only, so its death reads as EOF here
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            yield process, receive
        finally:
            process.terminate()
            process.join()
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        send.close()
        receive.close()


def _handoff(parent_idle: bool, done: int, total: int, block: int) -> int | None:
    """The stored step `run`'s worker stops its stability evaluation before,
    decided at step `done` of `total`, the first block start it reaches once
    the parent is idle (None until then). Counted in blocks of `block` steps
    from the first (the last may be shorter): the parent takes the last half
    of the blocks left if the worker has already evaluated at least as many;
    otherwise the worker finishes alone (`total`)."""
    if not parent_idle:
        return None
    done, left = done // block, -(-(total - done) // block)
    split = done + left - (left // 2 if 2 * done >= left else 0)
    return min(total, split * block)


def _worker(receive, send, parent: int, parent_idle, model, sgld_cfg: SGLDConfig,
            est: dict) -> None:
    """`run`'s worker, forked from the process `parent`: the gap, then the
    stability pairs' chains, then the evaluation of their stored steps from
    the first, up to the `_handoff` split. A tail handed to the parent is
    sent the moment it is decided, as ("tail", split) and then each pair's
    states from the split on. Last comes ("done", (estimates, gap)), or
    ("error", (exception, traceback text)) from any stage. It writes no
    file, and exits at once if `parent` is gone (say killed by SIGKILL),
    checked between stages and at each block of the evaluation. The
    estimators are looked up in this module's globals at call time, so
    wrappers set there are the ones run."""
    receive.close()  # so that a parent gone makes `send` fail
    for sig in _SIGNALS:
        signal.signal(sig, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, _SIGNALS)

    def exit_if_orphaned():
        if os.getppid() != parent:  # adopted: nobody is left to read the results
            os._exit(1)

    try:
        gap = empirical_gen_gap(model, sgld_cfg, n_trials=est["n_trials"],
                                eval_loss=est["eval_loss"])
        exit_if_orphaned()
        datasets, states = stability_chains(model, sgld_cfg, n_pairs=est["n_pairs"])
        exit_if_orphaned()
        n_steps = states[0].shape[0]
        split = None

        def until(t, block):
            nonlocal split
            exit_if_orphaned()
            if split is None:
                split = _handoff(bool(parent_idle[0]), t, n_steps, block)
                if split is not None and split < n_steps:
                    send.send(("tail", split))
                    for s in states:
                        send.send(s[split:])
            return n_steps if split is None else split

        send.send(("done", (stability_estimates(model, datasets, states, until), gap)))
    except Exception as exc:
        import traceback

        with contextlib.suppress(BrokenPipeError):  # the parent is gone
            send.send(("error", (exc, traceback.format_exc())))


def _worker_results(receive, model, sgld_cfg: SGLDConfig, n_pairs: int):
    """The stability estimates and the gap from `_worker`, evaluating here,
    with the worker's code, any tail it hands over. An exception raised in
    the worker is raised here, caused by one holding the worker's
    traceback; EOFError means the worker died."""
    kind, payload = receive.recv()
    tail = []
    if kind == "tail":
        states = [receive.recv() for _ in range(n_pairs)]
        datasets, _ = stability_datasets(model, sgld_cfg, n_pairs)
        tail = stability_estimates(model, datasets, states)
        kind, payload = receive.recv()
    if kind == "error":
        exc, worker_traceback = payload
        raise exc from RuntimeError(f"raised in the worker:\n{worker_traceback}")
    head, gap = payload
    return head + tail, gap


def _read_csv(path, columns) -> list:
    """Data rows of a CSV artifact whose header must be `columns`."""
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(columns):
            raise ConfigError(f"{path}: unexpected columns {header}")
        return list(reader)


def _load_estimates_csv(path):
    return [(cells[0], float(cells[1]), float(cells[2]), float(cells[3]),
             int(cells[4])) for cells in _read_csv(path, ESTIMATES_CSV_COLUMNS)]


def _load_trace(traces_dir, name):
    """(steps, means floored at 0) of one of a run's per-step estimate CSVs."""
    path = os.path.join(traces_dir, name)
    rows = _load_estimates_csv(path)
    if not rows:
        raise ConfigError(f"{path} has no data rows")
    return (np.array([int(r[1]) for r in rows]),
            np.array([max(r[2], 0.0) for r in rows]))


@dataclass(frozen=True)
class _GridPoint:
    """One (T, n) point of the bound grid, with one evaluator per bound name.

    Each evaluator returns its entry, or the reason it is unavailable. They
    call the bound functions through this module's globals, so wrappers set
    on this module after import see every call.
    """

    lc: object
    dc: object               # DerivedConstants, or why they are undefined
    b: dict                  # the config's bounds block
    oracle: tuple | None     # xu_raginsky's (pair gaps at n, a_T, v_T), when it runs
    cfg: SGLDConfig          # the run's config at horizon T
    n: int
    kl: object               # KLChain at horizon T, or why dc is undefined
    variance: np.ndarray     # per-update conditional variances, length T
    strided: bool            # variance repeats stored values over skipped steps
    stability: np.ndarray    # (eta t, value) rows of the stability trace, t <= T

    def xu_raginsky(self):
        if self.oracle is None:
            return "exact-mi-needs-full-batch-quadratic"
        mi = oracle_mi_from_gaps(*self.oracle)
        return bound_xu_raginsky(self.b["sigma_g_sq"], self.n, mi.mean)

    def pensia(self):
        entry = bound_pensia(self.variance, eta=self.cfg.eta, beta=self.cfg.beta,
                             d=self.cfg.d, n=self.n, sigma_g_sq=self.b["sigma_g_sq"])
        if self.strided:
            entry = dataclasses.replace(
                entry, notes=entry.notes + ("variance-trace-strided",))
        return entry

    def time_independent(self):
        if isinstance(self.kl, str):
            return self.kl
        return bound_time_independent(self.kl, self.n, self.b["sigma_g_sq"])

    def strongly_convex(self):
        if self.lc.R is None:
            return "needs-R"
        return bound_strongly_convex(self.stability, R=self.lc.R, beta=self.cfg.beta,
                                     n=self.n, sigma_g_sq=self.b["sigma_g_sq"],
                                     T=self.cfg.eta * self.cfg.T)

    def farghly_shape(self):
        if self.cfg.k >= min(self.cfg.n, self.n):
            return "needs-subsampling"
        return bound_farghly_shape(self.b["farghly_C1"], self.b["farghly_C2"],
                                   eta=self.cfg.eta, T=self.cfg.T, n=self.n,
                                   k=self.cfg.k, m=self.lc.m)

    def subexp_gen(self):
        if isinstance(self.kl, str):
            return self.kl
        if self.kl.kl is None:
            return "kl-chain-unavailable"
        sub = bound_subexp_gen(self.kl.kl / self.n, self.dc.sigma_e_sq, self.dc.nu)
        return dataclasses.replace(sub, notes=sub.notes + tuple(self.dc.notes))

    def excess_risk(self):
        gen = self.subexp_gen()
        if isinstance(gen, str):
            return gen
        return excess_risk_bound(self.lc, self.dc, self.cfg, self.n, gen.value)


_EVALUATORS = {name: getattr(_GridPoint, name) for name in BOUND_NAMES}
_NEEDS_SIGMA_G = ("xu_raginsky", "pensia", "time_independent", "strongly_convex")


# the loss keys a run's traces depend on; `claimed` and `certify_samples` only
# change what is checked and assumed about the same chain
_TRACE_LOSS_KEYS = ("family", "d", "data_radius", "R", "lam", "a")


def _chain_settings(cfg: ExperimentConfig) -> dict:
    """What a run's traces depend on: its SGLDConfig, seed aside, and its
    loss parameters."""
    return {**dataclasses.asdict(cfg.sgld_config(seed=0)),
            **{f"loss.{key}": cfg["loss"][key] for key in _TRACE_LOSS_KEYS}}


def _check_run_manifest(traces: str, cfg: ExperimentConfig) -> None:
    """Refuse traces that no complete run of this config's chain made."""
    path = os.path.join(traces, "manifest.json")
    try:
        with open(path) as fh:
            manifest = json.load(fh)
        status = manifest["status"]
        made = _chain_settings(ExperimentConfig(blocks=manifest["config"]))
    except (OSError, ValueError, LookupError, TypeError, ConfigError) as exc:
        raise ConfigError(f"--traces: no readable run manifest {path}: {exc!r}") from exc
    if status != "complete":
        raise ConfigError(f"--traces: the run in {traces} is {status!r}, not complete")
    want = _chain_settings(cfg)
    differ = [key for key in want if made[key] != want[key]]
    if differ:
        raise ConfigError(f"--traces: the run in {traces} was made with other "
                          + ", ".join(f"{key} ({made[key]!r}, not {want[key]!r})"
                                      for key in differ))


def cmd_bounds(args) -> int:
    cfg = load_config(args.config)
    if args.traces is None:
        raise ConfigError("bounds requires --traces DIR from a previous run")
    model = cfg.model()
    lc = model.constants()
    seed = _seed_of(args, cfg)
    sgld_cfg = cfg.sgld_config(seed=seed)
    b = cfg["bounds"]
    dc = cfg.derived()
    _check_run_manifest(args.traces, cfg)

    var_steps, var_vals = _load_trace(args.traces, "variance.csv")
    stab_steps, stab_vals = _load_trace(args.traces, "stability.csv")

    T_grid = b["T_grid"]
    if T_grid is None:
        # {0, T/4, T/2, T}, each at the last stored step not after it, since
        # a strided run stores every stride-th step and T itself
        last = int(var_steps[-1])
        at = np.searchsorted(var_steps, [0, last // 4, last // 2, last], side="right")
        T_grid = sorted({int(step) for step in var_steps[at - 1]})
    n_grid = b["n_grid"] or [cfg["data"]["n"]]

    # piecewise-constant extension of the stored trace to per-update values;
    # the updates after a stored step in `skips` repeat its value
    variance = np.repeat(var_vals, np.diff(np.append(var_steps, var_steps[-1] + 1)))
    skips = var_steps[:-1][np.diff(var_steps) > 1]
    for T in T_grid:
        if T not in var_steps:
            raise ConfigError(f"bounds.T_grid entry {T} is not a recorded step")
    sigma_g_sq = b["sigma_g_sq"]
    eta, beta = sgld_cfg.eta, sgld_cfg.beta
    # xu_raginsky's dataset pairs depend on n alone and the law's response
    # on T alone: the pairs are drawn once per n, the response run once
    pair_gaps = {}
    if ("xu_raginsky" in b["which"] and sigma_g_sq is not None
            and lc.R is not None and sgld_cfg.k == sgld_cfg.n and T_grid):
        pair_gaps = {n: oracle_pair_gaps(model.sample_data, seed, n,
                                         cfg["estimators"]["mi_pairs"])
                     for n in n_grid}
        a, v = _response_and_var(eta, beta, lc.R, sgld_cfg.s_sq, max(T_grid))

    entries = []
    for T in T_grid:
        T_cfg = dataclasses.replace(sgld_cfg, T=T)
        keep = stab_steps <= T
        stability = np.column_stack([eta * stab_steps[keep], stab_vals[keep]])
        kl = dc if isinstance(dc, str) else kl_chain(lc, dc, T_cfg)
        for n in n_grid:
            point = _GridPoint(
                lc=lc, dc=dc, b=b, cfg=T_cfg, n=n,
                oracle=(pair_gaps[n], a[T], v[T]) if pair_gaps else None,
                kl=kl, variance=variance[:T],
                strided=bool(np.any(skips < T)), stability=stability,
            )
            for name in b["which"]:
                if name in _NEEDS_SIGMA_G and sigma_g_sq is None:
                    entry = "sigma_g_sq-unavailable"
                else:
                    entry = _EVALUATORS[name](point)
                if isinstance(entry, str):
                    entry = BoundEntry(name=name, value=None,
                                       preconditions_ok=False, notes=(entry,))
                # uniform (T, n, eta, beta) keys so every CSV row is addressable
                stamped = {**entry.inputs, "T": T, "n": n, "eta": eta, "beta": beta}
                entries.append(dataclasses.replace(entry, inputs=stamped))
    report = BoundReport(entries=tuple(entries))

    with _OutputDir(args.out) as out:
        _start_config_manifest(out, cfg, seed, {"traces": args.traces})
        with out.file("bounds.csv") as path:
            report.to_csv(path)
        out.write_json("bounds.json", [e.to_dict() for e in entries])
        gap_src = os.path.join(args.traces, "gap.csv")
        if os.path.exists(gap_src):
            # carried along so a report directory is self-contained for compare
            with out.file("gap.csv") as path:
                shutil.copyfile(gap_src, path)
        out.finish_manifest()
    print(f"bounds: {len(entries)} entries over T={T_grid} n={n_grid}")
    return 0


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    model = cfg.model()
    lc = model.constants()
    seed = _seed_of(args, cfg)
    falsify = cfg["verify"]["falsify"]
    hard_failures = []
    sections = {}

    with _OutputDir(args.out) as out:
        _start_config_manifest(out, cfg, seed, {"falsify": falsify})

        if lc.R is not None:
            sgld_cfg = cfg.sgld_config(seed=seed)
            o_cfg = dataclasses.replace(sgld_cfg, k=sgld_cfg.n,
                                        T=cfg["verify"]["oracle_T"])
            pair_rng = np.random.SeedSequence([seed, 0x09AC])
            s_seq, alt_seq = pair_rng.spawn(2)
            S = model.sample_data(np.random.default_rng(s_seq), o_cfg.n)
            S_alt = model.sample_data(np.random.default_rng(alt_seq), o_cfg.n)
            trace = oracle_trace(S, S_alt, o_cfg, R=lc.R)
            with out.file("oracle_trace.csv") as path:
                trace.to_csv(path)
            gap_sq = float(np.sum((S.mean(axis=0) - S_alt.mean(axis=0)) ** 2))
            if falsify:
                contraction, add = 1.0, 0.0
            else:
                contraction = math.exp(-o_cfg.eta * lc.R / 4.0)
                add = o_cfg.eta * (o_cfg.beta / 2.0) * lc.R**2 * gap_sq
            rec = verify_kl_recursion(trace.kl, contraction, add)
            mi_zero = oracle_mi_upper(model.sample_data, o_cfg, R=lc.R,
                                      n_dataset_pairs=8, control_identical=True)
            sections["oracle"] = {
                "recursion_violations": rec.n_violations,
                "recursion_worst_slack": rec.worst_slack,
                "identical_pair_mi": mi_zero.mean,
                "contraction": contraction,
                "per_step_add": add,
            }
            if rec.n_violations > 0:
                hard_failures.append(
                    f"kl recursion violated at {rec.n_violations} steps")
            if mi_zero.mean != 0.0:
                hard_failures.append("identical-pair MI control is nonzero")
        else:
            sections["oracle"] = {"skipped": "loss family has no curvature "
                                             "constant; exact law unavailable"}

        beta = cfg["sgld"]["beta"]
        rates = {}
        for label, grid, gs, ga, dt, n_steps in _verify_fp_runs(cfg, lc):
            start = gibbs_density(grid, (grid.centers - 1.0) ** 2, 1.0)
            run = evolve_pair(grid, gs, ga, beta, dt, n_steps, start, start)
            rep = verify_inequality_12(run, beta)
            with out.file(f"fp_{label}.csv") as path:
                run.to_csv(path, rep)
            rates[label] = rep.violation_rate
            sections[f"fp_{label}"] = {
                "n_cells": grid.n_cells,
                "violation_rate": rep.violation_rate,
                "n_checked": rep.n_checked,
                "clamped_mass": run.clamped_mass,
            }
        if rates["coarse"] > 0.01:
            hard_failures.append(
                f"fp violation rate {rates['coarse']} above 1%")
        if rates["fine"] > rates["coarse"]:
            hard_failures.append("fp violation rate grew under refinement")

        sections["hard_failures"] = hard_failures
        out.write_json("verify_report.json", sections)
        out.finish_manifest()

    for name, body in sections.items():
        if name != "hard_failures":
            print(f"verify {name}: {json.dumps(body, sort_keys=True)}")
    if hard_failures:
        for failure in hard_failures:
            print(f"VIOLATION: {failure}")
        return 2
    print("verify: all checks passed")
    return 0


def _read_bounds_csv(path):
    # (name, T, n) -> value cell
    return {(cells[0], cells[2], cells[3]): cells[1]
            for cells in _read_csv(path, BOUNDS_CSV_COLUMNS)}


def cmd_compare(args) -> int:
    tables = []
    for directory in args.reports:
        bounds_path = os.path.join(directory, "bounds.csv")
        gap_path = os.path.join(directory, "gap.csv")
        table = _read_bounds_csv(bounds_path)
        if os.path.exists(gap_path):
            for est_name, t, mean, _, _ in _load_estimates_csv(gap_path):
                key = ("empirical_gap", str(int(t)), "")
                table[key] = repr(mean)
        tables.append((os.path.basename(os.path.normpath(directory)), table))

    keys = sorted({k for _, table in tables for k in table},
                  key=lambda k: (k[0], float(k[1] or -1), k[2]))
    with _OutputDir(args.out) as out:
        out.start_manifest(inputs=args.reports)
        labels = [label for label, _ in tables]
        with out.file("compare.csv") as path, open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["bound_name", "T", "n", *labels])
            for key in keys:
                writer.writerow([key[0], key[1], key[2],
                                 *(table.get(key, "") for _, table in tables)])
        with out.file("compare.txt") as path, open(path, "w") as fh:
            widths = [max(12, len(label) + 2) for label in labels]
            fh.write(f"{'bound':24s}{'T':>8s}{'n':>8s}"
                     + "".join(f"{label:>{w}s}" for label, w in zip(labels, widths))
                     + "\n")
            for key in keys:
                row = f"{key[0]:24s}{key[1]:>8s}{key[2]:>8s}"
                for (_, table), w in zip(tables, widths):
                    cell = table.get(key, "")
                    if cell:
                        cell = f"{float(cell):.6g}"
                    row += f"{cell:>{w}s}"
                fh.write(row + "\n")
        out.finish_manifest()
    print(f"compare: {len(keys)} rows over {len(tables)} reports")
    return 0


# ----------------------------------------------------------------- dispatcher


class _Parser(argparse.ArgumentParser):
    # usage problems are exit code 1, not argparse's default 2
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sgldlab",
                     description="Certified losses, Langevin chains, "
                                 "generalization bounds, and their checkers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed (u64)")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("certify", help="check the claimed loss constants")
    common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("run", help="run chains and estimators")
    common(p)
    p.add_argument("--allow-unsafe", action="store_true",
                   help="run despite certification or range failures")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bounds", help="evaluate bound formulas over traces")
    common(p)
    p.add_argument("--traces", default=None,
                   help="directory produced by the run subcommand")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="oracle and grid-solver verification")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compare", help="merge bound reports into one table")
    p.add_argument("reports", nargs="+", help="bound report directories")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_compare)

    return parser


def _interrupt(signum, frame):
    # SIGTERM takes SIGINT's path: the with statements unwind, so `run`
    # terminates and joins its worker and the output directory loses its lock
    raise KeyboardInterrupt(signum)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {sig: signal.signal(sig, _interrupt) for sig in _SIGNALS}
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt as exc:
        sig = signal.Signals(exc.args[0] if exc.args else signal.SIGINT)
        print(f"{args.command} interrupted: {sig.name}", file=sys.stderr)
        return 128 + sig
    finally:
        for sig, handler in handlers.items():
            if handler is not None:  # None: a handler not set from Python
                signal.signal(sig, handler)


if __name__ == "__main__":
    sys.exit(main())
