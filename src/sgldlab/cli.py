"""Command-line entry point wiring configs to the library modules.

Subcommands: certify | run | bounds | verify | compare. A single JSON
config drives everything, checked by `config` (unknown keys rejected,
defaults echoed back); every invocation writes a manifest with the config
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
import json
import math
import os
import pickle
import platform
import shutil
import signal
import sys
import threading
import time

import numpy as np

from . import __version__, _import_time
from .bounds import BOUNDS_CSV_COLUMNS, evaluate_grid, write_bounds_csv
from .config import ConfigError, ExperimentConfig, _check, _verify_fp_runs, load_config
from .constants import admissibility_failures, lsi_constant, subexp_params
from .estimators import (
    ESTIMATES_CSV_COLUMNS,
    LOGMGF_MIN_SAMPLES,
    NotFinite,
    gap_trials,
    gen_gap,
    grad_variance_trace,
    logmgf_check,
    pth_moment_check,
    pth_moment_min_chains,
    stability_block,
    stability_chains,
    write_estimates_csv,
)
from .fokker_planck import evolve_pair, gibbs_density, verify_inequality_12
from .losses import certify
from .oracle import has_oracle_law, oracle_mi_from_gaps, oracle_trace, verify_kl_recursion
from .sgld import (
    ChainTrace,
    SGLDConfig,
    _block_len,
    _lockstep_chunks,
    _row_sq,
    _stored_steps,
    array_rows,
    ensemble_seqs,
    write_csv,
)


# ---------------------------------------------------------------- run support


class _OutputDir:
    """Locked output directory that tracks the files written into it.

    Its manifest.json is written when the work starts and again when it
    completes, then listing the files and the `wall_clock_seconds` since
    `started` (a time.monotonic() reading; the manifest's start when None);
    it does not list itself, and it says where it ran (`_environment`).
    Every file, the manifest included, is written to a temp file that a
    rename puts in place, so none is ever seen part-written. `.lock` holds
    the owning process id, so a lock left by a process that is gone is
    reported as stale. A directory holding anything but its `.lock` is
    refused, so no file of an earlier invocation sits among the new ones.
    A KeyboardInterrupt (SIGINT or SIGTERM, see `main`) leaving a started
    manifest sets its status to `interrupted`; any other failure leaves it
    `running`. A finished one reads `complete`, or the status given (`run`
    gives `failed` when a number it must record is not finite).
    """

    def __init__(self, path, started: float | None = None):
        self.path = path
        self.started = started
        self.lock_path = os.path.join(path, ".lock")
        self.manifest_path = os.path.join(path, "manifest.json")
        self.files = []
        self.manifest = None

    def __enter__(self):
        try:
            os.makedirs(self.path, exist_ok=True)
        except OSError as exc:  # a file of that name, say, or no permission
            raise ConfigError(f"output directory {self.path} cannot be made: {exc}") from exc
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
        except OSError as exc:
            raise ConfigError(f"output directory {self.path} cannot be locked: {exc}") from exc
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
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self.lock_path)
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
        self.t0 = time.monotonic() if self.started is None else self.started
        self.manifest = {"status": "running", **fields, "environment": _environment(),
                         "files": [], "wall_clock_seconds": None}
        _write_json(self.manifest_path, self.manifest)

    def finish_manifest(self, status: str = "complete") -> None:
        self.manifest["status"] = status
        self.manifest["files"] = sorted(self.files)
        self.manifest["wall_clock_seconds"] = round(time.monotonic() - self.t0, 3)
        _write_json(self.manifest_path, self.manifest)


def _process_start() -> float:
    """This process's start on time.monotonic()'s clock. On Linux it is the
    start time in /proc/self/stat (field 22, clock ticks since boot) read
    against CLOCK_BOOTTIME, which also counts from boot, so interpreter
    start-up and imports are timed; elsewhere it is sgldlab's import."""
    try:
        with open("/proc/self/stat") as fh:
            # the fields after the command name, which may hold spaces and
            # parentheses, start at field 3
            ticks = int(fh.read().rpartition(")")[2].split()[19])
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):  # no procfs or BOOTTIME
        return _import_time
    return time.monotonic() - max(age, 0.0)


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
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _dump_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_json(path, payload) -> None:
    with _replacing(path) as tmp:
        _dump_json(tmp, payload)


def _start_config_manifest(out: _OutputDir, cfg: ExperimentConfig,
                           preconditions) -> None:
    out.start_manifest(config=cfg.blocks, config_hash=cfg.config_hash(),
                       seed=cfg["sgld"]["seed"],
                       artifact_version=__version__, preconditions=preconditions)


def _environment() -> dict:
    """Where an invocation ran: the versions and the machine, and what sets
    the artifacts' last bits there: numpy's SIMD dispatch target for `exp`
    and `tanh`, and the BLAS numpy was built with (name and version) and
    the kernel it picked at run time. A field that cannot be read is None."""
    uname = platform.uname()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "platform": f"{uname.system} {uname.release} {uname.machine}",
            "cpu_count": os.cpu_count(), "numpy_dispatch": _numpy_dispatch(),
            "blas": _blas()}


def _numpy_dispatch() -> dict:
    """The float64 loop's current dispatch target of `exp` and `tanh`."""
    try:
        from numpy.lib.introspect import opt_func_info  # numpy 2.0 and later

        info = opt_func_info(func_name="^(exp|tanh)$", signature="float64")
    except (ImportError, TypeError, ValueError):
        info = {}
    return {name: next(iter(info.get(name, {}).values()), {}).get("current")
            for name in ("exp", "tanh")}


def _blas() -> dict:
    """numpy's BLAS: its build's name and version, and, for OpenBLAS, the
    kernel it picked at load (`*get_corename*` of the library this process
    mapped, found in /proc/self/maps)."""
    import ctypes

    out = dict.fromkeys(("name", "version", "kernel"))
    with contextlib.suppress(AttributeError, KeyError, TypeError):
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        out["name"], out["version"] = blas.get("name"), blas.get("version")
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(None, 5) for line in fh]
    except OSError:  # no procfs
        return out
    for path in sorted({f[5].strip() for f in fields
                        if len(f) == 6 and "openblas" in f[5].lower()}):
        with contextlib.suppress(OSError):
            lib = ctypes.CDLL(path)  # the mapped library itself, not a second copy
            for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                           "openblas_get_corename64_", "openblas_get_corename"):
                corename = getattr(lib, symbol, None)
                if corename is not None:
                    corename.restype = ctypes.c_char_p
                    out["kernel"] = (corename() or b"").decode() or None
                    return out
    return out


def _peak_rss_mb() -> dict:
    """Peak resident set sizes in MB: of this process, and of the largest
    child it has reaped (`run`'s worker)."""
    import resource  # POSIX only, as `run`'s fork is

    def peak(who):
        return round(resource.getrusage(who).ru_maxrss / 1024.0, 2)  # KiB on Linux
    return {"run": peak(resource.RUSAGE_SELF), "worker": peak(resource.RUSAGE_CHILDREN)}


def _apply_seed(args, cfg: ExperimentConfig) -> int:
    """Write `--seed` into the config's sgld.seed, so the manifest's config
    and hash describe what ran, and return the config's seed. `--seed` is
    refused by `SGLDConfig`'s rule before any subcommand opens its output
    directory."""
    if args.seed is not None:
        _check("--seed", dataclasses.replace, cfg.sgld_config(), seed=args.seed)
        cfg["sgld"]["seed"] = args.seed
    return cfg["sgld"]["seed"]


# ---------------------------------------------------------------- subcommands


def cmd_certify(args) -> int:
    cfg = load_config(args.config)
    model = cfg.model()
    seed = _apply_seed(args, cfg)
    report = certify(model, n_samples=cfg["loss"]["certify_samples"],
                     rng_seed=seed)
    with _OutputDir(args.out, args.started) as out:
        _start_config_manifest(out, cfg, {})
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
    cfg = load_config(args.config)
    model = cfg.model()
    seed = _apply_seed(args, cfg)
    sgld_cfg = cfg.sgld_config()
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

    with _OutputDir(args.out, args.started) as out:
        _start_config_manifest(out, cfg, preconditions)

        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xDA7A]))
        dataset = np.asarray(model.sample_data(rng, cfg["data"]["n"]), dtype=float)
        out.save_npy("dataset.npy", dataset)
        # the gap and the stability trace read nothing the stages below
        # compute, so a forked worker runs them while this process runs the
        # rest
        seconds, worker_seconds, failure = {}, {}, None
        try:
            with _worker_process(model, sgld_cfg, est) as result:
                stored_steps = _run_own_stages(out, cfg, model, dataset, sgld_cfg, seconds)
                start = time.monotonic()
                try:
                    stability, gap, worker_seconds = result()
                except EOFError as exc:
                    # killed, say out of memory: the lock goes, the manifest stays running
                    print(f"run failed: {exc}", file=sys.stderr)
                    return 1
                seconds["worker_wait_s"] = time.monotonic() - start
            # both tables take their names only once both are written: a refused
            # gap or trace leaves neither
            with out.file("stability.csv") as trace_path, out.file("gap.csv") as gap_path:
                write_estimates_csv(gap_path, f"gen_gap[{est['eval_loss']}]", [sgld_cfg.T],
                                    *gap, est["n_trials"])
                write_estimates_csv(trace_path, "grad_stability", stored_steps, *stability,
                                    est["n_pairs"])
        except NotFinite as exc:
            # a state or an estimate past the float range, where none is defined
            failure = exc
        out.manifest["peak_rss_mb"] = _peak_rss_mb()  # the worker is reaped
        out.manifest["stages"] = {  # seconds here and in the worker, to the us
            who: {name: round(value, 6) for name, value in sorted(times.items())}
            for who, times in (("run", seconds), ("worker", worker_seconds))}
        states = out.manifest["checks"]["states"]
        states["finite"] = not isinstance(failure, StatesNotFinite)
        print(f"run: states finite in every chain: {states['finite']}; largest "
              f"||W||^2 in the ensemble: {states['max_w_norm_sq']}")
        if failure is not None:
            out.finish_manifest("failed")
            print(f"run failed: {failure}", file=sys.stderr)
            return 2
        out.finish_manifest()
    print(f"run complete: {len(out.files)} files in {args.out}")
    return 0


def _update_series(model, dataset, before, chunk, out) -> None:
    """Write into `out` (3, m) chain 0's grad_var_sample, grad_fullbatch_norm
    and grad_minibatch_norm rows of the updates into `chunk`'s m steps, at
    its states before them: `before` (1, d), then the chunk's own. They are
    taken in the engine's Fisher-Yates blocks of steps, which move no bit."""
    full = model.full_batch_grad(dataset[None])
    block = _block_len(chunk.steps.shape[1] * len(dataset))  # c n words a step
    pre = np.concatenate([before, chunk.steps[:-1, 0]])
    for s in range(0, pre.shape[0], block):
        G_full = full(pre[s:s + block])
        G = G_full if chunk.indices is None else model.grad_minibatch(
            pre[s:s + block], dataset[chunk.indices[s:s + block, 0]])
        out[:, s:s + block] = (_row_sq(G - G_full), np.sqrt(_row_sq(G_full)),
                               np.sqrt(_row_sq(G)))


def _run_own_stages(out: _OutputDir, cfg: ExperimentConfig, model, dataset,
                    sgld_cfg: SGLDConfig, seconds: dict) -> np.ndarray:
    """The stages `run` keeps in its own process: the ensemble, chain 0's
    trace and variance, the moments, the log-MGF and p-th moment checks,
    whose seconds go into `seconds` as `ensemble_s`, `variance_s` and
    `checks_s`. Returns chain 0's stored steps; raises StatesNotFinite,
    after the moments, when an ensemble chain's ||W||^2 left the float
    range.

    The ensemble is read chunk by chunk from `_lockstep_chunks`, as the
    worker reads its chains: a chunk's ||W||^2 are added chain by chain into
    one per-step sum (the order and bits of np.mean over the chains' stack),
    chain 0 alone keeps its trace, its gradient series by `_update_series`,
    and the final states are the last chunk's. So no array has both a chain
    axis and a step axis."""
    est, lc, seed = cfg["estimators"], model.constants(), sgld_cfg.seed
    T, n_chains = sgld_cfg.T, est["n_chains"]
    start = time.monotonic()
    [(_, chain_seqs)] = ensemble_seqs(seed, n_chains)
    stored_steps = _stored_steps(T)
    series = np.empty((3, T))  # grad_var_sample, grad_fullbatch_norm, grad_minibatch_norm
    trace = ChainTrace(config=sgld_cfg, states=np.empty((len(stored_steps), sgld_cfg.d)),
                       w_norm_sq=np.empty(T + 1), grad_var_sample=series[0],
                       grad_fullbatch_norm=series[1], grad_minibatch_norm=series[2])
    total = np.empty(T + 1)  # the ensemble's ||W_t||^2 summed over its chains
    largest, finite, row = -math.inf, True, 0
    datasets = np.broadcast_to(dataset, (n_chains,) + dataset.shape)
    for chunk in _lockstep_chunks(sgld_cfg, model, datasets, chain_seqs):
        norms = chunk.w_norm_sq  # (steps, chains)
        steps = slice(chunk.t0, chunk.t0 + norms.shape[0])
        total[steps] = norms[:, 0]
        # finite norms can sum past the float range; `finite` reads the norms
        with np.errstate(over="ignore"):
            for i in range(1, n_chains):
                total[steps] += norms[:, i]
        trace.w_norm_sq[steps] = norms[:, 0]
        if chunk.t0:  # the updates into the chunk's steps
            _update_series(model, dataset, last, chunk, series[:, chunk.t0 - 1:steps.stop - 1])
        last = chunk.steps[-1:, 0].copy()  # off the buffer the next chunk overwrites
        trace.states[row:row + chunk.states.shape[0]] = chunk.states[:, 0]
        row += chunk.states.shape[0]
        finite = finite and bool(np.isfinite(norms).all())
        largest = max(largest, float(norms.max()))
    finals = chunk.states[-1].copy()  # T is the last stored step
    del chunk  # frees the engine's step buffer
    total /= n_chains

    with out.file("chain_000.csv") as path:
        trace.to_csv(path)
    out.save_npy("final_states.npy", finals)
    with out.file("moments.csv") as path:
        write_csv(path, ("t", "mean_w_norm_sq"), array_rows(range(T + 1), total))
    out.manifest["checks"] = {"states": {"max_w_norm_sq": largest if finite else None}}
    seconds["ensemble_s"] = time.monotonic() - start
    if not finite:
        raise StatesNotFinite()

    start = time.monotonic()
    means, stderrs = grad_variance_trace(model, dataset, trace,
                                         n_resamples=est["n_resamples"])
    with out.file("variance.csv") as path:
        write_estimates_csv(path, "grad_variance", stored_steps, means, stderrs,
                            est["n_resamples"])
    seconds["variance_s"] = time.monotonic() - start

    start = time.monotonic()
    if n_chains >= LOGMGF_MIN_SAMPLES:
        pars = subexp_params(lc, beta=sgld_cfg.beta, d=sgld_cfg.d, s_sq=sgld_cfg.s_sq,
                             universal_C=cfg["bounds"]["universal_C_moment"])
        zrng = np.random.default_rng(np.random.SeedSequence([seed, 0x10F]))
        Z = model.sample_data(zrng, n_chains)
        # finite states can have losses past the float range: the writer's
        # NotFinite below reports them, so numpy's warnings are not shown
        with np.errstate(over="ignore", invalid="ignore"):
            mgf = logmgf_check(model.eval_many(finals, Z), pars["sigma_e_sq"],
                               pars["nu"], est["lambda_grid"], rng_seed=seed)
            half_band = np.subtract(mgf.band_hi, mgf.band_lo) / 2.0
        out.manifest["checks"]["logmgf"] = {
            "lambdas": list(mgf.lambdas), "envelope": list(mgf.envelope),
            "n_violations": mgf.n_violations}
        if mgf.n_violations:
            print(f"run: log-MGF above its envelope at {mgf.n_violations} "
                  f"of {len(mgf.lambdas)} lambdas")
        with out.file("logmgf.csv") as path:
            # the stderr column is the bootstrap band's half-width
            write_estimates_csv(path, "logmgf", mgf.lambdas, mgf.logmgf, half_band,
                                mgf.n_samples)
    need = pth_moment_min_chains(est["p_list"])
    if n_chains >= need:
        moments = pth_moment_check(finals, est["p_list"], lc, beta=sgld_cfg.beta,
                                   d=sgld_cfg.d, s_sq=sgld_cfg.s_sq)
        out.write_json("pth_moments.json", moments.to_dict())
    else:
        out.write_json("pth_moments.json", {
            "skipped": f"needs at least {need} chains for "
                       f"p up to {max(est['p_list'])}, have {n_chains}"
        })
    seconds["checks_s"] = time.monotonic() - start
    return stored_steps


_SIGNALS = (signal.SIGINT, signal.SIGTERM)


class StatesNotFinite(NotFinite):
    """Chain states past the float range: `run` records `checks.states.finite`
    false. Raised in the worker, it reaches `run` through the pipe as any
    exception does."""

    def __str__(self) -> str:
        return "chain states left the float range"


@contextlib.contextmanager
def _worker_process(model, sgld_cfg: SGLDConfig, est: dict):
    """`_worker` in a process forked with os.fork, yielding a function that
    receives its result: the stability estimates and the gap. The worker
    writes one pickle to an os.pipe; the function reads the pipe to its end,
    reaps the worker with os.waitpid and, if it exited 0, unpickles the
    message. An exception raised in the worker is raised there, caused by
    one holding the worker's traceback; EOFError, naming the exit code,
    means the worker ended without its message (killed, say, or ended by a
    BaseException).

    The worker is sent SIGTERM and reaped on leaving, however the with block
    ends. SIGINT and SIGTERM stay blocked across the fork, so neither reaches
    the child before it has dropped this process's handlers. The child
    leaves through os._exit alone, so it never unwinds into its caller's
    stack (whose with blocks would drop the output directory's lock) and
    never flushes the stdio buffers it inherited.
    """
    parent = os.getpid()
    receive, send = os.pipe()
    status = None

    def result():
        nonlocal status
        with open(receive, "rb", closefd=False) as fh:
            message = fh.read()
        _, status = os.waitpid(pid, 0)
        code = os.waitstatus_to_exitcode(status)
        if code or not message:
            raise EOFError(f"the stability and gap worker died (exit code {code})")
        kind, payload = pickle.loads(message)
        if kind == "error":
            exc, worker_traceback = payload
            raise exc from RuntimeError(f"raised in the worker:\n{worker_traceback}")
        return payload

    try:
        for stream in (sys.stdout, sys.stderr):
            stream.flush()  # else a line the child writes repeats what they held
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, _SIGNALS)
        try:
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    os.close(receive)
                    _worker(send, parent, model, sgld_cfg, est)
                    code = 0
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                finally:
                    os._exit(code)
        finally:
            os.close(send)  # the child's end only, so its exit reads as EOF here
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        try:
            yield result
        finally:
            if status is None:
                os.kill(pid, signal.SIGTERM)
                os.waitpid(pid, 0)
    finally:
        os.close(receive)


def _worker(send: int, parent: int, model, sgld_cfg: SGLDConfig, est: dict) -> None:
    """`run`'s worker, forked from the process `parent`: `_worker_stages`.
    It writes one pickle to the pipe end `send` and closes it: ("done",
    `_worker_stages`' result), or ("error", (exception, traceback text))
    from an Exception in any stage. It writes no file, and a thread exits
    the process within 0.05 s of `parent` being gone (say killed by
    SIGKILL), in any stage or write."""
    def exit_once_orphaned():
        while os.getppid() == parent:
            time.sleep(0.05)
        os._exit(1)  # adopted: nobody is left to read the results

    for sig in _SIGNALS:
        signal.signal(sig, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, _SIGNALS)
    threading.Thread(target=exit_once_orphaned, daemon=True).start()
    try:
        message = ("done", _worker_stages(model, sgld_cfg, est))
    except Exception as exc:
        import traceback

        message = ("error", (exc, traceback.format_exc()))
    with open(send, "wb") as fh:
        fh.write(pickle.dumps(message))


def _worker_stages(model, sgld_cfg: SGLDConfig, est: dict):
    """The stability trace, the gap and their seconds, from one pass of the
    chain engine over the stability pairs' chains, each on its S, then the
    gap trials' chains; StatesNotFinite at the first chunk in which a
    chain's ||W||^2 leaves the float range. Each chunk's stored pair states are
    evaluated as the engine yields them, and the trials' final states alone
    are kept, for the gap, so no trajectory is held whole. The trace and the gap are
    (means, stderrs) arrays, the trace's one entry per stored step and the
    gap's one at T; the seconds are `stability_s`, the engine's and the
    pairs' evaluation, and `gap_s`. The estimators are looked up in this
    module's globals at call time, so wrappers set there are the ones run."""
    start = time.monotonic()
    n_pairs = est["n_pairs"]
    # the chains' datasets, the pairs' S then the trials', as one array the
    # engine reads in place
    datasets = np.empty((n_pairs + est["n_trials"], sgld_cfg.n, model.z_dim))
    datasets_alt = np.empty((n_pairs, sgld_cfg.n, model.z_dim))
    chain_seqs = stability_chains(model, sgld_cfg, datasets[:n_pairs], datasets_alt)
    trial_seqs, pool_seqs = gap_trials(model, sgld_cfg, datasets[n_pairs:])
    means, stderrs = [], []
    for chunk in _lockstep_chunks(sgld_cfg, model, datasets, chain_seqs + trial_seqs):
        if not np.isfinite(chunk.w_norm_sq).all():
            raise StatesNotFinite()
        mean, stderr = stability_block(model, datasets[:n_pairs], datasets_alt,
                                       chunk.states)
        means.append(mean)
        stderrs.append(stderr)
    finals = chunk.states[-1, n_pairs:].copy()  # T is the last stored step
    del chunk  # frees the engine's step buffer before the gap's test pools
    seconds = {"stability_s": time.monotonic() - start}
    start = time.monotonic()
    gap = gen_gap(model, datasets[n_pairs:], finals, pool_seqs, est["eval_loss"])
    seconds["gap_s"] = time.monotonic() - start
    return (np.concatenate(means), np.concatenate(stderrs)), gap, seconds


def _read_csv(path, columns) -> list:
    """Data rows of a CSV artifact whose header must be `columns`, each
    refused unless it has a cell per column."""
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    with fh:
        try:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = list(reader)
        except (UnicodeDecodeError, csv.Error) as exc:  # not text, or a cell past csv's limit
            raise ConfigError(f"{path}: not a readable CSV: {exc}") from exc
    if header != list(columns):
        raise ConfigError(f"{path}: unexpected columns {header}")
    for i, cells in enumerate(rows, 1):
        if len(cells) != len(columns):
            raise ConfigError(f"{path}: row {i} has {len(cells)} cells, "
                              f"not {len(columns)}")
    return rows


def _load_estimates_csv(path):
    """The rows of an estimates CSV, parsed; a cell that does not parse is
    refused by its row."""
    rows = []
    for i, (name, t, mean, stderr, n) in enumerate(
            _read_csv(path, ESTIMATES_CSV_COLUMNS), 1):
        try:
            rows.append((name, float(t), float(mean), float(stderr), int(n)))
        except ValueError as exc:
            raise ConfigError(f"{path}: row {i}: {exc}") from exc
    return rows


def _load_trace(traces_dir, name, T: int):
    """(steps, means) of one of a run's per-step estimate CSVs, refused
    unless its steps are those a run of horizon T stores and its means are
    finite."""
    path = os.path.join(traces_dir, name)
    rows = _load_estimates_csv(path)
    steps = _stored_steps(T)
    if not np.array_equal([r[1] for r in rows], steps):
        raise ConfigError(f"{path}: its steps are not the {len(steps)} steps a run "
                          f"of T = {T} stores")
    means = np.array([r[2] for r in rows])
    if not np.isfinite(means).all():
        raise ConfigError(f"{path}: a mean is not finite")
    return steps, means


# the loss keys a run's traces depend on; `claimed` and `certify_samples` only
# change what is checked and assumed about the same chain
_TRACE_LOSS_KEYS = ("family", "d", "data_radius", "R", "lam", "a")


def _chain_settings(cfg: ExperimentConfig) -> dict:
    """What a run's traces depend on: its SGLDConfig, seed aside, and its
    loss parameters."""
    chain = dataclasses.asdict(cfg.sgld_config())
    del chain["seed"]
    return {**chain, **{f"loss.{key}": cfg["loss"][key] for key in _TRACE_LOSS_KEYS}}


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
    model = cfg.model()
    _apply_seed(args, cfg)
    sgld_cfg, b = cfg.sgld_config(), cfg["bounds"]
    dc = cfg.derived()
    _check_run_manifest(args.traces, cfg)
    entries = evaluate_grid(model, dc, b, sgld_cfg,
                            _load_trace(args.traces, "variance.csv", sgld_cfg.T),
                            _load_trace(args.traces, "stability.csv", sgld_cfg.T),
                            b["T_grid"], b["n_grid"], cfg["estimators"]["mi_pairs"])

    with _OutputDir(args.out, args.started) as out:
        _start_config_manifest(out, cfg, {"traces": args.traces})
        with out.file("bounds.csv") as path:
            write_bounds_csv(path, entries)
        out.write_json("bounds.json", [e.to_dict() for e in entries])
        gap_src = os.path.join(args.traces, "gap.csv")
        if os.path.exists(gap_src):
            # carried along so a report directory is self-contained for compare
            with out.file("gap.csv") as path:
                shutil.copyfile(gap_src, path)
        out.finish_manifest()
    print(f"bounds: {len(entries)} entries in {args.out}")
    return 0


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    model = cfg.model()
    lc = model.constants()
    seed = _apply_seed(args, cfg)
    falsify = cfg["verify"]["falsify"]
    hard_failures = []
    sections = {}

    with _OutputDir(args.out, args.started) as out:
        _start_config_manifest(out, cfg, {"falsify": falsify})

        if has_oracle_law(lc):
            sgld_cfg = cfg.sgld_config()
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
            # each array tested on its own: a stack of the three is 3 rows
            step = min((int(np.argmin(ok)) for ok in map(np.isfinite, (
                trace.mean_norm, trace.var, trace.kl)) if not ok.all()), default=None)
            if step is not None:
                # |1 - eta R| > 1: the law leaves the float range, and no
                # recursion or MI value is defined past it
                sections["oracle"] = {"non_finite_from_step": step}
                hard_failures.append(f"oracle law not finite from step {step}")
            else:
                rec = verify_kl_recursion(trace.kl, contraction, add)
                # the identical-pair control: `bounds`' MI at eight pairs
                # with S' = S, whose gaps are exactly zero
                mi_zero = oracle_mi_from_gaps(np.zeros(8), trace.response[-1],
                                              trace.var[-1])
                sections["oracle"] = {
                    "recursion_violations": rec.n_violations,
                    "recursion_worst_slack": rec.worst_slack,
                    "identical_pair_mi": mi_zero,
                    "contraction": contraction,
                    "per_step_add": add,
                }
                if rec.n_violations > 0:
                    hard_failures.append(
                        f"kl recursion violated at {rec.n_violations} steps")
                if mi_zero != 0.0:
                    hard_failures.append("identical-pair MI control is nonzero")
        else:
            sections["oracle"] = {"skipped": "loss family has no curvature "
                                             "constant; exact law unavailable"}

        beta = cfg["sgld"]["beta"]
        rates = {}
        for label, grid, gs, ga, dt, n_steps in _verify_fp_runs(cfg, lc):
            start = gibbs_density(grid, (grid.centers - 1.0) ** 2, 1.0)
            try:
                run = evolve_pair(grid, gs, ga, beta, dt, n_steps, start, start)
            except ValueError as exc:
                # the grid cannot carry the pair (say, its two densities part
                # on it): the check fails, not the command
                sections[f"fp_{label}"] = {"n_cells": grid.n_cells, "failed": str(exc)}
                hard_failures.append(f"fp_{label}: {exc}")
                continue
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
        if rates.get("coarse", 0.0) > 0.01:
            hard_failures.append(
                f"fp violation rate {rates['coarse']} above 1%")
        if len(rates) == 2 and rates["fine"] > rates["coarse"]:
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


def cmd_compare(args) -> int:
    tables = []
    for directory in args.reports:
        bounds_path = os.path.join(directory, "bounds.csv")
        gap_path = os.path.join(directory, "gap.csv")
        # (name, T, n) -> value cell; value and T are each empty or a float,
        # and n empty or an integer, which the tables below sort by and format
        table = {}
        for i, (name, value, T, n, *_) in enumerate(
                _read_csv(bounds_path, BOUNDS_CSV_COLUMNS), 1):
            try:
                float(value or 0), float(T or 0), int(n or 0)
            except ValueError as exc:
                raise ConfigError(f"{bounds_path}: row {i}: {exc}") from exc
            table[(name, T, n)] = value
        if os.path.exists(gap_path):
            for _, t, mean, _, _ in _load_estimates_csv(gap_path):
                if not t.is_integer():
                    raise ConfigError(f"{gap_path}: T = {t} is not a step")
                table[("empirical_gap", str(int(t)), "")] = repr(mean)
        tables.append(table)
    # each column's label is its report directory's name, or, where two
    # reports' names are one, the path as given
    names = [os.path.basename(os.path.normpath(d)) for d in args.reports]
    labels = [d if names.count(name) > 1 else name for d, name in zip(args.reports, names)]

    keys = sorted({k for table in tables for k in table},
                  key=lambda k: (k[0], float(k[1] or -1), int(k[2] or -1)))
    with _OutputDir(args.out, args.started) as out:
        out.start_manifest(inputs=args.reports)
        with out.file("compare.csv") as path:
            write_csv(path, ("bound_name", "T", "n", *labels),
                      [(*key, *(table.get(key) for table in tables)) for key in keys])
        with out.file("compare.txt") as path, open(path, "w") as fh:
            widths = [max(12, len(label) + 2) for label in labels]
            fh.write(f"{'bound':24s}{'T':>8s}{'n':>8s}"
                     + "".join(f"{label:>{w}s}" for label, w in zip(labels, widths))
                     + "\n")
            for key in keys:
                row = f"{key[0]:24s}{key[1]:>8s}{key[2]:>8s}"
                for table, w in zip(tables, widths):
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
                       help="override the config's sgld.seed (u64)")
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
    p.add_argument("--traces", required=True,
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
    """Run the command in `argv`, or in sys.argv when None. The manifest's
    `wall_clock_seconds` counts from the process's start for a command line
    (argv None), and from this call for a call with arguments."""
    started = _process_start() if argv is None else time.monotonic()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args.started = started
    handlers = {sig: signal.signal(sig, _interrupt) for sig in _SIGNALS}
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # as when run's worker dies: the lock goes, a started manifest stays running
        detail = f": {exc}" if str(exc) else ""
        print(f"{args.command} failed: out of memory{detail}", file=sys.stderr)
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
