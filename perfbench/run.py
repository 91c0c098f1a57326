#!/usr/bin/env python3
"""sgldlab benchmark: frozen workloads through the real CLI, timed and checked.

Run from the root of a checkout (the directory holding `src/sgldlab`):

    python3 perfbench/run.py --workload logistic-probe --seed 0 --seconds 30 --trace 0

Each workload is one closed-loop client. It writes a config from the seed,
then runs `certify -> run -> bounds -> verify` as child processes, each one
starting only after the previous one has exited. Pipelines repeat
until `--seconds` have passed (at least one), with a set-up timing before
each invocation. Set-up, `certify`, `bounds` and `verify` then repeat on
the first pipeline's traces as REPEATS asks. Every invocation's output is
checked (see `check_invocation`); `run` repeats within a run when two
pipelines fit, and always under --trace 1. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

The seed picks config seed 7 + seed % 8; reference.json holds the frozen
outputs (summary values, artifact digests, work counters) of each.

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 runs one untraced and one traced pipeline plus the per-call
microbenchmarks in probe.py, and reports the per-layer metrics: span
totals and self times per module, work counters, and the tracing overhead
(traced minus untraced pipeline_s).
--falsify sets verify.falsify in the config; on quadratic-fullbatch the
output check must then fail (error_rate > 0), which shows that it can.
--freeze reruns every config seed of the workload and rewrites its entry in
reference.json; do it only when outputs change on purpose.

Children get OMP_NUM_THREADS=OPENBLAS_NUM_THREADS=1 and only the generated
config. Results, spans and logs go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
PROBE = os.path.join(HERE, "probe.py")
CLOCK = time.monotonic_ns

SUBCOMMANDS = ("certify", "run", "bounds", "verify")
# the workload seed picks one of SEED_CYCLE config seeds, starting at 7;
# reference.json holds the frozen outputs of each of them
SEED_BASE, SEED_CYCLE = 7, 8
# invocations per run: two of each for the repeat check, and set-up
# timings (one before each pipeline invocation, so they spread over the run)
# topped up to eight on the first pipeline's traces
REPEATS = {"setup": 8, "certify": 2, "bounds": 2, "verify": 2}
CHILD_TIMEOUT_S = 150
RTOL, ATOL = 1e-6, 1e-12  # summary values against the frozen reference
MICRO_CALLS = 200        # per-call microbenchmarks, after warm-up
CERTIFY_CALLS = 20       # certify at 1e5 samples costs 0.07-0.2 s a call
MICRO_CHAINS = 32

WORKLOADS = {
    # the ROADMAP probe: long, narrow, subsampled chains; the Python step
    # loop, the Fisher-Yates sampler, the logistic kernel and the loops over
    # stored states in the estimators do nearly all the work
    "logistic-probe": {
        "loss": {"family": "logistic_ridge", "lam": 1.0, "d": 5},
        "sgld": {"eta": 0.02, "beta": 4.0, "k": 20, "T": 5000},
        "data": {"n": 200},
        "bounds": {"sigma_g_sq": 0.25},
    },
    # k = n: no minibatches, exact-zero variance, a mean-only gradient, so
    # sampler / kernel / variance changes must not move it; the oracle and
    # the Fokker-Planck solver do most of bounds and verify, and it is the
    # only workload where xu_raginsky runs
    "quadratic-fullbatch": {
        "loss": {"family": "quadratic", "R": 1.0, "d": 4},
        "sgld": {"eta": 0.05, "beta": 4.0, "k": 100, "T": 4000},
        "data": {"n": 100},
        "bounds": {"sigma_g_sq": 0.25, "n_grid": [25, 50, 100, 200, 400]},
        "fp": {"n_cells": 512},
    },
    # wide, short chains: array arithmetic on (256 x 1000 x 20) dominates,
    # not per-step overhead, so a change that trades memory for Python
    # steps shows in peak_rss_mb; also the sin/cos kernel and the
    # general-dissipative constant chain. Run it by hand: BENCHMARK.json
    # leaves it out, since three workloads' runs do not fit the time the
    # whole benchmark may take. Its gradient kernel is microbenchmarked
    # in every traced run.
    "nonconvex-wide": {
        "loss": {"family": "nonconvex_ridge", "lam": 1.0, "a": 0.5, "d": 20},
        "sgld": {"eta": 0.01, "beta": 4.0, "k": 50, "T": 400},
        "data": {"n": 1000},
        "bounds": {"lsi_mode": "general_dissipative"},
        "estimators": {"n_chains": 256, "n_pairs": 128, "n_trials": 32},
    },
}
# the gradient-kernel microbenchmark of each family runs at its workload's shape
KERNEL_WORKLOADS = {"quadratic": "quadratic-fullbatch",
                    "logistic": "logistic-probe",
                    "nonconvex": "nonconvex-wide"}

UNITS = {
    "setup_s": "s", "run_s": "s", "bounds_s": "s", "verify_s": "s",
    "pipeline_s": "s", "grad_evals_per_s": "1/s", "peak_rss_mb": "MB",
    "ok_rate": "ratio",
}
# bounds_s and verify_s are printed but are no end-to-end metrics: on
# logistic-probe both are ~90% interpreter start-up, whose run-to-run drift
# on a shared host (20%+) exceeds any bound a metric may carry. ok_rate is
# 1 - error_rate: a metric that reads 0 cannot carry a relative bound.
END_TO_END = ("setup_s", "run_s", "pipeline_s", "grad_evals_per_s",
              "peak_rss_mb", "ok_rate")


class BenchError(Exception):
    pass


# ------------------------------------------------------------------ inputs


def config_seed(seed: int) -> int:
    return SEED_BASE + seed % SEED_CYCLE


def make_config(workload: str, cseed: int, falsify: bool = False) -> dict:
    cfg = copy.deepcopy(WORKLOADS[workload])
    cfg["sgld"]["seed"] = cseed
    if falsify:
        cfg.setdefault("verify", {})["falsify"] = True
    return cfg


def stored_states(T: int) -> int:
    # sgld.STATE_STORE_CAP: every state up to 1e4 steps, then a stride
    stride = 1 if T <= 10_000 else -(-T // 10_000)
    return len(range(0, T + 1, stride)) + (0 if T % stride == 0 else 1)


def expected_grad_evals(blocks: dict) -> int:
    """Data-point gradient evaluations of `run`, from the defaulted config.

    c*T*(k+n) + n_p*(T*(k+n) + 2*S*n) + S*(R*k + n) + n_t*T*(k+n) with k < n;
    with k = n the k terms and the variance term drop out.
    """
    s, est = blocks["sgld"], blocks["estimators"]
    T, k, n = s["T"], s["k"], blocks["data"]["n"]
    S = stored_states(T)
    per_step = k + n if k < n else n
    total = (est["n_chains"] + est["n_pairs"] + est["n_trials"]) * T * per_step
    total += est["n_pairs"] * 2 * S * n
    if k < n:
        total += S * (est["n_resamples"] * k + n)
    return total


# --------------------------------------------------------------- processes


class Invocation:
    """One finished child process: what ran, how long, and its rusage."""

    def __init__(self, sub, out_dir, log, start, end, code, rss_mb):
        self.sub, self.out_dir, self.log = sub, out_dir, log
        self.start, self.end, self.code, self.rss_mb = start, end, code, rss_mb
        self.problems: list[str] = []

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["OMP_NUM_THREADS"] = "1"
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def spawn(sub: str, argv: list[str], out_dir: str | None, log: str,
          start: int | None = None) -> Invocation:
    """Run argv to completion; wall time, exit code and peak RSS of the child."""
    with open(log, "w") as fh:
        start = CLOCK() if start is None else start
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fh,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end = CLOCK()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(sub, out_dir, log, start, end, proc.returncode,
                      usage.ru_maxrss / 1024.0)


class Run:
    """State of one benchmark run: its directory, config and invocations."""

    def __init__(self, workload: str, seed: int, tag: str, falsify=False):
        self.workload, self.seed = workload, seed
        self.cseed = config_seed(seed)
        self.dir = os.path.join(OUT, f"{workload}-s{seed}-{tag}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.config_path = os.path.join(self.dir, "config.json")
        with open(self.config_path, "w") as fh:
            json.dump(make_config(workload, self.cseed, falsify), fh, indent=2)
        self.invocations: list[Invocation] = []
        self.setups: list[Invocation] = []
        self.blocks: dict = {}
        self.numpy = None

    def setup(self) -> Invocation:
        """Time a fresh interpreter importing sgldlab.cli and loading the config."""
        log = os.path.join(self.dir, f"setup-{len(self.setups)}.log")
        inv = spawn("setup", [sys.executable, PROBE, "setup", self.config_path],
                    None, log)
        if inv.code != 0:
            with open(log) as fh:
                raise BenchError(f"set-up failed (exit {inv.code}):\n{fh.read()}")
        with open(log) as fh:
            info = json.loads(fh.read().strip().splitlines()[-1])
        self.numpy, self.blocks = info["numpy"], info["config"]
        self.setups.append(inv)
        return inv

    def wants_more(self, sub: str) -> bool:
        done = self.setups if sub == "setup" else [
            i for i in self.invocations if i.sub == sub]
        return len(done) < REPEATS[sub]

    def invoke(self, sub: str, pdir: str, traced: bool = False,
               repeat: bool = False) -> Invocation:
        """Run one subcommand into pdir; a repeat gets its own directory."""
        name = f"{sub}-r{len(self.invocations)}" if repeat else sub
        out_dir = os.path.join(pdir, name)
        args = [sub, "--config", self.config_path, "--out", out_dir]
        if sub == "bounds":
            args += ["--traces", os.path.join(pdir, "run")]
        log = out_dir + ".log"
        if traced:
            start = CLOCK()
            argv = [sys.executable, PROBE, "trace", out_dir + ".spans.json",
                    str(start), "--", *args]
            inv = spawn(sub, argv, out_dir, log, start)
        else:
            inv = spawn(sub, [sys.executable, "-m", "sgldlab.cli", *args],
                        out_dir, log)
        self.invocations.append(inv)
        return inv

    def pipeline(self, traced: bool = False,
                 setups: bool = False) -> tuple[float, list[Invocation]]:
        """certify -> run -> bounds -> verify; returns their summed wall time."""
        pdir = os.path.join(self.dir, f"p{len(self.invocations)}")
        os.makedirs(pdir)
        invs = []
        for sub in SUBCOMMANDS:
            if setups:
                self.setup()
            invs.append(self.invoke(sub, pdir, traced))
        return sum(i.seconds for i in invs), invs


# ------------------------------------------------------------ output check


def digests(out_dir: str) -> dict:
    """sha256 of every artifact except manifest.json (it holds wall time)."""
    if not os.path.isdir(out_dir):
        return {}
    out = {}
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if name != "manifest.json" and os.path.isfile(path):
            with open(path, "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def artifact_bytes(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, name))
               for name in digests(out_dir))


def _flatten(prefix: str, value, out: dict) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}{key}.", sub, out)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        out[prefix.rstrip(".")] = float(value)


def summary(sub: str, out_dir: str) -> dict:
    """The values checked against the reference: gap mean, bounds, verify."""
    vals: dict = {}
    if sub == "run":
        with open(os.path.join(out_dir, "gap.csv"), newline="") as fh:
            vals["gap_mean"] = float(list(csv.reader(fh))[1][2])
    elif sub == "bounds":
        with open(os.path.join(out_dir, "bounds.csv"), newline="") as fh:
            for name, value, T, n, *_ in list(csv.reader(fh))[1:]:
                if value and math.isfinite(float(value)):
                    vals[f"{name}|{T}|{n}"] = float(value)
    elif sub == "verify":
        with open(os.path.join(out_dir, "verify_report.json")) as fh:
            _flatten("", json.load(fh), vals)
    return vals


def compare_values(got: dict, want: dict) -> list[str]:
    problems = []
    for key in sorted(set(got) | set(want)):
        if key not in got or key not in want:
            problems.append(f"{key}: present in only one of output and reference")
            continue
        a, b = got[key], want[key]
        if abs(a - b) > RTOL * max(abs(a), abs(b)) + ATOL:
            problems.append(f"{key}: {a!r} differs from reference {b!r}")
    return problems


def check_invocation(inv: Invocation, reference: dict | None,
                     first_digests: dict) -> None:
    """Record in inv.problems every reason the invocation failed the check."""
    if inv.code != 0:
        inv.problems.append(f"exit code {inv.code}")
    try:
        if inv.sub == "certify":
            with open(os.path.join(inv.out_dir, "certify_report.json")) as fh:
                if not json.load(fh)["passed"]:
                    inv.problems.append("certify did not PASS")
        if inv.sub == "verify":
            with open(os.path.join(inv.out_dir, "verify_report.json")) as fh:
                hard = json.load(fh)["hard_failures"]
            if hard:
                inv.problems.append(f"verify hard_failures: {hard}")
        vals = summary(inv.sub, inv.out_dir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        inv.problems.append(f"unreadable output: {exc!r}")
        return
    if reference is not None:
        inv.problems += compare_values(vals, reference["summary"].get(inv.sub, {}))
    got = digests(inv.out_dir)
    first = first_digests.setdefault(inv.sub, got)
    if got != first:
        changed = sorted(k for k in set(got) | set(first)
                         if got.get(k) != first.get(k))
        inv.problems.append(f"artifacts differ between repeats: {changed}")


def load_reference(workload: str, cseed: int) -> dict:
    ref = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            ref = json.load(fh).get(workload, {}).get(str(cseed))
    if not ref:
        raise BenchError(f"no frozen reference for {workload} config seed "
                         f"{cseed}; run with --freeze first")
    return ref


def artifacts_changed(first_digests: dict, reference: dict) -> list[str]:
    want = reference["digests"]
    changed = []
    for sub in sorted(set(first_digests) | set(want)):
        got, ref = first_digests.get(sub, {}), want.get(sub, {})
        changed += [f"{sub}/{name}" for name in sorted(set(got) | set(ref))
                    if got.get(name) != ref.get(name)]
    return changed


# ----------------------------------------------------------------- tracing


def load_spans(inv: Invocation) -> dict:
    with open(inv.out_dir + ".spans.json") as fh:
        return json.load(fh)


def analyse(traced: list[Invocation]) -> dict:
    """Self time per layer, per-name totals and per-call durations.

    A span's self time is its duration minus its direct children's; calls
    nest on one thread, so children never overlap. The subcommand's process
    (spawn to exit, measured here) is the root; its self time is cli's.
    """
    out = {"self": {}, "total": {}, "calls": {}, "counts": {},
           "cli_self": {}, "coverage": {}}
    for inv in traced:
        data = load_spans(inv)
        spans = data["spans"]
        child = [0] * len(spans)
        top = 0
        for name, parent, start, end in spans:
            if parent < 0:
                top += end - start
            else:
                child[parent] += end - start
        root_ns = inv.end - inv.start
        cli_self = root_ns - top
        for i, (name, parent, start, end) in enumerate(spans):
            layer = name.split(".")[0]
            self_ns = end - start - child[i]
            out["self"][layer] = out["self"].get(layer, 0.0) + self_ns / 1e9
            out["total"][name] = out["total"].get(name, 0.0) + (end - start) / 1e9
            out["calls"].setdefault(name, []).append((end - start) / 1e9)
            if layer == "cli":
                cli_self += self_ns
        out["self"]["cli"] = out["self"].get("cli", 0.0) + (root_ns - top) / 1e9
        out["cli_self"][inv.sub] = cli_self / 1e9
        out["coverage"][inv.sub] = top / root_ns
        for key, value in data["counts"].items():
            out["counts"][key] = out["counts"].get(key, 0) + value
    return out


def layer_spec(run: Run) -> str:
    """Write the input of `probe.py layers` and return its path."""
    kernels = {}
    for family, workload in KERNEL_WORKLOADS.items():
        path = os.path.join(run.dir, f"kernel-{family}.json")
        cfg = make_config(workload, run.cseed)
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        kernels[family] = {"config": path, "k": cfg["sgld"]["k"],
                           "n": cfg["data"]["n"]}
    spec = {
        "config": run.config_path, "seed": run.cseed, "calls": MICRO_CALLS,
        "chains": MICRO_CHAINS, "kernels": kernels,
        "sample_data": {"config": kernels["quadratic"]["config"], "n": 100},
        "certify": {"samples": 100_000, "calls": CERTIFY_CALLS},
    }
    path = os.path.join(run.dir, "layers-spec.json")
    with open(path, "w") as fh:
        json.dump(spec, fh)
    return path


def per_layer_metrics(run: Run, traced: list[Invocation], trace: dict,
                      layers: dict, overhead_s: float) -> dict:
    tot, calls, counts = trace["total"], trace["calls"], trace["counts"]
    T = run.blocks["sgld"]["T"]
    m: dict = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for family in KERNEL_WORKLOADS:
        for size in ("k", "n"):
            stats = layers[f"grad_minibatch_us.{family}.{size}"]
            for q in ("p50", "p90"):
                put(f"losses.grad_minibatch_us.{family}.{size}.{q}", stats[q], "us")
    for q in ("p50", "p90"):
        put(f"losses.sample_data_us.{q}", layers["sample_data_us"][q], "us")
        put(f"losses.certify_s.{q}", layers["certify_s"][q], "s")
    put("losses.grad_evals", counts.get("grad_evals", 0), "count")
    put("losses.certify_samples", counts.get("certify_samples", 0), "count")

    ensemble = tot.get("sgld.run_ensemble", 0.0)
    put("sgld.ensemble_s", ensemble, "s")
    put("sgld.step_us", ensemble / max(T, 1) * 1e6, "us")
    put("sgld.chain_steps", counts.get("chain_steps", 0), "count")
    put("sgld.noise_variates", counts.get("noise_variates", 0), "count")

    for short, fn in (("stability", "grad_stability_trace"),
                      ("variance", "grad_variance_trace"),
                      ("gap", "empirical_gen_gap"),
                      ("logmgf", "logmgf_check"),
                      ("moments", "pth_moment_check")):
        put(f"estimators.{short}_s", tot.get(f"estimators.{fn}", 0.0), "s")
    put("estimators.stored_states", counts.get("stored_states", 0), "count")
    engine = layers["stability_engine_s"]
    put("estimators.stability_engine_s", engine, "s")
    put("estimators.stability_eval_s",
        tot.get("estimators.grad_stability_trace", 0.0) - engine, "s")

    put("oracle.mi_upper_s", tot.get("oracle.oracle_mi_upper", 0.0), "s")
    put("oracle.mi_upper_calls", len(calls.get("oracle.oracle_mi_upper", [])), "count")
    put("oracle.dataset_pairs", counts.get("oracle_dataset_pairs", 0), "count")
    put("oracle.trace_s", tot.get("oracle.oracle_trace", 0.0), "s")

    ti = calls.get("bounds.bound_time_independent", [0.0])
    put("bounds.time_independent_us", statistics.median(ti) * 1e6, "us")
    bounds_dir = next(i.out_dir for i in traced if i.sub == "bounds")
    with open(os.path.join(bounds_dir, "bounds.json")) as fh:
        put("bounds.entries", len(json.load(fh)), "count")

    for label in ("coarse", "fine"):
        for q in ("p50", "p90"):
            put(f"fokker_planck.fp_step_us.{label}.{q}",
                layers[f"fp_step_us.{label}"][q], "us")
    evolve = calls.get("fokker_planck.evolve_pair", [0.0, 0.0])
    put("fokker_planck.evolve_pair_s.coarse", evolve[0], "s")
    put("fokker_planck.evolve_pair_s.fine", evolve[-1], "s")
    put("fokker_planck.steps", counts.get("fp_steps", 0), "count")

    for inv in traced:
        put(f"cli.self_s.{inv.sub}", trace["cli_self"][inv.sub], "s")
        put(f"cli.trace_coverage.{inv.sub}", trace["coverage"][inv.sub], "ratio")
        put(f"cli.artifact_bytes.{inv.sub}", artifact_bytes(inv.out_dir), "bytes")
    # cli's self time is the sum of cli.self_s.<sub>; constants' is ~30 us
    for layer in ("losses", "sgld", "estimators", "bounds", "oracle",
                  "fokker_planck"):
        put(f"{layer}.self_s", trace["self"].get(layer, 0.0), "s")
    put("trace.overhead_s", overhead_s, "s")
    return m


# ----------------------------------------------------------------- reporting


def describe(samples: list[float]) -> dict:
    if len(samples) >= 2:
        q1, med, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = med = q3 = samples[0]
    return {"median": statistics.median(samples), "q1": q1, "q3": q3,
            "n": len(samples)}


def environment(run: Run) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": run.numpy,
            "platform": platform.platform(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": cpu}


def finish(run: Run, result: dict, metrics: dict, lines: list[str]) -> None:
    """Write the result file, drop the artifacts, print the report."""
    path = os.path.join(OUT, os.path.basename(run.dir) + ".json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    shutil.rmtree(run.dir, ignore_errors=True)
    for line in lines:
        print(line)
    print(f"full record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


def check_all(run: Run, reference: dict | None) -> tuple[dict, list[str]]:
    first: dict = {}
    for inv in run.invocations:
        check_invocation(inv, reference, first)
    return first, [f"{inv.sub} ({os.path.relpath(inv.out_dir, run.dir)}): {p}"
                   for inv in run.invocations for p in inv.problems]


def bench_untraced(args, run: Run) -> None:
    reference = load_reference(run.workload, run.cseed)
    load_before = os.getloadavg()
    run.setup()  # warm-up: bytecode caches, page cache
    run.setups.clear()
    pipelines, first_dir = [], None
    t0 = time.monotonic()
    while not pipelines or time.monotonic() - t0 < args.seconds:
        seconds, invs = run.pipeline(setups=True)
        pipelines.append(seconds)
        first_dir = first_dir or os.path.dirname(invs[0].out_dir)
    while any(run.wants_more(sub) for sub in REPEATS):
        for sub in REPEATS:
            if not run.wants_more(sub):
                continue
            if sub == "setup":
                run.setup()
            else:
                run.invoke(sub, first_dir, repeat=True)
    load_after = os.getloadavg()

    first, problems = check_all(run, reference)
    attempted = len(run.invocations)
    failed = sum(bool(i.problems) for i in run.invocations)
    by_sub = {s: [i for i in run.invocations if i.sub == s] for s in SUBCOMMANDS}
    work = expected_grad_evals(run.blocks)
    samples = {
        "setup_s": [i.seconds for i in run.setups],
        "run_s": [i.seconds for i in by_sub["run"]],
        "bounds_s": [i.seconds for i in by_sub["bounds"]],
        "verify_s": [i.seconds for i in by_sub["verify"]],
        "pipeline_s": pipelines,
        "grad_evals_per_s": [work / i.seconds for i in by_sub["run"]],
        "peak_rss_mb": [i.rss_mb for i in by_sub["run"]],
        "ok_rate": [1.0 - failed / attempted],
    }
    stats = {k: describe(v) for k, v in samples.items()}
    metrics = {k: {"value": stats[k]["median"], "unit": UNITS[k]}
               for k in END_TO_END}
    changed = artifacts_changed(first, reference)
    lines = [f"workload {run.workload}  seed {run.seed} (config seed {run.cseed})"
             f"  one closed-loop client, {len(pipelines)} pipelines"]
    for k in UNITS:
        s = stats[k]
        lines.append(f"  {k:17s} {s['median']:<14.6g} {UNITS[k]:6s}"
                     f" q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}")
    lines.append(f"  {'error_rate':17s} {failed / attempted:<14.6g} ratio "
                 f"  {failed}/{attempted} invocations failed the output check")
    lines.append(f"  artifacts_changed vs reference: {changed or 'none'}")
    lines.append(f"  grad evals per run (from config): {work}")
    lines += [f"  FAILED {p}" for p in problems]
    result = {
        "workload": run.workload, "seed": run.seed, "config_seed": run.cseed,
        "trace": 0, "config": run.blocks, "environment": environment(run),
        "loadavg_before": load_before, "loadavg_after": load_after,
        "samples": samples, "stats": stats, "attempted": attempted,
        "failed": failed, "problems": problems,
        "artifacts_changed": changed, "digests": first, "grad_evals": work,
    }
    finish(run, result, metrics, lines)


def bench_traced(args, run: Run) -> None:
    reference = load_reference(run.workload, run.cseed)
    load_before = os.getloadavg()
    run.setup()
    untraced_s, _ = run.pipeline()
    traced_s, traced = run.pipeline(traced=True)
    layers_out = os.path.join(run.dir, "layers.json")
    probe = spawn("layers", [sys.executable, PROBE, "layers", layer_spec(run),
                             layers_out], None, layers_out + ".log")
    if probe.code != 0:
        with open(probe.log) as fh:
            raise BenchError(f"layer microbenchmarks failed:\n{fh.read()}")
    with open(layers_out) as fh:
        layers = json.load(fh)
    load_after = os.getloadavg()

    first, problems = check_all(run, reference)
    attempted = len(run.invocations)
    failed = sum(bool(i.problems) for i in run.invocations)
    trace = analyse(traced)
    metrics = per_layer_metrics(run, traced, trace, layers, traced_s - untraced_s)
    counts = trace["counts"]
    want_counts = reference["counts"]
    counts_changed = sorted(k for k in set(counts) | set(want_counts)
                            if counts.get(k) != want_counts.get(k))
    work = expected_grad_evals(run.blocks)

    spans_path = os.path.join(OUT, os.path.basename(run.dir) + ".spans.json")
    with open(spans_path, "w") as fh:
        json.dump({inv.sub: {"process": [inv.start, inv.end], **load_spans(inv)}
                   for inv in traced}, fh)
    lines = [f"workload {run.workload}  seed {run.seed} (config seed {run.cseed})"
             f"  traced: pipeline {traced_s:.3f} s, untraced {untraced_s:.3f} s"]
    lines += [f"  {k:48s} {v['value']:<14.6g} {v['unit']}"
              for k, v in metrics.items()]
    lines.append(f"  grad evals counted {counts.get('grad_evals')}, "
                 f"from config {work}")
    lines.append(f"  counters changed vs reference: {counts_changed or 'none'}")
    lines.append(f"  artifacts_changed vs reference: "
                 f"{artifacts_changed(first, reference) or 'none'}")
    lines.append(f"  error_rate {failed / attempted:.6g}  "
                 f"({failed}/{attempted} invocations failed the output check)")
    lines += [f"  FAILED {p}" for p in problems]
    lines.append(f"  spans: {os.path.relpath(spans_path, ROOT)}")
    result = {
        "workload": run.workload, "seed": run.seed, "config_seed": run.cseed,
        "trace": 1, "config": run.blocks, "environment": environment(run),
        "loadavg_before": load_before, "loadavg_after": load_after,
        "pipeline_s": {"traced": traced_s, "untraced": untraced_s},
        "layers": layers, "self_s": trace["self"], "span_totals": trace["total"],
        "counts": counts, "counts_changed": counts_changed,
        "grad_evals_from_config": work, "attempted": attempted,
        "failed": failed, "problems": problems, "digests": first,
    }
    finish(run, result, metrics, lines)


def freeze(args) -> None:
    """Rewrite the workload's reference.json entry from traced pipelines."""
    entry = {}
    for offset in range(SEED_CYCLE):
        run = Run(args.workload, offset, "freeze")
        run.setup()
        _, invs = run.pipeline(traced=True)
        first, problems = check_all(run, None)
        if problems:
            raise BenchError(f"config seed {run.cseed}: " + "; ".join(problems))
        entry[str(run.cseed)] = {
            "summary": {i.sub: summary(i.sub, i.out_dir) for i in invs},
            "digests": first,
            "counts": analyse(invs)["counts"],
        }
        shutil.rmtree(run.dir, ignore_errors=True)
        print(f"froze {args.workload} config seed {run.cseed}")
    ref = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            ref = json.load(fh)
    ref[args.workload] = entry
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--falsify", action="store_true")
    parser.add_argument("--freeze", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sgldlab", "cli.py")):
        print(f"perfbench: no sgldlab sources under {SRC}; run it from the "
              "root of a checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    os.makedirs(OUT, exist_ok=True)
    try:
        if args.freeze:
            freeze(args)
            return 0
        run = Run(args.workload, args.seed, f"t{args.trace}", args.falsify)
        (bench_traced if args.trace else bench_untraced)(args, run)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
