"""Child-side half of the sgldlab benchmark; run.py starts it, never a user.

Three modes, all run with the checkout's `src` on PYTHONPATH:

    probe.py setup CONFIG
        import sgldlab.cli and load and validate CONFIG, then print the
        numpy version and the defaulted config as one JSON line. run.py
        times the whole process as set-up time.

    probe.py trace SPANS_OUT SPAWN_NS -- <sgldlab cli arguments>
        run one CLI subcommand in this process with every sgldlab public
        function the CLI calls wrapped in a span. Spans are kept in memory
        as [name, parent, start_ns, end_ns] (parent -1 is the subcommand's
        process) and written to SPANS_OUT with the work counters on exit.
        SPAWN_NS is run.py's CLOCK_MONOTONIC reading just before it
        started this process, so start-up shows as the span cli.startup.

    probe.py layers SPEC OUT
        per-call microbenchmarks and the stability-engine estimate for the
        workload in SPEC (written by run.py); results go to OUT as JSON.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

CLOCK = time.monotonic_ns  # CLOCK_MONOTONIC: comparable across processes


def _setup(config_path: str) -> int:
    import numpy
    import sgldlab.cli

    cfg = sgldlab.cli.load_config(config_path)
    print(json.dumps({"numpy": numpy.__version__, "config": cfg.blocks}))
    return 0


# ----------------------------------------------------------------- tracing


class Recorder:
    """In-memory span list plus the work counters read at layer boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = [-1]
        self.counts: dict[str, int] = {}

    def add(self, name: str, start: int, end: int) -> None:
        self.spans.append([name, self.stack[-1], start, end])

    def count(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(value)

    def wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            span = [name, self.stack[-1], CLOCK(), None]
            self.spans.append(span)
            self.stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = CLOCK()
                self.stack.pop()
            if after is not None:
                after(self, result, fn, args, kwargs)
            return result

        return traced


def _arg(fn, args, kwargs, name: str):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _count_grad(rec, result, fn, args, kwargs):
    # hot path: (self, W, Zb) positionally, as every caller passes them
    Zb = args[2] if len(args) > 2 else kwargs["Zb"]
    rec.count("grad_evals", Zb.shape[0] * Zb.shape[1])


def _count_ensemble(rec, traces, fn, args, kwargs):
    rec.count("chain_steps", sum(tr.config.T for tr in traces))
    rec.count("noise_variates", sum(tr.noise_variates for tr in traces))
    rec.count("stored_states", traces[0].states.shape[0])


def _count_stability(rec, result, fn, args, kwargs):
    rec.count("chain_steps", _arg(fn, args, kwargs, "n_pairs")
              * _arg(fn, args, kwargs, "config").T)


def _count_gap(rec, result, fn, args, kwargs):
    rec.count("chain_steps", _arg(fn, args, kwargs, "n_trials")
              * _arg(fn, args, kwargs, "config").T)


def _count_pairs(rec, result, fn, args, kwargs):
    rec.count("oracle_dataset_pairs", _arg(fn, args, kwargs, "n_dataset_pairs"))


def _count_certify(rec, result, fn, args, kwargs):
    rec.count("certify_samples", _arg(fn, args, kwargs, "n_samples"))


def _count_fp(rec, result, fn, args, kwargs):
    rec.count("fp_steps", 1)


AFTER = {
    "sgld.run_ensemble": _count_ensemble,
    "estimators.grad_stability_trace": _count_stability,
    "estimators.empirical_gen_gap": _count_gap,
    "oracle.oracle_mi_upper": _count_pairs,
    "losses.certify": _count_certify,
}


def instrument(rec: Recorder) -> None:
    """Wrap, in the namespaces they are called from, the layer entry points."""
    from sgldlab import cli, fokker_planck, losses, oracle, sgld

    def layer_name(fn) -> str:
        return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"

    # every sgldlab function the CLI module calls, plus its own load_config
    for attr, obj in list(vars(cli).items()):
        if (inspect.isfunction(obj) and obj.__module__.startswith("sgldlab.")
                and obj.__module__ != "sgldlab.cli"):
            name = layer_name(obj)
            setattr(cli, attr, rec.wrap(name, obj, AFTER.get(name)))
    cli.load_config = rec.wrap("cli.load_config", cli.load_config)
    fokker_planck.fp_step = rec.wrap("fokker_planck.fp_step",
                                     fokker_planck.fp_step, _count_fp)
    # methods reached through model objects and result objects
    for cls in (losses.LossModel, *losses.LossModel.__subclasses__()):
        for meth in ("grad_minibatch", "sample_data"):
            if meth in vars(cls):
                setattr(cls, meth, rec.wrap(
                    f"losses.{cls.__name__}.{meth}", vars(cls)[meth],
                    _count_grad if meth == "grad_minibatch" else None))
    for cls in (sgld.ChainTrace, oracle.OracleTrace, fokker_planck.FPPairRun):
        module = cls.__module__.rpartition(".")[2]
        cls.to_csv = rec.wrap(f"{module}.{cls.__name__}.to_csv", cls.to_csv)


def _trace(spans_out: str, spawn_ns: int, argv: list[str]) -> int:
    rec = Recorder()
    import sgldlab.cli

    rec.add("cli.startup", spawn_ns, CLOCK())
    instrument(rec)
    try:
        code = sgldlab.cli.main(argv)
    finally:
        with open(spans_out, "w") as fh:
            json.dump({"spans": rec.spans, "counts": rec.counts}, fh)
    return code


# ---------------------------------------------------------- microbenchmarks


def _percentiles(samples_ns: list[int], scale: float) -> dict:
    xs = sorted(samples_ns)
    p90 = xs[min(len(xs) - 1, int(0.9 * len(xs)))]
    return {"p50": xs[len(xs) // 2] / scale, "p90": p90 / scale,
            "n": len(xs)}


def _time_calls(fn, calls: int, warmup: int, scale: float) -> dict:
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(calls):
        t0 = CLOCK()
        fn()
        samples.append(CLOCK() - t0)
    return _percentiles(samples, scale)


def _layers(spec_path: str, out_path: str) -> int:
    import numpy as np
    from sgldlab import cli, fokker_planck, losses, sgld

    with open(spec_path) as fh:
        spec = json.load(fh)
    calls = spec["calls"]
    out = {}
    rng = np.random.default_rng(spec["seed"])
    us = 1e3

    # gradient kernels of every family, each at its own workload's shape
    for family, shape in spec["kernels"].items():
        model = cli.load_config(shape["config"]).model()
        c, k, n = spec["chains"], shape["k"], shape["n"]
        data = model.sample_data(rng, n)
        W = rng.standard_normal((c, model.d))
        idx = np.stack([rng.permutation(n)[:k] for _ in range(c)])
        Zk = data[idx]
        Zn = np.broadcast_to(data, (c, n, model.z_dim))
        out[f"grad_minibatch_us.{family}.k"] = _time_calls(
            lambda: model.grad_minibatch(W, Zk), calls, 20, us)
        out[f"grad_minibatch_us.{family}.n"] = _time_calls(
            lambda: model.grad_minibatch(W, Zn), calls, 20, us)

    cfg = cli.load_config(spec["config"])
    model = cfg.model()
    qmodel = cli.load_config(spec["sample_data"]["config"]).model()
    out["sample_data_us"] = _time_calls(
        lambda: qmodel.sample_data(rng, spec["sample_data"]["n"]), calls, 20, us)
    out["certify_s"] = _time_calls(
        lambda: losses.certify(model, n_samples=spec["certify"]["samples"],
                               rng_seed=1),
        spec["certify"]["calls"], 1, 1e9)

    # fp_step on the grids and time steps cmd_verify builds
    lc = model.constants()
    fp, beta = cfg["fp"], cfg["sgld"]["beta"]
    R_fp = lc.R if lc.R is not None else lc.m
    hw = fp["halfwidth"] or fokker_planck.suggested_halfwidth(beta, lc.m)
    for label, n_cells in (("coarse", fp["n_cells"]), ("fine", 2 * fp["n_cells"])):
        grid = fokker_planck.Grid1D(-hw, hw, n_cells)
        g = R_fp * (grid.centers - fp["center_gap"] / 2.0)
        dt = fp["dt_safety"] * grid.h**2 / (2.0 / beta + grid.h * float(np.abs(g).max()))
        rho = fokker_planck.gibbs_density(grid, (grid.centers - 1.0) ** 2, 1.0)
        out[f"fp_step_us.{label}"] = _time_calls(
            lambda: fokker_planck.fp_step(rho, g, beta, dt), calls, 20, us)

    # the stability estimator's chain engine: n_pairs single-chain datasets
    # advanced in lockstep, the shape grad_stability_trace runs internally
    sgld_cfg = cfg.sgld_config()
    t0 = CLOCK()
    sgld.run_ensemble(sgld_cfg, model, n_chains=1,
                      n_datasets=cfg["estimators"]["n_pairs"])
    out["stability_engine_s"] = (CLOCK() - t0) / 1e9

    with open(out_path, "w") as fh:
        json.dump(out, fh)
    return 0


def main(argv: list[str]) -> int:
    mode = argv[0] if argv else ""
    if mode == "setup" and len(argv) == 2:
        return _setup(argv[1])
    if mode == "trace" and len(argv) >= 4 and argv[3] == "--":
        return _trace(argv[1], int(argv[2]), argv[4:])
    if mode == "layers" and len(argv) == 3:
        return _layers(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
