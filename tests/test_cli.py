"""End-to-end exercises of the command-line entry point."""

import csv
import dataclasses
import importlib.util
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from sgldlab import cli, config, estimators, oracle, sgld
from sgldlab.bounds import bound_xu_raginsky, evaluate_grid, kl_chain
from sgldlab.cli import ConfigError, load_config, main
from sgldlab.estimators import (NotFinite, grad_variance_trace, stability_block,
                                stability_chains, write_estimates_csv)
from sgldlab.fokker_planck import check_dt

from reference import (SERIES, collect, empirical_gen_gap, ensemble, grad_stability_trace,
                       oracle_mi_upper)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BASE = {
    "loss": {"family": "quadratic", "R": 1.0, "d": 2},
    "sgld": {"eta": 0.05, "beta": 4.0, "k": 5, "T": 60, "s_sq": 1.0, "seed": 77},
    "data": {"n": 20},
    "bounds": {"sigma_g_sq": 0.25},
    "estimators": {"n_trials": 4, "n_chains": 6, "n_resamples": 40, "n_pairs": 6},
}
# BASE at k = n; it sets no n_resamples, which only the variance estimate at
# k < n reads
FULL_BATCH = {**BASE, "sgld": {**BASE["sgld"], "k": 20},
              "estimators": {"n_trials": 4, "n_chains": 6, "n_pairs": 6}}


def merged(base=BASE, **over):
    """A copy of the config `base`, each block updated by its `over` entry."""
    cfg = {block: dict(vals) for block, vals in base.items()}
    for block, vals in over.items():
        cfg.setdefault(block, {}).update(vals)
    return cfg


def write_config(path, base=BASE, **over):
    with open(path, "w") as fh:
        json.dump(merged(base, **over), fh)
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


# ------------------------------------------------------------------- certify


def test_certify_default_quadratic_exits_zero(tmp_path):
    cfg = write_config(tmp_path / "c.json",
                       loss={"certify_samples": 2000})
    rc = main(["certify", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    report = read_json(tmp_path / "out" / "certify_report.json")
    assert report["passed"] is True


def test_certify_wrong_claimed_smoothness_exits_two_with_witness(tmp_path):
    cfg = write_config(tmp_path / "c.json",
                       loss={"claimed": {"M": 0.5, "R": None},
                             "certify_samples": 2000})
    rc = main(["certify", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    report = read_json(tmp_path / "out" / "certify_report.json")
    assert report["passed"] is False
    bad = [c for c in report["checks"] if c["n_violations"] > 0]
    assert any(c["inequality_name"] == "smoothness" for c in bad)
    # every violated check carries the worst margin plus the sampled point
    assert all("margin" in c["witness"] and len(c["witness"]) >= 2 for c in bad)


def test_certify_malformed_config_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{this is not json")
    rc = main(["certify", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "JSON" in capsys.readouterr().err


@pytest.mark.parametrize("sub", ["certify", "run", "bounds", "verify"])
@pytest.mark.parametrize("text", [
    # an integer of more digits than int() converts from a string
    json.dumps(BASE).replace('"T": 60', '"T": ' + "1" * 5000).encode(),
    json.dumps(BASE).encode() + b" \xff",  # not UTF-8 text
], ids=["long-int", "non-utf8"])
def test_unreadable_config_exits_one_before_any_output(tmp_path, capsys, sub, text):
    path = tmp_path / "c.json"
    path.write_bytes(text)
    out = tmp_path / "out"
    argv = [sub, "--config", str(path), "--out", str(out)]
    if sub == "bounds":
        argv += ["--traces", str(tmp_path)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


# ------------------------------------------------------------- config schema


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "c.json"
    # oops was never a key; the others were accepted and never read
    for block, key in (("loss", "oops"), ("sgld", "strict_mode"),
                       ("data", "radius"), ("data", "test_pool_factor")):
        with open(path, "w") as fh:
            json.dump({**BASE, block: {**BASE[block], key: 1}}, fh)
        with pytest.raises(ConfigError, match=key):
            load_config(path)


def test_unknown_lsi_mode_rejected(tmp_path):
    path = write_config(tmp_path / "c.json", bounds={"lsi_mode": "strongly-convex"})
    with pytest.raises(ConfigError, match="bounds.lsi_mode"):
        load_config(path)


@pytest.mark.parametrize("loss, key", [
    ({"family": "nonconvex_ridge", "R": 7.0, "lam": 1.0, "a": 0.5}, "R"),
    ({"family": "quadratic", "lam": 1.0}, "lam"),
    ({"family": "quadratic", "a": 0.5}, "a"),
    ({"family": "logistic_ridge", "R": None, "lam": 1.0, "a": 0.5}, "a"),
])
def test_family_parameter_it_does_not_take_exits_one(tmp_path, capsys, loss, key):
    cfg = write_config(tmp_path / "c.json", loss=loss)
    out = tmp_path / "out"
    assert main(["certify", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: loss.{key}: ")
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("R", -1.0), ("data_radius", 0.0),
                                        ("d", 0)])
def test_family_constructor_refusal_exits_one(run_and_bounds, tmp_path, capsys,
                                              key, value):
    # the constructor's own rule, reported as a config error by every
    # subcommand before any output opens
    cfg = write_config(tmp_path / "c.json", loss={key: value})
    for sub in ("certify", "run", "bounds", "verify"):
        out = tmp_path / sub
        argv = [sub, "--config", cfg, "--out", str(out)]
        if sub == "bounds":
            argv += ["--traces", str(run_and_bounds / "run")]
        assert main(argv) == 1, sub
        assert capsys.readouterr().err.startswith(f"config error: loss: {key} ")
        assert not out.exists()


@pytest.mark.parametrize("sub", ["certify", "run", "bounds", "verify"])
@pytest.mark.parametrize("over, refused", [
    # finite values whose derived constants leave the float range
    pytest.param({"loss": {"data_radius": 1e300}}, "loss: b ",  # (R/2) r^2
                 id="data_radius=1e300"),
    pytest.param({"loss": {"family": "nonconvex_ridge", "R": None, "lam": 1.0,
                           "a": 1e300}}, "loss: b ",  # a^2 r^2 / (2 lam)
                 id="nonconvex-a=1e300"),
    pytest.param({"sgld": {"s_sq": 1e300}}, "bounds.universal_C_moment: ",
                 id="s_sq=1e300"),  # 4 e^2 C5^2
    pytest.param({"sgld": {"beta": 1e-300}}, "bounds.universal_C_moment: ",
                 id="beta=1e-300"),
    # values a subcommand's consumer refuses
    pytest.param({"loss": {"certify_samples": 0}}, "loss.certify_samples: ",
                 id="certify_samples=0"),
    pytest.param({"loss": {"certify_samples": -5}}, "loss.certify_samples: ",
                 id="certify_samples=-5"),
    pytest.param({"bounds": {"farghly_C1": 0.0}}, "bounds.farghly_C1: ",
                 id="farghly_C1=0"),
    pytest.param({"bounds": {"farghly_C2": -1.0}}, "bounds.farghly_C2: ",
                 id="farghly_C2=-1"),
    pytest.param({"verify": {"oracle_T": 0}}, "verify.oracle_T: ",
                 id="oracle_T=0"),  # a KL trace of no step
    # the general dissipative route reads universal_C_lsi, so no other rule
    # refuses its 0
    pytest.param({"loss": {"family": "nonconvex_ridge", "R": None, "lam": 1.0, "a": 0.5},
                  "bounds": {"universal_C_lsi": 0.0}},
                 "bounds.universal_C_lsi: universal_C must be positive, got 0.0\n",
                 id="nonconvex-universal_C_lsi=0"),
])
def test_value_refused_at_load_by_every_subcommand(run_and_bounds, tmp_path, capsys,
                                                    sub, over, refused):
    # each ends in one config error line before any output opens, not in a
    # traceback, nor in a check of nothing
    cfg = write_config(tmp_path / "c.json", **over)
    out = tmp_path / "out"
    argv = [sub, "--config", cfg, "--out", str(out)]
    if sub == "bounds":
        argv += ["--traces", str(run_and_bounds / "run")]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"config error: {refused}")
    assert not out.exists()


def test_non_finite_number_refused_naming_its_key(tmp_path):
    # JSON's NaN and Infinity parse as floats; every float key refuses them
    float_keys = [(block, key) for block, schema in config._SCHEMAS.items()
                  for key, (_, expected, _rule) in schema.items() if expected is float]
    assert ("fp", "center_gap") in float_keys and ("fp", "T_end") in float_keys
    path = tmp_path / "c.json"
    for block, key in float_keys:
        for value in (float("nan"), float("inf"), float("-inf")):
            write_config(path, **{block: {key: value}})
            with pytest.raises(ConfigError,
                               match=rf"^{block}\.{key}: expected a finite number"):
                load_config(path)


# one refused value per schema key with a rule of its own, and one per rule
# of a bounds list (an unknown or non-integer entry, empty, repeated)
REFUSED_BY_RULE = {
    ("bounds", "which"): (["nope"], [], ["pensia", "pensia"]),
    ("bounds", "sigma_g_sq"): (0.0, -1.0),
    ("bounds", "farghly_C1"): (0.0,),
    ("bounds", "farghly_C2"): (-1.0,),
    ("bounds", "lsi_mode"): ("nope",),
    ("bounds", "universal_C_lsi"): (0.0, -1.0),
    ("bounds", "universal_C_moment"): (0.0, -1.0),
    ("bounds", "T_grid"): ([1.5], [], [4, 4]),
    ("bounds", "n_grid"): (["x"], [], [10, 10]),
    ("estimators", "n_trials"): (1,),
    ("estimators", "n_chains"): (0,),
    ("estimators", "n_resamples"): (1,),
    ("estimators", "n_pairs"): (0,),
    ("estimators", "mi_pairs"): (0,),
    ("estimators", "p_list"): ([3], [], [2, None], [2.0]),
    ("estimators", "lambda_grid"): ([0.1, [1]], [None]),
    ("estimators", "eval_loss"): ("nope",),
    ("loss", "d"): (10**30,),
    ("loss", "certify_samples"): (0, -5),
    ("sgld", "k"): (2**63,),
    ("sgld", "T"): (2**63 - 1,),
    ("data", "n"): (10**30,),
}


def test_every_schema_rule_refuses_naming_its_key():
    ruled = {(block, key) for block, schema in config._SCHEMAS.items()
             for key, (_, _, rule) in schema.items() if rule is not None}
    assert ruled == set(REFUSED_BY_RULE)
    for (block, key), values in REFUSED_BY_RULE.items():
        for value in values:
            raw = {name: dict(vals) for name, vals in BASE.items()}
            raw.setdefault(block, {})[key] = value
            with pytest.raises(ConfigError) as refused:
                config.parse(raw)
            assert str(refused.value).startswith(f"{block}.{key}: "), (value, refused.value)


def test_parse_of_a_dict_equals_load_config_of_its_file(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(REPO, "perfbench", "run.py"))
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    for workload in ("logistic-probe", "quadratic-fullbatch", "nonconvex-wide"):
        raw = bench.make_config(workload, 7)
        path = tmp_path / f"{workload}.json"
        path.write_text(json.dumps(raw))
        assert config.parse(raw).blocks == load_config(path).blocks


def test_unknown_block_rejected(tmp_path):
    path = tmp_path / "c.json"
    for block in ("mystery", "output"):
        with open(path, "w") as fh:
            json.dump({**BASE, block: {}}, fh)
        with pytest.raises(ConfigError, match=block):
            load_config(path)


def test_missing_required_key_rejected(tmp_path):
    path = tmp_path / "c.json"
    broken = {block: dict(v) for block, v in BASE.items()}
    del broken["sgld"]["eta"]
    with open(path, "w") as fh:
        json.dump(broken, fh)
    with pytest.raises(ConfigError, match="sgld.eta"):
        load_config(path)


def test_defaults_echoed(tmp_path):
    cfg = load_config(write_config(tmp_path / "c.json"))
    assert cfg["estimators"]["p_list"] == [2, 4]
    assert cfg["fp"]["n_cells"] == 256


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main(["frobnicate"]) == 1
    assert main(["run"]) == 1  # --config and --out are required
    assert main([]) == 1
    # flags that were accepted and never read (bounds with its required --traces)
    for argv in (["certify", "--allow-unsafe"], ["bounds", "--allow-unsafe", "--traces", "t"],
                 ["verify", "--allow-unsafe"], ["run", "--threads", "2"],
                 ["compare", "r", "--seed", "1"]):
        capsys.readouterr()
        assert main(argv + ["--config", "c.json", "--out", str(tmp_path)]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err


def test_bad_seed_rejected_cleanly(run_and_bounds, tmp_path, capsys):
    # SGLDConfig's 64-bit rule, before any output directory opens; verify
    # also refuses it on a family whose verify builds no SGLDConfig
    quad = write_config(tmp_path / "quad.json")
    nonconvex = write_config(tmp_path / "nonconvex.json", loss={
        "family": "nonconvex_ridge", "R": None, "lam": 1.0, "a": 0.5, "d": 2})
    cases = [(sub, quad) for sub in ("certify", "run", "bounds", "verify")]
    for sub, cfg in cases + [("verify", nonconvex)]:
        for seed in (-3, 2**64):
            out = tmp_path / f"{sub}-{seed}"
            argv = [sub, "--config", cfg, "--seed", str(seed), "--out", str(out)]
            if sub == "bounds":
                argv += ["--traces", str(run_and_bounds / "run")]
            assert main(argv) == 1, (sub, cfg, seed)
            assert capsys.readouterr().err.startswith("config error: --seed: ")
            assert not out.exists()


@pytest.fixture(scope="module")
def full_batch_run(tmp_path_factory):
    # traces of the k = n chain the bad-value rows run with, so that a bounds
    # value load fails to refuse meets its own error, not one of --traces
    base = tmp_path_factory.mktemp("full_batch")
    cfg = write_config(base / "c.json", FULL_BATCH)
    assert main(["run", "--config", cfg, "--out", str(base / "run")]) == 0
    return base / "run"


@pytest.mark.parametrize("sub, block, key, value", [
    ("bounds", "bounds", "n_grid", [20, 0]),
    ("bounds", "bounds", "n_grid", ["x"]),
    ("bounds", "bounds", "T_grid", [0, 10.0]),
    ("run", "estimators", "p_list", [2, 3]),
    ("run", "estimators", "eval_loss", "nope"),
    ("run", "estimators", "lambda_grid", [-0.5, 100.0]),
    ("run", "estimators", "n_chains", 0),
    ("run", "estimators", "n_pairs", 0),
    ("run", "estimators", "n_trials", 1),
    ("run", "estimators", "n_resamples", 1),
    ("bounds", "estimators", "mi_pairs", 0),
    ("verify", "fp", "n_cells", 10),
    ("verify", "verify", "oracle_T", -1),
    ("verify", "fp", "dt_safety", -1.0),
    ("verify", "fp", "dt_safety", 5.0),
    ("bounds", "bounds", "T_grid", [60, 60, 0]),
    ("bounds", "bounds", "n_grid", [20, 10, 20]),
    ("bounds", "bounds", "which", ["pensia", "time_independent", "pensia"]),
    ("bounds", "bounds", "T_grid", []),
    ("bounds", "bounds", "n_grid", []),
    ("bounds", "bounds", "which", []),
    ("bounds", "bounds", "universal_C_lsi", 5.0),
    ("run", "bounds", "universal_C_moment", -1.0),
    ("verify", "fp", "T_end", -1.0),
    ("verify", "fp", "T_end", 0.0),
    ("verify", "fp", "T_end", float("nan")),
    ("verify", "fp", "T_end", float("inf")),
    ("run", "bounds", "universal_C_moment", float("inf")),
    ("bounds", "bounds", "sigma_g_sq", float("nan")),
    ("bounds", "bounds", "sigma_g_sq", -0.25),
    ("bounds", "bounds", "farghly_C1", float("inf")),
    ("verify", "fp", "center_gap", float("nan")),
    ("verify", "fp", "halfwidth", float("inf")),
    ("verify", "fp", "T_end", 1e308),  # finite, but T_end / dt is not
    ("verify", "fp", "T_end", 1e30),  # finite steps, but no array holds them
    ("run", "loss", "claimed", {"data_radius": 3.0}),  # would move the data
    ("run", "loss", "claimed", {"sigma_g_sq": 0.5}),  # read by nothing
    ("run", "bounds", "parametrix", {"C1_prime": -1.0}),
    ("run", "bounds", "parametrix", {"nope": 1.0}),
    ("run", "sgld", "eta", 10**400),  # an integer beyond the float range
    ("run", "estimators", "p_list", [2, None]),
    ("run", "estimators", "lambda_grid", [-0.5, [1]]),
    ("run", "sgld", "T", 10**30),  # no array has T + 1 entries
    ("run", "loss", "d", 10**30),
    ("run", "bounds", "T_grid", [0, 61]),  # a step the run of T = 60 never stores
])
def test_bad_value_exits_one_before_any_output(full_batch_run, tmp_path, capsys,
                                               sub, block, key, value):
    cfg = write_config(tmp_path / "c.json", FULL_BATCH, **{block: {key: value}})
    out = tmp_path / "out"
    argv = [sub, "--config", cfg, "--out", str(out)]
    if sub == "bounds":
        argv += ["--traces", str(full_batch_run)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"config error: {block}")
    assert not out.exists()


def test_loss_whose_M_squared_underflows_is_refused_by_admissibility(tmp_path, capsys):
    # R = 1e-300: M^2 underflows to 0 in the step-size cap m/(5 M^2); beta
    # >= 2/m = 4e300 is what fails
    cfg = write_config(tmp_path / "c.json", loss={"R": 1e-300})
    assert load_config(cfg).derived().startswith("derived-constants-unavailable: ")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("run refused: parameter ranges outside the certified regime")
    assert "beta >= 2/m violated" in err and not out.exists()


@pytest.mark.parametrize("key, value", [("halfwidth", 1e-300), ("dt_safety", 0.0)])
def test_vanishing_fp_time_step_is_a_config_error(tmp_path, capsys, key, value):
    # h^2 underflows at halfwidth 1e-300, so the stability limit and dt are
    # 0; fp.T_end / dt would divide by it on every subcommand
    cfg = write_config(tmp_path / "c.json", fp={key: value})
    out = tmp_path / "out"
    assert main(["certify", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: fp.{key}: ")
    assert not out.exists()


def test_load_of_a_huge_fokker_planck_grid_allocates_no_grid():
    # 2 10^6 coarse cells: each of the fine grid's centers and gradients
    # would be 32 MB, and load reads its dt and step count from end cells
    raw = {blk: dict(vals) for blk, vals in BASE.items()}
    raw["fp"] = {"n_cells": 2 * 10**6, "T_end": 1e-300}
    config.parse(raw)  # first-call allocations out of the peak
    tracemalloc.start()
    try:
        config.parse(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_end_cell_fp_plan_equals_the_whole_grids():
    # seeded fp blocks, betas and curvatures over a span that reaches every
    # refusal: the plan from the grids' end cells refuses what the whole
    # grids refuse, with the same message, and else gives the same grids,
    # dt and step counts, bit for bit; every dt it admits passes `check_dt`
    # on the whole gradients
    def plan(cfg, lc, ends_only):
        try:
            runs = config._verify_fp_runs(cfg, lc, ends_only=ends_only)
        except (ConfigError, ValueError) as exc:
            return type(exc), str(exc)
        return runs

    rng = np.random.default_rng(34)
    cfg = config.parse({blk: dict(vals) for blk, vals in BASE.items()})
    outcomes = []
    for _ in range(400):
        cfg["sgld"]["beta"] = float(10 ** rng.uniform(-2, 4))
        span = 300 if rng.random() < 0.1 else 3  # now and then past the float range
        cfg["fp"].update(
            n_cells=int(10 ** rng.uniform(1.9, 3.7)),
            halfwidth=None if rng.random() < 0.3 else float(10 ** rng.uniform(-span, span)),
            dt_safety=float(rng.uniform(-0.1, 1.5)),
            T_end=float(10 ** rng.uniform(-8, 1)),
            center_gap=float(rng.choice([-1, 1]) * 10 ** rng.uniform(-3, span + 1)))
        m = float(10 ** rng.uniform(-3, 3))
        lc = SimpleNamespace(m=m, R=None if rng.random() < 0.3 else m * rng.uniform(1, 4))
        ends, whole = plan(cfg, lc, True), plan(cfg, lc, False)
        if isinstance(whole, tuple):  # load reports a ValueError against fp
            assert ends == whole
            kind, message = whole
            outcomes.append(message.partition(":")[0] if kind is ConfigError else "fp")
            continue
        assert isinstance(ends, list), ends
        for (label, grid, gs, ga, dt, n_steps), end_run in zip(whole, ends, strict=True):
            assert end_run[:2] == (label, grid) and end_run[4:] == (dt, n_steps)
            for grad, end_grad in zip((gs, ga), end_run[2:4]):
                assert np.array_equal(grad[[0, -1]], end_grad)
                check_dt(grid, grad, cfg["sgld"]["beta"], dt)
        outcomes.append("admitted")
    assert set(outcomes) == {"admitted", "fp", "fp.dt_safety", "fp.halfwidth"}, outcomes


# ----------------------------------------------------------------------- run

RUN_CSVS = ("chain_000.csv", "moments.csv", "variance.csv", "stability.csv",
            "gap.csv", "logmgf.csv")


def test_run_byte_identical_reruns(tmp_path):
    cfg = write_config(tmp_path / "c.json")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    for name in RUN_CSVS:
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


def test_run_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path / "c.json")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "a"),
                 "--seed", "123"]) == 0
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    assert ((tmp_path / "a" / "chain_000.csv").read_bytes()
            != (tmp_path / "b" / "chain_000.csv").read_bytes())
    assert read_json(tmp_path / "a" / "manifest.json")["seed"] == 123


@pytest.mark.parametrize("sub", ["certify", "run", "bounds", "verify"])
def test_seed_flag_is_written_into_the_manifest_config(run_and_bounds, tmp_path, sub):
    # --seed 3 on a seed-77 config describes the run as the seed-3 config does
    flagged = write_config(tmp_path / "flagged.json")
    direct = write_config(tmp_path / "direct.json", sgld={"seed": 3})
    extra = ["--traces", str(run_and_bounds / "run")] if sub == "bounds" else []
    assert main([sub, "--config", flagged, "--seed", "3", "--out",
                 str(tmp_path / "a")] + extra) == 0
    assert main([sub, "--config", direct, "--out", str(tmp_path / "b")] + extra) == 0
    a, b = (read_json(tmp_path / out / "manifest.json") for out in "ab")
    assert a["seed"] == a["config"]["sgld"]["seed"] == 3
    assert (a["config"], a["config_hash"]) == (b["config"], b["config_hash"])


def test_run_T_zero_single_row(tmp_path):
    cfg = write_config(tmp_path / "c.json", sgld={"T": 0})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    _, rows = read_csv_rows(tmp_path / "out" / "chain_000.csv")
    assert len(rows) == 1
    _, moments = read_csv_rows(tmp_path / "out" / "moments.csv")
    assert len(moments) == 1 and moments[0][0] == "0"


def test_run_first_chain_invariant_to_ensemble_width(tmp_path):
    cfg1 = write_config(tmp_path / "c1.json", estimators={"n_chains": 1})
    cfg8 = write_config(tmp_path / "c8.json", estimators={"n_chains": 8})
    assert main(["run", "--config", cfg1, "--out", str(tmp_path / "a")]) == 0
    assert main(["run", "--config", cfg8, "--out", str(tmp_path / "b")]) == 0
    assert ((tmp_path / "a" / "chain_000.csv").read_bytes()
            == (tmp_path / "b" / "chain_000.csv").read_bytes())


def test_run_strict_failures_refused_then_allowed(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json",
                       sgld={"eta": 0.9, "beta": 0.5, "T": 20})
    rc = main(["run", "--config", cfg, "--out", str(tmp_path / "refused")])
    assert rc == 2
    assert "allow-unsafe" in capsys.readouterr().err
    assert not (tmp_path / "refused" / "manifest.json").exists()

    rc = main(["run", "--config", cfg, "--out", str(tmp_path / "forced"),
               "--allow-unsafe"])
    assert rc == 0
    manifest = read_json(tmp_path / "forced" / "manifest.json")
    failures = manifest["preconditions"]["strict_mode_failures"]
    assert len(failures) >= 2 and any("beta" in f for f in failures)


def test_run_refuses_at_the_c_ls_bounds_uses(tmp_path, capsys):
    # universal_C_lsi enters the general dissipative c_LS that bounds uses:
    # at C = 1e-300 the horizon 4 beta c_LS is 1098.67, below eta, and at the
    # default C it is 7.7e15
    horizon = "eta < 4 beta c_LS violated: eta=2000.0 >= 1098.66"
    for C, refused in ((1e-300, True), (1.0, False)):
        cfg = write_config(tmp_path / "c.json",
                           loss={"family": "nonconvex_ridge", "R": None, "lam": 1.0,
                                 "a": 0.5},
                           sgld={"eta": 2000.0, "T": 20}, bounds={"universal_C_lsi": C})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert (horizon in capsys.readouterr().err) is refused
        assert not (tmp_path / "r").exists()


# nonconvex at beta = 1e8: the general dissipative c_LS's exponential overflows
OVERFLOWING_C_LS = {"loss": {"family": "nonconvex_ridge", "R": None, "lam": 1.0,
                             "a": 0.5},
                    "sgld": {"eta": 0.01, "beta": 1e8, "T": 20}}


def test_run_refuses_an_overflowing_c_ls_then_allows_it(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", **OVERFLOWING_C_LS)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[1:] == ["  - eta < 4 beta c_LS unavailable: general_dissipative mode "
                       "overflows: c_LS, with a factor exp(2.375e+08), exceeds the "
                       "float range"]
    assert not (tmp_path / "r").exists()
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "f"),
                 "--allow-unsafe"]) == 0
    failures = read_json(tmp_path / "f" / "manifest.json")[
        "preconditions"]["strict_mode_failures"]
    assert failures == [err[1][len("  - "):]]


def test_bounds_flags_an_overflowing_c_ls(tmp_path):
    cfg = write_config(tmp_path / "c.json", **OVERFLOWING_C_LS)
    rows = run_then_bounds(tmp_path, cfg, allow_unsafe=True)
    chain = [r for r in rows
             if r[0] in ("time_independent", "subexp_gen", "excess_risk")]
    assert chain and all(
        r[1] == "" and r[6].startswith("derived-constants-unavailable: general_"
                                       "dissipative mode overflows") for r in chain)


def test_universal_c_lsi_accepted_where_the_route_reads_it(tmp_path):
    nonconvex = write_config(tmp_path / "n.json",
                             loss={"family": "nonconvex_ridge", "R": None, "lam": 1.0,
                                   "a": 0.5},
                             bounds={"universal_C_lsi": 5.0})
    quad = write_config(tmp_path / "q.json", bounds={"universal_C_lsi": 5.0,
                                                     "lsi_mode": "general_dissipative"})
    for path in (nonconvex, quad):
        assert load_config(path)["bounds"]["universal_C_lsi"] == 5.0


def test_run_checks_the_log_mgf_envelope_the_bound_uses(tmp_path):
    # on BASE the admitted cap 1/(2 nu) is 77.4 at universal_C_moment 1 and
    # 301.6 at 2, the C that subexp_gen's envelope takes
    grid = {"lambda_grid": [-100.0, 100.0]}
    cfg = write_config(tmp_path / "c.json", bounds={"universal_C_moment": 2.0},
                       estimators=grid)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
    _, rows = read_csv_rows(tmp_path / "r" / "logmgf.csv")
    assert [float(r[1]) for r in rows] == [-100.0, 100.0]
    with pytest.raises(ConfigError, match="estimators.lambda_grid"):
        load_config(write_config(tmp_path / "one.json", estimators=grid))


@pytest.mark.parametrize("C", [1.0, 2.0])
def test_run_manifest_records_the_log_mgf_envelope(tmp_path, capsys, C):
    cfg_path = write_config(tmp_path / "c.json", bounds={"universal_C_moment": C})
    out = tmp_path / "r"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
    cfg = load_config(cfg_path)
    sigma_e_sq = cli.subexp_params(cfg.model().constants(), beta=4.0, d=2, s_sq=1.0,
                                   universal_C=C)["sigma_e_sq"]
    lambdas = cfg["estimators"]["lambda_grid"]
    record = json.loads((out / "manifest.json").read_text())["checks"]["logmgf"]
    assert record == {"lambdas": lambdas, "n_violations": 0,
                      "envelope": [sigma_e_sq * lam**2 / 2.0 for lam in lambdas]}
    assert "log-MGF" not in capsys.readouterr().out


def test_run_reports_a_log_mgf_above_its_envelope(tmp_path, capsys, monkeypatch):
    real = cli.subexp_params
    monkeypatch.setattr(cli, "subexp_params", lambda *args, **kwargs: {
        **real(*args, **kwargs), "sigma_e_sq": 1e-12})
    cfg = write_config(tmp_path / "c.json")
    out = tmp_path / "r"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    record = json.loads((out / "manifest.json").read_text())["checks"]["logmgf"]
    assert 0 < record["n_violations"] <= 4
    assert (f"run: log-MGF above its envelope at {record['n_violations']} of 4 "
            f"lambdas") in capsys.readouterr().out.splitlines()
    # the envelope enters the manifest only
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "same")]) == 0
    monkeypatch.setattr(cli, "subexp_params", real)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "real")]) == 0
    assert ((tmp_path / "same" / "logmgf.csv").read_bytes()
            == (tmp_path / "real" / "logmgf.csv").read_bytes())


def test_run_refuses_uncertified_claims(tmp_path):
    cfg = write_config(tmp_path / "c.json",
                       loss={"claimed": {"M": 0.5, "R": None}},
                       sgld={"T": 20})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "f"),
                 "--allow-unsafe"]) == 0
    manifest = read_json(tmp_path / "f" / "manifest.json")
    assert manifest["preconditions"]["certified"] is False


def test_manifests_say_where_they_ran_and_run_its_peak_memory(run_and_bounds,
                                                               tmp_path):
    base = run_and_bounds
    assert main(["compare", str(base / "bounds"), "--out", str(tmp_path / "cmp")]) == 0
    cfg = write_config(tmp_path / "c.json", loss={"certify_samples": 2000})
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "cert")]) == 0
    for out in (base / "run", base / "bounds", tmp_path / "cmp", tmp_path / "cert"):
        env = read_json(out / "manifest.json")["environment"]
        assert set(env) == {"python", "numpy", "platform", "cpu_count",
                            "numpy_dispatch", "blas"}
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert env["platform"] and env["cpu_count"] == os.cpu_count()
        # what sets the last bits: each field a name, or None where unreadable
        assert set(env["numpy_dispatch"]) == {"exp", "tanh"}
        assert set(env["blas"]) == {"name", "version", "kernel"}
        for value in (*env["numpy_dispatch"].values(), *env["blas"].values()):
            assert value is None or (isinstance(value, str) and value)
    peak = read_json(base / "run" / "manifest.json")["peak_rss_mb"]
    assert set(peak) == {"run", "worker"}
    assert all(isinstance(mb, float) and mb > 0 for mb in peak.values())


def test_run_manifest_lists_every_output_file(tmp_path):
    cfg = write_config(tmp_path / "c.json")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    manifest = read_json(tmp_path / "out" / "manifest.json")
    assert manifest["status"] == "complete"
    assert manifest["wall_clock_seconds"] >= 0
    assert manifest["artifact_version"]
    assert len(manifest["config_hash"]) == 16
    on_disk = set(os.listdir(tmp_path / "out")) - {"manifest.json"}
    assert set(manifest["files"]) == on_disk
    # the full defaulted config is echoed back
    assert manifest["config"]["sgld"]["eta"] == 0.05


LOGISTIC = {"loss": {"family": "logistic_ridge", "lam": 1.0, "d": 3, "R": None}}
NONCONVEX = {"loss": {"family": "nonconvex_ridge", "lam": 1.0, "a": 0.2, "d": 3,
                      "R": None}}
# blocks of 8 stored steps in the stability evaluation, by its (8 steps,
# n = 20) margins
EIGHT_STEP_BLOCKS = 8 * BASE["data"]["n"]


# a key that only some configs read, a value other than its default, and
# (block overrides, base) of a config that does not read it and of one that does
UNREAD_KEYS = {
    "mi_pairs-logistic": ("estimators", "mi_pairs", 50,
                          (LOGISTIC, FULL_BATCH), ({}, FULL_BATCH)),
    "n_resamples-full-batch": ("estimators", "n_resamples", 50,
                               ({}, FULL_BATCH), ({}, BASE)),
    "lambda_grid-one-chain": ("estimators", "lambda_grid", [-0.1, 0.1],
                              ({"estimators": {"n_chains": 1}}, BASE), ({}, BASE)),
    "oracle_T-nonconvex": ("verify", "oracle_T", 500, (NONCONVEX, BASE), ({}, BASE)),
    "universal_C_lsi-strongly-convex": ("bounds", "universal_C_lsi", 5.0,
                                        ({}, BASE), (NONCONVEX, BASE)),
    "sigma_g_sq-no-reader": ("bounds", "sigma_g_sq", 0.5,
                             ({"bounds": {"which": ["farghly_shape"]}}, BASE), ({}, BASE)),
    "parametrix-no-kl-chain": ("bounds", "parametrix", {"C1_prime": 2.0},
                               ({"bounds": {"which": ["pensia"]}}, BASE), ({}, BASE)),
    "universal_C_moment-one-chain-no-kl-chain": (
        "bounds", "universal_C_moment", 2.0,
        ({"estimators": {"n_chains": 1}, "bounds": {"which": ["pensia"]}}, BASE), ({}, BASE)),
    "farghly_C1-full-batch": ("bounds", "farghly_C1", 2.0, ({}, FULL_BATCH), ({}, BASE)),
    "farghly_C1-not-named": ("bounds", "farghly_C1", 2.0,
                             ({"bounds": {"which": ["pensia"]}}, BASE), ({}, BASE)),
    "farghly_C2-full-batch": ("bounds", "farghly_C2", 2.0, ({}, FULL_BATCH), ({}, BASE)),
}


@pytest.mark.parametrize("block, key, value, unread, read", UNREAD_KEYS.values(),
                         ids=UNREAD_KEYS)
def test_a_key_is_read_or_refused(tmp_path, capsys, block, key, value, unread, read):
    # a value the config's code would not read is refused at load by every
    # subcommand, before any output opens; it loads where it is read, and
    # the explicit default loads on both
    def written(name, spec, given):
        over, base = spec
        return write_config(tmp_path / name, base, **merged(over, **{block: {key: given}}))

    refused = written("unread.json", unread, value)
    for sub in ("certify", "run", "bounds", "verify"):
        out = tmp_path / sub
        extra = ["--traces", str(tmp_path)] if sub == "bounds" else []
        assert main([sub, "--config", refused, "--out", str(out), *extra]) == 1, sub
        assert capsys.readouterr().err.startswith(f"config error: {block}.{key}: "), sub
        assert not out.exists()
    default = config._SCHEMAS[block][key][0]
    for spec, given in ((read, value), (unread, default), (read, default)):
        assert load_config(written("c.json", spec, given))[block][key] == given


@pytest.mark.parametrize("over, refused", [
    ({"bounds": {"universal_C_lsi": 5.0}},
     "bounds.universal_C_lsi: the strongly_convex route reads no universal C, got 5.0; "
     "leave it at 1.0 or set bounds.lsi_mode to general_dissipative"),
], ids=["universal_C_lsi"])
def test_unread_key_refusal_names_its_reader(tmp_path, over, refused):
    with pytest.raises(ConfigError) as caught:
        load_config(write_config(tmp_path / "c.json", **over))
    assert str(caught.value) == refused


def assert_stability_csv_equals_in_process_trace(tmp_path, **over):
    path = write_config(tmp_path / "c.json", **over)
    assert main(["run", "--config", path, "--out", str(tmp_path / "run")]) == 0
    cfg = load_config(path)
    est = cfg["estimators"]
    means, stderrs = grad_stability_trace(cfg.model(), cfg.sgld_config(),
                                          n_pairs=est["n_pairs"])
    # T = 60 is below the storage cap, so step t is row t
    write_estimates_csv(tmp_path / "expected.csv", "grad_stability", range(len(means)),
                        means, stderrs, est["n_pairs"])
    assert ((tmp_path / "run" / "stability.csv").read_bytes()
            == (tmp_path / "expected.csv").read_bytes())
    assert est["eval_loss"] == "surrogate"
    gap = empirical_gen_gap(cfg.model(), cfg.sgld_config(), n_trials=est["n_trials"],
                            eval_loss=est["eval_loss"])
    write_estimates_csv(tmp_path / "expected-gap.csv", "gen_gap[surrogate]",
                        [cfg["sgld"]["T"]], *gap, est["n_trials"])
    assert ((tmp_path / "run" / "gap.csv").read_bytes()
            == (tmp_path / "expected-gap.csv").read_bytes())


def test_run_stability_csv_equals_in_process_trace(tmp_path):
    assert_stability_csv_equals_in_process_trace(tmp_path)


@pytest.mark.parametrize("family", ["quadratic", "logistic", "nonconvex"])
def test_run_stability_csv_in_blocks_equals_in_process_trace(tmp_path, monkeypatch,
                                                            family):
    # T = 60: the worker evaluates 61 stored steps in blocks of 8 (the last of 5)
    monkeypatch.setattr(sgld, "BLOCK_WORDS", EIGHT_STEP_BLOCKS)
    assert_stability_csv_equals_in_process_trace(
        tmp_path, **{"logistic": LOGISTIC, "nonconvex": NONCONVEX}.get(family, {}))


@pytest.mark.parametrize("case", ["strided", "diverging"])
def test_run_stability_chunk_by_chunk_equals_the_whole_trace(tmp_path, monkeypatch,
                                                            case):
    # chunks of 16 steps over T = 61; strided: every 7th state, with T off
    # the stride; diverging: |1 - eta lam| = 2, so ||W||^2 reaches 1e37
    monkeypatch.setattr(sgld, "STEP_CHUNK", 16)
    over = {"loss": LOGISTIC["loss"], "sgld": {"T": 61}}
    if case == "strided":
        monkeypatch.setattr(sgld, "STATE_STORE_CAP", 10)
    else:
        over["sgld"]["eta"] = 3.0
    path = write_config(tmp_path / "c.json", **over)
    assert main(["run", "--config", path, "--out", str(tmp_path / "run"),
                 "--allow-unsafe"]) == 0
    manifest = read_json(tmp_path / "run" / "manifest.json")
    assert (manifest["checks"]["states"]["max_w_norm_sq"] > 1e30) == (case == "diverging")

    # every pair's trajectory held whole, then evaluated in one call
    cfg = load_config(path)
    model, sgld_cfg, n_pairs = cfg.model(), cfg.sgld_config(), cfg["estimators"]["n_pairs"]
    datasets, datasets_alt = np.empty((2, n_pairs, sgld_cfg.n, model.z_dim))
    seqs = stability_chains(model, sgld_cfg, datasets, datasets_alt)
    traces = collect(sgld_cfg, model, datasets, seqs)
    steps = sgld._stored_steps(sgld_cfg.T)
    assert len(steps) == (10 if case == "strided" else 62) and steps[-1] == 61
    means, stderrs = stability_block(model, datasets, datasets_alt,
                                     np.stack([tr.states for tr in traces], axis=1))
    write_estimates_csv(tmp_path / "whole.csv", "grad_stability", steps, means, stderrs,
                        n_pairs)
    assert ((tmp_path / "run" / "stability.csv").read_bytes()
            == (tmp_path / "whole.csv").read_bytes())


def test_run_worker_stages_make_one_chain_engine_call(tmp_path, monkeypatch):
    # the pairs' chains and the trials' chains are rows of one engine call,
    # which gives each row the bits the in-process estimators give it
    path = write_config(tmp_path / "c.json", **LOGISTIC)
    cfg = load_config(path)
    model, sgld_cfg, est = cfg.model(), cfg.sgld_config(), cfg["estimators"]
    real, calls = cli._lockstep_chunks, []

    def counting(config, model, datasets, chain_seqs, **kwargs):
        calls.append(len(chain_seqs))
        return real(config, model, datasets, chain_seqs, **kwargs)

    monkeypatch.setattr(cli, "_lockstep_chunks", counting)
    stability, gap, seconds = cli._worker_stages(model, sgld_cfg, est)
    assert set(seconds) == {"stability_s", "gap_s"} and min(seconds.values()) >= 0
    assert calls == [est["n_pairs"] + est["n_trials"]]
    want = grad_stability_trace(model, sgld_cfg, n_pairs=est["n_pairs"])
    assert [a.tolist() for a in stability] == [a.tolist() for a in want]
    want = empirical_gen_gap(model, sgld_cfg, n_trials=est["n_trials"],
                             eval_loss=est["eval_loss"])
    assert [a.tolist() for a in gap] == [a.tolist() for a in want]


def test_run_computes_stability_in_a_worker_process(tmp_path, monkeypatch):
    # a local closure, as perfbench/probe.py sets, which pickle cannot send
    real, pid_file = cli.stability_chains, tmp_path / "pid"

    def recording(*args, **kwargs):
        pid_file.write_text(str(os.getpid()))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "stability_chains", recording)
    cfg = write_config(tmp_path / "c.json")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    assert int(pid_file.read_text()) != os.getpid()


def test_run_worker_failure_reaches_the_caller(tmp_path, monkeypatch):
    def failing(*args, **kwargs):
        raise RuntimeError(f"stability failed in pid {os.getpid()}")

    monkeypatch.setattr(cli, "stability_chains", failing)
    cfg = write_config(tmp_path / "c.json")
    out = tmp_path / "run"
    with pytest.raises(RuntimeError, match="stability failed") as info:
        main(["run", "--config", cfg, "--out", str(out)])
    assert int(str(info.value).split()[-1]) != os.getpid()
    assert not (out / ".lock").exists()
    assert not (out / "stability.csv").exists()
    assert json.loads((out / "manifest.json").read_text())["status"] == "running"


def test_run_computes_the_gap_in_the_worker_process(tmp_path, monkeypatch):
    real, pid_file = cli.gen_gap, tmp_path / "pid"

    def recording(*args, **kwargs):
        pid_file.write_text(str(os.getpid()))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "gen_gap", recording)
    cfg = write_config(tmp_path / "c.json")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    assert int(pid_file.read_text()) != os.getpid()
    assert (tmp_path / "run" / "gap.csv").exists()


def test_run_gap_failure_reaches_the_caller(tmp_path, monkeypatch):
    def failing(*args, **kwargs):
        raise RuntimeError(f"gap failed in pid {os.getpid()}")

    monkeypatch.setattr(cli, "gen_gap", failing)
    cfg = write_config(tmp_path / "c.json")
    out = tmp_path / "run"
    with pytest.raises(RuntimeError, match="gap failed") as info:
        main(["run", "--config", cfg, "--out", str(out)])
    assert int(str(info.value).split()[-1]) != os.getpid()
    assert not (out / ".lock").exists()
    assert not (out / "gap.csv").exists() and not (out / "stability.csv").exists()
    assert json.loads((out / "manifest.json").read_text())["status"] == "running"


def test_run_refuses_a_non_finite_gap(tmp_path, monkeypatch, capsys):
    # only gen_gap calls _eval_losses, so the log-MGF check's own refusal,
    # on the family's eval_many, cannot fire first. The worker inherits the
    # errstate: an inf gap's stderr is inf - inf, which numpy would report
    monkeypatch.setattr(estimators, "_eval_losses",
                        lambda model, w, Z: np.full(Z.shape[0], np.inf))
    cfg = write_config(tmp_path / "c.json")
    out = tmp_path / "run"
    with np.errstate(invalid="ignore"):
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("run failed: gen_gap[surrogate]: every mean must be finite")
    assert not (out / ".lock").exists()
    assert not (out / "gap.csv").exists() and not (out / "stability.csv").exists()
    assert json.loads((out / "manifest.json").read_text())["status"] == "failed"


def test_run_refuses_a_non_finite_stability_trace(tmp_path, monkeypatch, capsys):
    # the worker looks stability_block up in cli's globals; the gap is
    # written first and stays finite, yet must not take its name either
    def inf_block(model, datasets, datasets_alt, states):
        means, stderrs = stability_block(model, datasets, datasets_alt, states)
        return np.full_like(means, np.inf), stderrs
    monkeypatch.setattr(cli, "stability_block", inf_block)
    cfg = write_config(tmp_path / "c.json")
    out = tmp_path / "run"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("run failed: grad_stability: every mean must be finite")
    assert not (out / ".lock").exists()
    assert not (out / "gap.csv").exists() and not (out / "stability.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed" and manifest["checks"]["states"]["finite"]


def test_run_logistic_artifacts_independent_of_blas_threads(tmp_path):
    # the logistic kernel's back-contraction is a BLAS call on the run path
    cfg = write_config(tmp_path / "c.json",
                       loss={"family": "logistic_ridge", "lam": 1.0, "d": 5,
                             "R": None},
                       sgld={"eta": 0.02, "k": 20, "T": 80},
                       data={"n": 2500},
                       estimators={"n_pairs": 4, "n_trials": 2, "n_chains": 4,
                                   "n_resamples": 20})
    outs = []
    for threads in ("1", None):
        env = dict(os.environ)
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        env["PYTHONPATH"] = os.path.join(REPO, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        out = tmp_path / f"threads-{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "sgldlab.cli", "run", "--config", cfg,
             "--out", str(out)], env=env, capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    names = sorted(set(os.listdir(outs[0])) - {"manifest.json"})
    assert names == sorted(set(os.listdir(outs[1])) - {"manifest.json"})
    assert "stability.csv" in names and "variance.csv" in names
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def run_cli(argv, limit_mib=None):
    """`python -m sgldlab.cli *argv` with one BLAS thread, under an address
    space of `limit_mib` MiB (RLIMIT_AS) when given."""
    import resource

    def limit():
        size = limit_mib << 20
        resource.setrlimit(resource.RLIMIT_AS, (size, size))

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.path.join(REPO, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, "-m", "sgldlab.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120,
                          preexec_fn=None if limit_mib is None else limit)


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS bounds memory on Linux")
def test_run_of_a_wide_ensemble_holds_only_the_trajectories_it_reads(tmp_path):
    # 192 chains of 2,001 states in d = 50: their trajectories would take
    # 147 MiB, and `run` reads chain 0's alone. An idle `python -m
    # sgldlab.cli` with one BLAS thread has a VmSize of 106 MiB (x86-64
    # Linux, Python 3.11, numpy 2.4), so a 224 MiB address space holds the
    # run, its (512, 192, 50) noise chunk (37.5 MiB) included, but not those
    # unread trajectories on top of it
    cfg = write_config(tmp_path / "c.json", FULL_BATCH, loss={"d": 50},
                       sgld={"k": 8, "T": 2000}, data={"n": 8},
                       estimators={"n_chains": 192, "n_pairs": 2, "n_trials": 2})
    proc = run_cli(["run", "--config", cfg, "--out", str(tmp_path / "out")], 224)
    assert proc.returncode == 0, proc.stderr
    assert read_json(tmp_path / "out" / "manifest.json")["status"] == "complete"


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS bounds memory on Linux")
def test_run_worker_holds_one_chunk_of_the_stability_pairs(tmp_path):
    # 192 pairs of 2,001 states in d = 50: their trajectories alone would
    # take 147 MiB, while the worker evaluates them one (512, 194, 50) step
    # chunk (37.9 MiB) at a time. On x86-64 Linux, Python 3.11, numpy 2.4
    # the run completes in a 160 MiB address space, and with the pairs'
    # trajectories held whole it needs over 320 MiB
    cfg = write_config(tmp_path / "c.json", FULL_BATCH, loss={"d": 50},
                       sgld={"k": 8, "T": 2000}, data={"n": 8},
                       estimators={"n_chains": 2, "n_pairs": 192, "n_trials": 2})
    proc = run_cli(["run", "--config", cfg, "--out", str(tmp_path / "out")], 224)
    assert proc.returncode == 0, proc.stderr
    assert read_json(tmp_path / "out" / "manifest.json")["status"] == "complete"


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS bounds memory on Linux")
def test_run_parent_holds_one_chunk_of_the_ensemble(tmp_path):
    # 64 full-batch chains over T = 100,000: their (64, 100,001) ||W||^2
    # alone take 48.8 MiB, while `run` sums them into one (100,001,) row a
    # 512-step chunk at a time and keeps chain 0's trace alone (five
    # (100,001,)-long series, 3.8 MiB). On x86-64 Linux, Python 3.11, numpy
    # 2.4 the run completes in a 120 MiB address space (an idle `python -m
    # sgldlab.cli` takes 106 MiB), and with the ensemble's norms held whole
    # it needs 177 MiB; 144 MiB leaves 24 MiB of headroom below that
    cfg = write_config(tmp_path / "c.json", FULL_BATCH, sgld={"T": 100_000},
                       estimators={"n_chains": 64, "n_pairs": 2, "n_trials": 2})
    proc = run_cli(["run", "--config", cfg, "--out", str(tmp_path / "out")], 144)
    assert proc.returncode == 0, proc.stderr
    assert read_json(tmp_path / "out" / "manifest.json")["status"] == "complete"


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS bounds memory on Linux")
def test_run_variance_holds_one_resample_sum_per_state(tmp_path):
    # 2,000 resamples of k = 100 rows in d = 50: gathered whole, one state's
    # rows take a (100, 2,000, 50) array of 76.3 MiB, while the variance adds
    # them one minibatch position at a time into a (2,000, 50) sum. On x86-64
    # Linux, Python 3.11, numpy 2.4 the run completes in a 125 MiB address
    # space, and with each state's rows gathered whole it needs 195 MiB
    cfg = write_config(tmp_path / "c.json", loss={"d": 50},
                       sgld={"k": 100, "T": 20}, data={"n": 200},
                       estimators={"n_resamples": 2000})
    proc = run_cli(["run", "--config", cfg, "--out", str(tmp_path / "out")], 160)
    assert proc.returncode == 0, proc.stderr
    assert read_json(tmp_path / "out" / "manifest.json")["status"] == "complete"


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS bounds memory on Linux")
def test_fokker_planck_run_beyond_the_step_cap_is_refused_at_load(tmp_path):
    # halfwidth 1e-3 over 64 cells gives dt = 2.9e-10 and 341,337,620 steps
    # in T_end = 0.1, whose traces would take 2.54 GiB; under a 1 GiB address
    # space the run must be refused before any subcommand allocates them
    cfg = write_config(tmp_path / "c.json", FULL_BATCH,
                       fp={"halfwidth": 1e-3, "n_cells": 64, "T_end": 0.1})
    for sub in ("certify", "run", "bounds", "verify"):
        out = tmp_path / sub
        extra = ["--traces", str(tmp_path)] if sub == "bounds" else []
        proc = run_cli([sub, "--config", cfg, "--out", str(out), *extra], 1024)
        assert proc.returncode == 1, (sub, proc.stderr)
        assert proc.stderr.startswith("config error: fp: "), (sub, proc.stderr)
        assert f"at most {config.FP_STEP_CAP}" in proc.stderr
        assert "Traceback" not in proc.stderr and not out.exists()


@pytest.mark.parametrize("base, over, refused", [
    (BASE, {"estimators": {"n_chains": 10**7}},
     "estimators.n_chains: 10000000 chains need a 9600000000-byte step buffer"),
    # k < n: 512 steps of 100 chains' 50,000 uint32 indices
    (BASE, {"sgld": {"k": 50_000, "T": 512}, "data": {"n": 10**5},
            "estimators": {"n_chains": 100}},
     "estimators.n_chains: 100 chains need a 10240000000-byte index buffer"),
    # the worker's 2,000 pairs and 4 trials, each with 10^5 points of width 2
    (BASE, {"data": {"n": 10**5}, "estimators": {"n_pairs": 2000}},
     "estimators.n_pairs + estimators.n_trials: 2004 chains need a 3206400000-byte "
     "dataset stack"),
    # one-step full-batch chains of one coordinate: every array fits, their
    # seed sequences and generators do not
    (FULL_BATCH, {"loss": {"d": 1}, "sgld": {"T": 1}, "estimators": {"n_chains": 10**6}},
     "estimators.n_chains: 1000000 chains need a 3400000000-byte RNG state"),
    (FULL_BATCH, {"loss": {"d": 1}, "sgld": {"T": 1},
                  "estimators": {"n_pairs": 10**6 - 4}},
     "estimators.n_pairs + estimators.n_trials: 1000000 chains need a 3400000000-byte "
     "RNG state"),
], ids=["step-buffer", "index-buffer", "dataset-stack", "rng-state", "worker-rng-state"])
def test_chain_engine_array_beyond_the_cap_is_refused_naming_its_key(base, over, refused):
    with pytest.raises(ConfigError) as caught:
        config.parse(merged(base, **over))
    assert str(caught.value) == f"{refused}, above the {sgld.ARRAY_BYTE_CAP}-byte cap"


@pytest.mark.parametrize("base, over, refused", [
    # one state's (10^9, 5) int64 offsets
    (BASE, {"estimators": {"n_resamples": 10**9}},
     "estimators.n_resamples: 1000000000 resamples need a 40000000000-byte offset array"),
    (FULL_BATCH, {"estimators": {"mi_pairs": 10**9}},
     "estimators.mi_pairs: 1000000000 dataset pairs need a 8000000000-byte gap array"),
    (BASE, {"verify": {"oracle_T": 10**9}},
     "verify.oracle_T: 1000000000 oracle steps need a 8000000008-byte law trace"),
    (BASE, {"loss": {"certify_samples": 10**10}},
     "loss.certify_samples: 10000000000 samples need a 160000000000-byte state draw"),
], ids=["n_resamples", "mi_pairs", "oracle_T", "certify_samples"])
def test_count_whose_array_passes_the_cap_is_refused_naming_its_key(base, over, refused):
    with pytest.raises(ConfigError) as caught:
        config.parse(merged(base, **over))
    assert str(caught.value) == f"{refused}, above the {sgld.ARRAY_BYTE_CAP}-byte cap"


CAP = 2**24  # a cap under which every row's bound fits in memory at load


@pytest.mark.parametrize("base, over, key, block, name, largest", [
    # 512 steps of 5 coordinates: the step buffer outgrows the RNG state
    (BASE, {"sgld": {"T": 512}, "loss": {"d": 5}}, "estimators.n_chains",
     "estimators", "n_chains", CAP // (8 * 512 * 5)),
    # 1,000 points of width 2 a chain, 4 of them trials
    (BASE, {"data": {"n": 1000}}, "estimators.n_pairs + estimators.n_trials",
     "estimators", "n_pairs", CAP // (8 * 1000 * 2) - 4),
    # one state's (R, k = 5) int64 offsets
    (BASE, {}, "estimators.n_resamples", "estimators", "n_resamples", CAP // (8 * 5)),
    # the gaps of the full-batch chain whose bounds draw oracle pairs
    (FULL_BATCH, {}, "estimators.mi_pairs", "estimators", "mi_pairs", CAP // 8),
    # (N, d = 2) states and (N, 2) points
    (BASE, {}, "loss.certify_samples", "loss", "certify_samples", CAP // (8 * 2)),
    (BASE, {}, "verify.oracle_T", "verify", "oracle_T", CAP // 8 - 1),
    # `run`'s (3, T) chain 0 series
    (BASE, {}, "sgld.T", "sgld", "T", CAP // 24),
    # the fine run's (2, 3, 2 n_cells) bands; one step of the fine run
    # outlasts T_end, so FP_STEP_CAP refuses nothing
    (BASE, {"fp": {"T_end": 1e-300}}, "fp.n_cells", "fp", "n_cells", CAP // 96),
    # the oracle's (n, 2) draw at the grid's largest n, on that chain
    (FULL_BATCH, {}, "bounds.n_grid", "bounds", "n_grid", CAP // (8 * 2)),
], ids=["n_chains", "n_pairs", "n_resamples", "mi_pairs", "certify_samples",
        "oracle_T", "T", "n_cells", "n_grid"])
def test_each_array_row_admits_its_largest_count_and_refuses_the_next(
        monkeypatch, base, over, key, block, name, largest):
    # the table's bound on each count is the bytes of the arrays the code
    # allocates; neither parse allocates them. n_grid's count is its
    # largest entry
    monkeypatch.setattr(config, "ARRAY_BYTE_CAP", CAP)
    raw = merged(base, **over)
    value = (lambda count: [20, count]) if name == "n_grid" else (lambda count: count)
    raw.setdefault(block, {})[name] = value(largest)
    assert config.parse(raw)[block][name] == value(largest)
    raw[block][name] = value(largest + 1)
    with pytest.raises(ConfigError) as caught:
        config.parse(raw)
    assert str(caught.value).startswith(f"{key}: ")
    assert str(caught.value).endswith(f", above the {CAP}-byte cap")


@pytest.mark.parametrize("over, refused", [
    ({}, True),  # the full-batch quadratic with sigma_g_sq, in d = 4
    ({"loss": {"family": "logistic_ridge", "R": None, "lam": 1.0}}, False),
    ({"bounds": {"sigma_g_sq": None}}, False),
    ({"bounds": {"which": ["pensia"]}}, False),
    ({"sgld": {"k": 5}}, False),
], ids=["quadratic", "logistic", "no-sigma_g_sq", "no-xu_raginsky", "k<n"])
def test_n_grid_counts_the_oracle_draw_only_where_bounds_draws_it(tmp_path, capsys,
                                                                  over, refused):
    # 10^8 points of width 4 are a 3.2 GB draw; a logistic config, or one
    # whose bounds read no oracle, draws nothing at any n
    raw = merged(FULL_BATCH, loss={"d": 4}, bounds={"n_grid": [100, 10**8]})
    for block, vals in over.items():
        raw[block].update(vals)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    if not refused:
        assert load_config(path)["bounds"]["n_grid"] == [100, 10**8]
        return
    out = tmp_path / "out"
    assert main(["bounds", "--config", str(path), "--traces", str(tmp_path),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"config error: bounds.n_grid: 100000000-point datasets need a 3200000000-byte "
        f"data draw, above the {sgld.ARRAY_BYTE_CAP}-byte cap\n")
    assert not out.exists()


def test_run_of_too_many_chains_is_refused_before_any_output(tmp_path, capsys,
                                                            monkeypatch):
    # 10^7 chains' (60, 10^7, 2) step buffer is 9.6 GB: refused at load, in
    # one line and at once, not after spawning 10^7 seed sequences
    def started(*args):
        raise AssertionError("the chains were started")

    monkeypatch.setattr(cli, "ensemble_seqs", started)
    cfg = write_config(tmp_path / "c.json", estimators={"n_chains": 10**7})
    out = tmp_path / "out"
    start = time.monotonic()
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    assert time.monotonic() - start < 0.5
    assert capsys.readouterr().err.startswith("config error: estimators.n_chains: ")
    assert not out.exists()


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS bounds memory on Linux")
@pytest.mark.parametrize("sub, over, limit_mib, started", [
    ("verify", {"fp": {"n_cells": 2 * 10**7, "T_end": 1e-300}}, 300, True),
    ("verify", {"verify": {"oracle_T": 2 * 10**8}}, 300, True),
    ("bounds", {"estimators": {"mi_pairs": 2 * 10**8}}, 300, False),
    ("run", {"estimators": {"n_chains": 4 * 10**5}}, 192, True),
])
def test_out_of_memory_ends_in_one_line(tmp_path, sub, over, limit_mib, started):
    # each asks for more than its address space holds and no more than the
    # load-time cap admits: `verify`'s (2 10^7,) Fokker-Planck grids, 160 MB
    # each, built after --out is made, a (2 10^8 + 1,) law trace or
    # (2 10^8,) gaps, or, for `run`, 4 10^5 chains' 1.36 GB of seed
    # sequences and generators and 384 MB step buffer. The command fails in
    # one line; the lock goes, and a started manifest stays running
    cfg = write_config(tmp_path / "c.json", FULL_BATCH, **over)
    extra = []
    if sub == "bounds":  # the exact MI's pairs are drawn for a full-batch run
        traces = tmp_path / "traces"
        assert main(["run", "--config", write_config(tmp_path / "r.json", FULL_BATCH),
                     "--out", str(traces)]) == 0
        extra = ["--traces", str(traces)]
    out = tmp_path / "out"
    proc = run_cli([sub, "--config", cfg, "--out", str(out), *extra], limit_mib)
    assert proc.returncode == 1, proc.stderr
    assert f"{sub} failed: out of memory" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert out.exists() == started and not (out / ".lock").exists()
    if started:
        assert read_json(out / "manifest.json")["status"] == "running"


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS bounds memory on Linux")
def test_load_of_a_huge_fokker_planck_grid_fits_in_little_memory(tmp_path):
    # load reads the 2 10^7-cell grids' dt and step count from their end
    # cells, so `certify`, which builds no grid, runs in the address space
    # `verify` of the same config runs out of
    cfg = write_config(tmp_path / "c.json", FULL_BATCH,
                       fp={"n_cells": 2 * 10**7, "T_end": 1e-300})
    proc = run_cli(["certify", "--config", cfg, "--out", str(tmp_path / "out")], 300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("sub", ["certify", "run", "bounds", "verify", "compare"])
@pytest.mark.parametrize("within", [False, True], ids=["file", "under-a-file"])
def test_out_naming_a_file_is_a_config_error(run_and_bounds, tmp_path, capsys, sub,
                                             within):
    # --out names an existing file, or a path under one: no directory can be
    # made there, and the file is left as it was
    blocker = tmp_path / "taken"
    blocker.write_text("kept\n")
    out = blocker / "out" if within else blocker
    cfg = write_config(tmp_path / "c.json", fp={"n_cells": 64, "T_end": 0.1})
    argv = {"bounds": ["bounds", "--config", cfg, "--traces", str(run_and_bounds / "run")],
            "compare": ["compare", str(run_and_bounds / "bounds")]}.get(
                sub, [sub, "--config", cfg])
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: output directory {out} cannot be made: ")
    assert blocker.read_text() == "kept\n"


def test_run_wall_clock_counts_from_process_start(tmp_path):
    # interpreter start-up and imports take about 0.25 s of this 0.7 s `run`
    # process, which a clock started with the manifest misses; what follows
    # the manifest's last write (the process's exit) takes about 0.04 s. The
    # start time is read in clock ticks, so it may be one tick early
    cfg = write_config(tmp_path / "c.json", sgld={"T": 6000})
    start = time.monotonic()
    proc = run_cli(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    wall = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr
    manifest = read_json(tmp_path / "out" / "manifest.json")
    tick = 1.0 / os.sysconf("SC_CLK_TCK")
    assert 0.9 * wall <= manifest["wall_clock_seconds"] <= wall + tick


def test_run_manifest_records_stage_seconds(tmp_path):
    cfg = write_config(tmp_path / "c.json")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    manifest = read_json(tmp_path / "out" / "manifest.json")
    stages = manifest["stages"]
    assert set(stages["run"]) == {"ensemble_s", "variance_s", "checks_s", "worker_wait_s"}
    assert set(stages["worker"]) == {"stability_s", "gap_s"}
    assert all(s >= 0 for times in stages.values() for s in times.values())
    assert sum(stages["run"].values()) <= manifest["wall_clock_seconds"]


@pytest.mark.parametrize("strided", [False, True])
def test_run_ensemble_artifacts_equal_in_process_ensemble(tmp_path, monkeypatch, strided):
    # chunks of 16 steps over T = 61 and CSV rows 7 at a time: the chunk by
    # chunk ensemble writes what the traces of the reference ensemble give, its
    # moments the mean over the chains' stacked ||W||^2
    monkeypatch.setattr(sgld, "STEP_CHUNK", 16)
    monkeypatch.setattr(sgld, "CSV_BLOCK_ROWS", 7)
    if strided:
        monkeypatch.setattr(sgld, "STATE_STORE_CAP", 10)  # every 7th state
    path = write_config(tmp_path / "c.json", **LOGISTIC, sgld={"T": 61})
    assert main(["run", "--config", path, "--out", str(tmp_path / "run")]) == 0
    cfg = load_config(path)
    model, sgld_cfg, est = cfg.model(), cfg.sgld_config(), cfg["estimators"]
    dataset = np.load(tmp_path / "run" / "dataset.npy")
    traces = ensemble(sgld_cfg, model, dataset, n_chains=est["n_chains"])
    traces[0].to_csv(tmp_path / "chain_000.csv")
    sgld.write_csv(tmp_path / "moments.csv", ("t", "mean_w_norm_sq"), enumerate(
        np.mean([tr.w_norm_sq for tr in traces], axis=0).tolist()))
    for name in ("chain_000.csv", "moments.csv"):
        assert (tmp_path / "run" / name).read_bytes() == (tmp_path / name).read_bytes()
    assert np.array_equal(np.load(tmp_path / "run" / "final_states.npy"),
                          [tr.states[-1] for tr in traces])
    means, stderrs = grad_variance_trace(model, dataset, traces[0], est["n_resamples"])
    _, rows = read_csv_rows(tmp_path / "run" / "variance.csv")
    assert [int(r[1]) for r in rows] == sgld._stored_steps(traces[0].config.T).tolist()
    assert [float(r[2]) for r in rows] == means.tolist()
    assert [float(r[3]) for r in rows] == stderrs.tolist()


@pytest.mark.parametrize("family, k, strided", [
    ("quadratic", 5, False), ("quadratic", 20, False), ("logistic", 5, False),
    ("logistic", 20, False), ("nonconvex", 5, False), ("nonconvex", 20, False),
    ("logistic", 5, True)])
def test_run_chain_000_series_equal_the_step_by_step_reference(tmp_path, monkeypatch,
                                                              family, k, strided):
    # chain 0's three gradient columns, which `run` takes a chunk at a time,
    # against every chain's series taken one step at a time; chunks of 16
    # steps over T = 61, k < n and k = n (n = 20)
    monkeypatch.setattr(sgld, "STEP_CHUNK", 16)
    if strided:
        monkeypatch.setattr(sgld, "STATE_STORE_CAP", 10)  # every 7th state
    loss = {"quadratic": {}, "logistic": LOGISTIC, "nonconvex": NONCONVEX}[family]
    path = write_config(tmp_path / "c.json", BASE if k < 20 else FULL_BATCH, **loss,
                        sgld={"k": k, "T": 61})
    assert main(["run", "--config", path, "--out", str(tmp_path / "run")]) == 0
    cfg = load_config(path)
    model, sgld_cfg = cfg.model(), cfg.sgld_config()
    dataset = np.load(tmp_path / "run" / "dataset.npy")
    [trace, *_] = ensemble(sgld_cfg, model, dataset,
                           n_chains=cfg["estimators"]["n_chains"])
    _, rows = read_csv_rows(tmp_path / "run" / "chain_000.csv")
    for column, name in enumerate(SERIES, start=2):
        assert [float(row[column]) for row in rows[:-1]] == getattr(trace, name).tolist()


def run_imports(tmp_path, module):
    """`run`'s exit code in a fresh interpreter, and whether `module` was
    imported in it by the end."""
    cfg = write_config(tmp_path / "c.json")
    script = ("import sys\n"
              "from sgldlab import cli\n"
              "code = cli.main(['run', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
              "print(code, sys.argv[3] in sys.modules)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", script, cfg, str(tmp_path / "out"), module],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "logmgf.csv").exists()
    return proc.stdout.splitlines()[-1]


def test_run_process_never_imports_numpy_ma(tmp_path):
    # numpy.ma costs about 1 MB and 20 ms; np.percentile's partition imports it
    assert run_imports(tmp_path, "numpy.ma") == "0 False"


def test_run_process_never_imports_multiprocessing(tmp_path):
    # multiprocessing's modules cost about 0.8 MB; `run` forks its worker
    # with os.fork and reads its result from an os.pipe
    assert run_imports(tmp_path, "multiprocessing") == "0 False"


def test_run_worker_death_exits_one(tmp_path, monkeypatch, capsys):
    parent = os.getpid()

    def killed(*args, **kwargs):
        if os.getpid() != parent:  # the worker only, never this process
            os.kill(os.getpid(), signal.SIGKILL)
        raise AssertionError("the stability chains ran in the parent")

    monkeypatch.setattr(cli, "stability_chains", killed)
    cfg = write_config(tmp_path / "c.json")
    out = tmp_path / "run"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("run failed: ")
    assert not (out / ".lock").exists()
    assert not (out / "stability.csv").exists()
    assert json.loads((out / "manifest.json").read_text())["status"] == "running"


def test_run_worker_ended_by_a_base_exception_never_returns_into_the_caller(
        tmp_path, monkeypatch, capsys):
    # SystemExit is no Exception: the worker sends no message and leaves by
    # os._exit with its code, never unwinding into this stack, where it
    # would run on as a second copy of the test
    parent, escaped = os.getpid(), tmp_path / "escaped"

    def exiting(*args, **kwargs):
        raise SystemExit(3)

    monkeypatch.setattr(cli, "_worker_stages", exiting)
    cfg = write_config(tmp_path / "c.json")
    out = tmp_path / "run"
    try:
        rc = main(["run", "--config", cfg, "--out", str(out)])
    finally:
        if os.getpid() != parent:
            escaped.write_text(str(os.getpid()))
            os._exit(0)
    assert not escaped.exists()
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("run failed: ")
    assert err[0].endswith("(exit code 3)")
    assert not (out / ".lock").exists()
    assert not (out / "stability.csv").exists()
    assert json.loads((out / "manifest.json").read_text())["status"] == "running"


# |1 - eta R| = 24: the full-batch quadratic chain diverges
DIVERGING = {"loss": {"R": 50.0}, "data": {"n": 10},
             "sgld": {"eta": 0.5, "k": 10, "T": 200}}


@pytest.mark.parametrize("T", [20, 200])
def test_run_records_whether_the_states_stayed_finite(tmp_path, capsys, T):
    # at T = 20 the ensemble's ||W||^2 nears 1e55; by T = 200 it is past
    # the float range, where no estimate is defined
    cfg = write_config(tmp_path / "c.json", FULL_BATCH, **{**DIVERGING, "sgld": {
        **DIVERGING["sgld"], "T": T}})
    out = tmp_path / "out"
    rc = main(["run", "--config", cfg, "--out", str(out), "--allow-unsafe"])
    printed = capsys.readouterr()
    manifest = read_json(out / "manifest.json")
    states = manifest["checks"]["states"]
    assert f"states finite in every chain: {states['finite']}" in printed.out
    assert "Traceback" not in printed.err and not (out / ".lock").exists()
    if T == 20:
        assert rc == 0 and manifest["status"] == "complete"
        assert states["finite"] and states["max_w_norm_sq"] > 1e50
    else:
        assert rc == 2 and manifest["status"] == "failed"
        assert states == {"finite": False, "max_w_norm_sq": None}
        assert "gap.csv" not in manifest["files"]
        assert "run failed: chain states left the float range" in printed.err
        loaded = load_config(cfg)
        with pytest.raises(NotFinite, match="^chain states left the float range$"):
            cli._worker_stages(loaded.model(), loaded.sgld_config(), loaded["estimators"])


# |1 - eta R| = 2: ||W||^2 grows about 4-fold a step, to about 1e305 at T = 506
# and past the float range by T = 512
OVERFLOWING = {"loss": {"R": 100.0}, "sgld": {"eta": 0.03, "seed": 0}}


def run_overflowing(tmp_path, T):
    """`run_cli` of `run --allow-unsafe` on OVERFLOWING at horizon T: the
    process, its stderr lines and its manifest."""
    cfg = write_config(tmp_path / "c.json", **{**OVERFLOWING, "sgld": {
        **OVERFLOWING["sgld"], "T": T}})
    out = tmp_path / "out"
    proc = run_cli(["run", "--config", cfg, "--out", str(out), "--allow-unsafe"])
    return proc, proc.stderr.splitlines(), read_json(out / "manifest.json")


def test_run_fails_an_estimate_past_the_float_range_of_finite_states(tmp_path):
    # a subprocess, whose stderr shows any warning numpy prints: at T = 508
    # every state is finite, but the log-MGF of the final states is not, and
    # the writer's refusal is the one line printed
    proc, err, manifest = run_overflowing(tmp_path, 508)
    assert proc.returncode == 2 and manifest["status"] == "failed"
    assert manifest["checks"]["states"]["finite"] is True
    assert {"chain_000.csv", "final_states.npy", "moments.csv"} <= set(manifest["files"])
    assert "logmgf.csv" not in manifest["files"]
    assert not (tmp_path / "out" / "logmgf.csv").exists()
    assert len(err) == 1 and err[0].startswith("run failed: logmgf: ")
    assert "RuntimeWarning" not in proc.stderr


def test_run_fails_a_pth_moment_past_the_float_range_of_finite_states(tmp_path):
    # at T = 100 every state and the log-MGF are finite, and the mean of
    # ||W||^12 over 60 chains is not: one line, and no pth_moments.json
    cfg = write_config(tmp_path / "c.json", **{**OVERFLOWING, "sgld": {
        **OVERFLOWING["sgld"], "T": 100}}, estimators={"n_chains": 60, "p_list": [2, 12]})
    out = tmp_path / "out"
    proc = run_cli(["run", "--config", cfg, "--out", str(out), "--allow-unsafe"])
    manifest = read_json(out / "manifest.json")
    assert proc.returncode == 2 and manifest["status"] == "failed"
    assert manifest["checks"]["states"]["finite"] is True
    assert "logmgf.csv" in manifest["files"]
    assert "pth_moments.json" not in manifest["files"]
    assert not (out / "pth_moments.json").exists()
    assert proc.stderr.splitlines() == [
        "run failed: pth_moments: the p = 12 moment of the final states' norms is past "
        "the float range"]


def test_run_sums_norms_past_the_float_range_without_a_warning(tmp_path):
    # a step comes at which every chain's ||W||^2 is finite and their sum is
    # not, before the states leave the float range
    proc, err, manifest = run_overflowing(tmp_path, 512)
    assert proc.returncode == 2 and manifest["status"] == "failed"
    assert manifest["checks"]["states"] == {"finite": False, "max_w_norm_sq": None}
    assert err == ["run failed: chain states left the float range"]
    assert "RuntimeWarning" not in proc.stderr


def test_run_failing_artifact_write_leaves_no_file_under_its_name(tmp_path, monkeypatch):
    def failing_to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("t,w_norm_sq\n0,")
        raise OSError("no space left on device")

    monkeypatch.setattr(sgld.ChainTrace, "to_csv", failing_to_csv)
    cfg = write_config(tmp_path / "c.json")
    out = tmp_path / "run"
    with pytest.raises(OSError, match="no space left"):
        main(["run", "--config", cfg, "--out", str(out)])
    assert sorted(os.listdir(out)) == ["dataset.npy", "manifest.json"]


def test_failing_npy_write_leaves_no_file_under_its_name(tmp_path, monkeypatch):
    def failing_save(file, arr, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            with open(file, "wb") as fh:
                fh.write(b"\x93NUMPY")
        else:
            file.write(b"\x93NUMPY")
        raise OSError("no space left on device")

    monkeypatch.setattr(np, "save", failing_save)
    cfg = write_config(tmp_path / "c.json")
    out = tmp_path / "run"
    with pytest.raises(OSError, match="no space left"):
        main(["run", "--config", cfg, "--out", str(out)])
    assert sorted(os.listdir(out)) == ["manifest.json"]
    assert json.loads((out / "manifest.json").read_text())["status"] == "running"


def _proc_stat(pid):
    """(state, parent pid) of a process from /proc, or None once it is reaped."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[1])


def _alive(pid):
    stat = _proc_stat(pid)
    return stat is not None and stat[0] != "Z"


def _children(pid):
    stats = {int(e): _proc_stat(e) for e in os.listdir("/proc") if e.isdigit()}
    return [c for c, st in stats.items() if st is not None and st[1] == pid and st[0] != "Z"]


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGINT], ids=lambda s: s.name)
def test_run_interrupted_by_a_signal_exits_cleanly(tmp_path, sig):
    # long enough that the signal lands while the worker runs its stage
    cfg = write_config(tmp_path / "c.json", sgld={"T": 30_000})
    out = tmp_path / "run"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # files, not pipes: a worker left behind cannot hold the test up
    with open(tmp_path / "stdout", "w") as so, open(tmp_path / "stderr", "w") as se:
        proc = subprocess.Popen([sys.executable, "-m", "sgldlab.cli", "run",
                                 "--config", cfg, "--out", str(out)],
                                stdout=so, stderr=se, env=env)
    children, left = [], []
    try:
        deadline = time.monotonic() + 60.0
        while not children and proc.poll() is None and time.monotonic() < deadline:
            try:
                running = json.loads((out / "manifest.json").read_text())["status"] == "running"
            except (OSError, ValueError):
                running = False
            if running:
                children = _children(proc.pid)
            time.sleep(0.01)
        assert children, "the worker never ran while the manifest read running"
        proc.send_signal(sig)
        code = proc.wait(timeout=60)
        left = [pid for pid in children if _alive(pid)]
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for pid in children:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
    assert code == 128 + sig
    assert (tmp_path / "stderr").read_text().splitlines() == [
        f"run interrupted: {sig.name}"]
    assert not (out / ".lock").exists()
    assert json.loads((out / "manifest.json").read_text())["status"] == "interrupted"
    assert left == []


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_run_worker_of_a_killed_parent_exits_quietly_after_its_stages(tmp_path):
    # SIGKILL runs no cleanup: the worker finds its parent gone at its next
    # check and exits, printing nothing
    cfg = write_config(tmp_path / "c.json", sgld={"T": 30_000})
    out = tmp_path / "run"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    with open(tmp_path / "stdout", "w") as so, open(tmp_path / "stderr", "w") as se:
        proc = subprocess.Popen([sys.executable, "-m", "sgldlab.cli", "run",
                                 "--config", cfg, "--out", str(out)],
                                stdout=so, stderr=se, env=env)
    children, left = [], []
    try:
        deadline = time.monotonic() + 60.0
        while not children and proc.poll() is None and time.monotonic() < deadline:
            children = _children(proc.pid)
            time.sleep(0.01)
        assert children, "the worker never ran"
        proc.kill()
        proc.wait(timeout=60)
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            left = [pid for pid in children if _alive(pid)]
            if not left:
                break
            time.sleep(0.05)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for pid in children:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
    assert left == []
    assert (tmp_path / "stderr").read_text() == ""


# the worker's stages a SIGKILL of its parent lands in: the marked function
# and a config under which the stage takes several seconds
KILL_PHASES = {
    # 4 pairs on n = 20,000 points over 6,001 stored steps
    "evaluation": ("stability_block", dict(
        loss={"family": "logistic_ridge", "lam": 1.0, "d": 5, "R": None},
        sgld={"eta": 0.02, "k": 1, "T": 6000},
        data={"n": 20_000},
        estimators={"n_pairs": 4, "n_trials": 2, "n_chains": 2, "n_resamples": 2})),
    # one engine call of 150,000 steps over 4 chains
    "chains": ("_lockstep_chunks", dict(
        loss={"family": "logistic_ridge", "lam": 1.0, "d": 5, "R": None},
        sgld={"eta": 0.02, "k": 20, "T": 150_000},
        data={"n": 200},
        estimators={"n_pairs": 2, "n_trials": 2, "n_chains": 2, "n_resamples": 2})),
}


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
@pytest.mark.parametrize("phase", sorted(KILL_PHASES))
def test_run_worker_exits_once_the_parent_is_killed(tmp_path, phase):
    name, over = KILL_PHASES[phase]
    cfg = write_config(tmp_path / "c.json", **over)
    marker = tmp_path / "worker.pid"
    # the worker records its pid as it enters the marked function; `run`'s
    # own process calls neither through `cli`
    script = (
        "import os, sys\n"
        "from sgldlab import cli\n"
        "real = getattr(cli, sys.argv[1])\n"
        "def marked(*args, **kwargs):\n"
        "    with open(sys.argv[2] + '.tmp', 'w') as fh:\n"
        "        fh.write(str(os.getpid()))\n"
        "    os.replace(sys.argv[2] + '.tmp', sys.argv[2])\n"
        "    return real(*args, **kwargs)\n"
        "setattr(cli, sys.argv[1], marked)\n"
        "sys.exit(cli.main(['run', '--config', sys.argv[3], '--out', sys.argv[4]]))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen([sys.executable, "-c", script, name, str(marker), cfg,
                             str(tmp_path / "run")], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    worker = None
    try:
        deadline = time.monotonic() + 60
        while not marker.exists() and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.02)
        assert marker.exists(), f"the worker never began its {phase}"
        worker = int(marker.read_text())
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()
        deadline = time.monotonic() + 2
        while _alive(worker) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not _alive(worker), "the worker outlived its parent"
    finally:
        proc.kill()
        proc.wait()
        if worker is not None and _alive(worker):
            os.kill(worker, signal.SIGKILL)


def test_lock_file_refusal(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", loss={"certify_samples": 500})
    locked = tmp_path / "out"
    locked.mkdir()
    (locked / ".lock").touch()
    rc = main(["certify", "--config", cfg, "--out", str(locked)])
    assert rc == 1
    assert "locked" in capsys.readouterr().err
    (locked / ".lock").unlink()
    assert main(["certify", "--config", cfg, "--out", str(locked)]) == 0
    assert not (locked / ".lock").exists()


def test_reused_out_refused_before_writing(run_and_bounds, tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", loss={"certify_samples": 500})
    out = tmp_path / "out"
    out.mkdir()
    assert main(["certify", "--config", cfg, "--out", str(out)]) == 0  # empty
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert main(["certify", "--config", cfg, "--out", str(out)]) == 1
    assert "is not empty" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before  # no .lock

    # a bounds report into an earlier one would keep its gap.csv
    reused = tmp_path / "bounds"
    shutil.copytree(run_and_bounds / "bounds", reused)
    before = {p.name: p.read_bytes() for p in reused.iterdir()}
    assert main(["bounds", "--config", cfg, "--out", str(reused),
                 "--traces", str(run_and_bounds / "run")]) == 1
    assert "is not empty" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in reused.iterdir()} == before


def test_lock_names_its_owner_and_a_dead_owner_reads_stale(tmp_path, capsys,
                                                          monkeypatch):
    cfg = write_config(tmp_path / "c.json", loss={"certify_samples": 500})
    out = tmp_path / "out"
    seen = []
    write_json = cli._OutputDir.write_json

    def write_json_reading_lock(self, name, payload):
        seen.append((out / ".lock").read_text())
        write_json(self, name, payload)

    monkeypatch.setattr(cli._OutputDir, "write_json", write_json_reading_lock)
    assert main(["certify", "--config", cfg, "--out", str(out)]) == 0
    assert seen == [f"{os.getpid()}\n"]
    assert not (out / ".lock").exists()

    # a pid that has exited: the lock is reported as stale
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    (out / ".lock").write_text(f"{child.pid}\n")
    capsys.readouterr()
    assert main(["certify", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "stale lock" in err and f"pid {child.pid}" in err

    # a live owner, or a lock naming no pid, reads as locked
    for text in (f"{os.getpid()}\n", "not a pid", "0"):
        (out / ".lock").write_text(text)
        assert main(["certify", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "locked by another invocation" in err and "stale" not in err


def test_failed_manifest_dump_leaves_the_previous_manifest(tmp_path):
    with cli._OutputDir(str(tmp_path / "out")) as out:
        out.start_manifest(seed=3)
        before = (tmp_path / "out" / "manifest.json").read_bytes()
        out.manifest["unserializable"] = object()
        with pytest.raises(TypeError):
            out.finish_manifest()
    assert (tmp_path / "out" / "manifest.json").read_bytes() == before
    assert json.loads(before)["status"] == "running"
    assert sorted(os.listdir(tmp_path / "out")) == ["manifest.json"]


def test_run_quadratic_stability_matches_its_closed_form(tmp_path):
    # a second source for stability.csv: on the quadratic family grad F_S -
    # grad F_S' = R (zbar_S' - zbar_S) at every W, whose expected square is
    # 2 R^2 tr Cov(z) / n, and tr Cov(z) = d r^2 / (d + 2) for z uniform on
    # the d-ball of radius r
    R, r, d, n = 2.0, 1.5, 3, 20
    cfg = write_config(tmp_path / "c.json", loss={"R": R, "d": d, "data_radius": r},
                       sgld={"eta": 0.02, "T": 4}, estimators={"n_pairs": 2000})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    _, rows = read_csv_rows(tmp_path / "run" / "stability.csv")
    assert len(rows) == 5 and len({tuple(row[2:]) for row in rows}) == 1
    mean, se = float(rows[0][2]), float(rows[0][3])

    def closed_form(R):
        return 2.0 * R**2 * d * r**2 / ((d + 2) * n)

    assert abs(mean - closed_form(R)) < 3.0 * se
    # an R mis-set by 10% moves the closed form by over 5 stderr
    assert abs(mean - closed_form(1.1 * R)) > 5.0 * se
    assert abs(mean - closed_form(R / 1.1)) > 5.0 * se


# -------------------------------------------------------------------- bounds


@pytest.fixture(scope="module")
def run_and_bounds(tmp_path_factory):
    base = tmp_path_factory.mktemp("pipeline")
    cfg = write_config(base / "c.json",
                       bounds={"T_grid": [0, 10, 40, 60]})
    assert main(["run", "--config", cfg, "--out", str(base / "run")]) == 0
    assert main(["bounds", "--config", cfg, "--out", str(base / "bounds"),
                 "--traces", str(base / "run")]) == 0
    return base


def bounds_rows(base):
    _, rows = read_csv_rows(base / "bounds" / "bounds.csv")
    return rows


def test_bounds_one_row_per_bound_per_point(run_and_bounds):
    rows = bounds_rows(run_and_bounds)
    assert len(rows) == 7 * 4  # all bounds at each T grid point, one n
    keys = [(r[0], r[2], r[3]) for r in rows]
    assert len(set(keys)) == len(keys)


def test_bounds_T_zero_gap_bounds_are_zero(run_and_bounds):
    rows = [r for r in bounds_rows(run_and_bounds) if r[2] == "0"]
    valued = {r[0]: r[1] for r in rows if r[1] != ""}
    assert valued.pop("excess_risk") != ""  # defined but not a gap bound
    assert valued and all(float(v) == 0.0 for v in valued.values())


def test_bounds_time_independent_constant_once_saturated(run_and_bounds):
    # horizon 4 beta c_LS = 2 at beta=4, R=1; eta T >= 2 from T=40 on
    vals = {r[2]: float(r[1]) for r in bounds_rows(run_and_bounds)
            if r[0] == "time_independent"}
    assert vals["40"] == vals["60"] > vals["10"] > 0.0


def test_bounds_pensia_strictly_increasing(run_and_bounds):
    vals = {r[2]: float(r[1]) for r in bounds_rows(run_and_bounds)
            if r[0] == "pensia"}
    assert 0.0 == vals["0"] < vals["10"] < vals["40"] < vals["60"]
    # every update's variance is stored at T = 60, so nothing is extended
    assert not any("strided" in r[6] for r in bounds_rows(run_and_bounds))


def test_bounds_evaluates_the_kl_chain_once_per_horizon(run_and_bounds, tmp_path,
                                                        monkeypatch):
    # the KL bound depends on neither n nor sigma_g_sq
    horizons = []

    def recording(lc, dc, config):
        horizons.append(config.T)
        return kl_chain(lc, dc, config)

    monkeypatch.setattr("sgldlab.bounds.kl_chain", recording)
    cfg = write_config(tmp_path / "c.json", bounds={"T_grid": [0, 10, 40, 60],
                                                    "n_grid": [10, 20, 40]})
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "b"),
                 "--traces", str(run_and_bounds / "run")]) == 0
    assert horizons == [0, 10, 40, 60]
    rows = read_csv_rows(tmp_path / "b" / "bounds.csv")[1]
    assert sum(r[0] == "time_independent" and r[1] != "" for r in rows) == 4 * 3


def test_bounds_xu_unavailable_without_full_batch(run_and_bounds):
    rows = [r for r in bounds_rows(run_and_bounds) if r[0] == "xu_raginsky"]
    assert all(r[1] == "" and "full-batch" in r[6] for r in rows)


def test_bounds_refuses_a_zero_sigma_g_sq_on_a_full_batch_run(tmp_path, capsys):
    # k = n: bounds evaluates xu_raginsky, whose rule refuses sigma_g_sq = 0
    over = dict(sgld={"T": 20}, estimators={"n_chains": 2, "n_trials": 2, "n_pairs": 2})
    cfg = write_config(tmp_path / "c.json", FULL_BATCH, **over)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    zero = write_config(tmp_path / "z.json", FULL_BATCH, bounds={"sigma_g_sq": 0.0}, **over)
    out = tmp_path / "b"
    assert main(["bounds", "--config", zero, "--out", str(out),
                 "--traces", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == ("config error: bounds.sigma_g_sq: sigma_g_sq "
                                       "must be positive, got 0.0\n")
    assert not out.exists()


def test_bounds_missing_sigma_g_marks_unavailable(tmp_path):
    cfg = write_config(tmp_path / "c.json",
                       sgld={"T": 20}, bounds={"sigma_g_sq": None},
                       estimators={"n_chains": 2, "n_trials": 2,
                                   "n_resamples": 10, "n_pairs": 2})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "b"),
                 "--traces", str(tmp_path / "run")]) == 0
    _, rows = read_csv_rows(tmp_path / "b" / "bounds.csv")
    needs = {"xu_raginsky", "pensia", "time_independent", "strongly_convex"}
    flagged = [r for r in rows if r[0] in needs]
    assert flagged
    assert all(r[1] == "" and "sigma_g_sq-unavailable" in r[6] for r in flagged)
    independent = [r for r in rows if r[0] in ("farghly_shape", "subexp_gen")]
    assert all(r[1] != "" for r in independent)


def test_bounds_missing_traces_exit_one(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json")
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "b")]) == 1
    assert "--traces" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "b2"),
                 "--traces", str(tmp_path / "nowhere")]) == 1


def _bounds_on_copied_traces(run_and_bounds, tmp_path, edit_manifest, **over):
    traces = tmp_path / "run"
    shutil.copytree(run_and_bounds / "run", traces)
    path = traces / "manifest.json"
    manifest = edit_manifest(json.loads(path.read_text()))
    if manifest is None:
        path.unlink()
    else:
        path.write_text(json.dumps(manifest))
    cfg = write_config(tmp_path / "c.json", **over)
    out = tmp_path / "b"
    code = main(["bounds", "--config", cfg, "--out", str(out), "--traces", str(traces)])
    return code, out


@pytest.mark.parametrize("edit, over", [
    (lambda m: {**m, "status": "running"}, {}),  # interrupted or failed run
    (lambda m: {**m, "status": "interrupted"}, {}),
    (lambda m: None, {}),
    (lambda m: {**m, "config": "?"}, {}),
    (lambda m: m, {"sgld": {"eta": 0.02}}),  # traces made at eta = 0.05
    (lambda m: m, {"data": {"n": 40}}),
    (lambda m: m, {"loss": {"R": 2.0}}),
    (lambda m: m, {"loss": {"data_radius": 2.0}}),
], ids=["running", "interrupted", "no-manifest", "unreadable-config", "other-eta",
        "other-n", "other-R", "other-data-radius"])
def test_bounds_refuses_traces_it_cannot_vouch_for(run_and_bounds, tmp_path, capsys,
                                                   edit, over):
    code, out = _bounds_on_copied_traces(run_and_bounds, tmp_path, edit, **over)
    assert code == 1
    assert capsys.readouterr().err.startswith("config error: --traces: ")
    assert not out.exists()


def test_bounds_takes_traces_of_the_same_chain_under_other_settings(run_and_bounds,
                                                                    tmp_path):
    # the seed, the checks and the bound settings do not change the chain
    code, _ = _bounds_on_copied_traces(
        run_and_bounds, tmp_path, lambda m: m, sgld={"seed": 5},
        loss={"certify_samples": 100, "claimed": {"M": 2.0}},
        bounds={"which": ["pensia"]}, estimators={"n_trials": 3},
        fp={"n_cells": 64}, verify={"oracle_T": 10})
    assert code == 0


def test_evaluate_grid_equals_the_bounds_json_cmd_bounds_writes(run_and_bounds):
    # the run's traces as arrays, read here with no sgldlab reader
    def trace(name):
        _, rows = read_csv_rows(run_and_bounds / "run" / name)
        return (np.array([int(r[1]) for r in rows]),
                np.array([float(r[2]) for r in rows]))

    cfg = load_config(run_and_bounds / "c.json")
    b = cfg["bounds"]
    entries = evaluate_grid(cfg.model(), cfg.derived(), b, cfg.sgld_config(),
                            trace("variance.csv"), trace("stability.csv"),
                            b["T_grid"], b["n_grid"], cfg["estimators"]["mi_pairs"])
    assert (json.loads(json.dumps([e.to_dict() for e in entries]))
            == read_json(run_and_bounds / "bounds" / "bounds.json"))


def test_bounds_json_mirror_and_gap_copy(run_and_bounds):
    base = run_and_bounds
    mirror = read_json(base / "bounds" / "bounds.json")
    assert len(mirror) == 7 * 4
    assert all(set(e) >= {"name", "value", "inputs", "notes"} for e in mirror)
    assert ((base / "bounds" / "gap.csv").read_bytes()
            == (base / "run" / "gap.csv").read_bytes())


def run_then_bounds(tmp_path, cfg, allow_unsafe=False):
    run = ["run", "--config", cfg, "--out", str(tmp_path / "run")]
    assert main(run + ["--allow-unsafe"] * allow_unsafe) == 0
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "b"),
                 "--traces", str(tmp_path / "run")]) == 0
    _, rows = read_csv_rows(tmp_path / "b" / "bounds.csv")
    return rows


def test_bounds_farghly_needs_subsampling_at_grid_sizes_up_to_k(run_and_bounds,
                                                               tmp_path):
    # the run has k = 5; at n <= k a chain takes the full batch every step
    cfg = write_config(tmp_path / "c.json",
                       bounds={"T_grid": [0, 60], "n_grid": [3, 5, 20],
                               "which": ["farghly_shape"], "sigma_g_sq": None})
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "b"),
                 "--traces", str(run_and_bounds / "run")]) == 0
    _, rows = read_csv_rows(tmp_path / "b" / "bounds.csv")
    flags = {(r[2], r[3]): r[6] for r in rows}
    assert flags[("60", "3")] == flags[("60", "5")] == "needs-subsampling"
    assert "needs-subsampling" not in flags[("60", "20")]


def test_bounds_strongly_convex_needs_R(tmp_path):
    # logistic ridge with its strong-convexity claim withdrawn
    cfg = write_config(tmp_path / "c.json",
                       loss={"family": "logistic_ridge", "R": None, "lam": 1.0,
                             "claimed": {"R": None}},
                       sgld={"T": 20},
                       bounds={"which": ["strongly_convex", "pensia"],
                               "lsi_mode": "general_dissipative"})
    rows = run_then_bounds(tmp_path, cfg)
    sc = [r for r in rows if r[0] == "strongly_convex"]
    assert sc and all(r[1] == "" and r[6] == "needs-R" for r in sc)
    assert all(r[1] != "" for r in rows if r[0] == "pensia")


@pytest.mark.parametrize("loss", [
    {"family": "quadratic", "R": 1.0},
    {"family": "logistic_ridge", "R": None, "lam": 1.0},
    {"family": "nonconvex_ridge", "R": None, "lam": 1.0, "a": 0.5},
])
def test_run_and_bounds_agree_on_the_kl_chain(tmp_path, loss):
    # the default bounds block: the log-Sobolev route is the model's own, and
    # a run admitted into the KL chain's ranges gets the chain's bounds
    cfg = write_config(tmp_path / "c.json", loss=loss, sgld={"eta": 0.02, "T": 40})
    rows = run_then_bounds(tmp_path, cfg)
    run = read_json(tmp_path / "run" / "manifest.json")
    assert run["preconditions"]["strict_mode_failures"] == []
    route = run["config"]["bounds"]["lsi_mode"]
    assert route == ("general_dissipative" if loss["family"] == "nonconvex_ridge"
                     else "strongly_convex")
    assert read_json(tmp_path / "b" / "manifest.json")["config"] == run["config"]
    chain = [r for r in rows if r[2] != "0" and r[0] in
             ("time_independent", "subexp_gen", "excess_risk")]
    assert len(chain) == 3 * 3  # default T grid {0, 10, 20, 40}
    assert all(r[1] != "" for r in chain)
    assert all(f"lsi_mode={route}" in r[6].split("|") for r in chain
               if r[0] == "time_independent")


def test_bounds_farghly_needs_subsampling(tmp_path):
    # k = n: farghly_shape reads no farghly_C1 or C2, and no bound sigma_g_sq
    cfg = write_config(tmp_path / "c.json", FULL_BATCH, sgld={"T": 20},
                       bounds={"which": ["farghly_shape"], "sigma_g_sq": None})
    rows = run_then_bounds(tmp_path, cfg)
    assert rows and all(r[0] == "farghly_shape" and r[1] == ""
                        and r[6] == "needs-subsampling" for r in rows)


def test_bounds_kl_chain_unavailable_below_two_over_m(tmp_path):
    # quadratic m = R/2 = 0.5, so beta = 2 < 2/m = 4 leaves the KL chain
    cfg = write_config(tmp_path / "c.json", sgld={"beta": 2.0, "T": 20},
                       bounds={"which": ["time_independent", "subexp_gen",
                                         "excess_risk", "farghly_shape"]})
    rows = run_then_bounds(tmp_path, cfg, allow_unsafe=True)
    chain = [r for r in rows if r[0] in ("subexp_gen", "excess_risk")]
    assert len(chain) == 2 * 4  # default T grid {0, 5, 10, 20}
    assert all(r[1] == "" and r[6] == "kl-chain-unavailable" for r in chain)
    ti = [r for r in rows if r[0] == "time_independent"]
    assert ti and all(r[1] == "" and "beta" in r[6] for r in ti)
    assert all(r[1] != "" for r in rows if r[0] == "farghly_shape")


def test_bounds_unknown_name_exits_one(run_and_bounds, tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json",
                       bounds={"T_grid": [0, 10, 40, 60],
                               "which": ["pensia", "nope"]})
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "b"),
                 "--traces", str(run_and_bounds / "run")]) == 1
    assert "'nope'" in capsys.readouterr().err


def test_unknown_bound_name_rejected_by_every_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", bounds={"which": ["nope"]})
    for sub in ("certify", "run", "verify"):
        assert main([sub, "--config", cfg, "--out", str(tmp_path / sub)]) == 1
        assert "'nope'" in capsys.readouterr().err
        assert not (tmp_path / sub / "manifest.json").exists()


def test_bounds_flags_pensia_on_strided_variance_trace(tmp_path, monkeypatch):
    # store every 6th state of T = 60, as T > STATE_STORE_CAP would
    monkeypatch.setattr("sgldlab.sgld.STATE_STORE_CAP", 10)
    cfg = write_config(tmp_path / "c.json", sgld={"T": 60},
                       bounds={"T_grid": [0, 30, 60],
                               "which": ["pensia", "time_independent"]})
    rows = run_then_bounds(tmp_path, cfg)
    flagged = {r[2]: "variance-trace-strided" in r[6].split("|")
               for r in rows if r[0] == "pensia"}
    assert flagged == {"0": False, "30": True, "60": True}
    assert not any("strided" in r[6] for r in rows if r[0] != "pensia")


def test_bounds_default_T_grid_snaps_to_stored_steps(tmp_path, monkeypatch):
    # T = 29 with at most 10 stored steps: stride 3 stores 0, 3, ..., 27, 29,
    # so T/4 = 7 and T/2 = 14 fall back to the stored steps 6 and 12
    monkeypatch.setattr("sgldlab.sgld.STATE_STORE_CAP", 10)
    cfg = write_config(tmp_path / "c.json", sgld={"T": 29},
                       bounds={"which": ["pensia"]})
    rows = run_then_bounds(tmp_path, cfg)
    assert [r[2] for r in rows] == ["0", "6", "12", "29"]


def test_bounds_without_derived_constants_flags_the_chain(tmp_path):
    # eta = 0.15 >= m/(5 M^2) = 0.1: no moment bound, so no derived constants
    cfg = write_config(tmp_path / "c.json", sgld={"eta": 0.15, "T": 20})
    rows = run_then_bounds(tmp_path, cfg, allow_unsafe=True)
    chain = [r for r in rows
             if r[0] in ("time_independent", "subexp_gen", "excess_risk")]
    assert len(chain) == 3 * 4
    assert all(r[1] == "" and r[6].startswith("derived-constants-unavailable")
               and "eta=0.15" in r[6] for r in chain)
    for name in ("pensia", "farghly_shape", "strongly_convex"):
        assert all(r[1] != "" for r in rows if r[0] == name), name


@pytest.mark.parametrize("name", ["variance.csv", "stability.csv"])
def test_bounds_empty_trace_csv_exits_one(run_and_bounds, tmp_path, capsys, name):
    traces = tmp_path / "run"
    shutil.copytree(run_and_bounds / "run", traces)
    header = (traces / name).read_text().splitlines()[0]
    (traces / name).write_text(header + "\n")
    cfg = write_config(tmp_path / "c.json")  # default T grid and every bound
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "b"),
                 "--traces", str(traces)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and name in err


def _cut_to_20_rows(lines):
    return lines[:21]


def _swap_two_rows(lines):
    return lines[:11] + [lines[12], lines[11]] + lines[13:]


def _nan_mean_at_step_5(lines):
    cells = lines[6].split(b",")
    return lines[:6] + [b",".join(cells[:2] + [b"nan"] + cells[3:])] + lines[7:]


def _at_step_5(edit):
    # step 5's row, data row 6, with its cells edited
    def damage(lines):
        cells = lines[6].rstrip(b"\r\n").split(b",")
        return lines[:6] + [b",".join(edit(cells)) + b"\r\n"] + lines[7:]
    return damage


STEPS_61 = "its steps are not the 61 steps a run of T = 60 stores"


@pytest.mark.parametrize("name, damage, reason", [
    ("stability.csv", _cut_to_20_rows, STEPS_61),
    ("variance.csv", _swap_two_rows, STEPS_61),
    ("stability.csv", _nan_mean_at_step_5, "a mean is not finite"),
    ("variance.csv", _at_step_5(lambda cells: [cells[0], b"abc", *cells[2:]]),
     "row 6: could not convert string to float: 'abc'"),
    ("variance.csv", _at_step_5(lambda cells: cells[:-1]), "row 6 has 4 cells, not 5"),
    ("stability.csv", _at_step_5(lambda cells: [*cells[:4], b"x"]),
     "row 6: invalid literal for int() with base 10: 'x'"),
    ("variance.csv", _at_step_5(lambda cells: [cells[0], b"\xff", *cells[2:]]),
     "not a readable CSV"),
], ids=["stability-short", "variance-unsorted", "stability-nan", "variance-step-abc",
        "variance-cell-cut", "stability-n-x", "variance-not-utf8"])
def test_bounds_refuses_a_damaged_trace_at_read(run_and_bounds, tmp_path, capsys,
                                                name, damage, reason):
    # the steps must be those the run of T = 60 stores: 0, 1, ..., 60
    traces = tmp_path / "run"
    shutil.copytree(run_and_bounds / "run", traces)
    lines = (traces / name).read_bytes().splitlines(keepends=True)
    (traces / name).write_bytes(b"".join(damage(lines)))
    cfg = write_config(tmp_path / "c.json", bounds={"T_grid": [0, 10, 40, 60]})
    out = tmp_path / "b"
    assert main(["bounds", "--config", cfg, "--out", str(out),
                 "--traces", str(traces)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and name in err and reason in err
    assert not out.exists()


def test_bounds_xu_raginsky_needs_the_quadratic_family(tmp_path):
    # a full-batch logistic chain: its constants carry R (lam), but its law
    # is not the Gaussian the oracle evaluates
    cfg = write_config(tmp_path / "c.json", FULL_BATCH, **LOGISTIC,
                       bounds={"T_grid": [0, 10, 60], "which": ["xu_raginsky"]})
    rows = run_then_bounds(tmp_path, cfg)
    assert len(rows) == 3
    assert all(r[1] == "" and "exact-mi-needs-full-batch-quadratic" in r[6]
               for r in rows)


def test_bounds_xu_raginsky_takes_the_chain_R_not_a_claimed_one(tmp_path):
    over = dict(bounds={"T_grid": [0, 10, 60], "which": ["xu_raginsky"]},
                estimators={"mi_pairs": 40})
    rows = run_then_bounds(tmp_path, write_config(tmp_path / "c.json", FULL_BATCH, **over))
    claimed = write_config(tmp_path / "claimed.json", FULL_BATCH,
                           loss={"claimed": {"R": 0.5}}, **over)
    out = tmp_path / "b-claimed"
    assert main(["bounds", "--config", claimed, "--out", str(out),
                 "--traces", str(tmp_path / "run")]) == 0
    assert read_csv_rows(out / "bounds.csv")[1] == rows
    assert {r[1] for r in rows if r[2] != "0"} - {""}


def test_bounds_xu_raginsky_equals_oracle_per_grid_point(tmp_path):
    # full-batch quadratic: the pairs are drawn once per n and reused for
    # every T; each value is what a per-point oracle_mi_upper call gives
    cfg = write_config(tmp_path / "c.json", FULL_BATCH,
                       bounds={"T_grid": [0, 10, 40, 60], "n_grid": [10, 20, 35],
                               "which": ["xu_raginsky"]}, estimators={"mi_pairs": 40})
    rows = run_then_bounds(tmp_path, cfg)
    assert len(rows) == 4 * 3
    sgld_cfg = load_config(cfg).sgld_config()
    model = load_config(cfg).model()
    for name, value, T, n, *_ in rows:
        T, n = int(T), int(n)
        point = dataclasses.replace(sgld_cfg, T=T, k=n, n=n)
        mi = oracle_mi_upper(model, point,
                             n_dataset_pairs=load_config(cfg)["estimators"]["mi_pairs"])
        assert float(value) == bound_xu_raginsky(0.25, n, mi).value
    assert {float(r[1]) for r in rows if r[2] != "0"} != {0.0}


def test_bounds_malformed_parametrix_exits_one(run_and_bounds, tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json",
                       bounds={"T_grid": [0, 10, 40, 60],
                               "parametrix": {"C1_prime": -1.0}})
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "b"),
                 "--traces", str(run_and_bounds / "run")]) == 1
    assert "bounds.parametrix" in capsys.readouterr().err


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_bounds_nonfinite_parametrix_exits_one(run_and_bounds, tmp_path, capsys, value):
    cfg = write_config(tmp_path / "c.json",
                       bounds={"T_grid": [0, 10, 40, 60],
                               "parametrix": {"C1_prime": value}})
    out = tmp_path / "b"
    assert main(["bounds", "--config", cfg, "--out", str(out),
                 "--traces", str(run_and_bounds / "run")]) == 1
    assert capsys.readouterr().err.startswith(
        "config error: bounds.parametrix: C1_prime must be nonnegative and finite")
    assert not out.exists()


# -------------------------------------------------------------------- verify


def test_verify_defaults_exit_zero(tmp_path):
    cfg = write_config(tmp_path / "c.json", fp={"n_cells": 64, "T_end": 0.1})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 0
    report = read_json(tmp_path / "v" / "verify_report.json")
    assert report["hard_failures"] == []
    assert report["oracle"]["recursion_violations"] == 0
    assert report["oracle"]["identical_pair_mi"] == 0.0
    assert report["fp_fine"]["violation_rate"] <= report["fp_coarse"]["violation_rate"]


def test_verify_manifest_records_section_seconds(tmp_path):
    cfg = write_config(tmp_path / "c.json", fp={"n_cells": 64, "T_end": 0.1})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 0
    manifest = read_json(tmp_path / "v" / "manifest.json")
    stages = manifest["stages"]
    assert list(stages) == ["verify"] and set(stages["verify"]) == {"oracle_s", "fp_s"}
    assert all(s >= 0 and s == round(s, 6) for s in stages["verify"].values())
    assert sum(stages["verify"].values()) <= manifest["wall_clock_seconds"]


def test_verify_takes_the_exact_law_once(tmp_path, monkeypatch):
    # the oracle trace's law serves the identical-pair control too
    calls = []
    law = oracle._response_and_var

    def counted(*args):
        calls.append(args)
        return law(*args)

    monkeypatch.setattr(oracle, "_response_and_var", counted)
    cfg = write_config(tmp_path / "c.json", fp={"n_cells": 64, "T_end": 0.1})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 0
    assert len(calls) == 1


def test_verify_falsification_control_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", verify={"falsify": True},
                       fp={"n_cells": 64, "T_end": 0.1})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 2
    assert "VIOLATION" in capsys.readouterr().out
    report = read_json(tmp_path / "v" / "verify_report.json")
    assert report["oracle"]["recursion_violations"] > 0


@pytest.mark.parametrize("family", [{}, LOGISTIC, NONCONVEX],
                         ids=["quadratic", "logistic", "nonconvex"])
def test_verify_falsify_fails_every_section_on_every_family(tmp_path, capsys, family):
    # each section's falsified form, the oracle's recursion at contraction 1
    # and add 0 and the Fokker-Planck inequality without its stability
    # term, fails where the true form passes; the oracle runs on a family
    # with R
    for falsify, code in ((False, 0), (True, 2)):
        cfg = write_config(tmp_path / f"{falsify}.json", **merged(
            family, verify={"falsify": falsify}, fp={"n_cells": 64, "T_end": 0.1}))
        out = tmp_path / str(falsify)
        assert main(["verify", "--config", cfg, "--out", str(out)]) == code
        report = read_json(out / "verify_report.json")
    failures = report["hard_failures"]
    assert ("skipped" in report["oracle"]) == (family is NONCONVEX)
    assert any(f.startswith("kl recursion violated at ") for f in failures) == (
        family is not NONCONVEX)
    assert report["fp_coarse"]["violation_rate"] > 0.01
    assert any(f.startswith("fp violation rate ") for f in failures)
    assert "VIOLATION: fp violation rate " in capsys.readouterr().out


def test_verify_fails_a_diverging_oracle_law_by_name(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", FULL_BATCH, fp={"n_cells": 64, "T_end": 0.1},
                       **DIVERGING)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
    report = read_json(out / "verify_report.json")
    assert report["oracle"]["non_finite_from_step"] > 0
    assert any(failure.startswith("oracle law not finite from step")
               for failure in report["hard_failures"])
    assert read_json(out / "manifest.json")["status"] == "complete"
    assert not (out / ".lock").exists()


def test_verify_fails_a_fokker_planck_pair_the_grid_cannot_carry(tmp_path, capsys):
    # at beta R = 1e7 the two densities part on a grid of halfwidth 1, well
    # within T_end = 0.005 (17,011 coarse steps, under verify's step cap)
    cfg = write_config(tmp_path / "c.json", loss={"R": 1e4, "d": 5},
                       sgld={"eta": 1e-5, "beta": 1e3},
                       fp={"halfwidth": 1.0, "T_end": 0.005})
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
    report = read_json(out / "verify_report.json")
    assert report["fp_coarse"] == {
        "n_cells": 256, "failed": "densities share no support above the floors"}
    assert "failed" in report["fp_fine"] and not (out / "fp_coarse.csv").exists()
    assert "fp_coarse: densities share no support above the floors" in report["hard_failures"]
    assert read_json(out / "manifest.json")["status"] == "complete"
    assert "VIOLATION: fp_coarse" in capsys.readouterr().out


# ------------------------------------------------------------------- compare


def test_compare_single_report_passthrough(run_and_bounds, tmp_path):
    base = run_and_bounds
    assert main(["compare", str(base / "bounds"),
                 "--out", str(tmp_path / "cmp")]) == 0
    header, rows = read_csv_rows(tmp_path / "cmp" / "compare.csv")
    assert header == ["bound_name", "T", "n", "bounds"]
    bound_rows = [r for r in rows if r[0] != "empirical_gap"]
    assert len(bound_rows) == 7 * 4
    assert any(r[0] == "empirical_gap" for r in rows)
    assert (tmp_path / "cmp" / "compare.txt").exists()


def test_compare_gap_below_valid_bounds(run_and_bounds, tmp_path):
    base = run_and_bounds
    assert main(["compare", str(base / "bounds"),
                 "--out", str(tmp_path / "cmp")]) == 0
    _, rows = read_csv_rows(tmp_path / "cmp" / "compare.csv")
    gap = next(float(r[3]) for r in rows if r[0] == "empirical_gap")
    at_T = [r for r in rows if r[1] == "60" and r[0] != "excess_risk"
            and r[3] != ""]
    assert at_T and all(gap <= float(r[3]) for r in at_T)


def test_compare_two_reports_wide(run_and_bounds, tmp_path):
    base = run_and_bounds
    cfg = write_config(tmp_path / "c.json", sgld={"seed": 991},
                       bounds={"T_grid": [0, 10, 40, 60]})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "other"),
                 "--traces", str(tmp_path / "run")]) == 0
    assert main(["compare", str(base / "bounds"), str(tmp_path / "other"),
                 "--out", str(tmp_path / "cmp")]) == 0
    header, rows = read_csv_rows(tmp_path / "cmp" / "compare.csv")
    assert header == ["bound_name", "T", "n", "bounds", "other"]
    ti = [r for r in rows if r[0] == "time_independent" and r[1] == "60"]
    assert len(ti) == 1 and ti[0][3] != "" and ti[0][4] != ""
    # constants-only bound agrees across seeds; trace-driven ones need not
    assert float(ti[0][3]) == float(ti[0][4])


def test_compare_labels_reports_of_one_name_by_their_paths(run_and_bounds, tmp_path):
    # two reports named bounds would give two columns of one label; each
    # takes its path as given, and a report of its own name keeps its name
    for parent in ("a", "b"):
        shutil.copytree(run_and_bounds / "bounds", tmp_path / parent / "bounds")
    shutil.copytree(run_and_bounds / "bounds", tmp_path / "other")
    reports = [str(tmp_path / "a" / "bounds"), str(tmp_path / "b" / "bounds"),
               str(tmp_path / "other")]
    assert main(["compare", *reports, "--out", str(tmp_path / "cmp")]) == 0
    header, rows = read_csv_rows(tmp_path / "cmp" / "compare.csv")
    assert header == ["bound_name", "T", "n", *reports[:2], "other"]
    assert all(r[3] == r[4] == r[5] for r in rows)
    txt_header = (tmp_path / "cmp" / "compare.txt").read_text().splitlines()[0]
    assert txt_header.split() == ["bound", "T", "n", *reports[:2], "other"]


def test_compare_sorts_n_as_an_integer(run_and_bounds, tmp_path):
    # as text, n = 100 and 200 would come before 25, and 400 before 50
    n_grid = [25, 50, 100, 200, 400]
    cfg = write_config(tmp_path / "c.json",
                       bounds={"T_grid": [0, 10, 40, 60], "n_grid": n_grid[::-1]})
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "report"),
                 "--traces", str(run_and_bounds / "run")]) == 0
    assert main(["compare", str(tmp_path / "report"), "--out", str(tmp_path / "cmp")]) == 0
    _, rows = read_csv_rows(tmp_path / "cmp" / "compare.csv")
    bound_rows = [r for r in rows if r[0] != "empirical_gap"]
    assert len(bound_rows) == 7 * 4 * 5
    for i in range(0, len(bound_rows), 5):
        group = bound_rows[i:i + 5]
        assert len({(r[0], r[1]) for r in group}) == 1
        assert [int(r[2]) for r in group] == n_grid
    assert [r[:3] for r in rows if r[0] == "empirical_gap"] == [["empirical_gap", "60", ""]]


@pytest.mark.parametrize("name, row, edit, reason", [
    ("bounds.csv", 3, lambda cells: [cells[0], "zzz", *cells[2:]],
     "row 3: could not convert string to float: 'zzz'"),
    ("bounds.csv", 3, lambda cells: cells[:2], "row 3 has 2 cells, not 7"),
    ("bounds.csv", 3, lambda cells: [*cells[:2], "abc", *cells[3:]],
     "row 3: could not convert string to float: 'abc'"),
    ("bounds.csv", 3, lambda cells: [*cells[:3], "abc", *cells[4:]],
     "row 3: invalid literal for int() with base 10: 'abc'"),
    ("gap.csv", 1, lambda cells: [cells[0], "inf", *cells[2:]], "T = inf is not a step"),
], ids=["value-zzz", "row-cut", "T-abc", "n-abc", "gap-T-inf"])
def test_compare_refuses_a_damaged_report_before_its_output(run_and_bounds, tmp_path,
                                                           capsys, name, row, edit,
                                                           reason):
    # a cell that does not parse, or a short row, is refused as the reports
    # are read, so no output directory is made
    report = tmp_path / "bounds"
    shutil.copytree(run_and_bounds / "bounds", report)
    header, rows = read_csv_rows(report / name)
    rows[row - 1] = edit(rows[row - 1])
    sgld.write_csv(report / name, header, rows)
    out = tmp_path / "cmp"
    assert main(["compare", str(report), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and reason in err
    assert not out.exists()


def test_compare_schema_mismatch_exits_one(run_and_bounds, tmp_path, capsys):
    broken = tmp_path / "broken"
    broken.mkdir()
    (broken / "bounds.csv").write_text("who,what\nx,y\n")
    rc = main(["compare", str(broken), "--out", str(tmp_path / "cmp")])
    assert rc == 1
    assert "unexpected columns" in capsys.readouterr().err


ESTIMATES_HEADER = "estimator,t_or_lambda,mean,stderr,n"
FP_HEADER = "t,kl,fisher,stability_term,dkl_dt,slack"
CSV_HEADERS = {
    "run": {"chain_000.csv": "t,w_norm_sq,grad_var_sample,grad_fullbatch_norm,"
                             "grad_minibatch_norm",
            "moments.csv": "t,mean_w_norm_sq",
            **{name: ESTIMATES_HEADER for name in RUN_CSVS[2:]}},
    "bounds": {"bounds.csv": "name,value,T,n,eta,beta,flags", "gap.csv": ESTIMATES_HEADER},
    "verify": {"oracle_trace.csv": "t,mean_norm,var,kl", "fp_coarse.csv": FP_HEADER,
               "fp_fine.csv": FP_HEADER},
    "compare": {"compare.csv": "bound_name,T,n,bounds"},
}


def test_every_csv_artifact_has_crlf_line_ends_and_its_header(run_and_bounds, tmp_path):
    base = run_and_bounds
    cfg = write_config(tmp_path / "c.json", fp={"n_cells": 64, "T_end": 0.1})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "verify")]) == 0
    assert main(["compare", str(base / "bounds"), "--out", str(tmp_path / "compare")]) == 0
    dirs = {"run": base / "run", "bounds": base / "bounds",
            "verify": tmp_path / "verify", "compare": tmp_path / "compare"}
    for sub, headers in CSV_HEADERS.items():
        assert sorted(p.name for p in dirs[sub].glob("*.csv")) == sorted(headers), sub
        for name, header in headers.items():
            data = (dirs[sub] / name).read_bytes()
            lines = data.split(b"\r\n")
            assert lines[-1] == b"" and len(lines) > 2, name
            assert not any(b"\n" in line or b"\r" in line for line in lines), name
            assert lines[0].decode() == header, name


# ----------------------------------------------------------- benchmark probe


@pytest.mark.parametrize("sub, span", [("run", "estimators.grad_variance_trace"),
                                       ("verify", "fokker_planck.fp_section")])
def test_benchmark_probe_traces_the_cli(tmp_path, sub, span):
    # perfbench/probe.py wraps the library functions the CLI calls by name;
    # a renamed or reshaped entry point breaks `perfbench/run.py --trace 1`
    cfg = write_config(tmp_path / "c.json", fp={"n_cells": 64, "T_end": 0.1})
    spans_out = tmp_path / "spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO, "perfbench", "probe.py"), "trace",
         str(spans_out), "0", "--", sub, "--config", cfg,
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    names = {name for name, *_ in read_json(spans_out)["spans"]}
    assert span in names
