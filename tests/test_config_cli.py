"""Experiment config round-trips and the command-line harness."""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from difftaylor.cli import build_parser, main
from difftaylor.config import FIELD_NAMES, PRESETS, ExperimentConfig


def test_config_json_round_trip():
    cfg = ExperimentConfig(solver="taylor3", nu0=5e-4, nuT=0.995, steps=16,
                           clip=[-3.0, 3.0])
    back = ExperimentConfig.from_json(json.dumps(dataclasses.asdict(cfg)))
    assert back == cfg


def test_config_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown config fields"):
        ExperimentConfig.from_json('{"solver": "ddim", "typo_field": 1}')


def test_config_presets():
    cfg = ExperimentConfig().apply_preset("cond-i")
    assert (cfg.nu0, cfg.nuT) == PRESETS["cond-i"]
    with pytest.raises(ValueError, match="preset"):
        ExperimentConfig().apply_preset("cond-iii")


def test_config_clip_validation():
    cfg = ExperimentConfig(clip=[2.0, 1.0])
    with pytest.raises(ValueError, match="clip"):
        cfg.clip_tuple()
    assert ExperimentConfig().clip_tuple() is None


def test_config_oracle_requires_dataset():
    cfg = ExperimentConfig(oracle="mixture")
    with pytest.raises(ValueError, match="dataset"):
        cfg.score_field()


def test_cli_choices_are_the_config_tables():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    named = [a for p in sub.choices.values() for a in p._actions if a.dest in FIELD_NAMES]
    assert {a.dest for a in named} == set(FIELD_NAMES)
    assert all(a.choices is FIELD_NAMES[a.dest] for a in named)


@pytest.mark.parametrize("oracle", ["delta", "gaussian"])
def test_cli_dataset_needs_the_mixture_oracle(tmp_path, capsys, oracle):
    # the dataset is named but never opened, so a missing file cannot pass
    argv = ["sample", "--oracle", oracle, "--dataset", str(tmp_path / "missing.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "--dataset" in err and repr(oracle) in err


def test_cli_sample_writes_summary_csv(tmp_path):
    out = tmp_path / "summary.csv"
    code = main(["sample", "--solver", "ddim", "--preset", "cond-ii",
                 "--steps", "8", "--batch", "3", "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "run_id,solver,N,nfe,final_norm"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[:4] == ["0", "ddim", "8", "8"]
    float(first[4])


def test_cli_sample_trajectory_csv(tmp_path):
    out = tmp_path / "s.csv"
    traj = tmp_path / "t.csv"
    code = main(["sample", "--solver", "euler", "--preset", "cond-ii",
                 "--steps", "4", "--batch", "2", "--dim", "2",
                 "--trajectory-out", str(traj), "--out", str(out)])
    assert code == 0
    lines = traj.read_text().strip().splitlines()
    assert lines[0] == "run_id,step,t,h,dim0,dim1"
    assert len(lines) == 1 + 2 * 5  # header + (N+1) rows per run
    # --trajectory-out alone records the trajectory; the old flag is gone
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--record-trajectory", "--out", str(out)])
    assert exc.value.code == 2


def test_cli_schedule_dump(tmp_path):
    out = tmp_path / "sched.csv"
    code = main(["schedule-dump", "--preset", "cond-i", "--grid", "11",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,lambda,nu,beta,beta_d1,beta_d2"
    assert len(lines) == 12
    row0 = [float(v) for v in lines[1].split(",")]
    assert row0[0] == 0.0
    assert row0[2] == pytest.approx(5e-4, abs=1e-12)


def test_cli_spa_sweep_synthetic(tmp_path):
    out = tmp_path / "spa.csv"
    code = main(["spa-sweep", "--nu-grid", "0.5,0.9", "--trials", "20",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("nu,rel_l2_mean")
    assert len(lines) == 3


def test_cli_symdiff_dump(tmp_path, capsys):
    out = tmp_path / "ops.txt"
    assert main(["symdiff-dump", "--out", str(out)]) == 0
    text = out.read_text()
    assert "Lsharp(-fsharp)" in text


def test_cli_symdiff_dump_frozen_sha256(tmp_path):
    # the whole exact-arithmetic report: operator table and coefficient series
    out = tmp_path / "ops.txt"
    assert main(["symdiff-dump", "--out", str(out)]) == 0
    blob = out.read_bytes()
    assert blob.count(b"\n") == 34
    assert hashlib.sha256(blob).hexdigest() == (
        "8287423c086465b8a0990426910788e1968c3e72db83d1e4e8c8ef814eab7af7")


def test_cli_exit_code_2_on_config_errors(capsys, tmp_path, monkeypatch):
    assert main(["sample", "--nu0", "2.0"]) == 2
    assert main(["order", "--solver", "ddim", "--preset", "cond-ii"]) == 2
    assert main(["schedule-dump", "--grid", "1"]) == 2
    # the last Heun/RK4 stage evaluates the score at t=0, where nu(0)=0 here
    for solver, schedule in [("heun", "linear"), ("rk4", "cosine")]:
        capsys.readouterr()
        assert main(["sample", "--solver", solver, "--schedule", schedule]) == 2
        err = capsys.readouterr().err
        assert f"solver '{solver}'" in err and "nu(0)=0" in err
    # a config file bypasses argparse's choices; the config check rejects the name
    cfg = tmp_path / "leapfrog.json"
    cfg.write_text('{"solver": "leapfrog"}')
    for command in ("sample", "order"):
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config field 'solver'" in err and "'leapfrog'" in err
    # config values are checked against the field types, a bool is no number, and
    # a named field takes only the names of its table
    for field, value in [("clip", "[1]"), ("clip", "1"), ("clip", '["a", "b"]'),
                         ("steps", '"8"'), ("nu0", '"x"'), ("batch", "2.5"),
                         ("seed", "true"), ("seed", "-1"), ("x0", '["a"]'),
                         ("schedule", '"sigmoid"'), ("step_schedule", '"geometric"'),
                         ("oracle", '"idx"'), ("oracle", '"uniform"')]:
        cfg.write_text(f'{{"{field}": {value}}}')
        assert main(["sample", "--config", str(cfg)]) == 2
        assert field in capsys.readouterr().err
    # a non-finite horizon is refused by the schedule of every name
    for schedule in FIELD_NAMES["schedule"]:
        cfg.write_text(f'{{"T": Infinity, "schedule": "{schedule}"}}')
        assert main(["sample", "--config", str(cfg)]) == 2
        assert "T must be positive and finite, got inf" in capsys.readouterr().err
    # a horizon so small that the tanh schedule's rate overflows is named, not a crash
    for argv in (["sample"], ["schedule-dump"], ["order", "--solver", "rk4"]):
        assert main([*argv, "--T", "1e-300"]) == 2
        assert "T=1e-300 is too small" in capsys.readouterr().err
    assert main(["fpe-demo", "--extent", "1e160", "--particles", "10"]) == 2
    assert "grid extent L=1e+160" in capsys.readouterr().err
    # non-finite oracle inputs and out-of-range schedule parameters name the input
    for text, message in [('{"x0": [NaN]}', "x0 must be finite"),
                          ('{"x0": [Infinity]}', "x0 must be finite"),
                          ('{"oracle": "gaussian", "x0": [-Infinity]}', "mean must be finite"),
                          ('{"oracle": "gaussian", "var": NaN}', "var must be finite"),
                          ('{"oracle": "gaussian", "var": Infinity}', "var must be finite"),
                          ('{"schedule": "linear", "beta0": -5}', "beta0 must be finite"),
                          ('{"schedule": "linear", "beta0": 0, "beta1": 0}', "beta0 + beta1"),
                          ('{"schedule": "cosine", "threshold": 0}', "threshold must be")]:
        cfg.write_text(text)
        # schedule-dump reads the schedule but no oracle
        for command in ("sample", "schedule-dump") if "schedule" in text else ("sample",):
            assert main([command, "--config", str(cfg)]) == 2
            assert message in capsys.readouterr().err
    # a config file bypasses argparse's sizes too; the sampler's checks still hold
    for text, message in [('{"batch": 0}', "at least 1"), ('{"d": 0}', "at least 1"),
                          ('{"steps": 0}', "positive integer")]:
        cfg.write_text(text)
        assert main(["sample", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err
    # argparse rejects these before the command runs and names the flag
    for argv, flag in [(["sample", "--solver", "not-a-solver"], "--solver"),
                       (["sample", "--clip", "1,x"], "--clip"),
                       (["spa-sweep", "--nu-grid", "0.5,x"], "--nu-grid"),
                       (["sample", "--seed", "-1"], "--seed"),
                       (["sample", "--seed", str(2**64)], "--seed"),
                       (["fpe-demo", "--seed", "-1"], "--seed"),
                       (["sample", "--dim", "0"], "--dim"),
                       (["sample", "--dim", "-1"], "--dim"),
                       (["sample", "--batch", "0"], "--batch"),
                       (["sample", "--batch", "-1"], "--batch"),
                       (["sample", "--steps", "0"], "--steps"),
                       (["sample", "--steps", "-1"], "--steps"),
                       (["order", "--dim", "-1"], "--dim"),
                       (["sample", "--T", "inf"], "--T"),
                       (["sample", "--T", "0"], "--T"),
                       (["order", "--solver", "euler", "--T", "inf"], "--T"),
                       (["schedule-dump", "--T", "inf"], "--T"),
                       (["spa-sweep", "--trials", "0"], "--trials"),
                       (["spa-sweep", "--trials", "-1"], "--trials"),
                       (["fpe-demo", "--particles", "0"], "--particles"),
                       (["fpe-demo", "--grid", "0"], "--grid"),
                       (["fpe-demo", "--extent", "-2"], "--extent"),
                       (["fpe-demo", "--sigma", "0"], "--sigma"),
                       (["fpe-demo", "--sigma", "-1"], "--sigma"),
                       (["fpe-demo", "--D", "0"], "--D"),
                       (["fpe-demo", "--D", "-1"], "--D"),
                       (["fpe-demo", "--h", "0"], "--h"),
                       (["fpe-demo", "--h", "nan"], "--h"),
                       (["fpe-demo", "--fpe-steps", "0"], "--fpe-steps"),
                       (["fpe-demo", "--fpe-steps", "-1"], "--fpe-steps"),
                       (["order", "--base-steps", "0"], "--base-steps"),
                       (["order", "--order-batch", "0"], "--order-batch"),
                       (["sample", "--workers", "-5"], "--workers"),
                       (["order", "--workers", "0"], "--workers")]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}" in capsys.readouterr().err
    assert main(["sample", "--clip", "1"]) == 2
    assert "clip" in capsys.readouterr().err
    # too few grids for an order fit are refused before the first one runs
    assert main(["order", "--solver", "ito_taylor", "--order-batch", "2000",
                 "--halvings", "1"]) == 2
    assert "halvings" in capsys.readouterr().err
    # the weak-order study runs 1-dim data only
    assert main(["order", "--solver", "euler_maruyama", "--dim", "3"]) == 2
    err = capsys.readouterr().err
    assert "--dim" in err and "'euler_maruyama'" in err
    # the deterministic order study runs one trajectory on one thread
    for flag, value in [("--order-batch", "1000"), ("--workers", "2")]:
        assert main(["order", "--solver", "rk4", flag, value]) == 2
        err = capsys.readouterr().err
        assert flag in err and "'rk4'" in err
    for threads in ("abc", "0", "-3"):
        monkeypatch.setenv("DSL_THREADS", threads)
        assert main(["sample"]) == 2
        assert "DSL_THREADS" in capsys.readouterr().err


@pytest.mark.parametrize("argv,named", [
    (["fpe-demo", "--sigma", "1e155", "--particles", "10", "--fpe-steps", "2"], "--sigma"),
    (["fpe-demo", "--sigma", "1e-200", "--particles", "10", "--fpe-steps", "2"], "--sigma"),
    (["spa-sweep", "--nu-grid", "1e-200,1e-3", "--trials", "3"], "nu=1e-200"),
    (["sample", "--solver", "euler", "--schedule", "linear", "--T", "1e-30"], "T=1e-30"),
    (["sample", "--solver", "ddim", "--schedule", "linear", "--T", "1e-30"], "T=1e-30"),
    (["schedule-dump", "--schedule", "cosine", "--T", "3"], "T=3.0"),
])
def test_cli_out_of_range_numbers_exit_2_naming_the_input(tmp_path, capsys, argv, named):
    # each of these used to crash with exit 1 or run into an unrelated error
    assert main([*argv, "--out", str(tmp_path / "o")]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("solver,n0", [("euler_maruyama", 32), ("ito_taylor", 16)])
def test_cli_order_runs_the_studys_own_grid(tmp_path, capsys, solver, n0):
    # without size flags the weak-order study keeps its own n0 and 4 halvings
    out = tmp_path / "order.csv"
    argv = ["order", "--solver", solver, "--nu0", "1e-4", "--nuT", "0.8",
            "--order-batch", "2000", "--workers", "1", "--out", str(out)]
    for extra, halvings in [([], 4), (["--halvings", "2"], 2)]:
        assert main(argv + extra) == 0
        assert "None" not in capsys.readouterr().out
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        for moment in ("mean", "var"):
            hs = [float(r[2]) for r in rows if r[1] == moment]
            assert hs == [1 / (n0 * 2**j) for j in range(halvings + 1)]


CONFIG_FLAGS = {"--solver", "--schedule", "--nu0", "--nuT", "--T", "--steps",
                "--step-schedule", "--oracle", "--dataset", "--dim", "--batch", "--seed",
                "--clip", "--preset", "--workers"}
OPTIONS = {
    "sample": CONFIG_FLAGS | {"--config", "--out", "--trajectory-out"},
    "order": {"--config", "--out", "--solver", "--schedule", "--nu0", "--nuT", "--T",
              "--dim", "--seed", "--preset", "--workers", "--halvings", "--base-steps",
              "--order-batch"},
    "schedule-dump": {"--config", "--out", "--schedule", "--nu0", "--nuT", "--T",
                      "--preset", "--grid"},
    "spa-sweep": {"--config", "--out", "--dataset", "--seed", "--nu-grid", "--trials",
                  "--raw-out"},
    "symdiff-dump": {"--out"},
    "fpe-demo": {"--particles", "--grid", "--extent", "--sigma", "--D", "--h",
                 "--fpe-steps", "--seed", "--out"},
}


def test_cli_option_sets_are_pinned():
    # each subcommand accepts exactly the options its command reads
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
           for name, p in sub.choices.items()}
    assert got == OPTIONS


UNREAD_FLAGS = [(command, flag) for command in ("order", "schedule-dump", "spa-sweep")
                for flag in sorted(CONFIG_FLAGS - OPTIONS[command])] + [("order", "--reference")]


@pytest.mark.parametrize("command,flag", UNREAD_FLAGS)
def test_cli_rejects_flags_the_command_does_not_read(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, flag, "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and flag in err


@pytest.mark.parametrize("solver", FIELD_NAMES["solver"])
def test_cli_huge_linear_horizon_exits_2(capsys, solver):
    # beta*h overflows at T=1e300: euler, taylor2 and euler_maruyama rows turn
    # inf and taylor3 and ito_taylor overflow a float power, so step_table
    # names T and the step; heun, rk4 and ddim are refused by nu(0)=0 first
    assert main(["sample", "--solver", solver, "--schedule", "linear", "--T", "1e300"]) == 2
    err = capsys.readouterr().err
    if solver in ("heun", "rk4"):
        assert "nu(0)=0" in err
    elif solver == "ddim":
        assert "nu_prev" in err
    else:
        assert f"solver '{solver}' with T=1e+300: the step from t=1e+300 overflows" in err


def test_cli_fpe_demo_names_sigma_when_particles_blow_up(capsys):
    # sigma**2 = 1e-200 is a valid float, but grad U ~ 1e200 throws the
    # particles past the float range within two steps
    with np.errstate(all="ignore"):
        assert main(["fpe-demo", "--sigma", "1e-100", "--particles", "10",
                     "--fpe-steps", "2", "--grid", "8"]) == 2
    err = capsys.readouterr().err
    assert "not finite at step 2 with sigma=1e-100, h=5e-05" in err


def test_cli_fpe_demo(tmp_path, capsys):
    argv = ["fpe-demo", "--particles", "2000", "--grid", "16", "--fpe-steps", "20",
            "--out", str(tmp_path / "run")]
    assert main(argv) == 0
    assert "tv=" in capsys.readouterr().out
    grid = (tmp_path / "run_grid.csv").read_text().splitlines()
    assert len(grid) == 16 and all(len(row.split(",")) == 16 for row in grid)
    particles = (tmp_path / "run_particles.csv").read_text().splitlines()
    assert particles[0] == "x,y" and len(particles) == 1 + 2000
    assert main(argv + ["--h", "1e-2"]) == 2
    assert "h=0.01 unstable" in capsys.readouterr().err


def test_cli_missing_dataset_file(tmp_path):
    assert main(["sample", "--oracle", "mixture",
                 "--dataset", str(tmp_path / "missing.csv")]) == 2


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_cli_rejects_non_finite_dataset(tmp_path, capsys, bad):
    pts = tmp_path / "pts.csv"
    pts.write_text(f"0.1,0.2\n0.3,0.4\n0.5,{bad}\n0.7,{bad}\n")
    out = tmp_path / "spa.csv"
    assert main(["spa-sweep", "--dataset", str(pts), "--nu-grid", "0.5",
                 "--trials", "4", "--out", str(out)]) == 2
    assert "row 2" in capsys.readouterr().err
    assert not out.exists()


def test_cli_dim_must_match_the_dataset(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("0.1,0.2\n0.3,0.4\n")
    argv = ["sample", "--oracle", "mixture", "--dataset", str(pts), "--steps", "4",
            "--out", str(tmp_path / "s.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "--dim 1" in err and "dimension 2" in err and str(pts) in err
    assert main(argv + ["--dim", "2"]) == 0


def run_cli(args, env_extra=None, cwd=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "difftaylor.cli", *args],
                          env=env, cwd=cwd, capture_output=True, text=True)


def test_import_builds_no_parser_and_fills_no_cache():
    code = ("import difftaylor.cli, difftaylor.schedules as s; "
            "print(s._evaluate.cache_info().currsize, difftaylor.cli._parser.cache_info().currsize)")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["0", "0"]


def test_shared_parser_keeps_no_state_between_calls(tmp_path):
    fresh, seeded, after = (tmp_path / f"{tag}.csv" for tag in ("fresh", "seeded", "after"))
    r = run_cli(["sample", "--out", str(fresh)])
    assert r.returncode == 0, r.stderr
    assert main(["sample", "--seed", "3", "--batch", "2", "--out", str(seeded)]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--batch", "0"])
    assert exc.value.code == 2
    assert main(["sample", "--out", str(after)]) == 0
    assert seeded.read_bytes() != fresh.read_bytes()
    assert after.read_bytes() == fresh.read_bytes()


def test_cli_outputs_independent_of_thread_pool(tmp_path):
    outs = []
    for threads in ("1", "4"):
        out = tmp_path / f"out_{threads}.csv"
        r = run_cli(["sample", "--solver", "ito_taylor", "--preset", "cond-ii",
                     "--steps", "8", "--batch", "64", "--seed", "3",
                     "--out", str(out)], env_extra={"DSL_THREADS": threads})
        assert r.returncode == 0, r.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cli_rerun_byte_identical(tmp_path):
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.csv"
        r = run_cli(["sample", "--solver", "heun", "--preset", "cond-i",
                     "--steps", "8", "--batch", "16", "--seed", "9",
                     "--out", str(out)])
        assert r.returncode == 0, r.stderr
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


FROZEN_SAMPLE_SHA256 = {
    "ito_taylor": ("d32d13e47f5d7504011c95880cd771aba835fa7fc7a1b6510987a1e89342ceb2",
                   "fc1743744f4e389024626484277c7cf2e70b0a365123f63e6b05d39ade30a019"),
    "heun": ("d50276bbe8ef2d01c6c7e6b80ebfed95b9dfdcb39b1b799cbae9216e9953989f",
             "20803b8b0a533d5bf6dcba548ea7d0e18c65b23e08d001e71ee643c976cdfbd4"),
}


@pytest.mark.parametrize("workers", ["1", "3"])
@pytest.mark.parametrize("solver", sorted(FROZEN_SAMPLE_SHA256))
def test_cli_sample_csv_frozen_sha256(tmp_path, solver, workers):
    summary, traj = tmp_path / "s.csv", tmp_path / "t.csv"
    code = main(["sample", "--solver", solver, "--preset", "cond-ii", "--steps", "5",
                 "--batch", "10", "--dim", "2", "--seed", "4", "--workers", workers,
                 "--out", str(summary), "--trajectory-out", str(traj)])
    assert code == 0
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (summary, traj))
    assert digests == FROZEN_SAMPLE_SHA256[solver]
