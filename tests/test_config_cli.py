"""Experiment config round-trips and the command-line harness."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from difftaylor.cli import main
from difftaylor.config import PRESETS, ExperimentConfig


def test_config_json_round_trip():
    cfg = ExperimentConfig(solver="taylor3", nu0=5e-4, nuT=0.995, steps=16,
                           clip=[-3.0, 3.0])
    back = ExperimentConfig.from_json(cfg.to_json())
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
                 "--record-trajectory", "--trajectory-out", str(traj),
                 "--out", str(out)])
    assert code == 0
    lines = traj.read_text().strip().splitlines()
    assert lines[0] == "run_id,step,t,h,dim0,dim1"
    assert len(lines) == 1 + 2 * 5  # header + (N+1) rows per run


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


def test_cli_exit_code_2_on_config_errors(capsys, tmp_path):
    assert main(["sample", "--nu0", "2.0"]) == 2
    assert main(["order", "--solver", "ddim", "--preset", "cond-ii"]) == 2
    assert main(["schedule-dump", "--grid", "1"]) == 2
    assert main(["sample", "--batch", "0"]) == 2
    assert main(["sample", "--dim", "0"]) == 2
    # the last Heun/RK4 stage evaluates the score at t=0, where nu(0)=0 here
    for solver, schedule in [("heun", "linear"), ("rk4", "cosine")]:
        capsys.readouterr()
        assert main(["sample", "--solver", solver, "--schedule", schedule]) == 2
        err = capsys.readouterr().err
        assert f"solver '{solver}'" in err and "nu(0)=0" in err
    # a config file bypasses argparse's choices; the sampler rejects the name
    cfg = tmp_path / "leapfrog.json"
    cfg.write_text('{"solver": "leapfrog"}')
    for command in ("sample", "order"):
        assert main([command, "--config", str(cfg)]) == 2
        assert "'leapfrog'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--solver", "not-a-solver"])
    assert exc.value.code == 2


def test_cli_missing_dataset_file(tmp_path):
    assert main(["sample", "--oracle", "mixture",
                 "--dataset", str(tmp_path / "missing.csv")]) == 2


def run_cli(args, env_extra=None, cwd=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "difftaylor.cli", *args],
                          env=env, cwd=cwd, capture_output=True, text=True)


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
