"""Single-point-approximation diagnostics and IDX loading."""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest

from difftaylor import rng, spa
from difftaylor.score import PointCloudData, load_idx
from difftaylor.spa import bounds, spa_sweep


def write_idx3(path, images: np.ndarray):
    n, r, c = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, n, r, c))
        f.write(images.astype(np.uint8).tobytes())


def test_load_idx_hand_built_image(tmp_path):
    p = tmp_path / "img-ubyte"
    write_idx3(str(p), np.array([[[0, 255], [0, 255]]], dtype=np.uint8))
    data = load_idx(str(p))
    assert data.points.shape == (1, 4)
    assert np.array_equal(data.points[0], [0.0, 1.0, 0.0, 1.0])


def test_load_idx_vector_magic(tmp_path):
    p = tmp_path / "lbl-ubyte"
    with open(str(p), "wb") as f:
        f.write(struct.pack(">II", 0x00000801, 3))
        f.write(bytes([0, 128, 255]))
    data = load_idx(str(p))
    assert data.points.shape == (3, 1)
    assert data.points[1, 0] == pytest.approx(128 / 255)


def test_load_idx_error_cases(tmp_path):
    p = tmp_path / "bad"
    p.write_bytes(b"\x00\x00")
    with pytest.raises(ValueError, match="truncated"):
        load_idx(str(p))
    p.write_bytes(struct.pack(">I", 0x12345678) + b"\x00" * 12)
    with pytest.raises(ValueError, match="magic"):
        load_idx(str(p))
    p.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + b"\x00" * 4)
    with pytest.raises(ValueError, match="truncated IDX data"):
        load_idx(str(p))


def test_bounds_closed_forms():
    r, c = bounds(0.5)
    assert r == pytest.approx(1.0, abs=1e-15)
    assert c == pytest.approx(1.0 - 0.5 * 2.0 * 1.0, abs=1e-15)
    r9, _ = bounds(0.9)
    assert r9 == pytest.approx(math.sqrt(1 / 9), abs=1e-14)


def test_single_point_cloud_is_exact():
    # with one data point the approximation is the truth: rel_l2 = 0, cossim = 1
    data = PointCloudData(points=np.array([[0.3, 0.7]]))
    (rep,) = spa_sweep(data, [0.5], trials=1, seed=0, raw=True)[1]
    assert rep["rel_l2"] == pytest.approx(0.0, abs=1e-12)
    assert rep["cossim"] == pytest.approx(1.0, abs=1e-12)
    assert rep["entropy"] == pytest.approx(0.0, abs=1e-12)


def test_two_equidistant_points_entropy_log2():
    # a query noised from the midpoint symmetry axis sees both points equally
    data = PointCloudData(points=np.array([[1.0], [-1.0]]))
    nu = 0.5
    # construct the symmetric case by hand through the metrics of both points
    # at tiny noise the posterior concentrates instead
    (rep,) = spa_sweep(data, [1e-6], trials=1, seed=0, raw=True)[1]
    assert rep["entropy"] < 1e-6
    # direct check of the symmetric posterior via the underlying machinery
    from difftaylor.score import posterior_weights
    from difftaylor.schedules import fit_tanh_schedule

    sched = fit_tanh_schedule(nu, nu, 1.0)
    w = posterior_weights(np.array([0.0]), 0.0, data, sched)
    ent = -np.sum(w * np.log(w))
    assert ent == pytest.approx(math.log(2), abs=1e-12)


# frozen spa_sweep(..., raw=True) output on the weighted parity cloud of
# tests/test_score.py (one zero-weight point), nu grid (0.05, 0.5, 0.95), 3 trials, seed 5
FROZEN_SWEEP = [
    (0.05, 1.0304463578901208, 0.025359085608429366, 2.579332481436162,
     0.44781170968928113, -0.4681308159367157, 0.9971528040122218, 0.09301429923436554),
    (0.5, 0.67023196652441, 0.2279644350752652, 1.111391850022764,
     0.7210709742486455, 0.39982963165329516, 0.9684501842025374, 1.3264013134894717),
    (0.95, 0.13221263077940668, 0.0800546644669312, 0.19461822213910424,
     0.9914908081336332, 0.9846293203240677, 0.9970848364755484, 1.4919893223343124),
]
FROZEN_RAW = [  # nu, trial, rel_l2, cossim, entropy
    (0.05, 0, 2.837748217586413, -0.628092911054375, 0.003277286863437399),
    (0.05, 1, 4.300813988265193e-14, 1.0, 7.025459623329012e-13),
    (0.05, 2, 0.2535908560839066, 0.9715280401222184, 0.2757656108389566),
    (0.5, 0, 1.1602337977208683, 0.3524120011043739, 1.4868212662330742),
    (0.5, 1, 0.6718143207398253, 0.8265883065935866, 1.4146279220705198),
    (0.5, 2, 0.17864778111253632, 0.9842126150479763, 1.0777547521648214),
    (0.95, 0, 0.2031787838849789, 0.9836657487471874, 1.4944451800098846),
    (0.95, 1, 0.11757316642623224, 0.993301464515991, 1.5025103519365437),
    (0.95, 2, 0.07588594202700887, 0.9975052111377214, 1.4790124350565086),
]


def test_sweep_frozen_values_on_weighted_cloud():
    pts = np.array([[0.1, -0.4, 0.7], [0.9, 0.2, -0.3], [-0.6, 0.5, 0.0],
                    [0.3, 0.8, -0.9], [-0.2, -0.7, 0.4], [0.5, 0.0, 0.6]])
    data = PointCloudData(points=pts, weights=np.array([0.25, 0.0, 0.15, 0.2, 0.3, 0.1]))
    rows, raw_rows = spa_sweep(data, (0.05, 0.5, 0.95), 3, seed=5, raw=True)
    stats = ("nu", "rel_l2_mean", "rel_l2_p5", "rel_l2_p95", "cossim_mean",
             "cossim_p5", "cossim_p95", "entropy_mean")
    assert [tuple(r[k] for k in stats) for r in rows] == [
        pytest.approx(v, rel=1e-14, abs=1e-15) for v in FROZEN_SWEEP]
    cols = ("nu", "trial", "rel_l2", "cossim", "entropy")
    assert [tuple(r[k] for k in cols) for r in raw_rows] == [
        pytest.approx(v, rel=1e-14, abs=1e-15) for v in FROZEN_RAW]
    assert all(math.isfinite(r["entropy"]) for r in raw_rows)


def test_metrics_respect_worst_case_bound_mostly():
    # random unit-box cloud: rel_l2 <= sqrt((1-nu)/nu) in almost all trials
    pts = rng.counter_uniform(
        0, 1234, np.arange(50, dtype=np.uint64)[:, None],
        np.arange(8, dtype=np.uint64),
    )
    data = PointCloudData(points=pts)
    for nu in (0.5, 0.9):
        rows = spa_sweep(data, [nu], trials=500, seed=0, raw=True)
        summary, raw_rows = rows
        bound = bounds(nu)[0]
        frac_ok = np.mean([r["rel_l2"] <= bound for r in raw_rows])
        assert frac_ok >= 0.99
        assert summary[0]["rel_l2_p95"] <= bound * 1.05


def test_entropy_vanishes_at_tiny_noise():
    pts = rng.counter_uniform(
        0, 99, np.arange(30, dtype=np.uint64)[:, None],
        np.arange(4, dtype=np.uint64),
    )
    data = PointCloudData(points=pts)
    rows = spa_sweep(data, [1e-3], trials=200, seed=1)
    assert rows[0]["entropy_mean"] < 0.05


def test_sweep_row_schema_and_determinism():
    data = PointCloudData(points=np.random.default_rng(0).uniform(size=(20, 3)))
    a = spa_sweep(data, [0.3, 0.6], trials=50, seed=4)
    b = spa_sweep(data, [0.3, 0.6], trials=50, seed=4)
    assert a == b
    cols = {"nu", "rel_l2_mean", "rel_l2_p5", "rel_l2_p95", "cossim_mean",
            "cossim_p5", "cossim_p95", "entropy_mean", "bound_rel_l2",
            "bound_cossim"}
    assert set(a[0]) == cols
    assert a[0]["nu"] == 0.3 and a[1]["nu"] == 0.6


def test_sweep_subsamples_large_clouds_deterministically(monkeypatch):
    monkeypatch.setattr(spa, "SUBSAMPLE_CAP", 100)
    pts = np.random.default_rng(1).uniform(size=(500, 2))
    a = spa_sweep(PointCloudData(points=pts), [0.5], trials=40, seed=2)
    b = spa_sweep(PointCloudData(points=pts), [0.5], trials=40, seed=2)
    assert a == b


def test_sweep_validates_grid():
    data = PointCloudData(points=np.zeros((1, 1)))
    with pytest.raises(ValueError, match="nonempty"):
        spa_sweep(data, [], trials=1)
    with pytest.raises(ValueError, match="lie in"):
        spa_sweep(data, [1.5], trials=1)
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            spa_sweep(data, [0.5], trials)


def test_sweep_names_a_nu_whose_noise_vanishes_against_the_cloud():
    # sqrt(1e-200) = 1e-100 is lost in 1 + 1e-100, so the single-point score is 0
    data = PointCloudData(points=np.ones((3, 2)))
    with pytest.raises(ValueError, match="nu=1e-200 is too small"):
        spa_sweep(data, [1e-3, 1e-200], trials=4)
