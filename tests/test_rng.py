"""Counter-based RNG: determinism, stream independence, distribution sanity."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from difftaylor import rng


def test_uniform_open_interval():
    u = rng.counter_uniform(0, 1, np.arange(10_000, dtype=np.uint64))
    assert np.all(u > 0.0) and np.all(u < 1.0)


def test_determinism_exact():
    a = rng.counter_normal(42, 7, np.arange(100, dtype=np.uint64))
    b = rng.counter_normal(42, 7, np.arange(100, dtype=np.uint64))
    assert np.array_equal(a, b)


def test_batch_layout_invariance():
    # drawing trajectories one at a time equals drawing them as a block
    block = rng.step_normals(3, rng.PURPOSE_STEP_W, np.arange(16, dtype=np.uint64), 5, 4)
    singles = np.stack([
        rng.step_normals(3, rng.PURPOSE_STEP_W, np.uint64(i), 5, 4) for i in range(16)
    ])
    assert np.array_equal(block, singles)


@given(
    seed=st.integers(min_value=0, max_value=2**63),
    words=st.lists(st.integers(min_value=0, max_value=2**63), min_size=1, max_size=4),
)
@settings(max_examples=50, deadline=None)
def test_distinct_seeds_distinct_streams(seed, words):
    a = rng.counter_bits(seed, *words)
    b = rng.counter_bits(seed + 1, *words)
    assert a != b


def test_counter_bits_broadcasts_like_hashing_each_element():
    # each round runs at the shape of the words so far; the bits are those of
    # hashing every element's words one at a time
    a = np.arange(3, dtype=np.uint64)[:, None]
    b = np.arange(4, dtype=np.uint64) * 1_000_003
    got = rng.counter_bits(9, 2, a, 5, b)
    ref = np.array([[rng.counter_bits(9, 2, i, 5, j) for j in b] for i in a[:, 0]])
    assert got.shape == (3, 4)
    assert got.tobytes() == ref.tobytes()


def test_purpose_separation():
    tr = np.arange(64, dtype=np.uint64)
    w = rng.step_normals(0, rng.PURPOSE_STEP_W, tr, 1, 2)
    u = rng.step_normals(0, rng.PURPOSE_STEP_U, tr, 1, 2)
    assert not np.allclose(w, u)


def test_moments_roughly_standard_normal():
    g = rng.counter_normal(0, 1, np.arange(200_000, dtype=np.uint64))
    assert abs(g.mean()) < 0.01
    assert abs(g.var() - 1.0) < 0.01
    assert abs(np.mean(g**3)) < 0.02


def test_correlated_pair_covariances():
    # (w~, z~) = (sqrt(h) w, h sqrt(h) z) must hit (h, h^2/2, h^3/3)
    h = 0.01
    tr = np.arange(1_000_000, dtype=np.uint64)
    w, z = rng.correlated_pair(rng.TrajectoryStream(0, rng.PURPOSE_STEP_W, tr),
                               rng.TrajectoryStream(0, rng.PURPOSE_STEP_U, tr), 1, 1)
    wt = np.sqrt(h) * w[:, 0]
    zt = h * np.sqrt(h) * z[:, 0]
    assert abs(np.mean(wt * wt) / h - 1.0) < 0.01
    assert abs(np.mean(wt * zt) / (h * h / 2) - 1.0) < 0.01
    assert abs(np.mean(zt * zt) / (h**3 / 3) - 1.0) < 0.01


# d = 2 takes the one-xor-per-dim path (the Langevin particles' draw), d = 5
# and d = 64 the broadcast xor (64 is the mixture sampler's draw)
@pytest.mark.parametrize("d", [1, 2, 5, 64])
@pytest.mark.parametrize("traj", [np.uint64(3), np.arange(7, dtype=np.uint64),
                                  np.arange(12, dtype=np.uint64).reshape(3, 4) * 1_000_003],
                         ids=["0d", "1d", "3x4"])
@pytest.mark.parametrize("seed", [0, 7, 2**63 - 1, 2**64 - 1])
def test_trajectory_stream_matches_counter_normal(seed, traj, d):
    stream = rng.TrajectoryStream(seed, rng.PURPOSE_STEP_W, traj)
    for step in (0, 1, 999):
        got = stream.normals(step, d)
        ref = rng.counter_normal(seed, rng.PURPOSE_STEP_W, np.asarray(traj)[..., None], step,
                                 np.arange(d, dtype=np.uint64))
        assert got.shape == ref.shape == np.shape(traj) + (d,)
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_trajectory_stream_rejects_seeds_outside_64_bits(seed):
    with pytest.raises(ValueError, match="seed"):
        rng.TrajectoryStream(seed, rng.PURPOSE_STEP_W, np.arange(2, dtype=np.uint64))
