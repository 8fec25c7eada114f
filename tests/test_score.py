"""Analytic score oracles: frozen values, identities, mixture cross-checks."""

from __future__ import annotations

import math
import struct
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from difftaylor import rng, score
from difftaylor.schedules import eval_schedule, fit_tanh_schedule
from difftaylor.score import (
    PointCloudData,
    _gmm_posterior,
    _log_posterior,
    _mixture_posterior,
    delta_field,
    gaussian_field,
    load_point_cloud,
    mixture_field,
    posterior_weights,
    score_delta,
    score_gaussian,
    score_mixture_exact,
)
from difftaylor.spa import spa_sweep

# constant schedule with nu identically 0.36, for frozen-value checks
SCHED_036 = fit_tanh_schedule(0.36, 0.36, 1.0)
SCHED_05 = fit_tanh_schedule(0.5, 0.5, 1.0)


def test_delta_score_frozen_value():
    # (1 - 0.8*1)/0.6 = 1/3
    s = score_delta(np.array([1.0]), 0.0, np.array([1.0]), SCHED_036)
    assert s[0] == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_gaussian_score_frozen_value():
    # nu=0.5, mean=0, var=1: sqrt(0.5)*2/(0.5+0.5) = sqrt(2) at x=2
    s = score_gaussian(np.array([2.0]), 0.0, np.array([0.0]), 1.0, SCHED_05)
    assert s[0] == pytest.approx(math.sqrt(2.0), abs=1e-14)


def test_gaussian_score_zero_var_matches_delta():
    x = np.array([0.7, -1.2])
    x0 = np.array([0.3, 0.4])
    a = score_gaussian(x, 0.0, x0, 0.0, SCHED_036)
    b = score_delta(x, 0.0, x0, SCHED_036)
    assert np.allclose(a, b, atol=1e-14)


def test_gaussian_score_rejects_negative_var():
    with pytest.raises(ValueError, match="var"):
        score_gaussian(np.array([0.0]), 0.0, np.array([0.0]), -1.0, SCHED_05)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_delta_and_gaussian_fields_refuse_non_finite_inputs(bad):
    with pytest.raises(ValueError, match="delta point x0 must be finite"):
        delta_field([0.0, bad])
    with pytest.raises(ValueError, match="gaussian mean must be finite"):
        gaussian_field([bad], 1.0)
    for var in (bad, -1.0):
        with pytest.raises(ValueError, match="gaussian var must be finite and nonnegative"):
            gaussian_field([0.0], var)


def test_score_undefined_at_zero_nu():
    sched = fit_tanh_schedule(1e-4, 0.99, 1.0)
    data = PointCloudData(points=np.zeros((1, 1)))
    from difftaylor.schedules import Linear, NoiseSchedule

    lin = NoiseSchedule(kind=Linear(beta0=0.1, beta1=9.95), T=1.0)
    with pytest.raises(ZeroDivisionError):
        score_mixture_exact(np.array([1.0]), 0.0, data, lin)


def test_mixture_single_point_reduces_to_delta():
    data = PointCloudData(points=np.array([[0.5, -0.25]]))
    x = np.array([1.0, 2.0])
    a = score_mixture_exact(x, 0.3, data, SCHED_036)
    b = score_delta(x, 0.3, data.points[0], SCHED_036)
    assert np.allclose(a, b, atol=1e-14)


def test_mixture_matches_high_precision_oracle():
    # 50-digit direct computation of -sqrt(nu) grad log p for a 3-point cloud
    pts = np.array([[0.2, -0.4], [1.0, 0.5], [-0.8, 0.1]])
    w = np.array([0.2, 0.5, 0.3])
    data = PointCloudData(points=pts, weights=w)
    nu = 0.36
    x = np.array([0.3, 0.1])
    got = score_mixture_exact(x, 0.0, data, SCHED_036)
    with mpmath.workdps(50):
        mnu = mpmath.mpf("0.36")
        root = mpmath.sqrt(1 - mnu)
        num = [mpmath.mpf(0), mpmath.mpf(0)]
        den = mpmath.mpf(0)
        for (p, wi) in zip(pts, w):
            c = [root * mpmath.mpf(float(v)) for v in p]
            sq = sum((mpmath.mpf(float(xi)) - ci) ** 2 for xi, ci in zip(x, c))
            g = mpmath.mpf(float(wi)) * mpmath.e ** (-sq / (2 * mnu))
            den += g
            for j in range(2):
                num[j] += g * (mpmath.mpf(float(x[j])) - c[j])
        expected = [float(nj / den / mpmath.sqrt(mnu)) for nj in num]
    assert np.allclose(got, expected, atol=1e-13)


# weighted cloud with a zero-weight point, shared with the SPA parity test
PARITY_PTS = np.array([[0.1, -0.4, 0.7], [0.9, 0.2, -0.3], [-0.6, 0.5, 0.0],
                       [0.3, 0.8, -0.9], [-0.2, -0.7, 0.4], [0.5, 0.0, 0.6]])
PARITY_W = np.array([0.25, 0.0, 0.15, 0.2, 0.3, 0.1])
PARITY_X = np.array([[0.2, -0.1, 0.5], [-0.8, 0.6, 0.3], [1.1, -0.9, -0.2]])
# frozen outputs at t = 0.05, 0.3, 0.9 (nu = 2.65e-4, 0.0269, 0.973)
FROZEN_POSTERIOR = {
    0.05: (
        [[7.169269664366985e-25, 0.0, 0.0, 0.0, 0.0, 1.0],
         [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
         [6.880022922239989e-205, 0.0, 0.0, 0.0, 2.3557798916009926e-229, 1.0]],
        [[-18.41294898291452, -6.139007190933668, -6.134120083069885],
         [-12.28290148973112, 6.143079780820148, 18.417021572801],
         [36.83811573548849, -55.251064718403015, -49.107170419605566]],
    ),
    0.3: (
        [[0.5930610358623023, 0.0, 4.974098160770409e-10, 5.302363025049122e-22,
          0.0005576436522435129, 0.40638131998804444],
         [4.3462051404899135e-15, 0.0, 0.9999999999999944, 7.872428789930325e-21,
          1.00699725817043e-15, 7.577118897262315e-17],
         [0.024644888478936797, 0.0, 4.010087302179609e-25, 5.81024574021223e-18,
          0.017178176607098177, 0.958176934913965]],
        [[-0.3589329940191002, 0.8199187734478857, -0.9167796960982153],
         [-1.269621414376123, 0.6513142784825597, 1.830166050738981],
         [3.8332817720655354, -5.35880740986567, -4.825087693992081]],
    ),
    0.9: (
        [[0.26380954728175554, 0.0, 0.1437425112999524, 0.17997644460868617,
          0.30705229711595483, 0.10541919969365106],
         [0.24483257772742825, 0.0, 0.17060774502105328, 0.19613903844298364,
          0.2922083078318054, 0.09621233097672947],
         [0.26312066843976395, 0.0, 0.12415027351188786, 0.19001602002178067,
          0.3156157158070745, 0.10709732221949293]],
        [[0.20511381593426278, -0.08408215838762981, 0.4723012112435686],
         [-0.8059809680770523, 0.6180733924249806, 0.27608089442560185],
         [1.1150161907641338, -0.8936776720471978, -0.23633630137496417]],
    ),
}


@pytest.mark.parametrize("t", sorted(FROZEN_POSTERIOR))
def test_posterior_frozen_bits_with_zero_weight_point(t):
    data = PointCloudData(points=PARITY_PTS, weights=PARITY_W)
    sched = fit_tanh_schedule(1e-4, 0.99, 1.0)
    w = posterior_weights(PARITY_X, t, data, sched)
    s = score_mixture_exact(PARITY_X, t, data, sched)
    want_w, want_s = FROZEN_POSTERIOR[t]
    assert np.array_equal(w, want_w)
    assert np.array_equal(s, want_s)
    # a -inf log-weight goes through the softmax as an exact zero
    assert np.all(w[:, 1] == 0.0)


def test_posterior_weights_sum_to_one_and_concentrate():
    # near one noised center with gap^2/nu large the posterior is nearly a point mass
    pts = np.array([[0.0], [10.0]])
    data = PointCloudData(points=pts)
    sched = SCHED_036  # gap^2/nu = (0.8*10)^2/0.36 >> 40
    w = posterior_weights(np.array([0.0]), 0.0, data, sched)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert w[0] > 0.999


@given(
    x=st.floats(min_value=-3, max_value=3),
    shift=st.floats(min_value=-2, max_value=2),
)
@settings(max_examples=50, deadline=None)
def test_delta_translation_equivariance(x, shift):
    # moving data and query together only moves the score by the scaling mismatch
    nu = 0.36
    a = score_delta(np.array([x]), 0.0, np.array([0.0]), SCHED_036)
    b = score_delta(np.array([x + shift]), 0.0, np.array([shift]), SCHED_036)
    expected_gap = (1.0 - math.sqrt(1.0 - nu)) * shift / math.sqrt(nu)
    assert b[0] - a[0] == pytest.approx(expected_gap, abs=1e-12)


def test_space_derivative_of_mixture_score_is_bounded_below():
    # d/dx of the delta score is exactly 1/sqrt(nu)
    sched = fit_tanh_schedule(1e-3, 0.9, 1.0)
    t = 0.5
    nu = eval_schedule(sched, t).nu
    d = 1e-6
    fd = (score_delta(np.array([1.0 + d]), t, np.array([0.2]), sched)
          - score_delta(np.array([1.0 - d]), t, np.array([0.2]), sched)) / (2 * d)
    assert fd[0] == pytest.approx(1.0 / math.sqrt(nu), rel=1e-6)


def test_time_derivative_matches_ideal_rule():
    # dS/dt = (beta/(2 sqrt(nu))) x - (beta/(2 nu)) S for delta data
    sched = fit_tanh_schedule(1e-3, 0.9, 1.0)
    t, x = 0.5, 1.3
    s = eval_schedule(sched, t)
    val = score_delta(np.array([x]), t, np.array([0.4]), sched)[0]
    expected = s.beta / (2 * math.sqrt(s.nu)) * x - s.beta / (2 * s.nu) * val
    d = 1e-6
    fd = (score_delta(np.array([x]), t + d, np.array([0.4]), sched)[0]
          - score_delta(np.array([x]), t - d, np.array([0.4]), sched)[0]) / (2 * d)
    assert fd == pytest.approx(expected, rel=1e-5)


def test_score_field_validates_dimension():
    f = delta_field(np.zeros(3))
    assert f.d == 3
    with pytest.raises(ValueError, match="dimension"):
        f.score(np.zeros((5, 2)), 0.5, SCHED_036)


def test_score_field_batched_evaluation():
    f = mixture_field(PointCloudData(points=np.array([[0.0, 0.0], [1.0, 1.0]])))
    x = np.random.default_rng(0).normal(size=(4, 7, 2))
    out = f.score(x, 0.5, SCHED_036)
    assert out.shape == x.shape
    row = f.score(x[2, 3], 0.5, SCHED_036)
    assert np.allclose(out[2, 3], row, atol=1e-14)


def test_gaussian_field_matches_mixture_of_many_samples():
    # mixture over a large Gaussian sample approaches the analytic Gaussian score
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(20000, 1))
    data = PointCloudData(points=pts)
    x = np.array([0.4])
    t = 0.0
    a = score_mixture_exact(x, t, data, SCHED_05)
    b = score_gaussian(x, t, np.array([0.0]), 1.0, SCHED_05)
    assert abs(a[0] - b[0]) < 0.05


def test_point_cloud_weight_validation():
    pts = np.zeros((2, 1))
    with pytest.raises(ValueError, match="weights"):
        PointCloudData(points=pts, weights=np.array([0.5, 0.6]))
    with pytest.raises(ValueError, match="weights"):
        PointCloudData(points=pts, weights=np.array([1.0]))
    with pytest.raises(ValueError, match="weights"):
        PointCloudData(points=pts, weights=np.array([np.nan, 1.0]))
    with pytest.raises(ValueError, match="nonempty"):
        PointCloudData(points=np.zeros((0, 1)))
    with pytest.raises(ValueError, match="nonempty"):
        PointCloudData(points=np.zeros((3, 0)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_point_cloud_rejects_non_finite_points(bad):
    pts = np.zeros((5, 3))
    pts[3, 1] = pts[4, 0] = bad
    with pytest.raises(ValueError, match="row 3 "):
        PointCloudData(points=pts)


def _unblocked(x, nu, data):
    """The mixture posterior from one call over all rows, as the blocks must match."""
    w, mean = _gmm_posterior(_log_posterior(x, nu, data), np.sqrt(1.0 - nu) * data.points)
    return w, (x - mean) / np.sqrt(nu)


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("n,d,block", [(2000, 64, None), (30, 5, 4)])
def test_blocked_posterior_matches_one_call_bytes(monkeypatch, weighted, n, d, block):
    pts = rng.counter_uniform(2, 1234, np.arange(n, dtype=np.uint64)[:, None],
                              np.arange(d, dtype=np.uint64))
    w = None
    if weighted:
        w = np.ones(n)
        w[::3] = 0.0
        w /= w.sum()
    data = PointCloudData(points=pts, weights=w)
    if block is not None:
        monkeypatch.setattr(score, "BLOCK_BYTES", block * data.points.nbytes)
    step = max(1, score.BLOCK_BYTES // data.points.nbytes)
    shapes = [(d,), (3, 5, d)] + [(r, d) for r in (0, 1, step - 1, step, step + 1, 3 * step + 2)]
    for shape in shapes:
        rows = int(np.prod(shape[:-1]))
        x = rng.counter_normal(3, 7, np.arange(rows, dtype=np.uint64)[:, None],
                               np.arange(d, dtype=np.uint64)).reshape(shape)
        for nu in (2.65e-4, 0.0269, 0.973):
            got, want = _mixture_posterior(x, nu, data), _unblocked(x, nu, data)
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), (shape, nu)


def test_mixture_oracle_memory_stays_within_a_few_blocks():
    # one (100, 2000, 64) difference tensor would be 98 MiB; a block is 8 MiB
    pts = rng.counter_uniform(0, 1234, np.arange(2000, dtype=np.uint64)[:, None],
                              np.arange(64, dtype=np.uint64))
    data = PointCloudData(points=pts)
    x = rng.counter_normal(0, 7, np.arange(100, dtype=np.uint64)[:, None],
                           np.arange(64, dtype=np.uint64))
    tracemalloc.start()
    try:
        for run in (lambda: score_mixture_exact(x, 0.3, data, SCHED_05),
                    lambda: spa_sweep(data, (0.1, 0.9), 100, seed=1)):
            tracemalloc.reset_peak()
            run()
            assert tracemalloc.get_traced_memory()[1] < 3 * score.BLOCK_BYTES
    finally:
        tracemalloc.stop()


def test_load_point_cloud_csv(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("0.5,1.0\n-0.25,2.0\n")
    data = load_point_cloud(str(p))
    assert data.points.shape == (2, 2)
    assert data.points[1, 0] == -0.25


def test_load_point_cloud_tells_the_format_by_content(tmp_path):
    # the first four bytes decide, whatever the file is called
    idx = tmp_path / "img.bin"
    idx.write_bytes(struct.pack(">II", 0x00000801, 2) + bytes([0, 255]))
    assert np.array_equal(load_point_cloud(str(idx)).points, [[0.0], [1.0]])
    csv = tmp_path / "pts.idx"
    csv.write_text("0.5,1.0\n-0.25,2.0\n")
    assert np.array_equal(load_point_cloud(str(csv)).points, [[0.5, 1.0], [-0.25, 2.0]])
