"""Counter-based random streams for reproducible Monte Carlo.

Every variate is a pure function of (seed, purpose, index words), so results
never depend on batch size, evaluation order, or worker-pool layout.  The
mixing core is the SplitMix64 finalizer applied once per index word, which is
statistically solid for simulation work and trivially vectorizable in numpy.

The per-step normals of a trajectory hash the words (seed, purpose, traj,
step, dim) in that order.  ``TrajectoryStream`` hashes the step-independent
prefix (seed, purpose, traj) once; per step it runs the step round once per
trajectory and the dim round once per variate.  Its variates are
bit-identical to ``counter_normal`` on the same words.  ``counter_bits`` and
the stream share one SplitMix64, run in place, each round at the shape of the
words hashed so far.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

# Stream purposes.  Distinct constants keep e.g. the start noise of a
# trajectory independent of its per-step driving noise.
PURPOSE_START = 1
PURPOSE_STEP_W = 2
PURPOSE_STEP_U = 3
PURPOSE_TRIAL = 4
PURPOSE_PARTICLE = 5

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = float(2.0**-53)


def _splitmix64_inplace(z: np.ndarray, tmp: np.ndarray) -> None:
    """The SplitMix64 finalizer of ``z`` into ``z``; ``tmp`` is scratch of
    z's shape.  In-place uint64 array arithmetic wraps without a warning."""
    z += _GOLDEN
    np.right_shift(z, np.uint64(30), out=tmp)
    z ^= tmp
    z *= _MIX1
    np.right_shift(z, np.uint64(27), out=tmp)
    z ^= tmp
    z *= _MIX2
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp


def counter_bits(seed: int, *words) -> np.ndarray:
    """Hash (seed, words...) to uint64.  Array words broadcast together.

    Each round runs at the shape of the words so far: the seed round and
    scalar words cost one scalar round, not one per output element.
    """
    h = np.array(seed, dtype=np.uint64)
    _splitmix64_inplace(h, np.empty_like(h))
    for w in words:
        w = np.asarray(w, dtype=np.uint64)
        # into a fresh array: a 0-d ``h ^ w`` would be a numpy scalar, which
        # the in-place rounds leave untouched
        h = np.bitwise_xor(h, w, out=np.empty(np.broadcast_shapes(h.shape, w.shape),
                                              dtype=np.uint64))
        _splitmix64_inplace(h, np.empty_like(h))
    return h


def counter_uniform(seed: int, *words) -> np.ndarray:
    """Uniforms in the open interval (0, 1)."""
    bits = counter_bits(seed, *words)
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * _INV_2_53


def counter_normal(seed: int, *words) -> np.ndarray:
    """Standard normals via the inverse CDF of counter uniforms."""
    return ndtri(counter_uniform(seed, *words))


class TrajectoryStream:
    """The per-step normals of trajectories ``traj`` for one (seed, purpose).

    ``normals(step, d)`` equals ``counter_normal(seed, purpose, traj[..., None],
    step, arange(d))`` bit for bit.  The (seed, purpose, traj) prefix is hashed
    once here and stored in ``prefix`` (shape ``traj.shape``).
    """

    def __init__(self, seed: int, purpose: int, traj):
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {seed}")
        # a copy, so the in-place rounds neither touch the caller's array nor
        # turn a 0-d traj into a numpy scalar
        self.prefix = np.array(traj, dtype=np.uint64)
        self.prefix ^= counter_bits(seed, purpose)
        _splitmix64_inplace(self.prefix, np.empty_like(self.prefix))

    def normals(self, step: int, d: int) -> np.ndarray:
        """Standard normals of shape ``(*traj.shape, d)`` at ``step``."""
        # the step round does not depend on the dim: run it once per trajectory,
        # in the output's memory at d = 1 and in the scratch's otherwise
        n = self.prefix.size
        bits = np.empty(self.prefix.shape + (d,), dtype=np.uint64)
        tmp = np.empty_like(bits)
        flat = tmp.reshape(-1)
        z = (bits if d == 1 else flat[:n]).reshape(self.prefix.shape)
        np.bitwise_xor(self.prefix, np.uint64(step), out=z)
        _splitmix64_inplace(z, flat[-n:].reshape(z.shape))
        # at d = 1 the dim word is 0 and z already is bits; at a few dims one
        # strided xor per dim beats a length-d inner loop (the fpe particles,
        # d = 2), at many dims the broadcast xor wins (the mixture, d = 64)
        if 1 < d <= 4:
            for j in range(d):
                np.bitwise_xor(z, np.uint64(j), out=bits[..., j])
        elif d > 1:
            np.bitwise_xor(z[..., None], np.arange(d, dtype=np.uint64), out=bits)
        _splitmix64_inplace(bits, tmp)
        np.right_shift(bits, np.uint64(11), out=tmp)
        u = bits.view(np.float64)  # the bits are spent; reuse their memory
        np.add(tmp, 0.5, out=u)
        u *= _INV_2_53
        return ndtri(u, out=u)


def step_normals(seed: int, purpose: int, traj, step: int, d: int) -> np.ndarray:
    """Per-dimension standard normals for given trajectories at one step.

    ``traj`` is an int or an int array of trajectory indices; the result has
    shape ``(*traj.shape, d)``.
    """
    return TrajectoryStream(seed, purpose, traj).normals(step, d)


def correlated_pair(
    w_stream: TrajectoryStream, u_stream: TrajectoryStream, step: int, d: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw the correlated pair (w, z) driving one stochastic refinement step.

    w = u1 and z = u1/2 + u2/(2*sqrt(3)) with u1, u2 iid standard normal from
    the two streams (``PURPOSE_STEP_W`` and ``PURPOSE_STEP_U``), so that
    (sqrt(h) w, h sqrt(h) z) has the covariance (h, h^2/2, h^3/3) of the
    iterated Ito integrals over a step of size h.
    """
    w = w_stream.normals(step, d)
    u2 = u_stream.normals(step, d)
    z = w * 0.5
    u2 *= 0.5 / np.sqrt(3.0)
    z += u2
    return w, z
