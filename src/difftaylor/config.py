"""Experiment configuration: one JSON-serializable dataclass for the CLI."""

from __future__ import annotations

import json
import typing
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from difftaylor.schedules import (
    Cosine,
    Linear,
    NoiseSchedule,
    StepSchedule,
    fit_tanh_schedule,
    make_step_schedule,
)
from difftaylor.score import (
    PointCloudData,
    ScoreField,
    delta_field,
    gaussian_field,
    load_point_cloud_csv,
    mixture_field,
)

# Named (nu0, nuT) endpoint presets for the tanh/softplus schedule.
PRESETS = {
    "cond-i": (5e-4, 0.995),
    "cond-ii": (1e-4, 0.99),
}


@dataclass
class ExperimentConfig:
    solver: str = "ddim"
    schedule: str = "tanh"  # "tanh" | "linear" | "cosine"
    nu0: float = 1e-4
    nuT: float = 0.99
    T: float = 1.0
    beta0: float = 0.1  # linear schedule only
    beta1: float = 9.95
    threshold: float = 20.0  # cosine schedule only
    step_schedule: str = "constant"  # "constant" | "exponential"
    steps: int = 8
    terminal_ratio: float = 0.1
    oracle: str = "delta"  # "delta" | "gaussian" | "mixture" | "idx"
    dataset: Optional[str] = None  # CSV or IDX path for mixture/idx oracles
    x0: Optional[list] = None  # delta/gaussian center; defaults to the origin
    var: float = 1.0  # gaussian oracle variance
    d: int = 1
    batch: int = 1
    seed: int = 0
    clip: Optional[list] = None  # [lo, hi]
    out: Optional[str] = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        """Parse a config, rejecting unknown fields and values of the wrong type."""
        data = json.loads(text)
        hints = typing.get_type_hints(ExperimentConfig)
        unknown = set(data) - set(hints)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        for name, value in data.items():
            # Optional[X] allows X or null, a float field also takes an int, and
            # no field takes a bool, which isinstance would count as an int
            allowed = typing.get_args(hints[name]) or (hints[name],)
            if float in allowed:
                allowed += (int,)
            if isinstance(value, bool) or not isinstance(value, allowed):
                names = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
                raise ValueError(f"config field {name!r} must be {names}, got {value!r}")
        if not 0 <= data.get("seed", 0) < 2**64:
            raise ValueError(f"config field 'seed' must be in [0, 2**64), got {data['seed']}")
        return ExperimentConfig(**data)

    def apply_preset(self, name: str) -> "ExperimentConfig":
        if name not in PRESETS:
            raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
        self.schedule = "tanh"
        self.nu0, self.nuT = PRESETS[name]
        return self

    def noise_schedule(self) -> NoiseSchedule:
        if self.schedule == "tanh":
            return fit_tanh_schedule(self.nu0, self.nuT, self.T)
        if self.schedule == "linear":
            return NoiseSchedule(kind=Linear(beta0=self.beta0, beta1=self.beta1), T=self.T)
        if self.schedule == "cosine":
            return NoiseSchedule(kind=Cosine(threshold=self.threshold), T=self.T)
        raise ValueError(f"unknown schedule {self.schedule!r}")

    def step_plan(self) -> StepSchedule:
        return make_step_schedule(self.step_schedule, self.steps, self.T,
                                  terminal_ratio=self.terminal_ratio)

    def _center(self) -> np.ndarray:
        """The delta point or Gaussian mean: ``x0``, or the origin if unset."""
        if self.x0 is None:
            return np.zeros(self.d)
        try:
            return np.asarray(self.x0, dtype=float)
        except (TypeError, ValueError):
            raise ValueError(f"config field 'x0' must be a list of numbers, "
                             f"got {self.x0!r}") from None

    def score_field(self) -> ScoreField:
        if self.oracle == "delta":
            return delta_field(self._center())
        if self.oracle == "gaussian":
            return gaussian_field(self._center(), self.var)
        if self.oracle in ("mixture", "idx"):
            if self.dataset is None:
                raise ValueError(f"oracle {self.oracle!r} requires --dataset")
            data = self.point_cloud()
            return mixture_field(data)
        raise ValueError(f"unknown oracle {self.oracle!r}")

    def point_cloud(self) -> PointCloudData:
        if self.dataset is None:
            raise ValueError("no dataset configured")
        if self.oracle == "idx" or self.dataset.endswith(("-ubyte", ".idx")):
            from difftaylor.spa import load_idx

            return load_idx(self.dataset)
        return load_point_cloud_csv(self.dataset)

    def clip_tuple(self) -> Optional[tuple]:
        if self.clip is None:
            return None
        if not isinstance(self.clip, (list, tuple)) or len(self.clip) != 2:
            raise ValueError(f"clip must be a [lo, hi] pair, got {self.clip}")
        try:
            lo, hi = float(self.clip[0]), float(self.clip[1])
        except (TypeError, ValueError):
            raise ValueError(f"clip bounds must be numbers, got {self.clip}") from None
        if not lo < hi:
            raise ValueError(f"clip interval must satisfy lo < hi, got {self.clip}")
        return (lo, hi)
