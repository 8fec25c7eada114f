"""Experiment configuration: one JSON-serializable dataclass for the CLI."""

from __future__ import annotations

import json
import typing
from dataclasses import dataclass
from typing import Optional

import numpy as np

from difftaylor.samplers import SOLVERS
from difftaylor.schedules import (
    STEP_PLANS,
    Cosine,
    Linear,
    NoiseSchedule,
    StepSchedule,
    fit_tanh_schedule,
    make_step_schedule,
)
from difftaylor.score import (
    ScoreField,
    delta_field,
    gaussian_field,
    load_point_cloud,
    mixture_field,
)

# Named (nu0, nuT) endpoint presets for the tanh/softplus schedule.
PRESETS = {
    "cond-i": (5e-4, 0.995),
    "cond-ii": (1e-4, 0.99),
}

# The noise schedule and score oracle of each name, built from a config.
SCHEDULES = {
    "tanh": lambda c: fit_tanh_schedule(c.nu0, c.nuT, c.T),
    "linear": lambda c: NoiseSchedule(kind=Linear(beta0=c.beta0, beta1=c.beta1), T=c.T),
    "cosine": lambda c: NoiseSchedule(kind=Cosine(threshold=c.threshold), T=c.T),
}
ORACLES = {
    "delta": lambda c: delta_field(c._center()),
    "gaussian": lambda c: gaussian_field(c._center(), c.var),
    "mixture": lambda c: mixture_field(load_point_cloud(c.dataset)),
}
# The names each named field takes, for the config-file check and the CLI choices.
FIELD_NAMES = {"solver": SOLVERS, "schedule": SCHEDULES,
               "step_schedule": STEP_PLANS, "oracle": ORACLES}


@dataclass
class ExperimentConfig:
    solver: str = "ddim"  # solver, schedule, step_schedule, oracle: see FIELD_NAMES
    schedule: str = "tanh"
    nu0: float = 1e-4
    nuT: float = 0.99
    T: float = 1.0
    beta0: float = 0.1  # linear schedule only
    beta1: float = 9.95
    threshold: float = 20.0  # cosine schedule only
    step_schedule: str = "constant"
    steps: int = 8
    terminal_ratio: float = 0.1
    oracle: str = "delta"
    dataset: Optional[str] = None  # CSV or IDX file, mixture oracle only
    x0: Optional[list] = None  # delta/gaussian center; defaults to the origin
    var: float = 1.0  # gaussian oracle variance
    d: int = 1
    batch: int = 1
    seed: int = 0
    clip: Optional[list] = None  # [lo, hi]
    out: Optional[str] = None

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
            if name in FIELD_NAMES and value not in FIELD_NAMES[name]:
                raise ValueError(f"config field {name!r} must be one of "
                                 f"{tuple(FIELD_NAMES[name])}, got {value!r}")
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
        return SCHEDULES[self.schedule](self)

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
        reads_dataset = self.oracle == "mixture"
        if reads_dataset != (self.dataset is not None):
            raise ValueError(f"oracle {self.oracle!r} "
                             f"{'requires' if reads_dataset else 'does not read'} --dataset")
        return ORACLES[self.oracle](self)

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
