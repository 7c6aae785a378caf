"""Sweep grids, their evaluators, and the named presets.

A sweep is data: up to three axes (name, start, stop, step), a map of fixed
parameters, a target that turns parameter arrays over an open grid into
result arrays, and the column selection for the output file; axis starts
and fixed values are checked against ``config.SWEEP_PARAMS``. The named
presets reproduce the standard surfaces (speed-limit times over time and
coherent amplitude, squeezed bounds over time and squeeze parameter, squeeze
factor over its full domain) without any preset-specific code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from . import metrology, qsl_bounds
from .arrays import SOLVE_BUDGET_BYTES, Grid
from .config import MAX_AXES, SWEEP_PARAM_NAMES, SWEEP_PARAMS

# A grid job peaks below 1 KiB a point, so grids are held to the job memory
# budget. The 113,400-point qsl_coherent grid, as ru_maxrss of one
# `relqsl sweep` spawned from a small parent (2 CPUs, so it formats in two
# processes): 94 MB as JSON, 65 MB over the interpreter's 29 MB; 72 MB as
# CSV. On one CPU: 130 MB and 106 MB.
GRID_BYTES_PER_POINT = 1024
MAX_GRID_POINTS = SOLVE_BUDGET_BYTES // GRID_BYTES_PER_POINT
# A point start + k * step counts as within stop up to a relative float noise
# of 1 / AXIS_NOISE in (stop - start) / step: fig1's alpha0_sq ratio is
# 28.999999999999996, and the 30th point is meant.
AXIS_NOISE = 10**12


@dataclass(frozen=True)
class Axis:
    """Inclusive arithmetic grid start, start+step, ..., stop."""

    name: str
    start: float
    stop: float
    step: float

    def __post_init__(self):
        if self.name not in SWEEP_PARAM_NAMES:
            raise ValueError(
                f"unknown axis name {self.name!r}; choose from {SWEEP_PARAM_NAMES}"
            )
        if not self.step > 0:
            raise ValueError(f"axis {self.name}: step must be positive, got {self.step}")
        if self.start > self.stop:
            raise ValueError(
                f"axis {self.name}: start {self.start} exceeds stop {self.stop}"
            )
        SWEEP_PARAMS[self.name].require(self.start, f"axis {self.name}: start {self.start}")
        for role, value in (("start", self.start), ("stop", self.stop), ("step", self.step)):
            if not math.isfinite(value):
                raise ValueError(f"axis {self.name}: {role} must be finite, got {value}")

    @property
    def count(self) -> int:
        """Number of points start + k * step <= stop, up to float noise in the ratio.

        The ratio (stop - start) / step is taken in exact integers, so that it
        neither overflows nor rounds.
        """
        (a, b), (c, d), (e, f) = (x.as_integer_ratio() for x in (self.stop, self.start, self.step))
        num, den = (a * d - c * b) * f, b * d * e
        return num * (AXIS_NOISE + 1) // (den * AXIS_NOISE) + 1

    def values(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.count)


@dataclass(frozen=True)
class SweepSpec:
    """Declarative sweep: axes x fixed parameters evaluated by one target."""

    target: str
    axes: tuple[Axis, ...]
    columns: tuple[str, ...]
    fixed: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ValueError(f"unknown sweep target {self.target!r}")
        if not 1 <= len(self.axes) <= MAX_AXES:
            raise ValueError(f"sweeps take 1 to {MAX_AXES} axes, got {len(self.axes)}")
        required = TARGETS[self.target].required
        supplied = {axis.name for axis in self.axes} | set(self.fixed)
        if len(supplied) != len(self.axes) + len(self.fixed):
            raise ValueError("a parameter appears both as an axis and as fixed")
        if supplied != required:
            raise ValueError(
                f"target {self.target!r} needs exactly {sorted(required)}, "
                f"got {sorted(supplied)}"
            )
        for name, value in self.fixed.items():
            SWEEP_PARAMS[name].require(value, f"fixed {name}: value {value}")
        points = math.prod(axis.count for axis in self.axes)
        if points > MAX_GRID_POINTS:
            shown = f"{points:,}" if points < 10**15 else f"at least 10^{len(str(points)) - 1}"
            raise ValueError(
                f"sweep grid has {shown} points, over the limit of {MAX_GRID_POINTS:,} "
                f"(about {GRID_BYTES_PER_POINT} bytes a point within "
                f"{SOLVE_BUDGET_BYTES // 1024**3} GiB); raise a step or narrow an axis"
            )


@dataclass(frozen=True)
class Target:
    """Parameters a target consumes, and its evaluation of open-grid parameter arrays."""

    required: frozenset[str]
    evaluate: Callable[[dict[str, np.ndarray]], dict[str, np.ndarray]]


# each state family's (energy-variance, mean-energy) bound pair
_BOUND_PAIRS = {
    "coherent": (qsl_bounds.mt_coherent, qsl_bounds.ml_coherent),
    "squeezed": (qsl_bounds.mt_squeezed, qsl_bounds.ml_squeezed),
}


def speed_limit_columns(state: str, par: Grid, t: Grid, epsilon: Grid) -> dict[str, Any]:
    """The speed-limit columns of one state family, at a point or over a grid.

    ``par`` is alpha0 for "coherent" and r for "squeezed". The columns are
    the zeroth-order and corrected energy-variance and mean-energy times,
    the unified limit and the revival flag: the same builder serves the
    single-point ``qsl`` command and the sweep targets.
    """
    mt_bound, ml_bound = _BOUND_PAIRS[state]
    mt, ml = mt_bound(par, t, epsilon), ml_bound(par, t, epsilon)
    return {
        "t_mt0": mt.zeroth,
        "t_mt": mt.total,
        "t_ml0": ml.zeroth,
        "t_ml": ml.total,
        "t_qsl": qsl_bounds.t_qsl(mt, ml).total,
        "near_revival": mt.near_revival,
    }


def _qsl_coherent(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    alpha0 = np.sqrt(params["alpha0_sq"])
    return dict(params, **speed_limit_columns("coherent", alpha0, params["t"], params["epsilon"]))


def _qsl_squeezed(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return dict(params, **speed_limit_columns("squeezed", params["r"], params["t"],
                                              params["epsilon"]))


def _squeeze_factor(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    alpha0 = np.sqrt(params["alpha_sq"])
    baseline = metrology.squeeze_ratio(params["r"], alpha0, params["theta"], 0.0)
    corrected = metrology.squeeze_ratio(params["r"], alpha0, params["theta"], params["epsilon"])
    return dict(
        params,
        ratio0=baseline.ratio,
        sf_db0=baseline.sf_db,
        ratio=corrected.ratio,
        sf_db=corrected.sf_db,
    )


TARGETS: dict[str, Target] = {
    "qsl_coherent": Target(frozenset({"t", "alpha0_sq", "epsilon"}), _qsl_coherent),
    "qsl_squeezed": Target(frozenset({"r", "t", "epsilon"}), _qsl_squeezed),
    "squeeze_factor": Target(frozenset({"r", "alpha_sq", "theta", "epsilon"}), _squeeze_factor),
}

# The r and alpha0_sq lower corners skip the degenerate points: squeezed
# bounds vanish identically at r = 0, and alpha0 = 0 never leaves the ground
# state. The time-and-amplitude sweep carries both the uncorrected and the
# corrected case as an epsilon axis; the other presets fix epsilon and emit
# the epsilon = 0 baseline next to the corrected value in each row.
PRESETS: dict[str, SweepSpec] = {
    "fig1": SweepSpec(
        target="qsl_coherent",
        axes=(
            Axis("t", 0.05, 6.3, 0.05),
            Axis("alpha0_sq", 0.1, 3.0, 0.1),
            Axis("epsilon", 0.0, 0.08, 0.08),
        ),
        columns=("t", "alpha0_sq", "epsilon", "t_mt", "t_ml", "t_qsl", "near_revival"),
    ),
    "fig2": SweepSpec(
        target="qsl_squeezed",
        axes=(Axis("r", 0.05, 0.4, 0.05), Axis("t", 0.2, 6.0, 0.2)),
        fixed={"epsilon": 0.08},
        columns=("r", "t", "epsilon", "t_mt0", "t_mt", "t_ml0", "t_ml", "near_revival"),
    ),
    "fig4": SweepSpec(
        target="squeeze_factor",
        axes=(
            Axis("r", 0.0, 1.8, 0.1),
            Axis("alpha_sq", 0.0, 3.0, 0.1),
            Axis("theta", 0.0, 3.0 * math.pi / 4.0, math.pi / 4.0),
        ),
        fixed={"epsilon": 0.08},
        columns=("r", "alpha_sq", "theta", "epsilon", "ratio0", "sf_db0", "ratio", "sf_db"),
    ),
}


def sweep_from_config(section: dict[str, Any]) -> SweepSpec:
    """Build a SweepSpec from a validated [sweep] section: a preset or a grid, not both."""
    preset, target = section["preset"], section["target"]
    # every other key describes a grid, which the preset would silently replace
    grid_keys = [key for key, value in section.items() if key != "preset" and value is not None]
    if preset and grid_keys:
        raise ValueError(f"preset {preset!r} takes no grid keys; got {', '.join(grid_keys)}")
    if preset:
        return PRESETS[preset]
    if not target:
        raise ValueError(
            "no sweep selected: pass --preset or a [sweep] section with "
            "a preset or a target and axes"
        )
    axes = []
    for i in range(1, MAX_AXES + 1):
        name = section[f"axis{i}_name"]
        parts = [section[f"axis{i}_{p}"] for p in ("start", "stop", "step")]
        if name is None and all(p is None for p in parts):
            continue
        if name is None or any(p is None for p in parts):
            raise ValueError(f"axis{i} is only partially specified")
        axes.append(Axis(name, *parts))
    if not axes:
        raise ValueError("sweep target given but no axes defined")
    fixed = {name: section[name] for name in SWEEP_PARAM_NAMES if section[name] is not None}
    columns_by_target = {s.target: s.columns for s in PRESETS.values()}
    return SweepSpec(target, tuple(axes), columns_by_target[target], fixed)


def run_sweep(spec: SweepSpec) -> tuple[tuple[str, ...], np.ndarray]:
    """Evaluate the grid in axis-major order and project the column set.

    The target is called once on an open grid, as the closed forms take
    floats, equal-shape or broadcastable (open-grid) arrays: each axis is an
    array along its own dimension and each fixed parameter a 0-d array, so
    every function of the parameters runs once per distinct value of the
    inputs it depends on. The table is a structured array with one field per
    output column, each result broadcast to the full grid in axis-major order.
    """
    grids = np.meshgrid(*[axis.values() for axis in spec.axes], indexing="ij", sparse=True)
    params = {axis.name: grid for axis, grid in zip(spec.axes, grids)}
    params.update({name: np.asarray(value, dtype=float) for name, value in spec.fixed.items()})
    results = TARGETS[spec.target].evaluate(params)
    shape = tuple(axis.count for axis in spec.axes)
    columns = [np.broadcast_to(results[name], shape) for name in spec.columns]
    return spec.columns, np.rec.fromarrays(columns, names=spec.columns).ravel()
