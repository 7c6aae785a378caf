"""Helpers for closed forms that take floats or equal-shape float64 arrays.

A scalar call is the 0-d case of the array formula: the same numpy
operations run in the same order, and the results come back as Python
floats and bools. Plain arithmetic and sqrt run as numpy operations, which
round exactly as Python floats do. Every transcendental and every power goes
through the math module instead (``libm``): numpy's vectorized exp, acos,
cosh, sinh, tanh, log10 and pow round differently from libm in the last
place for some arguments, and even libm's pow(x, 2) is not always the
correctly rounded x * x that numpy computes. Routing them through math keeps
array results bit-identical to the scalar formulas.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Callable

import numpy as np

# a float, or an array of floats holding one value per grid point
Grid = float | np.ndarray


def as_arrays(*values: Any) -> tuple[np.ndarray, ...]:
    """The arguments as float64 arrays broadcast to one shape (0-d for scalars)."""
    return tuple(np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in values)))


def libm(fn: Callable[..., float], x: Any, *consts: float) -> np.ndarray:
    """``fn(x_i, *consts)`` with a math-module function, elementwise over ``x``."""
    x = np.asarray(x, dtype=float)
    values = map(fn, x.ravel().tolist(), *map(repeat, consts))
    return np.fromiter(values, float, x.size).reshape(x.shape)


def native(x: Any) -> Any:
    """A 0-d array or numpy scalar as a Python scalar; other arrays unchanged."""
    x = np.asarray(x)
    return x.item() if x.ndim == 0 else x


def first(values: Any, mask: Any) -> Any:
    """The first entry of ``values`` where ``mask`` holds, in C (axis-major) order."""
    index = np.flatnonzero(mask)[0]
    return np.broadcast_to(values, np.shape(mask)).ravel()[index].item()


def first_point(inputs: dict[str, Any], mask: Any) -> str:
    """``name=value, ...`` of the inputs at the first point where ``mask`` holds."""
    return ", ".join(f"{name}={first(value, mask)!r}" for name, value in inputs.items())
