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

import math
from functools import partial
from itertools import repeat
from typing import Any, Callable

import numpy as np

# a float, or an array of floats holding one value per grid point
Grid = float | np.ndarray


def as_arrays(*values: Any) -> tuple[np.ndarray, ...]:
    """The arguments as float64 arrays broadcast to one shape (0-d for scalars)."""
    return tuple(np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in values)))


def libm(fn: Callable[..., float], x: Any, *consts: float) -> np.ndarray:
    """``fn(x_i, *consts)`` with a math-module function, elementwise over ``x``.

    An element where ``fn`` overflows or leaves its domain is nan instead of
    an OverflowError or "math domain error" that names nothing. Unlike an
    infinity (1/inf is 0), nan stays nan through later arithmetic, so the
    caller's finiteness check rejects the point and names it.
    """
    x = np.asarray(x, dtype=float)
    args = (x.ravel().tolist(), *map(repeat, consts))
    try:
        values = np.fromiter(map(fn, *args), float, x.size)
    except (OverflowError, ValueError):
        values = np.fromiter(map(partial(_nan_on_error, fn), *args), float, x.size)
    return values.reshape(x.shape)


def _nan_on_error(fn: Callable[..., float], *args: float) -> float:
    try:
        return fn(*args)
    except (OverflowError, ValueError):
        return math.nan


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
