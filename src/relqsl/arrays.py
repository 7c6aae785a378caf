"""Helpers for closed forms on floats, equal-shape or broadcastable (open-grid) arrays.

A scalar call is the 0-d case of the array formula: the same numpy
operations run in the same order, and the results come back as Python
floats and bools. Inputs keep their own shapes: on an open grid (as
``np.meshgrid(..., sparse=True)`` builds it) each operation runs once per
distinct value of the inputs it depends on, and only the arithmetic that
meets every axis spans the whole grid.

Plain arithmetic and sqrt run as numpy operations, which round exactly as
Python floats do. Every transcendental and every power goes through the
math module instead (``libm``): numpy's vectorized exp, acos, cosh, sinh,
tanh, log10 and pow round differently from libm in the last place for some
arguments, and even libm's pow(x, 2) is not always the correctly rounded
x * x that numpy computes. Routing them through math keeps array results
bit-identical to the scalar formulas.

Every closed form reports in one way through the last two helpers: a
non-finite result is refused with a ValueError naming the function and the
first bad point (``require_finite``), and a first-order correction that is
large against its zeroth order draws one warning per call (``warn_doubtful``).
"""

from __future__ import annotations

import math
import warnings
from functools import partial
from itertools import repeat
from typing import Any, Callable

import numpy as np

# a float, or an array of floats broadcastable to the grid
Grid = float | np.ndarray
# a correction above this fraction of its zeroth order makes first order doubtful
VALIDITY_FRACTION = 0.5
# the memory one job may hold: a Fock solve (fock_core) and a sweep grid
# (presets) are both held to it
SOLVE_BUDGET_BYTES = 3 * 1024**3


def as_arrays(*values: Any) -> tuple[np.ndarray, ...]:
    """The arguments as float64 arrays, each at its own shape (0-d for scalars)."""
    return tuple(np.asarray(v, dtype=float) for v in values)


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


def require_finite(name: str, inputs: dict[str, Any], what: str, *values: Any) -> None:
    """Raise ValueError unless every entry of every value is finite.

    The message reads ``<name>: <what> not finite at <inputs>``, where each
    ``{!r}`` in ``what`` shows the matching value at the first bad point in
    axis-major order, and the inputs are those of that point. The points
    span the joint shape of the inputs and values, so a value that depends
    on fewer axes than the inputs still names the first point of the grid.
    """
    bad = np.logical_or.reduce([~np.isfinite(value) for value in values])
    if np.any(bad):
        shape = np.broadcast_shapes(*map(np.shape, [*inputs.values(), *values]))
        bad = np.broadcast_to(bad, shape)
        shown = what.format(*(first(value, bad) for value in values))
        raise ValueError(f"{name}: {shown} not finite at {first_point(inputs, bad)}")


def warn_doubtful(name: str, noun: str, correction: Any, zeroth: Any, stacklevel: int) -> None:
    """Warn once if the correction exceeds VALIDITY_FRACTION of a positive zeroth order.

    The warning counts such points; ``stacklevel`` counts as in warnings.warn,
    from the function that calls this one. On an open grid the count covers
    every grid point only because each correction depends on every input of
    its closed form, and so spans every axis.
    """
    doubtful = (zeroth > 0) & (np.abs(correction) > VALIDITY_FRACTION * zeroth)
    count = np.count_nonzero(doubtful)
    if count:
        warnings.warn(
            f"{name}: epsilon correction exceeds half the zeroth-order {noun} "
            f"at {count} of {np.size(doubtful)} evaluation points; "
            "first-order validity is doubtful there",
            stacklevel=stacklevel + 1,
        )
