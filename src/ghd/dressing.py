"""The dressing operation f^dr = f + T n f^dr and its rigorous bounds.

There is one dressing solver, ``dress_batched``: the Picard iteration
x <- f + T(n x), run on many occupation rows and functions at once.  Its
rate is the envelope norm z = ||T sup_rows n||_op, which bounds every row's
rate; z < 1 makes the map a contraction, and the iteration stops on the
a-posteriori bound ||x_{k+1} - x_k|| z/(1-z), the same certificate the
fixed point uses.  Since z bounds each row's own rate, the bound holds row
by row: a row whose own increment meets it is frozen, and later sweeps run
only on the rows still open, as the fixed point's ``solve_batch`` does.
It can iterate inside buffers its caller owns, from the start the caller
wrote there, so the upwind oracle dresses every step without allocating,
from an extrapolation of the previous steps; the result is then a view
into those buffers.  A dense solve of (1 - Tn) f^dr = f is kept only as
the test-side oracle.

The stricter sign threshold on ||Tn|| (< 1, or < 1/2 for mixed-sign
kernels) is enforced where a seed is admitted, in ``seed.admission``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionError, ConvergenceError, NumericalError
from .kernel import SIGN_MIXED, KernelOperator

DRESS_TOL = 1e-13    # error bound relative to max(1, |f|)/(1 - z)
_EXTRA_ITERS = 8     # margin over the iteration count z predicts
_FOLD = 64           # rows folded into one axis for the envelope's max
# fewer rows are swept whole to the stop: on them the freeze's per-sweep
# bookkeeping, about ten small NumPy calls, costs more than the rows it saves
_FREEZE_ROWS = 64


def sign_threshold(sign: str) -> float:
    """Admissible ||Tn|| bound: 1 for fixed-sign kernels, 1/2 otherwise."""
    return 0.5 if sign == SIGN_MIXED else 1.0


def compute_R(z: float, sign: str) -> float:
    """Rigorous lower-bound factor for 1^dr at operator norm z."""
    if sign == SIGN_MIXED:
        if not 0 <= z < 0.5:
            raise AssumptionError(
                f"mixed-sign kernel requires ||Tn||_op < 1/2, got {z:.6g}")
        return (1.0 - 2.0 * z) / (1.0 - z)
    if not 0 <= z < 1:
        raise AssumptionError(f"R(z) requires ||Tn||_op < 1, got {z:.6g}")
    return 1.0 - z


@dataclass(frozen=True)
class DressingBounds:
    """Certified range [r_value, upper] for 1^dr at operator norm tn_norm."""

    tn_norm: float
    r_value: float
    upper: float

    @classmethod
    def for_norm(cls, tn_norm: float, sign: str) -> "DressingBounds":
        return cls(tn_norm, compute_R(tn_norm, sign), 1.0 / (1.0 - tn_norm))


def _envelope(n_rows: np.ndarray) -> np.ndarray:
    """sup over rows of n_rows, bit for bit n_rows.max(axis=0).

    A max over the rows of a short-rowed array is a strided reduction,
    several times slower than one along a long axis; folding _FOLD rows
    into one axis first gives the same maxima, as max is exact."""
    m, N = n_rows.shape
    q = m // _FOLD
    if q < 2 or not n_rows.flags.c_contiguous:
        return n_rows.max(axis=0)
    folded = n_rows[:q * _FOLD].reshape(q, _FOLD * N).max(axis=0)
    return np.maximum(folded.reshape(_FOLD, N).max(axis=0),
                      n_rows[q * _FOLD:].max(axis=0, initial=-np.inf))


def dress_batched(op: KernelOperator, n_rows: np.ndarray, *fs,
                  tol: float = DRESS_TOL, buffers=None) -> tuple:
    """Dress each f in ``fs`` at many points: f^dr = f + T(n f^dr) per row.

    n_rows has one occupation row per point, shape (rows, nodes); each f
    broadcasts to it.  Returns a tuple with one (rows, nodes) array per f.
    Every row is certified to within tol * max(1, |F|)/(1 - z) of the
    exact dressing, |F| the largest |f| over ``fs`` and z = ||T sup_rows n||_op.

    The iteration stops when its worst row meets the bound.  Until then,
    on a batch of at least _FREEZE_ROWS rows, each sweep that misses the
    stop finds the rows whose own increment meets it (a row's increment
    over all of ``fs`` at once).  Once at most half the rows are open,
    those rows are frozen: the buffer that holds the iterate keeps every
    row, and the open rows' iterate, next iterate and work array move to
    prefixes of the two free buffers, where later sweeps run on them
    alone.  Each later freeze writes the open rows back and gathers the
    ones still open; the last sweep writes back the rest.

    ``buffers`` is an optional caller-owned stack ``(x, x_new, work)`` of
    C-contiguous float arrays, each (len(fs), rows, nodes).  The iteration
    then starts from what ``x`` holds, overwrites all three, and allocates
    nothing of their size: the returned arrays are views into ``x`` or
    ``x_new`` (whichever held the iterate when the rows were frozen, or
    at the stop), valid until the caller reuses that buffer.  Without
    ``buffers`` the iteration starts from f and the result owns fresh
    memory.
    """
    n_rows = np.atleast_2d(np.asarray(n_rows, dtype=float))
    m, N = n_rows.shape
    z = op.operator_norm(envelope=_envelope(n_rows))
    if not z < 1.0:
        raise AssumptionError(
            f"||T n||_op = {z:.6g} >= 1; the dressing iteration does not contract")
    F = np.stack(np.broadcast_arrays(*(np.asarray(f, dtype=float) for f in fs)))
    F = F.reshape(len(fs), -1, N)
    if buffers is None:
        x = np.broadcast_to(F, (len(fs), m, N)).copy()
        # reused buffers: fresh temporaries per iteration cost page faults on large batches
        x_new = np.empty_like(x)
        work = np.empty_like(x)
    else:
        x, x_new, work = buffers
        # the freeze views prefixes of the free buffers; a reshape of a
        # strided one would copy, and the iteration would leave it behind
        if not all(b.flags.c_contiguous for b in buffers):
            raise ValueError("dress_batched buffers must be C-contiguous")
    # stop on delta * z/(1-z) <= tol * max(1, |F|)/(1-z)
    scale = tol * max(1.0, float(np.max(np.abs(F))))
    TWt = op.TW.T
    rows = None      # once frozen: the open rows, and every row's iterate in x_all
    k = 0
    cap = None
    while True:
        k += 1
        if rows is None:
            np.multiply(n_rows, x, out=work)
        else:
            # mode "clip": with out=, take's default mode copies through a temporary
            np.take(n_rows, rows, axis=0, out=work[0], mode="clip")
            np.multiply(work[0], x[1:], out=work[1:])
            work[0] *= x[0]
        np.matmul(work, TWt, out=x_new)
        if rows is None or F.shape[1] == 1:
            x_new += F
        else:
            x_new += np.take(F, rows, axis=1, out=work, mode="clip")
        np.subtract(x_new, x, out=work)
        delta = float(np.abs(work, out=work).max())
        x, x_new = x_new, x
        if delta * z <= scale:
            if rows is None:
                return tuple(x)
            x_all[:, rows] = x
            return tuple(x_all)
        if cap is None:
            if not math.isfinite(delta):
                raise NumericalError("dressing iteration produced non-finite values")
            # delta_{k+j} <= z^j delta_k, so the stop is j steps away
            cap = k + math.ceil(math.log(scale / (delta * z)) / math.log(z)) + _EXTRA_ITERS
        elif k >= cap:
            raise ConvergenceError(
                f"dressing iteration at ||T n||_op = {z:.6g} missed its stop after "
                f"{k} iterations; last bound {delta * z / (1.0 - z):.3g} against "
                f"{scale / (1.0 - z):.3g}")
        if m < _FREEZE_ROWS:
            continue
        # z bounds each row's own rate, so a row meeting the bound stays
        # certified; a NaN increment keeps its row open
        left = ~(work.max(axis=2).max(axis=0) * z <= scale)
        still = int(np.count_nonzero(left))
        if 2 * still > m or still == left.size:
            continue
        # x_all keeps every row; the open rows' iterate and next iterate
        # take two prefixes of the free full buffer, and work one of work
        shape = (len(fs), still, N)
        size = math.prod(shape)
        if rows is None:
            x_all, rows = x, np.arange(m)
            spare, scratch = x_new.reshape(-1), work.reshape(-1)
            slots = (spare[:size], spare[size:2 * size])
        else:
            x_all[:, rows] = x
        rows = rows[left]
        into, other = slots[::-1] if np.may_share_memory(x, slots[0]) else slots
        x = np.take(x_all, rows, axis=1, out=into[:size].reshape(shape), mode="clip")
        x_new = other[:size].reshape(shape)
        work = scratch[:size].reshape(shape)
