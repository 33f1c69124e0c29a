"""The dressing operation f^dr = f + T n f^dr and its rigorous bounds.

There is one dressing solver, ``dress_batched``: the Picard iteration
x <- f + T(n x), run on many occupation rows and functions at once.  Its
rate is the envelope norm z = ||T sup_rows n||_op, which bounds every row's
rate; z < 1 makes the map a contraction, and the iteration stops on the
a-posteriori bound ||x_{k+1} - x_k|| z/(1-z), the same certificate the
fixed point uses.  It can iterate inside buffers its caller owns, from
the start the caller wrote there, so the upwind oracle dresses every step
without allocating, from an extrapolation of the previous steps; the
result is then a view into those buffers.  A dense solve of
(1 - Tn) f^dr = f is kept only as the test-side oracle.

The stricter sign threshold on ||Tn|| (< 1, or < 1/2 for mixed-sign
kernels) is enforced where a seed is admitted, in ``ghd.seed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionError, ConvergenceError, NumericalError
from .kernel import SIGN_MIXED, KernelOperator

DRESS_TOL = 1e-13    # error bound relative to max(1, |f|)/(1 - z)
_EXTRA_ITERS = 8     # margin over the iteration count z predicts


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


def dress_batched(op: KernelOperator, n_rows: np.ndarray, *fs,
                  tol: float = DRESS_TOL, buffers=None) -> tuple:
    """Dress each f in ``fs`` at many points: f^dr = f + T(n f^dr) per row.

    n_rows has one occupation row per point, shape (rows, nodes); each f
    broadcasts to it.  Returns a tuple with one (rows, nodes) array per f.
    The result is certified to within tol * max(1, |f|)/(1 - z)
    of the exact dressing, z = ||T sup_rows n||_op.

    ``buffers`` is an optional caller-owned stack ``(x, x_new, work)`` of
    C-contiguous float arrays, each (len(fs), rows, nodes).  The iteration
    then starts from what ``x`` holds, overwrites all three, and allocates
    nothing of their size: the returned arrays are views into ``x`` or
    ``x_new``, valid until the caller reuses that buffer.  Without ``buffers`` the iteration starts from f and the
    result owns fresh memory.
    """
    n_rows = np.atleast_2d(np.asarray(n_rows, dtype=float))
    m, N = n_rows.shape
    z = op.operator_norm(envelope=n_rows.max(axis=0))
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
    # stop on delta * z/(1-z) <= tol * max(1, |F|)/(1-z)
    scale = tol * max(1.0, float(np.max(np.abs(F))))
    TWt = op.TW.T
    k = 0
    cap = None
    while True:
        k += 1
        np.multiply(n_rows, x, out=work)
        np.matmul(work, TWt, out=x_new)
        x_new += F
        np.subtract(x_new, x, out=work)
        delta = float(np.abs(work, out=work).max())
        x, x_new = x_new, x
        if delta * z <= scale:
            return tuple(x)
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

