"""The dressing operation f^dr = f + T n f^dr and its rigorous bounds.

There is one dressing solver, ``dress_batched``: the Picard iteration
x <- f + T(n x), run on many occupation rows and functions at once.  Its
rate is the envelope norm z = ||T sup_rows n||_op, which bounds every row's
rate; z < 1 makes the map a contraction, and the iteration stops on the
a-posteriori bound ||x_{k+1} - x_k|| z/(1-z), the same certificate the
fixed point uses.  It is warm-startable, so neighbouring x nodes and
successive upwind steps reuse the previous solution.  It can also iterate
inside buffers its caller owns, so a time-stepping caller dresses every
step without allocating; the result is then a view into those buffers.
A dense solve of (1 - Tn) f^dr = f is kept only as the test-side oracle.

``DressingProblem`` is a single-row reference kept for the tests: it
enforces the sign threshold on ||Tn|| (< 1, or < 1/2 for mixed-sign
kernels) and supplies the dressed unit function that ``check_1dr_bounds``
certifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionError, ConvergenceError, NumericalError
from .kernel import SIGN_MIXED, KernelOperator

BOUND_EPS = 1e-9

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
                  warm=None, tol: float = DRESS_TOL, buffers=None) -> tuple:
    """Dress each f in ``fs`` at many points: f^dr = f + T(n f^dr) per row.

    n_rows has one occupation row per point, shape (rows, nodes); each f
    broadcasts to it.  Returns a tuple with one (rows, nodes) array per f.
    ``warm`` is an initial guess of the same layout (e.g. a previous
    result).  The result is certified to within tol * max(1, |f|)/(1 - z)
    of the exact dressing, z = ||T sup_rows n||_op.

    ``buffers`` is an optional caller-owned stack ``(x, x_new, work)`` of
    C-contiguous float arrays, each (len(fs), rows, nodes).  The iteration
    then starts from what ``x`` holds (``warm`` must be None), overwrites
    all three, and allocates nothing of their size: the returned arrays
    are views into ``x`` or ``x_new``, valid until the caller reuses that
    buffer.  Without ``buffers`` the result owns fresh memory.
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
        x = np.broadcast_to(F, (len(fs), m, N)).copy() if warm is None \
            else np.array(np.broadcast_to(warm, (len(fs), m, N)), dtype=float)
        # reused buffers: fresh temporaries per iteration cost page faults on large batches
        x_new = np.empty_like(x)
        work = np.empty_like(x)
    elif warm is not None:
        raise TypeError("dress_batched: pass the start in buffers[0] or warm, not both")
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


class DressingProblem:
    """Occupation n bound to a kernel operator, ready to dress functions."""

    def __init__(self, op: KernelOperator, n: np.ndarray):
        n = np.asarray(n, dtype=float)
        if n.shape != op.grid.nodes.shape:
            raise NumericalError("occupation array does not match the grid")
        if np.any(n < 0):
            raise AssumptionError("occupation function must be nonnegative")
        self.op = op
        self.n = n
        self.tn_norm = op.operator_norm(envelope=n)
        threshold = sign_threshold(op.sign_class)
        if not self.tn_norm < threshold:
            raise AssumptionError(
                f"||Tn||_op = {self.tn_norm:.6g} >= {threshold:g} "
                f"({op.sign_class} kernel); dressing is not certified")
        self._one_dr = None

    def bounds(self) -> DressingBounds:
        return DressingBounds.for_norm(self.tn_norm, self.op.sign_class)

    def dress_values(self, f: np.ndarray) -> np.ndarray:
        return dress_batched(self.op, self.n, f)[0][0]

    def one_dressed(self) -> np.ndarray:
        if self._one_dr is None:
            self._one_dr = self.dress_values(np.ones(self.op.count))
        return self._one_dr


def check_1dr_bounds(prob: DressingProblem) -> tuple[DressingBounds, bool, dict]:
    """Certify R(||Tn||) <= 1^dr <= 1/(1-||Tn||) at every node.

    Returns the bounds, a pass flag, and a report naming the worst node.
    """
    bounds = prob.bounds()
    one_dr = prob.one_dressed()
    low_viol = bounds.r_value - one_dr
    high_viol = one_dr - bounds.upper
    worst = float(max(low_viol.max(), high_viol.max()))
    ok = worst <= BOUND_EPS
    node = int(np.argmax(np.maximum(low_viol, high_viol)))
    report = {
        "passed": bool(ok),
        "worst_violation": worst,
        "worst_node": node,
        "worst_momentum": float(prob.op.grid.nodes[node]),
        "one_dr_at_worst": float(one_dr[node]),
        "lower": bounds.r_value,
        "upper": bounds.upper,
    }
    return bounds, ok, report
