"""Admissibility checks before solving; conservation and weak-form checks after.

The assumption report realizes the admissibility conditions on the seed
data: nonnegativity, the operator-norm bound (threshold 1 for fixed-sign
kernels, 1/2 otherwise) and finiteness of sup |v n0|.  A failing check is
a verdict, not an exception.

Conserved charges Q[h](t) = integral dx dp rho_p h(p) and generalized
entropies S[g](t) = (1/2pi) integral dx dp g(n,p) 1dr are computed from
one state batch over all times with composite-Simpson spatial integrals; the
weak-form residual sums the four edge integrals of the conservation
identity over a space-time rectangle with Gauss-Legendre edge quadrature,
splitting edges where a contact discontinuity of partitioning data, the
level set Xhat(t,x,q) - v_q t = 0, crosses them.  Per rectangle that takes
one scan solve (the ends of both x-edges and a 96-point scan of both
t-edges), one level-set solve over the brackets of all four edges
(``Solver.bisect``) and one state batch over the nodes of all four edges.
``ghd weakcheck`` finds the edge pieces of every rectangle first and then
builds all the Gauss-Legendre rules they need in one call of
``grid.gauss_legendre``, the builder of the momentum grid's rule too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dressing import sign_threshold
from .errors import SupportWindowError
from .fixed_point import Solver
from .grid import gauss_legendre
from .kernel import KernelOperator
from .seed import Scenario

TWO_PI = 2.0 * np.pi

EDGE_SUPPORT_TOL = 1e-7


# ---------------------------------------------------------------------------
# assumption checking

@dataclass(frozen=True)
class AssumptionReport:
    """Verdict on the admissibility of a scenario against a kernel."""

    sign_class: str
    tn_norm: float
    threshold_used: float
    vn_sup: float
    n0_min: float
    sup_sampled: float
    declared_sup: float
    tail_estimate: float
    verdict: bool
    failed_clause: str | None

    def to_dict(self) -> dict:
        return {
            "sign_class": self.sign_class,
            "tn_norm": self.tn_norm,
            "threshold_used": self.threshold_used,
            "vn_sup": self.vn_sup,
            "n0_min": self.n0_min,
            "sup_sampled": self.sup_sampled,
            "declared_sup": self.declared_sup,
            "tail_estimate": self.tail_estimate,
            "verdict": "pass" if self.verdict else "fail",
            "failed_clause": self.failed_clause,
        }


def _default_x_samples(scenario: Scenario, count: int = 401) -> np.ndarray:
    lo, hi = scenario.x_support_hint
    margin = 0.2 * (hi - lo)
    xs = np.linspace(lo - margin, hi + margin, count)
    return np.union1d(xs, [0.0, lo, hi])


def truncation_tail(op: KernelOperator, scenario: Scenario) -> float:
    """Estimate of the neglected momentum tail of ||T (sup_x n0)||_op.

    The grid window is our own truncation of the momentum line; this
    integrates |T(p, q)| sup_x n0(x, q) over one extra window length on
    each side of the grid and reports the worst node.  Advisory only.
    """
    from .grid import build_momentum_grid
    from .kernel import eval_kernel
    g = op.grid
    x_samples = _default_x_samples(scenario, 101)
    out = 0.0
    for lo, hi in ((g.p_min - g.span, g.p_min), (g.p_max, g.p_max + g.span)):
        side = build_momentum_grid(lo, hi, 128)
        env = np.asarray(
            scenario.n0(x_samples[:, None], side.nodes[None, :]), dtype=float
        ).max(axis=0)
        absT = np.abs(eval_kernel(op.kernel, g.nodes[:, None], side.nodes[None, :]))
        out += float(np.max(absT @ (side.weights * env)))
    return out


def check_assumptions(scenario: Scenario, op: KernelOperator) -> AssumptionReport:
    """Evaluate the admissibility conditions on sampled seed data."""
    x_samples = _default_x_samples(scenario)
    n_vals = np.asarray(
        scenario.n0(x_samples[:, None], op.grid.nodes[None, :]), dtype=float)
    envelope = n_vals.max(axis=0)
    tn_norm = op.operator_norm(envelope=np.maximum(envelope, 0.0))
    threshold = sign_threshold(op.sign_class)
    n0_min = float(n_vals.min())
    vn_sup = float(np.max(np.abs(op.v) * envelope))
    tail = truncation_tail(op, scenario)

    failed = None
    if n0_min < 0:
        failed = "nonnegativity of the seed occupation"
    elif not np.isfinite(vn_sup):
        failed = "finiteness of sup |v(p) n0(x,p)|"
    elif not tn_norm < threshold:  # a NaN norm fails too
        failed = (f"operator-norm bound ||T sup_x n0||_op < {threshold:g} "
                  f"for a {op.sign_class} kernel")
    return AssumptionReport(
        sign_class=op.sign_class, tn_norm=float(tn_norm),
        threshold_used=float(threshold), vn_sup=vn_sup, n0_min=n0_min,
        sup_sampled=float(n_vals.max()), declared_sup=float(scenario.declared_sup_n),
        tail_estimate=tail, verdict=failed is None, failed_clause=failed)


# ---------------------------------------------------------------------------
# named momentum weights and entropy densities

def weight_values(name: str, op: KernelOperator) -> np.ndarray:
    """Named momentum weight h(p) sampled on the grid nodes."""
    if name == "one":
        return np.ones(op.count)
    if name == "momentum":
        return op.grid.nodes.copy()
    if name == "energy:v":
        return op.energy_weights()
    raise KeyError(f"unknown weight function {name!r}")


def xlogx(n):
    """n log n elementwise: 0 at n = 0, NaN below 0.

    The values of SciPy's ``special.xlogy(n, n)``, except that np.log stands
    in for libm's log: single values may differ by about 3e-16 relative.
    """
    n = np.asarray(n, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(n == 0.0, 0.0, n * np.log(n))


def fermi_entropy(n, p=None):
    return -xlogx(n) - xlogx(1.0 - n)


def classical_entropy(n, p=None):
    return -xlogx(n)


def boson_entropy(n, p=None):
    return -xlogx(n) + xlogx(1.0 + n)


ENTROPY_FUNCTIONS = {
    "fermi_entropy": fermi_entropy,
    "classical_entropy": classical_entropy,
    "boson_entropy": boson_entropy,
}


# ---------------------------------------------------------------------------
# conservation series

@dataclass(frozen=True)
class ConservationSeries:
    """Values of one conserved functional over a list of times."""

    name: str
    times: tuple
    values: tuple

    @property
    def relative_drift(self) -> float:
        v0 = self.values[0]
        return float(max(abs(v - v0) for v in self.values) / max(abs(v0), 1e-12))


def simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson integral of samples y at increasing nodes x, bit for
    bit as SciPy's ``integrate.simpson(y, x=x)`` on 1-D arrays.

    Each pair of intervals takes Simpson's rule for unequal widths.  With an
    even node count the last interval is left over and takes Cartwright's
    correction from the last three nodes.  Needs at least 3 nodes: the
    conserve schema's x_count >= 8 rules out SciPy's 2-node branch.
    """
    y = np.asarray(y, dtype=float)
    h = np.diff(np.asarray(x, dtype=float))
    stop = y.size - 2 if y.size % 2 else y.size - 3
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum = h0 + h1
    h0divh1 = h0 / h1
    result = np.sum(hsum / 6.0 * (y[0:stop:2] * (2.0 - 1.0 / h0divh1)
                                  + y[1:stop + 1:2] * (hsum * (hsum / (h0 * h1)))
                                  + y[2:stop + 2:2] * (2.0 - h0divh1)))
    if y.size % 2 == 0:
        # 0-d arrays, as SciPy has them: np.power on arrays may take a SIMD
        # path whose b ** 3 differs from libm's pow in the last bit
        a, b = h[-2:-1].reshape(()), h[-1:].reshape(())
        alpha = (2 * b ** 2 + 3 * a * b) / (6 * (b + a))
        beta = (b ** 2 + 3.0 * a * b) / (6 * a)
        eta = 1 * b ** 3 / (6 * a * (a + b))
        result += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return float(result)


def _check_window(xs: np.ndarray, mass_profile: np.ndarray, t: float,
                  solver: Solver) -> None:
    peak = float(np.max(np.abs(mass_profile)))
    edge = float(max(abs(mass_profile[0]), abs(mass_profile[-1])))
    if peak > 0 and edge > EDGE_SUPPORT_TOL * peak:
        vmax = float(np.max(np.abs(solver.op.v)))
        lo, hi = solver.tab.scenario.x_support_hint
        need = max(abs(lo), abs(hi)) + vmax * abs(t)
        raise SupportWindowError(
            f"support reached the window edge at t={t:g} "
            f"(edge/peak = {edge / peak:.2e}); widen to at least +-{need:.3g}")


def conservation_report(solver: Solver, times, x_window: tuple[float, float],
                        x_count: int = 400, weights: dict | None = None,
                        entropies: dict | None = None) -> dict[str, ConservationSeries]:
    """Charges and entropies from one state batch over every (t, x), shared
    by all."""
    weights = weights or {}
    entropies = entropies or {}
    xs = np.linspace(x_window[0], x_window[1], x_count)
    ts = np.asarray(times, dtype=float)
    w = solver.op.grid.weights
    acc: dict[str, list] = {f"Q[{k}]": [] for k in weights}
    acc.update({f"S[{k}]": [] for k in entropies})
    batch = solver.states_batch(np.repeat(ts, xs.size), np.tile(xs, ts.size))
    for i, t in enumerate(ts):
        states = batch[i * xs.size:(i + 1) * xs.size]
        rho_p = states.rho_p
        _check_window(xs, rho_p @ w, float(t), solver)
        for key, h in weights.items():
            density = (rho_p * h[None, :]) @ w
            acc[f"Q[{key}]"].append(simpson(density, xs))
        for key, g in entropies.items():
            density = ((g(states.n, solver.op.grid.nodes[None, :]) * states.one_dr) @ w
                       / TWO_PI)
            acc[f"S[{key}]"].append(simpson(density, xs))
    return {name: ConservationSeries(name, tuple(float(t) for t in times),
                                     tuple(vals))
            for name, vals in acc.items()}


# ---------------------------------------------------------------------------
# weak-form residual on a space-time rectangle

def _edge_pieces(a: float, b: float, cuts, total_points: int) -> tuple[list, list]:
    """The ends of the pieces of [a,b] split at the cuts, from a to b, and
    the Gauss-Legendre node count of each piece.

    The integrand of a discontinuous scenario jumps wherever any momentum
    node's contact crosses the edge; splitting there restores spectral
    convergence on each smooth piece.
    """
    lo, hi = min(a, b), max(a, b)
    span = hi - lo
    inner = sorted(c for c in cuts if lo + 1e-12 * span < c < hi - 1e-12 * span)
    merged = []
    for c in inner:
        if not merged or c - merged[-1] > 1e-9 * span:
            merged.append(c)
    pts = [a] + (merged if a <= b else merged[::-1]) + [b]
    counts = [max(6, int(round(total_points * abs(pts[i + 1] - pts[i]) / span)))
              for i in range(len(pts) - 1)]
    return pts, counts


def _edge_nodes(pts, counts, rules) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and signed weights of the pieces' rules, mapped from [-1, 1]."""
    nodes, weights = [], []
    for a, b, count in zip(pts[:-1], pts[1:], counts):
        ref_x, ref_w = rules[count]
        nodes.append(a + 0.5 * (b - a) * (ref_x + 1.0))
        weights.append(0.5 * (b - a) * ref_w)
    return np.concatenate(nodes), np.concatenate(weights)


def weak_form_edges(solver: Solver, rectangle, edge_points: int = 160) -> list:
    """The pieces of a rectangle's four edges, as ``_edge_pieces`` gives
    them, from one ``_edge_crossings`` call: the x-edges at t2 and t1, then
    the t-edges at x2 and x1."""
    x1, x2, t1, t2 = (float(v) for v in rectangle)
    x_lo, x_hi = min(x1, x2), max(x1, x2)
    cuts = _edge_crossings(solver, [(t2, x_lo, x_hi), (t1, x_lo, x_hi)],
                           [(x2, t1, t2), (x1, t1, t2)])
    return [_edge_pieces(a, b, c, edge_points)
            for (a, b), c in zip(((x1, x2), (x1, x2), (t1, t2), (t1, t2)), cuts)]


def _edge_crossings(solver: Solver, x_edges=(), t_edges=(),
                    scan: int = 96) -> list[np.ndarray]:
    """Where any mode's contact crosses each edge: one scan solve and one
    level-set solve for all the edges together.

    x_edges are (t, x_lo, x_hi) and t_edges (x, t_a, t_b).  The contact of
    momentum node q is a zero of psi_q = Xhat(t,x,q) - v_q t.  On an x-edge
    psi_q is strictly increasing in x, so its two end values bracket the
    one crossing a column can have; on a t-edge a scan of psi_q over the
    edge brackets every sign change, rising or falling.  Returns the
    crossings of each edge, x-edges first, to within 1e-11 (times
    max(1, |x|) on x-edges).
    """
    count = len(x_edges) + len(t_edges)
    if solver.tab.scenario.kind != "partitioning":
        return [np.empty(0) for _ in range(count)]
    ts = [np.full(2, t) for t, _, _ in x_edges] + [
        np.linspace(min(a, b), max(a, b), scan) for _, a, b in t_edges]
    xs = [np.array([lo, hi], dtype=float) for _, lo, hi in x_edges] + [
        np.full(scan, x) for x, _, _ in t_edges]
    along_x = np.arange(count) < len(x_edges)
    # the coordinate that varies along each edge, and the edges' scan rows
    param = np.concatenate([x if ax else t for ax, t, x in zip(along_x, ts, xs)])
    first = np.cumsum([0] + [t.size for t in ts])
    ts, xs = np.concatenate(ts), np.concatenate(xs)
    tol = np.array([1e-11 * max(1.0, abs(lo), abs(hi)) for _, lo, hi in x_edges]
                   + [1e-11] * len(t_edges))
    xhat, _, _, _ = solver.solve_batch(ts, xs)
    psi = xhat - np.multiply.outer(ts, solver.op.v)
    zeros, edge, cols, neg, pos = [], [], [], [], []
    for e in range(count):
        p = psi[first[e]:first[e + 1]]
        changed = np.any(np.sign(p[:-1]) != np.sign(p[1:]), axis=0)
        at_zero, _ = np.nonzero((p[:-1] == 0.0) & changed)
        zeros.append(param[first[e] + at_zero])
        i, c = np.nonzero(p[:-1] * p[1:] < 0)
        rising = p[i, c] < 0
        edge.append(np.full(c.size, e))
        cols.append(c)
        neg.append(first[e] + np.where(rising, i, i + 1))
        pos.append(first[e] + np.where(rising, i + 1, i))
    edge, cols, neg, pos = (np.concatenate(v) for v in (edge, cols, neg, pos))
    on_x, fixed = along_x[edge], np.where(along_x[edge], ts[neg], xs[neg])

    def at(a, rows):
        return (np.where(on_x[rows], fixed[rows], a),
                np.where(on_x[rows], a, fixed[rows]))

    roots = solver.bisect(at, param[neg], param[pos], psi[neg, cols],
                          psi[pos, cols], cols, tol=tol[edge], warm=xhat[neg])
    return [np.concatenate((zeros[e], roots[edge == e])) for e in range(count)]


def weak_form_residual(solver: Solver, rectangle: tuple[float, float, float, float],
                       p_index: int, edge_points: int = 160, *, edges=None,
                       rules=None) -> dict:
    """Normalized four-edge integral of the conservation identity.

    rectangle = (x1, x2, t1, t2).  Returns the raw edge sum, the
    normalization (largest edge-integral magnitude) and their ratio; a
    small ratio certifies the weak solution of the transported mode
    p_index on that rectangle.  The density and current at every edge node
    are recomputed through the dressing, so the residual genuinely tests
    the conservation identity rather than the height-field bookkeeping.
    The states at all edge nodes come from one batch.  edges are the
    rectangle's ``weak_form_edges`` and rules a ``gauss_legendre`` build
    that holds their counts; either is computed here when not given, so a
    caller with many rectangles can build the rules of all of them at once.
    """
    x1, x2, t1, t2 = (float(v) for v in rectangle)
    if edges is None:
        edges = weak_form_edges(solver, rectangle, edge_points)
    if rules is None:
        rules = gauss_legendre([c for _, counts in edges for c in counts])
    # edges q_t2, q_t1 (charge n 1dr along x) and j_x2, j_x1 (current n v_dr along t)
    quadrature = [_edge_nodes(pts, counts, rules) for pts, counts in edges]
    (xs_2, _), (xs_1, _), (ts_2, _), (ts_1, _) = quadrature
    states = solver.states_batch(
        np.concatenate((np.full(xs_2.size, t2), np.full(xs_1.size, t1), ts_2, ts_1)),
        np.concatenate((xs_2, xs_1, np.full(ts_2.size, x2), np.full(ts_1.size, x1))))
    charge = xs_2.size + xs_1.size
    density = states.n[:, p_index] * np.concatenate(
        (states.one_dr[:charge, p_index], states.v_dr[charge:, p_index]))
    ends = np.cumsum([nodes.size for nodes, _ in quadrature])[:-1]
    q_t2, q_t1, j_x2, j_x1 = (float(f @ w) for f, (_, w)
                              in zip(np.split(density, ends), quadrature))
    raw = (q_t2 - q_t1) + (j_x2 - j_x1)
    scale = max(abs(q_t2), abs(q_t1), abs(j_x2), abs(j_x1))
    residual = raw / scale if scale > 0 else 0.0
    return {
        "rectangle": (x1, x2, t1, t2),
        "p_index": int(p_index),
        "momentum": float(solver.op.grid.nodes[p_index]),
        "edges": {"q_t2": q_t2, "q_t1": q_t1, "j_x2": j_x2, "j_x1": j_x1},
        "raw": raw,
        "scale": scale,
        "residual": residual,
    }


# ---------------------------------------------------------------------------
# derivative identities (finite-difference check of the extended derivatives)

def derivative_identity_check(solver: Solver, t: float, x: float,
                              h: float = 1e-4) -> dict[str, float]:
    """Max mismatch of central differences of Xhat and N against the
    dressed identities: d_x Xhat = 1dr, d_t Xhat = -(v_dr - v),
    d_x N = n 1dr, d_t N = -n v_dr.  Meaningful for C^1 seed data."""
    states = solver.states_batch([t, t, t, t + h, t - h], [x, x + h, x - h, x, x])
    xhat, height = states.xhat, states.N
    n, one_dr, v_dr = states.n[0], states.one_dr[0], states.v_dr[0]
    fd = {
        "dXhat_dx": (xhat[1] - xhat[2]) / (2 * h),
        "dXhat_dt": (xhat[3] - xhat[4]) / (2 * h),
        "dN_dx": (height[1] - height[2]) / (2 * h),
        "dN_dt": (height[3] - height[4]) / (2 * h),
    }
    model = {
        "dXhat_dx": one_dr,
        "dXhat_dt": -(v_dr - solver.op.v),
        "dN_dx": n * one_dr,
        "dN_dt": -n * v_dr,
    }
    return {key: float(np.max(np.abs(fd[key] - model[key]))) for key in fd}
