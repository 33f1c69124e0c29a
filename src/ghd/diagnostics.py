"""Admissibility checks before solving; conservation and weak-form checks after.

The assumption report judges sampled seed data by ``seed.admission``, the
clauses every run is admitted by: nonnegativity, the declared bound,
finiteness of sup |v n0| and the operator-norm bound (threshold 1 for
fixed-sign kernels, 1/2 otherwise).  A failing check is a verdict, not an
exception.

Conserved charges Q[h](t) = integral dx dp rho_p h(p) and generalized
entropies S[g](t) = (1/2pi) integral dx dp g(n,p) 1dr are computed from
one state batch over all times with Simpson spatial integrals (the last
entry of ``seed.cumulative_simpson``); the weak-form residual sums the
four edge integrals of the conservation identity over a space-time
rectangle with Gauss-Legendre edge quadrature, splitting edges where a
contact discontinuity of partitioning data, the level set
Xhat(t,x,q) - v_q t = 0, crosses them.  That solution is a
function of x/t alone, so each contact is a ray x = xi t in each half-plane
(Castro-Alvaredo, Doyon and Yoshimura, PRX 6, 041065 (2016); Bertini et
al., PRL 117, 207201 (2016)).  ``ghd weakcheck`` finds the 2N slopes once
(``Solver.bisect`` along t = +-1), reads every rectangle's cuts off them,
builds the Gauss-Legendre rules of all the edge pieces in one
``grid.gauss_legendre`` call and makes one state batch per rectangle, with
each edge node (t, x) off t = 0 solved on its ray at (sign t, x/|t|), so
that every edge lies on one of the lines t = 1, t = -1 and t = 0.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .dressing import sign_threshold
from .errors import NumericalError, SupportWindowError
from .fixed_point import Solver
from .kernel import KernelOperator
from .seed import Scenario, admission, cumulative_simpson

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
        return {**asdict(self), "verdict": "pass" if self.verdict else "fail"}


def _default_x_samples(scenario: Scenario, count: int = 401) -> np.ndarray:
    lo, hi = scenario.x_support_hint
    margin = 0.2 * (hi - lo)
    xs = np.linspace(lo - margin, hi + margin, count)
    return np.union1d(xs, [0.0, lo, hi])


def truncation_tail(op: KernelOperator, scenario: Scenario) -> float:
    """Estimate of the neglected momentum tail of ||T (sup_x |n0|)||_op.

    The grid window is our own truncation of the momentum line; this
    integrates |T(p, q)| sup_x |n0(x, q)| over one extra window length on
    each side of the grid and reports the worst node.  Advisory only.
    """
    from .grid import build_momentum_grid
    from .kernel import eval_kernel
    g = op.grid
    x_samples = _default_x_samples(scenario, 101)
    out = 0.0
    for lo, hi in ((g.p_min - g.span, g.p_min), (g.p_max, g.p_max + g.span)):
        side = build_momentum_grid(lo, hi, 128)
        env = np.abs(np.asarray(
            scenario.n0(x_samples[:, None], side.nodes[None, :]), dtype=float
        )).max(axis=0)
        absT = np.abs(eval_kernel(op.kernel, g.nodes[:, None], side.nodes[None, :]))
        out += float(np.max(absT @ (side.weights * env)))
    return out


def check_assumptions(scenario: Scenario, op: KernelOperator) -> AssumptionReport:
    """Evaluate the admissibility conditions (``seed.admission``) on sampled
    seed data."""
    x_samples = _default_x_samples(scenario)
    n_vals = np.asarray(
        scenario.n0(x_samples[:, None], op.grid.nodes[None, :]), dtype=float)
    failed, envelope, tn_norm, n0_min, vn_sup = admission(
        n_vals, op, scenario.declared_sup_n)
    return AssumptionReport(
        sign_class=op.sign_class, tn_norm=tn_norm,
        threshold_used=sign_threshold(op.sign_class), vn_sup=vn_sup, n0_min=n0_min,
        sup_sampled=float(envelope.max()), declared_sup=float(scenario.declared_sup_n),
        tail_estimate=truncation_tail(op, scenario), verdict=failed is None,
        failed_clause=failed)


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
    def drift(self) -> np.ndarray:
        """|v - v0| / max(|v0|, 1e-12) at each time."""
        values = np.asarray(self.values, dtype=float)
        return np.abs(values - values[0]) / max(abs(values[0]), 1e-12)

    @property
    def relative_drift(self) -> float:
        return float(self.drift.max())


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
    dx = (x_window[1] - x_window[0]) / (x_count - 1)
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
            acc[f"Q[{key}]"].append(
                float(cumulative_simpson(density, dx=dx, axis=0, initial=0.0)[-1]))
        for key, g in entropies.items():
            density = ((g(states.n, solver.op.grid.nodes[None, :]) * states.one_dr) @ w
                       / TWO_PI)
            acc[f"S[{key}]"].append(
                float(cumulative_simpson(density, dx=dx, axis=0, initial=0.0)[-1]))
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


def _self_similar(solver: Solver) -> bool:
    """Whether the seed tables are two lines through the origin, as
    partitioning tables are: then the fixed point scales,
    Xhat(lam t, lam x) = lam Xhat(t, x) for lam > 0, and n, 1dr and v_dr
    are functions of x/t alone in each half-plane."""
    return solver.tab._sides is not None


def _contact_slopes(solver: Solver) -> tuple[np.ndarray, np.ndarray]:
    """The slopes (xi_plus, xi_minus) of every mode's contact, x = xi t, at
    t > 0 and at t < 0, each within 1e-12 max(1, bracket width)/2.

    Partitioning data are two lines through the origin, so the fixed point
    scales, Xhat(lam t, lam x) = lam Xhat(t, x) for lam > 0, and the contact
    of mode q, the zero of psi_q = Xhat(t, x, q) - v_q t, is a ray in each
    half-plane.  At t = +-1, psi_q rises in x with slope 1dr in [R, upper]
    (``tab.bounds``), so from psi0 = psi_q(0) its root lies between 0 and
    -psi0/R.  psi is known to within fp_tol, so that end is taken at
    -(psi0 +- 2 fp_tol)/R, widened by a relative 1e-6, where psi must have
    the other sign; one level-set solve over the 2N rows then finds the
    roots.  That is two solves, then the level-set steps.
    """
    bounds, fp_tol, N = solver.tab.bounds, solver.config.fp_tol, solver.op.count
    t = np.repeat([1.0, -1.0], N)
    cols = np.tile(np.arange(N), 2)
    v = solver.op.v[cols] * t
    xhat0, _, _, _ = solver.solve_batch([1.0, -1.0], 0.0)
    psi0 = xhat0.ravel() - v
    far = -(psi0 + np.copysign(2.0 * fp_tol, psi0)) / bounds.r_value * (1.0 + 1e-6)
    xhat, _, _, _ = solver.solve_batch(t, far)
    psi = xhat[np.arange(2 * N), cols] - v
    rising, wrong = psi0 < 0, (psi0 < 0) == (psi < 0)
    if wrong.any():
        raise NumericalError(
            f"contact of mode {cols[wrong.argmax()]} not bracketed by the bi-Lipschitz "
            f"bound 1dr >= R = {bounds.r_value:.6g}: psi has one sign on [0, -psi(0)/R]")
    roots = solver.bisect(t, np.where(rising, 0.0, far), np.where(rising, far, 0.0),
                          np.where(rising, psi0, psi), np.where(rising, psi, psi0),
                          cols, tol=1e-12 * np.maximum(1.0, np.abs(far)), warm=xhat)
    return roots[:N], -roots[N:]


def _edge_cuts(slopes, x1: float, x2: float, t1: float, t2: float) -> list:
    """The contacts x = xi t on a rectangle's x-edges at t2, t1 and t-edges
    at x2, x1 (``_edge_pieces`` drops those off the edge); 0 alone on an
    edge through the origin."""
    if slopes is None:
        return [()] * 4
    plus, minus = slopes
    cuts = [[0.0] if t == 0 else (plus if t > 0 else minus) * t for t in (t2, t1)]
    with np.errstate(divide="ignore", invalid="ignore"):
        for x in (x2, x1):
            after, before = x / plus, x / minus
            cuts.append([0.0] if x == 0 else np.r_[after[after > 0], before[before < 0]])
    return cuts


def weak_form_edges(solver: Solver, rectangles, edge_points: int = 160) -> list:
    """The pieces of each rectangle's four edges, as ``_edge_pieces`` gives
    them: the x-edges at t2 and t1, then the t-edges at x2 and x1.  Edges
    are cut where contacts cross them; only tables that are two lines
    through the origin have contacts, their slopes found once for all."""
    slopes = _contact_slopes(solver) if _self_similar(solver) else None
    out = []
    for rect in rectangles:
        x1, x2, t1, t2 = (float(v) for v in rect)
        ends = ((x1, x2), (x1, x2), (t1, t2), (t1, t2))
        out.append([_edge_pieces(a, b, c, edge_points) for (a, b), c
                    in zip(ends, _edge_cuts(slopes, x1, x2, t1, t2))])
    return out


def weak_form_residual(solver: Solver, rectangle: tuple[float, float, float, float],
                       p_index: int, edges, rules) -> dict:
    """Normalized four-edge integral of the conservation identity.

    rectangle = (x1, x2, t1, t2).  Returns the raw edge sum, the
    normalization (largest edge-integral magnitude) and their ratio; a
    small ratio certifies the weak solution of the transported mode
    p_index on that rectangle.  The density and current at every edge node
    are recomputed through the dressing, so the residual genuinely tests
    the conservation identity rather than the height-field bookkeeping.
    The states at all edge nodes come from one batch.  On self-similar
    tables (``_self_similar``) the residual, which reads only n, 1dr and
    v_dr, is unchanged when each node (t, x) off t = 0 is solved at
    (sign t, x/|t|): every edge then lies on the line t = 1, t = -1 or
    t = 0 and is solved coarse to fine along it, no field is scaled back,
    and each node's certificate is its mapped row's own a-posteriori bound.
    edges are the rectangle's pieces from ``weak_form_edges`` and rules a
    ``gauss_legendre`` build that holds their counts, so a caller with many
    rectangles finds the cuts and builds the rules of all of them at once.
    """
    x1, x2, t1, t2 = (float(v) for v in rectangle)
    # edges q_t2, q_t1 (charge n 1dr along x) and j_x2, j_x1 (current n v_dr along t)
    quadrature = [_edge_nodes(pts, counts, rules) for pts, counts in edges]
    (xs_2, _), (xs_1, _), (ts_2, _), (ts_1, _) = quadrature
    ts = np.concatenate((np.full(xs_2.size, t2), np.full(xs_1.size, t1), ts_2, ts_1))
    xs = np.concatenate((xs_2, xs_1, np.full(ts_2.size, x2), np.full(ts_1.size, x1)))
    if _self_similar(solver):
        away = ts != 0
        xs[away] /= np.abs(ts[away])
        ts = np.sign(ts)
    states = solver.states_batch(ts, xs)
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
