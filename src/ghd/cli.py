"""Batch front door: ``ghd <command> --config FILE [--workers N] [--out DIR]``.

Commands
  check              admissibility report (JSON), exit 3 on a fail verdict
  seed               seed-table summary (JSON) and CSV dump
  solve              state table CSV: t,x,p,n,rho_p,rho_s,v_eff,u
  conserve           charge/entropy series CSV (t, value, drift)
  weakcheck          weak-form residual table, exit 1 if above tolerance
  compare-reference  upwind-oracle L1 gaps and convergence order
  plotdata           gnuplot-ready columnar profiles per time

Exit codes: 0 success, 1 diagnostic above tolerance, 2 configuration or
window error (an ``--out`` that cannot be made a directory included), 3
assumption failure, 4 convergence failure, 5 numerical failure (an internal
check such as seed monotonicity failed).  Identical config (including any
RNG seed inside it) produces byte-identical output files; floats are
written with 17 significant digits, as ``"%.17g" % v`` renders them.

``--workers N`` (and ``GHD_WORKERS``) is accepted for compatibility and has
no effect: every command runs in one process.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import config as config_mod
from .csvfmt import write_rows
from .diagnostics import (ENTROPY_FUNCTIONS, check_assumptions,
                          conservation_report, gauss_legendre, weak_form_edges,
                          weak_form_residual, weight_values)
from .errors import (AssumptionError, ConfigError, ConvergenceError,
                     GHDError, SupportWindowError)
from .fixed_point import Solver
from .kernel import KernelOperator
from .reference import (cell_count, convergence_order, default_window,
                        fixed_point_rho, integrate_upwind, l1_gap)
from .seed import build_seed

COMMANDS = ("check", "seed", "solve", "conserve", "weakcheck",
            "compare-reference", "plotdata")


def _fmt(v) -> str:
    return f"{float(v):.17g}"


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: str, blocks, keys=None, sep: str = ",") -> None:
    """Write ``header`` as the first line(s), then the rows of every block.

    ``blocks`` yields ``(prefix, values)`` pairs, ``values`` a 2-D float
    array.  Row ``j`` of a block is ``prefix``, then ``keys[j]`` when
    ``keys`` is given, then the fields of ``values[j]`` at 17 significant
    digits joined by ``sep``.  ``prefix`` and ``keys`` are leading key
    fields formatted beforehand with ``_fmt``, each ending in ``sep``, so a
    key repeated down the table is formatted once.  The value fields are
    rendered by ``csvfmt.write_rows``, byte for byte as ``"%.17g" % v``.
    """
    with open(path, "w") as fh:
        fh.write(header + "\n")
        write_rows(fh, blocks, keys, sep)


def _momentum_indices(rt, section: str, key: str, default) -> list[int]:
    """Momentum-node indices from a config key, each below the node count."""
    indices = list(rt.cfg.get(section, {}).get(key, default))
    if any(i >= rt.grid.count for i in indices):
        raise ConfigError(f"config schema violation at $.{section}.{key}: index "
                          f"{max(indices)} is out of range for {rt.grid.count} nodes")
    return indices


class _Runtime:
    """Objects shared by every command, built once from the config."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.grid = config_mod.build_grid_from(cfg)
        self.kernel = config_mod.build_kernel_from(cfg)
        self.scenario = config_mod.build_scenario_from(cfg)
        self.op = KernelOperator(self.kernel, self.grid)
        self.solver_cfg = config_mod.build_solver_config_from(cfg)
        self._solver = None

    @property
    def solver(self) -> Solver:
        if self._solver is None:
            tab = build_seed(self.scenario, self.op,
                             config_mod.build_seed_spec_from(self.cfg))
            self._solver = Solver(tab, self.solver_cfg)
        return self._solver


# ---------------------------------------------------------------------------
# commands

def cmd_check(rt: _Runtime, out: Path) -> int:
    report = check_assumptions(rt.scenario, rt.op)
    _write_json(out / "assumptions.json", report.to_dict())
    print(f"assumption check: {'pass' if report.verdict else 'fail'}"
          f" (||T sup n0|| = {report.tn_norm:.6g},"
          f" threshold {report.threshold_used:g})")
    if not report.verdict:
        print(f"failed clause: {report.failed_clause}")
        return 3
    return 0


def cmd_seed(rt: _Runtime, out: Path) -> int:
    tab = rt.solver.tab
    summary = {
        "x_min": tab.x_min, "x_max": tab.x_max, "x_count": int(tab.x_nodes.size),
        "interpolation": tab.mode, "contraction_rate": tab.rate,
        "sup_n0": tab.sup_n0, "vn_sup": tab.vn_sup,
        "min_slope_A": tab.min_slope_A,
        "bounds": {"tn_norm": tab.bounds.tn_norm, "r_value": tab.bounds.r_value,
                   "upper": tab.bounds.upper},
    }
    _write_json(out / "seed_summary.json", summary)
    table = np.stack((tab.A, tab.B, tab.dA, tab.dB), axis=-1)   # (x, p, 4)
    _write_csv(out / "seed_tables.csv", "x,p,Xhat0,B,one_dr,n_one_dr",
               ((_fmt(x) + ",", block) for x, block in zip(tab.x_nodes, table)),
               keys=[_fmt(p) + "," for p in rt.grid.nodes])
    print(f"seed tables: {tab.x_nodes.size} x-nodes, mode {tab.mode}, "
          f"rate {tab.rate:.6g}")
    return 0


def cmd_solve(rt: _Runtime, out: Path) -> int:
    sec = rt.cfg.get("solve")
    if sec is None:
        raise ConfigError("config schema violation at $.solve: section required")
    xs = np.linspace(sec["x_min"], sec["x_max"], sec["x_count"])
    x_keys = [_fmt(x) + "," for x in xs]
    times = np.array(sec["times"], dtype=float)
    # one state batch over every (t, x); each time's table is built only when
    # the writer reaches it, so one is held at a time
    st = rt.solver.states_batch(np.repeat(times, xs.size), np.tile(xs, times.size))

    def blocks():
        for i, t in enumerate(sec["times"]):
            s = st[i * xs.size:(i + 1) * xs.size]
            table = np.stack((s.n, s.rho_p, s.rho_s, s.v_eff, s.u), axis=-1)
            t_key = _fmt(t) + ","
            yield from ((t_key + x_key, rows) for x_key, rows in zip(x_keys, table))

    _write_csv(out / "solve.csv", "t,x,p,n,rho_p,rho_s,v_eff,u", blocks(),
               keys=[_fmt(p) + "," for p in rt.grid.nodes])
    print(f"solved {len(sec['times']) * xs.size} slices "
          f"at {len(sec['times'])} times")
    return 0


def cmd_conserve(rt: _Runtime, out: Path) -> int:
    sec = rt.cfg.get("conserve")
    if sec is None:
        raise ConfigError("config schema violation at $.conserve: section required")
    weights = {name: weight_values(name, rt.op)
               for name in sec.get("charges", ["one"])}
    entropies = {name: ENTROPY_FUNCTIONS[name]
                 for name in sec.get("entropies", [])}
    report = conservation_report(
        rt.solver, sec["times"], (sec["x_min"], sec["x_max"]),
        sec.get("x_count", 400), weights, entropies)
    summary = {}
    for name, series in sorted(report.items()):
        tag = name.replace("[", "_").replace("]", "").replace(":", "-")
        v0 = series.values[0]
        values = np.asarray(series.values, dtype=float)
        drift = np.abs(values - v0) / max(abs(v0), 1e-12)
        _write_csv(out / f"conserve_{tag}.csv", "t,value,drift",
                   [("", np.column_stack((series.times, values, drift)))])
        summary[name] = {"relative_drift": series.relative_drift,
                         "initial": v0}
        print(f"{name}: drift {series.relative_drift:.3e}")
    _write_json(out / "conserve_summary.json", summary)
    return 0


def cmd_weakcheck(rt: _Runtime, out: Path) -> int:
    sec = rt.cfg.get("weakcheck", {})
    rects = [tuple(r) for r in sec.get("rectangles", [])]
    where = [f"$.weakcheck.rectangles[{i}]" for i in range(len(rects))]
    p_indices = _momentum_indices(rt, "weakcheck", "p_indices", [])
    if "random" in sec:
        rects += config_mod.random_rectangles(sec["random"], rt.scenario)
        where += ["$.weakcheck.random"] * (len(rects) - len(where))
        rng = np.random.default_rng(sec["random"]["seed"] + 1)
        while len(p_indices) < len(rects):
            p_indices.append(int(rng.integers(0, rt.grid.count)))
    if not rects:
        raise ConfigError("config schema violation at $.weakcheck.rectangles: "
                          "no rectangles given")
    for rect, at in zip(rects, where):
        if rect[0] == rect[1] or rect[2] == rect[3]:
            raise ConfigError(f"config schema violation at {at}: rectangle "
                              f"{list(rect)} has x1 == x2 or t1 == t2")
    if len(p_indices) > len(rects):
        raise ConfigError(
            f"config schema violation at $.weakcheck.p_indices: {len(p_indices)} "
            f"indices for {len(rects)} rectangles")
    if len(p_indices) < len(rects):
        p_indices += [rt.grid.count // 2] * (len(rects) - len(p_indices))
    tol = sec.get("tolerance", 1e-4)
    edge_points = sec.get("edge_points", 160)
    edges = [weak_form_edges(rt.solver, rect, edge_points) for rect in rects]
    rules = gauss_legendre([c for pieces in edges for _, counts in pieces for c in counts])
    rows = []
    worst = 0.0
    for rect, p_idx, pieces in zip(rects, p_indices, edges):
        res = weak_form_residual(rt.solver, rect, p_idx, edge_points, edges=pieces,
                                 rules=rules)
        worst = max(worst, abs(res["residual"]))
        rows.append((*rect, p_idx, res["momentum"], res["residual"],
                     res["scale"]))
    _write_csv(out / "weakcheck.csv", "x1,x2,t1,t2,p_index,p,residual,scale",
               [("", np.array(rows, dtype=float))])
    print(f"weak-form residuals: {len(rows)} rectangles, worst {worst:.3e}, "
          f"tolerance {tol:g}")
    return 0 if worst <= tol else 1


def cmd_compare_reference(rt: _Runtime, out: Path) -> int:
    sec = rt.cfg.get("compare")
    if sec is None:
        raise ConfigError("config schema violation at $.compare: section required")
    t_end = sec["t_end"]
    # the schema requires x_min and x_max together
    window = ((sec["x_min"], sec["x_max"]) if "x_min" in sec
              else default_window(rt.scenario, rt.op, t_end))
    for i, dx in enumerate(sec["dx_list"]):
        cells = cell_count(*window, dx)
        if cells < 2:
            raise ConfigError(
                f"config schema violation at $.compare.dx_list[{i}]: dx {dx:g} "
                f"leaves {cells} cells in the window [{window[0]:g}, {window[1]:g}]; "
                f"the oracle needs at least 2")
    gaps = []
    for dx in sec["dx_list"]:
        field = integrate_upwind(rt.scenario, rt.op, t_end, dx,
                                 cfl=sec.get("cfl", 0.9), x_window=window)
        rho_ref = fixed_point_rho(rt.solver, t_end, field.x_cells)
        gaps.append(l1_gap(field, rho_ref, rt.op))
        print(f"dx={dx:g}: L1 gap {gaps[-1]:.6e}")
    _write_csv(out / "compare_reference.csv", "dx,l1_gap",
               [("", np.column_stack((sec["dx_list"], gaps)))])
    order = convergence_order(sec["dx_list"], gaps) if len(gaps) > 1 else None
    _write_json(out / "compare_summary.json",
                {"t_end": t_end, "dx": list(sec["dx_list"]), "l1_gap": gaps,
                 "order": order})
    if order is not None:
        print(f"measured convergence order: {order:.3f}")
    return 0


def cmd_plotdata(rt: _Runtime, out: Path) -> int:
    sec = rt.cfg.get("plotdata")
    if sec is None:
        raise ConfigError("config schema violation at $.plotdata: section required")
    xs = np.linspace(sec["x_min"], sec["x_max"], sec["x_count"])
    n = rt.grid.count
    probes = _momentum_indices(rt, "plotdata", "p_probes", [n // 4, n // 2, 3 * n // 4])
    w = rt.grid.weights
    times = np.array(sec["times"], dtype=float)
    batch = rt.solver.states_batch(np.repeat(times, xs.size), np.tile(xs, times.size))
    columns = "# x  mass_density  mean_v_eff  " + "  ".join(
        f"n(p={_fmt(rt.grid.nodes[j])})" for j in probes)
    for idx in range(times.size):
        st = batch[idx * xs.size:(idx + 1) * xs.size]
        rows = np.empty((len(st), 3 + len(probes)))
        rows[:, 0] = st.x
        rows[:, 3:] = st.n[:, probes]
        rho_p = st.rho_p
        # one dot per row: a matrix-vector product need not give the same bits
        for row, density, current in zip(rows, rho_p, rho_p * st.v_eff):
            mass = float(density @ w)
            row[1:3] = mass, float(current @ w) / mass if mass > 1e-300 else 0.0
        _write_csv(out / f"profile_t{idx:03d}.dat",
                   f"# t = {_fmt(st.t[0])}\n{columns}", [("", rows)], sep=" ")
    print(f"wrote {times.size} profile files")
    return 0


# ---------------------------------------------------------------------------

_DISPATCH = {
    "check": cmd_check,
    "seed": cmd_seed,
    "solve": cmd_solve,
    "conserve": cmd_conserve,
    "weakcheck": cmd_weakcheck,
    "compare-reference": cmd_compare_reference,
    "plotdata": cmd_plotdata,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ghd", description="GHD fixed-point solver batch runner")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--workers", type=int,
                        default=os.environ.get("GHD_WORKERS", "1"),
                        help="accepted for compatibility and ignored; every "
                             "command runs in one process (default: GHD_WORKERS or 1)")
    parser.add_argument("--out", default="ghd_out", help="output directory")
    args = parser.parse_args(argv)
    try:
        cfg = config_mod.load_config(args.config)
        rt = _Runtime(cfg)
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out {out}: cannot create the output "
                              f"directory ({exc.strerror})") from exc
        return _DISPATCH[args.command](rt, out)
    except (ConfigError, SupportWindowError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except AssumptionError as exc:
        print(f"assumption failure: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 4
    except GHDError as exc:  # NumericalError, or a bare GHDError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
