import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ghd
from ghd import config as config_mod
from ghd.cli import _Runtime, _write_csv, cmd_check, main
from ghd.errors import AssumptionError, NumericalError

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _small_zero_config(**extra):
    cfg = {
        "grid": {"p_min": -3.0, "p_max": 3.0, "count": 24},
        "kernel": {"model": "zero"},
        "scenario": {"kind": "gaussian_bump", "a": 0.5, "sigma": 0.6,
                     "gamma": 1.0},
        "seed_grid": {"x_min": -6.0, "x_max": 6.0, "count": 200},
        "solve": {"times": [0.5], "x_min": -3.0, "x_max": 3.0, "x_count": 40},
    }
    cfg.update(extra)
    return cfg


def _small_ll_config(**extra):
    cfg = {
        "grid": {"p_min": -4.0, "p_max": 4.0, "count": 24},
        "kernel": {"model": "lieb_liniger", "c": 1.0},
        "scenario": {"kind": "gaussian_bump", "a": 0.5, "sigma": 0.8,
                     "gamma": 1.0},
        "seed_grid": {"x_min": -8.0, "x_max": 8.0, "count": 300},
        "solve": {"times": [0.0, 0.4], "x_min": -3.0, "x_max": 3.0,
                  "x_count": 30},
    }
    cfg.update(extra)
    return cfg


def _read_csv(path):
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


def test_check_bundled_fixture_passes(tmp_path):
    rc = main(["check", "--config", str(CONFIGS / "lieb_liniger_gaussian.json"),
               "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "assumptions.json").read_text())
    assert payload["verdict"] == "pass"
    assert payload["threshold_used"] == 1.0


def test_check_failing_scenario_exit3(tmp_path):
    cfg = _small_ll_config()
    cfg["scenario"] = {"kind": "gaussian_bump", "a": 3.0, "sigma": 1.0,
                      "gamma": 0.05}
    rc = main(["check", "--config", _write(tmp_path, "bad.json", cfg),
               "--out", str(tmp_path)])
    assert rc == 3
    payload = json.loads((tmp_path / "assumptions.json").read_text())
    assert payload["verdict"] == "fail"


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def test_check_nan_operator_norm_exit3(tmp_path):
    # an infinite coupling gives a NaN norm, which must fail the bound; the
    # config loader rejects c = inf, so the runtime is built from the dict
    cfg = json.loads((CONFIGS / "lieb_liniger_gaussian.json").read_text())
    cfg["kernel"]["c"] = float("inf")
    with np.errstate(invalid="ignore"):   # inf / inf: the NaN kernel wanted here
        rc = cmd_check(_Runtime(cfg), tmp_path)
    assert rc == 3
    payload = json.loads((tmp_path / "assumptions.json").read_text(),
                         parse_constant=_reject_constant)
    assert payload["verdict"] == "fail"
    assert payload["failed_clause"].startswith("operator-norm bound")
    assert payload["tn_norm"] is None


def test_schema_violation_exit2(tmp_path, capsys):
    cfg = _small_zero_config()
    cfg["grid"]["count"] = 1
    rc = main(["check", "--config", _write(tmp_path, "bad.json", cfg),
               "--out", str(tmp_path)])
    assert rc == 2
    assert "$.grid.count" in capsys.readouterr().err


def test_unknown_key_exit2(tmp_path, capsys):
    cfg = _small_zero_config()
    cfg["grd"] = {}
    rc = main(["check", "--config", _write(tmp_path, "bad.json", cfg),
               "--out", str(tmp_path)])
    assert rc == 2
    assert "grd" in capsys.readouterr().err


def test_missing_config_exit2(tmp_path):
    rc = main(["check", "--config", str(tmp_path / "absent.json"),
               "--out", str(tmp_path)])
    assert rc == 2


def test_convergence_failure_exit4(tmp_path):
    cfg = _small_ll_config(solver={"fp_tol": 1e-12, "max_iters": 1})
    rc = main(["solve", "--config", _write(tmp_path, "cfg.json", cfg),
               "--out", str(tmp_path)])
    assert rc == 4


def test_invalid_fp_tol_exit2(tmp_path, capsys):
    # JSON NaN and Infinity pass the schema's exclusiveMinimum; the config
    # loader rejects them as non-finite numbers
    path = tmp_path / "cfg.json"
    for bad in (float("nan"), float("inf")):
        path.write_text(json.dumps(_small_ll_config(solver={"fp_tol": bad})))
        rc = main(["solve", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert "fp_tol" in capsys.readouterr().err


def test_nan_contraction_rate_exit3():
    # a config NaN exits 2 at validation; through the API a NaN gamma gives a
    # NaN rate, which must fail admissibility, not reach the dressing iteration
    op = ghd.KernelOperator(ghd.lieb_liniger(1.0), ghd.build_momentum_grid(-4.0, 4.0, 24))
    with pytest.raises(AssumptionError, match="contraction rate"):
        ghd.build_seed(ghd.gaussian_bump(0.5, 0.8, float("nan")), op,
                       ghd.SpatialGridSpec(-8.0, 8.0, 300))


def test_numerical_failure_exit5(tmp_path, monkeypatch, capsys):
    def broken_seed(*args, **kwargs):
        raise NumericalError("seed coordinate change is not strictly increasing")

    monkeypatch.setattr("ghd.cli.build_seed", broken_seed)
    rc = main(["solve", "--config", _write(tmp_path, "cfg.json", _small_zero_config()),
               "--out", str(tmp_path)])
    assert rc == 5
    assert "not strictly increasing" in capsys.readouterr().err


def test_solve_zero_kernel_matches_shifted_input(tmp_path):
    cfg = _small_zero_config()
    rc = main(["solve", "--config", _write(tmp_path, "cfg.json", cfg),
               "--out", str(tmp_path)])
    assert rc == 0
    header, data = _read_csv(tmp_path / "solve.csv")
    cols = {name: data[:, i] for i, name in enumerate(header)}
    expect = 0.5 * np.exp(-0.5 * ((cols["x"] - cols["p"] * cols["t"]) / 0.6) ** 2) \
        * np.exp(-cols["p"] ** 2)
    assert np.max(np.abs(cols["n"] - expect)) <= 1e-9
    assert np.max(np.abs(cols["u"] - (cols["x"] - cols["p"] * cols["t"]))) <= 1e-9


def test_solve_deterministic_bytes(tmp_path):
    cfg = _write(tmp_path, "cfg.json", _small_ll_config())
    for sub in ("a", "b"):
        assert main(["solve", "--config", cfg,
                     "--out", str(tmp_path / sub)]) == 0
    assert filecmp.cmp(tmp_path / "a" / "solve.csv",
                       tmp_path / "b" / "solve.csv", shallow=False)


def test_solve_duplicate_times_give_identical_rows(tmp_path):
    # equal times, 0.0 and -0.0, and a descending x range in one batch
    cfg = _small_ll_config(solve={"times": [0.4, 0.4, 0.0, -0.0], "x_min": 3.0,
                                  "x_max": -3.0, "x_count": 31})
    assert main(["solve", "--config", _write(tmp_path, "cfg.json", cfg),
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "solve.csv").read_text().splitlines()[1:]
    size = 31 * 24
    blocks = [lines[i * size:(i + 1) * size] for i in range(4)]
    assert len(lines) == 4 * size and blocks[0] == blocks[1]
    assert [line.split(",", 1)[1] for line in blocks[2]] \
        == [line.split(",", 1)[1] for line in blocks[3]]
    assert blocks[3][0].startswith("-0,3,")
    _, data = _read_csv(tmp_path / "solve.csv")
    assert np.all(np.diff(data[:size:24, 1]) < 0)


def test_workers_do_not_change_output(tmp_path):
    cfg = _write(tmp_path, "cfg.json", _small_ll_config())
    assert main(["solve", "--config", cfg, "--workers", "1",
                 "--out", str(tmp_path / "w1")]) == 0
    assert main(["solve", "--config", cfg, "--workers", "2",
                 "--out", str(tmp_path / "w2")]) == 0
    assert filecmp.cmp(tmp_path / "w1" / "solve.csv",
                       tmp_path / "w2" / "solve.csv", shallow=False)


def test_seed_outputs(tmp_path):
    cfg = _write(tmp_path, "cfg.json", _small_ll_config())
    rc = main(["seed", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "seed_summary.json").read_text())
    assert summary["interpolation"] in ("hermite", "linear")
    assert 0 < summary["contraction_rate"] < 1
    lines = (tmp_path / "seed_tables.csv").read_text().strip().splitlines()
    assert lines[0] == "x,p,Xhat0,B,one_dr,n_one_dr"
    assert len(lines) == 1 + summary["x_count"] * 24


def test_conserve_outputs(tmp_path):
    cfg = _small_ll_config(conserve={
        "times": [0.0, 0.5], "x_min": -9.0, "x_max": 9.0, "x_count": 201,
        "charges": ["one", "momentum"], "entropies": ["fermi_entropy"]})
    rc = main(["conserve", "--config", _write(tmp_path, "cfg.json", cfg),
               "--out", str(tmp_path)])
    assert rc == 0
    for tag in ("Q_one", "Q_momentum", "S_fermi_entropy"):
        header, data = _read_csv(tmp_path / f"conserve_{tag}.csv")
        assert header == ["t", "value", "drift"]
        assert data.shape == (2, 3)
    summary = json.loads((tmp_path / "conserve_summary.json").read_text())
    assert summary["Q[one]"]["relative_drift"] <= 1e-6


def test_weakcheck_partitioning_fixture(tmp_path):
    cfg = json.loads((CONFIGS / "partitioning_lieb_liniger.json").read_text())
    cfg["grid"]["count"] = 40
    cfg["weakcheck"]["random"]["count"] = 2
    cfg["weakcheck"]["edge_points"] = 96
    rc = main(["weakcheck", "--config", _write(tmp_path, "cfg.json", cfg),
               "--out", str(tmp_path)])
    assert rc == 0
    header, data = _read_csv(tmp_path / "weakcheck.csv")
    assert np.max(np.abs(data[:, header.index("residual")])) <= 1e-4


def test_weakcheck_exit1_when_above_tolerance(tmp_path):
    cfg = json.loads((CONFIGS / "partitioning_lieb_liniger.json").read_text())
    cfg["grid"]["count"] = 32
    cfg["weakcheck"] = {"rectangles": [[-0.5, 0.5, 0.1, 0.6]],
                        "p_indices": [16], "edge_points": 64,
                        "tolerance": 1e-18}
    rc = main(["weakcheck", "--config", _write(tmp_path, "cfg.json", cfg),
               "--out", str(tmp_path)])
    assert rc == 1


_DEGENERATE = "has x1 == x2 or t1 == t2"


@pytest.mark.parametrize("weak, where, message", [
    ({"rectangles": [[-0.5, 0.5, 0.1, 0.6], [0.5, 0.5, 0.2, 0.6]]},
     "$.weakcheck.rectangles[1]", _DEGENERATE),
    ({"rectangles": [[-0.5, 0.5, 0.3, 0.3]]}, "$.weakcheck.rectangles[0]", _DEGENERATE),
    # a random range lo == hi is refused when the config loads, so no random
    # rectangle is ever degenerate
    ({"random": {"count": 2, "seed": 7, "x_range": [0.4, 0.4]}},
     "$.weakcheck.random.x_range", "[0.4, 0.4] is not a range lo < hi")],
    ids=["x1==x2", "t1==t2", "random"])
def test_weakcheck_degenerate_rectangle_exit2(tmp_path, capsys, weak, where, message):
    cfg = json.loads((CONFIGS / "partitioning_lieb_liniger.json").read_text())
    cfg["grid"]["count"] = 24
    cfg["weakcheck"] = weak
    rc = main(["weakcheck", "--config", _write(tmp_path, "cfg.json", cfg),
               "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{where}: " in err and message in err
    assert not list(tmp_path.glob("*.csv"))


def _index_config(command, index):
    if command == "weakcheck":
        cfg = json.loads((CONFIGS / "partitioning_lieb_liniger.json").read_text())
        cfg["weakcheck"] = {"rectangles": [[-0.5, 0.5, 0.1, 0.6]],
                            "p_indices": [index]}
        return cfg, "$.weakcheck.p_indices"
    cfg = _small_ll_config(plotdata={"times": [0.3], "x_min": -3.0,
                                     "x_max": 3.0, "x_count": 11,
                                     "p_probes": [3, index]})
    cfg["grid"]["count"] = 128
    return cfg, "$.plotdata.p_probes"


@pytest.mark.parametrize("command, index", [
    ("weakcheck", 999), ("weakcheck", 64), ("weakcheck", -1),
    ("plotdata", 500), ("plotdata", 128), ("plotdata", -1)])
def test_momentum_index_out_of_range_exit2(tmp_path, capsys, command, index):
    cfg, where = _index_config(command, index)
    rc = main([command, "--config", _write(tmp_path, "cfg.json", cfg),
               "--out", str(tmp_path)])
    assert rc == 2
    assert where in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv")) + list(tmp_path.glob("*.dat"))


@pytest.mark.parametrize("extra", [{}, {"random": {"count": 1, "seed": 7}}])
def test_weakcheck_more_indices_than_rectangles_exit2(tmp_path, capsys, extra):
    cfg = json.loads((CONFIGS / "partitioning_lieb_liniger.json").read_text())
    cfg["grid"]["count"] = 24
    cfg["weakcheck"] = {"rectangles": [[-0.5, 0.5, 0.1, 0.6]],
                        "p_indices": [3, 5, 7], **extra}
    rc = main(["weakcheck", "--config", _write(tmp_path, "cfg.json", cfg),
               "--out", str(tmp_path)])
    assert rc == 2
    assert "$.weakcheck.p_indices" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_compare_reference_smoke(tmp_path):
    rc = main(["compare-reference",
               "--config", str(CONFIGS / "compare_reference.json"),
               "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "compare_summary.json").read_text())
    assert len(summary["l1_gap"]) == 2
    assert summary["l1_gap"][1] < summary["l1_gap"][0]
    assert summary["order"] is not None


@pytest.mark.parametrize("compare, where", [
    ({"x_min": 3.5, "x_max": -3.5}, "$.compare.x_max"),
    ({"x_min": 1.0, "x_max": 1.0}, "$.compare.x_max"),
    ({"dx_list": [10]}, "$.compare.dx_list[0]"),
    ({"dx_list": [0.02, 100], "x_min": None, "x_max": None}, "$.compare.dx_list[1]"),
    ({"cfl": 5}, "$.compare.cfl"),
    ({"dx_list": [0.01, 0.01]}, "$.compare.dx_list"),
    ({"x_max": None}, "$.compare: 'x_max' is a dependency of 'x_min'"),
    ({"x_min": None}, "$.compare: 'x_min' is a dependency of 'x_max'"),
], ids=["x_min>x_max", "x_min==x_max", "one_cell", "default_window_one_cell",
        "cfl>1", "duplicate_dx", "x_min_alone", "x_max_alone"])
def test_compare_reference_config_holes_exit2(tmp_path, capsys, compare, where):
    cfg = json.loads((CONFIGS / "compare_reference.json").read_text())
    cfg["compare"].update(compare)
    cfg["compare"] = {k: v for k, v in cfg["compare"].items() if v is not None}
    rc = main(["compare-reference", "--config", _write(tmp_path, "cfg.json", cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert where in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*"))


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("command, section, where", [
    ("compare-reference", {"compare": {"t_end": _NAN, "dx_list": [0.02]}}, "$.compare.t_end"),
    ("compare-reference", {"compare": {"t_end": _INF, "dx_list": [0.02]}}, "$.compare.t_end"),
    ("compare-reference", {"compare": {"t_end": 0.5, "dx_list": [0.02, _INF]}},
     "$.compare.dx_list[1]"),
    ("compare-reference", {"compare": {"t_end": 0.5, "dx_list": [0.02], "cfl": _NAN}},
     "$.compare.cfl"),
    ("compare-reference", {"compare": {"t_end": 0.5, "dx_list": [0.02],
                                       "x_min": -_INF, "x_max": 3.0}}, "$.compare.x_min"),
    ("solve", {"solve": {"times": [_NAN], "x_min": -3.0, "x_max": 3.0, "x_count": 5}},
     "$.solve.times[0]"),
    ("solve", {"solve": {"times": [0.5], "x_min": -3.0, "x_max": _INF, "x_count": 5}},
     "$.solve.x_max"),
    ("plotdata", {"plotdata": {"times": [0.0, _NAN], "x_min": -3.0, "x_max": 3.0,
                               "x_count": 5}}, "$.plotdata.times[1]"),
    ("conserve", {"conserve": {"times": [0.0], "x_min": -_INF, "x_max": 3.0}},
     "$.conserve.x_min"),
    ("weakcheck", {"weakcheck": {"rectangles": [[-0.5, 0.5, 0.1, 0.6],
                                                [-0.5, _NAN, 0.1, 0.6]]}},
     "$.weakcheck.rectangles[1][1]"),
    ("weakcheck", {"weakcheck": {"rectangles": [[-0.5, 0.5, 0.1, 0.6]],
                                 "tolerance": _NAN}}, "$.weakcheck.tolerance"),
    ("solve", {"seed_grid": {"x_min": -8.0, "x_max": _INF, "count": 300}},
     "$.seed_grid.x_max"),
    # the seed window is +-8 sigma
    ("solve", {"scenario": {"kind": "gaussian_bump", "a": 0.5, "sigma": _INF,
                            "gamma": 1.0}}, "$.scenario.sigma"),
    # an infinite gamma or p0 would zero the seed: a silent vacuum; a NaN one
    # exited 3 with a NaN contraction rate
    ("check", {"scenario": {"kind": "gaussian_bump", "a": 0.5, "sigma": 0.8,
                            "gamma": _INF}}, "$.scenario.gamma"),
    ("solve", {"scenario": {"kind": "gaussian_bump", "a": 0.5, "sigma": 0.8,
                            "gamma": 1.0, "p0": _INF}}, "$.scenario.p0"),
    ("check", {"scenario": {"kind": "gaussian_bump", "a": 0.5, "sigma": 0.8,
                            "gamma": 1.0, "p0": -_INF}}, "$.scenario.p0"),
    ("solve", {"scenario": {"kind": "gaussian_bump", "a": 0.5, "sigma": 0.8,
                            "gamma": _NAN}}, "$.scenario.gamma"),
    ("check", {"scenario": {"kind": "gaussian_bump", "a": 0.5, "sigma": 0.8,
                            "gamma": 1.0, "p0": _NAN}}, "$.scenario.p0"),
    # these exited 2 naming no config key
    ("check", {"grid": {"p_min": -_INF, "p_max": 4.0, "count": 24}}, "$.grid.p_min"),
    ("solve", {"grid": {"p_min": -4.0, "p_max": _NAN, "count": 24}}, "$.grid.p_max"),
    ("solve", {"solver": {"fp_tol": _NAN}}, "$.solver.fp_tol"),
    # these failed naming no config key, or ran: an infinite reservoir gamma
    # is a vacuum reservoir
    *(("solve", {"scenario": {"kind": "gaussian_bump", "a": a, "sigma": 0.8,
                              "gamma": 1.0}}, "$.scenario.a") for a in (_INF, _NAN)),
    *(("weakcheck", {"scenario": {"kind": "partitioning", "n_left": left,
                                  "n_right": right}}, where)
      for left, right, where in (
          ({"kind": "gaussian", "amplitude": 0.45, "gamma": 1.0},
           {"kind": "gaussian", "amplitude": 0.12, "gamma": _INF},
           "$.scenario.n_right.gamma"),
          ({"kind": "gaussian", "amplitude": _INF, "gamma": 1.0},
           {"kind": "constant", "value": 0.1}, "$.scenario.n_left.amplitude"),
          ({"kind": "gaussian", "amplitude": _NAN, "gamma": 1.0},
           {"kind": "constant", "value": 0.1}, "$.scenario.n_left.amplitude"),
          ({"kind": "gaussian", "amplitude": 0.45, "gamma": 1.0},
           {"kind": "constant", "value": _INF}, "$.scenario.n_right.value"))),
    # an infinite coupling or rod length gives a NaN kernel
    ("check", {"kernel": {"model": "lieb_liniger", "c": _INF}}, "$.kernel.c"),
    ("solve", {"kernel": {"model": "hard_rods", "d": _INF}}, "$.kernel.d"),
    ("check", {"kernel": {"model": "hard_rods", "d": _NAN}}, "$.kernel.d"),
    # an infinite mass freezes the state (v = 0); a NaN one gives NaN speeds
    *((command, {"kernel": {"model": "lieb_liniger", "c": 1.0,
                            "velocity": {"kind": "relativistic", "m": m}}},
       "$.kernel.velocity.m") for m in (_INF, _NAN) for command in ("check", "solve")),
], ids=["t_end_nan", "t_end_inf", "dx_inf", "cfl_nan", "compare_x_min_inf",
        "solve_times_nan", "solve_x_max_inf", "plotdata_times_nan",
        "conserve_x_min_inf", "rectangle_nan", "tolerance_nan", "seed_grid_x_max_inf",
        "scenario_sigma_inf", "scenario_gamma_inf", "scenario_p0_inf",
        "scenario_p0_minus_inf", "scenario_gamma_nan", "scenario_p0_nan",
        "grid_p_min_minus_inf", "grid_p_max_nan", "solver_fp_tol_nan",
        "scenario_a_inf", "scenario_a_nan",
        "n_right_gamma_inf", "n_left_amplitude_inf", "n_left_amplitude_nan",
        "n_right_value_inf", "kernel_c_inf", "kernel_d_inf", "kernel_d_nan",
        "check_velocity_m_inf", "solve_velocity_m_inf", "check_velocity_m_nan",
        "solve_velocity_m_nan"])
def test_non_finite_space_time_number_exit2(tmp_path, capsys, command, section, where):
    # json.dumps writes NaN and Infinity, which json.loads reads back
    cfg = _small_ll_config(**section)
    rc = main([command, "--config", _write(tmp_path, "cfg.json", cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{where}: " in err and "is not a finite number" in err
    assert not list((tmp_path / "out").glob("*"))


@pytest.mark.parametrize("key, value, where, message", [
    ("x_range", [_NAN, 1.0], "x_range[0]", "nan is not a finite number"),
    ("t_range", [0.1, _INF], "t_range[1]", "inf is not a finite number"),
    ("x_range", [1.0, -1.0], "x_range", "[1, -1] is not a range lo < hi of finite width"),
    ("t_range", [-1e308, 1e308], "t_range",
     "[-1e+308, 1e+308] is not a range lo < hi of finite width"),
], ids=["x_range_nan", "t_range_inf", "x_range_reversed", "t_range_overflow"])
def test_weakcheck_random_range_holes_exit2(tmp_path, capsys, key, value, where, message):
    cfg = json.loads((CONFIGS / "partitioning_lieb_liniger.json").read_text())
    cfg["grid"]["count"] = 24
    cfg["weakcheck"] = {"random": {"count": 2, "seed": 7, key: value}}
    rc = main(["weakcheck", "--config", _write(tmp_path, "cfg.json", cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"$.weakcheck.random.{where}: {message}" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*"))


@pytest.mark.parametrize("command, x_min, x_max", [
    ("conserve", 9.0, -9.0), ("conserve", 2.0, 2.0),
    # solve and plotdata wrote x_count identical rows; their tables may run
    # from x_min down to x_max (test_solve_duplicate_times_give_identical_rows)
    ("solve", 2.0, 2.0), ("plotdata", -0.0, 0.0),
], ids=["x_min>x_max", "x_min==x_max", "solve-x_min==x_max", "plotdata-x_min==x_max"])
def test_conserve_empty_window_exit2(tmp_path, capsys, command, x_min, x_max):
    cfg = _small_ll_config(**{command: {"times": [0.0, 0.5], "x_min": x_min,
                                        "x_max": x_max, "x_count": 201}})
    rc = main([command, "--config", _write(tmp_path, "cfg.json", cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"$.{command}.x_max" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*"))


@pytest.mark.parametrize("command, section, where, message", [
    ("check", {"grid": {"p_min": 4.0, "p_max": -4.0, "count": 24}},
     "$.grid.p_max", "-4 is not above p_min 4"),
    ("seed", {"seed_grid": {"x_min": 8.0, "x_max": -8.0, "count": 300}},
     "$.seed_grid.x_max", "-8 is not above x_min 8"),
], ids=["grid_p_min>p_max", "seed_grid_x_min>x_max"])
def test_reversed_interval_exit2(tmp_path, capsys, command, section, where, message):
    # these exited 2 naming no config key
    cfg = _small_ll_config(**section)
    rc = main([command, "--config", _write(tmp_path, "cfg.json", cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"{where}: {message}" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*"))


@pytest.mark.parametrize("x_min, x_max, where, value", [
    (-1.0, 1.0, "x_min", "-1"), (-3.0, 3.0, "x_min", "-3"), (-9.6, 3.0, "x_max", "3"),
], ids=["+-1", "+-3", "x_max_only"])
def test_seed_window_cutting_support_exit2(tmp_path, capsys, x_min, x_max, where, value):
    # sigma = 1, support [-8, 8]: these windows ran, their tables extended
    # linearly from edges where n0 has not decayed, and n at t = 1 was off
    # by up to 1.3e-2 with every check passing
    cfg = json.loads((CONFIGS / "lieb_liniger_gaussian.json").read_text())
    cfg["seed_grid"].update(x_min=x_min, x_max=x_max)
    rc = main(["solve", "--config", _write(tmp_path, "cfg.json", cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert (f"$.seed_grid.{where}: {value} cuts the scenario's support [-8, 8]"
            in capsys.readouterr().err)
    assert not list((tmp_path / "out").glob("*"))


def test_plotdata_outputs(tmp_path):
    cfg = _small_ll_config(plotdata={"times": [0.0, 0.3], "x_min": -3.0,
                                     "x_max": 3.0, "x_count": 41})
    rc = main(["plotdata", "--config", _write(tmp_path, "cfg.json", cfg),
               "--out", str(tmp_path)])
    assert rc == 0
    files = sorted(tmp_path.glob("profile_t*.dat"))
    assert len(files) == 2
    first = files[0].read_text().splitlines()
    assert first[0].startswith("# t = ")
    assert len(first) == 2 + 41


def test_console_entry_point_subprocess(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "ghd.cli", "check",
         "--config", str(CONFIGS / "zero_kernel_gaussian.json"),
         "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "pass" in proc.stdout


def test_import_loads_no_scipy():
    # the runtime needs NumPy only, and not numpy.polynomial, which NumPy
    # loads lazily: ghd builds its Gauss-Legendre rules itself
    code = ("import sys, ghd.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
            "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(REPO / "src")), check=True)
    assert proc.stdout.split("\n")[:2] == ["[]", "[]"]



def test_import_loads_no_jsonschema():
    # the config schema is walked by ghd.config itself; jsonschema and the
    # packages it pulls in are for the tests only
    # (the prefixes cover jsonschema_specifications and attrs as well)
    code = ("import sys, ghd.cli; print(sorted(m for m in sys.modules if m.startswith("
            "('jsonschema', 'referencing', 'rpds', 'attr'))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(REPO / "src")), check=True)
    assert proc.stdout.strip() == "[]"


def _partitioning_random_config(**random):
    cfg = json.loads((CONFIGS / "partitioning_lieb_liniger.json").read_text())
    cfg["grid"]["count"] = 40
    cfg["weakcheck"]["random"].update(count=2, **random)
    cfg["weakcheck"]["edge_points"] = 96
    return cfg


# draft 2020-12 counts 101.0 as an integer: each such value runs exactly as
# its integer twin, with the same exit code and the same output bytes
_INTEGER_KEYS = {
    "solve.x_count": ("solve", _small_zero_config),
    "solver.max_iters": ("solve", lambda: _small_zero_config(solver={"max_iters": 500})),
    "conserve.x_count": ("conserve", lambda: _small_ll_config(conserve={
        "times": [0.0, 0.3], "x_min": -6.0, "x_max": 6.0, "x_count": 64})),
    "plotdata.x_count": ("plotdata", lambda: _small_ll_config(plotdata={
        "times": [0.3], "x_min": -3.0, "x_max": 3.0, "x_count": 21})),
    "weakcheck.random.count": ("weakcheck", _partitioning_random_config),
    "weakcheck.random.seed": ("weakcheck", _partitioning_random_config),
}


@pytest.mark.parametrize("key", list(_INTEGER_KEYS))
def test_integer_valued_float_runs_as_integer(tmp_path, key):
    command, make = _INTEGER_KEYS[key]
    *head, last = key.split(".")
    outs = []
    for as_float in (False, True):
        cfg = make()
        section = cfg
        for name in head:
            section = section[name]
        assert type(section[last]) is int
        if as_float:
            section[last] = float(section[last])
        run = tmp_path / ("float" if as_float else "int")
        run.mkdir()
        rc = main([command, "--config", _write(run, "cfg.json", cfg),
                   "--out", str(run / "out")])
        outs.append((rc, run / "out"))
    (rc_int, out_int), (rc_float, out_float) = outs
    assert rc_float == rc_int == 0
    names = sorted(f.name for f in out_int.iterdir())
    assert names == sorted(f.name for f in out_float.iterdir()) and names
    assert filecmp.cmpfiles(out_int, out_float, names, shallow=False)[0] == names


_KERNEL_CSV = "pq,-3.0,0.0,3.0\n-3.0,0.05,0.02,0.01\n0.0,0.02,0.08,0.02\n3.0,0.01,0.02,0.05\n"
_SCENARIO_CSV = "xp,-3.0,0.0,3.0\n-2.0,0.0,0.05,0.0\n0.0,0.05,0.3,0.05\n2.0,0.0,0.05,0.0\n"
_TABULATED_CONFIG = {
    "grid": {"p_min": -3.0, "p_max": 3.0, "count": 16},
    "kernel": {"model": "tabulated", "csv": "kernel.csv"},
    "scenario": {"kind": "tabulated_xy", "csv": "scenario.csv"},
    "seed_grid": {"x_min": -3.0, "x_max": 3.0, "count": 120},
    "solve": {"times": [0.2], "x_min": -2.0, "x_max": 2.0, "x_count": 15},
}


def test_tabulated_kernel_and_scenario_from_csv(tmp_path):
    (tmp_path / "kernel.csv").write_text(_KERNEL_CSV)
    (tmp_path / "scenario.csv").write_text(_SCENARIO_CSV)
    cfg = {
        "grid": {"p_min": -3.0, "p_max": 3.0, "count": 16},
        "kernel": {"model": "tabulated", "csv": "kernel.csv"},
        "scenario": {"kind": "tabulated_xy", "csv": "scenario.csv"},
        "seed_grid": {"x_min": -3.0, "x_max": 3.0, "count": 120},
        "solve": {"times": [0.2], "x_min": -2.0, "x_max": 2.0, "x_count": 15},
    }
    path = _write(tmp_path, "cfg.json", cfg)
    assert main(["check", "--config", path, "--out", str(tmp_path)]) == 0
    assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 0
    header, data = _read_csv(tmp_path / "solve.csv")
    assert data.shape[0] == 15 * 16


def test_seed_reads_scenario_table_once(tmp_path, monkeypatch):
    # the seed_grid window defaults from the scenario the run has built
    (tmp_path / "scenario.csv").write_text(_SCENARIO_CSV)
    cfg = {"grid": {"p_min": -3.0, "p_max": 3.0, "count": 16},
           "kernel": {"model": "zero"},
           "scenario": {"kind": "tabulated_xy", "csv": "scenario.csv"},
           "seed_grid": {"count": 120}}
    reads = []
    load = ghd.seed.load_tabulated_xy_csv
    monkeypatch.setattr(ghd.seed, "load_tabulated_xy_csv",
                        lambda path: reads.append(path) or load(path))
    assert main(["seed", "--config", _write(tmp_path, "cfg.json", cfg),
                 "--out", str(tmp_path / "out")]) == 0
    assert reads == [tmp_path / "scenario.csv"]


@pytest.mark.parametrize("name, bad", [
    ("scenario.csv", "abc"), ("scenario.csv", "inf"),
    ("kernel.csv", "inf"), ("kernel.csv", "-inf"),
])
def test_non_finite_table_cell_exit2(tmp_path, capsys, name, bad):
    # the cell at row 3, column 2 of either table; genfromtxt reads "abc" as NaN
    tables = {"kernel.csv": _KERNEL_CSV, "scenario.csv": _SCENARIO_CSV}
    lines = tables[name].splitlines()
    cells = lines[2].split(",")
    cells[1] = bad
    lines[2] = ",".join(cells)
    tables[name] = "\n".join(lines) + "\n"
    for file, text in tables.items():
        (tmp_path / file).write_text(text)
    path = _write(tmp_path, "cfg.json", _TABULATED_CONFIG)
    out = tmp_path / "out"
    for command in ("check", "solve"):
        assert main([command, "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert (f"$.{name}: table {tmp_path / name}: the cell at row 3, column 2 "
                "is not a finite number") in err
    assert not out.exists()


@pytest.mark.parametrize("fault", ["missing", "ragged"])
@pytest.mark.parametrize("name", ["kernel.csv", "scenario.csv"])
def test_unreadable_table_exit2(tmp_path, capsys, name, fault):
    # a table that does not exist, or whose third line is one field short;
    # both ended in an uncaught exception and exit code 1
    tables = {"kernel.csv": _KERNEL_CSV, "scenario.csv": _SCENARIO_CSV}
    if fault == "missing":
        del tables[name]
    else:
        lines = tables[name].splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0]
        tables[name] = "\n".join(lines) + "\n"
    for file, text in tables.items():
        (tmp_path / file).write_text(text)
    path = _write(tmp_path, "cfg.json", _TABULATED_CONFIG)
    out = tmp_path / "out"
    for command in ("check", "solve"):
        assert main([command, "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"$.{name}: cannot read table {tmp_path / name}: " in err
    assert not out.exists()


def test_check_and_seed_name_the_same_clause(tmp_path, capsys):
    cfg = _small_ll_config()
    cfg["scenario"] = {"kind": "gaussian_bump", "a": 3.0, "sigma": 1.0,
                       "gamma": 0.05}
    path = _write(tmp_path, "bad.json", cfg)
    assert main(["check", "--config", path, "--out", str(tmp_path)]) == 3
    clause = json.loads((tmp_path / "assumptions.json").read_text())["failed_clause"]
    assert f"failed clause: {clause}" in capsys.readouterr().out
    assert main(["seed", "--config", path, "--out", str(tmp_path)]) == 3
    assert clause in capsys.readouterr().err


def test_missing_command_section_exit2(tmp_path):
    cfg = _small_zero_config()
    del cfg["solve"]
    rc = main(["solve", "--config", _write(tmp_path, "cfg.json", cfg),
               "--out", str(tmp_path)])
    assert rc == 2


_GAUSSIAN = {"kind": "gaussian", "amplitude": 0.45, "gamma": 1.0}
_CONSTANT = {"kind": "constant", "value": 0.1}
_RECT = [-0.5, 0.5, 0.1, 0.6]
_WINDOW = {"times": [0.2], "x_min": -2.0, "x_max": 2.0, "x_count": 5}

# (id, command, sections replacing those of _small_ll_config, where a None
# value deletes its key, path named, the REQUIRED_KEYS entry the case breaks)
_LOAD_TIME_CASES = [
    ("kernel_c", "check", {"kernel": {"model": "lieb_liniger"}}, "$.kernel.c",
     ("kernel.model", "lieb_liniger")),
    ("kernel_d", "check", {"kernel": {"model": "hard_rods"}}, "$.kernel.d",
     ("kernel.model", "hard_rods")),
    ("kernel_csv", "check", {"kernel": {"model": "tabulated"}}, "$.kernel.csv",
     ("kernel.model", "tabulated")),
    *((f"scenario_{key}", "check",
       {"scenario": {"kind": "gaussian_bump", "a": 0.5, "sigma": 0.8, "gamma": 1.0,
                     key: None}}, f"$.scenario.{key}", ("scenario.kind", "gaussian_bump"))
      for key in ("a", "sigma", "gamma")),
    # a missing n_right was named $.scenario.n_left
    *((f"scenario_{key}", "check",
       {"scenario": {"kind": "partitioning", "n_left": _GAUSSIAN, "n_right": _CONSTANT,
                     key: None}}, f"$.scenario.{key}", ("scenario.kind", "partitioning"))
      for key in ("n_left", "n_right")),
    ("scenario_csv", "check", {"scenario": {"kind": "tabulated_xy"}}, "$.scenario.csv",
     ("scenario.kind", "tabulated_xy")),
    # these exited 1 with a KeyError
    *((f"{side}_{key}", "check",
       {"scenario": {"kind": "partitioning", "n_left": _CONSTANT, "n_right": _CONSTANT,
                     side: {**profile, key: None}}},
       f"$.scenario.{side}.{key}", (f"scenario.{side}.kind", profile["kind"]))
      for side in ("n_left", "n_right")
      for profile, keys in ((_GAUSSIAN, ("amplitude", "gamma")), (_CONSTANT, ("value",)))
      for key in keys),
    ("non_finite", "check", {"solver": {"fp_tol": _NAN}}, "$.solver.fp_tol", None),
    ("random_range", "check",
     {"weakcheck": {"random": {"count": 2, "seed": 7, "x_range": [0.4, 0.4]}}},
     "$.weakcheck.random.x_range", None),
    ("grid_window", "check", {"grid": {"p_min": 4.0, "p_max": 4.0, "count": 24}},
     "$.grid.p_max", None),
    ("seed_window", "check", {"seed_grid": {"x_min": 8.0, "x_max": -8.0}},
     "$.seed_grid.x_max", None),
    ("conserve_window", "check", {"conserve": {"times": [0.2], "x_min": 1.0, "x_max": 1.0}},
     "$.conserve.x_max", None),
    ("compare_window", "check",
     {"compare": {"t_end": 0.5, "dx_list": [0.1], "x_min": 1.0, "x_max": -1.0}},
     "$.compare.x_max", None),
    ("solve_window", "check", {"solve": {**_WINDOW, "x_max": -2.0, "x_min": -2.0}},
     "$.solve.x_max", None),
    ("plotdata_window", "check", {"plotdata": {**_WINDOW, "x_max": -2.0, "x_min": -2.0}},
     "$.plotdata.x_max", None),
    ("p_indices_range", "check", {"weakcheck": {"rectangles": [_RECT], "p_indices": [24]}},
     "$.weakcheck.p_indices[0]", None),
    ("p_probes_range", "check", {"plotdata": {**_WINDOW, "p_probes": [3, 24]}},
     "$.plotdata.p_probes[1]", None),
    ("degenerate_rectangle", "check",
     {"weakcheck": {"rectangles": [_RECT, [0.5, 0.5, 0.2, 0.6]]}},
     "$.weakcheck.rectangles[1]", None),
    ("no_rectangles", "check", {"weakcheck": {"p_indices": []}},
     "$.weakcheck.rectangles", None),
    ("p_indices_count", "check",
     {"weakcheck": {"rectangles": [_RECT], "p_indices": [3, 5, 7],
                    "random": {"count": 1, "seed": 7}}}, "$.weakcheck.p_indices", None),
    *((f"{command}_section", command, {section: None}, f"$.{section}", None)
      for command, section in (("solve", "solve"), ("conserve", "conserve"),
                               ("weakcheck", "weakcheck"), ("compare-reference", "compare"),
                               ("plotdata", "plotdata"))),
]


@pytest.mark.parametrize("command, sections, where", [case[1:4] for case in _LOAD_TIME_CASES],
                         ids=[case[0] for case in _LOAD_TIME_CASES])
def test_load_time_rule_exit2(tmp_path, capsys, command, sections, where):
    # every rule that needs no built object is checked when the config loads,
    # whatever the command, before any output
    def drop_none(value):
        if isinstance(value, dict):
            return {key: drop_none(item) for key, item in value.items() if item is not None}
        return value

    cfg = drop_none(_small_ll_config(**sections))
    rc = main([command, "--config", _write(tmp_path, "cfg.json", cfg),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"config schema violation at {where}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_load_time_cases_cover_required_keys():
    # one case per required key of every entry of the table
    assert sorted(case[3] for case in _LOAD_TIME_CASES if case[4]) == sorted(
        f"$.{kind_key.rsplit('.', 1)[0]}.{key}"
        for (kind_key, _), keys in config_mod.REQUIRED_KEYS.items() for key in keys)
    assert {case[4] for case in _LOAD_TIME_CASES if case[4]} == set(config_mod.REQUIRED_KEYS)


@pytest.mark.parametrize("below", ["taken", "taken/sub"])
def test_unusable_out_exit2(tmp_path, capsys, below):
    # --out names an existing file, or a path below one
    (tmp_path / "taken").write_text("")
    out = tmp_path / below
    rc = main(["check", "--config", str(CONFIGS / "zero_kernel_gaussian.json"),
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: --out")
    assert str(out) in err and len(err.strip().splitlines()) == 1


# Output rendering: the block writer must reproduce, byte for byte, the
# per-value rule every table was once written with.

def _ref_line(values, sep=","):
    return sep.join(f"{float(v):.17g}" for v in values) + "\n"


def test_block_writer_matches_per_value_rule(tmp_path):
    special = [-0.0, 0.0, float("nan"), float("inf"), -float("inf"), 5e-324,
               -5e-324, 1.7976931348623157e308, 0.1, 1.0 / 3.0, 2.0 ** 52 + 1,
               # the edges of the vectorized renderer: the fixed/exponent
               # switch, the 1e16 and 1e-290 range ends, a three-digit
               # exponent and two values whose 18th digit is an exact tie
               9.999999999999999e-05, 1e-05, 0.0001, 9999999999999998.0, 1e16,
               1.2345678901234568e17, 1000000000000000.25, 100000000000000.125,
               1e-290, 1e-300, -3.9648941489463e-131, 1e100]
    rt = _Runtime(_small_ll_config())
    s = rt.solver.sweep(0.4, np.array([-0.7, 0.2]))[1]
    blocks = [np.array(special + [0.0]).reshape(4, 6),
              np.arange(12, dtype=float).reshape(4, 3),          # p_index-like
              np.column_stack((s.n, s.rho_p, s.v_eff))[:4]]
    prefixes = ["-0,", "7,", "0.40000000000000002,"]
    keys = [f"{float(k):.17g}," for k in (0, 3, -2.5, float("nan"))]
    _write_csv(tmp_path / "t.csv", "a,b,c,d,e", zip(prefixes, blocks), keys=keys)
    expect = "a,b,c,d,e\n" + "".join(
        _ref_line([float(pre[:-1]), float(k[:-1]), *row])
        for pre, block in zip(prefixes, blocks) for k, row in zip(keys, block))
    assert (tmp_path / "t.csv").read_text() == expect
    _write_csv(tmp_path / "t.dat", "# h", [("", blocks[0])], sep=" ")
    assert (tmp_path / "t.dat").read_text() == "# h\n" + "".join(
        _ref_line(row, " ") for row in blocks[0])


def test_outputs_match_per_value_rendering(tmp_path):
    cfg = _small_ll_config(plotdata={"times": [0.0, 0.3], "x_min": -3.0,
                                     "x_max": 3.0, "x_count": 21})
    path = _write(tmp_path, "cfg.json", cfg)
    for command in ("seed", "solve", "plotdata"):
        assert main([command, "--config", path, "--out", str(tmp_path)]) == 0

    rt = _Runtime(config_mod.load_config(path))
    nodes, tab = rt.grid.nodes, rt.solver.tab
    sec = cfg["solve"]
    xs = np.linspace(sec["x_min"], sec["x_max"], sec["x_count"])
    # the same one batch over every (t, x) that cmd_solve makes: the batch's
    # composition moves the values within fp_tol, not bitwise
    times = np.array(sec["times"], dtype=float)
    batch = rt.solver.states_batch(np.repeat(times, xs.size), np.tile(xs, times.size))
    solve = "t,x,p,n,rho_p,rho_s,v_eff,u\n" + "".join(
        _ref_line(row) for s in batch
        for row in zip([s.t] * nodes.size, [s.x] * nodes.size, nodes,
                       s.n, s.rho_p, s.rho_s, s.v_eff, s.u))
    assert (tmp_path / "solve.csv").read_text() == solve

    seed = "x,p,Xhat0,B,one_dr,n_one_dr\n" + "".join(
        _ref_line((x, nodes[j], tab.A[i, j], tab.B[i, j], tab.dA[i, j],
                   tab.dB[i, j]))
        for i, x in enumerate(tab.x_nodes) for j in range(nodes.size))
    assert (tmp_path / "seed_tables.csv").read_text() == seed

    sec = cfg["plotdata"]
    xs = np.linspace(sec["x_min"], sec["x_max"], sec["x_count"])
    probes = [24 // 4, 24 // 2, 3 * 24 // 4]
    w = rt.grid.weights
    # the first time's rows of cmd_plotdata's one batch over every (t, x)
    times = np.array(sec["times"], dtype=float)
    batch = rt.solver.states_batch(np.repeat(times, xs.size),
                                   np.tile(xs, times.size))[:xs.size]
    profile = (f"# t = {0.0:.17g}\n# x  mass_density  mean_v_eff  "
               + "  ".join(f"n(p={nodes[j]:.17g})" for j in probes) + "\n")
    for s in batch:
        mass = float(s.rho_p @ w)
        mean_v = float((s.rho_p * s.v_eff) @ w) / mass if mass > 1e-300 else 0.0
        profile += _ref_line([s.x, mass, mean_v] + [s.n[j] for j in probes], " ")
    assert (tmp_path / "profile_t000.dat").read_text() == profile
