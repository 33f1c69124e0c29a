"""JSON run configuration: schema, validation and object construction.

A config names a momentum grid, a kernel (with its bare velocity), a
scenario, a solver policy, and per-command parameter blocks.  Validation
errors point at the offending key.  The same schema is shipped in
docs/config-schema.json.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import jsonschema
import numpy as np

from . import kernel as kernel_mod
from . import seed as seed_mod
from .errors import ConfigError
from .fixed_point import SolverConfig
from .grid import RULES, build_momentum_grid

_NUM = {"type": "number"}
_POSNUM = {"type": "number", "exclusiveMinimum": 0}
_INDEX = {"type": "integer", "minimum": 0}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["grid", "kernel", "scenario"],
    "additionalProperties": False,
    "properties": {
        "grid": {
            "type": "object",
            "required": ["p_min", "p_max", "count"],
            "additionalProperties": False,
            "properties": {
                "p_min": _NUM,
                "p_max": _NUM,
                "count": {"type": "integer", "minimum": 2},
                "rule": {"enum": list(RULES)},
            },
        },
        "kernel": {
            "type": "object",
            "required": ["model"],
            "additionalProperties": False,
            "properties": {
                "model": {"enum": list(kernel_mod.KERNEL_MODELS)},
                "c": _POSNUM,
                "d": _POSNUM,
                "csv": {"type": "string"},
                "velocity": {
                    "type": "object",
                    "required": ["kind"],
                    "additionalProperties": False,
                    "properties": {
                        "kind": {"enum": ["identity", "relativistic"]},
                        "m": _POSNUM,
                    },
                },
            },
        },
        "scenario": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["gaussian_bump", "partitioning",
                                  "tabulated_xy", "zero"]},
                "a": _POSNUM,
                "sigma": _POSNUM,
                "gamma": _POSNUM,
                "p0": _NUM,
                "n_left": {"$ref": "#/$defs/profile"},
                "n_right": {"$ref": "#/$defs/profile"},
                "csv": {"type": "string"},
            },
        },
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "fp_tol": _POSNUM,
                "max_iters": {"type": "integer", "minimum": 1},
                # accepted with no effect: the neighbour start is always on
                "warm_start": {"enum": ["from_neighbor"]},
            },
        },
        "seed_grid": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "x_min": _NUM,
                "x_max": _NUM,
                "count": {"type": "integer", "minimum": 5},
            },
        },
        "solve": {
            "type": "object",
            "required": ["times", "x_min", "x_max", "x_count"],
            "additionalProperties": False,
            "properties": {
                "times": {"type": "array", "items": _NUM, "minItems": 1},
                "x_min": _NUM,
                "x_max": _NUM,
                "x_count": {"type": "integer", "minimum": 2},
            },
        },
        "conserve": {
            "type": "object",
            "required": ["times", "x_min", "x_max"],
            "additionalProperties": False,
            "properties": {
                "times": {"type": "array", "items": _NUM, "minItems": 1},
                "x_min": _NUM,
                "x_max": _NUM,
                "x_count": {"type": "integer", "minimum": 8},
                "charges": {"type": "array",
                            "items": {"enum": ["one", "momentum", "energy:v"]}},
                "entropies": {"type": "array",
                              "items": {"enum": ["fermi_entropy",
                                                 "classical_entropy",
                                                 "boson_entropy"]}},
            },
        },
        "weakcheck": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "rectangles": {
                    "type": "array",
                    "items": {"type": "array", "items": _NUM,
                              "minItems": 4, "maxItems": 4},
                },
                "p_indices": {"type": "array", "items": _INDEX},
                "random": {
                    "type": "object",
                    "required": ["count", "seed"],
                    "additionalProperties": False,
                    "properties": {
                        "count": {"type": "integer", "minimum": 1},
                        "seed": {"type": "integer"},
                        "x_range": {"type": "array", "items": _NUM,
                                    "minItems": 2, "maxItems": 2},
                        "t_range": {"type": "array", "items": _NUM,
                                    "minItems": 2, "maxItems": 2},
                    },
                },
                "edge_points": {"type": "integer", "minimum": 8},
                "tolerance": _POSNUM,
            },
        },
        "compare": {
            "type": "object",
            "required": ["t_end", "dx_list"],
            "additionalProperties": False,
            "properties": {
                "t_end": _POSNUM,
                # distinct: the convergence order is a fit over log dx
                "dx_list": {"type": "array", "items": _POSNUM, "minItems": 1,
                            "uniqueItems": True},
                # first-order upwind is stable only up to CFL number 1
                "cfl": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "x_min": _NUM,
                "x_max": _NUM,
            },
            "dependentRequired": {"x_min": ["x_max"], "x_max": ["x_min"]},
        },
        "plotdata": {
            "type": "object",
            "required": ["times", "x_min", "x_max", "x_count"],
            "additionalProperties": False,
            "properties": {
                "times": {"type": "array", "items": _NUM, "minItems": 1},
                "x_min": _NUM,
                "x_max": _NUM,
                "x_count": {"type": "integer", "minimum": 2},
                "p_probes": {"type": "array", "items": _INDEX},
            },
        },
    },
    "$defs": {
        "profile": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["gaussian", "constant"]},
                "amplitude": {"type": "number", "minimum": 0},
                "gamma": _POSNUM,
                "value": {"type": "number", "minimum": 0},
            },
        },
    },
}


def load_config(path) -> dict:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    validate_config(raw)
    raw["__dir__"] = str(path.parent)
    return raw


# built once: jsonschema.validate re-checks the schema against the
# metaschema and builds a new validator on every call
_VALIDATOR = jsonschema.Draft202012Validator(CONFIG_SCHEMA)


# JSON NaN and Infinity pass the schema's "number"; a non-finite time,
# window or step sends a solve or time-step loop to its cap, or past it,
# a NaN tolerance fails every comparison, an infinite kernel parameter
# gives a NaN kernel, an infinite relativistic mass a zero velocity, and
# an infinite profile gamma a vacuum reservoir
_FINITE_KEYS = ("times", "x_min", "x_max", "t_end", "dx_list", "cfl",
                "rectangles", "tolerance", "c", "d")


def _numbers(value, where: str) -> list:
    """(path, number) pairs of a number or a nested list of numbers."""
    if not isinstance(value, list):
        return [(where, value)]
    return [pair for i, item in enumerate(value) for pair in _numbers(item, f"{where}[{i}]")]


def validate_config(raw: dict) -> None:
    # best_match picks the error jsonschema.validate would report
    exc = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(raw))
    if exc is not None:
        where = exc.json_path if exc.json_path else "$"
        raise ConfigError(f"config schema violation at {where}: {exc.message}")
    keys = [(f"$.{section}.{key}", value)
            for section in ("kernel", "seed_grid", "solve", "conserve", "weakcheck",
                            "compare", "plotdata")
            for key, value in raw.get(section, {}).items() if key in _FINITE_KEYS]
    velocity = raw.get("kernel", {}).get("velocity", {})
    mass = [("$.kernel.velocity.m", velocity["m"])] if "m" in velocity else []
    # gaussian_bump names its own sigma, gamma and p0
    scenario = raw["scenario"]
    amplitude = [("$.scenario.a", scenario["a"])] if "a" in scenario else []
    profiles = [(f"$.scenario.{side}.{key}", value) for side in ("n_left", "n_right")
                for key, value in scenario.get(side, {}).items() if key != "kind"]
    sample = raw.get("weakcheck", {}).get("random", {})
    ranges = [(f"$.weakcheck.random.{key}", sample[key])
              for key in ("x_range", "t_range") if key in sample]
    for where, value in (pair for path, v in keys + mass + amplitude + profiles + ranges
                         for pair in _numbers(v, path)):
        if not math.isfinite(value):
            raise ConfigError(f"config schema violation at {where}: "
                              f"{value} is not a finite number")
    # the sampler fails on hi < lo and on an overflowing hi - lo; lo == hi
    # gives rectangles that cmd_weakcheck rejects as degenerate
    for where, (lo, hi) in ranges:
        if not 0.0 <= hi - lo < math.inf:
            raise ConfigError(f"config schema violation at {where}: [{lo:g}, {hi:g}] "
                              "is not a range lo <= hi of finite width")
    for section in ("conserve", "compare"):  # windows that are integrated over
        sec = raw.get(section, {})
        if "x_min" in sec and not sec["x_min"] < sec["x_max"]:
            raise ConfigError(f"config schema violation at $.{section}.x_max: "
                              f"{sec['x_max']:g} is not above x_min {sec['x_min']:g}")


def build_grid_from(cfg: dict):
    g = cfg["grid"]
    return build_momentum_grid(g["p_min"], g["p_max"], g["count"],
                               g.get("rule", "gauss_legendre"))


def build_velocity_from(kdict: dict) -> kernel_mod.Velocity:
    v = kdict.get("velocity", {"kind": "identity"})
    if v["kind"] == "identity":
        return kernel_mod.identity_velocity()
    return kernel_mod.relativistic_velocity(v.get("m", 1.0))


def build_kernel_from(cfg: dict) -> kernel_mod.ScatteringKernel:
    k = cfg["kernel"]
    velocity = build_velocity_from(k)
    model = k["model"]
    if model == "lieb_liniger":
        if "c" not in k:
            raise ConfigError("config schema violation at $.kernel.c: "
                              "lieb_liniger requires coupling c")
        return kernel_mod.lieb_liniger(k["c"], velocity)
    if model == "sinh_gordon":
        return kernel_mod.sinh_gordon(velocity)
    if model == "hard_rods":
        if "d" not in k:
            raise ConfigError("config schema violation at $.kernel.d: "
                              "hard_rods requires rod length d")
        return kernel_mod.hard_rods(k["d"], velocity)
    if model == "zero":
        return kernel_mod.zero_kernel(velocity)
    if "csv" not in k:
        raise ConfigError("config schema violation at $.kernel.csv: "
                          "tabulated kernel requires a csv path")
    path = Path(cfg.get("__dir__", ".")) / k["csv"]
    return kernel_mod.load_tabulated_kernel_csv(path, velocity)


def _profile_from(spec: dict):
    if spec["kind"] == "gaussian":
        return seed_mod.gaussian_profile(spec["amplitude"], spec["gamma"])
    return seed_mod.constant_profile(spec["value"])


def build_scenario_from(cfg: dict) -> seed_mod.Scenario:
    s = cfg["scenario"]
    kind = s["kind"]
    if kind == "gaussian_bump":
        for key in ("a", "sigma", "gamma"):
            if key not in s:
                raise ConfigError(f"config schema violation at $.scenario.{key}: "
                                  f"gaussian_bump requires {key}")
        return seed_mod.gaussian_bump(s["a"], s["sigma"], s["gamma"],
                                      s.get("p0", 0.0))
    if kind == "partitioning":
        if "n_left" not in s or "n_right" not in s:
            raise ConfigError("config schema violation at $.scenario.n_left: "
                              "partitioning requires n_left and n_right")
        return seed_mod.partitioning(_profile_from(s["n_left"]),
                                     _profile_from(s["n_right"]))
    if kind == "zero":
        return seed_mod.zero_scenario()
    if "csv" not in s:
        raise ConfigError("config schema violation at $.scenario.csv: "
                          "tabulated_xy scenario requires a csv path")
    return seed_mod.load_tabulated_xy_csv(Path(cfg.get("__dir__", ".")) / s["csv"])


def build_solver_config_from(cfg: dict) -> SolverConfig:
    s = cfg.get("solver", {})
    return SolverConfig(fp_tol=s.get("fp_tol", 1e-10),
                        max_iters=s.get("max_iters", 500))


def build_seed_spec_from(cfg: dict) -> seed_mod.SpatialGridSpec | None:
    s = cfg.get("seed_grid")
    if not s:
        return None
    scenario = build_scenario_from(cfg)
    default = seed_mod.default_spatial_spec(scenario)
    return seed_mod.SpatialGridSpec(s.get("x_min", default.x_min),
                                    s.get("x_max", default.x_max),
                                    s.get("count", default.count))


def random_rectangles(spec: dict, scenario: seed_mod.Scenario) -> list[tuple]:
    """Deterministic rectangle sample for the weak-form check."""
    rng = np.random.default_rng(spec["seed"])
    lo, hi = spec.get("x_range", scenario.x_support_hint)
    t_lo, t_hi = spec.get("t_range", (0.0, 1.0))
    rects = []
    for _ in range(spec["count"]):
        x1, x2 = np.sort(rng.uniform(lo, hi, size=2))
        while x2 - x1 < 0.05 * (hi - lo):
            x1, x2 = np.sort(rng.uniform(lo, hi, size=2))
        t1, t2 = np.sort(rng.uniform(t_lo, t_hi, size=2))
        while t2 - t1 < 0.05 * (t_hi - t_lo):
            t1, t2 = np.sort(rng.uniform(t_lo, t_hi, size=2))
        rects.append((float(x1), float(x2), float(t1), float(t2)))
    return rects
