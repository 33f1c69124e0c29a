"""JSON run configuration: schema, validation and object construction.

A config names a momentum grid, a kernel (with its bare velocity), a
scenario, a solver policy, and per-command parameter blocks.  The schema
is the package file config-schema.json, loaded once at import and walked
by _walk, which enforces the draft 2020-12 keywords the file uses and no
others; a schema with any other keyword is refused at import.

validate_config checks, in this order, every rule that needs no built
object, and the first one broken exits 2 naming the JSON path of its key:
the schema (its shallowest violation; an integer-valued float at an
integer-typed key, ``101.0``, is stored as an int), the keys each kind
needs (REQUIRED_KEYS), finite numbers, weakcheck.random ranges lo < hi,
ordered windows, momentum indices below grid.count, the weak-form
rectangles, and the section a command reads (SECTIONS).  The builders
only read; the seed_grid support cut and the compare dx window need built
objects and stay with their users.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from . import kernel as kernel_mod
from . import seed as seed_mod
from .errors import ConfigError
from .fixed_point import SolverConfig
from .grid import build_momentum_grid

CONFIG_SCHEMA = json.loads((Path(__file__).parent / "config-schema.json").read_text())


def load_config(path, command: str | None = None) -> dict:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    validate_config(raw, command)
    raw["__dir__"] = str(path.parent)
    return raw


# type checks of draft 2020-12: a bool is neither a number nor an integer,
# and a float with no fractional part is an integer
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
}
# the keywords _walk enforces, and the two it reads only as structure
_KEYWORDS = {"type", "required", "properties", "additionalProperties", "enum",
             "items", "minItems", "maxItems", "minimum", "exclusiveMinimum",
             "maximum", "uniqueItems", "$ref", "dependentRequired", "$defs", "$schema"}


def _supported(schema: dict, root: dict | None = None, where: str = "#") -> None:
    """Raise ValueError at the first rule in schema that _walk would not enforce."""
    root = schema if root is None else root
    if not isinstance(schema, dict):
        raise ValueError(f"config schema at {where} is not an object")
    for key, rule in schema.items():
        if key not in _KEYWORDS:
            raise ValueError(f"config schema keyword {key!r} at {where} is not supported")
        if key == "type" and not (isinstance(rule, str) and rule in _TYPES):
            raise ValueError(f"config schema type {rule!r} at {where} is not supported")
        if key == "additionalProperties" and rule is not False:
            raise ValueError(f"config schema additionalProperties at {where} must be false")
        if key == "$ref" and not (rule.startswith("#/$defs/")
                                  and rule.removeprefix("#/$defs/") in root.get("$defs", {})):
            raise ValueError(f"config schema $ref {rule!r} at {where} is not in $defs")
        # alone, a $ref leaves every error at one path to one schema node
        # (see validate_config)
        if key == "$ref" and len(schema) > 1:
            raise ValueError(f"config schema $ref at {where} has sibling keywords")
        if key in ("properties", "$defs"):
            for name, sub in rule.items():
                _supported(sub, root, f"{where}/{key}/{name}")
        elif key == "items":
            _supported(rule, root, f"{where}/items")


_supported(CONFIG_SCHEMA)


def _canon(value):
    """Hashable form under which JSON values are equal as in draft 2020-12:
    True differs from 1, and 1 equals 1.0."""
    if isinstance(value, dict):
        return "object", frozenset((k, _canon(v)) for k, v in value.items())
    if isinstance(value, list):
        return "array", tuple(map(_canon, value))
    return isinstance(value, bool), value


def _walk(schema: dict, value, path: tuple, errors: list):
    """Check value at path against schema; return it, an int where an
    integer-typed value came as a float.

    Each violation is appended to errors as (path, message), keyword by
    keyword in schema order.
    """
    def fail(message):
        errors.append((path, message))

    is_object, is_array = isinstance(value, dict), isinstance(value, list)
    is_number = _TYPES["number"](value)
    for key, rule in schema.items():
        if key == "type":
            if not _TYPES[rule](value):
                fail(f"{value!r} is not of type {rule!r}")
        elif key == "$ref":
            value = _walk(CONFIG_SCHEMA["$defs"][rule.removeprefix("#/$defs/")],
                          value, path, errors)
        elif key == "enum":
            if _canon(value) not in map(_canon, rule):
                fail(f"{value!r} is not one of {rule!r}")
        elif key == "minimum" and is_number and value < rule:
            fail(f"{value!r} is less than the minimum of {rule!r}")
        elif key == "exclusiveMinimum" and is_number and value <= rule:
            fail(f"{value!r} is less than or equal to the minimum of {rule!r}")
        elif key == "maximum" and is_number and value > rule:
            fail(f"{value!r} is greater than the maximum of {rule!r}")
        elif is_object and key == "properties":
            for name, sub in rule.items():
                if name in value:
                    value[name] = _walk(sub, value[name], path + (name,), errors)
        elif is_object and key == "additionalProperties":
            extras = sorted(set(value) - set(schema.get("properties", ())))
            if extras:
                verb = "was" if len(extras) == 1 else "were"
                fail(f"Additional properties are not allowed "
                     f"({', '.join(map(repr, extras))} {verb} unexpected)")
        elif is_object and key == "required":
            for name in rule:
                if name not in value:
                    fail(f"{name!r} is a required property")
        elif is_object and key == "dependentRequired":
            for name, needs in rule.items():
                for need in needs if name in value else ():
                    if need not in value:
                        fail(f"{need!r} is a dependency of {name!r}")
        elif is_array and key == "items":
            for i, item in enumerate(value):
                value[i] = _walk(rule, item, path + (i,), errors)
        elif is_array and key == "minItems" and len(value) < rule:
            fail(f"{value!r} {'should be non-empty' if rule == 1 else 'is too short'}")
        elif is_array and key == "maxItems" and len(value) > rule:
            fail(f"{value!r} {'is expected to be empty' if rule == 0 else 'is too long'}")
        elif is_array and key == "uniqueItems" and rule:
            if len(set(map(_canon, value))) < len(value):
                fail(f"{value!r} has non-unique elements")
    if schema.get("type") == "integer" and isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def _non_finite(value, where: str = "$"):
    """Yield (json_path, number) for every NaN or infinite number in value."""
    if isinstance(value, float) and not math.isfinite(value):
        yield where, value
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _non_finite(item, f"{where}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _non_finite(item, f"{where}[{i}]")


def _violation(where: str, message: str) -> ConfigError:
    return ConfigError(f"config schema violation at {where}: {message}")


# the section each command reads
SECTIONS = {"solve": "solve", "conserve": "conserve", "weakcheck": "weakcheck",
            "compare-reference": "compare", "plotdata": "plotdata"}
_PROFILE = {"gaussian": ("amplitude", "gamma"), "constant": ("value",)}
# (path of a kind key, kind) -> the keys beside the kind key that it needs
REQUIRED_KEYS = {
    ("kernel.model", "lieb_liniger"): ("c",),
    ("kernel.model", "hard_rods"): ("d",),
    ("kernel.model", "tabulated"): ("csv",),
    ("scenario.kind", "gaussian_bump"): ("a", "sigma", "gamma"),
    ("scenario.kind", "partitioning"): ("n_left", "n_right"),
    ("scenario.kind", "tabulated_xy"): ("csv",),
    **{(f"scenario.{side}.kind", kind): keys
       for side in ("n_left", "n_right") for kind, keys in _PROFILE.items()},
}


def validate_config(raw: dict, command: str | None = None) -> None:
    """Raise ConfigError at the first rule raw breaks (see the module
    docstring); store every integer-valued float at an integer key as an int."""
    errors = []
    _walk(CONFIG_SCHEMA, raw, (), errors)
    if errors:
        # the best match, as the reference Python validator of draft
        # 2020-12 picks it: the shallowest path; of those the last in path
        # order; then the first found.  (Its next preference, for a value
        # failing its schema's type, cannot split errors at one path,
        # which all come from one schema node.)
        path, message = max(errors, key=lambda e: (-len(e[0]), e[0]))
        where = "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)
        raise _violation(where, message)
    for (kind_key, kind), keys in REQUIRED_KEYS.items():
        *head, name = kind_key.split(".")
        sec = raw
        for part in head:
            sec = sec.get(part, {})
        for key in keys if sec.get(name) == kind else ():
            if key not in sec:
                raise _violation(f"$.{'.'.join(head)}.{key}",
                                 f"{name} {kind!r} requires {key!r}")
    # JSON NaN and Infinity pass the schema's "number", and every number
    # feeds a bound, a window or a loop: a NaN tolerance fails every
    # comparison, a NaN gamma gives a NaN contraction rate, an infinite one
    # a silent vacuum, an infinite time or step a loop run to its cap
    for where, value in _non_finite(raw):
        raise _violation(where, f"{value} is not a finite number")
    # the sampler fails on hi < lo and on an overflowing hi - lo, and draws
    # degenerate rectangles from lo == hi
    weak = raw.get("weakcheck", {})
    for key in ("x_range", "t_range"):
        lo, hi = weak.get("random", {}).get(key, (0.0, 1.0))
        if not 0.0 < hi - lo < math.inf:
            raise _violation(f"$.weakcheck.random.{key}",
                             f"[{lo:g}, {hi:g}] is not a range lo < hi of finite width")
    # intervals that are integrated or tabulated over; seed_grid's ends
    # default one by one, so it is checked only when both are given
    for section, lo, hi in (("grid", "p_min", "p_max"), ("seed_grid", "x_min", "x_max"),
                            ("conserve", "x_min", "x_max"), ("compare", "x_min", "x_max")):
        sec = raw.get(section, {})
        if lo in sec and hi in sec and not sec[lo] < sec[hi]:
            raise _violation(f"$.{section}.{hi}", f"{sec[hi]:g} is not above {lo} {sec[lo]:g}")
    # the tables written over x run either way, but not over one point
    for section in ("solve", "plotdata"):
        if section in raw and raw[section]["x_min"] == raw[section]["x_max"]:
            raise _violation(f"$.{section}.x_max", f"{raw[section]['x_max']:g} equals "
                                                   f"x_min, an empty window")
    count = raw["grid"]["count"]
    for section, key in (("weakcheck", "p_indices"), ("plotdata", "p_probes")):
        for i, index in enumerate(raw.get(section, {}).get(key, ())):
            if index >= count:
                raise _violation(f"$.{section}.{key}[{i}]",
                                 f"index {index} is out of range for {count} nodes")
    rects = weak.get("rectangles", [])
    for i, rect in enumerate(rects):
        if rect[0] == rect[1] or rect[2] == rect[3]:
            raise _violation(f"$.weakcheck.rectangles[{i}]",
                             f"rectangle {rect} has x1 == x2 or t1 == t2")
    total = len(rects) + weak.get("random", {}).get("count", 0)
    if "weakcheck" in raw and not total:
        raise _violation("$.weakcheck.rectangles", "no rectangles given")
    if len(weak.get("p_indices", ())) > total:
        raise _violation("$.weakcheck.p_indices", f"{len(weak['p_indices'])} indices "
                                                  f"for {total} rectangles")
    if command in SECTIONS and SECTIONS[command] not in raw:
        raise _violation(f"$.{SECTIONS[command]}", "section required")


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
        return kernel_mod.lieb_liniger(k["c"], velocity)
    if model == "sinh_gordon":
        return kernel_mod.sinh_gordon(velocity)
    if model == "hard_rods":
        return kernel_mod.hard_rods(k["d"], velocity)
    if model == "zero":
        return kernel_mod.zero_kernel(velocity)
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
        return seed_mod.gaussian_bump(s["a"], s["sigma"], s["gamma"],
                                      s.get("p0", 0.0))
    if kind == "partitioning":
        return seed_mod.partitioning(_profile_from(s["n_left"]),
                                     _profile_from(s["n_right"]))
    if kind == "zero":
        return seed_mod.zero_scenario()
    return seed_mod.load_tabulated_xy_csv(Path(cfg.get("__dir__", ".")) / s["csv"])


def build_solver_config_from(cfg: dict) -> SolverConfig:
    s = cfg.get("solver", {})
    return SolverConfig(fp_tol=s.get("fp_tol", 1e-10),
                        max_iters=s.get("max_iters", 500))


def build_seed_spec_from(cfg: dict, scenario: seed_mod.Scenario | None = None
                         ) -> seed_mod.SpatialGridSpec | None:
    """The seed_grid window; scenario, built from cfg when not given, supplies defaults."""
    s = cfg.get("seed_grid")
    if not s:
        return None
    scenario = build_scenario_from(cfg) if scenario is None else scenario
    default = seed_mod.default_spatial_spec(scenario)
    spec = seed_mod.SpatialGridSpec(s.get("x_min", default.x_min),
                                    s.get("x_max", default.x_max),
                                    s.get("count", default.count))
    # beyond its window the tables are extended linearly, which is exact
    # only where n0 has decayed; the partitioning tables take no window
    lo, hi = scenario.x_support_hint
    if scenario.kind != "partitioning":
        for key, value, cuts in (("x_min", spec.x_min, spec.x_min > lo),
                                 ("x_max", spec.x_max, spec.x_max < hi)):
            if cuts:
                raise _violation(f"$.seed_grid.{key}", f"{value:g} cuts the "
                                 f"scenario's support [{lo:g}, {hi:g}]")
    return spec


def random_rectangles(spec: dict, scenario: seed_mod.Scenario) -> list[tuple]:
    """Deterministic rectangle sample for the weak-form check."""
    rng = np.random.default_rng(spec["seed"])
    lo, hi = spec.get("x_range", scenario.x_support_hint)
    t_lo, t_hi = spec.get("t_range", (0.0, 1.0))
    rects = []
    for _ in range(spec["count"]):
        x1, x2 = np.sort(rng.uniform(lo, hi, size=2))
        while x2 - x1 <= 0.05 * (hi - lo):
            x1, x2 = np.sort(rng.uniform(lo, hi, size=2))
        t1, t2 = np.sort(rng.uniform(t_lo, t_hi, size=2))
        while t2 - t1 <= 0.05 * (t_hi - t_lo):
            t1, t2 = np.sort(rng.uniform(t_lo, t_hi, size=2))
        rects.append((float(x1), float(x2), float(t1), float(t2)))
    return rects
