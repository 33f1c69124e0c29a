import copy
import importlib.util
import json
import math
import random
import re
import sys
from pathlib import Path

import pytest

import ghd
from ghd import config as config_mod
from ghd.config import (CONFIG_SCHEMA, build_kernel_from, build_scenario_from,
                        build_solver_config_from, load_config,
                        random_rectangles, validate_config)
from ghd.errors import ConfigError
from ghd.grid import RULES
from ghd.kernel import KERNEL_MODELS

REPO = Path(__file__).resolve().parents[1]


def test_schema_is_valid_draft_2020_12():
    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)


def test_load_does_not_recheck_schema(monkeypatch):
    # the schema's keywords are checked once at import; a load re-checks
    # only the config
    def no_recheck(*args, **kwargs):
        raise AssertionError("schema keywords re-checked on load")

    monkeypatch.setattr(config_mod, "_supported", no_recheck)
    load_config(REPO / "configs" / "compare_reference.json")
    with pytest.raises(ConfigError, match=r"\$\.grid\.count"):
        validate_config({"grid": {"p_min": 0, "p_max": 1, "count": 1},
                         "kernel": {"model": "zero"}, "scenario": {"kind": "zero"}})


def test_validate_reports_best_match():
    # two violations: the one jsonschema's best_match picks (the shallower)
    # is reported, not the first one the walk happens to find
    with pytest.raises(ConfigError, match=r"at \$\.scenario: .*'extra'"):
        validate_config({"grid": {"p_min": 0, "p_max": 1, "count": 1},
                         "kernel": {"model": "zero"},
                         "scenario": {"kind": "zero", "extra": 1}})


def test_schema_enums_match_code():
    # the schema file lists the quadrature rules and kernel models by hand
    props = CONFIG_SCHEMA["properties"]
    assert props["grid"]["properties"]["rule"]["enum"] == list(RULES)
    assert props["kernel"]["properties"]["model"]["enum"] == list(KERNEL_MODELS)


@pytest.mark.parametrize("name", [
    "lieb_liniger_gaussian", "zero_kernel_gaussian",
    "partitioning_lieb_liniger", "hard_rods_gaussian", "compare_reference",
])
def test_bundled_configs_validate(name):
    cfg = load_config(REPO / "configs" / f"{name}.json")
    build_kernel_from(cfg)
    build_scenario_from(cfg)
    build_solver_config_from(cfg)


def test_validate_points_at_offending_key():
    with pytest.raises(ConfigError, match=r"\$\.kernel\.model"):
        validate_config({"grid": {"p_min": 0, "p_max": 1, "count": 4},
                         "kernel": {"model": "acoustic"},
                         "scenario": {"kind": "zero"}})


def test_model_specific_requirements():
    # checked when the config loads; the builders only read
    base = {"grid": {"p_min": -1, "p_max": 1, "count": 4},
            "scenario": {"kind": "zero"}}
    with pytest.raises(ConfigError, match=r"\$\.kernel\.c: model 'lieb_liniger' requires 'c'"):
        validate_config({**base, "kernel": {"model": "lieb_liniger"}})
    with pytest.raises(ConfigError, match=r"\$\.kernel\.d: model 'hard_rods' requires 'd'"):
        validate_config({**base, "kernel": {"model": "hard_rods"}})


def test_solver_section_keys():
    base = {"grid": {"p_min": -1, "p_max": 1, "count": 4},
            "kernel": {"model": "zero"}, "scenario": {"kind": "zero"}}
    cfg = {**base, "solver": {"fp_tol": 1e-9, "max_iters": 7,
                              "warm_start": "from_neighbor"}}
    validate_config(cfg)
    assert build_solver_config_from(cfg) == ghd.SolverConfig(1e-9, 7)
    for bad in ({"warm_start": "from_x"}, {"inv_tol": 1e-10}):
        with pytest.raises(ConfigError, match=r"\$\.solver"):
            validate_config({**base, "solver": bad})


def test_random_rectangles_deterministic():
    sc = ghd.gaussian_bump(0.5, 1.0, 1.0)
    spec = {"count": 5, "seed": 42, "x_range": [-2, 2], "t_range": [0, 1]}
    a = random_rectangles(spec, sc)
    b = random_rectangles(spec, sc)
    assert a == b
    for x1, x2, t1, t2 in a:
        assert x1 < x2 and t1 < t2


# Differential check of the schema walk against jsonschema's
# Draft202012Validator and best_match, on the bundled configs, the benchmark
# workloads' seed-101 configs and single-key mutations of each.

def _workload_configs():
    spec = importlib.util.spec_from_file_location(
        "_ghdbench_workloads", REPO / "ghdbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return {name: w.make_config(101, False) for name, w in module.WORKLOADS.items()}


def _corpus_bases():
    bases = {path.stem: json.loads(path.read_text())
             for path in sorted((REPO / "configs").glob("*.json"))}
    bases.update(_workload_configs())
    return bases


def _nodes(value, schema, path=()):
    """(path, subschema, value) of every value in a config, root first."""
    schema = CONFIG_SCHEMA["$defs"][schema["$ref"].split("/")[-1]] if "$ref" in schema else schema
    yield path, schema, value
    if isinstance(value, dict):
        for key, item in value.items():
            sub = schema.get("properties", {}).get(key)
            if sub is not None:
                yield from _nodes(item, sub, path + (key,))
    elif isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            yield from _nodes(item, schema["items"], path + (i,))


def _replacements(schema, value):
    """(kind, new value) of each single-key mutation of value under schema."""
    kind = schema.get("type")
    wrong = {"number": "1.5", "integer": "3", "string": 1.5, "object": [1],
             "array": {"a": 1}, None: 7}
    yield "wrong type", wrong[kind]
    if kind in ("number", "integer"):
        yield "bool", True
        yield "nan", math.nan
        yield "inf", math.inf
        yield "-inf", -math.inf
    if kind == "integer":
        yield "1.0 for int", float(value)
        yield "2.5 for int", 2.5
    if "enum" in schema:
        yield "not in enum", "unknown"
    if "minimum" in schema:
        yield "below minimum", schema["minimum"] - 1
    if "exclusiveMinimum" in schema:
        yield "at exclusive minimum", schema["exclusiveMinimum"]
    if "maximum" in schema:
        yield "above maximum", schema["maximum"] + 0.5
    if "minItems" in schema:
        yield "too short", value[:schema["minItems"] - 1]
    if "maxItems" in schema:
        yield "too long", value + value[-1:]
    if schema.get("uniqueItems"):
        yield "repeated item", value + value[:1]
        yield "1 and 1.0", [1, 1.0]
        yield "1 and true", [1, True]


_DELETE = object()


def _set(cfg, path, new):
    """A copy of cfg with the value at path replaced by new, or deleted."""
    cfg = copy.deepcopy(cfg)
    *head, last = path
    target = cfg
    for key in head:
        target = target[key]
    if new is _DELETE:
        del target[last]
    else:
        target[last] = new
    return cfg


def _mutations(base):
    """(label, config, refusal) of base and of every single-key mutation of
    it; refusal is _deletion_refusal's path for a deletion, else None."""
    yield "as given", base, None
    for path, schema, value in _nodes(base, CONFIG_SCHEMA):
        if isinstance(value, dict):
            yield f"{path} extra key", _set(base, path + ("extra",), 1), None
        if not path:
            continue
        cfg = _set(base, path, _DELETE)
        yield f"{path} missing", cfg, _deletion_refusal(base, cfg, path)
        for kind, new in _replacements(schema, value):
            yield f"{path} {kind}", _set(base, path, new), None


def _deletion_refusal(base, cfg, path):
    """The JSON path of the load-time rule that deleting the key at path
    from base breaks, giving cfg, or None.

    The rules are a key that REQUIRED_KEYS asks for, named by its own path,
    and the weak-form rectangles: none left names weakcheck.rectangles,
    fewer left than p_indices names weakcheck.p_indices.
    """
    *head, key = path
    section = base
    for part in head:
        section = section[part]
    for (kind_key, kind), keys in config_mod.REQUIRED_KEYS.items():
        *kind_head, name = kind_key.split(".")
        if kind_head == head and section.get(name) == kind and key in keys:
            return "$" + "".join(f".{part}" for part in path)
    weak = cfg.get("weakcheck")
    if path[0] != "weakcheck" or weak is None:
        return None
    total = len(weak.get("rectangles", [])) + weak.get("random", {}).get("count", 0)
    if not total:
        return "$.weakcheck.rectangles"
    if len(weak.get("p_indices", [])) > total:
        return "$.weakcheck.p_indices"
    return None


def _outcome(cfg):
    try:
        validate_config(copy.deepcopy(cfg))
    except ConfigError as exc:
        return str(exc)
    return None


def _assert_agrees(label, cfg, validator, best_match, refusal=None):
    expected = best_match(validator.iter_errors(cfg))
    got = _outcome(cfg)
    if expected is not None:
        # the same error, at the same path, in the same words
        assert got == f"config schema violation at {expected.json_path}: {expected.message}", label
    elif any(True for _ in config_mod._non_finite(cfg)):
        # an allowed difference: jsonschema accepts NaN and +-Infinity
        assert got is not None and got.endswith("is not a finite number"), label
    elif refusal is not None:
        # the other: a deleted key that a kind or the weak-form check needs
        assert got is not None and got.startswith(f"config schema violation at {refusal}: "), label
    else:
        assert got is None, label


_BASES = _corpus_bases()


@pytest.mark.parametrize("name", sorted(_BASES))
def test_schema_walk_agrees_with_jsonschema(name):
    jsonschema = pytest.importorskip("jsonschema")
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    mutations = list(_mutations(_BASES[name]))
    assert len(mutations) > 50
    for label, cfg, refusal in mutations:
        _assert_agrees(label, cfg, validator, jsonschema.exceptions.best_match, refusal)


@pytest.mark.parametrize("name", sorted(_BASES))
def test_schema_walk_picks_best_match_of_two(name):
    # two mutations at once: which of several errors is reported follows
    # best_match's order (shallowest path, then path order, then first found)
    jsonschema = pytest.importorskip("jsonschema")
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    base = _BASES[name]
    singles = [(path, schema, value) for path, schema, value in _nodes(base, CONFIG_SCHEMA)
               if path]
    rng = random.Random(f"pairs:{name}")
    for _ in range(200):
        (p1, s1, v1), (p2, s2, v2) = rng.sample(singles, 2)
        if p1[:len(p2)] == p2 or p2[:len(p1)] == p1:
            continue  # one inside the other
        _, new1 = rng.choice(list(_replacements(s1, v1)))
        _, new2 = rng.choice(list(_replacements(s2, v2)))
        cfg = _set(_set(base, p1, new1), p2, new2)
        _assert_agrees(f"{p1}={new1!r}, {p2}={new2!r}", cfg, validator,
                       jsonschema.exceptions.best_match)


def test_integer_keys_store_ints():
    # 1.0 is an integer in draft 2020-12; the walk stores it as 1
    for name, base in _BASES.items():
        for path, schema, value in _nodes(base, CONFIG_SCHEMA):
            if schema.get("type") != "integer":
                continue
            cfg = _set(base, path, float(value))
            validate_config(cfg)
            target = cfg
            for key in path:
                target = target[key]
            assert type(target) is int and target == value, (name, path)


def test_value_equality_of_enum_and_unique_items():
    # True is not 1, but 1 is 1.0, in enum and uniqueItems alike
    assert config_mod._canon(True) != config_mod._canon(1)
    assert config_mod._canon(1) == config_mod._canon(1.0)
    assert config_mod._canon([1, {"a": False}]) == config_mod._canon([1.0, {"a": False}])
    assert config_mod._canon([1, {"a": False}]) != config_mod._canon([1, {"a": 0}])
    errors = []
    config_mod._walk({"enum": [1, "a"]}, True, (), errors)
    config_mod._walk({"enum": [1, "a"]}, 1.0, (), errors)
    config_mod._walk({"uniqueItems": True}, [1, True, 0, False], (), errors)
    config_mod._walk({"uniqueItems": True}, [[1], [1.0]], (), errors)
    assert [message for _, message in errors] == [
        "True is not one of [1, 'a']", "[[1], [1.0]] has non-unique elements"]


@pytest.mark.parametrize("schema, where", [
    ({"type": "object", "properties": {"a": {"type": "string", "pattern": "x"}}},
     "#/properties/a"),
    ({"type": "object", "oneOf": [{"required": ["a"]}]}, "#"),
    ({"$defs": {"p": {"type": "number", "multipleOf": 2}}}, "#/$defs/p"),
    ({"type": "array", "items": {"type": "integer", "exclusiveMaximum": 3}}, "#/items"),
])
def test_unsupported_keyword_refused(schema, where):
    with pytest.raises(ValueError, match=re.escape(f"at {where} is not supported")):
        config_mod._supported(schema)


@pytest.mark.parametrize("schema, match", [
    ({"type": "boolean"}, "type 'boolean'"),
    ({"additionalProperties": {"type": "number"}}, "must be false"),
    ({"properties": {"a": {"$ref": "#/$defs/missing"}}}, "not in \\$defs"),
    ({"$defs": {"p": {"type": "number"}},
      "properties": {"a": {"$ref": "#/$defs/p", "minimum": 0}}}, "sibling keywords"),
])
def test_unenforced_rule_refused(schema, match):
    with pytest.raises(ValueError, match=match):
        config_mod._supported(schema)
