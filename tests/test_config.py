from pathlib import Path

import pytest
from jsonschema import Draft202012Validator

import ghd
from ghd.config import (CONFIG_SCHEMA, build_kernel_from, build_scenario_from,
                        build_solver_config_from, load_config,
                        random_rectangles, validate_config)
from ghd.errors import ConfigError
from ghd.grid import RULES
from ghd.kernel import KERNEL_MODELS

REPO = Path(__file__).resolve().parents[1]


def test_schema_is_valid_draft_2020_12():
    Draft202012Validator.check_schema(CONFIG_SCHEMA)


def test_load_does_not_recheck_schema(monkeypatch):
    # the validator is built once at import; a load re-checks only the config
    def no_recheck(*args, **kwargs):
        raise AssertionError("schema re-checked against the metaschema on load")

    monkeypatch.setattr(Draft202012Validator, "check_schema", no_recheck)
    load_config(REPO / "configs" / "compare_reference.json")
    with pytest.raises(ConfigError, match=r"\$\.grid\.count"):
        validate_config({"grid": {"p_min": 0, "p_max": 1, "count": 1},
                         "kernel": {"model": "zero"}, "scenario": {"kind": "zero"}})


def test_validate_reports_best_match():
    # two violations: jsonschema.validate's choice (best_match) is reported,
    # not the first one a validator happens to yield
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
    base = {"grid": {"p_min": -1, "p_max": 1, "count": 4},
            "scenario": {"kind": "zero"}}
    with pytest.raises(ConfigError, match="kernel.c"):
        build_kernel_from({**base, "kernel": {"model": "lieb_liniger"}})
    with pytest.raises(ConfigError, match="kernel.d"):
        build_kernel_from({**base, "kernel": {"model": "hard_rods"}})


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
