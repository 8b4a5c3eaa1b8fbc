"""Config-domain guard: every field of the config dataclasses declares
its domain with `types.setting`, which `types.Checked` enforces, or is a
structured field that its class or the YAML reader checks. A new setting
cannot land unchecked."""

import ast
import math
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from gnssgraph.atmosphere import KlobucharParams, TropoModel
from gnssgraph.pipeline import PipelineConfig
from gnssgraph.pointpos import SolverConfig
from gnssgraph.sim import (NoiseConfig, ReceiverClockConfig, ScenarioConfig,
                           TrajectoryConfig)
from gnssgraph.trrtk import TrRtkConfig
from gnssgraph.types import Checked

CONFIGS = (SolverConfig, TrRtkConfig, PipelineConfig, ScenarioConfig,
           TrajectoryConfig, NoiseConfig, ReceiverClockConfig, TropoModel,
           KlobucharParams)

# nested configs, read section by section; the fields that a YAML file
# holds in another form (`fileio.FILE_FORMS`) or their class checks; and
# the pseudorange variance terms under their joint rule
STRUCTURED = {
    "solver", "trrtk", "trajectory", "noise", "receiver_clock", "iono",
    "tropo", "kind", "waypoints", "counts", "cycle_slips", "origin",
    "start_time", "sigma_a", "sigma_b"}

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gnssgraph"


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.__name__)
def test_every_field_declares_its_domain(config):
    assert issubclass(config, Checked)
    unchecked = [f.name for f in fields(config)
                 if "admits" not in f.metadata and f.name not in STRUCTURED]
    assert unchecked == [], f"{config.__name__} fields without a domain"


def test_structured_names_are_fields():
    """Each structured name is a field of some config, so the list cannot
    keep a name that no longer exempts anything."""
    names = {f.name for config in CONFIGS for f in fields(config)}
    assert STRUCTURED <= names


def test_every_config_dataclass_is_guarded():
    """A config dataclass added to the package joins CONFIGS."""
    found = {node.name
             for path in PACKAGE.glob("*.py")
             for node in ast.parse(path.read_text(encoding="utf-8")).body
             if isinstance(node, ast.ClassDef)
             and node.name.endswith(("Config", "Params", "Model"))}
    assert found == {config.__name__ for config in CONFIGS}
    assert all(is_dataclass(config) for config in CONFIGS)


SETTINGS = [(config, f.name) for config in CONFIGS for f in fields(config)
            if "admits" in f.metadata]


def refused(default) -> list:
    """Values outside the domain of a setting of this default."""
    if isinstance(default, bool):
        return [0, 1, "false", None]
    if isinstance(default, tuple):
        return [default[:-1] + (bad,) for bad in (math.nan, math.inf, "1",
                                                  True)] + [list(default)]
    return [math.nan, math.inf, -math.inf, "1", True, None] + (
        [1.5] if isinstance(default, int) else [])


@pytest.mark.parametrize("config, name", SETTINGS,
                         ids=[f"{c.__name__}.{n}" for c, n in SETTINGS])
def test_every_setting_refuses_what_is_outside_its_domain(config, name):
    """The default passes; a NaN, an infinity, a string, None, a bool for
    a number or a number for a bool, a fraction for an integer, and a
    list for a tuple are refused (ValueError naming the field), also
    when a valid config is copied with them."""
    default = getattr(config(), name)
    assert getattr(config(**{name: default}), name) == default
    for value in refused(default):
        with pytest.raises(ValueError, match=name):
            config(**{name: value})
        with pytest.raises(ValueError, match=name):
            replace(config(), **{name: value})


def test_numpy_numbers_pass():
    """Numbers from numpy, such as the radians of a mask in degrees, are
    numbers."""
    assert SolverConfig(elevation_mask=np.radians(90.0),
                        max_iterations=np.int64(3)).max_iterations == 3


def test_no_setting_of_a_solve_is_named_twice():
    """Each setting of a solve is set in one place: no field name of
    `PipelineConfig` appears again in its `solver:` or `trrtk:` section,
    nor one of those sections' names in the other."""
    names = [f.name for config in (PipelineConfig, SolverConfig, TrRtkConfig)
             for f in fields(config)]
    assert sorted({name for name in names if names.count(name) > 1}) == []
