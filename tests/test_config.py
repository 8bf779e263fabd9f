"""The config declaration: every field's type and allowed values, read back from its dataclass."""
from __future__ import annotations

import argparse
import json
import math
import re
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import pytest

from pt4al.cli import _config_echo, load_config
from pt4al.config import ConfigError, from_dict
from pt4al.learner import ConvSpec, LearnerConfig
from pt4al.loop import ALConfig, DatasetSpec

README = Path(__file__).resolve().parent.parent / "README.md"

# Where a dataclass's fields live in a config file; ALConfig's own fields are in "al".
SECTIONS = {DatasetSpec: ("dataset",), LearnerConfig: ("pretext", "main"), ConvSpec: ("main.conv",),
            ALConfig: ("al",)}

DECLARED = [(cls, f.name, section) for cls, sections in SECTIONS.items() for section in sections
            for f in fields(cls) if not f.metadata.get("derived")]


# A sample object per section, whose echo each field's value must round-trip from.
SAMPLES = {"dataset": DatasetSpec(), "pretext": ALConfig().pretext, "main": ALConfig().main,
           "main.conv": ConvSpec(filters=2, kernel=3), "al": ALConfig()}


def bare(hint):
    """The declared type without its `| None`."""
    return next(a for a in get_args(hint) if a is not type(None)) if type(None) in get_args(hint) else hint


def wrong_types(hint) -> list:
    hint = bare(hint)
    if get_origin(hint) is tuple:
        return ["1", [True]]
    if is_dataclass(hint):
        return [1, {"filters": 2}]
    return {int: [True, 2.5, "5"], float: [True, "0.5"], str: [5]}[hint]


def disallowed(within, hint) -> list:
    """Values of the declared type just outside `within`, and NaN for floats."""
    hint = bare(hint)
    elem = get_args(hint)[0] if get_origin(hint) is tuple else hint
    if within is None:
        values = [math.nan] if elem is float else []
    elif isinstance(within, tuple):
        values = ["no-such-choice"]
    else:
        lo, hi = (float(b) for b in within[1:-1].split(","))
        if math.isfinite(lo):
            edge = lo if within[0] == "(" else lo - 1
        else:
            edge = hi if within[-1] == ")" else hi + 1
        values = [int(edge)] if elem is int else [edge, math.nan]
    return [[v] for v in values] if elem is not hint else values


def config_with(tmp_path, section: str, name: str, value) -> Path:
    cfg = {"output_dir": str(tmp_path / "out")}
    if section == "main.conv":
        cfg["main"] = {"conv": {"filters": 2, "kernel": 3, name: value}}
    else:
        cfg[section] = {name: value}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize("cls, name, section", DECLARED, ids=[f"{s}.{n}" for _, n, s in DECLARED])
def test_every_declared_field_is_read_strictly_and_checked(tmp_path, cls, name, section):
    f = next(f for f in fields(cls) if f.name == name)
    hint = get_type_hints(cls)[name]
    key = name if section == "al" else f"{section}.{name}"
    for value in wrong_types(hint) + disallowed(f.metadata.get("within"), hint):
        with pytest.raises(ConfigError, match=re.escape(key)):
            load_config(str(config_with(tmp_path, section, name, value)), argparse.Namespace())

    sample = SAMPLES[section]
    echo = json.loads(json.dumps(asdict(sample)))
    assert from_dict(sample, {name: echo[name]}, section) == sample


def without_derived(echo: dict) -> dict:
    for section in ("pretext", "main"):
        for f in fields(LearnerConfig):
            if f.metadata.get("derived"):
                del echo[section][f.name]
    return echo


def test_default_echo_loads_back_to_the_default_config(tmp_path):
    echo = without_derived(_config_echo(ALConfig()))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**echo, "output_dir": "out"}))
    assert load_config(str(path), argparse.Namespace()) == (ALConfig(), Path("out"))


def test_readme_schema_matches_the_default_echo():
    text = README.read_text(encoding="utf-8").split("### Config schema", 1)[1]
    block = text.split("```jsonc\n", 1)[1].split("```", 1)[0]
    documented = json.loads(re.sub(r"//[^\n]*", "", block))
    assert documented.pop("output_dir") is None
    echo = without_derived(_config_echo(ALConfig()))
    assert documented == json.loads(json.dumps(echo))
