"""The config declaration: every field's type and allowed values, read back from its dataclass."""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import re
import struct
import tempfile
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import pytest
from hypothesis import given, settings, strategies as st

from pt4al.cli import _config_echo, build_parser, load_config, main
from pt4al.config import ConfigError, from_dict
from pt4al.data import gen_synthetic, write_idx
from pt4al.learner import ConvSpec, LearnerConfig
from pt4al.loop import ABLATION_VARIANTS, ALConfig, DatasetSpec

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


def test_readme_flag_table_matches_the_parser():
    rows = README.read_text(encoding="utf-8").split("| command | flags |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    documented = {}
    for row in rows.splitlines():
        command, flags = row.strip("|").split("|")
        documented[command.strip(" `")] = re.findall(r"`(--[a-z-]+)`", flags)
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {name: [s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")]
              for name, p in sub.choices.items()}
    assert documented == parsed

# The largest value drawn for each integer field (and integer list element), so that no
# draw allocates much: every integer field with a range needs an entry here.
INT_CAPS = {"classes": 4, "n_per_class": 30, "size": 12, "hidden": 8, "filters": 4, "kernel": 12, "epochs": 3,
            "batch_size": 10**12, "iterations": 3, "budget": 10, "imbalance_counts": 30}

# Floats tried at every float field whose range holds them: zero, subnormals, and up to 1e308.
WILD_FLOATS = [0.0, 5e-324, 1e-310, 1e-300, 1e-8, 0.5, 1.0, 10.0, 1e100, 1e308]

# An idx dataset needs files, which the fuzz does not write; `kind` stays synthetic.
FIXED = {"kind": st.just("synthetic")}


def within_values(name: str, hint, within):
    """Hypothesis strategy for the JSON values of one declared field, inside its declared range."""
    if name in FIXED:
        return FIXED[name]
    if type(None) in get_args(hint):
        inner = bare(hint)
        if inner is str and within is None:  # a free string is a file path: it stays unset
            return st.none()
        # Set one time in four, so that most draws get past the dataset's imbalance checks.
        return st.integers(0, 3).flatmap(lambda i: within_values(name, inner, within) if i == 0 else st.none())
    if get_origin(hint) is tuple:
        return st.lists(within_values(name, get_args(hint)[0], within), max_size=4)
    if is_dataclass(hint):
        return section_values(hint)
    if isinstance(within, tuple):
        return st.sampled_from(within)
    if within is None:
        return st.integers(-2**70, 2**70)  # the seed
    lo, hi = (float(b) for b in within[1:-1].split(","))
    low_open, high_open = within[0] == "(", within[-1] == ")"
    if hint is int:
        return st.integers(int(lo) + low_open, int(min(hi, INT_CAPS[name])))
    inside = [v for v in WILD_FLOATS if (lo < v if low_open else lo <= v) and (v < hi if high_open else v <= hi)]
    top = min(hi, 1e308)
    return st.sampled_from(inside) | st.floats(lo, top, exclude_min=low_open, exclude_max=high_open and top == hi)


def section_values(cls):
    """Strategy for one config section: a value for every field of `cls` that is not derived."""
    hints = get_type_hints(cls)
    return st.fixed_dictionaries({f.name: within_values(f.name, hints[f.name], f.metadata.get("within"))
                                  for f in fields(cls) if not f.metadata.get("derived")})


@st.composite
def config_files(draw):
    """Strategy for whole config files: the "al" section, then the top-level keys derived in ALConfig.

    Most draws (hypothesis favours small integers, so about 84%) then size the pool from the
    drawn budget: they clear the imbalance keys, take a test fraction in [0.1, 0.5], draw
    `n_per_class` no lower than the train split needs for `iterations` x `budget`, and take a
    `decay_factor` of at most 1. Over hypothesis seeds 1-6 (900 draws), 65% of the `pretext` and
    49% of the `run` commands exit 0, and 82% and 69% reach training (exit 0, or exit 2 for a
    divergence). With every value drawn on its own the shares were 11% and 6%, and 14% and 8%.
    """
    hints = get_type_hints(ALConfig)
    top = {f.name: within_values(f.name, hints[f.name], f.metadata.get("within"))
           for f in fields(ALConfig) if f.metadata.get("derived")}
    raw = draw(st.fixed_dictionaries({"al": section_values(ALConfig), **top}))
    if draw(st.integers(0, 3)) < 3:
        for section in ("pretext", "main"):  # a factor of at most 1 keeps every epoch's rate finite
            raw[section]["decay_factor"] = draw(st.floats(0.0, 1.0, exclude_min=True))
        dataset, cap = raw["dataset"], INT_CAPS["n_per_class"]
        # A test fraction in [0.1, 0.5] puts 1 of 5 samples of a class in test, and leaves
        # (n - 1) / 2 or more of its n samples in train.
        least = max(5, -(-2 * raw["al"]["iterations"] * raw["al"]["budget"] // dataset["classes"]) + 1)
        dataset.update(imbalance_counts=None, imbalance_factor=None, test_fraction=draw(st.floats(0.1, 0.5)),
                       n_per_class=draw(st.integers(min(least, cap), cap)))
    return raw


FUZZ_COMMANDS = [["pretext"], ["plan"], ["run"], ["coldstart", "--seeds", "1,2"], ["correlate"]]


def files_in(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}


@settings(max_examples=150, deadline=None)
@given(config_files(), st.sampled_from(sorted(ABLATION_VARIANTS)))
def test_every_command_on_declared_values_exits_cleanly(raw, variant):
    """Every command on a config drawn from the declarations: exit 0, exit 1, or exit 2 for a divergence.

    Exit 1 and exit 2 leave the output directory as it was; exit 0 adds exactly
    the command's manifest and the files that manifest lists.
    """
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps({**raw, "output_dir": str(out)}))
        for command in [*FUZZ_COMMANDS, ["ablate", "--variant", variant]]:
            before, err = files_in(out), io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command[0], str(path), *command[1:]])
            after = files_in(out)
            assert code in (0, 1) or (code == 2 and "diverged" in err.getvalue()), (command, code, err.getvalue())
            if code:
                assert after == before, command
                continue
            added = set(after) - set(before)
            manifests = [name for name in added if name.endswith("_manifest.json")]
            assert len(manifests) == 1, (command, added)
            listed = {Path(p).name for p in json.loads(after[manifests[0]])["outputs"]}
            assert added == {manifests[0], *listed}, command


# Faults written into the IDX pair of the idx fuzz: (file, offset of the big-endian uint32 to
# overwrite with the drawn value: the magic number, the count or an image side; or None to cut
# the file to the drawn length).
IDX_FAULTS = [(name, offset) for name, offsets in (("images", (None, 0, 4, 8, 12)), ("labels", (None, 0, 4)))
              for offset in offsets]


@st.composite
def idx_cases(draw):
    """A config drawn as above with conv kernels near the image side, an IDX fault or None, and a value."""
    raw = draw(config_files())
    side = raw["dataset"]["size"]
    for section in ("pretext", "main"):
        raw[section]["conv"] = draw(st.none() | st.fixed_dictionaries(
            {"filters": st.integers(1, 4), "kernel": st.integers(side - 3, side + 1)}))
    return raw, draw(st.none() | st.sampled_from(IDX_FAULTS)), draw(st.integers(0, 300) | st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(idx_cases(), st.sampled_from(sorted(ABLATION_VARIANTS)))
def test_every_command_on_a_drawn_idx_pair_exits_cleanly(case, variant):
    """The property above over an IDX pair written from the drawn synthetic values, sometimes spoiled.

    One uint32 of the pair (a magic number, a count or an image side) takes the drawn
    value, or one file is cut to the drawn length.
    """
    raw, fault, value = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"images": Path(tmp) / "images.idx", "labels": Path(tmp) / "labels.idx"}
        dataset = raw["dataset"]
        write_idx(gen_synthetic(dataset["n_per_class"], dataset["classes"], dataset["size"], dataset["noise"], 0),
                  paths["images"], paths["labels"])
        if fault is not None:
            name, offset = fault
            data = bytearray(paths[name].read_bytes())
            if offset is None:
                del data[value:]
            else:
                struct.pack_into(">I", data, offset, value)
            paths[name].write_bytes(bytes(data))
        raw["dataset"] = {**dataset, "kind": "idx", **{key: str(path) for key, path in paths.items()}}
        test_every_command_on_declared_values_exits_cleanly.hypothesis.inner_test(raw, variant)
