"""Config fields declared once, on their dataclasses.

The annotation gives a field's type; `declare` adds its allowed values (an
interval such as "[1, inf)" or a tuple of names) and marks fields derived at
run time. `from_dict` reads JSON by those types, `check_fields` checks the
values, and `dataclasses.asdict` writes a config back out.
"""
from __future__ import annotations

import math
from dataclasses import MISSING, field, fields, is_dataclass, replace
from typing import get_args, get_origin, get_type_hints


class ConfigError(ValueError):
    """Raised for anything the user can fix in the config or flags."""


def declare(default=MISSING, within: str | tuple[str, ...] | None = None, *, derived=False, factory=MISSING):
    return field(default=default, default_factory=factory, metadata={"within": within, "derived": derived})


def _inside(value, within: str | tuple[str, ...]) -> bool:
    if isinstance(within, tuple):
        return value in within
    lo, hi = (float(bound) for bound in within[1:-1].split(","))
    above = lo < value if within[0] == "(" else lo <= value
    return above and (value < hi if within[-1] == ")" else value <= hi)


def check_fields(obj, where: str = "") -> None:
    """Raise ConfigError naming the key unless every number is finite and every value allowed.

    Tuples are checked element by element and dataclass values recursively.
    """
    for f in fields(obj):
        value, within, key = getattr(obj, f.name), f.metadata.get("within"), where + f.name
        if is_dataclass(value):
            check_fields(value, key + ".")
            continue
        for v in value if isinstance(value, (tuple, list)) else (value,):
            if isinstance(v, float) and not math.isfinite(v):
                raise ConfigError(f"{key} must be finite, got {value!r}")
            if within is not None and v is not None and not _inside(v, within):
                allowed = f"one of {list(within)}" if isinstance(within, tuple) else f"within {within}"
                raise ConfigError(f"{key} must be {allowed}, got {value!r}")


def read_value(value, hint, key: str, current=None):
    """`value` as JSON decoded it, checked against the type `hint`.

    `int` takes JSON integers only (no booleans), `float` any number (an
    integer is kept as written; `check_fields` rejects NaN and infinities),
    a tuple a list, and a dataclass an object merged into `current`, or
    holding every field when `current` is None.
    """
    if type(None) in get_args(hint):
        if value is None:
            return None
        hint = next(arg for arg in get_args(hint) if arg is not type(None))
    if get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        return tuple(read_value(v, get_args(hint)[0], f"{key}[{i}]") for i, v in enumerate(value))
    if is_dataclass(hint):
        return from_dict(hint if current is None else current, value, key)
    if type(value) not in ((int, float) if hint is float else (hint,)):
        kind = {int: "a JSON integer", float: "a number", str: "a string"}[hint]
        raise ConfigError(f"{key} must be {kind}, got {value!r}")
    return value


def from_dict(base, d, where: str, allow_derived: bool = False):
    """`base`, a dataclass instance, with the keys of the JSON object `d` read into it.

    A dataclass `base` needs every field in `d`. Unknown keys are rejected,
    and derived ones unless `allow_derived`; errors name keys `where.key`.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object, got {d!r}")
    declared = {f.name: f for f in fields(base)}
    hints = get_type_hints(base if isinstance(base, type) else type(base))
    values = {}
    for name, value in d.items():
        key = f"{where}.{name}" if where else name
        if name not in declared:
            raise ConfigError(f"unknown config key {key}")
        if declared[name].metadata.get("derived") and not allow_derived:
            raise ConfigError(f"{key} is derived at run time or set at the top level, not in {where}")
        values[name] = read_value(value, hints[name], key, None if isinstance(base, type) else getattr(base, name))
    if not isinstance(base, type):
        return replace(base, **values)
    missing = sorted(set(declared) - set(d))
    if missing:
        raise ConfigError(f"{where} needs the keys {missing}")
    return base(**values)
