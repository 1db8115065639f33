"""Key tables for JSON input: configs and descriptors.

A Table lists the keys of one JSON object: the kind that parses each
value, an optional check and default, and rules relating several keys.
``validate`` applies one table; ``described`` picks one by a "kind" field
and builds the object it describes.  Every fault raises ValueError naming
the key.  Numbers must be JSON numbers (a bool or a text is not one) and
parse to finite floats.
"""

from __future__ import annotations

import math
import numbers as _numbers
import sys
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

import numpy as np

REQUIRED = object()


class Key(NamedTuple):
    """One key: `kind` parses its JSON value as (value, name) -> parsed,
    `check` constrains the parsed value as `rule` states, and a key with a
    default may be left out."""

    kind: Callable[[object, str], object]
    check: Callable[[object], bool] | None = None
    rule: str = ""
    default: object = REQUIRED


class Table(NamedTuple):
    """The keys of one JSON object, and rules that relate several of them."""

    keys: dict[str, Key]
    rules: tuple[tuple[Callable[[Mapping], bool], str], ...] = ()


def kind(test, what: str, convert=lambda value: value):
    """Kind of a JSON value that passes `test`."""
    def parse(value, name: str):
        if not test(value):
            raise ValueError(f"{name} must be {what}, got {value!r:.40}")
        return convert(value)
    return parse


def literal(value, default=REQUIRED) -> Key:
    """Key whose value must be `value` itself, of its type (true is not 1)."""
    return Key(lambda v, name: v, lambda v: type(v) is type(value) and v == value,
               repr(value), default)


def is_number(value) -> bool:
    """A finite real number, not a bool, that converts to a float without overflow."""
    if isinstance(value, _numbers.Integral):
        return not isinstance(value, bool) and abs(value) <= sys.float_info.max
    return isinstance(value, _numbers.Real) and math.isfinite(value)


number = kind(is_number, "a number that is finite", float)
numbers = kind(lambda v: (isinstance(v, (list, tuple))
                          or (isinstance(v, np.ndarray) and v.ndim == 1))
               and all(map(is_number, v)),
               "a list of numbers that are finite", lambda v: tuple(map(float, v)))


def _mapping(raw, where: str) -> Mapping:
    if not isinstance(raw, Mapping):
        raise ValueError(f"{where} must be a mapping, got {raw!r:.40}")
    return raw


def validate(table: Table, raw, where: str) -> Mapping:
    """Read-only parsed values of every key of `table` in the JSON object
    `raw` (named `where`), defaults filled in."""
    unknown = sorted(set(_mapping(raw, where)) - set(table.keys))
    if unknown:
        raise ValueError(f"{where} has unknown field {unknown[0]!r}")
    parsed = {}
    for key, spec in table.keys.items():
        name = f"{where}.{key}"
        if key not in raw and spec.default is REQUIRED:
            raise ValueError(f"{where} is missing field {key!r}")
        parsed[key] = spec.kind(raw[key], name) if key in raw else spec.default
        if key in raw and spec.check is not None and not spec.check(parsed[key]):
            raise ValueError(f"{name} must be {spec.rule}")
    for holds, rule in table.rules:
        if not holds(parsed):
            raise ValueError(f"{where}: {rule}")
    return MappingProxyType(parsed)


def described(desc, kinds: Mapping[str, tuple[Callable, Table]], name: str):
    """The object a {"kind": kind, ...} descriptor named `name` describes:
    `kinds` maps each kind to its constructor and the table of its fields."""
    kind_name = _mapping(desc, name).get("kind")
    if not (isinstance(kind_name, str) and kind_name in kinds):
        raise ValueError(f"unknown {name} kind {kind_name!r}")
    build, table = kinds[kind_name]
    fields = validate(table, {key: value for key, value in desc.items() if key != "kind"}, name)
    try:
        return build(**fields)
    except ValueError as exc:  # the constructor's own checks, e.g. a zero frequency
        raise ValueError(f"{name}: {exc}") from exc
