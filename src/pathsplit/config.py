"""Typed configs: frozen dataclasses whose field annotations are the type
rules of their values.

A field annotated int takes an int and float an int or a float, neither a
bool; str takes a string, list[int] a list of ints and bool only a bool.
An enum takes its member or the member's value string, and keeps the
member. A nested Config takes its dict, its errors prefixed with the
field name (scheduler.n_paths …), and X | None takes None too. A wrong
type raises TypeError; a bool field's other values and a string no enum
member has raise ValueError. Nothing else is coerced, so to_dict gives
back the values a config was given.
"""

from __future__ import annotations

import enum
import functools
import operator
import types
import typing
from dataclasses import MISSING, asdict, fields
from typing import Any

_NOUNS = {int: "an integer", float: "a number", str: "a string"}


def require(config: Any, name: str, ok: bool, rule: str) -> None:
    """Refuse the value config holds at name (dotted for a nested field)
    unless ok; rule says what ok means."""
    if not ok:
        value = operator.attrgetter(name)(config)
        raise ValueError(f"{name} must be {rule}, got {value!r}")


@functools.cache
def _hints(cls: type) -> dict[str, Any]:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _checked(name: str, hint: Any, value: Any) -> Any:
    """value, or the enum member or nested config it names, once it
    matches hint."""
    if isinstance(hint, types.UnionType):  # X | None
        if value is None:
            return None
        (hint,) = (arg for arg in hint.__args__ if arg is not type(None))
    if hint is bool:
        if not isinstance(value, bool):
            raise ValueError(f"{name} must be true or false, got {value!r}")
    elif hint in _NOUNS:
        kinds = (int, float) if hint is float else hint
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise TypeError(f"{name} must be {_NOUNS[hint]}, got {value!r}")
    elif hint == list[int]:
        if not isinstance(value, list):
            raise TypeError(f"{name} must be a list of integers, got {value!r}")
        for i, item in enumerate(value):
            _checked(f"{name}[{i}]", int, item)
    elif issubclass(hint, enum.Enum):
        if isinstance(value, hint):
            return value
        choices = tuple(member.value for member in hint)
        if not isinstance(value, str):
            raise TypeError(f"{name} must be one of {choices}, got {value!r}")
        if value not in choices:
            raise ValueError(f"{name} must be one of {choices}, got {value!r}")
        return hint(value)
    elif not isinstance(value, hint):  # a nested config
        if not isinstance(value, dict):
            raise TypeError(f"{name} must be an object, got {value!r}")
        return hint.from_dict(value, prefix=f"{name}.")
    return value


class Config:
    """Base of a frozen dataclass config. Its __post_init__ checks every
    field against its annotation; a subclass's own checks follow a call
    to it."""

    def __post_init__(self):
        for name, hint in _hints(type(self)).items():
            value = getattr(self, name)
            checked = _checked(name, hint, value)
            if checked is not value:
                object.__setattr__(self, name, checked)

    def to_dict(self) -> dict[str, Any]:
        """The fields by name, enums as their values and nested configs as
        their dicts."""
        return asdict(self, dict_factory=lambda items: {
            name: value.value if isinstance(value, enum.Enum) else value
            for name, value in items})

    @classmethod
    def from_dict(cls, data: dict[str, Any], prefix: str = ""):
        """The config data describes: data holds every field that has no
        default and nothing else. prefix starts the message of an error a
        field raises."""
        kind = cls.__name__.removesuffix("Config").lower()  # "scheduler"
        unknown = sorted(set(data) - set(_hints(cls)))
        if unknown:
            raise ValueError(f"unknown {kind} config field(s): {', '.join(unknown)}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in data]
        if missing:
            raise ValueError(f"config for {kind} lacks {', '.join(missing)}")
        try:
            return cls(**data)
        except (TypeError, ValueError) as exc:
            if not prefix:
                raise
            raise type(exc)(f"{prefix}{exc}") from None
