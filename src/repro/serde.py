"""The one dict/JSON (de)serialiser of the spec dataclasses.

Every spec (``Scenario``, ``TopologySpec``, ``FaultPlan``, ``ControlPolicy``,
...) is a frozen dataclass whose wire form is its fields: a nested dataclass
becomes a dict, an ``Enum`` its value, a tuple a list.  :func:`to_dict` and
:func:`from_dict` derive both directions from ``dataclasses.fields``, so a new
field serialises without any code; :class:`DictSerializable` hangs them on a
spec class as ``to_dict`` / ``from_dict`` / ``to_json`` / ``from_json``.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from enum import Enum
from typing import Any, Dict, Iterable, Mapping, Optional, get_args, get_origin, get_type_hints

from repro.errors import ConfigurationError

__all__ = ["DictSerializable", "check_known_keys", "from_dict", "to_dict"]


def check_known_keys(data: Mapping[str, Any], known: Iterable[str], what: str) -> None:
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigurationError(
            f"unknown {what} field(s): {sorted(unknown)}; known: {sorted(known)}"
        )


def _encode(value: Any) -> Any:
    if is_dataclass(value):
        return to_dict(value)
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    return value


def to_dict(spec: Any) -> Dict[str, Any]:
    """The plain-JSON dict form of a spec dataclass (every field, recursively)."""
    return {f.name: _encode(getattr(spec, f.name)) for f in fields(spec)}


def _decode(hint: Any, value: Any) -> Any:
    if isinstance(value, Mapping) and is_dataclass(hint):
        return from_dict(hint, value)
    if isinstance(value, (list, tuple)) and get_origin(hint) is tuple:
        item_hint = get_args(hint)[0]
        return tuple(_decode(item_hint, item) for item in value)
    return value


def from_dict(cls: Any, data: Mapping[str, Any]) -> Any:
    """Rebuild ``cls`` from its dict form; an unknown key is a
    :class:`~repro.errors.ConfigurationError`, a missing one takes the default.

    Nested dicts and lists are rebuilt from the field's declared type; enums
    and other scalar coercions are left to the class's own ``__post_init__``.
    """
    check_known_keys(data, [f.name for f in fields(cls)], cls.__name__)
    hints = get_type_hints(cls)
    return cls(**{key: _decode(hints[key], value) for key, value in data.items()})


class DictSerializable:
    """Mixin giving a spec dataclass its dict and JSON round trip."""

    def to_dict(self) -> Dict[str, Any]:
        return to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]):
        return from_dict(cls, data)

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str):
        return cls.from_dict(json.loads(text))
