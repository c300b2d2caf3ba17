"""Wire-format plumbing shared by every northbound DTO.

Every DTO serialises to a plain JSON-safe dictionary stamped with an explicit
schema version under :data:`VERSION_KEY`.  Version 1 is the current (and only)
wire format; a future ``V2`` DTO keeps its ``from_dict`` able to read version
1 payloads or rejects them with a :class:`~repro.api.errors.ValidationError`
-- either way the decision is explicit, never an accidental field mismatch.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import operator
from dataclasses import MISSING
from typing import Any, Callable, Mapping

from repro.api.errors import ValidationError
from repro.utils.validation import ensure_choice, ensure_list, ensure_mapping

#: Current northbound wire-format version.
WIRE_VERSION = 1

#: Dictionary key under which every DTO carries its schema version.
VERSION_KEY = "schema_version"


def stamp(payload: dict[str, Any]) -> dict[str, Any]:
    """Add the wire-format version stamp to a DTO payload."""
    payload[VERSION_KEY] = WIRE_VERSION
    return payload


def check_version(payload: Mapping[str, Any], dto_name: str) -> None:
    """Reject payloads that are not dictionaries of the supported version."""
    if not isinstance(payload, Mapping):
        raise ValidationError(
            f"{dto_name} payload must be a mapping, got {type(payload).__name__}"
        )
    version = payload.get(VERSION_KEY)
    if version is None:
        raise ValidationError(
            f"{dto_name} payload is missing the {VERSION_KEY!r} stamp"
        )
    if version != WIRE_VERSION:
        raise ValidationError(
            f"{dto_name} payload has unsupported {VERSION_KEY}={version!r}; "
            f"this broker speaks version {WIRE_VERSION}",
            details={"supported_version": WIRE_VERSION, "payload_version": version},
        )


def require(payload: Mapping[str, Any], key: str, dto_name: str) -> Any:
    """Fetch a mandatory DTO field, raising a structured error when absent."""
    try:
        return payload[key]
    except KeyError:
        raise ValidationError(
            f"{dto_name} payload is missing required field {key!r}"
        ) from None


def checked(rule, value: Any, name: str, *bounds: Any, **options: Any) -> Any:
    """``rule(value, *bounds, name)`` -- the plain value that flows on -- with
    its ``ValueError`` as a :class:`ValidationError` whose ``details`` map
    ``name`` to ``value``: the one adapter the northbound surface refuses
    through, in process and over the wire (DESIGN.md, "Input contract")."""
    try:
        return rule(value, *bounds, name, **options)
    except ValueError as error:
        raise ValidationError(str(error), details={name: value}) from None


# --------------------------------------------------------------------- #
# The field codec
# --------------------------------------------------------------------- #
class WireType:
    """Mixin of a stamped DTO dataclass: both directions are read off its
    fields, each declared once with a rule (:func:`repro.utils.validation.ruled`)."""

    def to_dict(self) -> dict[str, Any]:
        return stamp(encode(self))

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]):
        check_version(payload, cls.__name__)
        return decode(cls, payload)


def _compile(rule: Any) -> tuple[Callable, Callable | None]:
    """A field rule's decoder ``(value, name)`` and encoder (``None``: as is)."""
    if isinstance(rule, list):
        item, item_encode = _compile(rule[0])
        return (
            lambda value, name: tuple([item(x, name) for x in ensure_list(value, name)])
        ), list if item_encode is None else (lambda value: [*map(item_encode, value)])
    if isinstance(rule, dict):
        item, _ = _compile(rule[str])  # a mapping holds scalars
        return (
            lambda value, name: {k: item(x, name) for k, x in ensure_mapping(value, name).items()}
        ), dict
    if isinstance(rule, tuple):
        return (lambda value, name: ensure_choice(value, rule, name)), None
    if isinstance(rule, enum.EnumMeta):
        members = {member.value: member for member in rule}
        choose, _ = _compile(tuple(members))
        return (lambda value, name: members[choose(value, name)]), operator.attrgetter("value")
    if dataclasses.is_dataclass(rule):
        stamped = issubclass(rule, WireType)

        def decode_record(value: Any, name: str) -> Any:
            if type(value) is not dict:  # a record's own keys are read by name
                ensure_mapping(value, name)
            return rule.from_dict(value) if stamped else decode(rule, value)

        return decode_record, rule.to_dict if stamped else encode
    return rule, None


@functools.cache
def _plan(cls: type) -> tuple[tuple, tuple]:
    """Per field ``(name, decode, nullable, default, default_factory)``, and
    per field to encode ``(name, encode)``."""
    decoders, encoders = [], []
    for field in dataclasses.fields(cls):
        decoder, encoder = _compile(field.metadata["rule"])
        default = field.default
        decoders.append((field.name, decoder, default is None, default, field.default_factory))
        if encoder is not None:
            encoders.append((field.name, encoder))
    return tuple(decoders), tuple(encoders)


def encode(record: Any) -> dict[str, Any]:
    """A wire record's fields (its instance dictionary holds nothing else), in
    field order, without the stamp."""
    payload = record.__dict__.copy()
    for name, encoder in _plan(type(record))[1]:
        payload[name] = encoder(payload[name])
    return payload


def decode(cls: type, payload: Mapping[str, Any]) -> Any:
    """Rebuild ``cls`` from its fields, filled as ``__init__`` would fill them
    but each by its rule (a ``__post_init__`` may only guard direct
    construction by the same rules: it does not run).  A missing field takes
    its default; a missing field without one, or a value its rule refuses, is
    a :class:`ValidationError` naming the field."""
    decoders = _plan(cls)[0]
    record = object.__new__(cls)
    values = record.__dict__
    try:
        for name, rule, nullable, default, factory in decoders:
            value = payload.get(name, MISSING)
            if value is not MISSING:
                values[name] = None if value is None and nullable else rule(value, name)
            elif factory is not MISSING:
                values[name] = factory()
            elif default is not MISSING:
                values[name] = default
            else:
                raise ValidationError(
                    f"{cls.__name__} payload is missing required field {name!r}",
                    details={"missing_field": name},
                )
    except ValueError as error:
        raise ValidationError(str(error), details={name: payload[name]}) from None
    return record
