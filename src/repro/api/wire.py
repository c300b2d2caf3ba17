"""Wire-format plumbing shared by every northbound DTO.

Every DTO serialises to a plain JSON-safe dictionary stamped with an explicit
schema version under :data:`VERSION_KEY`.  Version 1 is the current (and only)
wire format; a future ``V2`` DTO keeps its ``from_dict`` able to read version
1 payloads or rejects them with a :class:`~repro.api.errors.ValidationError`
-- either way the decision is explicit, never an accidental field mismatch.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.api.errors import ValidationError

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
