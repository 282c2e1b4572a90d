"""JSON codec for game/strategy labels (tuples round-trip as lists, scalars pass
through) and for the integer fields of the JSON formats."""
from __future__ import annotations

from .errors import ValidationError


def label_to_json(label):
    if isinstance(label, tuple):
        return [label_to_json(part) for part in label]
    if isinstance(label, (int, str)):
        return label
    raise ValidationError(f"label {label!r} is not JSON-serializable (int, str or tuple expected)")


def label_from_json(data):
    if isinstance(data, list):
        return tuple(label_from_json(part) for part in data)
    if isinstance(data, bool) or not isinstance(data, (int, str)):
        raise ValidationError(f"malformed label {data!r}")
    return data


def int_from_json(data, what: str) -> int:
    """An integer field of a JSON input: floats, strings and booleans are refused, never coerced."""
    if isinstance(data, bool) or not isinstance(data, int):
        raise ValidationError(f"{what} must be an integer, got {data!r}")
    return data
