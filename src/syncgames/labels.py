"""Labels of games and strategies: the JSON codec for labels (tuples round-trip as
lists, scalars pass through), the implicit sign-vector alphabet of BCS games and
the converter pair for output alphabets, the integer fields of the JSON
formats, and the base that writes every check report's JSON form."""
from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import fields
from itertools import product as iter_product
from typing import Callable, ClassVar

from .errors import ValidationError, VerificationError

MAX_SIGN_VECTOR_LENGTH = 62  # the largest n whose 2^n fits in len()'s Py_ssize_t


class SignVectors(Sequence):
    """The alphabet {-1, +1}^n as an immutable sequence, never materialised.

    Element k is the k-th tuple of itertools.product((-1, 1), repeat=n): its
    entry j is +1 exactly when bit n-1-j of k is set.  Indexing, index() and
    membership are arithmetic, O(n); membership accepts only length-n tuples
    of int entries -1 and +1 (booleans are refused).  Two alphabets are equal
    when their lengths n are; an alphabet never equals a tuple.
    """

    __slots__ = ("n",)

    def __init__(self, n: int):
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValidationError(f"sign-vector length must be an integer, got {n!r}")
        if not 0 <= n <= MAX_SIGN_VECTOR_LENGTH:
            raise ValidationError(
                f"sign-vector length {n} is outside 0..{MAX_SIGN_VECTOR_LENGTH}"
            )
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError("SignVectors is immutable")

    def __len__(self) -> int:
        return 1 << self.n

    def __getitem__(self, k) -> tuple:
        k = operator.index(k)
        if k < 0:
            k += len(self)
        if not 0 <= k < len(self):
            raise IndexError("sign-vector index out of range")
        return tuple(1 if k >> shift & 1 else -1 for shift in range(self.n - 1, -1, -1))

    def __contains__(self, label) -> bool:
        return (
            type(label) is tuple
            and len(label) == self.n
            and all(type(v) is int and (v == 1 or v == -1) for v in label)
        )

    def index(self, label) -> int:
        if label not in self:
            raise ValueError(f"{label!r} is not a sign vector of length {self.n}")
        k = 0
        for v in label:
            k = 2 * k + (v == 1)
        return k

    def __iter__(self):
        return iter_product((-1, 1), repeat=self.n)

    def __eq__(self, other):
        if isinstance(other, SignVectors):
            return self.n == other.n
        return NotImplemented

    def __hash__(self) -> int:
        return hash((SignVectors, self.n))

    def __repr__(self) -> str:
        return f"SignVectors({self.n})"

    def __reduce__(self):
        return SignVectors, (self.n,)


def unique_dict(pairs, what: str) -> dict:
    """A dict from (key, value) pairs, refusing a repeated key: a ValidationError
    names what repeats it and the key."""
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise ValidationError(f"{what} repeat {key!r}")
        out[key] = value
    return out


def as_alphabet(labels, what: str) -> Sequence:
    """A label sequence as stored: an implicit alphabet stays implicit, anything else
    becomes a tuple, refused (as what) when it repeats a label."""
    if isinstance(labels, SignVectors):
        return labels
    labels = tuple(labels)
    unique_dict(zip(labels, labels), what)
    return labels


def label_set(labels):
    """A membership test for a label sequence: an implicit alphabet is its own,
    any other sequence gets a frozenset."""
    return labels if isinstance(labels, SignVectors) else frozenset(labels)


def label_index(labels) -> Callable:
    """label -> position in the sequence: arithmetic for an implicit alphabet, a
    dict lookup otherwise."""
    if isinstance(labels, SignVectors):
        return labels.index
    return {label: k for k, label in enumerate(labels)}.__getitem__


def label_to_json(label):
    if isinstance(label, tuple):
        return [label_to_json(part) for part in label]
    if isinstance(label, (int, str)):
        return label
    raise ValidationError(f"label {label!r} is not JSON-serializable (int, str or tuple expected)")


def _tuples_as_lists(value):
    if isinstance(value, tuple):
        return [_tuples_as_lists(v) for v in value]
    return value


class Report:
    """Base of the check reports, each a frozen dataclass.  as_dict() is the JSON form:
    the fields in declaration order, tuples as lists, then the verdict properties named in
    verdicts.  A field named in label_fields holds a tuple of labels or None; label_to_json
    writes its labels and refuses one JSON cannot hold."""

    verdicts: ClassVar[tuple] = ()
    label_fields: ClassVar[tuple] = ()

    def as_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in self.label_fields and value is not None:
                out[f.name] = label_to_json(value)
            else:
                out[f.name] = _tuples_as_lists(value)
        out.update((name, getattr(self, name)) for name in self.verdicts)
        return out


class ToleranceReport(Report):
    """A report that passes when its max_residual is at most its tol.  require(what)
    raises VerificationError otherwise, with the class's refusal text formatted
    with what and the report as self."""

    verdicts = ("passes",)
    refusal: ClassVar[str]

    @property
    def passes(self) -> bool:
        return self.max_residual <= self.tol

    def require(self, what: str) -> None:
        """Raise VerificationError, naming what was checked, unless the report passes."""
        if not self.passes:
            raise VerificationError(self.refusal.format(what=what, self=self))


def label_from_json(data):
    if isinstance(data, list):
        return tuple(label_from_json(part) for part in data)
    if isinstance(data, bool) or not isinstance(data, (int, str)):
        raise ValidationError(f"malformed label {data!r}")
    return data


def labels_from_json(data, what: str, item: Callable = label_from_json) -> tuple:
    """A JSON list of labels (each parsed by item) as a tuple.  Any other JSON value
    is refused, never iterated: a string would give its characters, an object its keys."""
    if not isinstance(data, list):
        raise ValidationError(f"{what} must be a JSON list, got {data!r}")
    return tuple(item(x) for x in data)


def outputs_to_json(outputs):
    """The JSON form of an output alphabet: {"sign_vectors": n} for SignVectors(n),
    the list of labels otherwise."""
    if isinstance(outputs, SignVectors):
        return {"sign_vectors": outputs.n}
    return [label_to_json(a) for a in outputs]


def outputs_from_json(data):
    """Inverse of outputs_to_json.  A list that is exactly the full enumeration of
    {-1, +1}^n, in order, loads as SignVectors(n); any other list as a tuple."""
    if isinstance(data, dict):
        if set(data) != {"sign_vectors"}:
            raise ValidationError(
                f'output alphabet object must be {{"sign_vectors": n}}, got keys {sorted(data)}'
            )
        return SignVectors(int_from_json(data["sign_vectors"], "sign_vectors"))
    if not isinstance(data, list):
        raise ValidationError(f'outputs must be a list or {{"sign_vectors": n}}, got {data!r}')
    labels = tuple(label_from_json(a) for a in data)
    n = len(labels).bit_length() - 1
    if (
        labels
        and len(labels) == 1 << n
        and all(map(operator.eq, labels, iter_product((-1, 1), repeat=n)))
    ):
        return SignVectors(n)
    return labels


def int_from_json(data, what: str) -> int:
    """An integer field of a JSON input: floats, strings and booleans are refused, never coerced."""
    if isinstance(data, bool) or not isinstance(data, int):
        raise ValidationError(f"{what} must be an integer, got {data!r}")
    return data


def complex_from_json(data, what: str) -> complex:
    """A [re, im] pair of JSON numbers as a complex: booleans, strings and anything but
    a two-item list are refused, never coerced.  An integer beyond float range raises
    OverflowError, which the callers report as malformed input."""
    if (
        not isinstance(data, list)
        or len(data) != 2
        or any(isinstance(p, bool) or not isinstance(p, (int, float)) for p in data)
    ):
        raise ValidationError(f"{what} must be a [re, im] pair of numbers, got {data!r}")
    return complex(data[0], data[1])
