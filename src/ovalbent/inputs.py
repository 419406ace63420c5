"""Bad input (`DomainError`, exit 2 at the CLI, raised by every domain
check that command-line input can reach) and the rules for input text:
the digit rule and the JSON reader.  Imports nothing from the package."""

from __future__ import annotations

import json
from collections.abc import Iterable

import numpy as np


class DomainError(ValueError):
    """Input outside the stated domain of a command: bad input."""


def _plain(text: str) -> bool:
    """The digit rule of table lines: ASCII digits and spaces only, so no
    sign, letter, point, comma, other whitespace or non-ASCII digit
    reaches a parser.  One C pass deletes the digits and spaces and must
    leave nothing."""
    return text.isascii() and not text.encode().translate(None, b"0123456789 ")


def plain_ints(text: str, message: str) -> np.ndarray:
    """The int64 entries of text, space-separated plain decimal digits
    (`_plain`), parsed in one C pass, else DomainError(message).  An entry
    past int64 reads as the int64 maximum, which every range check fails."""
    if not _plain(text):
        raise DomainError(message)
    return np.fromstring(text, dtype=np.int64, sep=" ")


def plain_int(text: str) -> int:
    """The integer of a plain decimal text: ASCII digits after at most one
    minus sign (the digit rule of `_plain`), so that a domain check names
    a negative value; int() alone also reads +3, 1_1, ' 1', other digits."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise DomainError(f"{text!r} is not a plain integer: ASCII digits "
                          f"with at most a leading minus sign")
    try:
        return int(text)
    except ValueError:                  # past int()'s digit limit
        raise DomainError(f"an integer of {len(digits)} digits is past "
                          f"every value the input rules read") from None


def _is_json(v, types) -> bool:
    """v is a JSON value of `types`; true and false are not integers."""
    return isinstance(v, types) and not isinstance(v, bool)


def check_range(values: Iterable[int], hi: int, what: str) -> None:
    """Reject any value that is not an integer in [0, hi)."""
    for v in values:
        if not _is_json(v, int) or not 0 <= v < hi:
            raise DomainError(f"{what} {v} out of range [0, {hi})")


def check_distinct(values: Iterable, what: str) -> None:
    seen = set()
    for v in values:
        if v in seen:
            raise DomainError(f"{what} {v} appears twice")
        seen.add(v)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    check_distinct((key for key, _ in pairs), "key")
    return dict(pairs)


def loads_json(text: str):
    """The JSON reader of every input document: `json.loads`, except that
    a repeated key (a dict would keep the last value), an integer off
    `plain_int`, no JSON and nesting too deep are each a DomainError."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys,
                          parse_int=plain_int)
    except (json.JSONDecodeError, RecursionError) as e:
        raise DomainError(str(e)) from None


def json_document(text: str, name: str, fields: dict,
                  kind: str | None = None) -> dict:
    """The JSON object in `text`, called `name` in the errors, of the given
    kind when `kind` is set and with no key outside `fields`.  Each field
    maps to None (any value) or to (types, message): its value, None when
    absent, must be of `types`, or DomainError(message) is raised with
    {key} and {value} filled in."""
    d = loads_json(text)
    if not isinstance(d, dict) or (kind and d.get("kind") != kind):
        raise DomainError(f"not a JSON object of kind {kind!r}" if kind
                          else f"{name} must be a JSON object")
    extra = sorted(set(d) - set(fields))
    if extra:
        raise DomainError(f"unknown keys in {name}: {extra}")
    for key, rule in fields.items():
        if rule is not None and not _is_json(d.get(key), rule[0]):
            raise DomainError(rule[1].format(key=key, value=d.get(key)))
    return d
