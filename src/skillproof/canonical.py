"""Canonical JSON encoding and content hashing.

Every hash in the system is SHA-256 over these bytes, so the encoding is
deliberately stricter than round-trippable JSON:

- object keys sorted ascending by Unicode code point,
- no insignificant whitespace,
- integers in minimal base-10 form,
- no floating-point values (callers encode reals as decimal strings),
- strings minimally escaped: only ``"``, ``\\`` and control characters,
  the latter as lowercase ``\\u00xx``,
- containers nested at most ``MAX_DEPTH`` deep.

:func:`canonical_loads` is the one reader of JSON from outside the program:
it returns exactly the values that :func:`canonicalize` can write.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Any, NoReturn

from .errors import NonCanonicalizable

# A fixed bound, so that whether a document is accepted does not depend on
# how deep the caller's stack already is, and another checker can apply it.
MAX_DEPTH = 64


def _check(value: Any, depth: int = 0) -> None:
    """Raise for anything the canonical form forbids. ``json`` itself would
    write floats, and would turn ``1``/``None``/``True`` keys into strings.
    ``depth`` counts the containers around ``value``."""
    if isinstance(value, dict):
        if depth == MAX_DEPTH:
            raise NonCanonicalizable(f"containers nested more than {MAX_DEPTH} deep")
        for key, item in value.items():
            if not isinstance(key, str):
                raise NonCanonicalizable(f"object key {key!r} is not a string")
            _check(item, depth + 1)
    elif isinstance(value, (list, tuple)):
        if depth == MAX_DEPTH:
            raise NonCanonicalizable(f"containers nested more than {MAX_DEPTH} deep")
        for item in value:
            _check(item, depth + 1)
    elif isinstance(value, float):
        raise NonCanonicalizable(
            f"float {value!r} is not canonicalizable; encode reals as decimal strings"
        )
    elif not (value is None or isinstance(value, (str, int))):
        raise NonCanonicalizable(f"type {type(value).__name__} is not canonicalizable")


_ENCODE = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"), sort_keys=True).encode

# ``json`` writes five control characters in short form; the canonical bytes
# spell every control character as ``\u00xx``. Each backslash that ``json``
# writes opens a two-character pair, so reading pairs from left to right
# never starts inside an escape: ``\\n`` is the pair ``\\`` and then ``n``.
_ESCAPE_PAIR = re.compile(r"\\(.)")
_SHORT_FORM = {"b": "\\u0008", "t": "\\u0009", "n": "\\u000a", "f": "\\u000c", "r": "\\u000d"}


def _long_form(pair: re.Match[str]) -> str:
    return _SHORT_FORM.get(pair.group(1), pair.group())


def canonicalize(value: Any) -> bytes:
    """Encode ``value`` as canonical JSON bytes (UTF-8)."""
    _check(value)
    try:
        text = _ENCODE(value)
    except ValueError as exc:  # an integer beyond the interpreter's digit limit
        raise NonCanonicalizable(f"integer is not canonicalizable: {exc}") from exc
    if "\\" in text:
        text = _ESCAPE_PAIR.sub(_long_form, text)
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise NonCanonicalizable(f"string is not valid UTF-8: {exc}") from exc


def document_hash(value: Any) -> str:
    """SHA-256 of the canonical encoding, lowercase hex."""
    return hashlib.sha256(canonicalize(value)).hexdigest()


def hash_bytes(data: bytes) -> str:
    """SHA-256 of raw bytes, lowercase hex."""
    return hashlib.sha256(data).hexdigest()


def _reject_number(text: str) -> NoReturn:
    raise NonCanonicalizable(f"number {text} is not canonicalizable; encode reals as strings")


def _object(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    # ``json`` keeps the last of two equal keys, another reader may keep
    # the first: a signed document must not read two ways
    doc = dict(pairs)
    if len(doc) != len(pairs):
        raise NonCanonicalizable("object has a duplicate key")
    return doc


def canonical_loads(data: bytes) -> Any:
    """Parse JSON bytes from outside the program. Returns a value that
    :func:`canonicalize` can write, and raises NonCanonicalizable for
    anything else: bytes that are not UTF-8 or not JSON, duplicate keys,
    floats, ``NaN`` and infinities, lone surrogates, integers beyond the
    interpreter's digit limit, and nesting deeper than ``MAX_DEPTH``."""
    try:
        value = json.loads(
            data.decode("utf-8"),
            object_pairs_hook=_object,
            parse_float=_reject_number,
            parse_constant=_reject_number,
        )
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise NonCanonicalizable(f"not a strict JSON document: {exc}") from exc
    canonicalize(value)
    return value
