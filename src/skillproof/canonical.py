"""Canonical JSON encoding and content hashing.

Every hash in the system is SHA-256 over these bytes, so the encoding is
deliberately stricter than round-trippable JSON:

- object keys sorted ascending by Unicode code point,
- no insignificant whitespace,
- integers in minimal base-10 form,
- no floating-point values (callers encode reals as decimal strings),
- strings minimally escaped: only ``"``, ``\\`` and control characters,
  the latter as lowercase ``\\u00xx``.
"""

from __future__ import annotations

import hashlib
import json
import re
from typing import Any

from .errors import NonCanonicalizable


def _check(value: Any) -> None:
    """Raise for anything the canonical form forbids. ``json`` itself would
    write floats, and would turn ``1``/``None``/``True`` keys into strings."""
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise NonCanonicalizable(f"object key {key!r} is not a string")
            _check(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _check(item)
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
    text = _ENCODE(value)
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


def _reject_float(text: str) -> None:
    raise NonCanonicalizable(f"canonical document contains a float literal: {text}")


def canonical_loads(data: bytes) -> Any:
    """Parse bytes produced by :func:`canonicalize` (floats rejected)."""
    return json.loads(data.decode("utf-8"), parse_float=_reject_float)
