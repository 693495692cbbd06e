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

_NEEDS_ESCAPE = re.compile(r'[\x00-\x1f"\\]')
_ESCAPES = {c: f"\\u{c:04x}" for c in range(0x20)} | {ord('"'): '\\"', ord("\\"): "\\\\"}


def _escape(text: str) -> str:
    if _NEEDS_ESCAPE.search(text) is None:
        return text
    return text.translate(_ESCAPES)


def _write(value: Any, out: list[str]) -> None:
    # Strings, objects and arrays come first: they are most of every document.
    if isinstance(value, str):
        out.append(f'"{_escape(value)}"')
    elif isinstance(value, dict):
        out.append("{")
        for i, key in enumerate(sorted(value)):
            if not isinstance(key, str):
                raise NonCanonicalizable(f"object key {key!r} is not a string")
            out.append(f'{"," if i else ""}"{_escape(key)}":')
            _write(value[key], out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(",")
            _write(item, out)
        out.append("]")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        raise NonCanonicalizable(
            f"float {value!r} is not canonicalizable; encode reals as decimal strings"
        )
    else:
        raise NonCanonicalizable(f"type {type(value).__name__} is not canonicalizable")


def canonicalize(value: Any) -> bytes:
    """Encode ``value`` as canonical JSON bytes (UTF-8)."""
    out: list[str] = []
    _write(value, out)
    try:
        return "".join(out).encode("utf-8")
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
