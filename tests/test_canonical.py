"""Canonical JSON encoding: byte-level contract and idempotence."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillproof.canonical import canonical_loads, canonicalize, document_hash
from skillproof.errors import NonCanonicalizable


def test_key_sort():
    assert canonicalize({"b": 1, "a": 2}) == b'{"a":2,"b":1}'


def test_empty_object():
    assert canonicalize({}) == b"{}"


def test_no_insignificant_whitespace():
    assert canonicalize({"a": [1, 2, {"b": None}]}) == b'{"a":[1,2,{"b":null}]}'


def test_control_chars_escape_as_lowercase_u00xx():
    assert canonicalize("\n\t\x00") == b'"\\u000a\\u0009\\u0000"'


def test_quote_and_backslash_escape():
    assert canonicalize('a"b\\c') == b'"a\\"b\\\\c"'


def test_non_ascii_emitted_raw_utf8():
    assert canonicalize("héllo") == '"héllo"'.encode("utf-8")


def test_booleans_and_null():
    assert canonicalize([True, False, None]) == b"[true,false,null]"


def test_integers_minimal_form():
    assert canonicalize([0, -7, 12345678901234567890]) == b"[0,-7,12345678901234567890]"


def test_float_rejected():
    with pytest.raises(NonCanonicalizable):
        canonicalize({"x": 1.5})


def test_non_string_key_rejected():
    with pytest.raises(NonCanonicalizable):
        canonicalize({1: "x"})


def test_unsupported_type_rejected():
    with pytest.raises(NonCanonicalizable):
        canonicalize({"x": object()})


def test_surrogate_rejected():
    with pytest.raises(NonCanonicalizable):
        canonicalize("\ud800")


json_docs = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@settings(deadline=None)
@given(json_docs)
def test_idempotence(doc):
    once = canonicalize(doc)
    assert canonicalize(canonical_loads(once)) == once


@settings(deadline=None)
@given(json_docs)
def test_agrees_with_stdlib_on_tame_documents(doc):
    # Independent cross-check: for documents without control characters the
    # encoding must coincide with compact sorted-key json.dumps output.
    def tame(x) -> bool:
        if isinstance(x, str):
            return not any(ord(c) < 0x20 for c in x)
        if isinstance(x, list):
            return all(tame(i) for i in x)
        if isinstance(x, dict):
            return all(tame(k) and tame(v) for k, v in x.items())
        return True

    if tame(doc):
        independent = json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
        assert canonicalize(doc) == independent.encode("utf-8")


def _escape_char_by_char(text: str) -> str:
    """The encoder's original escaper, kept as the reference."""
    out = []
    for ch in text:
        if ch in ('"', "\\"):
            out.append("\\" + ch)
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return "".join(out)


@settings(deadline=None, max_examples=300)
@given(st.text(st.characters(max_codepoint=0x7F)) | st.text())
def test_escape_agrees_with_char_by_char_reference(text):
    assert canonicalize(text) == ('"' + _escape_char_by_char(text) + '"').encode()


def test_escape_every_control_character():
    text = "".join(chr(c) for c in range(0x80)) + "\ud800é\U0001f600"
    with pytest.raises(NonCanonicalizable):  # a lone surrogate has no UTF-8 form
        canonicalize(text)
    sound = text.replace("\ud800", "")
    assert canonicalize(sound) == ('"' + _escape_char_by_char(sound) + '"').encode()
    assert canonicalize("plain text") == b'"plain text"'


def _reference_write(value, out: list) -> None:
    """The hand-written encoder that ``json``'s encoder replaced, kept as
    the reference for the bytes it must go on producing."""
    if isinstance(value, str):
        out.append('"' + _escape_char_by_char(value) + '"')
    elif isinstance(value, dict):
        out.append("{")
        for i, key in enumerate(sorted(value)):
            if not isinstance(key, str):
                raise NonCanonicalizable(f"object key {key!r} is not a string")
            out.append(("," if i else "") + '"' + _escape_char_by_char(key) + '":')
            _reference_write(value[key], out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(",")
            _reference_write(item, out)
        out.append("]")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(str(value))
    else:  # floats and every other type
        raise NonCanonicalizable(f"type {type(value).__name__} is not canonicalizable")


def _reference_canonicalize(value) -> bytes:
    out: list[str] = []
    _reference_write(value, out)
    try:
        return "".join(out).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise NonCanonicalizable(str(exc)) from exc


_hostile_text = st.text(st.characters(blacklist_categories=()), max_size=10) | st.text(
    st.sampled_from('\x00\x08\t\n\x0b\x0c\r\x1f "\\/bfnrtu\x7fé\ud800\udfff\ue000\U0001f600'),
    max_size=10,
)
_hostile_docs = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | st.floats()
    | _hostile_text,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(_hostile_text | st.integers(-2, 2) | st.none() | st.booleans(), children, max_size=4),
    max_leaves=12,
)


@settings(deadline=None, max_examples=500)
@given(_hostile_docs)
def test_agrees_with_reference_encoder_or_both_raise(doc):
    try:
        expected = _reference_canonicalize(doc)
    except (NonCanonicalizable, TypeError):  # TypeError: sorting mixed key types
        with pytest.raises(NonCanonicalizable):
            canonicalize(doc)
    else:
        assert canonicalize(doc) == expected


def test_mixed_key_types_raise_noncanonicalizable():
    with pytest.raises(NonCanonicalizable):
        canonicalize({1: 0, "a": 0})


def test_canonical_loads_rejects_float_literals():
    with pytest.raises(NonCanonicalizable):
        canonical_loads(b'{"x":1.5}')


@pytest.mark.parametrize(
    "data",
    [
        b'{"x":1e5}',
        b"[NaN]",
        b"[Infinity]",
        b"[-Infinity]",
        b'{"a":1,"a":1}',
        b'{"x":{"b":0,"b":1}}',
        b'"\\ud800"',
        b'{"\\udfff":0}',
        b"[1" + b"0" * 5000 + b"]",
        b"\xff{}",
        b'{"a":',
        b"[" * 65 + b"]" * 65,
        b"[" * 200_000 + b"]" * 200_000,
        b"{}{}",
    ],
    ids=[
        "exponent", "nan", "infinity", "minus-infinity", "duplicate-key",
        "nested-duplicate-key", "lone-surrogate", "lone-surrogate-key", "int-past-digit-limit",
        "not-utf8", "truncated", "past-max-depth", "deep", "two-documents",
    ],
)
def test_canonical_loads_rejects_what_canonicalize_cannot_write(data):
    with pytest.raises(NonCanonicalizable):
        canonical_loads(data)


def _nested_lists(depth: int) -> list:
    value: list = []
    for _ in range(depth - 1):
        value = [value]
    return value


def test_canonical_loads_accepts_any_layout_of_a_canonical_value():
    doc = {"b": [1, -2, 10**30, None, True], "a": {"é": "\u0000"}, "c": _nested_lists(63)}
    assert canonical_loads(json.dumps(doc, indent=3, ensure_ascii=True).encode()) == doc


def test_containers_nest_at_most_64_deep():
    assert canonicalize(_nested_lists(64)) == b"[" * 64 + b"]" * 64
    with pytest.raises(NonCanonicalizable):
        canonicalize(_nested_lists(65))
    with pytest.raises(NonCanonicalizable):
        canonicalize({"x": _nested_lists(64)})


def test_int_past_digit_limit_is_noncanonicalizable():
    with pytest.raises(NonCanonicalizable):
        canonicalize(10**5000)


@settings(deadline=None, max_examples=300)
@given(st.binary(max_size=40) | json_docs.map(lambda d: json.dumps(d).encode()))
def test_canonical_loads_returns_only_what_canonicalize_writes(data):
    try:
        value = canonical_loads(data)
    except NonCanonicalizable:
        return
    assert canonical_loads(canonicalize(value)) == value


def test_document_hash_is_lowercase_hex():
    digest = document_hash({"a": 1})
    assert len(digest) == 64 and digest == digest.lower()
    assert all(c in "0123456789abcdef" for c in digest)


def test_golden_digest_of_demo_manifest():
    # frozen once, cross-checked at freeze time against an independent
    # sorted-key compact json.dumps encoding (both produced this digest)
    from skillproof.manifest import manifest_from_json_doc, manifest_to_json_dict
    from tests.conftest import WORKED_MANIFEST

    canon = manifest_to_json_dict(manifest_from_json_doc(WORKED_MANIFEST))
    assert (
        document_hash(canon)
        == "08dcff6f23cd7d9392f1b5b05482e7034971e24b6987c388c9c3b0fd09135d52"
    )
    independent = json.dumps(canon, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    assert canonicalize(canon) == independent.encode("utf-8")
