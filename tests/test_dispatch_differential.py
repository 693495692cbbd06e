"""Differential test of runtime admission against an independent reference.

The reference spells out the earlier form of the admission decision: a table
from kind to domain name, one from domain name to envelope key and one to
value class, ``None`` for an absent or malformed argument, and a covering
loop that tests for ``None`` and Top separately. The earlier decision
differs from ``dispatch`` in one intended place: its host labels ended in
``$``, which also matches before a final newline, so it lifted hosts such as
``evil.org\\n.example.com``. The reference does so only with
``newline_hosts=True``; by default it treats them as malformed, as
``dispatch`` does.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillproof.dispatch import Admit, Envelope, RefinementRejection, build_refined_dispatch, dispatch
from skillproof.errors import MalformedPattern
from skillproof.lattice import HostGlob, Opaque, PathPrefix, Top, value_leq
from skillproof.manifest import Manifest, capability_kinds, parse_capability_token, token_text

# ---------------------------------------------------------------------------
# The reference decision
# ---------------------------------------------------------------------------

_REF_DOMAINS = {
    "net.egress": "host",
    "fs.read": "path",
    "fs.write.rev": "path",
    "fs.write.irrev": "path",
    "tool.invoke": "opaque",
    "spawn.proc": "opaque",
    "pay": "opaque",
    "mutate.schema": "opaque",
}
_REF_ARG_KEYS = {"host": "host", "path": "path", "opaque": "target"}
_REF_LABEL_RE = re.compile(r"^[A-Za-z0-9_]([A-Za-z0-9_-]*[A-Za-z0-9_])?$")


def _ref_host(text: str, newline_hosts: bool) -> HostGlob:
    body = text[2:] if text.startswith("*.") else text
    if not body or "*" in body or (not newline_hosts and "\n" in text):
        raise MalformedPattern(text)
    if not all(label and _REF_LABEL_RE.match(label) for label in body.split(".")):
        raise MalformedPattern(text)
    host = object.__new__(HostGlob)  # HostGlob itself no longer admits a newline
    object.__setattr__(host, "pattern", text)
    return host


def reference_decision(declared, envelope: Envelope, newline_hosts: bool = False) -> str | None:
    """The admitting token's text, or None for a rejection. With
    ``newline_hosts`` the reference lifts hosts that end a label in a
    newline, as the earlier label check did."""
    domain = _REF_DOMAINS[envelope.op]
    raw = envelope.args.get(_REF_ARG_KEYS[domain])
    lift = {
        "host": lambda text: _ref_host(text, newline_hosts),
        "path": PathPrefix,
        "opaque": Opaque,
    }[domain]
    try:
        value = None if raw is None else lift(raw)
    except MalformedPattern:
        value = None
    for token in declared:
        if token.kind != envelope.op:
            continue
        pattern = token.arg_pattern
        if pattern is None or isinstance(pattern, Top):
            return token_text(token)
        if value is not None and value_leq(value, pattern):
            return token_text(token)
    return None


def decision(declared, envelope: Envelope) -> str | None:
    result = dispatch(build_refined_dispatch(Manifest(id="m", caps=tuple(declared))), envelope)
    if isinstance(result, Admit):
        assert result.op == envelope.op
        return result.token
    assert isinstance(result, RefinementRejection) and result.op == envelope.op
    return None


def test_reference_vocabulary_is_the_live_one():
    assert tuple(_REF_DOMAINS) == capability_kinds()


# ---------------------------------------------------------------------------
# Fixed cases: each kills one mutant of the admission decision
# ---------------------------------------------------------------------------

_FIXED = [
    # a covering_token that ignores the pattern admits these
    (["net.egress(*.example.com)"], Envelope("net.egress", {"host": "evil.org"}), None),
    (["fs.read(./.cache/)"], Envelope("fs.read", {"path": "./.cache/../../etc/x"}), None),
    (["pay(shop)"], Envelope("pay", {"target": "other"}), None),
    # counting an absent argument as covered by a patterned token admits these
    (["net.egress(*.example.com)"], Envelope("net.egress"), None),
    (["fs.write.rev(./.cache/)"], Envelope("fs.write.rev", {"target": "./.cache/x"}), None),
    (["tool.invoke(summarise)"], Envelope("tool.invoke", {}), None),
    # swapping the envelope key of any two domains rejects one of these
    (["net.egress(*.example.com)"], Envelope("net.egress", {"host": "api.example.com"}),
     "net.egress(*.example.com)"),
    (["fs.read(./.cache/)"], Envelope("fs.read", {"path": "./.cache/x"}), "fs.read(./.cache/)"),
    (["pay(shop)"], Envelope("pay", {"target": "shop"}), "pay(shop)"),
    # a bare token covers the absent, the malformed and the newline argument
    (["net.egress"], Envelope("net.egress", {"host": "bad host"}), "net.egress"),
    (["fs.read(./a/)", "fs.read"], Envelope("fs.read"), "fs.read"),
    (["net.egress(*.example.com)", "net.egress"],
     Envelope("net.egress", {"host": "evil.org\n.example.com"}), "net.egress"),
    # a newline host is malformed, so a pattern no longer covers it
    (["net.egress(*.example.com)"], Envelope("net.egress", {"host": "evil.org\n.example.com"}),
     None),
]


@pytest.mark.parametrize("caps, envelope, expected", _FIXED)
def test_fixed_admission_cases(caps, envelope, expected):
    declared = [parse_capability_token(c) for c in caps]
    assert decision(declared, envelope) == expected
    assert reference_decision(declared, envelope) == expected


def test_reference_admitted_a_newline_host():
    declared = [parse_capability_token("net.egress(*.example.com)")]
    envelope = Envelope("net.egress", {"host": "evil.org\n.example.com"})
    assert reference_decision(declared, envelope, newline_hosts=True) == "net.egress(*.example.com)"
    assert decision(declared, envelope) is None


# ---------------------------------------------------------------------------
# The differential property
# ---------------------------------------------------------------------------

_PATTERNS = {
    "host": ["*.example.com", "api.example.com", "example.com"],
    "path": ["./.cache/", "./a/b", "/etc/"],
    "opaque": ["summarise", "shop"],
}
_TOKEN_TEXTS = sorted(
    set(_REF_DOMAINS)
    | {f"{kind}({p})" for kind, domain in _REF_DOMAINS.items() for p in _PATTERNS[domain]}
)
_VALUES = [
    # do not lift into some domain
    "bad host", "", "./a/*",
    # in or out of some pattern
    "api.example.com", "x.api.example.com", "example.com", "example.com.evil.org",
    "xexample.com", "evil.org", "./.cache/x", "./.cachex", "./.cache/../../etc/x",
    "./a/b", "./a/b/c", "/etc/passwd", "summarise", "shop", "other",
    # hosts with a newline
    "evil.org\n.example.com", "api.example.com\n", "x\n.example.com", "a.com\n\n",
]
_KEYS = ["host", "path", "target", "other"]


@st.composite
def envelopes(draw) -> Envelope:
    op = draw(st.sampled_from(sorted(_REF_DOMAINS)))
    right = _REF_ARG_KEYS[_REF_DOMAINS[op]]
    wrong = draw(st.sampled_from([k for k in _KEYS if k != right]))
    keys = draw(st.sampled_from([(), (right,), (wrong,), (right, wrong)]))
    return Envelope(op, {key: draw(st.sampled_from(_VALUES)) for key in keys})


@settings(deadline=None, max_examples=400)
@given(st.lists(st.sampled_from(_TOKEN_TEXTS), unique=True, max_size=6), envelopes())
def test_admission_matches_the_reference(caps, envelope):
    declared = [parse_capability_token(c) for c in caps]
    got = decision(declared, envelope)
    assert got == reference_decision(declared, envelope)
    if "\n" not in envelope.args.get("host", ""):
        assert got == reference_decision(declared, envelope, newline_hosts=True)
