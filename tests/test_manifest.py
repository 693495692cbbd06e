"""Manifest and capability-token parsing."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import skillproof
from skillproof.errors import (
    MalformedManifest,
    MalformedPattern,
    MissingManifest,
    UnknownKind,
)
from skillproof.lattice import HostGlob, Opaque, PathPrefix
from skillproof.manifest import (
    CapabilityToken,
    Label,
    Manifest,
    arg_domain,
    capability_kinds,
    declared_kinds,
    manifest_to_json_dict,
    parse_capability_token,
    parse_manifest,
    token_text,
)
from tests.conftest import WORKED_MANIFEST, write_worked_skill


# ---------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------


def test_parse_host_token():
    token = parse_capability_token("net.egress(*.example.com)")
    assert token.kind == "net.egress"
    assert token.arg_pattern == HostGlob("*.example.com")


def test_parse_bare_token_defaults_to_top():
    token = parse_capability_token("pay")
    assert token == CapabilityToken("pay")


def test_parse_path_token():
    token = parse_capability_token("fs.read(./.cache/)")
    assert token.arg_pattern == PathPrefix("./.cache/")


def test_parse_opaque_token():
    token = parse_capability_token("tool.invoke(summarise)")
    assert token.arg_pattern == Opaque("summarise")


def test_kind_value_lifts_into_the_kind_domain():
    assert arg_domain("net.egress").lift("*.example.com") == HostGlob("*.example.com")
    assert arg_domain("fs.write.rev").lift("./a/../b/") == PathPrefix("./b/")
    assert arg_domain("pay").lift("./a/../b/") == Opaque("./a/../b/")
    with pytest.raises(MalformedPattern):
        arg_domain("net.egress").lift("bad host")
    with pytest.raises(UnknownKind):
        arg_domain("net.ingress").lift("example.com")


def test_unknown_kind_rejected():
    with pytest.raises(UnknownKind):
        parse_capability_token("net.ingress")
    with pytest.raises(UnknownKind):
        parse_capability_token("frobnicate(x)")


def test_malformed_tokens_rejected():
    for bad in ["net.egress(", "net.egress)", "pay()", "pay( )", "", "a b", "fs.read(*)"]:
        with pytest.raises(MalformedManifest):
            parse_capability_token(bad)


@settings(deadline=None)
@given(st.text(alphabet="abcdefghij._", min_size=1, max_size=12))
def test_random_tokens_never_silently_pass(text):
    # anything outside the vocabulary must raise, never parse
    try:
        token = parse_capability_token(text)
    except MalformedManifest:
        return
    assert token.kind in capability_kinds()


@settings(deadline=None)
@given(
    st.lists(
        st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=6),
        min_size=1,
        max_size=3,
    )
)
def test_well_formed_unknown_kinds_raise_unknown_kind(segments):
    kind = ".".join(segments)
    if kind in capability_kinds():
        return
    with pytest.raises(UnknownKind):
        parse_capability_token(kind)
    with pytest.raises(UnknownKind):
        parse_capability_token(f"{kind}(arg)")


token_texts = st.sampled_from(
    [
        "net.egress(*.example.com)",
        "net.egress(api.example.com)",
        "net.egress",
        "fs.read(./.cache/)",
        "fs.write.rev(./.cache/)",
        "fs.write.irrev(./out/)",
        "fs.read",
        "tool.invoke(summarise)",
        "spawn.proc",
        "pay",
        "mutate.schema",
    ]
)


@settings(deadline=None)
@given(token_texts)
def test_token_round_trip(text):
    token = parse_capability_token(text)
    assert parse_capability_token(token_text(token)) == token


# ---------------------------------------------------------------------------
# skill.json parsing
# ---------------------------------------------------------------------------


def test_parse_worked_example_manifest(worked_skill: Path):
    m = parse_manifest(worked_skill)
    assert m.id == "summarise-fetched-html"
    assert m.verification == "tested"
    assert m.version == 7
    assert m.signer == "operator-root-2026"
    assert {token_text(t) for t in m.caps} == {
        "net.egress(*.example.com)",
        "fs.read(./.cache/)",
    }
    assert declared_kinds(m) == ("fs.read", "net.egress")


def test_duplicate_caps_rejected(tmp_path: Path):
    doc = dict(WORKED_MANIFEST, caps=["pay", "pay"])
    (tmp_path / "skill.json").write_text(json.dumps(doc))
    with pytest.raises(MalformedManifest, match="duplicate"):
        parse_manifest(tmp_path)


def test_duplicate_caps_by_canonical_form_rejected(tmp_path: Path):
    doc = dict(WORKED_MANIFEST, caps=["fs.read(./.cache/)", "fs.read(.cache/)"])
    (tmp_path / "skill.json").write_text(json.dumps(doc))
    with pytest.raises(MalformedManifest, match="duplicate"):
        parse_manifest(tmp_path)


def test_missing_manifest(tmp_path: Path):
    with pytest.raises(MissingManifest):
        parse_manifest(tmp_path)


def test_missing_field_rejected(tmp_path: Path):
    doc = dict(WORKED_MANIFEST)
    del doc["signer"]
    (tmp_path / "skill.json").write_text(json.dumps(doc))
    with pytest.raises(MalformedManifest):
        parse_manifest(tmp_path)


def test_unexpected_field_rejected(tmp_path: Path):
    doc = dict(WORKED_MANIFEST, extra=1)
    (tmp_path / "skill.json").write_text(json.dumps(doc))
    with pytest.raises(MalformedManifest):
        parse_manifest(tmp_path)


def test_bad_json_rejected(tmp_path: Path):
    (tmp_path / "skill.json").write_text("{nope")
    with pytest.raises(MalformedManifest):
        parse_manifest(tmp_path)


def test_unknown_cap_in_manifest_rejected(tmp_path: Path):
    doc = dict(WORKED_MANIFEST, caps=["telepathy"])
    (tmp_path / "skill.json").write_text(json.dumps(doc))
    with pytest.raises(MalformedManifest):
        parse_manifest(tmp_path)


def test_negative_version_rejected(tmp_path: Path):
    doc = dict(WORKED_MANIFEST, version=-1)
    (tmp_path / "skill.json").write_text(json.dumps(doc))
    with pytest.raises(MalformedManifest):
        parse_manifest(tmp_path)


# ---------------------------------------------------------------------------
# SKILL.md front-matter
# ---------------------------------------------------------------------------


def test_skill_md_empty_caps(tmp_path: Path):
    (tmp_path / "SKILL.md").write_text("---\nname: demo\ncaps: []\n---\nprose\n")
    m = parse_manifest(tmp_path)
    assert m.caps == ()
    assert m.id == tmp_path.name
    assert m.verification == "unverified"


def test_skill_md_caps_list(tmp_path: Path):
    (tmp_path / "SKILL.md").write_text(
        "---\ncaps:\n  - pay\n  - fs.read(./data/)\n---\nbody\n"
    )
    m = parse_manifest(tmp_path)
    assert {token_text(t) for t in m.caps} == {"pay", "fs.read(./data/)"}


def test_skill_md_without_front_matter_rejected(tmp_path: Path):
    (tmp_path / "SKILL.md").write_text("# just prose\n")
    with pytest.raises(MalformedManifest):
        parse_manifest(tmp_path)


def test_skill_json_precedence(tmp_path: Path):
    write_worked_skill(tmp_path)
    (tmp_path / "SKILL.md").write_text("---\ncaps: [pay]\n---\n")
    m = parse_manifest(tmp_path)
    assert "pay" not in {t.kind for t in m.caps}
    assert m.id == "summarise-fetched-html"


def test_yaml_is_imported_only_for_skill_md(tmp_path: Path):
    json_skill = write_worked_skill(tmp_path / "json")
    md_skill = tmp_path / "md"
    md_skill.mkdir()
    (md_skill / "SKILL.md").write_text("---\ncaps: [pay]\n---\n")
    code = (
        "import sys, skillproof.cli\n"
        "from skillproof.manifest import parse_manifest\n"
        "parse_manifest(sys.argv[1])\n"
        "print('yaml' in sys.modules)\n"
        "parse_manifest(sys.argv[2])\n"
        "print('yaml' in sys.modules)\n"
    )
    src = str(Path(skillproof.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code, str(json_skill), str(md_skill)],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    assert out.split() == ["False", "True"]


# ---------------------------------------------------------------------------
# Round trip
# ---------------------------------------------------------------------------


@settings(deadline=None)
@given(
    st.sampled_from(["skill-a", "tool.b", "x"]),
    st.lists(token_texts, max_size=4),
    st.sampled_from(["unverified", "declared", "tested", "formal"]),
    st.integers(0, 100),
)
def test_manifest_round_trip(tmp_path_factory, skill_id, caps, verification, version):
    tokens = sorted(
        {token_text(parse_capability_token(c)): parse_capability_token(c) for c in caps}.values(),
        key=token_text,
    )
    m = Manifest(
        id=skill_id,
        label=Label("secret", ("alpha",), ("beta",)),
        caps=tuple(tokens),
        verification=verification,
        version=version,
        signer="signer-1",
    )
    target = tmp_path_factory.mktemp("roundtrip")
    (target / "skill.json").write_text(json.dumps(manifest_to_json_dict(m)))
    assert parse_manifest(target) == m
