"""Skill manifests and the capability vocabulary.

The vocabulary is closed: one read-only table maps each capability kind to
its argument domain, and Method B probes exactly these kinds. A new kind is a
code change, and it yields useful static verdicts only once rule-pack entries
name it; until then the scanner's conservative taint applies.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Any, Callable, Mapping

from .canonical import canonical_loads, canonicalize
from .errors import (
    MalformedManifest,
    MalformedPattern,
    MissingManifest,
    NonCanonicalizable,
    UnknownKind,
)
from .lattice import TOP, AbstractValue, HostGlob, Opaque, PathPrefix, Top, value_text

# ---------------------------------------------------------------------------
# Capability vocabulary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Domain:
    """A kind's argument domain: the abstract value its argument text lifts
    to, the envelope key that carries the argument, and the probe's values
    for a declared token without a pattern and for an undeclared kind."""

    lift: Callable[[str], AbstractValue]
    arg_key: str
    witness: str
    undeclared: str


_HOST = Domain(HostGlob, "host", "witness.invalid", "probe.undeclared.invalid")
_PATH = Domain(PathPrefix, "path", "./witness", "./undeclared")
_OPAQUE = Domain(Opaque, "target", "witness", "undeclared")

# kind token -> argument domain, in probe order
_VOCABULARY: Mapping[str, Domain] = MappingProxyType({
    "net.egress": _HOST,
    "fs.read": _PATH,
    "fs.write.rev": _PATH,
    "fs.write.irrev": _PATH,
    "tool.invoke": _OPAQUE,
    "spawn.proc": _OPAQUE,
    "pay": _OPAQUE,
    "mutate.schema": _OPAQUE,
})

VERIFICATION_LEVELS = ("unverified", "declared", "tested", "formal")


def capability_kinds() -> tuple[str, ...]:
    """The vocabulary, in declaration order."""
    return tuple(_VOCABULARY)


def is_known_kind(kind: str) -> bool:
    return kind in _VOCABULARY


def arg_domain(kind: str) -> Domain:
    try:
        return _VOCABULARY[kind]
    except KeyError:
        raise UnknownKind(f"unknown capability kind {kind!r}") from None


# ---------------------------------------------------------------------------
# Capability tokens
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CapabilityToken:
    """A declared capability: a kind plus an argument pattern. The default
    pattern, Top, admits every value of the kind."""

    kind: str
    arg_pattern: AbstractValue = TOP


def token_text(token: CapabilityToken) -> str:
    if isinstance(token.arg_pattern, Top):
        return token.kind
    return f"{token.kind}({value_text(token.arg_pattern)})"


_TOKEN_RE = re.compile(r"([A-Za-z][\w.]*)(?:\((.+)\))?", re.DOTALL)


def parse_capability_token(text: str) -> CapabilityToken:
    """Parse ``kind`` or ``kind(pattern)``; the pattern's abstract domain is
    determined by the kind (host glob, path prefix, or opaque literal)."""
    text = text.strip()
    token = _TOKEN_RE.fullmatch(text)
    if not token:
        raise MalformedPattern(f"malformed capability token {text!r}")
    kind, arg = token.groups()
    domain = arg_domain(kind)
    if arg is None:
        return CapabilityToken(kind)
    if not arg.strip():
        raise MalformedPattern(f"empty argument in capability token {text!r}")
    return CapabilityToken(kind, domain.lift(arg))


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Label:
    rank: str = "public"
    compartments: tuple[str, ...] = ()
    releasability: tuple[str, ...] = ()


@dataclass
class Manifest:
    id: str
    label: Label = field(default_factory=Label)
    caps: tuple[CapabilityToken, ...] = ()
    verification: str = "unverified"
    version: int = 0
    signer: str = ""


def declared_kinds(manifest: Manifest) -> tuple[str, ...]:
    """The distinct capability kinds in the declared set, sorted."""
    return tuple(sorted({t.kind for t in manifest.caps}))


def manifest_to_json_dict(m: Manifest) -> dict[str, Any]:
    """The skill.json shape; also the canonical form that gets hashed."""
    return {
        "id": m.id,
        "label": {
            "rank": m.label.rank,
            "compartments": list(m.label.compartments),
            "releasability": list(m.label.releasability),
        },
        "caps": [token_text(t) for t in m.caps],
        "verification": m.verification,
        "version": m.version,
        "signer": m.signer,
    }


def _parse_caps(raw: Any, where: str) -> tuple[CapabilityToken, ...]:
    if not isinstance(raw, list) or not all(isinstance(c, str) for c in raw):
        raise MalformedManifest(f"{where}: caps must be a list of strings")
    try:
        canonicalize(raw)  # YAML can spell a lone surrogate, which has no UTF-8 form
    except NonCanonicalizable as exc:
        raise MalformedManifest(f"{where}: caps: {exc}") from exc
    tokens = [parse_capability_token(c) for c in raw]
    seen: dict[str, str] = {}
    for source, token in zip(raw, tokens):
        canon = token_text(token)
        if canon in seen:
            raise MalformedManifest(
                f"{where}: duplicate capability {canon!r} "
                f"(from {seen[canon]!r} and {source!r})"
            )
        seen[canon] = source
    return tuple(sorted(tokens, key=token_text))


def _string_list(raw: Any, what: str, where: str) -> tuple[str, ...]:
    if not isinstance(raw, list) or not all(isinstance(x, str) for x in raw):
        raise MalformedManifest(f"{where}: {what} must be a list of strings")
    return tuple(raw)


_MANIFEST_FIELDS = {"id", "label", "caps", "verification", "version", "signer"}
_LABEL_FIELDS = {"rank", "compartments", "releasability"}


def manifest_from_json_doc(doc: Any, where: str = "skill.json") -> Manifest:
    if not isinstance(doc, dict):
        raise MalformedManifest(f"{where}: manifest must be a JSON object")
    extra = set(doc) - _MANIFEST_FIELDS
    missing = _MANIFEST_FIELDS - set(doc)
    if extra or missing:
        raise MalformedManifest(
            f"{where}: manifest fields mismatch "
            f"(missing {sorted(missing)}, unexpected {sorted(extra)})"
        )
    if not isinstance(doc["id"], str) or not doc["id"]:
        raise MalformedManifest(f"{where}: id must be a non-empty string")
    label_doc = doc["label"]
    if not isinstance(label_doc, dict) or set(label_doc) != _LABEL_FIELDS:
        raise MalformedManifest(f"{where}: label must carry exactly {sorted(_LABEL_FIELDS)}")
    if not isinstance(label_doc["rank"], str):
        raise MalformedManifest(f"{where}: label.rank must be a string")
    label = Label(
        rank=label_doc["rank"],
        compartments=_string_list(label_doc["compartments"], "label.compartments", where),
        releasability=_string_list(label_doc["releasability"], "label.releasability", where),
    )
    verification = doc["verification"]
    if verification not in VERIFICATION_LEVELS:
        raise MalformedManifest(f"{where}: unknown verification level {verification!r}")
    version = doc["version"]
    if isinstance(version, bool) or not isinstance(version, int) or version < 0:
        raise MalformedManifest(f"{where}: version must be a non-negative integer")
    if not isinstance(doc["signer"], str):
        raise MalformedManifest(f"{where}: signer must be a string")
    return Manifest(
        id=doc["id"],
        label=label,
        caps=_parse_caps(doc["caps"], where),
        verification=verification,
        version=version,
        signer=doc["signer"],
    )


def _manifest_from_skill_md(text: str, skill_id: str, where: str) -> Manifest:
    import yaml  # only SKILL.md front-matter needs it

    lines = text.splitlines()
    if not lines or lines[0].strip() != "---":
        raise MalformedManifest(f"{where}: SKILL.md lacks YAML front-matter")
    try:
        end = next(i for i in range(1, len(lines)) if lines[i].strip() == "---")
    except StopIteration:
        raise MalformedManifest(f"{where}: unterminated YAML front-matter") from None
    try:
        front = yaml.safe_load("\n".join(lines[1:end])) or {}
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        # ValueError: a scalar that resolves to an impossible date, or to an
        # integer beyond the interpreter's digit limit
        raise MalformedManifest(f"{where}: bad YAML front-matter: {exc}") from exc
    if not isinstance(front, dict):
        raise MalformedManifest(f"{where}: front-matter must be a mapping")
    # Only the caps: list is read from SKILL.md; everything else defaults.
    caps = _parse_caps(front.get("caps", []), where)
    return Manifest(id=skill_id, caps=caps)


def parse_manifest(source_dir: Path | str) -> Manifest:
    """Resolve the manifest from ``skill.json`` or SKILL.md front-matter;
    skill.json takes precedence when both exist."""
    source_dir = Path(source_dir)
    skill_json = source_dir / "skill.json"
    skill_md = source_dir / "SKILL.md"
    if skill_json.is_file():
        try:
            doc = canonical_loads(skill_json.read_bytes())
        except NonCanonicalizable as exc:
            raise MalformedManifest(f"{skill_json}: bad JSON: {exc}") from exc
        return manifest_from_json_doc(doc, where=str(skill_json))
    if skill_md.is_file():
        try:
            text = skill_md.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedManifest(f"{skill_md}: not valid UTF-8") from exc
        return _manifest_from_skill_md(text, source_dir.name or "skill", str(skill_md))
    raise MissingManifest(f"{source_dir}: neither skill.json nor SKILL.md present")
