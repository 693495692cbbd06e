"""Exception types shared across the skillproof toolchain."""

from __future__ import annotations


class SkillproofError(Exception):
    """Base class for all toolchain errors."""


class MissingManifest(SkillproofError):
    """Neither skill.json nor a SKILL.md manifest was found."""


class MalformedManifest(SkillproofError):
    """A manifest exists but cannot be parsed into a valid declaration."""


class UnknownKind(MalformedManifest):
    """A capability token names a kind outside the capability vocabulary."""


class MalformedPattern(MalformedManifest):
    """A capability token's argument pattern is syntactically invalid."""


class MalformedEnvelope(SkillproofError):
    """A tool-call envelope is structurally broken (e.g. unknown op)."""


class RefinementError(SkillproofError):
    """Raised by the host-API shim when the dispatcher rejects an envelope."""

    def __init__(self, rejection):
        super().__init__(f"envelope rejected: op={rejection.op!r}")
        self.rejection = rejection


class NonCanonicalizable(SkillproofError):
    """A document contains values the canonical encoding forbids."""


class PackError(SkillproofError):
    """A rule pack is malformed or does not match the script it is applied to."""


class BoundTooLarge(SkillproofError):
    """The requested trace bound exceeds the exhaustive enumeration budget."""


class LayerFailed(SkillproofError):
    """Bundle production aborted because one verification layer failed."""

    def __init__(self, layer: str, verdict):
        super().__init__(f"verification layer {layer} failed")
        self.layer = layer
        self.verdict = verdict


class MissingBundleFile(SkillproofError):
    """A required evidence file is absent from the bundle directory."""

    def __init__(self, slot: str):
        super().__init__(f"missing bundle file for slot {slot!r}")
        self.slot = slot


class EntropyUnavailable(SkillproofError):
    """The platform could not supply entropy for key generation."""
