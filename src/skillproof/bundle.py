"""Produce and re-verify the four-file proof-carrying evidence bundle.

The bundle is a precomputed cache, never trusted: verification re-runs all
three methods against the live skill tree and compares canonical hashes.
Nothing in the bundle carries a timestamp, so production is deterministic
and byte-reproducible.

Tamper vs drift, per evidence slot: file bytes disagreeing with the signed
attestation hash is tamper (``hash-mismatch:<slot>``); file bytes matching
the attestation but disagreeing with the live re-run is drift.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

from cryptography.exceptions import InvalidSignature, UnsupportedAlgorithm
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric import ed25519

from ._version import __version__
from .bmc import BmcVerdict, faithful_runtime, instance_hash, method_c
from .canonical import canonical_loads, canonicalize, hash_bytes
from .dispatch import TypedDispatchVerdict, method_b
from .errors import (
    BoundTooLarge,
    EntropyUnavailable,
    LayerFailed,
    MalformedManifest,
    MissingBundleFile,
    MissingManifest,
    NonCanonicalizable,
)
from .manifest import (
    VERIFICATION_LEVELS,
    Manifest,
    declared_kinds,
    manifest_to_json_dict,
    parse_manifest,
)
from .static_analysis import RulePack, StaticReport, method_a

EVIDENCE_DIR = "evidence"

SLOT_FILES = {
    "static": "static.json",
    "types": "types.proof",
    "smt": "smt.unsat",
    "attest": "manifest.attest.json",
}


def evidence_path(skill_dir: Path | str, slot: str) -> Path:
    return Path(skill_dir) / EVIDENCE_DIR / SLOT_FILES[slot]


def manifest_hash(manifest: Manifest) -> str:
    return hash_bytes(canonicalize(manifest_to_json_dict(manifest)))


# ---------------------------------------------------------------------------
# Keys and trust roots
# ---------------------------------------------------------------------------


def mint_ephemeral_key() -> tuple[ed25519.Ed25519PrivateKey, ed25519.Ed25519PublicKey]:
    """A fresh Ed25519 keypair; print the public key so the operator can
    register it in a trust root."""
    try:
        private = ed25519.Ed25519PrivateKey.generate()
    except Exception as exc:  # pragma: no cover - platform entropy failure
        raise EntropyUnavailable(str(exc)) from exc
    return private, private.public_key()


def private_key_pem(private: ed25519.Ed25519PrivateKey) -> bytes:
    return private.private_bytes(
        encoding=serialization.Encoding.PEM,
        format=serialization.PrivateFormat.PKCS8,
        encryption_algorithm=serialization.NoEncryption(),
    )


def load_private_key(path: Path | str) -> ed25519.Ed25519PrivateKey:
    data = Path(path).read_bytes()
    try:
        key = serialization.load_pem_private_key(data, password=None)
    except (TypeError, ValueError, UnsupportedAlgorithm) as exc:
        # TypeError: the key is encrypted and no password is given
        raise ValueError(f"{path}: cannot load private key: {exc}") from exc
    if not isinstance(key, ed25519.Ed25519PrivateKey):
        raise ValueError(f"{path} is not an Ed25519 private key")
    return key


def public_key_b64(public: ed25519.Ed25519PublicKey) -> str:
    raw = public.public_bytes(
        encoding=serialization.Encoding.Raw, format=serialization.PublicFormat.Raw
    )
    return base64.b64encode(raw).decode("ascii")


@dataclass(frozen=True)
class TrustEntry:
    signer_id: str
    public_key: str  # base64 of the raw 32-byte key
    max_level: str

    def __post_init__(self) -> None:
        # a bad entry is the trust root's fault, not a bundle's bad signature
        if not isinstance(self.signer_id, str):
            raise ValueError(f"signer_id {self.signer_id!r} is not a string")
        if self.max_level not in VERIFICATION_LEVELS:
            raise ValueError(f"unknown max_level {self.max_level!r} for {self.signer_id!r}")
        if not isinstance(self.public_key, str):
            raise ValueError(f"public_key of {self.signer_id!r} is not a string")
        if len(base64.b64decode(self.public_key, validate=True)) != 32:
            raise ValueError(f"public_key of {self.signer_id!r} is not a 32-byte key")


@dataclass(frozen=True)
class TrustRoot:
    entries: tuple[TrustEntry, ...]

    def __post_init__(self) -> None:
        entries = self.entries
        if not isinstance(entries, (list, tuple)) or not all(
            isinstance(e, TrustEntry) for e in entries
        ):
            raise ValueError("trust root entries must be a list of TrustEntry values")
        object.__setattr__(self, "entries", tuple(entries))
        ids = [e.signer_id for e in self.entries]
        if len(ids) != len(set(ids)):
            raise ValueError("trust root signer_ids must be unique")

    def lookup(self, signer_id: str) -> TrustEntry | None:
        for entry in self.entries:
            if entry.signer_id == signer_id:
                return entry
        return None


def trust_root_to_json(root: TrustRoot) -> dict[str, Any]:
    return {
        "entries": [
            {"signer_id": e.signer_id, "public_key": e.public_key, "max_level": e.max_level}
            for e in root.entries
        ]
    }


def load_trust_root(path: Path | str) -> TrustRoot:
    data = Path(path).read_bytes()
    try:
        doc = canonical_loads(data)
        entries = tuple(
            TrustEntry(e["signer_id"], e["public_key"], e["max_level"])
            for e in doc["entries"]
        )
        return TrustRoot(entries)
    except (KeyError, TypeError, ValueError, NonCanonicalizable) as exc:
        raise ValueError(f"malformed trust root {path}: {type(exc).__name__}: {exc}") from exc


# ---------------------------------------------------------------------------
# Attestation
# ---------------------------------------------------------------------------


def _toolchain() -> list[dict[str, str]]:
    return [
        {"name": "skillproof-static", "version": __version__},
        {"name": "skillproof-dispatch", "version": __version__},
        {"name": "skillproof-bmc", "version": __version__},
    ]


def attestation_body(
    manifest_digest: str, evidence_hashes: dict[str, str], signer_id: str
) -> dict[str, Any]:
    return {
        "evidence_hashes": dict(evidence_hashes),
        "manifest_hash": manifest_digest,
        "signer_id": signer_id,
        "toolchain": _toolchain(),
        "verification_level": "formal",
    }


def sign_attestation(body: dict[str, Any], key: ed25519.Ed25519PrivateKey) -> dict[str, Any]:
    signature = key.sign(canonicalize(body))
    doc = dict(body)
    doc["signature"] = base64.b64encode(signature).decode("ascii")
    return doc


# ---------------------------------------------------------------------------
# Production
# ---------------------------------------------------------------------------


# (evidence slot, layer name in LayerFailed, verify's reason when the live
# re-run of the layer fails or does not reproduce the slot's bytes)
_LAYERS = (
    ("static", "methodA", "method-A-cache-miss"),
    ("types", "methodB", "method-B-fail"),
    ("smt", "methodC", "method-C-fail"),
)


def _run_layer(
    slot: str,
    skill_dir: Path | str,
    manifest: Manifest,
    packs: Iterable[RulePack] | None,
    k_max: int,
) -> tuple[Any, Any]:
    """Run the layer behind ``slot`` on the live skill. Returns the verdict,
    whose canonical JSON is the slot's evidence, and the failure (the
    containment verdict for methodA, else the verdict itself) or None when
    the layer passes: contained, pass and unsat respectively."""
    if slot == "static":
        report = method_a(skill_dir, manifest, packs)
        return report, None if report.verdict.contained else report.verdict
    if slot == "types":
        verdict = method_b(manifest)
        return verdict, None if verdict.passed else verdict
    kinds = declared_kinds(manifest)
    verdict = method_c(faithful_runtime(kinds), kinds, k_max)
    return verdict, None if verdict.result == "unsat" else verdict


@dataclass(frozen=True)
class ProducedBundle:
    evidence_dir: Path
    files: dict[str, Path]
    attestation_hash: str
    static_report: StaticReport
    dispatch_verdict: TypedDispatchVerdict
    bmc_verdict: BmcVerdict


def produce_formal_bundle(
    skill_dir: Path | str,
    manifest: Manifest,
    key: ed25519.Ed25519PrivateKey,
    signer_id: str,
    k_max: int = 8,
    packs: Iterable[RulePack] | None = None,
    out_dir: Path | str | None = None,
) -> ProducedBundle:
    """Run all three methods and, only if every layer passes, write the
    four canonical evidence files. Same inputs and key produce byte-identical
    bundles."""
    verdicts: dict[str, Any] = {}
    for slot, layer, _ in _LAYERS:
        verdict, failure = _run_layer(slot, skill_dir, manifest, packs, k_max)
        if failure is not None:
            raise LayerFailed(layer, failure)
        verdicts[slot] = verdict

    contents = {slot: canonicalize(v.to_json_dict()) for slot, v in verdicts.items()}
    evidence_hashes = {slot: hash_bytes(data) for slot, data in contents.items()}
    body = attestation_body(manifest_hash(manifest), evidence_hashes, signer_id)
    attest_bytes = canonicalize(sign_attestation(body, key))
    contents["attest"] = attest_bytes

    target = Path(out_dir) if out_dir is not None else Path(skill_dir)
    evidence = target / EVIDENCE_DIR
    evidence.mkdir(parents=True, exist_ok=True)
    files: dict[str, Path] = {}
    for slot, data in contents.items():
        path = evidence / SLOT_FILES[slot]
        path.write_bytes(data)
        files[slot] = path
    return ProducedBundle(
        evidence_dir=evidence,
        files=files,
        attestation_hash=hash_bytes(attest_bytes),
        static_report=verdicts["static"],
        dispatch_verdict=verdicts["types"],
        bmc_verdict=verdicts["smt"],
    )


# ---------------------------------------------------------------------------
# Verification (the bootstrap re-check)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyOutcome:
    accepted_level: str
    reasons: tuple[str, ...]

    def to_json_dict(self) -> dict[str, Any]:
        return {"accepted_level": self.accepted_level, "reasons": list(self.reasons)}


def _verify_signature(doc: dict[str, Any], trust_root: TrustRoot, reasons: list[str]) -> None:
    level = doc.get("verification_level")
    signer_id = doc.get("signer_id")
    if level != "formal" or not isinstance(signer_id, str):
        reasons.append("signer-not-authorised")
        return
    entry = trust_root.lookup(signer_id)
    if entry is None or entry.max_level != "formal":
        reasons.append("signer-not-authorised")
        return
    try:
        public = ed25519.Ed25519PublicKey.from_public_bytes(
            base64.b64decode(entry.public_key, validate=True)
        )
        body = {k: v for k, v in doc.items() if k != "signature"}
        signature = base64.b64decode(doc["signature"], validate=True)
        public.verify(signature, canonicalize(body))
    except (InvalidSignature, KeyError, TypeError, ValueError):
        reasons.append("sig-invalid")


def verify_formal_bundle(
    skill_dir: Path | str,
    trust_root: TrustRoot,
    packs: Iterable[RulePack] | None = None,
) -> VerifyOutcome:
    """The five-step bootstrap re-check. Every step runs (no short-circuit)
    and all applicable reasons accumulate; the accepted level is formal only
    when every step reproduces, otherwise declared."""
    skill_dir = Path(skill_dir)
    raw: dict[str, bytes] = {}
    for slot in SLOT_FILES:
        path = evidence_path(skill_dir, slot)
        if not path.is_file():
            raise MissingBundleFile(slot)
        raw[slot] = path.read_bytes()

    reasons: list[str] = []

    # Step 1+2: attestation signature and signer authorization.
    try:
        attest_doc = canonical_loads(raw["attest"])
    except NonCanonicalizable:
        attest_doc = None
    if not isinstance(attest_doc, dict) or "signature" not in attest_doc:
        reasons.append("sig-invalid")
        attest_doc = None
    else:
        _verify_signature(attest_doc, trust_root, reasons)

    # Step 1 continued: the live manifest must be the attested one.
    manifest: Manifest | None = None
    try:
        manifest = parse_manifest(skill_dir)
    except (MissingManifest, MalformedManifest):
        reasons.append("hash-mismatch:manifest")
    if manifest is not None and attest_doc is not None:
        if attest_doc.get("manifest_hash") != manifest_hash(manifest):
            reasons.append("hash-mismatch:manifest")

    # Steps 3-5, one per layer: tamper (the file's bytes against the signed
    # hash) beats drift (the live re-run against the file's bytes).
    attested_hashes = (attest_doc or {}).get("evidence_hashes")
    for slot, _, failed in _LAYERS if isinstance(attested_hashes, dict) else ():
        if hash_bytes(raw[slot]) != attested_hashes.get(slot):
            reasons.append(f"hash-mismatch:{slot}")
            continue
        if manifest is None:
            continue
        k_max = 0
        if slot == "smt":
            # the trace layer re-runs at the bound the evidence records
            try:
                smt_doc = canonical_loads(raw["smt"])
                k_max = smt_doc["k_max"]
                recorded_instance = smt_doc["instance_hash"]
            except (NonCanonicalizable, KeyError, TypeError):
                k_max = None
            if isinstance(k_max, bool) or not isinstance(k_max, int) or k_max < 1:
                reasons.append(failed)
                continue
            if instance_hash(declared_kinds(manifest), k_max) != recorded_instance:
                reasons.append("bound-mismatch")
        try:
            verdict, failure = _run_layer(slot, skill_dir, manifest, packs, k_max)
        except (BoundTooLarge, ValueError):
            reasons.append(failed)
            continue
        if failure is not None or canonicalize(verdict.to_json_dict()) != raw[slot]:
            reasons.append(failed)

    deduped = tuple(dict.fromkeys(reasons))
    return VerifyOutcome(
        accepted_level="formal" if not deduped else "declared",
        reasons=deduped,
    )
