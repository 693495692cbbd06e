"""Bundle production, the bootstrap re-check, tamper and drift detection."""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

import skillproof.bundle as bundle_module
from skillproof.bmc import faithful_runtime, instance_hash, method_c
from skillproof.bundle import (
    SLOT_FILES,
    TrustEntry,
    TrustRoot,
    VerifyOutcome,
    attestation_body,
    evidence_path,
    load_private_key,
    load_trust_root,
    manifest_hash,
    mint_ephemeral_key,
    private_key_pem,
    produce_formal_bundle,
    public_key_b64,
    sign_attestation,
    trust_root_to_json,
    verify_formal_bundle,
)
from skillproof.canonical import canonical_loads, canonicalize, hash_bytes
from skillproof.dispatch import method_b
from skillproof.errors import LayerFailed, MissingBundleFile
from skillproof.lattice import value_text
from skillproof.manifest import declared_kinds, parse_manifest
from skillproof.static_analysis import method_a
from tests.conftest import trust_root_for, write_worked_skill


@pytest.fixture
def keypair():
    return mint_ephemeral_key()


@pytest.fixture
def produced(fixed_skill: Path, keypair):
    private, public = keypair
    manifest = parse_manifest(fixed_skill)
    bundle = produce_formal_bundle(fixed_skill, manifest, private, "operator-root-2026")
    root = trust_root_for("operator-root-2026", public)
    return fixed_skill, bundle, root, keypair


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------


def test_mint_sign_verify_round_trip(keypair):
    private, public = keypair
    message = b"attest me"
    signature = private.sign(message)
    public.verify(signature, message)  # raises on failure


def test_two_mints_are_distinct():
    a, _ = mint_ephemeral_key()
    b, _ = mint_ephemeral_key()
    assert private_key_pem(a) != private_key_pem(b)


def test_private_key_pem_round_trip(tmp_path: Path, keypair):
    private, public = keypair
    path = tmp_path / "key.pem"
    path.write_bytes(private_key_pem(private))
    loaded = load_private_key(path)
    assert public_key_b64(loaded.public_key()) == public_key_b64(public)


def test_trust_root_file_round_trip(tmp_path: Path, keypair):
    _, public = keypair
    root = trust_root_for("signer-1", public, "formal")
    path = tmp_path / "roots.json"
    path.write_text(json.dumps(trust_root_to_json(root)))
    assert load_trust_root(path) == root


def test_trust_root_unique_signers(keypair):
    _, public = keypair
    entry = TrustEntry("dup", public_key_b64(public), "formal")
    with pytest.raises(ValueError):
        TrustRoot((entry, entry))


# ---------------------------------------------------------------------------
# Production
# ---------------------------------------------------------------------------


def read_evidence(skill: Path) -> dict[str, bytes]:
    return {slot: evidence_path(skill, slot).read_bytes() for slot in ("static", "types", "smt")}


def write_signed_evidence(skill: Path, private, signer_id: str, slots: dict[str, bytes]) -> None:
    """Write the three evidence slots and an attestation over them signed by
    ``private``, as a producer that skips the layer checks would."""
    (skill / "evidence").mkdir(exist_ok=True)
    for slot, data in slots.items():
        evidence_path(skill, slot).write_bytes(data)
    hashes = {slot: hash_bytes(data) for slot, data in slots.items()}
    body = attestation_body(manifest_hash(parse_manifest(skill)), hashes, signer_id)
    evidence_path(skill, "attest").write_bytes(canonicalize(sign_attestation(body, private)))


def test_produce_writes_four_canonical_files(produced):
    skill, bundle, _, _ = produced
    names = sorted(p.name for p in bundle.evidence_dir.iterdir())
    assert names == sorted(SLOT_FILES.values())
    attest = canonical_loads(evidence_path(skill, "attest").read_bytes())
    assert set(attest["evidence_hashes"]) == {"smt", "static", "types"}
    assert attest["verification_level"] == "formal"
    assert attest["signer_id"] == "operator-root-2026"
    assert attest["manifest_hash"] == manifest_hash(parse_manifest(skill))
    assert {t["name"] for t in attest["toolchain"]} == {
        "skillproof-static",
        "skillproof-dispatch",
        "skillproof-bmc",
    }


def test_produce_aborts_on_uncontained_skill(worked_skill: Path, keypair):
    private, _ = keypair
    manifest = parse_manifest(worked_skill)
    with pytest.raises(LayerFailed) as err:
        produce_formal_bundle(worked_skill, manifest, private, "s")
    assert err.value.layer == "methodA"
    violations = err.value.verdict.violations
    assert [(v.kind, value_text(v.arg)) for v in violations] == [
        ("fs.write.rev", "./.cache/")
    ]
    assert not (worked_skill / "evidence").exists()


def test_produce_deterministic(tmp_path: Path, keypair):
    private, _ = keypair
    skill = write_worked_skill(tmp_path / "skill", fixed=True)
    manifest = parse_manifest(skill)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    b1 = produce_formal_bundle(skill, manifest, private, "s", out_dir=out1)
    b2 = produce_formal_bundle(skill, manifest, private, "s", out_dir=out2)
    for slot in SLOT_FILES:
        assert b1.files[slot].read_bytes() == b2.files[slot].read_bytes()
    assert b1.attestation_hash == b2.attestation_hash


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def test_verify_clean_bundle_formal(produced):
    skill, _, root, _ = produced
    outcome = verify_formal_bundle(skill, root)
    assert outcome.accepted_level == "formal"
    assert outcome.reasons == ()


def test_verify_missing_file_raises(produced):
    skill, _, root, _ = produced
    evidence_path(skill, "types").unlink()
    with pytest.raises(MissingBundleFile) as err:
        verify_formal_bundle(skill, root)
    assert err.value.slot == "types"


def test_tamper_each_evidence_slot(produced):
    skill, _, root, _ = produced
    expected = {
        "static": "hash-mismatch:static",
        "types": "hash-mismatch:types",
        "smt": "hash-mismatch:smt",
    }
    for slot, reason in expected.items():
        path = evidence_path(skill, slot)
        original = path.read_bytes()
        mutated = bytearray(original)
        mutated[len(mutated) // 2] ^= 0x01
        path.write_bytes(bytes(mutated))
        outcome = verify_formal_bundle(skill, root)
        assert outcome.accepted_level == "declared"
        assert reason in outcome.reasons
        path.write_bytes(original)
    assert verify_formal_bundle(skill, root).accepted_level == "formal"


def test_tamper_attestation_breaks_signature(produced):
    skill, _, root, _ = produced
    path = evidence_path(skill, "attest")
    original = path.read_bytes()
    mutated = bytearray(original)
    mutated[len(mutated) // 3] ^= 0x02
    path.write_bytes(bytes(mutated))
    outcome = verify_formal_bundle(skill, root)
    assert outcome.accepted_level == "declared"
    assert {"sig-invalid", "signer-not-authorised"} & set(outcome.reasons)


def test_cached_verdict_is_not_trusted(produced):
    # rewrite static.json with an emptied violation list; the recomputed file
    # hash catches it regardless of what the cached verdict claims
    skill, _, root, _ = produced
    path = evidence_path(skill, "static")
    doc = canonical_loads(path.read_bytes())
    doc["verdict"]["violations"] = []
    doc["per_script"] = {}
    path.write_text(json.dumps(doc))
    outcome = verify_formal_bundle(skill, root)
    assert outcome.accepted_level == "declared"
    assert "hash-mismatch:static" in outcome.reasons


def test_attestation_key_reordering_cannot_forge(produced):
    # same content, different byte layout: canonicalization before signing
    # makes the signature layout-independent, so this still verifies
    skill, _, root, _ = produced
    path = evidence_path(skill, "attest")
    doc = canonical_loads(path.read_bytes())
    reordered = json.dumps(doc, sort_keys=False, indent=2)
    path.write_text(reordered)
    assert verify_formal_bundle(skill, root).accepted_level == "formal"
    # but any content change under the same layout trick fails
    doc["verification_level"] = "formal"
    doc["manifest_hash"] = "0" * 64
    path.write_text(json.dumps(doc, indent=2))
    outcome = verify_formal_bundle(skill, root)
    assert outcome.accepted_level == "declared"
    assert "sig-invalid" in outcome.reasons or "hash-mismatch:manifest" in outcome.reasons


def test_drift_appended_network_call(produced):
    skill, _, root, _ = produced
    with (skill / "summarise.py").open("a") as fh:
        fh.write("\n\ndef drifted(u):\n    return requests.get(u)\n")
    outcome = verify_formal_bundle(skill, root)
    assert outcome.accepted_level == "declared"
    assert "method-A-cache-miss" in outcome.reasons
    assert "hash-mismatch:static" not in outcome.reasons


def test_manifest_drift_detected(produced):
    skill, _, root, _ = produced
    doc = json.loads((skill / "skill.json").read_text())
    doc["version"] += 1
    (skill / "skill.json").write_text(json.dumps(doc))
    outcome = verify_formal_bundle(skill, root)
    assert outcome.accepted_level == "declared"
    assert "hash-mismatch:manifest" in outcome.reasons


def test_unauthorized_signer_level(fixed_skill: Path, keypair):
    private, public = keypair
    manifest = parse_manifest(fixed_skill)
    produce_formal_bundle(fixed_skill, manifest, private, "operator-root-2026")
    tested_root = trust_root_for("operator-root-2026", public, max_level="tested")
    outcome = verify_formal_bundle(fixed_skill, tested_root)
    assert outcome.accepted_level == "declared"
    assert outcome.reasons == ("signer-not-authorised",)


def test_resigned_non_formal_attestation_not_authorised(produced):
    # a trusted signer's own signature over a lower level is no formal claim
    skill, _, root, (private, _) = produced
    doc = json.loads(evidence_path(skill, "attest").read_bytes())
    body = {k: v for k, v in doc.items() if k != "signature"}
    body["verification_level"] = "tested"
    evidence_path(skill, "attest").write_bytes(canonicalize(sign_attestation(body, private)))
    outcome = verify_formal_bundle(skill, root)
    assert outcome.accepted_level == "declared"
    assert outcome.reasons == ("signer-not-authorised",)


def test_unknown_signer_rejected(produced):
    skill, _, _, (private, _) = produced
    _, stranger = mint_ephemeral_key()
    stranger_root = trust_root_for("someone-else", stranger)
    outcome = verify_formal_bundle(skill, stranger_root)
    assert outcome.accepted_level == "declared"
    assert "signer-not-authorised" in outcome.reasons


def test_wrong_key_for_signer_rejected(produced):
    skill, _, _, _ = produced
    _, wrong_public = mint_ephemeral_key()
    wrong_root = trust_root_for("operator-root-2026", wrong_public)
    outcome = verify_formal_bundle(skill, wrong_root)
    assert outcome.accepted_level == "declared"
    assert "sig-invalid" in outcome.reasons


def test_bound_mismatch_when_declared_kinds_drift(produced):
    # the smt file is untampered, but the live declared set no longer matches
    # the (kinds, k_max) instance it certifies
    skill, _, root, _ = produced
    doc = json.loads((skill / "skill.json").read_text())
    doc["caps"].append("pay")
    (skill / "skill.json").write_text(json.dumps(doc))
    outcome = verify_formal_bundle(skill, root)
    assert outcome.accepted_level == "declared"
    assert "bound-mismatch" in outcome.reasons
    assert "method-C-fail" in outcome.reasons


def test_recorded_kmax_drives_the_rerun(fixed_skill: Path, keypair):
    private, public = keypair
    manifest = parse_manifest(fixed_skill)
    produce_formal_bundle(fixed_skill, manifest, private, "op", k_max=5)
    doc = canonical_loads(evidence_path(fixed_skill, "smt").read_bytes())
    assert doc["k_max"] == 5
    outcome = verify_formal_bundle(fixed_skill, trust_root_for("op", public))
    assert outcome.accepted_level == "formal"


def test_signed_uncontained_static_verdict_is_not_formal(worked_skill: Path, keypair):
    # a trusted signer attests the unfixed skill's own method_a verdict: the
    # bytes reproduce on re-run, but the layer does not pass
    private, public = keypair
    manifest = parse_manifest(worked_skill)
    kinds = declared_kinds(manifest)
    report = method_a(worked_skill, manifest)
    assert not report.verdict.contained
    slots = {
        "static": canonicalize(report.to_json_dict()),
        "types": canonicalize(method_b(manifest).to_json_dict()),
        "smt": canonicalize(method_c(faithful_runtime(kinds), kinds, 8).to_json_dict()),
    }
    write_signed_evidence(worked_skill, private, "op", slots)
    outcome = verify_formal_bundle(worked_skill, trust_root_for("op", public))
    assert outcome == VerifyOutcome("declared", ("method-A-cache-miss",))


@pytest.mark.parametrize("k_max", [0, 12, "8"])
def test_malformed_recorded_kmax_degrades(produced, k_max):
    skill, _, root, (private, _) = produced
    slots = read_evidence(skill)
    smt = canonical_loads(slots["smt"])
    smt["k_max"] = k_max
    slots["smt"] = canonicalize(smt)
    write_signed_evidence(skill, private, "operator-root-2026", slots)
    outcome = verify_formal_bundle(skill, root)
    assert outcome.accepted_level == "declared"
    assert "method-C-fail" in outcome.reasons
    assert not {"sig-invalid", "hash-mismatch:smt"} & set(outcome.reasons)


@pytest.mark.parametrize(
    "smt",
    [b"[" * 200_000 + b"]" * 200_000, b'{"k_max":8,"k_max":8,"instance_hash":""}', b"\xff"],
    ids=["deep", "duplicate-key", "not-utf8"],
)
def test_signed_smt_that_does_not_read_degrades(produced, smt):
    # the file matches its signed hash, so only the reader can refuse it
    skill, _, root, (private, _) = produced
    slots = read_evidence(skill)
    slots["smt"] = smt
    write_signed_evidence(skill, private, "operator-root-2026", slots)
    assert verify_formal_bundle(skill, root) == VerifyOutcome("declared", ("method-C-fail",))


def test_boolean_recorded_kmax_degrades(fixed_skill: Path, keypair):
    # true == 1 in Python, so a k_max=1 bundle rewritten to "k_max": true,
    # with a matching instance hash, re-runs to the very same bytes
    private, public = keypair
    manifest = parse_manifest(fixed_skill)
    produce_formal_bundle(fixed_skill, manifest, private, "op", k_max=1)
    slots = read_evidence(fixed_skill)
    smt = canonical_loads(slots["smt"])
    smt["k_max"] = True
    smt["instance_hash"] = instance_hash(declared_kinds(manifest), True)
    slots["smt"] = canonicalize(smt)
    write_signed_evidence(fixed_skill, private, "op", slots)
    outcome = verify_formal_bundle(fixed_skill, trust_root_for("op", public))
    assert outcome == VerifyOutcome("declared", ("method-C-fail",))


def test_layers_are_looked_up_at_call_time(fixed_skill: Path, keypair, monkeypatch):
    # the bench's traced run swaps these module attributes for span wrappers,
    # so produce and verify must reach each layer through them
    calls: Counter = Counter()
    for name in ("method_a", "method_b", "method_c"):
        original = getattr(bundle_module, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(bundle_module, name, counting)
    private, public = keypair
    produce_formal_bundle(fixed_skill, parse_manifest(fixed_skill), private, "op")
    assert calls == {"method_a": 1, "method_b": 1, "method_c": 1}
    calls.clear()
    outcome = verify_formal_bundle(fixed_skill, trust_root_for("op", public))
    assert outcome.accepted_level == "formal"
    assert calls == {"method_a": 1, "method_b": 1, "method_c": 1}
