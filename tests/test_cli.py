"""The CLI contract: canonical JSON on stdout, diagnostics on stderr,
total exit codes."""

from __future__ import annotations

import base64
import json
import os
from pathlib import Path

import pytest
from cryptography.hazmat.primitives import serialization

from skillproof.bundle import (
    mint_ephemeral_key,
    private_key_pem,
    produce_formal_bundle,
    trust_root_to_json,
)
from skillproof.canonical import canonicalize
from skillproof.cli import main
from skillproof.manifest import parse_manifest
from skillproof.static_analysis import default_rule_packs
from tests.conftest import trust_root_for, write_worked_skill


def run_cli(capsys, *argv: str) -> tuple[int, dict, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    # stdout must be canonical bytes plus one newline
    assert captured.out.encode() == canonicalize(doc) + b"\n"
    return code, doc, captured.err


def test_analyze_pre_fix_exit_1_with_provenance(capsys, worked_skill: Path):
    code, doc, err = run_cli(capsys, "analyze", str(worked_skill))
    assert code == 1
    violation = doc["verdict"]["violations"][0]
    assert violation["kind"] == "fs.write.rev"
    assert violation["provenance"][0]["file"] == "summarise.py"
    assert violation["provenance"][0]["line"] > 0
    assert "summarise.py:" in err


def test_analyze_post_fix_exit_0(capsys, fixed_skill: Path):
    code, doc, _ = run_cli(capsys, "analyze", str(fixed_skill))
    assert code == 0
    assert doc["verdict"]["contained"] is True


def test_analyze_prose_only_exit_0(capsys, tmp_path: Path):
    (tmp_path / "SKILL.md").write_text("---\ncaps: []\n---\nprose\n")
    code, doc, _ = run_cli(capsys, "analyze", str(tmp_path))
    assert code == 0
    assert doc["per_script"] == {}


def test_analyze_nonexistent_dir_exit_2(capsys, tmp_path: Path):
    code, doc, _ = run_cli(capsys, "analyze", str(tmp_path / "missing"))
    assert code == 2
    assert "error" in doc


def test_analyze_non_utf8_missing_dir_keeps_the_contract(capsys, tmp_path: Path):
    # the lone surrogate that stands for the \xff byte is escaped in the message
    missing = os.fsdecode(os.fsencode(tmp_path) + b"/\xff-missing")
    code = main(["analyze", missing])
    out = capsys.readouterr().out
    assert code == 2
    assert out.count("\n") == 1
    assert out.encode() == canonicalize(json.loads(out)) + b"\n"
    assert "\\udcff-missing" in json.loads(out)["message"]


def _add_non_utf8_script(skill: Path) -> None:
    Path(os.fsdecode(os.fsencode(skill) + b"/x\xff.py")).write_text("print('hi')\n")


def test_analyze_non_utf8_script_name_taints_exit_1(capsys, fixed_skill: Path):
    _add_non_utf8_script(fixed_skill)
    code, doc, _ = run_cli(capsys, "analyze", str(fixed_skill))
    assert code == 1
    assert [(v["reason"], v["provenance"][0]["file"]) for v in doc["verdict"]["violations"]] == [
        ("unanalyzable-language", "x\\xff.py")
    ]


def test_analyze_escaped_name_collision_still_taints(capsys, fixed_skill: Path):
    # a clean script named with the escaped text of the non-UTF-8 name gets
    # the same id; the tainted entry must win
    (fixed_skill / "x\\xff.py").write_text("print('hi')\n")
    _add_non_utf8_script(fixed_skill)
    code, doc, _ = run_cli(capsys, "analyze", str(fixed_skill))
    assert code == 1
    assert doc["verdict"]["contained"] is False
    assert [v["reason"] for v in doc["verdict"]["violations"]] == ["unanalyzable-language"]


def test_verify_after_non_utf8_script_appears_exit_1(capsys, tmp_path: Path):
    skill = write_worked_skill(tmp_path / "skill", fixed=True)
    private, public = mint_ephemeral_key()
    produce_formal_bundle(skill, parse_manifest(skill), private, "op")
    _add_non_utf8_script(skill)
    roots = tmp_path / "roots.json"
    roots.write_text(json.dumps(trust_root_to_json(trust_root_for("op", public))))
    code, doc, _ = run_cli(capsys, "verify", str(skill), "--trust-roots", str(roots))
    assert code == 1
    assert "method-A-cache-miss" in doc["reasons"]


def test_analyze_json_flag_silences_stderr(capsys, fixed_skill: Path):
    _, _, err = run_cli(capsys, "analyze", str(fixed_skill), "--json")
    assert err == ""


def test_probe_exit_0(capsys, fixed_skill: Path):
    code, doc, _ = run_cli(capsys, "probe", str(fixed_skill))
    assert code == 0
    assert doc["pass"] is True
    assert doc["capacity_bits"] == "2.0"


def test_bmc_faithful_exit_0(capsys, fixed_skill: Path):
    code, doc, _ = run_cli(capsys, "bmc", str(fixed_skill), "--kmax", "4")
    assert code == 0
    assert doc["result"] == "unsat"
    assert doc["traces_explored"] == sum(4**n for n in range(1, 5))


def test_bmc_mutant_exit_1_with_counter_example(capsys, fixed_skill: Path):
    code, doc, _ = run_cli(
        capsys, "bmc", str(fixed_skill), "--model", "execute-on-deny", "--kmax", "3"
    )
    assert code == 1
    assert doc["result"]["counter_example"]["symbols"] == ["OUT"]


def test_bmc_kmax_0_exit_2(capsys, fixed_skill: Path):
    code, doc, _ = run_cli(capsys, "bmc", str(fixed_skill), "--kmax", "0")
    assert code == 2
    assert doc["error"] == "ValueError"
    assert doc["message"] == "k_max must be at least 1"


def test_bmc_stochastic_is_a_usage_error(capsys, fixed_skill: Path):
    # Method C is a proof method; there is no random-trace fallback
    code, doc, _ = run_cli(capsys, "bmc", str(fixed_skill), "--stochastic")
    assert code == 2
    assert doc["error"] == "usage"


def test_produce_ephemeral_prints_public_key(capsys, fixed_skill: Path):
    code, doc, err = run_cli(capsys, "produce", str(fixed_skill), "--signer-id", "op")
    assert code == 0
    assert "public_key" in doc
    assert len(doc["attestation_hash"]) == 64
    assert doc["public_key"] in err
    assert (fixed_skill / "evidence" / "manifest.attest.json").is_file()


def test_produce_pre_fix_exit_1(capsys, worked_skill: Path):
    code, doc, _ = run_cli(capsys, "produce", str(worked_skill))
    assert code == 1
    assert doc["error"] == "layer-failed"
    assert doc["layer"] == "methodA"
    violations = doc["verdict"]["violations"]
    assert [(v["kind"], v["arg"]) for v in violations] == [
        ("fs.write.rev", {"variant": "path_prefix", "prefix": "./.cache/"})
    ]


def test_produce_kmax_12_exit_2_bound_too_large(capsys, fixed_skill: Path):
    code, doc, err = run_cli(capsys, "produce", str(fixed_skill), "--kmax", "12")
    assert code == 2
    assert doc["error"] == "BoundTooLarge"
    assert "budget" in doc["message"] or "stochastic" in doc["message"]


def test_produce_out_dir_blocked_by_file_exit_2(capsys, fixed_skill: Path, tmp_path: Path):
    (tmp_path / "evidence").write_text("a regular file where the bundle directory goes")
    code, doc, _ = run_cli(capsys, "produce", str(fixed_skill), "--out", str(tmp_path))
    assert code == 2
    assert doc["error"] == "FileExistsError"


def test_produce_encrypted_key_exit_2(capsys, fixed_skill: Path, tmp_path: Path):
    private, _ = mint_ephemeral_key()
    key_path = tmp_path / "enc.pem"
    key_path.write_bytes(
        private.private_bytes(
            serialization.Encoding.PEM,
            serialization.PrivateFormat.PKCS8,
            serialization.BestAvailableEncryption(b"pw"),
        )
    )
    code, doc, _ = run_cli(capsys, "produce", str(fixed_skill), "--key", str(key_path))
    assert code == 2
    assert doc["error"] == "ValueError"
    assert str(key_path) in doc["message"]
    assert not (fixed_skill / "evidence").exists()


def test_verify_flow(capsys, tmp_path: Path):
    skill = write_worked_skill(tmp_path / "skill", fixed=True)
    private, public = mint_ephemeral_key()
    key_path = tmp_path / "key.pem"
    key_path.write_bytes(private_key_pem(private))
    code, _, _ = run_cli(
        capsys, "produce", str(skill), "--key", str(key_path), "--signer-id", "op"
    )
    assert code == 0
    roots = tmp_path / "roots.json"
    roots.write_text(json.dumps(trust_root_to_json(trust_root_for("op", public))))
    code, doc, _ = run_cli(capsys, "verify", str(skill), "--trust-roots", str(roots))
    assert code == 0
    assert doc["accepted_level"] == "formal"
    assert doc["reasons"] == []

    # tamper types.proof: exit 1 with the slot reason
    types = skill / "evidence" / "types.proof"
    data = bytearray(types.read_bytes())
    data[5] ^= 0x01
    types.write_bytes(bytes(data))
    code, doc, _ = run_cli(capsys, "verify", str(skill), "--trust-roots", str(roots))
    assert code == 1
    assert "hash-mismatch:types" in doc["reasons"]


def test_verify_without_manifest_is_declared_exit_1(capsys, tmp_path: Path):
    skill = write_worked_skill(tmp_path / "skill", fixed=True)
    private, public = mint_ephemeral_key()
    produce_formal_bundle(skill, parse_manifest(skill), private, "op")
    (skill / "skill.json").unlink()
    roots = tmp_path / "roots.json"
    roots.write_text(json.dumps(trust_root_to_json(trust_root_for("op", public))))
    code, doc, _ = run_cli(capsys, "verify", str(skill), "--trust-roots", str(roots))
    assert code == 1
    assert doc == {"accepted_level": "declared", "reasons": ["hash-mismatch:manifest"]}


def test_verify_empty_trust_root_exit_1(capsys, tmp_path: Path):
    skill = write_worked_skill(tmp_path / "skill", fixed=True)
    private, _ = mint_ephemeral_key()
    produce_formal_bundle(skill, parse_manifest(skill), private, "op")
    roots = tmp_path / "roots.json"
    roots.write_text(json.dumps({"entries": []}))
    code, doc, _ = run_cli(capsys, "verify", str(skill), "--trust-roots", str(roots))
    assert code == 1
    assert doc["reasons"] == ["signer-not-authorised"]


def test_verify_missing_trust_root_file_exit_2(capsys, tmp_path: Path):
    skill = write_worked_skill(tmp_path / "skill", fixed=True)
    code, doc, _ = run_cli(
        capsys, "verify", str(skill), "--trust-roots", str(tmp_path / "none.json")
    )
    assert code == 2


_KEY_32 = base64.b64encode(bytes(32)).decode("ascii")


@pytest.mark.parametrize(
    "roots_doc",
    [
        {"nope": 1},
        [1, 2],
        {"entries": [{"signer_id": "op", "max_level": "formal"}]},
        {"entries": [{"signer_id": "op", "public_key": "AAAA", "max_level": "bogus"}]},
        {"entries": [{"signer_id": "op", "public_key": "not base64!", "max_level": "formal"}]},
        {"entries": [{"signer_id": "op", "public_key": "AAAA", "max_level": "formal"}]},
        {"entries": [{"signer_id": "op", "public_key": 5, "max_level": "formal"}]},
        {"entries": [{"signer_id": 7, "public_key": _KEY_32, "max_level": "formal"}]},
    ],
    ids=[
        "no-entries",
        "not-an-object",
        "entry-without-public-key",
        "unknown-max-level",
        "key-not-base64",
        "key-not-32-bytes",
        "key-not-a-string",
        "signer-id-not-a-string",
    ],
)
def test_verify_malformed_trust_root_exit_2(capsys, tmp_path: Path, roots_doc):
    skill = write_worked_skill(tmp_path / "skill", fixed=True)
    roots = tmp_path / "roots.json"
    roots.write_text(json.dumps(roots_doc))
    code, doc, _ = run_cli(capsys, "verify", str(skill), "--trust-roots", str(roots))
    assert code == 2
    assert doc["error"] == "ValueError"
    assert str(roots) in doc["message"]


def test_packs_env_var(capsys, fixed_skill: Path, tmp_path: Path, monkeypatch):
    from skillproof.static_analysis import default_rule_packs

    packs_dir = tmp_path / "packs"
    packs_dir.mkdir()
    for pack in default_rule_packs():
        (packs_dir / f"{pack.language}.json").write_text(json.dumps(pack.to_dict()))
    monkeypatch.setenv("SKILLPROOF_PACKS", str(packs_dir))
    code, doc, _ = run_cli(capsys, "analyze", str(fixed_skill))
    assert code == 0
    assert len(doc["analyzer"]["pack_hashes"]) == 3


def test_packs_flag_missing_dir_exit_2(capsys, fixed_skill: Path, tmp_path: Path):
    code, _, _ = run_cli(
        capsys, "analyze", str(fixed_skill), "--packs", str(tmp_path / "nope")
    )
    assert code == 2


def test_usage_error_still_emits_json(capsys):
    code, doc, _ = run_cli(capsys, "no-such-command")
    assert code == 2
    assert doc["error"] == "usage"


# ---------------------------------------------------------------------------
# Hostile input files: one JSON line and an exit code in {0,1,2}; a bundle or
# skill fault is exit 1, only the operator's trust root and packs exit 2
# ---------------------------------------------------------------------------

DEEP = b"[" * 200_000 + b"]" * 200_000
ATTEST = "evidence/manifest.attest.json"


def _with_attest_field(text: bytes):
    return lambda data: data[:-1] + b',"x":' + text + b"}"


def _duplicated_level(data: bytes) -> bytes:
    # json.loads keeps the last of two equal keys; a reader that keeps the
    # first would see "tested"
    layout = json.dumps(json.loads(data), indent=2)
    return layout.replace("{", '{\n  "verification_level": "tested",', 1).encode()


def _skill_md(caps: str):
    return lambda data: f"---\ncaps: {caps}\n---\n".encode()


@pytest.mark.parametrize(
    ("file", "rewrite", "command", "code", "expected"),
    [
        (ATTEST, lambda _: DEEP, "verify", 1, ["sig-invalid"]),
        (ATTEST, _with_attest_field(b"1.5"), "verify", 1, ["sig-invalid"]),
        (ATTEST, _with_attest_field(b"NaN"), "verify", 1, ["sig-invalid"]),
        (ATTEST, _with_attest_field(b'"\\ud800"'), "verify", 1, ["sig-invalid"]),
        (ATTEST, _duplicated_level, "verify", 1, ["sig-invalid"]),
        ("skill.json", lambda _: DEEP, "verify", 1, ["hash-mismatch:manifest"]),
        ("skill.json", lambda d: d.replace(b'"id": "', b'"id": "\\ud800'), "verify", 1,
         ["hash-mismatch:manifest"]),
        ("skill.json", lambda _: DEEP, "analyze", 2, "MalformedManifest"),
        ("SKILL.md", _skill_md('["pay(\\ud800)"]'), "verify", 1, ["hash-mismatch:manifest"]),
        ("SKILL.md", _skill_md('["pay(\\ud800)"]'), "probe", 2, "MalformedManifest"),
        ("SKILL.md", _skill_md("[2020-99-99]"), "verify", 1, ["hash-mismatch:manifest"]),
        ("SKILL.md", _skill_md("[1" + "0" * 5000 + "]"), "verify", 1, ["hash-mismatch:manifest"]),
        ("SKILL.md", _skill_md("[" * 5000 + "]" * 5000), "analyze", 2, "MalformedManifest"),
        ("roots.json", lambda _: DEEP, "verify", 2, "ValueError"),
        ("packs/shell.json", lambda _: DEEP, "verify", 2, "PackError"),
    ],
    ids=[
        "attest-deep",
        "attest-float",
        "attest-nan",
        "attest-lone-surrogate",
        "attest-duplicate-level",
        "skill-json-deep-verify",
        "skill-json-lone-surrogate",
        "skill-json-deep-analyze",
        "skill-md-lone-surrogate-verify",
        "skill-md-lone-surrogate-probe",
        "skill-md-impossible-date",
        "skill-md-int-past-digit-limit",
        "skill-md-deep",
        "trust-root-deep",
        "pack-deep",
    ],
)
def test_hostile_input_file_keeps_the_contract(
    capsys, tmp_path: Path, file, rewrite, command, code, expected
):
    skill = write_worked_skill(tmp_path / "skill", fixed=True)
    private, public = mint_ephemeral_key()
    produce_formal_bundle(skill, parse_manifest(skill), private, "op")
    roots = tmp_path / "roots.json"
    roots.write_text(json.dumps(trust_root_to_json(trust_root_for("op", public))))
    packs = tmp_path / "packs"
    packs.mkdir()
    for pack in default_rule_packs():
        (packs / f"{pack.language}.json").write_text(json.dumps(pack.to_dict()))
    if file == "SKILL.md":
        (skill / "skill.json").unlink()
    target = skill / file if file in (ATTEST, "skill.json", "SKILL.md") else tmp_path / file
    target.write_bytes(rewrite(target.read_bytes() if target.exists() else b""))

    argv = [command, str(skill)]
    if command == "verify":
        argv += ["--trust-roots", str(roots)]
    if command != "probe":
        argv += ["--packs", str(packs)]
    got, doc, _ = run_cli(capsys, *argv)
    assert got == code
    if code == 1:
        assert doc == {"accepted_level": "declared", "reasons": expected}
    else:
        assert doc["error"] == expected
        assert str(target) in doc["message"]
