"""Operator-facing command line: analyze, probe, bmc, produce, verify.

Machine output is canonical JSON on stdout; human diagnostics go to stderr.
Exit codes: 0 pass/formal, 1 verification failure or containment violation,
2 usage/IO/configuration error. No command ever touches the network.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Any

from ._version import __version__
from .bmc import DEFAULT_MAX_EXHAUSTIVE_K, MODEL_FACTORIES, method_c
from .bundle import (
    load_private_key,
    load_trust_root,
    mint_ephemeral_key,
    produce_formal_bundle,
    public_key_b64,
    verify_formal_bundle,
)
from .canonical import canonicalize
from .dispatch import method_b
from .errors import LayerFailed, SkillproofError
from .manifest import declared_kinds, parse_manifest
from .static_analysis import default_rule_packs, load_rule_packs, method_a

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

PACKS_ENV_VAR = "SKILLPROOF_PACKS"


def _emit(doc: Any) -> None:
    sys.stdout.buffer.write(canonicalize(doc) + b"\n")
    sys.stdout.buffer.flush()


def _note(quiet: bool, message: str) -> None:
    if not quiet:
        print(message, file=sys.stderr)


def _resolve_packs(packs_flag: str | None):
    if packs_flag:
        return load_rule_packs(packs_flag)
    env = os.environ.get(PACKS_ENV_VAR)
    if env:
        return load_rule_packs(env)
    return default_rule_packs()


def _cmd_analyze(args: argparse.Namespace) -> int:
    manifest = parse_manifest(args.skill_dir)
    packs = _resolve_packs(args.packs)
    report = method_a(args.skill_dir, manifest, packs)
    _emit(report.to_json_dict())
    if report.verdict.contained:
        _note(args.json, f"{manifest.id}: effect set contained in declared capabilities")
        return EXIT_PASS
    for violation in report.verdict.violations:
        where = ", ".join(f"{p.file}:{p.line}" for p in violation.provenance)
        _note(args.json, f"violation [{violation.reason}] {violation.kind or ''} ({where})")
    return EXIT_FAIL


def _cmd_probe(args: argparse.Namespace) -> int:
    manifest = parse_manifest(args.skill_dir)
    verdict = method_b(manifest)
    _emit(verdict.to_json_dict())
    _note(
        args.json,
        f"probed {verdict.probed} kinds: {len(verdict.admitted)} admitted, "
        f"{len(verdict.rejected)} rejected, capacity {verdict.capacity_bits:.3f} bits",
    )
    return EXIT_PASS if verdict.passed else EXIT_FAIL


def _cmd_bmc(args: argparse.Namespace) -> int:
    manifest = parse_manifest(args.skill_dir)
    kinds = declared_kinds(manifest)
    model = MODEL_FACTORIES[args.model](kinds)
    verdict = method_c(model, kinds, args.kmax)
    _emit(verdict.to_json_dict())
    if verdict.result == "unsat":
        _note(
            args.json,
            f"unsat: {verdict.traces_explored} traces explored "
            f"({verdict.traces_enumerated} enumerated) at k_max={verdict.k_max}",
        )
        return EXIT_PASS
    ce = verdict.counter_example
    _note(args.json, f"sat: {ce.violation_class} via {list(ce.symbols)}")
    return EXIT_FAIL


def _cmd_produce(args: argparse.Namespace) -> int:
    manifest = parse_manifest(args.skill_dir)
    packs = _resolve_packs(args.packs)
    ephemeral_public = None
    if args.key == "ephemeral":
        key, ephemeral_public = mint_ephemeral_key()
    else:
        key = load_private_key(args.key)
    bundle = produce_formal_bundle(
        args.skill_dir,
        manifest,
        key,
        signer_id=args.signer_id,
        k_max=args.kmax,
        packs=packs,
        out_dir=args.out,
    )
    doc: dict[str, Any] = {
        "attestation_hash": bundle.attestation_hash,
        "evidence_dir": str(bundle.evidence_dir),
    }
    if ephemeral_public is not None:
        doc["public_key"] = public_key_b64(ephemeral_public)
    _emit(doc)
    _note(args.json, f"bundle written under {bundle.evidence_dir}")
    if ephemeral_public is not None:
        _note(
            args.json,
            "ephemeral public key (register it in a trust root): "
            + public_key_b64(ephemeral_public),
        )
    return EXIT_PASS


def _cmd_verify(args: argparse.Namespace) -> int:
    trust_root = load_trust_root(args.trust_roots)
    packs = _resolve_packs(args.packs)
    outcome = verify_formal_bundle(args.skill_dir, trust_root, packs)
    _emit(outcome.to_json_dict())
    if outcome.accepted_level == "formal":
        _note(args.json, "bundle verified; accepted at level formal")
        return EXIT_PASS
    _note(args.json, f"degraded to {outcome.accepted_level}: {', '.join(outcome.reasons)}")
    return EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skillproof",
        description="Verify that a skill's behaviour is contained in its declared capability set.",
    )
    parser.add_argument("--version", action="version", version=f"skillproof {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, packs: bool = True) -> None:
        p.add_argument("skill_dir", type=Path, help="skill directory")
        p.add_argument("--json", action="store_true", help="suppress human diagnostics on stderr")
        if packs:
            p.add_argument("--packs", help=f"rule-pack directory (or ${PACKS_ENV_VAR})")

    p_analyze = sub.add_parser("analyze", help="static effect analysis against the manifest")
    add_common(p_analyze)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_probe = sub.add_parser("probe", help="exhaustive vocabulary probe of the dispatcher")
    add_common(p_probe, packs=False)
    p_probe.set_defaults(func=_cmd_probe)

    p_bmc = sub.add_parser("bmc", help="bounded model check of the audit biconditional")
    add_common(p_bmc, packs=False)
    p_bmc.add_argument(
        "--model",
        choices=sorted(MODEL_FACTORIES),
        default="faithful",
        help="runtime model (mutants demonstrate the counter-example path)",
    )
    p_bmc.add_argument("--kmax", type=int, default=DEFAULT_MAX_EXHAUSTIVE_K)
    p_bmc.set_defaults(func=_cmd_bmc)

    p_produce = sub.add_parser("produce", help="produce the signed evidence bundle")
    add_common(p_produce)
    p_produce.add_argument("--key", default="ephemeral", help="PEM private key path, or 'ephemeral'")
    p_produce.add_argument("--signer-id", default="skillproof-ephemeral")
    p_produce.add_argument("--kmax", type=int, default=DEFAULT_MAX_EXHAUSTIVE_K)
    p_produce.add_argument("--out", type=Path, default=None, help="bundle output dir (default: skill dir)")
    p_produce.set_defaults(func=_cmd_produce)

    p_verify = sub.add_parser("verify", help="re-verify a bundle without trusting its producer")
    add_common(p_verify)
    p_verify.add_argument("--trust-roots", required=True, help="trust-root JSON file")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed usage to stderr; keep the JSON-on-stdout
        # contract and the total {0,1,2} exit-code mapping
        if exc.code in (0, None):
            raise
        _emit({"error": "usage", "message": "invalid command line"})
        return EXIT_USAGE
    try:
        return args.func(args)
    except LayerFailed as exc:
        _emit({"error": "layer-failed", "layer": exc.layer, "verdict": exc.verdict.to_json_dict()})
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (SkillproofError, OSError, ValueError) as exc:
        # a path that is not UTF-8 puts lone surrogates into the message
        message = str(exc).encode("utf-8", "backslashreplace").decode()
        _emit({"error": type(exc).__name__, "message": message})
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
