"""The CLI contract on hostile input files: whatever the bytes of one input
file, ``main`` returns an exit code in {0,1,2} and writes exactly one line
of canonical JSON to stdout. A broken bundle or skill is a verification
failure (exit 1); only the operator's own trust root and packs may make
``verify`` exit 2."""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from skillproof.bundle import (
    EVIDENCE_DIR,
    SLOT_FILES,
    mint_ephemeral_key,
    produce_formal_bundle,
    trust_root_to_json,
)
from skillproof.canonical import canonicalize
from skillproof.cli import main
from skillproof.manifest import parse_manifest
from skillproof.static_analysis import default_rule_packs
from tests.conftest import WORKED_MANIFEST, trust_root_for, write_worked_skill

K_MAX = "2"  # the bound the bundles are produced at; keeps each example short

# the file a target names, relative to one example's working directory
TARGETS = {
    **{slot: f"json/{EVIDENCE_DIR}/{name}" for slot, name in SLOT_FILES.items()},
    "skill.json": "json/skill.json",
    "SKILL.md": "md/SKILL.md",
    "roots": "roots.json",
    "pack": "packs/shell.json",
}
OPERATOR_INPUTS = {"roots", "pack"}
ALL_COMMANDS = ("verify", "analyze", "probe", "bmc", "produce")
# the commands that read each target
COMMANDS = {
    **{slot: ("verify",) for slot in SLOT_FILES},
    "skill.json": ALL_COMMANDS,
    "SKILL.md": ALL_COMMANDS,
    "roots": ("verify",),
    "pack": ("verify", "analyze", "produce"),
}

# raw JSON text put in place of one value of the document
FRAGMENTS = {
    "deep": "[" * 200_000 + "]" * 200_000,
    "past-max-depth": "[" * 100 + "]" * 100,
    "float": "1.5",
    "exponent": "1e400",
    "nan": "NaN",
    "infinity": "-Infinity",
    "big-int": "1" + "0" * 5000,
    "wide-int": str(10**30),
    "lone-surrogate": '"pay(\\ud800)"',
    "empty-list": "[]",
    "empty-object": "{}",
    "string": '"x"',
    "integer": "0",
    "boolean": "true",
    "null": "null",
}
MUTATIONS = (*FRAGMENTS, "duplicate-key", "non-utf8", "truncate")
_HOLE = "@@mutation@@"
FRONT_MATTER = (b"---\n", b"\n---\n")


@pytest.fixture(scope="module")
def base(tmp_path_factory) -> Path:
    """A worked-skill bundle, a SKILL.md-only copy with its own bundle, the
    trust root that accepts both, and the default packs as files."""
    root = tmp_path_factory.mktemp("contract")
    private, public = mint_ephemeral_key()
    json_skill = write_worked_skill(root / "json", fixed=True)
    md_skill = root / "md"
    md_skill.mkdir()
    shutil.copy(json_skill / "summarise.py", md_skill)
    caps = sorted(WORKED_MANIFEST["caps"] + ["fs.write.rev(./.cache/)"])
    head, tail = FRONT_MATTER
    (md_skill / "SKILL.md").write_bytes(head + json.dumps({"caps": caps}).encode() + tail)
    for skill in (json_skill, md_skill):
        produce_formal_bundle(skill, parse_manifest(skill), private, "op", k_max=int(K_MAX))
    (root / "roots.json").write_text(json.dumps(trust_root_to_json(trust_root_for("op", public))))
    (root / "packs").mkdir()
    for pack in default_rule_packs():
        (root / "packs" / f"{pack.language}.json").write_text(json.dumps(pack.to_dict()))
    return root


def _path_keys(doc, path: list[int]) -> list:
    """The keys and indices that ``path`` chooses on the way down ``doc``."""
    keys, node = [], doc
    for choice in path:
        if not isinstance(node, (dict, list)) or not node:
            break
        key = list(node)[choice % len(node)] if isinstance(node, dict) else choice % len(node)
        keys.append(key)
        node = node[key]
    return keys


def _at(doc, keys: list):
    for key in keys:
        doc = doc[key]
    return doc


def _replaced(doc, keys: list, value):
    if not keys:
        return value
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[keys[0]] = _replaced(doc[keys[0]], keys[1:], value)
    return copy


def mutate(data: bytes, mutation: str, path: list[int], position: int, yaml: bool) -> bytes:
    """``data`` with one structural fault; ``yaml`` marks a SKILL.md, whose
    front-matter the base writes as JSON, which is also YAML."""
    if mutation == "non-utf8":
        at = position % (len(data) + 1)
        return data[:at] + b"\xff\xfe" + data[at:]
    if mutation == "truncate":
        return data[: position % (len(data) + 1)]
    head, tail = FRONT_MATTER if yaml else (b"", b"")
    doc = json.loads(data[len(head) : len(data) - len(tail)])
    keys = _path_keys(doc, path)
    if mutation == "duplicate-key":
        # every document here is an object, so some object is on the path
        while not isinstance(_at(doc, keys), dict):
            keys.pop()
        owner = _at(doc, keys)
        first = json.dumps(next(iter(owner), "k")) + ':["shadowed"]'
        fragment = "{" + first + ("," + json.dumps(owner)[1:] if owner else "}")
    elif yaml and mutation == "deep":
        fragment = "[" * 5000 + "]" * 5000  # YAML's parser is slower per level
    else:
        fragment = FRAGMENTS[mutation]
    text = json.dumps(_replaced(doc, keys, _HOLE)).replace(json.dumps(_HOLE), fragment, 1)
    return head + text.encode("utf-8") + tail


def run_main(argv: list[str]) -> tuple[int, bytes]:
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    stdout.flush()
    return code, stdout.buffer.getvalue()


def _argv(command: str, work: Path, skill: Path) -> list[str]:
    packs = ["--packs", str(work / "packs")]
    return {
        "verify": ["verify", str(skill), "--trust-roots", str(work / "roots.json"), *packs],
        "analyze": ["analyze", str(skill), *packs],
        "probe": ["probe", str(skill)],
        "bmc": ["bmc", str(skill), "--kmax", K_MAX],
        "produce": ["produce", str(skill), "--kmax", K_MAX, "--out", str(work / "out"), *packs],
    }[command]


target_commands = st.sampled_from(sorted(TARGETS)).flatmap(
    lambda t: st.tuples(st.just(t), st.sampled_from(COMMANDS[t]))
)


@settings(
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    target_commands,
    st.sampled_from(MUTATIONS),
    st.lists(st.integers(0, 15), max_size=4),
    st.integers(0, 10**6),
)
@example(("attest", "verify"), "deep", [], 0)
@example(("attest", "verify"), "float", [], 0)
@example(("skill.json", "analyze"), "deep", [], 0)
@example(("SKILL.md", "verify"), "lone-surrogate", [0, 0], 0)
@example(("roots", "verify"), "deep", [], 0)
@example(("pack", "analyze"), "deep", [], 0)
def test_cli_contract_holds_on_any_one_mutated_input(base, target_command, mutation, path, position):
    target, command = target_command
    with tempfile.TemporaryDirectory(dir=base) as scratch:
        work = Path(scratch)
        for name in ("json", "md", "packs"):
            shutil.copytree(base / name, work / name)
        shutil.copy(base / "roots.json", work)
        file = work / TARGETS[target]
        file.write_bytes(mutate(file.read_bytes(), mutation, path, position, target == "SKILL.md"))
        skill = work / ("md" if target == "SKILL.md" else "json")

        code, out = run_main(_argv(command, work, skill))

    assert code in (0, 1, 2)
    assert out.endswith(b"\n") and out.count(b"\n") == 1
    assert canonicalize(json.loads(out)) + b"\n" == out
    if command == "verify" and target not in OPERATOR_INPUTS:
        assert code != 2, out
