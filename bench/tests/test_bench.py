"""The benchmark's own tests: reproducible inputs, known answers that agree
with independent oracles, and a checker that notices wrong answers.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import posixpath
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import workloads
from measure import closed_loop

ROOT = Path(__file__).resolve().parents[2]


def tree_bytes(directory: Path) -> dict[str, bytes]:
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


# ---------------------------------------------------------------------------
# Same seed, same inputs
# ---------------------------------------------------------------------------


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    for name in ("load-verify", "publish-large"):
        trees = []
        for copy in ("a", "b"):
            workload = workloads.WORKLOADS[name](tmp_path / copy / name, 5)
            workload.setup()
            trees.append(tree_bytes(workload.work / "skills"))
        assert trees[0] == trees[1] and trees[0]
    assert inputs.dispatch_inputs(5) == inputs.dispatch_inputs(5)
    assert inputs.bmc_models(5) == inputs.bmc_models(5)


def test_other_seed_gives_other_content():
    assert inputs.dispatch_inputs(5) != inputs.dispatch_inputs(6)
    assert inputs.bmc_models(5) != inputs.bmc_models(6)
    texts = [[s.text for k in inputs.publish_skills(seed) for s in k.scripts] for seed in (5, 6)]
    assert texts[0] != texts[1]


# ---------------------------------------------------------------------------
# bmc-stateful: closed-form answers against a BFS over every trace
# ---------------------------------------------------------------------------


def bfs_oracle(spec: inputs.ModelSpec) -> dict:
    """Enumerate traces by length, each length in lexicographic order over
    (sorted kinds, OUT), stepping the family's wiring directly."""
    executes, audits, spurious = spec.wiring()
    alphabet = sorted(spec.kinds) + [inputs.OUT_KEY]
    explored = 0
    for length in range(1, spec.k_max + 1):
        for trace in itertools.product(alphabet, repeat=length):
            explored += 1
            count = 0
            for index, symbol in enumerate(trace):
                decision = "deny" if symbol == inputs.OUT_KEY else "admit"
                ran = executes(decision, count)
                extra = bool(spurious and spurious(decision, count))
                audited = audits(decision, count)
                changed = ran or extra
                if changed and audited and decision != "admit":
                    cls = "executed-but-deny"
                elif changed and not audited:
                    cls = "executed-without-audit"
                elif decision == "admit" and not audited:
                    cls = "admitted-without-audit"
                else:
                    count += ran + extra
                    continue
                return {"result": "sat", "explored": explored, "symbols": trace[: index + 1],
                        "index": index, "class": cls}
    return {"result": "unsat", "explored": explored}


SMALL_MODELS = [
    inputs.ModelSpec(family, kinds, k, param)
    for family in inputs.UNSAT_FAMILIES + tuple(sorted(inputs.SAT_FAMILIES))
    for kinds in (("net.egress",), ("fs.read", "pay"))
    for k in (3, 4)
    for param in range(1, k)
]


@pytest.mark.parametrize("spec", SMALL_MODELS, ids=lambda s: f"{s.family}-{len(s.kinds)}-{s.k_max}-{s.param}")
def test_bmc_known_answers_match_bfs_oracle_and_method_c(spec):
    assert spec.expected() == bfs_oracle(spec)
    from skillproof.bmc import method_c

    model = workloads.runtime_model(spec)
    assert workloads.bmc_answer_ok(spec, model, method_c(model, spec.kinds, spec.k_max))


def test_generated_bmc_models_match_bfs_oracle_where_small():
    for spec in inputs.bmc_models(3):
        if spec.sigma ** spec.k_max <= 5**5:
            assert spec.expected() == bfs_oracle(spec), spec


# ---------------------------------------------------------------------------
# dispatch-stream: by-construction labels against an independent matcher
# ---------------------------------------------------------------------------


def covers(cap: str, kind: str, value: str) -> bool:
    if "(" not in cap:
        return cap == kind
    cap_kind, pattern = cap[:-1].split("(", 1)
    if cap_kind != kind:
        return False
    key = inputs.KIND_ARG_KEY[kind]
    if key == "host":
        return value.endswith(pattern[1:]) and value != pattern[2:] if pattern.startswith("*.") else value == pattern
    if key == "path":
        norm = "./" + posixpath.normpath(value)
        return norm.startswith(pattern) if pattern.endswith("/") else norm == pattern
    return value == pattern


def test_dispatch_labels_match_independent_matcher_and_dispatch(tmp_path):
    manifests, stream = inputs.dispatch_inputs(9)
    workload = workloads.DispatchStream(tmp_path, 9)
    workload.setup()
    admitted = 0
    for item, (index, doc, admit) in enumerate(stream[:3000]):
        (value,) = doc["args"].values()
        assert any(covers(c, doc["op"], value) for c in manifests[index].caps) == admit, doc
        assert workload.check(item, workload.op(item)), doc
        admitted += admit
    assert 0.4 < admitted / 3000 < 0.6


# ---------------------------------------------------------------------------
# The checker reports wrong answers
# ---------------------------------------------------------------------------


def one_op_fails(workload, item) -> bool:
    loop = closed_loop([item], workload.op, workload.check, seconds=0)
    return loop.attempted == 1 and loop.failed == 1


def test_corrupted_expectations_are_reported_as_failures(tmp_path):
    verify = workloads.LoadVerify(tmp_path / "lv", 2)
    verify.setup()
    directory, (level, reasons), spec = verify.items[0]
    assert not one_op_fails(verify, 0)
    verify.items[0] = (directory, ("declared" if level == "formal" else "formal", reasons), spec)
    assert one_op_fails(verify, 0)

    bmc = workloads.BmcStateful(tmp_path / "bmc", 2)
    bmc.items = [(spec, workloads.runtime_model(spec)) for spec in inputs.bmc_models(2)]
    item = next(i for i, (spec, _) in enumerate(bmc.items) if spec.sat)
    assert not one_op_fails(bmc, item)
    spec, model = bmc.items[item]
    bmc.items[item] = (dataclasses.replace(spec, param=spec.param - 1), model)  # wrong witness
    assert one_op_fails(bmc, item)

    stream = workloads.DispatchStream(tmp_path / "ds", 2)
    stream.setup()
    index, doc, admit = stream.items[0]
    stream.items[0] = (index, doc, not admit)
    assert one_op_fails(stream, 0)

    publish = workloads.PublishLarge(tmp_path / "pl", 2)
    publish.setup()
    item = next(i for i, (_, _, s) in enumerate(publish.items) if s.undeclared)
    assert not one_op_fails(publish, item)
    spec = publish.items[item][2]
    spec.undeclared = dataclasses.replace(spec.undeclared, line=spec.undeclared.line + 1)
    assert one_op_fails(publish, item)


# ---------------------------------------------------------------------------
# End to end: every workload, zero failures, every declared metric
# ---------------------------------------------------------------------------


def run_bench(workload: str, trace: int, seed: int = inputs.DEFAULT_SEED) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_end_to_end_metric_without_failures(workload):
    result = run_bench(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("workload", ["load-verify", "publish-large"])
def test_traced_run_reports_every_layer_metric_and_golden_evidence(workload):
    result = run_bench(workload, 1)
    assert result["correct"] and result["failed"] == 0
    assert {m["name"] for m in SPEC["per_layer"]} == set(result["metrics"])
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["metrics"]["bundle.golden_mismatches"]["value"] == 0
    assert result["metrics"]["static_analysis.scan_ms"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "load-verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
