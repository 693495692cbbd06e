"""The four workloads: set-up, the timed op, and the known-answer check.

Every op calls skillproof through module attributes (``B.verify_formal_bundle``
rather than a name bound at import), so the traced run's span wrappers see
the same calls the untraced run makes.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns
from typing import Any

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

import inputs
from skillproof import bmc as C
from skillproof import bundle as B
from skillproof import errors as E
from skillproof import manifest as M
from skillproof import static_analysis as S
from skillproof.lattice import value_text

# The package re-exports the function ``dispatch`` under the module's name.
D = importlib.import_module("skillproof.dispatch")

SIGNER_ID = "bench-operator"
UNLISTED_SIGNER_ID = "bench-unlisted"
PUBLISH_K_MAX = 2


def fixed_key(label: str) -> Ed25519PrivateKey:
    return Ed25519PrivateKey.from_private_bytes(hashlib.sha256(label.encode()).digest())


SIGNER_KEY = fixed_key("skillproof-bench-operator")
UNLISTED_KEY = fixed_key("skillproof-bench-unlisted")
TRUST_ROOT = B.TrustRoot((B.TrustEntry(SIGNER_ID, B.public_key_b64(SIGNER_KEY.public_key()), "formal"),))


def bundle_digest(evidence_dir: Path) -> str:
    """SHA-256 over the four evidence files, slot by slot. A plain ``Path``,
    so that a traced run does not count these reads as the program's."""
    h = hashlib.sha256()
    for slot, name in B.SLOT_FILES.items():
        h.update(slot.encode() + b"\0" + hashlib.sha256((Path(evidence_dir) / name).read_bytes()).digest())
    return h.hexdigest()


def reported_effects(report) -> set[tuple[str, str]]:
    return {(t.kind, value_text(t.arg)) for es in report.per_script.values() for t in es.effects}


def static_report_ok(report, spec: inputs.SkillSpec) -> bool:
    return (
        report.verdict.contained
        and set(report.per_script) == {s.path for s in spec.scripts}
        and not any(es.tainted_top for es in report.per_script.values())
        and reported_effects(report) == spec.expected_effects()
    )


def prepare_verify_skill(spec: inputs.SkillSpec, directory: Path, seed: int) -> tuple[tuple, str]:
    """Write the skill, produce its bundle, then apply its tamper. Returns
    the expected (accepted level, reasons) and the untampered bundle digest."""
    spec.write(directory)
    unlisted = spec.tamper == "signer-not-authorised"
    produced = B.produce_formal_bundle(
        directory, M.parse_manifest(directory),
        UNLISTED_KEY if unlisted else SIGNER_KEY,
        UNLISTED_SIGNER_ID if unlisted else SIGNER_ID,
        k_max=spec.k_max,
    )
    digest = bundle_digest(produced.evidence_dir)
    if spec.tamper and spec.tamper.startswith("hash-mismatch:"):
        path = B.evidence_path(directory, spec.tamper.split(":", 1)[1])
        data = bytearray(path.read_bytes())
        data[inputs.sub_rng(seed, spec.name, "flip").randrange(len(data))] ^= 0x20
        path.write_bytes(bytes(data))
    elif spec.tamper == "method-A-cache-miss":
        # Shifting every line of a script with effects moves their provenance.
        script = next(s for s in spec.scripts if s.effects)
        path = directory / script.path
        marker = "// edited\n" if script.language == "node" else "# edited\n"
        path.write_text(marker + path.read_text())
    expected = ("declared", (spec.tamper,)) if spec.tamper else ("formal", ())
    return expected, digest


class Workload:
    name = ""
    tail_pct = 99.0
    home: tuple[str, ...] = ()  # workload-specific metrics its own ops measure

    def __init__(self, work: Path, seed: int) -> None:
        self.work, self.seed = work, seed
        self.items: list[Any] = []
        self.digests: dict[str, set[str]] = {}
        self.cli_skills: list[tuple[Path, tuple]] = []

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, item: int) -> Any:
        raise NotImplementedError

    def check(self, item: int, result: Any) -> bool:
        raise NotImplementedError

    def work_units(self, item: int) -> int:
        """Source lines (kloc_per_s) or traces explored (traces_per_s) per op."""
        return 0

    def prepare_cli_skills(self) -> None:
        """The cold-start probe's bundles: the load-verify skills at
        ``CLI_PROBE_INDICES`` for this seed."""
        root = self.work / "cli"
        for index in inputs.CLI_PROBE_INDICES:
            spec = inputs.load_verify_skill(self.seed, index)
            expected, _ = prepare_verify_skill(spec, root / spec.name, self.seed)
            self.cli_skills.append((root / spec.name, expected))


class LoadVerify(Workload):
    name = "load-verify"
    tail_pct = 95.0
    home = ("kloc_per_s",)

    def setup(self) -> None:
        for spec in inputs.load_verify_skills(self.seed):
            directory = self.work / "skills" / spec.name
            expected, digest = prepare_verify_skill(spec, directory, self.seed)
            self.items.append((directory, expected, spec))
            self.digests[spec.name] = {digest}
        self.cli_skills = [self.items[i][:2] for i in inputs.CLI_PROBE_INDICES]

    def op(self, item: int) -> Any:
        return B.verify_formal_bundle(self.items[item][0], TRUST_ROOT)

    def check(self, item: int, result: Any) -> bool:
        return (result.accepted_level, result.reasons) == self.items[item][1]

    def work_units(self, item: int) -> int:
        return self.items[item][2].lines


class PublishLarge(Workload):
    name = "publish-large"
    tail_pct = 75.0
    home = ("kloc_per_s",)

    def setup(self) -> None:
        for spec in inputs.publish_skills(self.seed):
            directory = spec.write(self.work / "skills" / spec.name)
            self.items.append((directory, M.parse_manifest(directory), spec))
        self.prepare_cli_skills()
        self.outputs = self.work / "out"
        self.op_count = 0

    def op(self, item: int) -> Any:
        directory, manifest, _ = self.items[item]
        self.op_count += 1
        try:
            return B.produce_formal_bundle(
                directory, manifest, SIGNER_KEY, SIGNER_ID, k_max=PUBLISH_K_MAX,
                out_dir=self.outputs / str(self.op_count),
            )
        except E.LayerFailed as exc:
            return exc

    def check(self, item: int, result: Any) -> bool:
        spec = self.items[item][2]
        if spec.undeclared is not None:
            if not isinstance(result, E.LayerFailed) or result.layer != "methodA":
                return False
            violations = result.verdict.violations
            if len(violations) != 1 or violations[0].kind != spec.undeclared.kind:
                return False
            where = violations[0].provenance[0]
            return (where.file, where.line) == (spec.undeclared.file, spec.undeclared.line)
        if not isinstance(result, B.ProducedBundle):
            return False
        ok = (
            static_report_ok(result.static_report, spec)
            and result.dispatch_verdict.passed
            and result.bmc_verdict.result == "unsat"
        )
        self.digests.setdefault(spec.name, set()).add(bundle_digest(result.evidence_dir))
        shutil.rmtree(result.evidence_dir.parent)
        return ok

    def work_units(self, item: int) -> int:
        return self.items[item][2].lines


def runtime_model(spec: inputs.ModelSpec) -> C.RuntimeModel:
    executes, audits, spurious = spec.wiring()
    extra = {"spurious": lambda d, w: spurious(d, w.executed_count)} if spurious else {}
    return C.RuntimeModel(
        name=spec.family,
        memoryless=False,
        executes=lambda d, w: executes(d, w.executed_count),
        audits=lambda d, w: audits(d, w.executed_count),
        **extra,
    )


def bmc_answer_ok(spec: inputs.ModelSpec, model: C.RuntimeModel, verdict) -> bool:
    want = spec.expected()
    ok = (
        verdict.result == want["result"]
        and verdict.traces_explored == verdict.traces_enumerated == want["explored"]
        and (verdict.k_max, verdict.alphabet_size) == (spec.k_max, spec.sigma)
    )
    if not ok or want["result"] == "unsat":
        return ok
    ce = verdict.counter_example
    return (
        (ce.symbols, ce.violation_index, ce.violation_class)
        == (want["symbols"], want["index"], want["class"])
        and C.replay_counter_example(model, ce)
    )


class BmcStateful(Workload):
    name = "bmc-stateful"
    tail_pct = 90.0
    home = ("traces_per_s",)

    def setup(self) -> None:
        self.items = [(spec, runtime_model(spec)) for spec in inputs.bmc_models(self.seed)]
        self.prepare_cli_skills()

    def op(self, item: int) -> Any:
        spec, model = self.items[item]
        return C.method_c(model, spec.kinds, spec.k_max)

    def check(self, item: int, result: Any) -> bool:
        return bmc_answer_ok(*self.items[item], result)

    def work_units(self, item: int) -> int:
        return self.items[item][0].expected()["explored"]


class DispatchStream(Workload):
    name = "dispatch-stream"
    tail_pct = 99.0  # p99.9 spread 0.36 between runs on a shared 2-vCPU VM
    home = ()

    def setup(self) -> None:
        manifests, stream = inputs.dispatch_inputs(self.seed)
        self.dispatchers = [
            D.build_refined_dispatch(M.manifest_from_json_doc(inputs.manifest_doc(f"ds-{i}", m.caps, 1)))
            for i, m in enumerate(manifests)
        ]
        self.items = stream
        self.prepare_cli_skills()

    def op(self, item: int) -> Any:
        index, doc, _ = self.items[item]
        return D.dispatch(self.dispatchers[index], D.envelope_from_dict(doc))

    def check(self, item: int, result: Any) -> bool:
        _, doc, admit = self.items[item]
        return isinstance(result, D.Admit) == admit and result.op == doc["op"]


WORKLOADS = {w.name: w for w in (LoadVerify, PublishLarge, BmcStateful, DispatchStream)}


# ---------------------------------------------------------------------------
# Side probes: samples of the workload-specific end-to-end metrics, taken
# between ops. On the workload whose own op measures a metric the probe is
# not used; the CLI cold start is a probe everywhere.
# ---------------------------------------------------------------------------


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_verify_once(root: Path, directory: Path, expected: tuple, roots_file: Path) -> tuple[float, bool]:
    """Cold start: ``python -m skillproof.cli verify --json`` in a fresh
    interpreter. Returns (ms, answer correct)."""
    if not roots_file.exists():
        roots_file.write_text(json.dumps(B.trust_root_to_json(TRUST_ROOT)))
    cmd = [sys.executable, "-m", "skillproof.cli", "verify", str(directory),
           "--trust-roots", str(roots_file), "--json"]
    t0 = perf_counter_ns()
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True, timeout=60)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return (perf_counter_ns() - t0) / 1e6, False
    ms = (perf_counter_ns() - t0) / 1e6
    level, reasons = expected
    try:
        doc = json.loads(proc.stdout)
        ok = (doc["accepted_level"], tuple(doc["reasons"])) == (level, reasons)
    except (ValueError, KeyError, TypeError):
        ok = False
    return ms, ok and proc.returncode == (0 if level == "formal" else 1)


def cli_import_ms(root: Path) -> list[float]:
    """``import skillproof.cli`` timed inside five fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import skillproof.cli; "
            "print((time.perf_counter() - t) * 1000)")
    out = []
    for _ in range(5):
        proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=child_env(root),
                              capture_output=True, text=True, timeout=60, check=True)
        out.append(float(proc.stdout.strip()))
    return out


def kloc_once(workload: Workload) -> tuple[int, int, bool]:
    """``method_a`` over the cold-start probe's skills: (lines, ns, correct)."""
    specs = {spec.name: spec for spec in (inputs.load_verify_skill(workload.seed, i)
                                          for i in inputs.CLI_PROBE_INDICES)}
    t0 = perf_counter_ns()
    reports = [S.method_a(d, M.parse_manifest(d)) for d, _ in workload.cli_skills]
    ns = perf_counter_ns() - t0
    ok = all(static_report_ok(r, specs[d.name]) for r, (d, _) in zip(reports, workload.cli_skills))
    return sum(s.lines for s in specs.values()), ns, ok


def traces_once(models: list[tuple[inputs.ModelSpec, C.RuntimeModel]]) -> tuple[int, int, bool]:
    """``method_c`` over non-memoryless UNSAT models: (traces explored, ns, correct)."""
    explored, ns, ok = 0, 0, True
    for spec, model in models:
        t0 = perf_counter_ns()
        verdict = C.method_c(model, spec.kinds, spec.k_max)
        ns += perf_counter_ns() - t0
        explored += verdict.traces_explored
        ok = ok and bmc_answer_ok(spec, model, verdict)
    return explored, ns, ok
