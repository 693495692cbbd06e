"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s``)."""

from __future__ import annotations

import json
import math
import random
import time
from contextlib import contextmanager
from pathlib import Path

from skillproof.bmc import (
    EMPTY_AUDIT,
    INITIAL_WORLD,
    MUTANT_MODELS,
    RuntimeModel,
    Symbol,
    faithful_runtime,
    method_c,
    replay_counter_example,
    step_model,
    violation_class,
    violation_predicate,
)
from skillproof.bundle import (
    SLOT_FILES,
    evidence_path,
    mint_ephemeral_key,
    produce_formal_bundle,
    verify_formal_bundle,
)
from skillproof.canonical import canonical_loads, canonicalize
from skillproof.dispatch import (
    Admit,
    Envelope,
    RefinementRejection,
    build_refined_dispatch,
    dispatch,
    method_b,
    raise_for_rejection,
)
from skillproof.errors import RefinementError
from skillproof.lattice import (
    BOTTOM,
    TOP,
    EffectTuple,
    HostGlob,
    Opaque,
    PathPrefix,
    Provenance,
    containment_check,
    effects_join,
    make_effect_set,
    value_leq,
    value_text,
)
from skillproof.manifest import (
    Label,
    Manifest,
    capability_kinds,
    declared_kinds,
    parse_capability_token,
    parse_manifest,
)
from skillproof.static_analysis import method_a
from tests.conftest import EXTENDED_CAP, trust_root_for, write_worked_skill
from tests.test_bmc import bfs_oracle


@contextmanager
def criterion(number: int, description: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL  {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"[criterion {number}] PASS  {description} ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 1. Worked-example reproduction
# ---------------------------------------------------------------------------


def test_criterion_1_worked_example(tmp_path: Path):
    with criterion(1, "worked-example reproduction, end to end under 5s"):
        started = time.perf_counter()
        skill = write_worked_skill(tmp_path / "skill", fixed=False)
        manifest = parse_manifest(skill)

        report = method_a(skill, manifest)
        effect_set = {
            (t.kind, value_text(t.arg))
            for t in report.per_script["summarise.py"].effects
        }
        assert effect_set == {
            ("net.egress", "*.example.com"),
            ("fs.read", "./.cache/"),
            ("fs.write.rev", "./.cache/"),
        }
        assert not report.verdict.contained
        assert [(v.kind, value_text(v.arg)) for v in report.verdict.violations] == [
            ("fs.write.rev", "./.cache/")
        ]

        # operator extends the declared set with the surfaced write
        doc = json.loads((skill / "skill.json").read_text())
        doc["caps"].append(EXTENDED_CAP)
        (skill / "skill.json").write_text(json.dumps(doc))
        manifest = parse_manifest(skill)

        assert method_a(skill, manifest).verdict.contained
        dispatch_verdict = method_b(manifest)
        assert dispatch_verdict.passed
        kinds = declared_kinds(manifest)
        bmc_verdict = method_c(faithful_runtime(kinds), kinds, 8)
        assert bmc_verdict.result == "unsat"

        private, public = mint_ephemeral_key()
        produce_formal_bundle(skill, manifest, private, "operator-root-2026", k_max=8)
        outcome = verify_formal_bundle(skill, trust_root_for("operator-root-2026", public))
        assert outcome.accepted_level == "formal" and outcome.reasons == ()

        assert time.perf_counter() - started < 5.0


# ---------------------------------------------------------------------------
# 2. BMC soundness suite
# ---------------------------------------------------------------------------


def test_criterion_2_bmc_soundness_suite():
    with criterion(2, "BMC soundness grid vs BFS oracle + mutant kills, under 30s"):
        started = time.perf_counter()
        for n_kinds in range(0, 5):
            kinds = [f"cap{i}" for i in range(n_kinds)]
            for k_max in range(1, 7):
                model = faithful_runtime(kinds)
                verdict = method_c(model, kinds, k_max)
                assert verdict.result == "unsat"
                geometric = sum((n_kinds + 1) ** n for n in range(1, k_max + 1))
                assert verdict.traces_explored == geometric
                oracle_count, oracle_found = bfs_oracle(model, kinds, k_max)
                assert oracle_count == geometric
                assert not oracle_found
        for d in range(1, 5):
            kinds = [f"cap{i}" for i in range(d)]
            for name, factory in MUTANT_MODELS.items():
                model = factory(kinds)
                verdict = method_c(model, kinds, 4)
                assert verdict.result == "sat", name
                ce = verdict.counter_example
                assert len(ce.symbols) <= 2, name
                assert replay_counter_example(model, ce), name
        assert time.perf_counter() - started < 30.0


# ---------------------------------------------------------------------------
# 3. Stress bound
# ---------------------------------------------------------------------------


def test_criterion_3_stress_bound():
    with criterion(3, "stress |kinds|=10, k_max=8 (11^8 regime) completes unsat"):
        kinds = [f"cap{i}" for i in range(10)]
        started = time.perf_counter()
        verdict = method_c(faithful_runtime(kinds), kinds, 8)
        wall = time.perf_counter() - started
        assert verdict.result == "unsat"
        assert verdict.alphabet_size == 11
        assert verdict.traces_explored == sum(11**n for n in range(1, 9))
        print(
            f"  stress wall time: {wall:.3f}s for {verdict.traces_explored} traces "
            f"({verdict.traces_enumerated} enumerated after class reduction)"
        )


# ---------------------------------------------------------------------------
# 4. Capacity bound
# ---------------------------------------------------------------------------


def _random_manifest(rng: random.Random) -> Manifest:
    pool = [
        "net.egress(*.example.com)",
        "net.egress",
        "fs.read(./.cache/)",
        "fs.read",
        "fs.write.rev(./.cache/)",
        "fs.write.irrev(./out/)",
        "tool.invoke(summarise)",
        "spawn.proc",
        "pay",
        "mutate.schema",
    ]
    chosen: dict[str, str] = {}
    for text in rng.sample(pool, rng.randint(0, len(pool))):
        chosen.setdefault(text, text)
    caps = tuple(parse_capability_token(t) for t in sorted(chosen))
    return Manifest(id=f"m{rng.randint(0, 999)}", caps=caps)


def test_criterion_4_capacity_bound():
    with criterion(4, "capacity formula exact + 1e5-envelope alphabet bound"):
        rng = random.Random(2026)
        for _ in range(50):
            manifest = _random_manifest(rng)
            verdict = method_b(manifest)
            kinds = set(declared_kinds(manifest))
            assert verdict.capacity_bits == math.log2(len(kinds) + 1)
            assert verdict.passed

        manifest = _random_manifest(rng)
        dispatcher = build_refined_dispatch(manifest)
        kinds = set(declared_kinds(manifest))
        hosts = ["api.example.com", "evil.com", "x.example.com", "example.com"]
        paths = ["./.cache/x", "./other/y", "./.cache/", "/abs/p"]
        targets = ["summarise", "other", "x"]
        outcomes: set[tuple] = set()
        for _ in range(100_000):
            op = rng.choice(capability_kinds())
            args: dict[str, str] = {}
            roll = rng.random()
            if roll < 0.85:
                args = {
                    "host": rng.choice(hosts),
                    "path": rng.choice(paths),
                    "target": rng.choice(targets),
                }
            result = dispatch(dispatcher, Envelope(op, args, reasoning=str(rng.random())))
            outcomes.add(("admit", result.op) if isinstance(result, Admit) else ("reject",))
        admitted = {o for o in outcomes if o[0] == "admit"}
        assert len(admitted) <= len(kinds)
        assert len(outcomes) <= len(kinds) + 1


# ---------------------------------------------------------------------------
# 5. Tamper matrix
# ---------------------------------------------------------------------------

_SLOT_REASONS = {
    "static": {"hash-mismatch:static"},
    "types": {"hash-mismatch:types"},
    "smt": {"hash-mismatch:smt"},
    "attest": {"sig-invalid", "signer-not-authorised"},
}


def test_criterion_5_tamper_matrix(tmp_path: Path):
    with criterion(5, "tamper matrix: 4 slots x 50 single-byte mutations, 200/200"):
        skill = write_worked_skill(tmp_path / "skill", fixed=True)
        manifest = parse_manifest(skill)
        private, public = mint_ephemeral_key()
        produce_formal_bundle(skill, manifest, private, "op")
        root = trust_root_for("op", public)
        assert verify_formal_bundle(skill, root).accepted_level == "formal"

        rng = random.Random(55)
        passed = 0
        for slot in SLOT_FILES:
            path = evidence_path(skill, slot)
            original = path.read_bytes()
            for _ in range(50):
                mutated = bytearray(original)
                pos = rng.randrange(len(mutated))
                new_byte = rng.randrange(256)
                while new_byte == mutated[pos]:
                    new_byte = rng.randrange(256)
                mutated[pos] = new_byte
                path.write_bytes(bytes(mutated))
                outcome = verify_formal_bundle(skill, root)
                assert outcome.accepted_level != "formal", (slot, pos)
                assert set(outcome.reasons) & _SLOT_REASONS[slot], (
                    slot,
                    pos,
                    outcome.reasons,
                )
                passed += 1
            path.write_bytes(original)
        assert passed == 200
        assert verify_formal_bundle(skill, root).accepted_level == "formal"


# ---------------------------------------------------------------------------
# 6. Drift detection
# ---------------------------------------------------------------------------


def test_criterion_6_drift_detection(tmp_path: Path):
    with criterion(6, "post-production script drift raises method-A-cache-miss"):
        skill = write_worked_skill(tmp_path / "skill", fixed=True)
        manifest = parse_manifest(skill)
        private, public = mint_ephemeral_key()
        produce_formal_bundle(skill, manifest, private, "op")
        root = trust_root_for("op", public)
        with (skill / "summarise.py").open("a") as fh:
            fh.write("\n\ndef drifted(url):\n    return requests.get(url)\n")
        outcome = verify_formal_bundle(skill, root)
        assert outcome.accepted_level == "declared"
        assert "method-A-cache-miss" in outcome.reasons
        # drift, not tamper: the evidence file still matches the attestation
        assert "hash-mismatch:static" not in outcome.reasons


# ---------------------------------------------------------------------------
# 7. Randomized law suites, 1e4 cases each
# ---------------------------------------------------------------------------

N_CASES = 10_000

_HOST_LABELS = ["a", "b", "api", "www", "example", "org", "com", "cdn"]
_PATH_SEGS = [".cache", "tmp", "data", "a", "b", "deep"]
_KIND_POOL = ["net.egress", "fs.read", "fs.write.rev", "fs.write.irrev", "pay"]


def _rand_value(rng: random.Random):
    roll = rng.random()
    if roll < 0.05:
        return BOTTOM
    if roll < 0.15:
        return TOP
    if roll < 0.45:
        body = ".".join(rng.choice(_HOST_LABELS) for _ in range(rng.randint(2, 4)))
        return HostGlob(("*." if rng.random() < 0.5 else "") + body)
    if roll < 0.75:
        text = "./" + "/".join(rng.choice(_PATH_SEGS) for _ in range(rng.randint(1, 4)))
        return PathPrefix(text + ("/" if rng.random() < 0.5 else ""))
    return Opaque(rng.choice(["x", "y", "cmd a", "probe"]))


def _weaken(v, rng: random.Random):
    """Some value that is >= v in the order."""
    if rng.random() < 0.2:
        return TOP
    if isinstance(v, HostGlob):
        labels = v.suffix.split(".")
        if len(labels) >= 3:
            return HostGlob("*." + ".".join(labels[1:]))
        return HostGlob("*." + v.suffix) if not v.is_wildcard else TOP
    if isinstance(v, PathPrefix):
        parts = v.prefix.rstrip("/").split("/")
        if len(parts) > 1:
            return PathPrefix("/".join(parts[:-1]) + "/")
        return TOP
    if v == BOTTOM:
        return _rand_value(rng)
    return v


def test_criterion_7_partial_order_laws():
    with criterion(7, f"partial-order laws, {N_CASES} random cases"):
        rng = random.Random(71)
        for _ in range(N_CASES):
            a = _rand_value(rng)
            assert value_leq(a, a)
            b = _weaken(a, rng) if rng.random() < 0.6 else _rand_value(rng)
            c = _weaken(b, rng) if rng.random() < 0.6 else _rand_value(rng)
            if value_leq(a, b) and value_leq(b, a):
                assert a == b
            if value_leq(a, b) and value_leq(b, c):
                assert value_leq(a, c)


def _rand_effect_set(rng: random.Random):
    tuples = [
        EffectTuple(
            rng.choice(_KIND_POOL),
            _rand_value(rng),
            Provenance(rng.choice(["a.py", "b.sh"]), rng.randint(1, 40), "r"),
        )
        for _ in range(rng.randint(0, 4))
    ]
    return make_effect_set(tuples, tainted_top=rng.random() < 0.1)


def test_criterion_7_join_semilattice_laws():
    with criterion(7, f"join semilattice laws, {N_CASES} random cases"):
        rng = random.Random(72)
        empty = make_effect_set([])
        for _ in range(N_CASES):
            a, b, c = (_rand_effect_set(rng) for _ in range(3))
            assert effects_join(a, b) == effects_join(b, a)
            assert effects_join(effects_join(a, b), c) == effects_join(a, effects_join(b, c))
            assert effects_join(a, a) == a
            assert effects_join(a, empty) == a
            if a.tainted_top or b.tainted_top:
                assert effects_join(a, b).tainted_top


def _strengthen(pattern, rng: random.Random):
    """A concrete-ish value that is <= the token pattern."""
    if pattern is None or isinstance(pattern, type(TOP)):
        return _rand_value(rng)
    if isinstance(pattern, HostGlob) and pattern.is_wildcard:
        return HostGlob(rng.choice(["api", "x", "probe"]) + "." + pattern.suffix)
    if isinstance(pattern, PathPrefix) and pattern.is_dir:
        return PathPrefix(pattern.prefix + rng.choice(["f", "g/h", "x"]))
    return pattern


def test_criterion_7_containment_monotonicity():
    with criterion(7, f"containment monotonicity, {N_CASES} random cases"):
        rng = random.Random(73)
        token_pool = [
            "net.egress(*.example.com)",
            "net.egress",
            "fs.read(./.cache/)",
            "fs.write.rev(./.cache/)",
            "fs.write.irrev",
            "pay",
        ]
        extras_pool = ["mutate.schema", "tool.invoke", "spawn.proc"]
        prov = Provenance("s.py", 1, "r")
        for _ in range(N_CASES):
            declared = tuple(
                parse_capability_token(t)
                for t in rng.sample(token_pool, rng.randint(1, len(token_pool)))
            )
            e2_tuples = [
                EffectTuple(tok.kind, _strengthen(tok.arg_pattern, rng), prov)
                for tok in rng.choices(declared, k=rng.randint(0, 4))
            ]
            e2 = make_effect_set(e2_tuples)
            assert containment_check(e2, declared).contained
            # e1 covered tuple-wise by e2 stays contained
            e1 = make_effect_set(
                [EffectTuple(t.kind, _strengthen_value(t.arg, rng), prov)
                 for t in e2.effects if rng.random() < 0.7]
            )
            assert containment_check(e1, declared).contained
            # over-declaration never flips containment
            extended = declared + tuple(
                parse_capability_token(t) for t in rng.sample(extras_pool, rng.randint(0, 3))
            )
            assert containment_check(e2, extended).contained


def _strengthen_value(v, rng: random.Random):
    """A value <= v (tightening an effect argument)."""
    if rng.random() < 0.1:
        return BOTTOM
    if isinstance(v, HostGlob) and v.is_wildcard and rng.random() < 0.5:
        return HostGlob("sub." + v.suffix)
    if isinstance(v, PathPrefix) and v.is_dir and rng.random() < 0.5:
        return PathPrefix(v.prefix + "leaf")
    return v


def _rand_doc(rng: random.Random, depth: int = 0):
    roll = rng.random()
    if depth >= 3 or roll < 0.45:
        return rng.choice(
            [None, True, False, rng.randint(-10**9, 10**9), "", "text", "k\n\t", "héllo", '"q"']
        )
    if roll < 0.7:
        return [_rand_doc(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    return {
        rng.choice(["a", "b", "zz", "k\n", "0", "é"]): _rand_doc(rng, depth + 1)
        for _ in range(rng.randint(0, 4))
    }


def test_criterion_7_canonicalization_idempotence():
    with criterion(7, f"canonicalization idempotence, {N_CASES} random cases"):
        rng = random.Random(74)
        for _ in range(N_CASES):
            doc = _rand_doc(rng)
            once = canonicalize(doc)
            assert canonicalize(canonical_loads(once)) == once


_DET_SCRIPTS = [
    ('open("./.cache/out.txt", "w")\n', "fs.write.rev(./.cache/)"),
    ('requests.get("https://api.example.com/x")\n', "net.egress(*.example.com)"),
    ('open("./data/in.txt", "r")\n', "fs.read(./data/)"),
]


def test_criterion_7_produce_determinism(tmp_path: Path):
    with criterion(7, f"produce determinism, {N_CASES} random cases"):
        rng = random.Random(75)
        private, _ = mint_ephemeral_key()
        skill = tmp_path / "skill"
        skill.mkdir()
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        extras = ["pay", "mutate.schema", "tool.invoke", "spawn.proc", "fs.write.irrev"]
        for case in range(N_CASES):
            script, needed = _DET_SCRIPTS[rng.randrange(len(_DET_SCRIPTS))]
            caps = {needed}
            caps.update(rng.sample(extras, rng.randint(0, 2)))
            manifest = Manifest(
                id=f"skill-{case}",
                label=Label(rng.choice(["public", "secret"]), (), ()),
                caps=tuple(sorted((parse_capability_token(c) for c in caps),
                                  key=lambda t: t.kind)),
                verification="tested",
                version=rng.randint(0, 9),
                signer="op",
            )
            (skill / "run.py").write_text(script)
            b1 = produce_formal_bundle(skill, manifest, private, "op", k_max=2, out_dir=out1)
            b2 = produce_formal_bundle(skill, manifest, private, "op", k_max=2, out_dir=out2)
            for slot in SLOT_FILES:
                assert b1.files[slot].read_bytes() == b2.files[slot].read_bytes(), (
                    case,
                    slot,
                )


# ---------------------------------------------------------------------------
# 8. Behaviour-class checklist
# ---------------------------------------------------------------------------


def test_criterion_8_behaviour_class_checklist(tmp_path: Path):
    with criterion(8, "behaviour-class checklist coverage"):
        checklist: list[str] = []

        # pattern matches
        from skillproof.static_analysis import Script, analyze_script, default_rule_packs

        py_pack = default_rule_packs()[0]
        es = analyze_script(
            Script("s.py", "python", 'requests.get("https://api.example.com/x")\n'),
            py_pack,
        )
        assert {(t.kind, t.arg) for t in es.effects} == {
            ("net.egress", HostGlob("api.example.com"))
        }
        checklist.append("pattern-matches")

        # refinement-boundary rejections
        manifest = Manifest(id="m", caps=(parse_capability_token("fs.read(./.cache/)"),))
        dispatcher = build_refined_dispatch(manifest)
        rejection = dispatch(dispatcher, Envelope("pay"))
        assert isinstance(rejection, RefinementRejection)
        try:
            raise_for_rejection(rejection)
            raise AssertionError("shim did not raise")
        except RefinementError:
            pass
        checklist.append("refinement-boundary-rejections")

        # the three biconditional-violation classes
        deny_exec = RuntimeModel(
            "m1", False, lambda d, w: True, lambda d, w: True
        )
        out_step = step_model(deny_exec, INITIAL_WORLD, EMPTY_AUDIT, Symbol(None), 0)
        assert violation_predicate(out_step) and violation_class(out_step) == "executed-but-deny"
        silent_exec = RuntimeModel(
            "m2", False, lambda d, w: d == "admit", lambda d, w: d != "admit"
        )
        in_step = step_model(silent_exec, INITIAL_WORLD, EMPTY_AUDIT, Symbol("pay"), 0)
        assert violation_predicate(in_step) and violation_class(in_step) == "executed-without-audit"
        lazy = RuntimeModel(
            "m3", False, lambda d, w: False, lambda d, w: d != "admit"
        )
        lazy_step = step_model(lazy, INITIAL_WORLD, EMPTY_AUDIT, Symbol("pay"), 0)
        assert violation_predicate(lazy_step) and violation_class(lazy_step) == "admitted-without-audit"
        checklist.append("biconditional-violation-classes")

        # sign/verify round-trips: in-set and unauthorized signers
        skill = write_worked_skill(tmp_path / "skill", fixed=True)
        m = parse_manifest(skill)
        private, public = mint_ephemeral_key()
        produce_formal_bundle(skill, m, private, "op")
        assert (
            verify_formal_bundle(skill, trust_root_for("op", public)).accepted_level
            == "formal"
        )
        degraded = verify_formal_bundle(
            skill, trust_root_for("op", public, max_level="tested")
        )
        assert degraded.reasons == ("signer-not-authorised",)
        checklist.append("sign-verify-round-trips")

        # per-slot tamper
        for slot, reasons in _SLOT_REASONS.items():
            path = evidence_path(skill, slot)
            original = path.read_bytes()
            mutated = bytearray(original)
            mutated[0] ^= 0x04
            path.write_bytes(bytes(mutated))
            outcome = verify_formal_bundle(skill, trust_root_for("op", public))
            assert outcome.accepted_level != "formal" and set(outcome.reasons) & reasons
            path.write_bytes(original)
        checklist.append("per-slot-tamper")

        # drift cache-miss
        with (skill / "summarise.py").open("a") as fh:
            fh.write("\nrequests.post(endpoint)\n")
        outcome = verify_formal_bundle(skill, trust_root_for("op", public))
        assert "method-A-cache-miss" in outcome.reasons
        checklist.append("drift-cache-miss")

        assert checklist == [
            "pattern-matches",
            "refinement-boundary-rejections",
            "biconditional-violation-classes",
            "sign-verify-round-trips",
            "per-slot-tamper",
            "drift-cache-miss",
        ]
        for item in checklist:
            print(f"  checklist: {item} covered")
