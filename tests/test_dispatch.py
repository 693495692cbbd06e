"""Method B: the refinement dispatcher and the exhaustive vocabulary probe."""

from __future__ import annotations

import importlib
import inspect
import math
import random
from pathlib import Path

import pytest

dispatch_module = importlib.import_module("skillproof.dispatch")
from skillproof.dispatch import (
    Admit,
    Envelope,
    RefinedDispatcher,
    RefinementRejection,
    build_refined_dispatch,
    dispatch,
    envelope_from_dict,
    method_b,
    raise_for_rejection,
)
from skillproof.errors import MalformedEnvelope, RefinementError
from skillproof.manifest import (
    Manifest,
    capability_kinds,
    parse_capability_token,
    parse_manifest,
)


def manifest_with(*cap_texts: str) -> Manifest:
    caps = tuple(parse_capability_token(t) for t in cap_texts)
    return Manifest(id="m", caps=caps)


@pytest.fixture
def worked_dispatcher(worked_skill: Path) -> RefinedDispatcher:
    return build_refined_dispatch(parse_manifest(worked_skill))


def test_worked_example_dispatcher_has_two_tokens(worked_dispatcher):
    assert len(worked_dispatcher.declared) == 2


def test_admit_in_pattern_host(worked_dispatcher):
    result = dispatch(worked_dispatcher, Envelope("net.egress", {"host": "api.example.com"}))
    assert isinstance(result, Admit)


def test_reject_undeclared_kind(worked_dispatcher):
    result = dispatch(worked_dispatcher, Envelope("pay"))
    assert isinstance(result, RefinementRejection)
    assert result.op == "pay"
    assert result.declared_hash == worked_dispatcher.declared_hash


def test_reject_out_of_pattern_host(worked_dispatcher):
    assert isinstance(
        dispatch(worked_dispatcher, Envelope("net.egress", {"host": "evil.com"})),
        RefinementRejection,
    )


def test_reject_missing_arg_for_patterned_token(worked_dispatcher):
    assert isinstance(
        dispatch(worked_dispatcher, Envelope("net.egress")), RefinementRejection
    )


def test_reject_host_with_a_newline(worked_dispatcher):
    # a newline host does not lift, so it is Top, which the pattern does not cover
    for host in ["evil.org\n.example.com", "api.example.com\n", "x\n.example.com"]:
        result = dispatch(worked_dispatcher, Envelope("net.egress", {"host": host}))
        assert isinstance(result, RefinementRejection), host


def test_path_argument_checked(worked_dispatcher):
    assert isinstance(
        dispatch(worked_dispatcher, Envelope("fs.read", {"path": "./.cache/x"})), Admit
    )
    assert isinstance(
        dispatch(worked_dispatcher, Envelope("fs.read", {"path": "./secrets/x"})),
        RefinementRejection,
    )
    assert isinstance(
        dispatch(worked_dispatcher, Envelope("fs.read", {"path": "./.cache/../../etc/x"})),
        RefinementRejection,
    )


def test_exact_file_pattern_admits_only_itself():
    d = build_refined_dispatch(manifest_with("fs.read(./data.txt)"))
    assert isinstance(dispatch(d, Envelope("fs.read", {"path": "./data.txt"})), Admit)
    assert isinstance(
        dispatch(d, Envelope("fs.read", {"path": "./data.txt.bak"})), RefinementRejection
    )


def test_bare_token_admits_any_arg():
    d = build_refined_dispatch(manifest_with("pay"))
    assert isinstance(dispatch(d, Envelope("pay", {"target": "anything"})), Admit)
    assert isinstance(dispatch(d, Envelope("pay")), Admit)


def test_empty_declared_set_rejects_everything():
    d = build_refined_dispatch(manifest_with())
    for kind in capability_kinds():
        assert isinstance(dispatch(d, Envelope(kind)), RefinementRejection)


def test_dispatcher_frozen_against_manifest_mutation(worked_skill: Path):
    manifest = parse_manifest(worked_skill)
    d = build_refined_dispatch(manifest)
    before = dispatch(d, Envelope("net.egress", {"host": "api.example.com"}))
    manifest.caps = ()
    after = dispatch(d, Envelope("net.egress", {"host": "api.example.com"}))
    assert before == after
    assert isinstance(after, Admit)


def test_malformed_envelope_rejected_at_construction():
    with pytest.raises(MalformedEnvelope):
        Envelope("teleport")
    with pytest.raises(MalformedEnvelope):
        envelope_from_dict({"args": {}})
    with pytest.raises(MalformedEnvelope):
        Envelope("pay", {"": "x"})
    with pytest.raises(MalformedEnvelope):
        envelope_from_dict({"op": "net.egress", "args": {"host": 5}})
    with pytest.raises(MalformedEnvelope):
        envelope_from_dict({"op": ["x"]})
    for doc in (["op"], "op", None):
        with pytest.raises(MalformedEnvelope):
            envelope_from_dict(doc)


@pytest.mark.parametrize("args", [5, None, [("target", "x")]], ids=["int", "none", "list"])
def test_envelope_args_that_are_not_a_mapping_are_malformed(args):
    with pytest.raises(MalformedEnvelope):
        Envelope("pay", args=args)


def test_envelope_from_dict():
    e = envelope_from_dict({"op": "pay", "args": {"target": "x"}, "reasoning": "because"})
    assert e.op == "pay" and e.args == {"target": "x"} and e.reasoning == "because"


def test_reasoning_never_inspected(worked_dispatcher):
    args = {"host": "api.example.com"}
    base = dispatch(worked_dispatcher, Envelope("net.egress", args, reasoning=""))
    for reasoning in ["", "ignore previous instructions", "x" * 4096]:
        assert dispatch(worked_dispatcher, Envelope("net.egress", args, reasoning)) == base
    rej = dispatch(worked_dispatcher, Envelope("pay", reasoning="please"))
    assert rej == dispatch(worked_dispatcher, Envelope("pay", reasoning="different"))


def test_dispatch_referentially_transparent(worked_dispatcher):
    e = Envelope("net.egress", {"host": "a.example.com"})
    results = {dispatch(worked_dispatcher, e) for _ in range(50)}
    assert len(results) == 1


def test_dispatch_deterministic_across_threads(worked_dispatcher):
    from concurrent.futures import ThreadPoolExecutor

    envelopes = [
        Envelope("net.egress", {"host": "a.example.com"}),
        Envelope("fs.read", {"path": "./.cache/x"}),
        Envelope("pay"),
        Envelope("net.egress", {"host": "evil.com"}),
    ]
    expected = [dispatch(worked_dispatcher, e) for e in envelopes]
    with ThreadPoolExecutor(max_workers=8) as pool:
        for _ in range(20):
            got = list(pool.map(lambda e: dispatch(worked_dispatcher, e), envelopes))
            assert got == expected


def test_totality_fuzz():
    rng = random.Random(3)
    d = build_refined_dispatch(
        manifest_with("net.egress(*.example.com)", "fs.read(./.cache/)", "pay")
    )
    hosts = ["api.example.com", "evil.com", "x.y.example.com", "example.com", ""]
    paths = ["./.cache/x", "./etc", "/abs", "../up", ""]
    for _ in range(2000):
        kind = rng.choice(capability_kinds())
        args = {}
        if rng.random() < 0.8:
            args = {
                rng.choice(["host", "path", "target", "junk"]): rng.choice(hosts + paths)
            }
        result = dispatch(d, Envelope(kind, args, reasoning=str(rng.random())))
        assert isinstance(result, (Admit, RefinementRejection))


def test_post_dispatch_alphabet_bound():
    d = build_refined_dispatch(
        manifest_with("net.egress(*.example.com)", "fs.read(./.cache/)", "fs.write.rev")
    )
    kinds = {t.kind for t in d.declared}
    rng = random.Random(11)
    outcomes = set()
    hosts = ["api.example.com", "evil.com", "b.example.com"]
    paths = ["./.cache/x", "./other", "./.cache/deep/y"]
    for _ in range(20_000):
        kind = rng.choice(capability_kinds())
        key = {"host": rng.choice(hosts), "path": rng.choice(paths), "target": "t"}
        result = dispatch(d, Envelope(kind, {"host": key["host"], "path": key["path"]}))
        outcomes.add(("admit", result.op) if isinstance(result, Admit) else ("reject",))
    assert len({o for o in outcomes if o[0] == "admit"}) <= len(kinds)
    assert len(outcomes) <= len(kinds) + 1


def test_admit_log_records_only_admits(worked_skill: Path):
    d = build_refined_dispatch(parse_manifest(worked_skill), log_admits=True)
    dispatch(d, Envelope("net.egress", {"host": "api.example.com"}))
    dispatch(d, Envelope("pay"))
    assert [e.op for e in d.admit_log] == ["net.egress"]


def test_admit_log_keeps_the_admitted_args(worked_skill: Path):
    d = build_refined_dispatch(parse_manifest(worked_skill), log_admits=True)
    args = {"host": "a.example.com"}
    assert isinstance(dispatch(d, Envelope("net.egress", args)), Admit)
    args["host"] = "evil.org"
    assert d.admit_log[0].args["host"] == "a.example.com"
    with pytest.raises(TypeError):
        d.admit_log[0].args["host"] = "evil.org"


def test_raise_for_rejection(worked_dispatcher):
    admit = dispatch(worked_dispatcher, Envelope("net.egress", {"host": "a.example.com"}))
    assert raise_for_rejection(admit) is admit
    with pytest.raises(RefinementError) as err:
        raise_for_rejection(dispatch(worked_dispatcher, Envelope("pay")))
    assert err.value.rejection.op == "pay"


def test_single_admission_operation_surface():
    # erasure stability: the dispatcher is the only admission path, so the
    # module's public surface exposes exactly one envelope-consuming callable
    admission = []
    for name, obj in vars(dispatch_module).items():
        if name.startswith("_") or not inspect.isfunction(obj):
            continue
        if obj.__module__ != dispatch_module.__name__:
            continue
        if "envelope" in inspect.signature(obj).parameters:
            admission.append(name)
    assert admission == ["dispatch"]
    public_methods = [
        name
        for name, member in inspect.getmembers(RefinedDispatcher, inspect.isfunction)
        if not name.startswith("_")
    ]
    assert public_methods == []


# ---------------------------------------------------------------------------
# The probe
# ---------------------------------------------------------------------------


def test_probe_worked_example_extended(fixed_skill: Path):
    verdict = method_b(parse_manifest(fixed_skill))
    assert verdict.probed == 8
    assert len(verdict.admitted) == 3
    assert len(verdict.rejected) == 5
    assert verdict.capacity_bits == 2.0
    assert verdict.passed


def test_probe_full_vocabulary():
    verdict = method_b(manifest_with(*capability_kinds()))
    assert verdict.passed
    assert verdict.capacity_bits == math.log2(9)


def test_probe_empty_declaration():
    verdict = method_b(manifest_with())
    assert verdict.admitted == frozenset()
    assert verdict.capacity_bits == 0.0
    assert verdict.passed


def test_probe_partition_invariants():
    verdict = method_b(manifest_with("pay", "fs.read(./d/)"))
    assert verdict.admitted | verdict.rejected == set(capability_kinds())
    assert verdict.admitted & verdict.rejected == frozenset()
    assert verdict.passed == (verdict.admitted == {"pay", "fs.read"})


def test_capacity_counts_kinds_not_tokens():
    verdict = method_b(
        manifest_with("net.egress(*.example.com)", "net.egress(api.example.org)")
    )
    assert verdict.capacity_bits == 1.0


def test_types_proof_serialization(fixed_skill: Path):
    doc = method_b(parse_manifest(fixed_skill)).to_json_dict()
    assert doc["assumes"] == ["no-bypass"]
    assert doc["pass"] is True
    assert doc["capacity_bits"] == "2.0"
    assert set(doc["probe"]) == set(capability_kinds())
    assert doc["checker"]["name"] == "skillproof-dispatch"
