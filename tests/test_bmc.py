"""Method C: model stepping, the violation predicate, and the enumerator,
cross-checked against an independent breadth-first oracle."""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import replace

import pytest

from skillproof.bmc import (
    EMPTY_AUDIT,
    INITIAL_WORLD,
    MUTANT_MODELS,
    RuntimeModel,
    Symbol,
    WorldState,
    alphabet,
    faithful_runtime,
    instance_hash,
    method_c,
    mutant_execute_on_deny,
    mutant_skip_audit_on_admit,
    replay_counter_example,
    run_trace,
    step_model,
    violation_class,
    violation_predicate,
)
from skillproof.canonical import document_hash
from skillproof.errors import BoundTooLarge

KINDS2 = ["fs.read", "net.egress"]
KINDS3 = ["fs.read", "fs.write.rev", "net.egress"]


def unpruned(model: RuntimeModel) -> RuntimeModel:
    """The same wiring with class pruning disabled."""
    return RuntimeModel(
        name=model.name + "-unpruned",
        memoryless=False,
        executes=model.executes,
        audits=model.audits,
        spurious=model.spurious,
    )


# ---------------------------------------------------------------------------
# Independent breadth-first oracle
# ---------------------------------------------------------------------------


def bfs_oracle(model: RuntimeModel, kinds, k_max: int) -> tuple[int, bool]:
    """Enumerate every trace of length 1..k_max breadth-first and step each
    one through the model; returns (trace count, any violation found)."""
    sigma = alphabet(kinds)
    count = 0
    found = False
    queue: deque[tuple[Symbol, ...]] = deque([()])
    while queue:
        prefix = queue.popleft()
        if len(prefix) == k_max:
            continue
        for symbol in sigma:
            trace = prefix + (symbol,)
            count += 1
            _, violation = run_trace(model, trace)
            if violation is not None:
                found = True
            queue.append(trace)
    return count, found


# ---------------------------------------------------------------------------
# Stepping and the predicate
# ---------------------------------------------------------------------------


def test_gate_admits_declared_denies_out():
    model = faithful_runtime(KINDS3)
    assert model.gate(Symbol("fs.read"), INITIAL_WORLD) == "admit"
    assert model.gate(Symbol(None), INITIAL_WORLD) == "deny"


def test_hand_stepped_trace_world_and_audit():
    model = faithful_runtime(KINDS2)
    trace = (Symbol("fs.read"), Symbol(None))
    outcomes, violation = run_trace(model, trace)
    assert violation is None
    assert outcomes[0].decision == "admit"
    assert outcomes[0].world_after == WorldState(1, ("fs.read",))
    assert outcomes[1].decision == "deny"
    assert outcomes[1].world_after == outcomes[1].world_before
    assert outcomes[1].audit.records == (("fs.read", "admit"), ("OUT", "deny"))


def test_world_state_invariant():
    w = INITIAL_WORLD.executed("fs.read").executed("spurious")
    assert w.executed_count == len(w.executed_effects) == 2


def test_faithful_steps_never_violate():
    model = faithful_runtime(KINDS3)
    world, audit = INITIAL_WORLD, EMPTY_AUDIT
    for i, symbol in enumerate([Symbol("fs.read"), Symbol(None), Symbol("net.egress")]):
        outcome = step_model(model, world, audit, symbol, i)
        assert not violation_predicate(outcome)
        world, audit = outcome.world_after, outcome.audit


def test_execute_on_deny_violates_at_first_out():
    model = mutant_execute_on_deny(KINDS2)
    outcome = step_model(model, INITIAL_WORLD, EMPTY_AUDIT, Symbol(None), 0)
    assert violation_predicate(outcome)
    assert violation_class(outcome) == "executed-but-deny"


def test_deny_with_log_is_legal():
    model = faithful_runtime(KINDS2)
    outcome = step_model(model, INITIAL_WORLD, EMPTY_AUDIT, Symbol(None), 0)
    assert outcome.world_after == outcome.world_before
    assert outcome.audit_appended == ("OUT", "deny")
    assert not violation_predicate(outcome)


def test_skip_audit_classifies_executed_without_audit():
    model = mutant_skip_audit_on_admit(KINDS2)
    outcome = step_model(model, INITIAL_WORLD, EMPTY_AUDIT, Symbol("fs.read"), 0)
    assert violation_predicate(outcome)
    assert violation_class(outcome) == "executed-without-audit"


def test_admitted_without_audit_class():
    # admit goes unrecorded and nothing executes: pure bookkeeping violation
    lazy = RuntimeModel(
        name="lazy-unlogged-admit",
        memoryless=False,
        executes=lambda decision, world: False,
        audits=lambda decision, world: decision != "admit",
    )
    outcome = step_model(lazy, INITIAL_WORLD, EMPTY_AUDIT, Symbol("fs.read"), 0)
    assert violation_predicate(outcome)
    assert violation_class(outcome) == "admitted-without-audit"


def test_audit_log_append_only():
    log = EMPTY_AUDIT.append("fs.read", "admit")
    longer = log.append("OUT", "deny")
    assert log.records == (("fs.read", "admit"),)
    assert longer.records[0] == ("fs.read", "admit")


# ---------------------------------------------------------------------------
# method_c verdicts
# ---------------------------------------------------------------------------


def test_faithful_unsat_with_geometric_count():
    verdict = method_c(faithful_runtime(KINDS3), KINDS3, 4)
    assert verdict.result == "unsat"
    assert verdict.traces_explored == 4 + 16 + 64 + 256 == 340
    assert verdict.alphabet_size == 4


def test_counts_match_bfs_oracle_grid():
    for n_kinds in range(0, 5):
        kinds = [f"k{i}" for i in range(n_kinds)]
        for k_max in range(1, 5):
            model = faithful_runtime(kinds)
            verdict = method_c(model, kinds, k_max)
            oracle_count, oracle_found = bfs_oracle(model, kinds, k_max)
            assert verdict.result == "unsat"
            assert not oracle_found
            assert verdict.traces_explored == oracle_count


def test_mutants_sat_minimal_and_replay_valid():
    for name, factory in MUTANT_MODELS.items():
        model = factory(KINDS2)
        verdict = method_c(model, KINDS2, 4)
        assert verdict.result == "sat", name
        ce = verdict.counter_example
        assert len(ce.symbols) <= 2, name
        assert replay_counter_example(model, ce), name
        _, oracle_found = bfs_oracle(model, KINDS2, 2)
        assert oracle_found, name


def test_minimal_witness_is_leftmost_lowest_depth():
    # this stateful mutant only misbehaves after one successful admit, so the
    # shortest counter-example has length 2 and starts with the first symbol
    stateful = RuntimeModel(
        name="deny-exec-after-first-admit",
        memoryless=False,
        executes=lambda decision, world: decision == "admit" or world.executed_count >= 1,
        audits=lambda decision, world: True,
    )
    verdict = method_c(stateful, KINDS2, 4)
    assert verdict.result == "sat"
    assert verdict.counter_example.symbols == ("fs.read", "OUT")
    assert verdict.counter_example.violation_index == 1
    assert replay_counter_example(stateful, verdict.counter_example)


def test_pruned_equals_unpruned_for_small_alphabets():
    for n_kinds in range(0, 4):
        kinds = [f"k{i}" for i in range(n_kinds)]
        for k_max in range(1, 7):
            pruned = method_c(faithful_runtime(kinds), kinds, k_max)
            raw = method_c(unpruned(faithful_runtime(kinds)), kinds, k_max)
            assert pruned.result == raw.result == "unsat"
            assert pruned.traces_explored == raw.traces_explored
            assert pruned.traces_enumerated <= raw.traces_enumerated
            assert pruned.instance_hash == raw.instance_hash
            # The mutants' wiring ignores the world, so class pruning is sound
            # for them too and must find the same witness. traces_explored is
            # not compared: on a SAT verdict the pruned count includes the
            # witness's whole symbol class (skip-audit-on-admit with 2 kinds
            # at k_max=1 explores 2 pruned, 1 unpruned).
            for name, factory in MUTANT_MODELS.items():
                pruned = method_c(replace(factory(kinds), memoryless=True), kinds, k_max)
                raw = method_c(factory(kinds), kinds, k_max)
                assert pruned.result == raw.result, name
                if raw.result == "sat":
                    assert (
                        pruned.counter_example.to_json_dict()
                        == raw.counter_example.to_json_dict()
                    ), name


WIRINGS = {
    "never": lambda decision, world: False,
    "always": lambda decision, world: True,
    "on-admit": lambda decision, world: decision == "admit",
    "on-deny": lambda decision, world: decision == "deny",
}


def test_length_one_decision_equals_enumeration_for_every_memoryless_wiring():
    # every wiring that ignores the world: executes, audits and spurious each
    # one of four predicates on the decision, 64 wirings in all
    for (ex, executes), (au, audits), (sp, spurious) in itertools.product(
        WIRINGS.items(), repeat=3
    ):
        model = RuntimeModel(f"{ex}/{au}/{sp}", True, executes, audits, spurious)
        for n_kinds in range(0, 4):
            kinds = [f"k{i}" for i in range(n_kinds)]
            for k_max in range(1, 5):
                decided = method_c(model, kinds, k_max)
                raw = method_c(unpruned(model), kinds, k_max)
                case = (model.name, n_kinds, k_max)
                assert decided.result == raw.result, case
                if raw.result == "sat":
                    assert (
                        decided.counter_example.to_json_dict()
                        == raw.counter_example.to_json_dict()
                    ), case
                else:
                    assert decided.traces_explored == raw.traces_explored, case


def test_each_prefix_stepped_once_per_pass():
    calls = 0

    def executes(decision, world):
        nonlocal calls
        calls += 1
        return decision == "admit"

    counting = RuntimeModel(
        name="counting-faithful",
        memoryless=False,
        executes=executes,
        audits=lambda decision, world: True,
    )
    verdict = method_c(counting, KINDS2, 4)
    assert verdict.result == "unsat"
    # the pass for length n steps each prefix of length <= n once, so all
    # passes together step at most 2 * (3 + 9 + 27 + 81) times; re-stepping
    # every trace from the initial world costs sum(n * 3^n) = 426
    assert calls <= 2 * sum(3**n for n in range(1, 5)) == 240


def test_instance_hash_deterministic_and_canonical():
    a = method_c(faithful_runtime(KINDS3), KINDS3, 4).instance_hash
    b = method_c(faithful_runtime(KINDS3), KINDS3, 4).instance_hash
    assert a == b
    assert a == document_hash({"caps": sorted(KINDS3), "kmax": 4})
    assert a != instance_hash(KINDS3, 5)
    assert a != instance_hash(KINDS2, 4)


def test_bound_too_large_over_budget():
    kinds = [f"k{i}" for i in range(10)]
    with pytest.raises(BoundTooLarge, match="budget"):
        method_c(faithful_runtime(kinds), kinds, 12)


def test_bound_refused_beyond_exhaustive_mode():
    # within budget but past the honest exhaustive bound: refused
    with pytest.raises(BoundTooLarge, match="exhaustive"):
        method_c(faithful_runtime(KINDS2), KINDS2, 9)


def test_kmax_must_be_positive():
    with pytest.raises(ValueError):
        method_c(faithful_runtime(KINDS2), KINDS2, 0)


def test_stress_regime_within_budget():
    kinds = [f"k{i}" for i in range(10)]
    verdict = method_c(faithful_runtime(kinds), kinds, 8)
    assert verdict.result == "unsat"
    assert verdict.alphabet_size == 11
    assert verdict.traces_explored == sum(11**n for n in range(1, 9))


def test_smt_verdict_serialization():
    doc = method_c(faithful_runtime(KINDS2), KINDS2, 3).to_json_dict()
    assert doc["result"] == "unsat"
    assert doc["k_max"] == 3
    assert doc["alphabet"] == 3
    assert doc["checker"]["name"] == "skillproof-bmc"
    assert len(doc["instance_hash"]) == 64
    sat_doc = method_c(mutant_execute_on_deny(KINDS2), KINDS2, 3).to_json_dict()
    ce = sat_doc["result"]["counter_example"]
    assert ce["symbols"] == ["OUT"]
    assert ce["steps"][0]["decision"] == "deny"


def test_completeness_random_simulator_million_traces():
    # independent random-trace oracle: unsat at the bound means a large
    # random sample finds nothing either
    kinds = KINDS2
    k_max = 3
    model = faithful_runtime(kinds)
    assert method_c(model, kinds, k_max).result == "unsat"
    sigma = alphabet(kinds)
    rng = random.Random(99)
    for _ in range(1_000_000):
        trace = [rng.choice(sigma) for _ in range(rng.randint(1, k_max))]
        world, audit = INITIAL_WORLD, EMPTY_AUDIT
        for i, symbol in enumerate(trace):
            outcome = step_model(model, world, audit, symbol, i)
            assert not violation_predicate(outcome)
            world, audit = outcome.world_after, outcome.audit
