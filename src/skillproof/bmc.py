"""Bounded model checking of the audit biconditional.

Every abstract envelope trace of length 1..k_max is driven through a runtime
model; the per-step predicate asks whether a world-state change is matched by
an admitted audit record (and whether every admit was recorded). UNSAT is a
proof at the bound; SAT carries a concrete, minimal-length counter-example
that replays. The alphabet is the declared kinds plus OUT (the
rejected-envelope symbol).

A model that reads the world is enumerated: for each length n = 1..k_max one
depth-first pass, leftmost symbol first, steps every prefix once and carries
the (world, audit) state down the recursion, so memory is O(k_max). Only the
pass's leaf step is checked, since every shorter trace was already found
clean by an earlier pass; the first violating leaf is therefore the
minimal-length, leftmost witness, and its steps are the path that reached it.

A memoryless model is decided at length 1 by 1-step induction (Sheeran,
Singh and Stålmarck, FMCAD 2000): its wiring ignores the world and the gate
reads only the symbol, so a step's violation class depends only on its
symbol's class, IN (a declared kind) or OUT. One representative per class is
stepped once from the initial world, and the counts are written in closed
form; the test suite checks both against enumeration of the same wirings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from ._version import __version__
from .canonical import document_hash
from .errors import BoundTooLarge

# Reserved world-effect key for executions no envelope requested.
SPURIOUS_EFFECT = "spurious"

OUT_KEY = "OUT"

DEFAULT_BUDGET = 250_000_000
DEFAULT_MAX_EXHAUSTIVE_K = 8


@dataclass(frozen=True)
class Symbol:
    """An abstract envelope: a declared capability kind, or OUT (undeclared)."""

    kind: str | None  # None means OUT

    @property
    def in_set(self) -> bool:
        return self.kind is not None

    @property
    def key(self) -> str:
        return self.kind if self.kind is not None else OUT_KEY


def alphabet(d_kinds: Sequence[str]) -> tuple[Symbol, ...]:
    """The |kinds|+1 symbol alphabet, declared kinds sorted, OUT last."""
    kinds = sorted(set(d_kinds))
    return tuple(Symbol(k) for k in kinds) + (Symbol(None),)


@dataclass(frozen=True)
class WorldState:
    executed_count: int = 0
    executed_effects: tuple[str, ...] = ()

    def executed(self, effect: str) -> "WorldState":
        return WorldState(self.executed_count + 1, self.executed_effects + (effect,))


INITIAL_WORLD = WorldState()


@dataclass(frozen=True)
class AuditLog:
    records: tuple[tuple[str, str], ...] = ()

    def append(self, symbol_key: str, decision: str) -> "AuditLog":
        return AuditLog(self.records + ((symbol_key, decision),))


EMPTY_AUDIT = AuditLog()


@dataclass(frozen=True)
class RuntimeModel:
    """A deterministic gate/executor/audit wiring.

    The gate is the projector semantics (admit declared symbols, deny OUT);
    the wiring predicates say, per decision and current world, whether the
    envelope's effect executes, whether an audit record is appended, and
    whether a spurious effect (one no envelope requested) also executes.
    ``memoryless`` declares that all three ignore the world argument, which
    lets ``method_c`` decide the model at length 1.
    """

    name: str
    memoryless: bool
    executes: Callable[[str, WorldState], bool]
    audits: Callable[[str, WorldState], bool]
    spurious: Callable[[str, WorldState], bool] = lambda decision, world: False

    def gate(self, symbol: Symbol, world: WorldState) -> str:
        return "admit" if symbol.in_set else "deny"


def faithful_runtime(d_kinds: Sequence[str]) -> RuntimeModel:
    """The composed projector-protected runtime: execute exactly on admit,
    audit every step."""
    return RuntimeModel(
        name="faithful",
        memoryless=True,
        executes=lambda decision, world: decision == "admit",
        audits=lambda decision, world: True,
    )


def mutant_execute_on_deny(d_kinds: Sequence[str]) -> RuntimeModel:
    """Executes the envelope's effect even when the gate denied it."""
    return RuntimeModel(
        name="execute-on-deny",
        memoryless=False,
        executes=lambda decision, world: True,
        audits=lambda decision, world: True,
    )


def mutant_skip_audit_on_admit(d_kinds: Sequence[str]) -> RuntimeModel:
    """Admits and executes but drops the audit record for admitted steps."""
    return RuntimeModel(
        name="skip-audit-on-admit",
        memoryless=False,
        executes=lambda decision, world: decision == "admit",
        audits=lambda decision, world: decision != "admit",
    )


def mutant_execute_without_envelope(d_kinds: Sequence[str]) -> RuntimeModel:
    """Spontaneously executes an effect no envelope requested (surfaced on
    denied steps, where no admitted record can account for it)."""
    return RuntimeModel(
        name="execute-without-envelope",
        memoryless=False,
        executes=lambda decision, world: decision == "admit",
        audits=lambda decision, world: True,
        spurious=lambda decision, world: decision == "deny",
    )


MUTANT_MODELS: dict[str, Callable[[Sequence[str]], RuntimeModel]] = {
    "execute-on-deny": mutant_execute_on_deny,
    "skip-audit-on-admit": mutant_skip_audit_on_admit,
    "execute-without-envelope": mutant_execute_without_envelope,
}

MODEL_FACTORIES: dict[str, Callable[[Sequence[str]], RuntimeModel]] = {
    "faithful": faithful_runtime,
    **MUTANT_MODELS,
}


# ---------------------------------------------------------------------------
# Stepping and the violation predicate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepOutcome:
    index: int
    symbol_key: str
    decision: str
    world_before: WorldState
    world_after: WorldState
    audit_appended: tuple[str, str] | None
    audit: AuditLog  # log state after this step


def step_model(
    model: RuntimeModel,
    world: WorldState,
    audit: AuditLog,
    symbol: Symbol,
    index: int,
) -> StepOutcome:
    decision = model.gate(symbol, world)
    after = world
    if model.executes(decision, world):
        after = after.executed(symbol.key)
    if model.spurious(decision, world):
        after = after.executed(SPURIOUS_EFFECT)
    appended = (symbol.key, decision) if model.audits(decision, world) else None
    new_audit = audit.append(*appended) if appended else audit
    return StepOutcome(index, symbol.key, decision, world, after, appended, new_audit)


def violation_class(step: StepOutcome) -> str | None:
    """Which way this step breaks the biconditional, or None if it does not:
    the world changed without an admitted audit record for this step, or an
    admit went unrecorded."""
    changed = step.world_after != step.world_before
    recorded = step.audit_appended is not None
    if changed and recorded and step.audit_appended != (step.symbol_key, "admit"):
        return "executed-but-deny"
    if changed and not recorded:
        return "executed-without-audit"
    if step.decision == "admit" and not recorded:
        return "admitted-without-audit"
    return None


def violation_predicate(step: StepOutcome) -> bool:
    return violation_class(step) is not None


def run_trace(model: RuntimeModel, symbols: Sequence[Symbol]) -> tuple[list[StepOutcome], int | None]:
    """Step a trace up to its first violation; returns the outcomes and the
    violating index (None if the whole trace is clean)."""
    world, audit = INITIAL_WORLD, EMPTY_AUDIT
    outcomes: list[StepOutcome] = []
    for i, symbol in enumerate(symbols):
        outcome = step_model(model, world, audit, symbol, i)
        outcomes.append(outcome)
        if violation_predicate(outcome):
            return outcomes, i
        world, audit = outcome.world_after, outcome.audit
    return outcomes, None


def _traces(
    model: RuntimeModel,
    sigma: Sequence[Symbol],
    length: int,
    path: tuple[StepOutcome, ...] = (),
) -> Iterator[tuple[StepOutcome, ...]]:
    """Yield the steps of every trace of exactly ``length`` symbols extending
    ``path``, leftmost symbol first, stepping each prefix once."""
    world, audit = (path[-1].world_after, path[-1].audit) if path else (INITIAL_WORLD, EMPTY_AUDIT)
    for symbol in sigma:
        steps = path + (step_model(model, world, audit, symbol, len(path)),)
        if len(steps) == length:
            yield steps
        else:
            yield from _traces(model, sigma, length, steps)


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


def _world_to_json(world: WorldState) -> dict[str, Any]:
    return {"count": world.executed_count, "effects": list(world.executed_effects)}


@dataclass(frozen=True)
class CounterExample:
    symbols: tuple[str, ...]
    violation_index: int
    violation_class: str
    steps: tuple[StepOutcome, ...]

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "symbols": list(self.symbols),
            "violation_index": self.violation_index,
            "violation_class": self.violation_class,
            "steps": [
                {
                    "symbol": s.symbol_key,
                    "decision": s.decision,
                    "world_before": _world_to_json(s.world_before),
                    "world_after": _world_to_json(s.world_after),
                    "audit_appended": list(s.audit_appended) if s.audit_appended else None,
                    "audit": [list(r) for r in s.audit.records],
                }
                for s in self.steps
            ],
        }


@dataclass(frozen=True)
class BmcVerdict:
    result: str  # "unsat" | "sat"
    counter_example: CounterExample | None
    k_max: int
    alphabet_size: int
    traces_explored: int
    traces_enumerated: int
    instance_hash: str

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "alphabet": self.alphabet_size,
            "checker": {"name": "skillproof-bmc", "version": __version__},
            "instance_hash": self.instance_hash,
            "k_max": self.k_max,
            "result": (
                "unsat"
                if self.result == "unsat"
                else {"counter_example": self.counter_example.to_json_dict()}
            ),
            "traces_enumerated": self.traces_enumerated,
            "traces_explored": self.traces_explored,
        }


def instance_hash(d_kinds: Sequence[str], k_max: int) -> str:
    """Binds a verdict to its exact (declared kinds, bound) instance."""
    return document_hash({"caps": sorted(set(d_kinds)), "kmax": k_max})


def replay_counter_example(model: RuntimeModel, ce: CounterExample) -> bool:
    """Self-validating witness: re-step the model and confirm the violation
    reproduces at the reported index."""
    symbols = tuple(Symbol(None if k == OUT_KEY else k) for k in ce.symbols)
    _, violation = run_trace(model, symbols)
    return violation == ce.violation_index


def _decide_at_length_one(
    model: RuntimeModel, sigma: Sequence[Symbol], k_max: int
) -> tuple[CounterExample | None, int, int]:
    """(witness, explored, enumerated) for a memoryless model.

    Sound by 1-step induction: ``executes``, ``audits`` and ``spurious``
    ignore the world and the gate reads only the symbol, so every step of
    every trace violates exactly as its symbol's class does at length 1.
    The classes are IN, weighted |kinds| (absent without kinds), then OUT,
    weighted 1, in the order a depth-first pass over them reaches them.
    Raw counts are over the full alphabet, enumerated counts over the
    classes, so a SAT verdict's raw count covers the witness's whole class.
    """
    n_in = len(sigma) - 1
    weighted = ([(sigma[0], n_in)] if n_in else []) + [(sigma[-1], 1)]
    explored = 0
    for position, (symbol, weight) in enumerate(weighted):
        step = step_model(model, INITIAL_WORLD, EMPTY_AUDIT, symbol, 0)
        explored += weight
        cls = violation_class(step)
        if cls is not None:
            return CounterExample((step.symbol_key,), 0, cls, (step,)), explored, position + 1
    lengths = range(1, k_max + 1)
    return None, sum(len(sigma) ** n for n in lengths), sum(len(weighted) ** n for n in lengths)


def _enumerate(
    model: RuntimeModel, sigma: Sequence[Symbol], k_max: int
) -> tuple[CounterExample | None, int, int]:
    """(witness, explored, enumerated) by stepping every trace, in
    increasing length and depth-first within each length."""
    count = 0
    leaves = (leaf for length in range(1, k_max + 1) for leaf in _traces(model, sigma, length))
    for count, steps in enumerate(leaves, 1):
        cls = violation_class(steps[-1])
        if cls is not None:
            witness = CounterExample(tuple(s.symbol_key for s in steps), len(steps) - 1, cls, steps)
            return witness, count, count
    return None, count, count


def method_c(model: RuntimeModel, d_kinds: Sequence[str], k_max: int) -> BmcVerdict:
    """Check every trace of length 1..k_max; a SAT verdict carries the
    minimal-length, leftmost witness, and an UNSAT verdict the complete raw
    trace count. Bounds beyond exhaustive mode are refused for every model."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    sigma = alphabet(d_kinds)
    size = len(sigma)
    if (
        k_max > DEFAULT_MAX_EXHAUSTIVE_K
        or sum(size**n for n in range(1, k_max + 1)) > DEFAULT_BUDGET
    ):
        raise BoundTooLarge(
            f"k_max={k_max} over |alphabet|={size} is beyond exhaustive mode "
            f"(k_max <= {DEFAULT_MAX_EXHAUSTIVE_K} within a budget of {DEFAULT_BUDGET} "
            f"traces); lower k_max"
        )
    # a wiring that ignores the world is decided at length 1 (1-step induction)
    decide = _decide_at_length_one if model.memoryless else _enumerate
    witness, explored, enumerated = decide(model, sigma, k_max)
    return BmcVerdict(
        result="unsat" if witness is None else "sat",
        counter_example=witness,
        k_max=k_max,
        alphabet_size=size,
        traces_explored=explored,
        traces_enumerated=enumerated,
        instance_hash=instance_hash(d_kinds, k_max),
    )
