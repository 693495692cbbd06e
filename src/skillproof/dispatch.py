"""The refinement-dispatch projector: reject any tool-call envelope whose
capability falls outside the declared set before it reaches a host API.

The dispatcher is the only admission path this module exposes. Rejection is
a returned value in the library API; :func:`raise_for_rejection` is the thin
shim for host-API boundaries that want an exception instead.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Any, Mapping, Union

from ._version import __version__
from .canonical import document_hash
from .errors import MalformedEnvelope, MalformedPattern, RefinementError
from .lattice import TOP, AbstractValue, HostGlob, Opaque, PathPrefix, covering_token
from .manifest import (
    CapabilityToken,
    Domain,
    Manifest,
    arg_domain,
    capability_kinds,
    declared_kinds,
    is_known_kind,
    token_text,
)


@dataclass(frozen=True)
class Envelope:
    """A tool-call request. ``reasoning`` is opaque and never inspected."""

    op: str
    args: Mapping[str, str] = field(default_factory=dict)
    reasoning: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.op, str) or not is_known_kind(self.op):
            raise MalformedEnvelope(f"envelope op {self.op!r} is not in the vocabulary")
        try:
            items = self.args.items()
        except AttributeError:
            raise MalformedEnvelope("envelope args must be a mapping") from None
        for key, value in items:
            if not isinstance(key, str) or not key:
                raise MalformedEnvelope("envelope arg keys must be non-empty strings")
            if not isinstance(value, str):
                raise MalformedEnvelope(f"envelope arg {key!r} must be a string")


def envelope_from_dict(doc: Mapping[str, Any]) -> Envelope:
    try:
        op = doc["op"]
    except KeyError:
        raise MalformedEnvelope("envelope lacks an op field") from None
    except TypeError:
        raise MalformedEnvelope(f"envelope is a {type(doc).__name__}, not a mapping") from None
    args = doc.get("args", {})
    if not isinstance(args, Mapping):
        raise MalformedEnvelope("envelope args must be a mapping")
    return Envelope(op=op, args=dict(args), reasoning=str(doc.get("reasoning", "")))


@dataclass(frozen=True)
class Admit:
    op: str
    token: str  # canonical text of the declared token that covered the call


@dataclass(frozen=True)
class RefinementRejection:
    op: str
    declared_hash: str


DispatchResult = Union[Admit, RefinementRejection]


class RefinedDispatcher:
    """A frozen snapshot of the declared capability set.

    The declared set is deep-copied at construction and immutable afterwards;
    later mutation of the source manifest has no effect. The admit log, when
    enabled, is append-only with serialized appends, and each entry holds a
    read-only copy of the admitted arguments, so the caller's later edits to
    its own ``args`` dict cannot rewrite what was admitted.
    """

    __slots__ = ("_declared", "_declared_hash", "_log_admits", "_admit_log", "_lock")

    def __init__(self, declared: tuple[CapabilityToken, ...], log_admits: bool = False):
        self._declared = tuple(declared)
        self._declared_hash = document_hash(sorted(token_text(t) for t in self._declared))
        self._log_admits = log_admits
        self._admit_log: list[Envelope] = []
        self._lock = threading.Lock()

    @property
    def declared(self) -> tuple[CapabilityToken, ...]:
        return self._declared

    @property
    def declared_hash(self) -> str:
        return self._declared_hash

    @property
    def admit_log(self) -> tuple[Envelope, ...]:
        with self._lock:
            return tuple(self._admit_log)

    def _record(self, envelope: Envelope) -> None:
        if self._log_admits:
            entry = replace(envelope, args=MappingProxyType(dict(envelope.args)))
            with self._lock:
                self._admit_log.append(entry)


def build_refined_dispatch(manifest: Manifest, log_admits: bool = False) -> RefinedDispatcher:
    """Freeze the manifest's declared set into a dispatcher."""
    return RefinedDispatcher(tuple(manifest.caps), log_admits=log_admits)


def dispatch(dispatcher: RefinedDispatcher, envelope: Envelope) -> DispatchResult:
    """Admit iff some declared token of the envelope's op covers its argument,
    lifted into the op's domain; an absent or malformed argument is Top,
    which only a token without a pattern covers. Pure in (declared set,
    envelope): no randomness, no clock, no IO."""
    domain = arg_domain(envelope.op)
    raw = envelope.args.get(domain.arg_key)
    try:
        value = TOP if raw is None else domain.lift(raw)
    except MalformedPattern:
        value = TOP
    token = covering_token(dispatcher.declared, envelope.op, value)
    if token is None:
        return RefinementRejection(envelope.op, dispatcher.declared_hash)
    dispatcher._record(envelope)
    return Admit(envelope.op, token_text(token))


def raise_for_rejection(result: DispatchResult) -> Admit:
    """Host-API shim: convert a rejection value into a raised error."""
    if isinstance(result, RefinementRejection):
        raise RefinementError(result)
    return result


# ---------------------------------------------------------------------------
# The exhaustive vocabulary probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TypedDispatchVerdict:
    probed: int
    admitted: frozenset[str]
    rejected: frozenset[str]
    capacity_bits: float
    passed: bool

    def to_json_dict(self) -> dict[str, Any]:
        probe = {kind: "admit" for kind in self.admitted}
        probe.update({kind: "reject" for kind in self.rejected})
        return {
            "assumes": ["no-bypass"],
            "capacity_bits": str(self.capacity_bits),
            "declared_kinds": sorted(self.admitted),
            "pass": self.passed,
            "probe": probe,
            "probed": self.probed,
            "checker": {"name": "skillproof-dispatch", "version": __version__},
        }


def _witness_value(pattern: AbstractValue, domain: Domain) -> str:
    """A canonical in-pattern witness argument for a declared token."""
    if isinstance(pattern, HostGlob):
        return "probe." + pattern.suffix if pattern.is_wildcard else pattern.pattern
    if isinstance(pattern, PathPrefix):
        return pattern.prefix + "witness" if pattern.is_dir else pattern.prefix
    if isinstance(pattern, Opaque):
        return pattern.literal
    return domain.witness  # Top: no pattern


def probe_envelope(kind: str, declared: tuple[CapabilityToken, ...]) -> Envelope:
    """One canonical envelope per vocabulary kind: an in-pattern witness for
    declared kinds, a canonical arbitrary value for undeclared ones."""
    domain = arg_domain(kind)
    tokens = sorted((t for t in declared if t.kind == kind), key=token_text)
    if tokens:
        value = _witness_value(tokens[0].arg_pattern, domain)
    else:
        value = domain.undeclared
    return Envelope(op=kind, args={domain.arg_key: value}, reasoning="")


def method_b(manifest: Manifest) -> TypedDispatchVerdict:
    """Probe the full vocabulary through a fresh dispatcher and report the
    admit/reject partition plus the per-envelope capacity bound."""
    dispatcher = build_refined_dispatch(manifest)
    admitted: set[str] = set()
    rejected: set[str] = set()
    vocabulary = capability_kinds()
    for kind in vocabulary:
        result = dispatch(dispatcher, probe_envelope(kind, dispatcher.declared))
        if isinstance(result, Admit):
            admitted.add(kind)
        else:
            rejected.add(kind)
    kinds = set(declared_kinds(manifest))
    return TypedDispatchVerdict(
        probed=len(vocabulary),
        admitted=frozenset(admitted),
        rejected=frozenset(rejected),
        capacity_bits=math.log2(len(kinds) + 1),
        passed=admitted == kinds,
    )
