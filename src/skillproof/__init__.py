"""skillproof: mechanical capability-containment checking for agent skills.

Three composable layers (static effect scanning, refinement dispatch,
bounded model checking of the audit biconditional) feed a signed,
proof-carrying evidence bundle that a runtime re-derives at load time
without trusting the producer.
"""

from ._version import __version__
from .bmc import (
    BmcVerdict,
    CounterExample,
    RuntimeModel,
    Symbol,
    WorldState,
    faithful_runtime,
    method_c,
    replay_counter_example,
    violation_predicate,
)
from .bundle import (
    ProducedBundle,
    TrustEntry,
    TrustRoot,
    VerifyOutcome,
    mint_ephemeral_key,
    produce_formal_bundle,
    verify_formal_bundle,
)
from .canonical import canonicalize, document_hash
from .dispatch import (
    Admit,
    Envelope,
    RefinedDispatcher,
    RefinementRejection,
    TypedDispatchVerdict,
    build_refined_dispatch,
    dispatch,
    method_b,
    raise_for_rejection,
)
from .errors import (
    BoundTooLarge,
    EntropyUnavailable,
    LayerFailed,
    MalformedEnvelope,
    MalformedManifest,
    MalformedPattern,
    MissingBundleFile,
    MissingManifest,
    NonCanonicalizable,
    PackError,
    RefinementError,
    SkillproofError,
    UnknownKind,
)
from .lattice import (
    BOTTOM,
    TOP,
    AbstractValue,
    Bottom,
    ContainmentVerdict,
    EffectSet,
    EffectTuple,
    HostGlob,
    Opaque,
    PathPrefix,
    Provenance,
    Top,
    containment_check,
    effects_join,
    make_effect_set,
    value_leq,
)
from .manifest import (
    CapabilityToken,
    Label,
    Manifest,
    capability_kinds,
    declared_kinds,
    parse_capability_token,
    parse_manifest,
    token_text,
)
from .static_analysis import (
    RulePack,
    Script,
    StaticReport,
    analyze_script,
    default_rule_packs,
    discover_scripts,
    method_a,
    spawn_closure,
)

__all__ = [
    "__version__",
    # lattice
    "AbstractValue", "Bottom", "Top", "HostGlob", "PathPrefix", "Opaque",
    "BOTTOM", "TOP", "value_leq", "EffectTuple", "EffectSet",
    "Provenance", "make_effect_set", "effects_join", "containment_check",
    "ContainmentVerdict",
    # manifest
    "CapabilityToken", "Label", "Manifest", "parse_manifest",
    "parse_capability_token", "token_text", "capability_kinds",
    "declared_kinds",
    # static analysis
    "Script", "RulePack", "StaticReport", "discover_scripts",
    "analyze_script", "spawn_closure", "method_a", "default_rule_packs",
    # dispatch
    "Envelope", "RefinedDispatcher", "Admit", "RefinementRejection",
    "TypedDispatchVerdict", "build_refined_dispatch", "dispatch",
    "raise_for_rejection", "method_b",
    # bmc
    "Symbol", "WorldState", "RuntimeModel", "BmcVerdict", "CounterExample",
    "faithful_runtime", "violation_predicate", "method_c",
    "replay_counter_example",
    # bundle
    "TrustEntry", "TrustRoot", "VerifyOutcome", "ProducedBundle",
    "mint_ephemeral_key", "produce_formal_bundle", "verify_formal_bundle",
    "canonicalize", "document_hash",
    # errors
    "SkillproofError", "MissingManifest", "MalformedManifest", "UnknownKind",
    "MalformedPattern", "MalformedEnvelope", "RefinementError",
    "NonCanonicalizable", "PackError", "BoundTooLarge", "LayerFailed",
    "MissingBundleFile", "EntropyUnavailable",
]
