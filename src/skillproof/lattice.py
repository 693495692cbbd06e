"""The finite effect lattice: abstract argument values, effect tuples,
join/ordering, and containment of an effect set in a declared capability set.

Abstract values summarise the arguments of system effects: host patterns for
network targets, directory prefixes for file paths and opaque literals for
everything else, with Bottom/Top anchoring the order.
"""

from __future__ import annotations

import posixpath
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Union

from .errors import MalformedPattern

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .manifest import CapabilityToken

# ---------------------------------------------------------------------------
# Abstract values
# ---------------------------------------------------------------------------

_HOST_LABEL_RE = re.compile(r"[A-Za-z0-9_]([A-Za-z0-9_-]*[A-Za-z0-9_])?")


@dataclass(frozen=True)
class Bottom:
    """The empty summary: describes no concrete value."""


@dataclass(frozen=True)
class Top:
    """The maximal summary: describes every concrete value."""


@dataclass(frozen=True)
class HostGlob:
    """A host name, or a DNS-suffix pattern with a single leading ``*.``."""

    pattern: str

    def __post_init__(self) -> None:
        if not isinstance(self.pattern, str):
            raise MalformedPattern(f"host pattern {self.pattern!r} is not a string")
        body = self.pattern[2:] if self.pattern.startswith("*.") else self.pattern
        if not body or "*" in body:
            raise MalformedPattern(f"invalid host pattern {self.pattern!r}")
        labels = body.split(".")
        if not all(_HOST_LABEL_RE.fullmatch(label) for label in labels):
            raise MalformedPattern(f"invalid host pattern {self.pattern!r}")

    @property
    def is_wildcard(self) -> bool:
        return self.pattern.startswith("*.")

    @property
    def suffix(self) -> str:
        """The literal domain body, without any ``*.`` prefix."""
        return self.pattern[2:] if self.is_wildcard else self.pattern


def normalize_path(path: str) -> str:
    """Canonical relative/absolute form: ``.`` collapsed, ``..`` resolved
    in place (leading ``..`` segments are kept so escapes stay visible),
    a trailing ``/`` marking a directory prefix."""
    if not path:
        raise MalformedPattern("empty path pattern")
    text = posixpath.normpath(path)
    if text.startswith("//"):  # POSIX keeps exactly two leading slashes
        text = text[1:]
    if text == ".":
        return "./"
    if not (text.startswith(("/", "../")) or text == ".."):
        text = "./" + text
    if (path.endswith("/") or path in (".", "..")) and not text.endswith("/"):
        text += "/"
    return text


@dataclass(frozen=True)
class PathPrefix:
    """A normalized path; a trailing ``/`` means "everything under here",
    otherwise the value names a single file."""

    prefix: str

    def __post_init__(self) -> None:
        if not isinstance(self.prefix, str):
            raise MalformedPattern(f"path pattern {self.prefix!r} is not a string")
        if "*" in self.prefix:
            raise MalformedPattern(
                f"path pattern {self.prefix!r} may not contain wildcards; "
                f"use a directory prefix"
            )
        object.__setattr__(self, "prefix", normalize_path(self.prefix))

    @property
    def is_dir(self) -> bool:
        return self.prefix.endswith("/")


@dataclass(frozen=True)
class Opaque:
    """An uninterpreted literal, comparable only by equality."""

    literal: str


AbstractValue = Union[Bottom, Top, HostGlob, PathPrefix, Opaque]

BOTTOM = Bottom()
TOP = Top()


def value_leq(a: AbstractValue, b: AbstractValue) -> bool:
    """True iff every concrete value described by ``a`` is described by ``b``.

    Cross-variant pairs are incomparable (False) except against Top/Bottom.
    """
    if a == b:
        return True
    if isinstance(a, Bottom) or isinstance(b, Top):
        return True
    if isinstance(a, Top) or isinstance(b, Bottom):
        return False
    if isinstance(a, HostGlob) and isinstance(b, HostGlob):
        if not b.is_wildcard:
            return False  # a != b and a literal cannot cover more
        if a.is_wildcard:
            # every host "X.a-suffix" must end with ".b-suffix"
            return ("." + a.suffix).endswith("." + b.suffix)
        # a literal host; the wildcard needs at least one label before the
        # suffix, so the bare apex is not covered
        return a.pattern.endswith("." + b.suffix)
    if isinstance(a, PathPrefix) and isinstance(b, PathPrefix):
        if not b.is_dir:
            return False
        return a.prefix.startswith(b.prefix)
    # Opaque-vs-Opaque equality was handled by a == b; everything else is
    # a cross-variant pair.
    return False


_VARIANT_ORDER = {
    "Bottom": 0,
    "HostGlob": 1,
    "PathPrefix": 2,
    "Opaque": 3,
    "Top": 4,
}


def value_sort_key(v: AbstractValue) -> tuple[int, str]:
    return (_VARIANT_ORDER[type(v).__name__], value_text(v))


def value_text(v: AbstractValue) -> str:
    """Compact display form, also used as the token argument syntax."""
    if isinstance(v, Bottom):
        return "<bottom>"
    if isinstance(v, Top):
        return "<top>"
    if isinstance(v, HostGlob):
        return v.pattern
    if isinstance(v, PathPrefix):
        return v.prefix
    return v.literal


def value_to_json(v: AbstractValue) -> dict[str, Any]:
    if isinstance(v, Bottom):
        return {"variant": "bottom"}
    if isinstance(v, Top):
        return {"variant": "top"}
    if isinstance(v, HostGlob):
        return {"variant": "host_glob", "pattern": v.pattern}
    if isinstance(v, PathPrefix):
        return {"variant": "path_prefix", "prefix": v.prefix}
    return {"variant": "opaque", "literal": v.literal}


# ---------------------------------------------------------------------------
# Effect tuples and effect sets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Provenance:
    """Where an effect tuple came from: file, line, and the rule that fired."""

    file: str
    line: int
    rule_id: str


@dataclass(frozen=True)
class EffectTuple:
    kind: str
    arg: AbstractValue
    provenance: Provenance


def _tuple_key(t: EffectTuple) -> tuple[str, tuple[int, str]]:
    return (t.kind, value_sort_key(t.arg))


@dataclass(frozen=True)
class EffectSet:
    """A set of effect tuples plus a whole-program Top flag.

    ``tainted_top=True`` means the set semantically equals "every effect";
    the explicit tuples and taint origins are kept for diagnostics only.
    """

    effects: tuple[EffectTuple, ...] = ()
    tainted_top: bool = False
    taint_origins: tuple[Provenance, ...] = ()


def make_effect_set(
    effects: Iterable[EffectTuple],
    tainted_top: bool = False,
    taint_origins: Iterable[Provenance] = (),
) -> EffectSet:
    """Normalize: dedupe tuples up to (kind, arg) keeping the least
    provenance, then sort canonically."""
    best: dict[tuple, EffectTuple] = {}
    for t in effects:
        key = (t.kind, t.arg)
        prev = best.get(key)
        if prev is None or (
            (t.provenance.file, t.provenance.line, t.provenance.rule_id)
            < (prev.provenance.file, prev.provenance.line, prev.provenance.rule_id)
        ):
            best[key] = t
    ordered = tuple(sorted(best.values(), key=_tuple_key))
    origins = tuple(sorted(set(taint_origins), key=lambda p: (p.file, p.line, p.rule_id)))
    return EffectSet(ordered, bool(tainted_top), origins)


EMPTY_EFFECT_SET = EffectSet()


def effects_join(a: EffectSet, b: EffectSet) -> EffectSet:
    """Lattice join: tuple union (deduplicated), taint flags disjoined."""
    return make_effect_set(
        a.effects + b.effects,
        tainted_top=a.tainted_top or b.tainted_top,
        taint_origins=a.taint_origins + b.taint_origins,
    )


# ---------------------------------------------------------------------------
# Containment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    """A reason the effect set escapes the declared capability set."""

    reason: str
    kind: str | None
    arg: AbstractValue | None
    provenance: tuple[Provenance, ...] = ()


@dataclass(frozen=True)
class ContainmentVerdict:
    contained: bool
    violations: tuple[Violation, ...] = ()

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "contained": self.contained,
            "violations": [violation_to_json(x) for x in self.violations],
        }


def covering_token(
    declared: Iterable["CapabilityToken"], kind: str, value: AbstractValue
) -> "CapabilityToken | None":
    """The first declared token of ``kind`` that covers ``value``, or None.

    A token without a pattern (Top) covers every value of its kind, and Top
    (an argument that is absent or not a valid value of the kind's domain)
    is covered only by such a token. This one relation decides both static
    containment and runtime admission.
    """
    for token in declared:  # a plain loop: dispatch runs this per envelope
        if token.kind == kind and value_leq(value, token.arg_pattern):
            return token
    return None


def containment_check(
    e: EffectSet, declared: Iterable["CapabilityToken"]
) -> ContainmentVerdict:
    """Check that every effect tuple is covered by some declared token.

    A tainted-Top set is never contained: it stands for every effect,
    including kinds and values no finite declaration can cover.
    Over-declaration (tokens covering nothing) is never a violation.
    """
    declared = tuple(declared)
    violations: list[Violation] = []
    if e.tainted_top:
        origins = e.taint_origins or (Provenance("", 0, "tainted-top"),)
        for origin in origins:
            reason = (
                "unanalyzable-language"
                if origin.rule_id in ("unanalyzable-language", "undecodable-source")
                else "tainted-top"
            )
            violations.append(Violation(reason, None, None, (origin,)))
    for t in e.effects:
        if covering_token(declared, t.kind, t.arg) is None:
            violations.append(
                Violation("undeclared-effect", t.kind, t.arg, (t.provenance,))
            )
    return ContainmentVerdict(contained=not violations, violations=tuple(violations))


# ---------------------------------------------------------------------------
# Canonical JSON forms (consumed by the static evidence file)
# ---------------------------------------------------------------------------


def provenance_to_json(p: Provenance) -> dict[str, Any]:
    return {"file": p.file, "line": p.line, "rule_id": p.rule_id}


def effect_tuple_to_json(t: EffectTuple) -> dict[str, Any]:
    return {
        "kind": t.kind,
        "arg": value_to_json(t.arg),
        "provenance": provenance_to_json(t.provenance),
    }


def effect_set_to_json(e: EffectSet) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "effects": [effect_tuple_to_json(t) for t in e.effects],
        "tainted_top": e.tainted_top,
    }
    if e.taint_origins:
        doc["taint_origins"] = [provenance_to_json(p) for p in e.taint_origins]
    return doc


def violation_to_json(v: Violation) -> dict[str, Any]:
    return {
        "reason": v.reason,
        "kind": v.kind,
        "arg": value_to_json(v.arg) if v.arg is not None else None,
        "provenance": [provenance_to_json(p) for p in v.provenance],
    }
