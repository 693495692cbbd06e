"""Lattice laws and containment, checked against concrete-corpus oracles."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skillproof.errors import MalformedPattern
from skillproof.lattice import (
    BOTTOM,
    EMPTY_EFFECT_SET,
    TOP,
    EffectTuple,
    HostGlob,
    Opaque,
    PathPrefix,
    Provenance,
    containment_check,
    covering_token,
    effects_join,
    make_effect_set,
    normalize_path,
    value_leq,
)
from skillproof.manifest import CapabilityToken, parse_capability_token

PROV = Provenance("test.py", 1, "test.rule")

# ---------------------------------------------------------------------------
# Concrete oracles: enumerate which corpus members a value describes, then
# check the order as set inclusion.
# ---------------------------------------------------------------------------

HOST_CORPUS = [
    "example.com",
    "api.example.com",
    "www.example.com",
    "a.b.example.com",
    "deep.a.b.example.com",
    "example.org",
    "api.example.org",
    "evil.com",
    "com",
    "b.example.com",
]


def hosts_described(glob: HostGlob) -> set[str]:
    if glob.is_wildcard:
        return {h for h in HOST_CORPUS if h.endswith("." + glob.suffix)}
    return {h for h in HOST_CORPUS if h == glob.pattern}


PATH_CORPUS = [
    "./.cache/x",
    "./.cache/sub/y",
    "./.cache/",
    "./data/x",
    "./x",
    "/etc/passwd",
    "/var/tmp/z",
    "../escape/x",
]


def paths_described(prefix: PathPrefix) -> set[str]:
    out = set()
    for p in PATH_CORPUS:
        norm = normalize_path(p)
        if prefix.is_dir:
            if norm.startswith(prefix.prefix):
                out.add(p)
        elif norm == prefix.prefix:
            out.add(p)
    return out


HOST_VALUES = [
    HostGlob("api.example.com"),
    HostGlob("*.example.com"),
    HostGlob("*.b.example.com"),
    HostGlob("example.com"),
    HostGlob("*.example.org"),
    HostGlob("evil.com"),
]

PATH_VALUES = [
    PathPrefix("./.cache/"),
    PathPrefix("./.cache/x"),
    PathPrefix("./.cache/sub/"),
    PathPrefix("./data/"),
    PathPrefix("/etc/passwd"),
    PathPrefix("./"),
]


def test_host_leq_matches_expansion_oracle():
    for a in HOST_VALUES:
        for b in HOST_VALUES:
            expected = hosts_described(a) <= hosts_described(b)
            # the corpus cannot distinguish a literal from a narrower glob in
            # one direction, so only assert agreement when value_leq says no
            # or the oracle inclusion is strict evidence; here the corpus is
            # rich enough that disagreement means a real bug
            if value_leq(a, b):
                assert expected, f"{a} <= {b} claimed but oracle disagrees"
            else:
                described = hosts_described(a)
                assert not described or not (described <= hosts_described(b)) or (
                    # wildcard not subsumed by literal even when the corpus
                    # lacks a distinguishing host
                    a.is_wildcard and not b.is_wildcard
                ) or a.pattern != b.pattern


def test_host_leq_examples():
    assert value_leq(HostGlob("api.example.com"), HostGlob("*.example.com"))
    assert not value_leq(HostGlob("*.example.com"), HostGlob("api.example.com"))
    assert value_leq(TOP, TOP)
    assert value_leq(HostGlob("*.a.example.com"), HostGlob("*.example.com"))
    assert not value_leq(HostGlob("*.example.com"), HostGlob("*.a.example.com"))
    assert not value_leq(HostGlob("example.com"), HostGlob("*.example.com"))
    assert not value_leq(HostGlob("evilexample.com"), HostGlob("*.example.com"))


def test_path_leq_matches_corpus_oracle():
    for a in PATH_VALUES:
        for b in PATH_VALUES:
            if value_leq(a, b):
                assert paths_described(a) <= paths_described(b)


def test_path_leq_examples():
    assert value_leq(PathPrefix("./.cache/x"), PathPrefix("./.cache/"))
    assert not value_leq(PathPrefix("./.cache/"), PathPrefix("./.cache/x"))
    assert value_leq(PathPrefix("./.cache/sub/"), PathPrefix("./.cache/"))
    assert not value_leq(PathPrefix("./.cachette/x"), PathPrefix("./.cache/"))
    assert not value_leq(PathPrefix("/etc/x"), PathPrefix("./"))
    # dot-dot segments cannot sneak under a prefix
    assert not value_leq(PathPrefix("./.cache/../../etc/x"), PathPrefix("./.cache/"))
    # a file pattern names one file, not every path it is a prefix of
    assert value_leq(PathPrefix("./data.txt"), PathPrefix("./data.txt"))
    assert not value_leq(PathPrefix("./data.txt.bak"), PathPrefix("./data.txt"))


@pytest.mark.parametrize("build", [HostGlob, PathPrefix])
@pytest.mark.parametrize("text", [5, None, b"example.com", ["./a/"]])
def test_non_string_pattern_is_malformed(build, text):
    with pytest.raises(MalformedPattern):
        build(text)


def test_path_normalization():
    assert normalize_path("./.cache/") == "./.cache/"
    assert normalize_path(".cache/") == "./.cache/"
    assert normalize_path("./a/../b/") == "./b/"
    assert normalize_path("a/./b") == "./a/b"
    assert normalize_path("../x") == "../x"
    assert normalize_path("./.cache/../../etc/") == "../etc/"
    assert normalize_path("/a/../../b") == "/b"
    assert normalize_path(".") == "./"
    with pytest.raises(MalformedPattern):
        normalize_path("")


def _normalize_path_by_stack(path: str) -> str:
    """The segment-stack normaliser that ``posixpath.normpath`` replaced,
    kept as the reference for the normal forms it must go on producing."""
    if not path:
        raise MalformedPattern("empty path pattern")
    is_dir = path.endswith("/") or path in (".", "..")
    is_abs = path.startswith("/")
    stack: list[str] = []
    for seg in path.split("/"):
        if seg in ("", "."):
            continue
        if seg == "..":
            if stack and stack[-1] != "..":
                stack.pop()
            elif not is_abs:
                stack.append("..")
        else:
            stack.append(seg)
    body = "/".join(stack)
    if is_abs:
        text = "/" + body
    elif not stack:
        return "./"
    elif stack[0] == "..":
        text = body
    else:
        text = "./" + body
    return text + "/" if is_dir and not text.endswith("/") else text


_path_segments = st.lists(
    st.sampled_from(["", ".", "..", "..a", "a..", "...", "a", "b"]), min_size=1, max_size=7
)


@settings(deadline=None, max_examples=500)
@given(st.tuples(st.sampled_from(["", "/", "//", "///"]), _path_segments).map(
    lambda pair: pair[0] + "/".join(pair[1])
))
@example("//a")
@example("//")
@example("..a")
@example("a/..")
@example(".")
@example("..")
@example("")
def test_path_normalization_agrees_with_reference(path: str):
    try:
        expected = _normalize_path_by_stack(path)
    except MalformedPattern:
        with pytest.raises(MalformedPattern):
            normalize_path(path)
    else:
        assert normalize_path(path) == expected


def test_interval_and_opaque_order():
    assert value_leq(Opaque("x"), Opaque("x"))
    assert not value_leq(Opaque("x"), Opaque("y"))


def test_cross_variant_incomparable():
    assert not value_leq(HostGlob("a.example.com"), PathPrefix("./a/"))
    assert not value_leq(Opaque("x"), HostGlob("x"))
    assert value_leq(BOTTOM, HostGlob("a.example.com"))
    assert value_leq(PathPrefix("./a/"), TOP)


def test_host_glob_validation():
    with pytest.raises(MalformedPattern):
        HostGlob("*")
    with pytest.raises(MalformedPattern):
        HostGlob("a.*.com")
    with pytest.raises(MalformedPattern):
        HostGlob("")
    with pytest.raises(MalformedPattern):
        HostGlob("*.")
    # each label must match whole: "$" would also match before a final "\n"
    for bad in ["a.com\n", "evil.org\n.example.com", "*.a\n.com", "a.com\n\n"]:
        with pytest.raises(MalformedPattern):
            HostGlob(bad)


# ---------------------------------------------------------------------------
# Hypothesis strategies and order laws
# ---------------------------------------------------------------------------

_labels = st.sampled_from(["a", "b", "api", "www", "example", "com", "org", "cache"])


@st.composite
def host_globs(draw):
    depth = draw(st.integers(2, 4))
    body = ".".join(draw(_labels) for _ in range(depth))
    if draw(st.booleans()):
        return HostGlob("*." + body)
    return HostGlob(body)


@st.composite
def path_prefixes(draw):
    depth = draw(st.integers(1, 4))
    segs = [draw(st.sampled_from([".cache", "tmp", "data", "a", "b"])) for _ in range(depth)]
    text = "./" + "/".join(segs) + ("/" if draw(st.booleans()) else "")
    return PathPrefix(text)


abstract_values = st.one_of(
    st.just(BOTTOM),
    st.just(TOP),
    host_globs(),
    path_prefixes(),
    st.builds(Opaque, st.sampled_from(["x", "y", "cmd a", "probe"])),
)


@settings(deadline=None)
@given(abstract_values)
def test_order_reflexive(a):
    assert value_leq(a, a)


@settings(deadline=None)
@given(abstract_values, abstract_values)
def test_order_antisymmetric(a, b):
    if value_leq(a, b) and value_leq(b, a):
        assert a == b


@settings(deadline=None)
@given(abstract_values, abstract_values, abstract_values)
def test_order_transitive(a, b, c):
    if value_leq(a, b) and value_leq(b, c):
        assert value_leq(a, c)


# ---------------------------------------------------------------------------
# Join semilattice laws
# ---------------------------------------------------------------------------

_kinds = st.sampled_from(["net.egress", "fs.read", "fs.write.rev", "pay"])
_provs = st.builds(
    Provenance,
    st.sampled_from(["a.py", "b.sh"]),
    st.integers(1, 30),
    st.sampled_from(["r1", "r2"]),
)
_tuples = st.builds(EffectTuple, _kinds, abstract_values, _provs)
effect_sets = st.builds(
    lambda ts, taint: make_effect_set(ts, tainted_top=taint),
    st.lists(_tuples, max_size=5),
    st.booleans(),
)


@settings(deadline=None)
@given(effect_sets, effect_sets, effect_sets)
def test_join_associative(a, b, c):
    assert effects_join(effects_join(a, b), c) == effects_join(a, effects_join(b, c))


@settings(deadline=None)
@given(effect_sets, effect_sets)
def test_join_commutative(a, b):
    assert effects_join(a, b) == effects_join(b, a)


@settings(deadline=None)
@given(effect_sets)
def test_join_idempotent_and_identity(a):
    assert effects_join(a, a) == a
    assert effects_join(a, EMPTY_EFFECT_SET) == a
    assert effects_join(EMPTY_EFFECT_SET, EMPTY_EFFECT_SET) == EMPTY_EFFECT_SET


@settings(deadline=None)
@given(effect_sets)
def test_join_top_absorbs(a):
    tainted = make_effect_set([EffectTuple("net.egress", TOP, PROV)], tainted_top=True)
    assert effects_join(a, tainted).tainted_top


def test_join_keeps_distinct_tuples():
    a = make_effect_set([EffectTuple("fs.read", PathPrefix("./.cache/"), PROV)])
    b = make_effect_set([EffectTuple("net.egress", HostGlob("*.example.com"), PROV)])
    joined = effects_join(a, b)
    assert {(t.kind, t.arg) for t in joined.effects} == {
        ("fs.read", PathPrefix("./.cache/")),
        ("net.egress", HostGlob("*.example.com")),
    }


# ---------------------------------------------------------------------------
# Containment
# ---------------------------------------------------------------------------


def _declared(*texts: str) -> tuple[CapabilityToken, ...]:
    return tuple(parse_capability_token(t) for t in texts)


def test_containment_worked_example_violation():
    effects = make_effect_set(
        [
            EffectTuple("net.egress", HostGlob("*.example.com"), PROV),
            EffectTuple("fs.read", PathPrefix("./.cache/"), PROV),
            EffectTuple("fs.write.rev", PathPrefix("./.cache/"), PROV),
        ]
    )
    verdict = containment_check(
        effects, _declared("net.egress(*.example.com)", "fs.read(./.cache/)")
    )
    assert not verdict.contained
    assert len(verdict.violations) == 1
    v = verdict.violations[0]
    assert (v.kind, v.arg) == ("fs.write.rev", PathPrefix("./.cache/"))


def test_containment_empty_in_everything():
    assert containment_check(EMPTY_EFFECT_SET, ()).contained
    assert containment_check(EMPTY_EFFECT_SET, _declared("pay")).contained


def test_tainted_top_never_contained_even_under_full_vocabulary():
    # exhaustive kind enumeration: a bare token per vocabulary kind is the
    # largest declarable set, and Top still escapes it
    from skillproof.manifest import capability_kinds

    full = _declared(*capability_kinds())
    tainted = make_effect_set([], tainted_top=True, taint_origins=[PROV])
    verdict = containment_check(tainted, full)
    assert not verdict.contained
    assert verdict.violations[0].reason == "tainted-top"


def test_reverse_inclusion_never_a_violation():
    effects = make_effect_set([EffectTuple("fs.read", PathPrefix("./.cache/x"), PROV)])
    verdict = containment_check(
        effects, _declared("fs.read(./.cache/)", "pay", "mutate.schema")
    )
    assert verdict.contained


def test_bare_token_covers_any_arg():
    effects = make_effect_set([EffectTuple("pay", TOP, PROV)])
    assert containment_check(effects, _declared("pay")).contained
    assert not containment_check(effects, _declared("fs.read")).contained


def test_covering_token_picks_the_first_cover():
    declared = _declared("fs.read(./a/)", "fs.read(./a/b/)", "net.egress")
    assert covering_token(declared, "fs.read", PathPrefix("./a/b/c")) == declared[0]
    assert covering_token(declared, "fs.read", PathPrefix("./c")) is None
    assert covering_token(declared, "net.egress", HostGlob("x.org")) == declared[2]
    assert covering_token(declared, "pay", Opaque("x")) is None


def test_covering_token_none_needs_a_bare_token():
    # an absent or malformed argument is covered only by a pattern-less token
    assert covering_token(_declared("fs.read(./)"), "fs.read", TOP) is None
    bare = _declared("fs.read(./)", "fs.read")
    assert covering_token(bare, "fs.read", TOP) == parse_capability_token("fs.read")


@settings(deadline=None)
@given(effect_sets, st.lists(st.sampled_from(
    ["pay", "mutate.schema", "tool.invoke", "spawn.proc"]), max_size=3))
def test_over_declaration_monotone(e, extra_kinds):
    base = _declared("net.egress", "fs.read", "fs.write.rev")
    extended = base + _declared(*dict.fromkeys(extra_kinds))
    if containment_check(e, base).contained:
        assert containment_check(e, extended).contained


@settings(deadline=None)
@given(effect_sets)
def test_containment_monotone_under_weakening(e2):
    declared = _declared(
        "net.egress", "fs.read", "fs.write.rev(./.cache/)", "pay"
    )
    if not containment_check(e2, declared).contained:
        return
    # e1 covered tuple-wise by e2: drop tuples and keep args as-is
    e1 = make_effect_set(e2.effects[::2], tainted_top=e2.tainted_top)
    assert containment_check(e1, declared).contained
