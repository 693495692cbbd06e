"""The static layer's fast paths against slow references.

The char-by-char comment strippers below are the scanner's original ones,
kept here as the reference for the regex-jump strippers in
``static_analysis``. Anchored rule matching is checked against plain
``finditer``, and provenance line numbers against a count from the start of
the text at every match.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillproof.lattice import Provenance
from skillproof.static_analysis import (
    Rule,
    RulePack,
    Script,
    _anchors,
    _compile,
    _matches,
    analyze_script,
    default_rule_packs,
    strip_comments,
)
from tests.conftest import WORKED_SCRIPT

# ---------------------------------------------------------------------------
# Reference strippers
# ---------------------------------------------------------------------------


def _strip_python(source: str) -> str:
    out = list(source)
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c == "#":
            while i < n and source[i] != "\n":
                out[i] = " "
                i += 1
        elif c in "'\"":
            quote = c
            if source.startswith(quote * 3, i):
                i += 3
                while i < n:
                    if source[i] == "\\":
                        i += 2
                        continue
                    if source.startswith(quote * 3, i):
                        i += 3
                        break
                    i += 1
            else:
                i += 1
                while i < n and source[i] != "\n":
                    if source[i] == "\\":
                        i += 2
                        continue
                    if source[i] == quote:
                        i += 1
                        break
                    i += 1
        else:
            i += 1
    return "".join(out)


def _strip_shell(source: str) -> str:
    out = list(source)
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c == "\\":
            i += 2
        elif c == "'":
            i += 1
            while i < n and source[i] != "'":
                i += 1
            i += 1
        elif c == '"':
            i += 1
            while i < n and source[i] != '"':
                if source[i] == "\\":
                    i += 2
                    continue
                i += 1
            i += 1
        elif c == "#" and (i == 0 or source[i - 1] in " \t\n;|&("):
            while i < n and source[i] != "\n":
                out[i] = " "
                i += 1
        else:
            i += 1
    return "".join(out)


_NODE_REGEX_PREFIX = set("=([{,;:!&|?+-*%~^<>")


def _strip_node(source: str) -> str:
    out = list(source)
    i, n = 0, len(source)
    prev_sig = ""
    while i < n:
        c = source[i]
        if c in "'\"":
            prev_sig = c
            i += 1
            while i < n and source[i] != "\n":
                if source[i] == "\\":
                    i += 2
                    continue
                if source[i] == c:
                    i += 1
                    break
                i += 1
        elif c == "`":
            prev_sig = c
            i += 1
            while i < n:
                if source[i] == "\\":
                    i += 2
                    continue
                if source[i] == "`":
                    i += 1
                    break
                i += 1
        elif c == "/":
            nxt = source[i + 1] if i + 1 < n else ""
            if nxt == "/":
                while i < n and source[i] != "\n":
                    out[i] = " "
                    i += 1
            elif nxt == "*":
                out[i] = " "
                out[i + 1] = " "
                i += 2
                while i < n:
                    if source.startswith("*/", i):
                        out[i] = " "
                        out[i + 1] = " "
                        i += 2
                        break
                    if source[i] != "\n":
                        out[i] = " "
                    i += 1
            elif prev_sig in _NODE_REGEX_PREFIX or prev_sig == "":
                i += 1
                in_class = False
                while i < n and source[i] != "\n":
                    ch = source[i]
                    if ch == "\\":
                        i += 2
                        continue
                    if ch == "[":
                        in_class = True
                    elif ch == "]":
                        in_class = False
                    elif ch == "/" and not in_class:
                        i += 1
                        break
                    i += 1
                prev_sig = "/"
            else:
                prev_sig = "/"
                i += 1
        else:
            if not c.isspace():
                prev_sig = c
            i += 1
    return "".join(out)


REFERENCE_STRIPPERS = {"python": _strip_python, "shell": _strip_shell, "node": _strip_node}

_SOURCE_PIECES = [
    "#", "'", '"', "`", "\\", "/", "*", "{", "}", "\n",
    "'''", '"""', "//", "/*", "*/", "${", "\\\n",
    " ", "\t", "　", "a", "x1", "(", "[", "]", "=", ";", "|", "&", ")",
]
sources = st.lists(st.sampled_from(_SOURCE_PIECES), max_size=80).map("".join)


@settings(deadline=None, max_examples=400)
@given(sources)
def test_strip_comments_agrees_with_reference(source):
    for language, reference in REFERENCE_STRIPPERS.items():
        assert strip_comments(source, language) == reference(source), language


def test_strip_comments_agrees_with_reference_on_fixtures():
    fixtures = [
        "", "#", "\\", "'", "x = '''a\\''' # c\n'''", "a = 1 # '\n",
        "echo a#b # c\n'#' \"#\\\"\" #d", "echo \\# #x",
        "const r = /a[/]b/g // c\nx = y / z /* a\n b */ w", "`${a}` /* open",
        "a = 1\n/ 2 /x/", "'unterminated\n/re/",
        # a slash after a string or a comment, with only whitespace between
        "'a' / \"b\" // c", "x // c\n  / \"y\" // d", "x /* c */ / 'y' // d",
        # a slash inside a regex class does not close the regex
        "x = /[/]'/; y = 'z' // c",
        "f(# c\nx(#d",
    ]
    for source in fixtures:
        for language, reference in REFERENCE_STRIPPERS.items():
            assert strip_comments(source, language) == reference(source), (language, source)


# ---------------------------------------------------------------------------
# Anchored rule matching
# ---------------------------------------------------------------------------

DEFAULT_RULES = [rule for pack in default_rule_packs() for rule in pack.rules]

_TEXT_PIECES = [
    "open", "eval", "exec", "requests", "subprocess", "os", "system", "__import__",
    ".", "get", "post", "(", " ", "\n", "\t", "rm", "tee", "cat", "read", ">", ">>",
    "<", "=", "!", "curl", "wget", "source", "$", "'", '"', ";", "|", "&", "bash",
    "sh", "python3", "node", "fs", "promises", "readFile", "writeFile", "Sync",
    "child_process", "spawn", "new", "Function", "import", "fetch", "http", "https",
    "request", "_", "x", "a", "ab", "b", "AB", "c",
]
texts = st.lists(st.sampled_from(_TEXT_PIECES), max_size=60).map("".join)


def _spans(matches) -> list[tuple[int, int]]:
    return [m.span() for m in matches]


def test_default_rules_without_anchors():
    # the only default rule that starts with an alternative matching no
    # text, so it keeps plain finditer
    assert [r.rule_id for r in DEFAULT_RULES if _anchors(r.pattern) is None] == [
        "sh.taint.source-var"
    ]


@pytest.mark.parametrize(
    "pattern, anchors",
    [
        (r"\b(?:bash|sh|python[0-9.]*|node)\s+", ("bash", "node", "python", "sh")),
        (r"(?<![<>=!])>{1,2}", (">",)),
        (r"(?=a)(?:a|b)+?c", ("a", "b")),
        ("(ab)c", ("ab",)),
        ("[ab]c", ("a", "b")),
        # no anchors: an optional start, a class with a range, an empty
        # alternative, a zero-width-only alternative, ignored case
        ("a*b", None),
        ("[xa-c]b", None),
        ("(?:a|)b", None),
        ("(?:^|;)a", None),
        ("(?i)ab", None),
        ("(?i:a)b", None),
    ],
)
def test_anchor_shapes(pattern: str, anchors: tuple[str, ...] | None):
    assert _anchors(pattern) == anchors


@pytest.mark.parametrize(
    "pattern, text",
    [
        (r"\Ba", "aa"),  # a miss at one offset, a match at the next
        ("aa", "aaaa"),  # overlapping anchor occurrences
        (r"\brm\b", "rmrm rm"),
        (r"(?<![<>=!])>{1,2}", "a>>>b=>c"),
        (r"\b(?:bash|sh)\s+", "bash sh  zsh x"),
        (r"^(?:ab|b)", "ab\nb\nxab"),
    ],
)
def test_matches_as_finditer_cases(pattern: str, text: str):
    assert _spans(_matches(pattern, text)) == _spans(_compile(pattern).finditer(text))


@settings(deadline=None, max_examples=300)
@given(texts)
def test_default_rules_match_as_finditer(text):
    for rule in DEFAULT_RULES:
        expected = _spans(_compile(rule.pattern).finditer(text))
        assert _spans(_matches(rule.pattern, text)) == expected, rule.rule_id


_LITERALS = ["ab", "a", "b", "aa", "rm", ">", "x_", "sh", "bash"]
_PREFIXES = ["", r"\b", r"\B", "^", "$", r"(?<![<>=])", r"(?<=x)", r"(?=a)", r"(?!b)"]
_SUFFIXES = ["", r"\s*\(", r"\b", "x*", "$", "b?", r"\s+", "(?=n)"]
_CORES = st.one_of(
    st.sampled_from(_LITERALS).map(re.escape),
    st.lists(st.sampled_from(_LITERALS), min_size=2, max_size=3).map(
        lambda alts: "(?:" + "|".join(map(re.escape, alts)) + ")"
    ),
    st.sampled_from([
        "(?:ab)+", "a{2,3}", ">{1,2}", "(?:a|b)+?", "(ab)", "(?:rm)", "[ab]c",
        # shapes with no anchors
        "a*b", "(?:^|[;\\s])a", "(?:|ab)b", "(?:a|)b", "[a-c]b", "[xa-c]b", "[^a]b",
        "(?i:ab)c", ".", "(?:\\b|x)a",
    ]),
)
patterns = st.tuples(
    st.sampled_from(["", "", "", "(?i)"]),
    st.sampled_from(_PREFIXES),
    st.lists(_CORES, min_size=1, max_size=2).map("".join),
    st.sampled_from(_SUFFIXES),
).map("".join)
pattern_texts = st.lists(
    st.sampled_from(["a", "b", "ab", "x", "_", ">", "<", "rm", "sh", "ba", "n", "c", "B", " ", "\n", "(", ";"]),
    max_size=30,
).map("".join)


@settings(deadline=None, max_examples=600)
@given(patterns, pattern_texts)
def test_random_patterns_match_as_finditer(pattern, text):
    if pattern.startswith("(?i)"):
        assert _anchors(pattern) is None
    expected = _spans(_compile(pattern).finditer(text))
    assert _spans(_matches(pattern, text)) == expected


# ---------------------------------------------------------------------------
# Provenance line numbers
# ---------------------------------------------------------------------------


def test_provenance_lines_on_dense_matches():
    source = WORKED_SCRIPT * (8000 // WORKED_SCRIPT.count("\n"))
    assert source.count("\n") >= 7990
    python = default_rule_packs()[0]
    # every match taints, so every match's provenance is kept
    pack = RulePack("python", "1", tuple(Rule(r.rule_id, r.pattern, "taint_top") for r in python.rules))
    found = set(analyze_script(Script("s.py", "python", source), pack).taint_origins)
    stripped = strip_comments(source, "python")
    expected = {
        Provenance("s.py", stripped.count("\n", 0, m.start()) + 1, rule.rule_id)
        for rule in pack.rules
        for m in re.finditer(rule.pattern, stripped, re.MULTILINE)
    }
    assert len(expected) == 3 * (8000 // WORKED_SCRIPT.count("\n"))
    assert found == expected
