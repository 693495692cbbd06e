"""The static layer's fast paths against slow references.

The char-by-char comment strippers below are the scanner's original ones,
kept here as the reference for the regex-jump strippers in
``static_analysis``. Anchored rule matching is checked against plain
``finditer``, and provenance line numbers against a count from the start of
the text at every match.

The argument reader and the URL and path abstractions are checked against
their earlier form, kept below, in which a part is a ``("lit", text)`` or
``("hole", expr)`` pair; the current parts (text, or None for a hole) are
converted to pairs for the comparison.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skillproof.errors import MalformedPattern
from skillproof.lattice import TOP, AbstractValue, HostGlob, PathPrefix, Provenance
from skillproof.static_analysis import (
    ParsedArg,
    Rule,
    RulePack,
    Script,
    _SCAN_CAP,
    _anchors,
    _compile,
    _matches,
    _scan_to_arg_end,
    _skip_ws,
    abstract_path,
    abstract_url,
    analyze_script,
    default_rule_packs,
    read_call_argument,
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


# ---------------------------------------------------------------------------
# Argument reading and abstraction: the reference on ("lit" | "hole") pairs
# ---------------------------------------------------------------------------


def _ref_read_hole(text: str, i: int) -> tuple[str, int]:
    n = len(text)
    depth, j = 1, i
    while j < n:
        if text[j] == "{":
            depth += 1
        elif text[j] == "}":
            depth -= 1
            if not depth:
                break
        j += 1
    return text[i:j], j + 1


def _ref_read_string(text: str, i: int, language: str):
    n = len(text)
    is_format = False
    raw = False
    start = i
    if language == "python":
        j = i
        prefix = ""
        while j < n and len(prefix) < 3 and text[j] in "fFrRbBuU":
            prefix += text[j]
            j += 1
        if j < n and text[j] in "'\"":
            is_format = "f" in prefix.lower()
            raw = "r" in prefix.lower()
            i = j
        elif prefix:
            return None
    if i >= n or text[i] not in ("'\"`" if language == "node" else "'\""):
        return None
    quote = text[i]
    template = quote == "`"
    triple = language == "python" and text.startswith(quote * 3, i)
    i += 3 if triple else 1
    parts: list[tuple[str, str]] = []
    lit: list[str] = []

    def flush() -> None:
        if lit:
            parts.append(("lit", "".join(lit)))
            lit.clear()

    while i < n and i - start < _SCAN_CAP:
        c = text[i]
        if c == "\\":
            nxt = text[i + 1] if i + 1 < n else ""
            if raw:
                lit.append(c)
                lit.append(nxt)
            elif nxt in ("\\", "'", '"', "`"):
                lit.append(nxt)
            elif nxt == "\n":
                pass  # line continuation
            else:
                lit.append(c)
                lit.append(nxt)
            i += 2
            continue
        if triple:
            if text.startswith(quote * 3, i):
                flush()
                return tuple(parts), i + 3
        elif c == quote:
            flush()
            return tuple(parts), i + 1
        elif c == "\n" and not template:
            break  # unterminated single-line string
        if is_format and text.startswith(("{{", "}}"), i):
            lit.append(c)
            i += 2
            continue
        if (is_format and c == "{") or (template and text.startswith("${", i)):
            flush()
            expr, i = _ref_read_hole(text, i + 1 if c == "{" else i + 2)
            parts.append(("hole", expr))
            continue
        lit.append(c)
        i += 1
    flush()
    return tuple(parts), i  # unterminated; best-effort


def ref_read_call_argument(text: str, pos: int, language: str) -> ParsedArg:
    i = _skip_ws(text, pos)
    n = len(text)
    if i >= n or text[i] in "),":
        return ParsedArg("absent", (), i)
    read = _ref_read_string(text, i, language)
    if read:
        parts, j = read
        j = _skip_ws(text, j)
        if j >= n or text[j] in "),":
            return ParsedArg("literal", parts, j)
        return ParsedArg("nonliteral", (), _scan_to_arg_end(text, j))
    if text[i] == "[":
        j = _skip_ws(text, i + 1)
        parts: list[tuple[str, str]] = []
        while j < n:
            if text[j] == "]":
                return ParsedArg("list", tuple(parts), _skip_ws(text, j + 1))
            element = _ref_read_string(text, j, language)
            if not element:
                return ParsedArg("nonliteral", (), _scan_to_arg_end(text, i))
            if parts:
                parts.append(("lit", " "))
            parts.extend(element[0])
            j = _skip_ws(text, element[1])
            if j < n and text[j] == ",":
                j = _skip_ws(text, j + 1)
        return ParsedArg("nonliteral", (), _scan_to_arg_end(text, i))
    return ParsedArg("nonliteral", (), _scan_to_arg_end(text, i))


def ref_abstract_url(parts) -> AbstractValue:
    if not parts or parts[0][0] != "lit":
        return TOP
    first = parts[0][1]
    for scheme in ("https://", "http://"):
        if first.lower().startswith(scheme):
            first = first[len(scheme):]
            break
    else:
        return TOP
    items = [("lit", first)] + list(parts[1:])
    host_items = []
    for typ, text in items:
        if typ == "hole":
            host_items.append((typ, text))
            continue
        cut = next((k for k, ch in enumerate(text) if ch in "/:?#"), len(text))
        host_items.append(("lit", text[:cut]))
        if cut < len(text):
            break
    if not any(typ == "hole" for typ, _ in host_items):
        host = "".join(text for _, text in host_items)
        if not host:
            return TOP
        try:
            return HostGlob(host)
        except MalformedPattern:
            return TOP
    seen_dot = False
    suffix = ""
    for typ, text in host_items:
        if typ == "hole":
            if seen_dot:
                return TOP
            continue
        if not seen_dot:
            dot = text.find(".")
            if dot != -1:
                seen_dot = True
                suffix = text[dot:]
        else:
            suffix += text
    if not seen_dot or len(suffix) < 2:
        return TOP
    try:
        return HostGlob("*" + suffix)
    except MalformedPattern:
        return TOP


def ref_abstract_path(parts) -> AbstractValue:
    if not parts:
        return TOP
    if not any(typ == "hole" for typ, _ in parts):
        text = "".join(t for _, t in parts)
        if not text:
            return TOP
        try:
            return PathPrefix(text)
        except MalformedPattern:
            return TOP
    if parts[0][0] != "lit":
        return TOP
    head = parts[0][1]
    slash = head.rfind("/")
    if slash == -1:
        return TOP
    try:
        return PathPrefix(head[: slash + 1])
    except MalformedPattern:
        return TOP


def _pairs(parts) -> tuple[tuple[str, str], ...]:
    """Current parts in the reference's form, with "" for a hole's expression."""
    return tuple(("hole", "") if p is None else ("lit", p) for p in parts)


def _without_exprs(pairs) -> tuple[tuple[str, str], ...]:
    return tuple((typ, "" if typ == "hole" else text) for typ, text in pairs)


# host-like text is drawn more often than the other pieces, so that globs
# and exact hosts come up as well as Top
_HOST_PIECES = ["a", "example", "com", ".", ".", "b-c", "_x", "1", ""]
_OTHER_PIECES = [
    "http", "HtTpS", "://", ":/", "//", "s", ":", "/", "?", "#", "..", "*", "*.", "-",
    "./", "~", " ",
]
_literals = st.lists(
    st.one_of(st.sampled_from(_HOST_PIECES), st.sampled_from(_OTHER_PIECES)), max_size=6
).map("".join)
_heads = st.one_of(
    _literals,
    st.tuples(
        st.sampled_from(["https://", "http://", "HTTPS://", "hTTp://", "ftp://", "https:/"]),
        _literals,
    ).map("".join),
)
_parts = st.tuples(
    st.one_of(st.none(), _heads),
    st.lists(st.one_of(st.none(), _literals), max_size=4),
).map(lambda t: (t[0], *t[1]))
# URL-shaped parts: a scheme, holes and dot-free text, then dotted labels
# between holes
_chunks = st.tuples(
    st.sampled_from(["", "."]),
    st.lists(st.sampled_from(["a", "example", "com", "b-c", "_x", "1", "", "*"]), max_size=3).map(
        ".".join
    ),
    st.sampled_from(["", "", ".", "/", ":", "?", "#", "/p.q", ":8"]),
).map("".join)
_url_parts = st.tuples(
    st.sampled_from(["https://", "http://", "HTTPS://", "hTTp://"]),
    st.sampled_from(["", "a", "x-"]),
    st.lists(st.one_of(st.none(), st.sampled_from(["", "a", "-b"])), max_size=2),
    st.lists(st.one_of(st.none(), _chunks), max_size=3),
).map(lambda t: (t[0] + t[1], *t[2], *t[3]))


@settings(deadline=None, max_examples=1500)
@given(st.one_of(st.just(()), _parts, _url_parts))
def test_abstractions_agree_with_reference(parts):
    assert abstract_url(parts) == ref_abstract_url(_pairs(parts))
    assert abstract_path(parts) == ref_abstract_path(_pairs(parts))


@pytest.mark.parametrize(
    "parts, url",
    [
        # a hole after the first dot
        (("https://a.", None, ".example.com"), TOP),
        (("https://", None, ".a.", None, ".com"), TOP),
        # holes before the first dot glob the leftmost label
        (("https://", None, "-x", None, ".example.com/p"), HostGlob("*.example.com")),
        (("https://", None, "."), TOP),
        (("https://", None), TOP),
        # the scheme decides, in any case
        (("ftp://example.com",), TOP),
        (("example.com",), TOP),
        (("//example.com",), TOP),
        (("HTTP://Example.com/",), HostGlob("Example.com")),
        # the host ends at the first "/", ":", "?" or "#"
        (("https://example.com:8080/x",), HostGlob("example.com")),
        (("https://example.com?q=1",), HostGlob("example.com")),
        (("https://example.com#top",), HostGlob("example.com")),
        (("https://", None, ".example.com:", None), HostGlob("*.example.com")),
        (("https://", None, ".example.com?", None), HostGlob("*.example.com")),
        (("https://", None, ".example.com#", None), HostGlob("*.example.com")),
        (("https://api.example.com/", None), HostGlob("api.example.com")),
        (("https://",), TOP),
        ((), TOP),
        ((None,), TOP),
    ],
)
def test_abstract_url_cases(parts, url):
    assert abstract_url(parts) == url == ref_abstract_url(_pairs(parts))


@pytest.mark.parametrize(
    "parts, path",
    [
        (("./out/", None, ".txt"), PathPrefix("./out/")),
        (("./out/a.txt",), PathPrefix("./out/a.txt")),
        (("./out", None), PathPrefix("./")),
        (("out", None), TOP),
        ((None, "/x"), TOP),
        (("",), TOP),
        ((), TOP),
        (("./a*/",), TOP),
        (("./a*/", None), TOP),
    ],
)
def test_abstract_path_cases(parts, path):
    assert abstract_path(parts) == path == ref_abstract_path(_pairs(parts))


def _assert_reads_as_reference(text: str, language: str) -> None:
    new = read_call_argument(text, 0, language)
    ref = ref_read_call_argument(text, 0, language)
    if ref.kind == "list" and ref.end < len(text) and text[ref.end] not in "),":
        # a list followed by more of the expression is only part of it
        assert new == ParsedArg("nonliteral", (), _scan_to_arg_end(text, ref.end))
    else:
        assert (new.kind, _pairs(new.parts), new.end) == (
            ref.kind, _without_exprs(ref.parts), ref.end,
        )


_ARG_PIECES = [
    "'", '"', "`", "f", "r", "b", "f'", 'f"', "[", "]", "(", ")", ",", " ", "\n", "\\",
    "{", "}", "{{", "${", "x", "./b.sh", "cmd", "[:0]", "[1]", " + ", " * 0", " || ",
    "'''", "check=True", "a/b",
]
# whole string and list literals, each followed by the rest of an argument
_STRINGS = ['"./b.sh"', "'x'", 'f"{a}/b"', "`${a}.c`", '"a\\"b"', "''", '"open', "r'\\d'"]
_TAILS = [
    "", ")", ", check=True)", " )", "[:0] + cmd)", " * 0 + cmd)", "[1] || cmd)",
    " + x", "\n)", ".y, z)", "]", ", ",
]
_lists = st.tuples(
    st.lists(st.sampled_from(_STRINGS), max_size=3),
    st.sampled_from([", ", ",", " ", ",\n "]),
).map(lambda t: "[" + t[1].join(t[0]) + "]")
_args = st.one_of(
    st.lists(st.sampled_from(_ARG_PIECES), max_size=24).map("".join),
    st.tuples(
        st.one_of(st.sampled_from(_STRINGS), _lists), st.sampled_from(_TAILS)
    ).map("".join),
)


@settings(deadline=None, max_examples=1500)
@given(_args, st.sampled_from(["python", "node"]))
def test_read_call_argument_agrees_with_reference(text, language):
    _assert_reads_as_reference(text, language)


@pytest.mark.parametrize(
    "text, kind",
    [
        ('["./b.sh"][:0] + cmd)', "nonliteral"),
        ('["./b.sh"] * 0 + cmd)', "nonliteral"),
        ('["./b.sh"][1] || cmd)', "nonliteral"),
        ('["./b.sh"]  )', "list"),
        ('["./b.sh", f"{x}"], check=True)', "list"),
        ('["./b.sh"]', "list"),
        ('"./b.sh" + cmd)', "nonliteral"),
        ('"./b.sh" )', "literal"),
        ("[cmd])", "nonliteral"),
        ("[)", "nonliteral"),
        (" )", "absent"),
    ],
)
def test_read_call_argument_cases(text, kind):
    assert read_call_argument(text, 0, "python").kind == kind
    _assert_reads_as_reference(text, "python")
