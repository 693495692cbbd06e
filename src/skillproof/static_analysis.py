"""Conservative effect scanning of skill scripts via per-language rule packs.

The scanner is flow-insensitive by design: a rule match anywhere in the
comment-stripped source contributes its effect, including dead code, and any
reflective construct taints the whole program to Top. That over-approximation
is the point; precision upgrades must never remove the conservativity.

String literals survive comment stripping (arguments are extracted from
them), so constructs inside strings still count toward the effect set.
"""

from __future__ import annotations

import heapq
import os
import re
from dataclasses import dataclass, field
from functools import cache, lru_cache, partial, reduce
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping

try:
    from re import _parser as _sre_parse  # Python 3.11+
except ImportError:  # pragma: no cover - Python 3.10
    import sre_parse as _sre_parse

from ._version import __version__
from .canonical import canonical_loads, document_hash
from .errors import MalformedPattern, NonCanonicalizable, PackError
from .lattice import (
    EMPTY_EFFECT_SET,
    AbstractValue,
    ContainmentVerdict,
    EffectSet,
    EffectTuple,
    HostGlob,
    Opaque,
    PathPrefix,
    Provenance,
    TOP,
    containment_check,
    effect_set_to_json,
    effects_join,
    make_effect_set,
    value_leq,
)
from .manifest import Manifest, is_known_kind

LANGUAGE_EXTENSIONS = {
    ".py": "python",
    ".sh": "shell",
    ".mjs": "node",
    ".js": "node",
    ".ts": "node",
}

LANGUAGES = ("python", "shell", "node")


@dataclass(frozen=True)
class Script:
    id: str
    language: str
    source: str
    decode_ok: bool = True


def discover_scripts(skill_dir: Path | str) -> list[Script]:
    """Every file under ``skill_dir`` with a known language extension,
    excluding the ``evidence/`` subdirectory, in lexicographic order of
    relative path."""
    skill_dir = Path(skill_dir)
    if not skill_dir.is_dir():
        raise FileNotFoundError(f"skill directory {skill_dir} does not exist")
    scripts: list[Script] = []
    paths = sorted(
        p for p in skill_dir.rglob("*")
        if p.is_file() and p.suffix in LANGUAGE_EXTENSIONS
    )
    for path in paths:
        rel = path.relative_to(skill_dir).as_posix()
        if rel == "SKILL.md" or rel.split("/", 1)[0] == "evidence":
            continue
        raw = path.read_bytes()
        # a name that is not UTF-8 enters the evidence as escaped text, and
        # the script taints as undecodable
        script_id = os.fsencode(rel).decode("utf-8", "backslashreplace")
        try:
            source, decode_ok = raw.decode("utf-8"), script_id == rel
        except UnicodeDecodeError:
            source, decode_ok = "", False
        scripts.append(Script(script_id, LANGUAGE_EXTENSIONS[path.suffix], source, decode_ok))
    return scripts


# ---------------------------------------------------------------------------
# Comment stripping (layout-preserving: comments are blanked, never removed,
# so provenance line numbers refer to the original file)
# ---------------------------------------------------------------------------


# Each stripper jumps with a compiled search to the next character that can
# open a comment or a string, and copies the text in between unchanged.
_PY_NEXT = re.compile(r"[#'\"]")
_SH_NEXT = re.compile(r"[\\'\"#]")
_ND_NEXT = re.compile(r"['\"`/]")
# Inside a string: the next escape or closing quote, and for a single-line
# string also the next newline.
_LINE_STRING_STOP = {q: re.compile(rf"[\\\n{q}]") for q in "'\""}
_LONG_STRING_STOP = {q: re.compile(rf"[\\{q}]") for q in "'\"`"}
_REGEX_LITERAL_STOP = re.compile(r"[\\\[\]/\n]")


def _skip_string(source: str, i: int, stop: re.Pattern[str], close: str) -> int:
    """The end of a string body that starts at ``i``: just past ``close``,
    at the newline that ends an unterminated single-line string, or at or
    past the end of the text."""
    while (m := stop.search(source, i)) is not None:
        j = m.start()
        c = source[j]
        if c == "\\":
            i = j + 2
        elif c == "\n":
            return j
        elif source.startswith(close, j):
            return j + len(close)
        else:
            i = j + 1
    return len(source)


def _line_end(source: str, i: int) -> int:
    end = source.find("\n", i)
    return len(source) if end == -1 else end


def _strip_python(source: str) -> str:
    out: list[str] = []
    last = i = 0
    while (m := _PY_NEXT.search(source, i)) is not None:
        i = m.start()
        c = source[i]
        if c == "#":
            end = _line_end(source, i)
            out += (source[last:i], " " * (end - i))
            last = i = end
        elif source.startswith(c * 3, i):
            i = _skip_string(source, i + 3, _LONG_STRING_STOP[c], c * 3)
        else:
            i = _skip_string(source, i + 1, _LINE_STRING_STOP[c], c)
    out.append(source[last:])
    return "".join(out)


def _strip_shell(source: str) -> str:
    out: list[str] = []
    last = i = 0
    while (m := _SH_NEXT.search(source, i)) is not None:
        i = m.start()
        c = source[i]
        if c == "\\":
            i += 2
        elif c == "'":
            end = source.find("'", i + 1)
            i = len(source) if end == -1 else end + 1
        elif c == '"':
            i = _skip_string(source, i + 1, _LONG_STRING_STOP['"'], '"')
        elif i == 0 or source[i - 1] in " \t\n;|&(":
            end = _line_end(source, i)
            out += (source[last:i], " " * (end - i))
            last = i = end
        else:
            i += 1
    out.append(source[last:])
    return "".join(out)


_NODE_REGEX_PREFIX = set("=([{,;:!&|?+-*%~^<>")


def _skip_regex_literal(source: str, i: int) -> int:
    """The end of a regex literal whose body starts at ``i``: just past its
    closing ``/``, at the newline that ends it unterminated, or at or past
    the end of the text."""
    in_class = False
    while (m := _REGEX_LITERAL_STOP.search(source, i)) is not None:
        j = m.start()
        c = source[j]
        if c == "\\":
            i = j + 2
            continue
        if c == "\n":
            return j
        if c == "[":
            in_class = True
        elif c == "]":
            in_class = False
        elif not in_class:
            return j + 1
        i = j + 1
    return len(source)


def _strip_node(source: str) -> str:
    out: list[str] = []
    last = i = 0
    prev_sig = ""  # last significant char, for the division/regex heuristic
    plain = 0  # start of the plain text since the last string, comment or slash
    while (m := _ND_NEXT.search(source, i)) is not None:
        i = m.start()
        c = source[i]
        if c != "/":
            prev_sig = c
            stop = _LONG_STRING_STOP[c] if c == "`" else _LINE_STRING_STOP[c]
            i = plain = _skip_string(source, i + 1, stop, c)
            continue
        prev_sig = source[plain:i].rstrip()[-1:] or prev_sig
        nxt = source[i + 1 : i + 2]
        if nxt == "/":
            end = _line_end(source, i)
            out += (source[last:i], " " * (end - i))
            last = i = end
        elif nxt == "*":
            close = source.find("*/", i + 2)
            end = len(source) if close == -1 else close + 2
            blanked = "\n".join(" " * len(line) for line in source[i:end].split("\n"))
            out += (source[last:i], blanked)
            last = i = end
        elif not prev_sig or prev_sig in _NODE_REGEX_PREFIX:
            # regex literal: keep its text, just skip past it
            i = _skip_regex_literal(source, i + 1)
            prev_sig = "/"
        else:
            i += 1
            prev_sig = "/"
        plain = i
    out.append(source[last:])
    return "".join(out)


_STRIPPERS = {"python": _strip_python, "shell": _strip_shell, "node": _strip_node}


def strip_comments(source: str, language: str) -> str:
    try:
        return _STRIPPERS[language](source)
    except KeyError:
        raise PackError(f"unknown language {language!r}") from None


# ---------------------------------------------------------------------------
# Call-argument lexing (python and node)
#
# Parts are literal text, with None for a hole: an f-string or
# template-literal interpolation, or a shell variable.
# ---------------------------------------------------------------------------

Parts = tuple[str | None, ...]


@dataclass(frozen=True)
class ParsedArg:
    kind: str  # "literal" | "list" | "nonliteral" | "absent"
    parts: Parts = ()
    end: int = 0


_SCAN_CAP = 2000


def _read_hole(text: str, i: int) -> int:
    """The offset just past the closing brace of an interpolation hole whose
    body starts at ``i`` (one past the text when the hole is unterminated)."""
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
    return j + 1


def _read_string(text: str, i: int, language: str) -> tuple[Parts, int] | None:
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
    parts: list[str | None] = []
    lit: list[str] = []

    def flush() -> None:
        if lit:
            parts.append("".join(lit))
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
            i = _read_hole(text, i + 1 if c == "{" else i + 2)
            parts.append(None)
            continue
        lit.append(c)
        i += 1
    flush()
    return tuple(parts), i  # unterminated; best-effort


def _scan_to_arg_end(text: str, i: int) -> int:
    """Position of the ``,`` or ``)`` closing the current argument."""
    n = len(text)
    depth = 0
    steps = 0
    while i < n and steps < _SCAN_CAP:
        c = text[i]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            if depth == 0:
                return i
            depth -= 1
        elif c == "," and depth == 0:
            return i
        elif c in "'\"`":
            read = _read_string(text, i, "node" if c == "`" else "python")
            if read:
                i = read[1]
                steps += 1
                continue
        i += 1
        steps += 1
    return i


def _skip_ws(text: str, i: int) -> int:
    while i < len(text) and text[i] in " \t\r\n":
        i += 1
    return i


def _read_list(text: str, i: int, language: str) -> tuple[Parts, int] | None:
    """A flat list of string literals starting at ``i``: its elements' parts
    joined by spaces, and the offset just past its ``]``."""
    if text[i] != "[":
        return None
    n = len(text)
    j = _skip_ws(text, i + 1)
    parts: list[str | None] = []
    while j < n:
        if text[j] == "]":
            return tuple(parts), j + 1
        element = _read_string(text, j, language)
        if not element:
            return None
        if parts:
            parts.append(" ")
        parts += element[0]
        j = _skip_ws(text, element[1])
        if j < n and text[j] == ",":
            j = _skip_ws(text, j + 1)
    return None


def read_call_argument(text: str, pos: int, language: str) -> ParsedArg:
    """Parse the argument expression starting at ``pos`` (just past the
    opening paren or a comma). A string literal or a flat list of string
    literals is recovered when it is the whole argument; everything else is
    non-literal."""
    i = _skip_ws(text, pos)
    if i >= len(text) or text[i] in "),":
        return ParsedArg("absent", (), i)
    for kind, reader in (("literal", _read_string), ("list", _read_list)):
        read = reader(text, i, language)
        if read:
            parts, j = read
            j = _skip_ws(text, j)
            if j >= len(text) or text[j] in "),":
                return ParsedArg(kind, parts, j)
            return ParsedArg("nonliteral", (), _scan_to_arg_end(text, j))
    return ParsedArg("nonliteral", (), _scan_to_arg_end(text, i))


# ---------------------------------------------------------------------------
# Argument abstraction
# ---------------------------------------------------------------------------


def _or_top(make: Callable[[str], AbstractValue], text: str) -> AbstractValue:
    """``make(text)``, or Top when ``text`` is not a valid pattern."""
    try:
        return make(text)
    except MalformedPattern:
        return TOP


_HOST_END = re.compile(r"[/:?#]")


def abstract_url(parts: Parts) -> AbstractValue:
    """Host summary of a URL literal or template.

    A template whose interpolations are confined to the leftmost host label
    abstracts to a ``*.suffix`` glob (interpolated values are assumed not to
    carry URL metacharacters); any other interpolation degrades to Top.
    """
    head = parts[0] if parts else None
    if head is None or not head.lower().startswith(("https://", "http://")):
        return TOP
    host: list[str | None] = []
    for part in (head.partition("//")[2], *parts[1:]):
        if part is not None and (cut := _HOST_END.search(part)):
            host.append(part[: cut.start()])
            break
        host.append(part)
    if None not in host:
        return _or_top(HostGlob, "".join(host))
    after_holes = len(host) - host[::-1].index(None)
    if any(part and "." in part for part in host[:after_holes]):
        return TOP  # a hole after the first dot
    _, dot, suffix = "".join(host[after_holes:]).partition(".")
    return _or_top(HostGlob, "*." + suffix) if dot else TOP


def abstract_path(parts: Parts) -> AbstractValue:
    """Path summary: a full literal stays exact; a template keeps its literal
    directory prefix (up to the last ``/`` before the first interpolation)."""
    text = _literal_text(parts)
    if text is not None:
        return _or_top(PathPrefix, text)
    head = parts[0] or ""
    return _or_top(PathPrefix, head[: head.rfind("/") + 1])  # no "/": empty, so Top


def _literal_text(parts: Parts) -> str | None:
    """The text of hole-free parts; None when any part is a hole."""
    return None if None in parts else "".join(parts)


_SHELL_CONTROL = re.compile(r"[;&|<>$`()\n]")
_INTERPRETER = re.compile(r"bash|sh|python[0-9.]*|node")


def resolve_spawn_target(command: str, known_scripts: frozenset[str]) -> str | None:
    """A spawn target counts as internal only when the program, or an
    interpreter's first argument, literally names a sibling script. Shell
    control characters can start any other program, so they rule out an edge."""
    tokens = command.split()
    if not tokens or _SHELL_CONTROL.search(command):
        return None
    token = tokens[1] if _INTERPRETER.fullmatch(tokens[0]) and len(tokens) > 1 else tokens[0]
    for candidate in (token, token[2:] if token.startswith("./") else token):
        if candidate in known_scripts:
            return candidate
    return None


# ---------------------------------------------------------------------------
# Shell-line helpers
# ---------------------------------------------------------------------------

_SHELL_URL_RE = re.compile(r"""https?://[^\s'"`;|&)>]+""")
_SHELL_HOLE_RE = re.compile(r"\$\{[^}]*\}|\$\w+")
_SHELL_TOKEN_RE = re.compile(r"""'[^']*'|"[^"]*"|[^\s;|&<>]+""")


def _shell_parts(token: str) -> Parts:
    if token.startswith("'") and token.endswith("'") and len(token) >= 2:
        return (token[1:-1],)
    if token.startswith('"') and token.endswith('"') and len(token) >= 2:
        token = token[1:-1]
    parts: list[str | None] = []
    pos = 0
    for m in _SHELL_HOLE_RE.finditer(token):
        if m.start() > pos:
            parts.append(token[pos : m.start()])
        parts.append(None)
        pos = m.end()
    if pos < len(token):
        parts.append(token[pos:])
    return tuple(parts)


def _shell_line_rest(text: str, pos: int) -> str:
    end = text.find("\n", pos)
    return text[pos:] if end == -1 else text[pos:end]


def _shell_first_token(rest: str, skip_flags: bool = True) -> str | None:
    for m in _SHELL_TOKEN_RE.finditer(rest):
        token = m.group()
        if skip_flags and token.startswith("-"):
            continue
        return token
    return None


# ---------------------------------------------------------------------------
# Rule packs
# ---------------------------------------------------------------------------

DEFAULT_REVERSIBLE_PREFIXES = ("./.cache/", "./tmp/")


@dataclass(frozen=True)
class Rule:
    rule_id: str
    pattern: str
    extract: str
    kind: str | None = None
    reversible: bool = False

    def __post_init__(self) -> None:
        for name in ("rule_id", "pattern", "extract"):
            if not isinstance(getattr(self, name), str):
                raise PackError(f"malformed rule: {name} {getattr(self, name)!r} is not a string")
        if not (self.kind is None or isinstance(self.kind, str)):
            raise PackError(f"malformed rule: kind {self.kind!r} is not a string")
        # bool("false") is True, and a reversible rule makes every write it finds reversible
        if not isinstance(self.reversible, bool):
            raise PackError(f"malformed rule: reversible {self.reversible!r} is not a boolean")

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "rule_id": self.rule_id,
            "pattern": self.pattern,
            "extract": self.extract,
        }
        if self.kind is not None:
            doc["kind"] = self.kind
        if self.reversible:
            doc["reversible"] = True
        return doc


@dataclass(frozen=True)
class RulePack:
    language: str
    version: str
    rules: tuple[Rule, ...]
    reversible_prefixes: tuple[str, ...] = DEFAULT_REVERSIBLE_PREFIXES
    pack_hash: str = field(init=False, default="")

    def __post_init__(self) -> None:
        # a bare string would split into one-character prefixes, and "."
        # would make every relative write reversible
        prefixes = self.reversible_prefixes
        if not isinstance(prefixes, (list, tuple)) or not all(isinstance(p, str) for p in prefixes):
            raise PackError(f"reversible_prefixes {prefixes!r} is not a list of strings")
        object.__setattr__(self, "reversible_prefixes", tuple(prefixes))
        if self.language not in LANGUAGES:
            raise PackError(f"unknown rule-pack language {self.language!r}")
        if not isinstance(self.version, str):
            raise PackError(f"rule-pack version {self.version!r} is not a string")
        rules = self.rules
        if not isinstance(rules, (list, tuple)) or not all(isinstance(r, Rule) for r in rules):
            raise PackError("rules must be a list of Rule values")
        object.__setattr__(self, "rules", tuple(rules))
        seen: set[str] = set()
        for rule in self.rules:
            if rule.rule_id in seen:
                raise PackError(f"duplicate rule_id {rule.rule_id!r}")
            seen.add(rule.rule_id)
            if rule.extract not in _EXTRACTORS:
                raise PackError(f"{rule.rule_id}: unknown extractor {rule.extract!r}")
            if rule.kind is not None and rule.kind != "fs.write" and not is_known_kind(rule.kind):
                raise PackError(f"{rule.rule_id}: unknown kind {rule.kind!r}")
            try:
                _compile(rule.pattern)
            except (re.error, OverflowError, RecursionError) as exc:  # a{4294967296}, ((…))
                raise PackError(f"{rule.rule_id}: bad pattern: {exc}") from exc
        for prefix in self.reversible_prefixes:
            try:
                PathPrefix(prefix)
            except MalformedPattern as exc:
                raise PackError(f"bad reversible prefix: {exc}") from exc
        object.__setattr__(self, "pack_hash", document_hash(self.to_dict()))

    def to_dict(self) -> dict[str, Any]:
        return {
            "language": self.language,
            "version": self.version,
            "reversible_prefixes": list(self.reversible_prefixes),
            "rules": [r.to_dict() for r in self.rules],
        }


def _rule_from_dict(r: Mapping[str, Any]) -> Rule:
    return Rule(r["rule_id"], r["pattern"], r["extract"], r.get("kind"), r.get("reversible", False))


def rule_pack_from_dict(doc: Mapping[str, Any]) -> RulePack:
    try:
        return RulePack(
            language=doc["language"],
            version=doc["version"],
            rules=tuple(_rule_from_dict(r) for r in doc["rules"]),
            reversible_prefixes=doc.get("reversible_prefixes", DEFAULT_REVERSIBLE_PREFIXES),
        )
    except (KeyError, TypeError) as exc:
        raise PackError(f"malformed rule pack: {exc}") from exc


def load_rule_pack(path: Path | str) -> RulePack:
    path = Path(path)
    try:
        doc = canonical_loads(path.read_bytes())
    except (OSError, NonCanonicalizable) as exc:
        raise PackError(f"{path}: cannot load rule pack: {exc}") from exc
    return rule_pack_from_dict(doc)


def load_rule_packs(directory: Path | str) -> tuple[RulePack, ...]:
    directory = Path(directory)
    if not directory.is_dir():
        raise PackError(f"rule-pack directory {directory} does not exist")
    packs = tuple(load_rule_pack(p) for p in sorted(directory.glob("*.json")))
    if not packs:
        raise PackError(f"no rule packs found under {directory}")
    return packs


@cache
def default_rule_packs() -> tuple[RulePack, ...]:
    """The built-in packs, built once: packs are frozen."""
    python = RulePack(
        language="python",
        version="1",
        rules=(
            Rule("py.net.requests", r"\brequests\s*\.\s*(?:get|post)\s*\(", "url_host", "net.egress"),
            Rule("py.fs.open", r"\bopen\s*\(", "python_open"),
            Rule("py.spawn.subprocess", r"\bsubprocess\s*\.\s*\w+\s*\(", "spawn", "spawn.proc"),
            Rule("py.spawn.os-system", r"\bos\s*\.\s*system\s*\(", "spawn", "spawn.proc"),
            Rule("py.taint.eval", r"\beval\s*\(", "taint_top"),
            Rule("py.taint.exec", r"\bexec\s*\(", "taint_top"),
            Rule("py.taint.dynimport", r"\b__import__\s*\(", "taint_top"),
        ),
    )
    shell = RulePack(
        language="shell",
        version="1",
        rules=(
            Rule("sh.net.curl", r"\b(?:curl|wget)\b", "shell_url", "net.egress"),
            Rule("sh.fs.redirect", r"(?<![<>=!])>{1,2}", "shell_redirect", "fs.write"),
            Rule("sh.fs.rm", r"\brm\b", "shell_path", "fs.write"),
            Rule("sh.fs.tee", r"\btee\b", "shell_path", "fs.write"),
            Rule("sh.fs.cat", r"\bcat\b", "shell_path", "fs.read"),
            Rule("sh.fs.read-builtin", r"\bread\b", "const_top", "fs.read"),
            Rule("sh.taint.eval", r"\beval\b", "taint_top"),
            Rule("sh.taint.source-var", r"(?:^|[;|&\s])(?:source|\.)\s+[\"']?\$", "taint_top"),
            Rule("sh.spawn.interp", r"\b(?:bash|sh|python[0-9.]*|node)\s+", "shell_spawn", "spawn.proc"),
        ),
    )
    node = RulePack(
        language="node",
        version="1",
        rules=(
            Rule("nd.net.fetch", r"\bfetch\s*\(", "url_host", "net.egress"),
            Rule("nd.net.http", r"\bhttps?\s*\.\s*(?:request|get)\s*\(", "url_host", "net.egress"),
            Rule("nd.fs.read", r"\bfs(?:\s*\.\s*promises)?\s*\.\s*readFile(?:Sync)?\s*\(", "path", "fs.read"),
            Rule("nd.fs.write", r"\bfs(?:\s*\.\s*promises)?\s*\.\s*(?:writeFile|appendFile)(?:Sync)?\s*\(", "path", "fs.write"),
            Rule("nd.spawn.child", r"\bchild_process\s*\.\s*(?:exec|execSync|execFile|execFileSync|spawn|spawnSync|fork)\s*\(", "spawn", "spawn.proc"),
            Rule("nd.taint.eval", r"\beval\s*\(", "taint_top"),
            Rule("nd.taint.newfunc", r"\bnew\s+Function\s*\(", "taint_top"),
            Rule("nd.taint.dynimport", r"\bimport\s*\(", "taint_top"),
        ),
    )
    return (python, shell, node)


@lru_cache(maxsize=256)
def _compile(pattern: str) -> re.Pattern[str]:
    return re.compile(pattern, re.MULTILINE)


# Every default pattern starts with ``\b`` or a lookbehind, so ``re`` finds
# no literal prefix and tries a match at every position of the text. Where
# every match must begin with one of a few literal strings (the anchors), a
# search for the next anchor skips the positions where no match can start.


def _literal_starts(nodes: Any) -> frozenset[str] | None:
    """The literal strings one of which every match of the parsed pattern
    ``nodes`` begins with; None when its shape gives no such set."""
    p = _sre_parse
    nodes = list(nodes)
    k = 0
    while k < len(nodes) and nodes[k][0] in (p.AT, p.ASSERT, p.ASSERT_NOT):
        k += 1  # zero-width: the match still starts at the next node
    if k == len(nodes):
        return None
    op, av = nodes[k]
    if op is p.LITERAL:
        run = []
        for node_op, code in nodes[k:]:
            if node_op is not p.LITERAL:
                break
            run.append(chr(code))
        return frozenset(("".join(run),))
    if op is p.BRANCH:
        alternatives = av[1]
    elif op is p.IN:  # the parser's form of a branch of single characters
        alternatives = [[item] for item in av]
    elif op is p.SUBPATTERN and not av[1] & re.IGNORECASE:
        alternatives = [av[-1]]
    elif op in (p.MAX_REPEAT, p.MIN_REPEAT) and av[0] >= 1:
        alternatives = [av[2]]
    else:
        return None
    starts: set[str] = set()
    for alternative in alternatives:
        found = _literal_starts(alternative)
        if found is None:
            return None
        starts |= found
    return frozenset(starts)


@lru_cache(maxsize=256)
def _anchors(pattern: str) -> tuple[str, ...] | None:
    """The anchors of ``pattern``, or None when it has none."""
    parsed = _sre_parse.parse(pattern, re.MULTILINE)
    if parsed.state.flags & re.IGNORECASE:
        return None
    starts = _literal_starts(parsed)
    return None if starts is None else tuple(sorted(starts))


def _occurrences(text: str, literal: str) -> Iterator[int]:
    """Every offset where ``literal`` occurs in ``text``, overlaps included."""
    p = text.find(literal)
    while p != -1:
        yield p
        p = text.find(literal, p + 1)


def _matches(pattern: str, text: str) -> Iterator[re.Match[str]]:
    """The matches of ``_compile(pattern).finditer(text)``: leftmost and
    non-overlapping. ``match`` at an offset still sees the text before it,
    so ``\\b``, ``^`` and lookbehinds decide there as they do in ``finditer``."""
    compiled = _compile(pattern)
    anchors = _anchors(pattern)
    if anchors is None:
        yield from compiled.finditer(text)
        return
    match = compiled.match
    pos = 0
    for p in heapq.merge(*(_occurrences(text, a) for a in anchors)):
        if p < pos:
            continue  # inside the last match, or a second anchor at a tried offset
        m = match(text, p)
        if m is None:
            pos = p + 1
        else:
            yield m
            pos = m.end()  # past the anchor, so never an empty match


# ---------------------------------------------------------------------------
# Scanning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScriptScan:
    effects: EffectSet
    spawn_edges: frozenset[str]


def _classify_write(arg: AbstractValue, rule: Rule, pack: RulePack) -> str:
    reversible = rule.reversible or any(
        value_leq(arg, PathPrefix(p)) for p in pack.reversible_prefixes
    )
    return "fs.write.rev" if reversible else "fs.write.irrev"


_MODE_KEYWORD_RE = re.compile(r"mode\s*=\s*")


def _open_mode(text: str, pos: int, language: str) -> str | None:
    """Mode of an ``open`` call whose first argument ended at ``pos``;
    None means unknown (non-literal)."""
    i = _skip_ws(text, pos)
    if i >= len(text) or text[i] != ",":
        return "r"
    i = _skip_ws(text, i + 1)
    kw = _MODE_KEYWORD_RE.match(text, i)
    if kw:
        i = kw.end()
    arg = read_call_argument(text, i, language)
    if arg.kind == "absent":
        return "r"
    if arg.kind == "literal":
        return _literal_text(arg.parts)
    return None


@dataclass
class _Scan:
    """One script's comment-stripped text and what its rules found so far."""

    text: str
    language: str
    pack: RulePack
    known_scripts: frozenset[str]
    effects: list[EffectTuple] = field(default_factory=list)
    taints: list[Provenance] = field(default_factory=list)
    edges: set[str] = field(default_factory=set)

    def emit(self, kind: str, arg: AbstractValue, prov: Provenance) -> None:
        self.effects.append(EffectTuple(kind, arg, prov))

    def emit_path(self, rule: Rule, arg: AbstractValue, prov: Provenance) -> None:
        """Emit under the rule's kind, classifying ``fs.write`` by reversibility."""
        kind = rule.kind or "fs.read"
        if kind == "fs.write":
            kind = _classify_write(arg, rule, self.pack)
        self.emit(kind, arg, prov)

    def emit_spawn(self, command: str | None, prov: Provenance) -> None:
        """A literal command that names a sibling script is a spawn edge;
        a non-literal command, or one naming anything else, taints."""
        self.emit("spawn.proc", TOP if command is None else Opaque(command), prov)
        target = None if command is None else resolve_spawn_target(command, self.known_scripts)
        if target is None:
            self.taints.append(prov)
        else:
            self.edges.add(target)


def _taint_top(scan: _Scan, rule: Rule, end: int, prov: Provenance) -> None:
    scan.taints.append(prov)


def _const_top(scan: _Scan, rule: Rule, end: int, prov: Provenance) -> None:
    scan.emit(rule.kind or "tool.invoke", TOP, prov)


def _url_host(scan: _Scan, rule: Rule, end: int, prov: Provenance) -> None:
    arg = read_call_argument(scan.text, end, scan.language)
    value = abstract_url(arg.parts) if arg.kind == "literal" else TOP
    scan.emit(rule.kind or "net.egress", value, prov)


def _path(scan: _Scan, rule: Rule, end: int, prov: Provenance) -> None:
    arg = read_call_argument(scan.text, end, scan.language)
    scan.emit_path(rule, abstract_path(arg.parts) if arg.kind == "literal" else TOP, prov)


def _python_open(scan: _Scan, rule: Rule, end: int, prov: Provenance) -> None:
    arg = read_call_argument(scan.text, end, scan.language)
    value = abstract_path(arg.parts) if arg.kind == "literal" else TOP
    mode = _open_mode(scan.text, arg.end, scan.language)
    wants_write = mode is None or any(c in mode for c in "wax+")
    # a literal mode that neither reads nor writes is unrecognized: treat as read
    wants_read = mode is None or "r" in mode or "+" in mode or not wants_write
    if wants_read:
        scan.emit("fs.read", value, prov)
    if wants_write:
        scan.emit(_classify_write(value, rule, scan.pack), value, prov)


def _spawn(scan: _Scan, rule: Rule, end: int, prov: Provenance) -> None:
    arg = read_call_argument(scan.text, end, scan.language)
    command = _literal_text(arg.parts) if arg.kind in ("literal", "list") else None
    scan.emit_spawn(command or None, prov)


def _shell_url(scan: _Scan, rule: Rule, end: int, prov: Provenance) -> None:
    url = _SHELL_URL_RE.search(_shell_line_rest(scan.text, end))
    value = abstract_url(_shell_parts(url.group())) if url else TOP
    scan.emit(rule.kind or "net.egress", value, prov)


def _shell_path(
    scan: _Scan, rule: Rule, end: int, prov: Provenance, skip_flags: bool = True
) -> None:
    token = _shell_first_token(_shell_line_rest(scan.text, end), skip_flags)
    scan.emit_path(rule, abstract_path(_shell_parts(token)) if token else TOP, prov)


def _shell_spawn(scan: _Scan, rule: Rule, end: int, prov: Provenance) -> None:
    # the interpreter's first argument: a flag such as -c or -r runs other code
    token = _shell_first_token(_shell_line_rest(scan.text, end), skip_flags=False)
    scan.emit_spawn(None if token is None else _literal_text(_shell_parts(token)), prov)


_EXTRACTORS: dict[str, Callable[[_Scan, Rule, int, Provenance], None]] = {
    "taint_top": _taint_top,
    "url_host": _url_host,
    "path": _path,
    "python_open": _python_open,
    "spawn": _spawn,
    "const_top": _const_top,
    "shell_url": _shell_url,
    "shell_path": _shell_path,
    "shell_redirect": partial(_shell_path, skip_flags=False),
    "shell_spawn": _shell_spawn,
}


def scan_script(
    script: Script,
    pack: RulePack,
    known_scripts: frozenset[str] = frozenset(),
) -> ScriptScan:
    """Run every rule of ``pack`` over the comment-stripped source.

    Unanalyzable constructs degrade to Top (never to an exception); the
    result is a pure function of (source, pack, known_scripts).
    """
    if script.language != pack.language:
        raise PackError(
            f"pack language {pack.language!r} does not match script {script.id!r}"
        )
    if not script.decode_ok:
        origin = Provenance(script.id, 0, "undecodable-source")
        return ScriptScan(make_effect_set((), True, (origin,)), frozenset())

    text = strip_comments(script.source, script.language)
    scan = _Scan(text, script.language, pack, known_scripts)
    for rule in pack.rules:
        extract = _EXTRACTORS[rule.extract]
        line, counted = 1, 0  # newlines are counted once, up to each match in turn
        for m in _matches(rule.pattern, text):
            start = m.end() - len(m[0].lstrip())  # a leading separator may end the line before
            line += text.count("\n", counted, start)
            counted = start
            extract(scan, rule, m.end(), Provenance(script.id, line, rule.rule_id))

    return ScriptScan(
        make_effect_set(scan.effects, tainted_top=bool(scan.taints), taint_origins=scan.taints),
        frozenset(scan.edges),
    )


def analyze_script(
    script: Script,
    pack: RulePack,
    known_scripts: frozenset[str] = frozenset(),
) -> EffectSet:
    """The effect summary of one script under one rule pack."""
    return scan_script(script, pack, known_scripts).effects


def spawn_closure(
    reports: Mapping[str, EffectSet],
    spawn_edges: Mapping[str, Iterable[str]],
) -> dict[str, EffectSet]:
    """Join each parent's effects with the transitive closure of its spawned
    children; cycles converge because join is idempotent."""

    def reachable(root: str) -> set[str]:
        seen: set[str] = set()
        stack = list(spawn_edges.get(root, ()))
        while stack:
            node = stack.pop()
            if node in seen or node == root:
                continue
            seen.add(node)
            stack.extend(spawn_edges.get(node, ()))
        return seen

    result: dict[str, EffectSet] = {}
    for script_id, effects in reports.items():
        joined = effects
        for child in sorted(reachable(script_id)):
            if child in reports:
                joined = effects_join(joined, reports[child])
        result[script_id] = joined
    return result


# ---------------------------------------------------------------------------
# The full Method A run
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnalyzerIdentity:
    name: str
    version: str
    pack_hashes: tuple[str, ...]


@dataclass(frozen=True)
class StaticReport:
    per_script: dict[str, EffectSet]
    verdict: ContainmentVerdict
    analyzer: AnalyzerIdentity

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "analyzer": {
                "name": self.analyzer.name,
                "version": self.analyzer.version,
                "pack_hashes": list(self.analyzer.pack_hashes),
            },
            "per_script": {
                script_id: effect_set_to_json(effects)
                for script_id, effects in self.per_script.items()
            },
            "verdict": self.verdict.to_json_dict(),
        }


def method_a(
    skill_dir: Path | str,
    manifest: Manifest,
    packs: Iterable[RulePack] | None = None,
) -> StaticReport:
    """Discover scripts, scan each under its language pack, close over spawn
    edges, and check containment against the declared capability set.

    A script whose language has no covering pack conservatively taints the
    verdict with a named "unanalyzable-language" violation.
    """
    packs = tuple(packs) if packs is not None else default_rule_packs()
    pack_map: dict[str, RulePack] = {}
    for pack in packs:
        if pack.language in pack_map:
            raise PackError(f"multiple rule packs for language {pack.language!r}")
        pack_map[pack.language] = pack

    scripts = discover_scripts(skill_dir)
    known = frozenset(s.id for s in scripts)
    per_script: dict[str, EffectSet] = {}
    edges: dict[str, frozenset[str]] = {}
    for script in scripts:
        pack = pack_map.get(script.language)
        if pack is None:
            origin = Provenance(script.id, 0, "unanalyzable-language")
            per_script[script.id] = make_effect_set((), True, (origin,))
            edges[script.id] = frozenset()
        else:
            scan = scan_script(script, pack, known)
            per_script[script.id] = scan.effects
            edges[script.id] = scan.spawn_edges

    per_script = spawn_closure(per_script, edges)
    combined = reduce(effects_join, per_script.values(), EMPTY_EFFECT_SET)
    verdict = containment_check(combined, manifest.caps)
    analyzer = AnalyzerIdentity(
        name="skillproof-static",
        version=__version__,
        pack_hashes=tuple(p.pack_hash for p in sorted(packs, key=lambda p: p.language)),
    )
    return StaticReport(per_script=per_script, verdict=verdict, analyzer=analyzer)
