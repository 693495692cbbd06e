"""The package's public surface."""

import ast
import base64
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import skillproof
from skillproof.bundle import TrustEntry, TrustRoot
from skillproof.dispatch import Envelope
from skillproof.errors import SkillproofError
from skillproof.lattice import HostGlob, PathPrefix
from skillproof.static_analysis import Rule, RulePack


def test_every_exported_name_resolves():
    missing = [name for name in skillproof.__all__ if not hasattr(skillproof, name)]
    assert missing == []


def test_json_is_imported_only_by_the_canonical_reader_and_writer():
    # every document from outside is read by canonical.canonical_loads
    importers = set()
    for path in Path(skillproof.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            if any(name == "json" or name.startswith("json.") for name in names):
                importers.add(path.name)
    assert importers == {"canonical.py"}


_any_value = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12) | st.binary(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)
# Rule's own checks pass for these; the pack's checks may not
_rules = st.builds(
    Rule,
    st.text(max_size=4),
    st.text(max_size=12) | st.just(r"\brm\b"),
    st.text(max_size=4) | st.just("shell_path"),
    st.none() | st.text(max_size=8) | st.just("fs.write"),
    st.booleans(),
)
_constructors = st.one_of(
    st.tuples(st.just(HostGlob), st.tuples(_any_value | st.just("*.example.com"))),
    st.tuples(st.just(PathPrefix), st.tuples(_any_value | st.just("./a/"))),
    st.tuples(st.just(Rule), st.tuples(_any_value, _any_value, _any_value, _any_value, _any_value)),
    st.tuples(
        st.just(RulePack),
        st.tuples(
            _any_value | st.just("shell"),
            _any_value | st.just("1"),
            _any_value | st.lists(_rules, max_size=2) | st.lists(_rules, max_size=2).map(tuple),
            _any_value | st.just(("./tmp/",)),
        ),
    ),
    st.tuples(st.just(Envelope), st.tuples(_any_value | st.just("pay"), _any_value, _any_value)),
    st.tuples(
        st.just(TrustEntry),
        st.tuples(_any_value, _any_value | st.just(base64.b64encode(bytes(32)).decode()), _any_value),
    ),
    st.tuples(st.just(TrustRoot), st.tuples(_any_value)),
)


@settings(deadline=None, max_examples=400)
@given(_constructors)
def test_public_constructors_raise_only_toolchain_or_value_errors(call):
    build, args = call
    try:
        build(*args)
    except (SkillproofError, ValueError):
        pass
