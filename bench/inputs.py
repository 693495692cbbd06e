"""Seeded benchmark inputs whose answers are known by construction.

Nothing here imports skillproof: every expected verdict, effect, admit
label and counter-example is fixed while the input is generated, so a
regression in the program under test shows up as a disagreement instead of
being copied into the expectation.

Each workload has a fixed *shape* (how many skills, scripts per skill, lines
per script, k_max values, model families, which items are tampered or
violating); the seed draws the content (identifiers, hosts, paths, effect
kinds and positions, the kinds a model declares, item order). Keeping the
shape out of the seed's reach is what lets runs with different seeds be
compared with a tight bound.

Planted effects use only forms the current rule packs resolve through a
rule (``requests.get("https://...")``, ``open("./...", mode)``,
``fs.readFileSync("./...")``, ``curl https://...`` and
``subprocess.run(["./sibling.sh"])``). Filler code matches no rule and
imports none of the modules a capability import floor would treat as
sensitive, so a later soundness fix does not flip these answers.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 1

WORDS = (
    "amber", "basin", "cedar", "delta", "ember", "fjord", "grove", "harbor",
    "island", "juniper", "kelp", "lagoon", "meadow", "nectar", "orchid",
    "prairie", "quartz", "ridge", "summit", "tundra", "umber", "valley",
    "willow", "yarrow", "zephyr", "atlas", "beacon", "canyon", "dune", "estuary",
)

# Vocabulary kind -> envelope argument key (the dispatcher's argument domains).
KIND_ARG_KEY = {
    "net.egress": "host",
    "fs.read": "path",
    "fs.write.rev": "path",
    "fs.write.irrev": "path",
    "tool.invoke": "target",
    "spawn.proc": "target",
    "pay": "target",
    "mutate.schema": "target",
}

REVERSIBLE_PREFIXES = ("./.cache/", "./tmp/")

# Effect categories a skill may use, and the languages whose planted forms
# produce them (``build_skill`` holds the caps each one needs).
CATEGORY_LANGUAGES = {
    "net": ("python", "shell"),
    "data": ("python",),
    "cache": ("python",),
    "out": ("python",),
    "assets": ("node",),
    "spawn": ("python",),
}
CATEGORY_ORDER = ("net", "data", "cache", "assets", "out", "spawn")
EXTENSIONS = {"python": ".py", "shell": ".sh", "node": ".js"}


def sub_rng(seed: int, *parts: object) -> random.Random:
    """An independent stream per (seed, workload, item), so any item can be
    regenerated alone and adding items never shifts the others."""
    key = "/".join(str(p) for p in (seed,) + parts).encode()
    return random.Random(int.from_bytes(hashlib.sha256(key).digest()[:8], "big"))


def _word(rng: random.Random) -> str:
    return rng.choice(WORDS)


# ---------------------------------------------------------------------------
# Scripts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Effect:
    """A planted effect as skillproof reports it: kind, argument text, and
    the file and 1-based line of the statement that causes it."""

    kind: str
    arg: str
    file: str
    line: int


@dataclass
class ScriptSpec:
    path: str
    language: str
    text: str
    lines: int
    effects: list[Effect]


@dataclass
class SkillSpec:
    name: str
    manifest: dict
    scripts: list[ScriptSpec]
    k_max: int = 2
    undeclared: Effect | None = None  # the planted violation, if any
    tamper: str | None = None  # the expected verify reason, if tampered

    @property
    def lines(self) -> int:
        return sum(s.lines for s in self.scripts)

    def expected_effects(self) -> set[tuple[str, str]]:
        return {(e.kind, e.arg) for s in self.scripts for e in s.effects}

    def write(self, directory: Path) -> Path:
        directory.mkdir(parents=True)
        (directory / "skill.json").write_text(json.dumps(self.manifest, indent=2) + "\n")
        for script in self.scripts:
            target = directory / script.path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(script.text)
        return directory


def _py_block(rng: random.Random, n: int, effect_lines) -> list[str]:
    a, b, w = _word(rng), _word(rng), _word(rng)
    v1, v2 = f"{a}_total", f"{b}_items"
    body = [
        f'    """Combine {a} and {b} values."""',
        f"    {v1} = {a} * {rng.randint(2, 9)} + {b}",
    ]
    if rng.random() < 0.6:
        body.append(f"    # adjust the {w} window before the {_word(rng)} pass")
    body.append(f"    {v2} = [{v1} + idx for idx in range({rng.randint(2, 12)})]")
    if rng.random() < 0.5:
        k = rng.randint(10, 99)
        body += [f"    if {v1} > {k}:", f"        {v1} -= {k}"]
    if rng.random() < 0.5:
        body.append(f'    tag_{n} = "{_word(rng)}-{rng.randint(1, 999)}".upper()')
    lines = [f"def {w}_{n}({a}, {b}):"] + body
    lines += effect_lines("    ", len(lines))
    lines += [f"    return {v1} + len({v2})", ""]
    return lines


def _sh_block(rng: random.Random, n: int, effect_lines) -> list[str]:
    v = f"{_word(rng)}_count"
    k1, k2, k3 = rng.randint(1, 9), rng.randint(10, 40), rng.randint(41, 90)
    lines = [f"{_word(rng)}_{n}() {{", f"  local {v}={k1}"]
    if rng.random() < 0.6:
        lines.append(f"  # adjust the {_word(rng)} window before the {_word(rng)} pass")
    lines.append(f"  {v}=$(( {v} + {k2} ))")
    if rng.random() < 0.5:
        lines += [f'  if [ "${v}" -gt {k3} ]; then', f"    {v}=$(( {v} - {k3} ))", "  fi"]
    if rng.random() < 0.5:
        lines += [f"  for item in {k1} {k2} {k3}; do", f"    {v}=$(( {v} + item ))", "  done"]
    lines += effect_lines("  ", len(lines))
    lines += [f'  echo "{_word(rng)} {_word(rng)} ${v}"', "}", ""]
    return lines


def _node_block(rng: random.Random, n: int, effect_lines) -> list[str]:
    a, b = _word(rng), _word(rng)
    v1, v2 = f"{a}Total", f"{b}Items"
    k1, k2 = rng.randint(2, 9), rng.randint(10, 99)
    lines = [f"function {_word(rng)}{n}({a}, {b}) {{", f"  const {v1} = {a} * {k1} + {b};"]
    if rng.random() < 0.5:
        lines.append(f"  // adjust the {_word(rng)} window before the {_word(rng)} pass")
    lines.append(f"  let {v2} = [{k1}, {k2}].map((x) => x + {v1});")
    if rng.random() < 0.5:
        lines += [f"  if ({v1} > {k2}) {{", f"    {v2} = {v2}.concat([{k1}]);", "  }"]
    if rng.random() < 0.4:
        lines.append(f"  /* keep {_word(rng)} and {_word(rng)} aligned */")
    lines += effect_lines("  ", len(lines))
    lines += [f"  return {v1} + {v2}.length;", "}", ""]
    return lines


_BLOCKS = {"python": _py_block, "shell": _sh_block, "node": _node_block}


def _effect_statement(language: str, indent: str, category: str, value: str, n: int) -> list[str]:
    """Source lines for one planted effect; the effect sits on the first."""
    if language == "shell":
        return [f'{indent}curl -s "https://{value}/{WORDS[n % len(WORDS)]}"']
    if language == "node":
        return [f'{indent}const data{n} = fs.readFileSync("{value}");']
    if category in ("net", "undeclared"):
        return [f'{indent}reply_{n} = requests.get("https://{value}/v{n % 7}", timeout={n % 9 + 1})']
    if category == "spawn":
        return [f'{indent}subprocess.run(["./{value}"], check=True)']
    mode = {"data": "r", "cache": "w", "out": "a"}[category]
    follow = f"size_{n} = fh_{n}.tell()" if mode == "r" else f'fh_{n}.write("{WORDS[n % len(WORDS)]}")'
    return [f'{indent}with open("{value}", "{mode}") as fh_{n}:', f"{indent}    {follow}"]


def _effect_kind(category: str, value: str) -> tuple[str, str]:
    """(kind, argument text) that skillproof's summary reports for a planted
    statement; written out here, never asked of skillproof."""
    if category in ("net", "undeclared"):
        return "net.egress", value
    if category == "spawn":
        return "spawn.proc", "./" + value
    if category in ("data", "assets"):
        return "fs.read", value
    rev = value.startswith(REVERSIBLE_PREFIXES)
    return ("fs.write.rev" if rev else "fs.write.irrev"), value


def build_script(
    rng: random.Random,
    path: str,
    language: str,
    n_lines: int,
    plants: list[tuple[str, str]],
) -> ScriptSpec:
    """Filler code of about ``n_lines`` lines with ``plants`` (category,
    value) spread evenly through it, each at a recorded line."""
    lines: list[str] = ['const fs = require("fs");', ""] if language == "node" else []
    effects: list[Effect] = []
    due = [int((i + 1) * n_lines / (len(plants) + 1)) for i in range(len(plants))]
    queue = list(zip(due, plants))
    block = _BLOCKS[language]
    n = 0

    def effect_lines(indent: str, offset: int) -> list[str]:
        out: list[str] = []
        while queue and queue[0][0] <= len(lines) + offset + len(out):
            _, (category, value) = queue.pop(0)
            line_no = len(lines) + offset + len(out) + 1
            kind, arg = _effect_kind(category, value)
            effects.append(Effect(kind, arg, path, line_no))
            out += _effect_statement(language, indent, category, value, len(effects) + n)
        return out

    while len(lines) < n_lines or queue:
        n += 1
        lines += block(rng, n, effect_lines)
    text = "\n".join(lines) + "\n"
    return ScriptSpec(path, language, text, text.count("\n"), effects)


# ---------------------------------------------------------------------------
# Skills and their manifests
# ---------------------------------------------------------------------------


def manifest_doc(name: str, caps: list[str], version: int) -> dict:
    """A skill.json document declaring ``caps``."""
    return {
        "id": name,
        "label": {"rank": "public", "compartments": [], "releasability": []},
        "caps": caps,
        "verification": "tested",
        "version": version,
        "signer": "bench-operator",
    }


def _value(rng: random.Random, category: str, zones: list[str], n: int) -> str:
    w = _word(rng)
    if category == "net":
        return f"{w}{n}.{rng.choice(zones)}"
    if category == "undeclared":
        return f"{w}{n}.collector-{rng.randint(100, 999)}.invalid"
    prefix = {"data": "./data/", "cache": rng.choice(REVERSIBLE_PREFIXES),
              "out": "./out/", "assets": "./assets/"}[category]
    return f"{prefix}{w}_{n}.{rng.choice(('csv', 'json', 'txt'))}"


def build_skill(
    rng: random.Random,
    name: str,
    languages: list[str],
    sizes: list[int],
    n_caps: int,
    lines_per_effect: int,
    undeclared: bool = False,
) -> SkillSpec:
    """A skill whose manifest declares exactly what its scripts do (plus
    opaque ``tool.invoke`` over-declarations up to ``n_caps`` caps); with
    ``undeclared`` one python statement reaches an undeclared host."""
    names = []
    for i, lang in enumerate(languages):
        stem = f"{_word(rng)}_{i}{EXTENSIONS[lang]}"
        names.append(f"lib/{stem}" if i >= 3 else stem)
    present = set(languages)
    usable = [c for c in CATEGORY_ORDER if present & set(CATEGORY_LANGUAGES[c])]
    if "shell" not in present:
        usable = [c for c in usable if c != "spawn"]
    rng.shuffle(usable)
    if "spawn" in usable:  # every skill that can spawn a sibling does
        usable.insert(0, usable.pop(usable.index("spawn")))
    zones = [f"{_word(rng)}-{rng.randint(10, 99)}.example" for _ in range(1 + (n_caps > 3))]
    shell_scripts = [p for p, lang in zip(names, languages) if lang == "shell"]
    categories: list[str] = []
    caps: list[str] = []
    for category in usable:
        need = {"net": [f"net.egress(*.{z})" for z in zones],
                "data": ["fs.read(./data/)"], "assets": ["fs.read(./assets/)"],
                "cache": ["fs.write.rev(./.cache/)", "fs.write.rev(./tmp/)"],
                "out": ["fs.write.irrev(./out/)"],
                "spawn": [f"spawn.proc(./{p})" for p in shell_scripts[:1]]}[category]
        if len(caps) + len(need) <= n_caps:
            categories.append(category)
            caps += need
    while len(caps) < n_caps:
        caps.append(f"tool.invoke({_word(rng)}-{len(caps)})")

    violating = next((i for i, lang in enumerate(languages) if lang == "python"), None)
    violation = ("undeclared", _value(rng, "undeclared", zones, 0)) if undeclared else None
    counter = 0
    scripts: list[ScriptSpec] = []
    for i, (path, lang, size) in enumerate(zip(names, languages, sizes)):
        own = [c for c in categories if lang in CATEGORY_LANGUAGES[c] and c != "spawn"]
        plants: list[tuple[str, str]] = []
        for _ in range(max(1, size // lines_per_effect) if own else 0):
            counter += 1
            category = rng.choice(own)
            plants.append((category, _value(rng, category, zones, counter)))
        if lang == "python" and "spawn" in categories:
            plants.insert(rng.randrange(len(plants) + 1), ("spawn", shell_scripts[0]))
        if violation and i == violating:
            plants.insert(rng.randrange(len(plants) + 1), violation)
        scripts.append(build_script(rng, path, lang, size, plants))

    spec = SkillSpec(name, manifest_doc(name, caps, rng.randint(1, 50)), scripts)
    if violation:
        spec.undeclared = next(e for e in scripts[violating].effects if e.arg == violation[1])
    return spec


def _stratified_log(rng: random.Random, count: int, lo: float, hi: float) -> list[int]:
    """``count`` sizes log-uniform in [lo, hi]: one draw per equal-width
    stratum of log-size, so every seed covers the range the same way."""
    span = math.log(hi) - math.log(lo)
    return [int(math.exp(math.log(lo) + span * (i + rng.random()) / count)) for i in range(count)]


# ---------------------------------------------------------------------------
# load-verify: 49 small skills, bundles produced in set-up, 1 in 8 tampered
# ---------------------------------------------------------------------------

LOAD_VERIFY_SKILLS = 49  # odd, so the median op falls inside one skill's samples
TAMPERS = (
    "hash-mismatch:static",
    "method-A-cache-miss",
    "signer-not-authorised",
    "hash-mismatch:types",
    "hash-mismatch:smt",
    "method-A-cache-miss",
)
# Shape positions of the skills the CLI cold-start probe verifies: k_max=8,
# k_max=1, and a tampered one. An odd count keeps the median inside one
# skill's samples.
CLI_PROBE_INDICES = (0, 1, 7)
_LANG_CYCLE = ("python", "shell", "node", "python", "node", "shell")


def load_verify_k(index: int) -> int:
    """Half the skills at the produce default k_max=8, the rest spread
    evenly over 1..7."""
    return 8 if index % 2 == 0 else 1 + (index // 2) % 7


def load_verify_skill(seed: int, index: int) -> SkillSpec:
    rng = sub_rng(seed, "load-verify", index)
    n_scripts = 1 + index % 6
    languages = [_LANG_CYCLE[(index + i) % 6] for i in range(n_scripts)]
    shape = sub_rng(0, "load-verify-shape", index)
    sizes = [int(20 * 20 ** ((shape.random() + rng.random() * 0.1) / 1.1)) for _ in languages]
    spec = build_skill(rng, f"lv-{index:02d}-{_word(rng)}", languages, sizes,
                       n_caps=1 + (index * 5) % 6, lines_per_effect=60)
    spec.k_max = load_verify_k(index)
    if index % 8 == 7:
        spec.tamper = TAMPERS[(index // 8) % len(TAMPERS)]
    return spec


def load_verify_skills(seed: int) -> list[SkillSpec]:
    return [load_verify_skill(seed, i) for i in range(LOAD_VERIFY_SKILLS)]


# ---------------------------------------------------------------------------
# publish-large: 13 skills of 2-5 large scripts, one violating
# ---------------------------------------------------------------------------

PUBLISH_SKILLS = 13  # odd, see LOAD_VERIFY_SKILLS
PUBLISH_SCRIPTS = (2, 3, 4, 5)
PUBLISH_LANGS = ("python", "shell", "node", "python", "shell")
PUBLISH_VIOLATING = (5,)


def publish_skills(seed: int) -> list[SkillSpec]:
    rng = sub_rng(seed, "publish-large")
    counts = [PUBLISH_SCRIPTS[i % len(PUBLISH_SCRIPTS)] for i in range(PUBLISH_SKILLS)]
    sizes = _stratified_log(rng, sum(counts), 500, 8000)
    # Deal the sorted sizes round-robin so every skill spans the range.
    order = sorted(range(len(sizes)), key=lambda i: (i % PUBLISH_SKILLS, i))
    dealt = [sizes[i] for i in order]
    skills, pos = [], 0
    for index, count in enumerate(counts):
        skill_rng = sub_rng(seed, "publish-large", index)
        skills.append(build_skill(
            skill_rng, f"pl-{index:02d}-{_word(skill_rng)}", list(PUBLISH_LANGS[:count]),
            dealt[pos:pos + count], n_caps=6, lines_per_effect=40,
            undeclared=index in PUBLISH_VIOLATING,
        ))
        pos += count
    return skills


# ---------------------------------------------------------------------------
# bmc-stateful: non-memoryless runtime models with closed-form answers
# ---------------------------------------------------------------------------

UNSAT_FAMILIES = ("budget-executor", "parity-auditor", "deny-audit-after-budget")
SAT_FAMILIES = {
    # family: (violation class, witness ends with OUT)
    "late-skip-audit": ("executed-without-audit", False),
    "late-silent-admit": ("admitted-without-audit", False),
    "late-execute-on-deny": ("executed-but-deny", True),
    "late-spurious": ("executed-but-deny", True),
}
BMC_SHAPES = ((3, 6), (4, 5), (4, 6), (5, 5), (5, 6))  # (|alphabet|, k_max); 5 models each
OUT_KEY = "OUT"


@dataclass(frozen=True)
class ModelSpec:
    family: str
    kinds: tuple[str, ...]
    k_max: int
    param: int  # budget B for UNSAT families, admits-before-violation j for SAT

    @property
    def sigma(self) -> int:
        return len(self.kinds) + 1

    @property
    def sat(self) -> bool:
        return self.family in SAT_FAMILIES

    def wiring(self):
        """(executes, audits, spurious) over (decision, executed_count): the
        semantics each family is defined by."""
        f, p = self.family, self.param
        admit = "admit"
        table = {
            "budget-executor": (lambda d, c: d == admit and c < p, lambda d, c: True, None),
            "parity-auditor": (lambda d, c: d == admit, lambda d, c: d == admit or c % 2 == 0, None),
            "deny-audit-after-budget": (lambda d, c: d == admit, lambda d, c: d == admit or c >= p, None),
            "late-skip-audit": (lambda d, c: d == admit, lambda d, c: d != admit or c < p, None),
            "late-silent-admit": (lambda d, c: d == admit and c < p, lambda d, c: d != admit or c < p, None),
            "late-execute-on-deny": (lambda d, c: d == admit or c >= p, lambda d, c: True, None),
            "late-spurious": (lambda d, c: d == admit, lambda d, c: True, lambda d, c: d != admit and c >= p),
        }
        return table[f]

    def expected(self) -> dict:
        """The verdict by construction: UNSAT explores every trace; a late
        mutant's minimal leftmost witness is j copies of the first kind,
        then that kind again or OUT, and the search stops on it."""
        s = self.sigma
        full = sum(s**n for n in range(1, self.k_max + 1))
        if not self.sat:
            return {"result": "unsat", "explored": full}
        cls, ends_out = SAT_FAMILIES[self.family]
        j = self.param
        first = sorted(self.kinds)[0]
        symbols = (first,) * j + ((OUT_KEY,) if ends_out else (first,))
        rank = (s - 1) if ends_out else 0
        explored = sum(s**n for n in range(1, j + 1)) + rank + 1
        return {"result": "sat", "explored": explored, "symbols": symbols,
                "index": j, "class": cls}


def bmc_models(seed: int) -> list[ModelSpec]:
    """Five models per (|alphabet|, k_max): two UNSAT, three late mutants
    with j = k-1, k-2, k-3. Families and parameters follow the slot, so each
    model's cost is the same for every seed; the seed draws the kinds."""
    rng = sub_rng(seed, "bmc-stateful")
    sat_families = sorted(SAT_FAMILIES)
    models = []
    for shape, (sigma, k) in enumerate(BMC_SHAPES):
        for slot in range(5):
            kinds = tuple(sorted(rng.sample(tuple(KIND_ARG_KEY), sigma - 1)))
            if slot < 2:
                family = UNSAT_FAMILIES[(shape + slot) % len(UNSAT_FAMILIES)]
                param = k // 2
            else:
                family = sat_families[(shape + slot) % len(sat_families)]
                param = k - 1 - (slot - 2)
            models.append(ModelSpec(family, kinds, k, param))
    return models


TRACE_PROBE_SHAPES = ((4, 5),)


def probe_models(seed: int) -> list[ModelSpec]:
    """The small UNSAT model of the traces-per-second side probe."""
    rng = sub_rng(seed, "trace-probe")
    out = []
    for sigma, k in TRACE_PROBE_SHAPES:
        kinds = tuple(sorted(rng.sample(tuple(KIND_ARG_KEY), sigma - 1)))
        out.append(ModelSpec("budget-executor", kinds, k, 2))
    return out


# ---------------------------------------------------------------------------
# dispatch-stream: 64 manifests and a labelled envelope stream
# ---------------------------------------------------------------------------

DISPATCH_MANIFESTS = 64
DISPATCH_STREAM = 8192


@dataclass
class DispatchManifest:
    caps: list[str]
    bare: set[str] = field(default_factory=set)  # kinds declared with no pattern
    hosts: list[tuple[str, bool]] = field(default_factory=list)  # (host or zone, wildcard)
    paths: dict[str, list[tuple[str, bool]]] = field(default_factory=dict)  # kind -> (path, is_dir)
    opaque: dict[str, list[str]] = field(default_factory=dict)

    @property
    def declared(self) -> set[str]:
        return self.bare | set(self.paths) | set(self.opaque) | ({"net.egress"} if self.hosts else set())


def dispatch_manifest(rng: random.Random, n_tokens: int) -> DispatchManifest:
    m = DispatchManifest(caps=[])
    kinds = list(KIND_ARG_KEY)
    rng.shuffle(kinds)
    # Spread the tokens over a few kinds so several carry multiple patterns.
    chosen = kinds[: max(1, min(len(kinds), (n_tokens + 1) // 2))]
    per_kind = {k: 0 for k in chosen}
    for i in range(n_tokens):
        per_kind[chosen[i % len(chosen)]] += 1
    for kind, count in per_kind.items():
        if count == 1 and rng.random() < 0.3 and kind not in ("net.egress",):
            m.bare.add(kind)
            m.caps.append(kind)
            continue
        for i in range(count):
            w = _word(rng)
            if kind == "net.egress":
                wildcard = rng.random() < 0.6
                value = f"{w}-{i}.example" if wildcard else f"api{i}.{w}-{i}.example"
                m.hosts.append((value, wildcard))
                m.caps.append(f"net.egress({'*.' if wildcard else ''}{value})")
            elif KIND_ARG_KEY[kind] == "path":
                is_dir = rng.random() < 0.7
                value = f"./{w}{i}/" if is_dir else f"./{w}{i}/{_word(rng)}.json"
                m.paths.setdefault(kind, []).append((value, is_dir))
                m.caps.append(f"{kind}({value})")
            else:
                value = f"{w}-{i}"
                m.opaque.setdefault(kind, []).append(value)
                m.caps.append(f"{kind}({value})")
    return m


def _admit_envelope(rng: random.Random, m: DispatchManifest) -> dict:
    kind = rng.choice(sorted(m.declared))
    key = KIND_ARG_KEY[kind]
    w = _word(rng)
    if kind in m.bare:
        value = {"host": f"{w}.anywhere.example", "path": f"./{w}/any.txt", "target": w}[key]
    elif kind == "net.egress":
        host, wildcard = rng.choice(m.hosts)
        value = f"{w}{rng.randint(0, 99)}.{host}" if wildcard else host
    elif kind in m.paths:
        path, is_dir = rng.choice(m.paths[kind])
        value = f"{path}{w}/{rng.randint(0, 999)}.txt" if is_dir else path
    else:
        value = rng.choice(m.opaque[kind])
    return {"op": kind, "args": {key: value}, "reasoning": f"admit {w}"}


def _reject_envelope(rng: random.Random, m: DispatchManifest) -> dict:
    declared = m.declared
    options = []
    if len(declared) < len(KIND_ARG_KEY):
        options.append("undeclared-kind")
    if m.hosts:
        options.append("host-outside")
    if m.paths:
        options.append("path-outside")
    reason = rng.choice(options)
    w = _word(rng)
    if reason == "undeclared-kind":
        kind = rng.choice(sorted(set(KIND_ARG_KEY) - declared))
        key = KIND_ARG_KEY[kind]
        value = {"host": f"{w}.example", "path": f"./{w}/x.txt", "target": w}[key]
    elif reason == "host-outside":
        kind, key = "net.egress", "host"
        zones = [h for h, wildcard in m.hosts if wildcard]
        if zones and rng.random() < 0.3:
            value = rng.choice(zones)  # the apex is not under its own *. glob
            if value in {h for h, wildcard in m.hosts if not wildcard}:
                value = f"{w}.outside-{rng.randint(0, 99)}.invalid"
        else:
            value = f"{w}.outside-{rng.randint(0, 99)}.invalid"
    else:
        kind = rng.choice(sorted(m.paths))
        key = "path"
        base = rng.choice(m.paths[kind])[0]
        if base.endswith("/") and rng.random() < 0.3:
            value = f"{base}../private/{w}.key"  # normalizes outside the prefix
        else:
            value = f"./private/{w}-{rng.randint(0, 99)}.key"
    return {"op": kind, "args": {key: value}, "reasoning": f"reject {reason}"}


def dispatch_inputs(seed: int) -> tuple[list[DispatchManifest], list[tuple[int, dict, bool]]]:
    """64 manifests (1-16 tokens each) and a stream of (manifest index,
    envelope dict, admitted?) triples, about half admitted."""
    rng = sub_rng(seed, "dispatch-stream")
    manifests = [dispatch_manifest(rng, 1 + i % 16) for i in range(DISPATCH_MANIFESTS)]
    stream = []
    for _ in range(DISPATCH_STREAM):
        index = rng.randrange(len(manifests))
        admit = rng.random() < 0.5
        make = _admit_envelope if admit else _reject_envelope
        stream.append((index, make(rng, manifests[index]), admit))
    return manifests, stream
