"""Timing primitives: the closed-loop runner, latency samples, and the span
tracer used by the traced run.

Spans are recorded from the benchmark's own code: for the traced phase the
public functions of each skillproof module are swapped, in every skillproof
module that refers to them, for wrappers that record a span around the
call. Nothing under ``src/`` is edited, and the wrappers are removed after
each traced op, so untraced ops run the program unmodified.
"""

from __future__ import annotations

import importlib
import math
import sys
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable

SAMPLE_CAPACITY = 1 << 18  # fixed, so memory use does not grow with throughput
SIDE_EVERY_S = 0.5  # pause between side rounds, see closed_loop
MAX_SPANS = 200_000  # bounds the traced run's memory on microsecond ops


class Samples:
    """Per-op latencies in ns. The buffer is allocated once; when it fills,
    every other sample is dropped and only every ``stride``-th op is kept
    from then on, an unbiased thinning for a cycled input mix."""

    def __init__(self) -> None:
        self.buf = array("q", bytes(8 * SAMPLE_CAPACITY))
        self.kept = 0
        self.stride = 1
        self.count = 0
        self.total_ns = 0

    def add(self, ns: int) -> None:
        if self.count % self.stride == 0:
            if self.kept == SAMPLE_CAPACITY:
                half = SAMPLE_CAPACITY // 2
                self.buf[:half] = self.buf[0:SAMPLE_CAPACITY:2]
                self.kept = half
                self.stride *= 2
            if self.count % self.stride == 0:  # still due under the new stride
                self.buf[self.kept] = ns
                self.kept += 1
        self.count += 1
        self.total_ns += ns

    def truncate(self, ops: int) -> None:
        """Keep the first ``ops`` ops only (whole cycles of the input mix)."""
        self.kept = min(self.kept, -(-ops // self.stride))

    def sorted(self) -> list[int]:
        return sorted(self.buf[: self.kept])


def percentile(sorted_values: list[int], pct: float) -> int:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


@dataclass
class LoopResult:
    ops: int = 0  # ops in the statistics: whole cycles of the input mix
    op_ns_total: int = 0  # summed latency of those ops
    attempted: int = 0
    failed: int = 0
    samples: Samples = field(default_factory=Samples)
    item_ns: dict[int, list[int]] = field(default_factory=dict)  # item -> [sum ns, ops]
    first_error: str | None = None


def closed_loop(
    order: list[int],
    op: Callable[[int], Any],
    check: Callable[[int, Any], bool],
    seconds: float,
    side: Callable[[], None] | None = None,
) -> LoopResult:
    """One client: issue the next op only when the previous one returned,
    cycling through ``order`` until ``seconds`` have passed. Latency
    statistics cover whole cycles, so every input weighs the same.
    ``side`` runs between ops every SIDE_EVERY_S, untimed, so that side
    measurements see the same stretches of time as the ops."""
    out = LoopResult()
    deadline = perf_counter_ns() + int(seconds * 1e9)
    next_side = perf_counter_ns() + int(SIDE_EVERY_S * 1e9)
    n = len(order)
    while True:
        t1 = _timed_op(out, order[out.attempted % n], op, check)
        if out.attempted % n == 0:
            out.ops, out.op_ns_total = out.attempted, out.samples.total_ns
        if t1 >= deadline:
            break
        if side is not None and t1 >= next_side:
            side()
            next_side = perf_counter_ns() + int(SIDE_EVERY_S * 1e9)
    if out.ops == 0:  # not even one whole cycle: use everything
        out.ops, out.op_ns_total = out.attempted, out.samples.total_ns
    out.samples.truncate(out.ops)
    return out


def paired_loop(
    order: list[int],
    op: Callable[[int], Any],
    check: Callable[[int, Any], bool],
    seconds: float,
    tracer: "Tracer",
) -> tuple[LoopResult, LoopResult]:
    """The traced run's loop: each input runs twice in a row, untraced and
    then traced, so the two sides see the same inputs and the same state of
    the machine. Stops early once the tracer holds its maximum of spans."""
    plain, traced = LoopResult(), LoopResult()
    deadline = perf_counter_ns() + int(seconds * 1e9)
    while True:
        item = order[plain.attempted % len(order)]
        _timed_op(plain, item, op, check)
        tracer.install()
        try:
            t1 = _timed_op(traced, item, op, check, tracer)
        finally:
            tracer.uninstall()
        if t1 >= deadline or tracer.full:
            return plain, traced


def _timed_op(out: LoopResult, item: int, op: Callable, check: Callable,
              tracer: "Tracer | None" = None) -> int:
    if tracer is not None:
        tracer.begin_op(item)
    t0 = perf_counter_ns()
    try:
        result, error = op(item), None
    except Exception as exc:  # an unexpected raise is a failed op
        result, error = exc, exc
    t1 = perf_counter_ns()
    if tracer is not None:
        tracer.end_op()
    out.samples.add(t1 - t0)
    out.attempted += 1
    acc = out.item_ns.setdefault(item, [0, 0])
    acc[0] += t1 - t0
    acc[1] += 1
    if error is not None or not check(item, result):
        out.failed += 1
        if out.first_error is None:
            out.first_error = f"item {item}: " + (repr(error) if error else f"wrong answer {result!r}")[:400]
    return t1


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

# (module, function, span name, counter(args, result) -> tuple of counts)
TRACED_FUNCTIONS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("manifest", "parse_manifest", "manifest.parse", None),
    ("static_analysis", "default_rule_packs", "static_analysis.packs", None),
    ("static_analysis", "method_a", "static_analysis.method_a", None),
    ("static_analysis", "discover_scripts", "static_analysis.discover",
     lambda a, r: (sum(s.source.count("\n") for s in r), sum(len(s.source.encode()) for s in r))),
    ("static_analysis", "scan_script", "static_analysis.scan",
     lambda a, r: (len(r.effects.effects), a[0].source.count("\n"), LANGUAGE_CODES[a[0].language])),
    ("static_analysis", "strip_comments", "static_analysis.strip", None),
    ("static_analysis", "spawn_closure", "static_analysis.closure", None),
    ("lattice", "containment_check", "lattice.containment", None),
    ("canonical", "canonicalize", "canonical.encode", lambda a, r: (len(r),)),
    ("dispatch", "method_b", "dispatch.probe", None),
    ("dispatch", "envelope_from_dict", "dispatch.parse", None),
    ("dispatch", "dispatch", "dispatch.envelope", lambda a, r: (int(type(r).__name__ == "Admit"),)),
    ("bmc", "method_c", "bmc.check", lambda a, r: (r.traces_explored, r.traces_enumerated)),
    ("bmc", "replay_counter_example", "bmc.replay", None),
    ("bundle", "sign_attestation", "bundle.sign", None),
    ("bundle", "_verify_signature", "bundle.sigverify", None),
)

LANGUAGE_CODES = {"python": 0, "shell": 1, "node": 2}
SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent", "op", "counts")


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, op id,
    counts]; written out once the run ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.op_item: dict[int, int] = {}
        self._patches: list[tuple[Any, str, Any, Any]] = []

    @property
    def full(self) -> bool:
        return len(self.spans) >= MAX_SPANS

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, perf_counter_ns(), 0, self.stack[-1] if self.stack else -1, self.op, ()])
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.stack.pop()
        self.spans[index][2] = perf_counter_ns()

    def begin_op(self, item: int) -> None:
        self.op += 1
        self.op_item[self.op] = item
        self._open("op")

    def end_op(self) -> None:
        """Close the root span; spans opened after it (the answer check's)
        have no parent but keep the op's id."""
        del self.stack[1:]
        self._close(self.stack[0])

    def wrap(self, fn: Callable, name: str, counter: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                self.spans[index][5] = counter(args, result)
            return result

        return traced

    def install(self) -> None:
        """Swap every traced function, in each skillproof module that holds
        it, for its span-recording wrapper; wrap the evidence-file IO of
        the bundle module the same way."""
        if not self._patches:
            modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("skillproof")]
            for module_name, attr, name, counter in TRACED_FUNCTIONS:
                original = getattr(importlib.import_module(f"skillproof.{module_name}"), attr)
                wrapper = self.wrap(original, name, counter)
                self._patches += [(m, attr, original, wrapper) for m in modules
                                  if getattr(m, attr, None) is original]
            bundle = importlib.import_module("skillproof.bundle")
            self._patches.append((bundle, "Path", bundle.Path, _traced_path_class(self)))
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[int]:
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def dump(self, path: Path, header: dict) -> None:
        import json

        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(header, fields=list(SPAN_FIELDS), spans=self.spans)
        path.write_text(json.dumps(doc, separators=(",", ":")))


def _traced_path_class(tracer: Tracer) -> type:
    base = type(Path())

    class TracedPath(base):  # type: ignore[misc, valid-type]
        def read_bytes(self):
            index = tracer._open("bundle.read")
            try:
                return super().read_bytes()
            finally:
                tracer._close(index)

        def write_bytes(self, data):
            index = tracer._open("bundle.write")
            try:
                return super().write_bytes(data)
            finally:
                tracer._close(index)

        def mkdir(self, *args, **kwargs):
            index = tracer._open("bundle.write")
            try:
                return super().mkdir(*args, **kwargs)
            finally:
                tracer._close(index)

    return TracedPath
