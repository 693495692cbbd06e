#!/usr/bin/env python3
"""The skillproof benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one seeded, single-process, single-thread, closed-loop workload from
the root of a source checkout (the program under test is imported from
``src/``), checks every result against an answer fixed when the input was
generated, prints a human report and, as the last line of stdout, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
traced run. See bench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden.json"
MIN_SIDE_ROUNDS = 12  # so even a short run has 4 set-ups and 6 cold starts
WORKLOAD_NAMES = ("load-verify", "publish-large", "bmc-stateful", "dispatch-stream")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "skillproof" / "__init__.py").is_file():
        print(f"error: no skillproof sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        run = traced_run if args.trace else untraced_run
        result = run(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only once no other run is using it
    print(json.dumps(result))
    return 0


def _order(workload, seed: int) -> list[int]:
    import inputs

    order = list(range(len(workload.items)))
    inputs.sub_rng(seed, workload.name, "order").shuffle(order)
    return order


def _emit(name: str, value: float, unit: str, note: str = "") -> dict:
    print(f"  {name:<34} {value:>14.6g} {unit:<6} {note}".rstrip())
    return {"value": value, "unit": unit}


def _fail_line(attempted: int, failed: int, first_error: str | None) -> None:
    print(f"  {'op_fail_ratio':<34} {failed / attempted:>14.6g} {'':<6} "
          f"({failed} failed / {attempted} attempted)")
    if first_error:
        print(f"  first failure: {first_error}")


def _rate(workload, loop) -> float:
    """Work units per second of op time, over every op issued."""
    units = sum(workload.work_units(item) * n for item, (_, n) in loop.item_ns.items())
    ns = sum(total for total, _ in loop.item_ns.values())
    return units / (ns / 1e9)


class SideRounds:
    """What runs between ops (see closed_loop): one sample of each probe
    the workload's own op does not cover, one CLI cold start every other
    round, and at three rounds spread over the window one more set-up of
    the workload, timed and then discarded. Many small samples spread over
    the window see the same stretches of machine time as the ops do."""

    def __init__(self, workload, work: Path, first_setup_s: float, seconds: float) -> None:
        import inputs
        from measure import SIDE_EVERY_S
        from workloads import runtime_model

        self.workload, self.work = workload, work
        self.rounds = 0
        rounds = max(MIN_SIDE_ROUNDS, int(seconds / SIDE_EVERY_S))
        self.setup_rounds = {0, rounds // 3, 2 * rounds // 3}
        self.setup_s = [first_setup_s]
        self.cli_ms: list[float] = []
        self.kloc = [0, 0]  # [lines, ns]
        self.traces = [0, 0]  # [traces explored, ns]
        self.attempted = self.failed = 0
        self.models = [(spec, runtime_model(spec)) for spec in inputs.probe_models(workload.seed)]

    def _count(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def __call__(self) -> None:
        from workloads import WORKLOADS, cli_verify_once, kloc_once, traces_once

        w, n = self.workload, self.rounds
        self.rounds += 1
        if n % 2 == 0:
            directory, expected = w.cli_skills[n // 2 % len(w.cli_skills)]
            ms, ok = cli_verify_once(ROOT, directory, expected, self.work / "roots.json")
            self.cli_ms.append(ms)
            self._count(ok)
        for own, probe, acc in (("kloc_per_s", lambda: kloc_once(w), self.kloc),
                                ("traces_per_s", lambda: traces_once(self.models), self.traces)):
            if own not in w.home:
                units, ns, ok = probe()
                acc[0] += units
                acc[1] += ns
                self._count(ok)
        if n in self.setup_rounds:
            again = WORKLOADS[w.name](self.work / f"setup{n + 1}", w.seed)
            t0 = perf_counter_ns()
            again.setup()
            self.setup_s.append((perf_counter_ns() - t0) / 1e9)
            shutil.rmtree(again.work)


def untraced_run(name: str, seed: int, seconds: float, work: Path) -> dict:
    from measure import closed_loop, percentile
    from workloads import WORKLOADS

    workload = WORKLOADS[name](work / "setup0", seed)
    t0 = perf_counter_ns()
    workload.setup()
    side = SideRounds(workload, work, (perf_counter_ns() - t0) / 1e9, seconds)
    loop = closed_loop(_order(workload, seed), workload.op, workload.check, seconds, side)
    while side.rounds < MIN_SIDE_ROUNDS:
        side()
    # Read before the statistics below, whose sort grows with the sample count.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed = loop.attempted + side.attempted, loop.failed + side.failed
    own = workload.home
    kloc = (_rate(workload, loop) if "kloc_per_s" in own else side.kloc[0] / side.kloc[1] * 1e9) / 1000
    traces = _rate(workload, loop) if "traces_per_s" in own else side.traces[0] / side.traces[1] * 1e9

    samples = loop.samples.sorted()
    tail = percentile(samples, workload.tail_pct)
    beyond = sum(1 for s in samples if s > tail)
    print(f"workload {name} seed {seed} seconds {seconds:g} trace 0: {loop.attempted} ops, "
          f"{loop.ops} in whole cycles of {len(workload.items)} inputs; {side.rounds} side rounds")
    metrics = {
        "setup_s": _emit("setup_s", statistics.median(side.setup_s), "s",
                         f"median of {len(side.setup_s)} set-ups"),
        "op_p50_ms": _emit("op_p50_ms", percentile(samples, 50) / 1e6, "ms"),
        "op_tail_ms": _emit("op_tail_ms", tail / 1e6, "ms",
                            f"p{workload.tail_pct:g}, {beyond} of {len(samples)} samples beyond"),
        "ops_per_s": _emit("ops_per_s", loop.ops / (loop.op_ns_total / 1e9), "1/s"),
        "peak_rss_mb": _emit("peak_rss_mb", peak_rss_mb, "MB"),
        "cli_verify_p50_ms": _emit("cli_verify_p50_ms", statistics.median(side.cli_ms), "ms",
                                   f"{len(side.cli_ms)} fresh-interpreter verifies"),
        "kloc_per_s": _emit("kloc_per_s", kloc, "kloc/s",
                            "own ops" if "kloc_per_s" in own else "method_a probes"),
        "traces_per_s": _emit("traces_per_s", traces, "1/s",
                              "own ops" if "traces_per_s" in own else "method_c probes"),
    }
    if beyond < 10:
        print(f"  warning: only {beyond} samples beyond p{workload.tail_pct:g}")
    _fail_line(attempted, failed, loop.first_error)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------

# metric -> (span name, scale from ns per op)
LAYER_TIMES = {
    "manifest.parse_ms": ("manifest.parse", 1e6),
    "static_analysis.packs_ms": ("static_analysis.packs", 1e6),
    "static_analysis.discover_ms": ("static_analysis.discover", 1e6),
    "static_analysis.strip_ms": ("static_analysis.strip", 1e6),
    "static_analysis.scan_ms": ("static_analysis.scan", 1e6),
    "static_analysis.closure_ms": ("static_analysis.closure", 1e6),
    "lattice.containment_ms": ("lattice.containment", 1e6),
    "canonical.encode_ms": ("canonical.encode", 1e6),
    "dispatch.probe_ms": ("dispatch.probe", 1e6),
    "dispatch.parse_us": ("dispatch.parse", 1e3),
    "dispatch.envelope_us": ("dispatch.envelope", 1e3),
    "bmc.check_ms": ("bmc.check", 1e6),
    "bundle.sign_ms": ("bundle.sign", 1e6),
    "bundle.sigverify_ms": ("bundle.sigverify", 1e6),
    "bundle.read_ms": ("bundle.read", 1e6),
    "bundle.write_ms": ("bundle.write", 1e6),
}


def golden_mismatches(workload, seed: int) -> int | None:
    """Bundles whose evidence bytes differ from the checked-in digests of
    the default seed; None when the seed has no digests."""
    golden = json.loads(GOLDEN.read_text())
    if seed != golden["seed"] or workload.name not in golden:
        return None
    want = golden[workload.name]
    return sum(digests != {want.get(skill)} for skill, digests in workload.digests.items())


def traced_run(name: str, seed: int, seconds: float, work: Path) -> dict:
    from measure import Tracer, paired_loop
    from workloads import WORKLOADS, cli_import_ms

    workload = WORKLOADS[name](work / "setup0", seed)
    workload.setup()
    order = _order(workload, seed)
    tracer = Tracer()
    plain, traced = paired_loop(order, workload.op, workload.check, seconds, tracer)
    imports = cli_import_ms(ROOT)
    mismatches = golden_mismatches(workload, seed)
    tracer.dump(ROOT / ".bench_out" / f"spans-{name}-seed{seed}.json",
                {"workload": name, "seed": seed, "op_items": tracer.op_item})

    spans, own = tracer.spans, tracer.self_times()
    ops = tracer.op + 1
    self_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
    for span, ns in zip(spans, own):
        self_ns[span[0]] += ns
        calls[span[0]] += 1
        for i, c in enumerate(span[5]):
            counts[span[0]][i] += c

    # Residual and overhead compare the two phases input by input.
    covered: dict[int, list[int]] = defaultdict(lambda: [0, 0])
    for span, ns in zip(spans, own):
        if span[0] == "op":
            acc = covered[tracer.op_item[span[4]]]
            acc[0] += span[2] - span[1] - ns
            acc[1] += 1
    common = [i for i in covered if i in plain.item_ns]
    plain_mean = {i: plain.item_ns[i][0] / plain.item_ns[i][1] for i in common}
    traced_mean = {i: traced.item_ns[i][0] / traced.item_ns[i][1] for i in common}
    residual = statistics.fmean(plain_mean[i] - covered[i][0] / covered[i][1] for i in common)
    overhead = 100 * (sum(traced_mean.values()) / sum(plain_mean.values()) - 1)

    print(f"workload {name} seed {seed} seconds {seconds:g} trace 1: {plain.attempted} untraced "
          f"and {ops} traced ops, {len(spans)} spans")
    metrics = {m: _emit(m, self_ns[span] / ops / scale, "ms" if scale == 1e6 else "us")
               for m, (span, scale) in LAYER_TIMES.items()}
    explored, enumerated, _ = counts["bmc.check"]
    for m, value, unit in (
        ("static_analysis.lines", counts["static_analysis.discover"][0] / ops, "count"),
        ("static_analysis.bytes", counts["static_analysis.discover"][1] / ops, "bytes"),
        ("static_analysis.effects", counts["static_analysis.scan"][0] / ops, "count"),
        ("canonical.bytes", counts["canonical.encode"][0] / ops, "bytes"),
        ("dispatch.admit_ratio", counts["dispatch.envelope"][0] / max(1, calls["dispatch.envelope"]), "ratio"),
        ("bmc.traces_explored", explored / ops, "count"),
        ("bmc.traces_enumerated", enumerated / ops, "count"),
        ("bmc.enumerated_per_explored", enumerated / explored if explored else 0.0, "ratio"),
        ("bmc.replay_ms", self_ns["bmc.replay"] / max(1, calls["bmc.replay"]) / 1e6, "ms"),
        ("bundle.golden_mismatches", mismatches or 0, "count"),
        ("cli.import_ms", statistics.median(imports), "ms"),
        ("trace.residual_ms", residual / 1e6, "ms"),
        ("trace.overhead_pct", overhead, "%"),
    ):
        metrics[m] = _emit(m, value, unit)
    if mismatches is None and workload.digests:
        print(f"  (no golden evidence digests for seed {seed}; bundle.golden_mismatches not checked)")
    _report_layers(spans, self_ns, calls, ops)
    _report_workload(workload, tracer)
    attempted, failed = plain.attempted + ops, plain.failed + traced.failed
    _fail_line(attempted, failed, plain.first_error or traced.first_error)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _report_layers(spans, self_ns, calls, ops) -> None:
    op_ns = sum(s[2] - s[1] for s in spans if s[0] == "op")
    print("  self time per traced op, by span:")
    for span in sorted(self_ns, key=self_ns.get, reverse=True):
        print(f"    {span:<28} {calls[span] / ops:>9.2f} calls/op {self_ns[span] / ops / 1e6:>10.4f} ms/op"
              f" {100 * self_ns[span] / op_ns:>6.1f}%")
    # The op rebuilt as its sequence of public calls, from the traced op
    # with the most of them.
    direct: dict[int, list[str]] = defaultdict(list)
    for s in spans:
        if s[3] >= 0 and spans[s[3]][0] == "op":
            direct[s[4]].append(s[0])
    children = max(direct.values(), key=len, default=[])
    seq: list[list] = []
    for child in children:
        if seq and seq[-1][0] == child:
            seq[-1][1] += 1
        else:
            seq.append([child, 1])
    print("  op as its call sequence: " + " -> ".join(
        f"{c}{f' x{n}' if n > 1 else ''}" for c, n in seq))


def _report_workload(workload, tracer) -> None:
    """The two shapes ROADMAP's baseline quotes: the bmc share of verify by
    k_max, and how scan_script time grows with script size."""
    spans = tracer.spans
    if workload.name == "load-verify":
        by_k: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        for span in spans:
            if span[0] in ("op", "bmc.check"):
                k = workload.items[tracer.op_item[span[4]]][2].k_max
                group = "k_max=8" if k == 8 else "k_max<8"
                by_k[group][span[0] == "op"] += span[2] - span[1]
        for group, (bmc_ns, op_ns) in sorted(by_k.items()):
            print(f"  bmc.check share of {group} verify ops: {100 * bmc_ns / op_ns:.1f}%")
    if workload.name == "publish-large":
        points = [(s[5][1], s[2] - s[1], s[5][2]) for s in spans if s[0] == "static_analysis.scan"]
        print("  scan_script (incl. strip) by script size:")
        for lo, hi in ((500, 1000), (1000, 2000), (2000, 4000), (4000, 9000)):
            sel = [ns for lines, ns, _ in points if lo <= lines < hi]
            if sel:
                print(f"    {lo:>5}-{hi:<5} lines: {statistics.fmean(sel) / 1e6:8.2f} ms mean over {len(sel)} scans")
        for code, language in enumerate(("python", "shell", "node")):
            sel = [(math.log(lines), math.log(ns)) for lines, ns, c in points if c == code]
            if len({x for x, _ in sel}) > 1:
                slope = statistics.linear_regression(*zip(*sel)).slope
                print(f"    {language}: scan time ~ lines^{slope:.2f} over {len(sel)} scans")


if __name__ == "__main__":
    sys.exit(main())
