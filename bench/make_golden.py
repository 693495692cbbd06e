#!/usr/bin/env python3
"""Rewrite bench/golden.json: the SHA-256 of every evidence bundle that the
load-verify set-up and the publish-large ops produce for the default seed.

    python3 bench/make_golden.py

Run it only for an intended evidence change (say so in CHANGES.md); the
traced run reports any other difference as ``bundle.golden_mismatches``.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
from workloads import LoadVerify, PublishLarge  # noqa: E402


def main() -> int:
    work = ROOT / ".bench_work" / "golden"
    shutil.rmtree(work, ignore_errors=True)
    golden: dict = {"seed": inputs.DEFAULT_SEED}
    try:
        for cls in (LoadVerify, PublishLarge):
            workload = cls(work / cls.name, inputs.DEFAULT_SEED)
            workload.setup()
            for item in range(len(workload.items) if cls is PublishLarge else 0):
                if not workload.check(item, workload.op(item)):
                    raise SystemExit(f"{cls.name} item {item} disagrees with its known answer")
            golden[cls.name] = {name: min(d) for name, d in sorted(workload.digests.items())}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (BENCH / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
