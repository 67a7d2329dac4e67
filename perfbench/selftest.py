#!/usr/bin/env python3
"""Self-test of the benchmark harness on a tiny corpus.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that
- both modes emit every metric named in BENCHMARK.json, with its unit;
- a corrupted artifact, and an artifact that misses its golden sha256,
  are counted as failed operations;
- after the traced run every attribute of every pathsplit module is the
  original object again, and every probe left spans;
- the self times of each CLI stage's span tree add up to the stage's
  traced wall time.

It exits 0 when all of these hold and 1 otherwise.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import run

TINY = {
    "base_seeds": {"generate": 7, "split": 1, "evaluate": 1, "overhead": 3},
    "overhead_common": ["--paths", "2", "--rtt-ms", "50", "--bandwidth-mbps", "10",
                        "--loss", "0.01", "--periods", "5,100", "--total-mb", "0.5",
                        "--reps", "2"],
    "workloads": {
        "tiny": {
            "format": "ndjson",
            "generate": ["--classes", "3", "--per-class", "4", "--unmonitored", "6"],
            "split": ["--strategy", "wr", "--paths", "2", "--batch-packets", "20"],
            "defense": "wr:2:20",
        }
    },
}

problems: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


def check_metrics(result: dict, section: str) -> None:
    listed = json.loads(run.CONTRACT.read_text())[section]
    metrics = result["metrics"]
    check(sorted(metrics) == sorted(m["name"] for m in listed),
          f"{section}: every listed metric is emitted, and no other")
    check(all(metrics[m["name"]]["unit"] == m["unit"] for m in listed),
          f"{section}: every metric carries its unit")
    check(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
              for v in metrics.values()), f"{section}: every value is a finite number")


def pathsplit_attributes() -> dict[tuple[str, str], int]:
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "pathsplit"]
    return {(m.__name__, k): id(v) for m in modules for k, v in vars(m).items()}


def check_spans(path: Path) -> None:
    data = json.loads(path.read_text())
    spans = data["spans"]
    names = {s["name"] for s in spans}
    expected = {name for _, _, name, _ in run.PROBES if isinstance(name, str)}
    expected |= {"netsim.simulate_transfer.quic", "netsim.simulate_transfer.wireguard"}
    check(expected <= names, "traced run: every probe recorded spans")

    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            covered[s["parent"]] += s["end"] - s["start"]
    self_s = [s["end"] - s["start"] - c for s, c in zip(spans, covered)]
    root_of = []
    for i, s in enumerate(spans):  # parents precede their children
        root_of.append(i if s["parent"] < 0 else root_of[s["parent"]])
    tree_self = [0.0] * len(spans)
    for i, value in enumerate(self_s):
        tree_self[root_of[i]] += value
    roots = [i for i, s in enumerate(spans) if s["parent"] < 0]
    check(all(spans[i]["name"].startswith("cli.") for i in roots),
          "traced run: every root span is a CLI stage")
    check(all(abs(tree_self[i] - (spans[i]["end"] - spans[i]["start"])) < 1e-6 for i in roots),
          "traced run: self times of each stage's span tree sum to its wall time")
    check(all(v >= -1e-9 for v in self_s), "traced run: no self time is negative")


def main() -> int:
    result = run.run("tiny", 0, 0, False, TINY)
    check_metrics(result, "end_to_end")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] == 12,
          "untraced run of a good flow: 12 operations, none failed")

    run.import_pathsplit()
    before = pathsplit_attributes()
    result = run.run("tiny", 0, 0, True, TINY)
    check_metrics(result, "per_layer")
    check(result["correct"] and result["attempted"] == 13, "traced run: 13 operations, none failed")
    check(pathsplit_attributes() == before,
          "traced run: every pathsplit attribute is the original object again")
    check_spans(run.OUT / "spans-tiny-s0.json")

    original_run_child = run.run_child

    def corrupting_run_child(argv, cwd, deadline):
        outcome = original_run_child(argv, cwd, deadline)
        if argv[3:4] == ["split"]:  # drop the last packet row of the first split
            artifact = Path(cwd) / argv[argv.index("-o") + 1]
            lines = artifact.read_text().splitlines(keepends=True)
            artifact.write_text("".join(lines[:-1]))
        return outcome

    run.run_child = corrupting_run_child
    try:
        result = run.run("tiny", 0, 0, False, TINY)
    finally:
        run.run_child = original_run_child
    check(not result["correct"] and result["failed"] >= 1,
          f"a corrupted split artifact counts as failed ({result['failed']} of "
          f"{result['attempted']})")

    version = run.tool_version(time.monotonic() + 60)
    TINY["workloads"]["tiny"]["record"] = {
        "tool_version": version,
        "golden_sha256": {s: "0" * 64 for s in
                          ("generate", "split", "baseline", "evaluate", "quic", "wireguard")},
    }
    result = run.run("tiny", 0, 0, False, TINY)
    check(result["failed"] == 6, "at seed 0, every artifact off its golden sha256 counts as failed")
    result = run.run("tiny", 1, 0, False, TINY)
    check(result["failed"] == 0, "at another seed the golden values are not checked")
    TINY["workloads"]["tiny"]["record"]["tool_version"] = version + "+other"
    result = run.run("tiny", 0, 0, False, TINY)
    check(result["failed"] == 0, "under another tool version the golden values are skipped")

    print("selftest:", "FAILED: " + "; ".join(problems) if problems else "all checks passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
