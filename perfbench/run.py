#!/usr/bin/env python3
"""Benchmark of the pathsplit command-line flow.

Run from the root of a checkout:

    python3 perfbench/run.py --workload long-traces --seed 0 --seconds 55 --trace 0

Every workload in workloads.json runs the same flow: generate, split,
evaluate --defense none, evaluate --defense <defense>, overhead quic and
overhead wireguard, with its own corpus and split settings.

With --trace 0 every stage runs as a fresh `python -m pathsplit.cli`
child, one at a time from this process: a closed loop with one client.
Wall time and peak RSS of each child come from os.wait4. The first pass
runs the flow; every later pass replays the first pass's manifests with
`pathsplit replay`, which redoes the same work. There are at least two
passes, and as many as end nearest to --seconds. Children get one BLAS
thread.

Stage times are counted in reference-loop times: a fixed pure-Python loop
(see reference_s) is timed in this process right before and right after
each child, and the child's wall time is divided by the mean of the two.
The throughputs are work per reference-loop time, packets (or simulated
transfers) per `ref`, each the median over the passes. This divides out
the host's speed, which on a small shared machine swings by a third for
minutes at a time; the wall times are on standard error. setup_s is plain
wall time: the median time of a fresh interpreter importing pathsplit.cli,
sampled four times up front and once per pass. peak_rss_mb is the median
over passes of the largest peak RSS in the pass.

With --trace 1 the flow runs twice in this process through
pathsplit.cli.main: once untraced, then with the public functions of each
layer wrapped where they are looked up (see PROBES). The per-layer
metrics named in BENCHMARK.json come from those spans and from one child
that measures resident memory per loaded packet. Spans are written to
.perfbench/spans-<workload>-s<seed>.json.

An operation is one CLI stage, or the memory probe child. It fails on a
non-zero exit, on a replayed artifact whose bytes differ from the first
pass (--trace 0), on a traced artifact whose bytes differ from the
untraced one (--trace 1), on a split whose packet total differs from its
input's, and, at seed 0 while the tool version equals the recorded one,
on an artifact whose sha256 differs from the golden value in
workloads.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; failed / attempted is the run's
error rate.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = HERE / "workloads.json"
CONTRACT = ROOT / "BENCHMARK.json"
OUT = ROOT / ".perfbench"

# A run must end within 180 s; stop starting work a little before that.
RUN_LIMIT_S = 170.0
SETUP_REPS = 4
REF_ITERATIONS = 200_000  # 15-20 ms on the machine in workloads.json's environment

# Fresh-process probe for traces.rss_bytes_per_packet: the resident-memory
# high-water mark after imports, then after loading the corpus. It reads
# VmHWM because ru_maxrss also holds the parent's high-water mark, which
# exec carries over into the child.
RSS_PROBE = """\
import sys
import pathsplit.cli
from pathsplit.traces import load_dataset


def peak_kib():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


before = peak_kib()
dataset = load_dataset(sys.argv[1], sys.argv[2])
after = peak_kib()
print(after - before, sum(len(t.packets) for t in dataset.traces))
"""


@dataclass(frozen=True)
class Stage:
    name: str  # role in the flow; keys the metrics
    argv: list[str]  # pathsplit CLI arguments
    artifact: str


@dataclass(frozen=True)
class StageRun:
    wall_s: float
    rss_kib: int
    ref_s: float  # the reference loop's time, around this child

    @property
    def refs(self) -> float:
        """The stage's wall time in reference-loop times."""
        return self.wall_s / self.ref_s


def build_stages(spec: dict, common: list[str], base_seeds: dict, seed: int) -> list[Stage]:
    """The flow of one workload; --seed n shifts every base seed by n.

    common holds the overhead sweep's arguments, the same in every workload.
    """
    gen, spl, ev, ovh = (
        str(base_seeds[k] + seed) for k in ("generate", "split", "evaluate", "overhead")
    )
    corpus = f"corpus.{spec['format']}"
    split_out = f"split.{spec['format']}"
    return [
        Stage("generate", ["generate", *spec["generate"], "--seed", gen, "-o", corpus], corpus),
        Stage("split", ["split", "-i", corpus, *spec["split"], "--seed", spl, "-o", split_out],
              split_out),
        Stage("baseline", ["evaluate", "-i", corpus, "--defense", "none", "--seed", ev,
                           "-o", "baseline.json"], "baseline.json"),
        Stage("evaluate", ["evaluate", "-i", corpus, "--defense", spec["defense"], "--seed", ev,
                           "-o", "defended.json"], "defended.json"),
    ] + [
        Stage(protocol, ["overhead", "--protocol", protocol, *common, "--seed", ovh,
                         "-o", f"{protocol}.csv"], f"{protocol}.csv")
        for protocol in ("quic", "wireguard")
    ]


# ---------------------------------------------------------------------------
# Children and artifacts


# One BLAS thread: on a machine of two shared cores, a second thread times
# the scheduler rather than the program.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict[str, str]:
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p), **BLAS_ENV)


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "pathsplit.cli", *args]


def run_child(argv: list[str], cwd: Path, deadline: float) -> tuple[float, int, int]:
    """Run argv to completion: (wall seconds, peak RSS in KiB, exit code).

    The child is killed if it is still running at the deadline.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=subprocess.DEVNULL)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss, proc.returncode


def sha256(path: Path) -> str | None:
    # Streams the file: a child's ru_maxrss starts at this process's own
    # high-water mark, so this process must stay small in --trace 0.
    if not path.is_file():
        return None
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def count_packets(path: Path) -> tuple[int, int]:
    """(traces, packets) in a dataset file written by pathsplit."""
    traces = packets = 0
    with path.open(encoding="utf-8") as fh:
        if path.suffix == ".csv":
            next(fh)  # header
            last_id = None
            for line in fh:
                trace_id = line.split(",", 1)[0]
                traces += trace_id != last_id
                last_id = trace_id
                packets += 1
        else:
            for line in fh:
                traces += 1
                packets += len(json.loads(line)["packets"])
    return traces, packets


def sims(work: Path, stage: Stage) -> int:
    """Switched transfers an overhead stage simulated: periods x reps."""
    manifest = json.loads((work / f"{stage.artifact}.manifest.json").read_text())
    return len(manifest["config"]["periods_ms"]) * manifest["config"]["reps"]


def tool_version(deadline: float) -> str:
    out = subprocess.run(
        cli_argv(["--version"]), env=child_env(), capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    return out.stdout.strip()


class Failures:
    """Failed operations, each logged once with every reason found."""

    def __init__(self) -> None:
        self.ops: set[tuple[int, str]] = set()

    def add(self, op: tuple[int, str], reason: str) -> None:
        self.ops.add(op)
        print(f"perfbench: FAIL {op[1]} (pass {op[0]}): {reason}", file=sys.stderr)


def check_outputs(
    stages: list[Stage], work: Path, op: int, failures: Failures, seed: int,
    record: dict, deadline: float,
) -> None:
    """Checks shared by both modes on the artifacts now in work."""
    by_name = {s.name: s for s in stages}
    corpus = count_packets(work / by_name["generate"].artifact)[1]
    split = count_packets(work / by_name["split"].artifact)[1]
    if split != corpus:
        failures.add((op, "split"), f"split holds {split} packets, input {corpus}")
    if seed != 0:
        return
    version = tool_version(deadline)
    if version != record["tool_version"]:
        print(f"perfbench: golden skipped (tool version {version}, recorded "
              f"{record['tool_version']})", file=sys.stderr)
        return
    for stage in stages:
        digest = sha256(work / stage.artifact)
        if digest != record["golden_sha256"][stage.name]:
            failures.add((op, stage.name), f"sha256 {digest} is not the golden value")


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics from CLI children


def reference_s() -> float:
    """Wall time of a fixed pure-Python loop, the yardstick for stage times.

    The host of a small shared machine runs everything faster or slower by
    up to a third for seconds to minutes at a time. Timed right around each
    child, this loop slows with it, so a stage's time divided by the loop's
    time is steady; no change to pathsplit can move the loop.
    """
    start = time.perf_counter()
    total = 0
    for i in range(REF_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def setup_sample(work: Path, deadline: float) -> float:
    """Wall time for a fresh interpreter to import pathsplit.cli."""
    return run_child([sys.executable, "-c", "import pathsplit.cli"], work, deadline)[0]


def run_end_to_end(stages, work, seed, seconds, record, deadline) -> tuple[dict, int, Failures]:
    setup_sample(work, deadline)  # compiles bytecode in a fresh checkout
    # Set-up is sampled up front and once per pass, so that its median
    # spans the whole run like the stage medians do.
    setup_samples = [setup_sample(work, deadline) for _ in range(SETUP_REPS)]
    failures = Failures()
    passes: list[dict[str, StageRun]] = []
    digests: dict[str, str | None] = {}
    started = time.monotonic()
    while True:
        if len(passes) >= 2:
            # Stop at the pass count whose end lies nearest to --seconds.
            last_wall = sum(r.wall_s for r in passes[-1].values())
            elapsed = time.monotonic() - started
            if elapsed + last_wall / 2 >= seconds or time.monotonic() + last_wall > deadline:
                break
        setup_samples.append(setup_sample(work, deadline))
        runs = {}
        for stage in stages:
            op = (len(passes), stage.name)
            if passes:
                # Later passes replay the first pass's manifests: the same
                # work, so each is one more timing sample and a replay check.
                out = f"replay-{stage.artifact}"
                argv = ["replay", f"{stage.artifact}.manifest.json", "-o", out]
            else:
                out, argv = stage.artifact, stage.argv
            ref_before = reference_s()
            wall, rss, code = run_child(cli_argv(argv), work, deadline)
            runs[stage.name] = StageRun(wall, rss, (ref_before + reference_s()) / 2)
            if code != 0:
                failures.add(op, f"exit code {code}")
            elif not passes:
                digests[stage.name] = sha256(work / out)
            elif sha256(work / out) != digests[stage.name]:
                failures.add(op, f"replay does not reproduce {stage.artifact}")
        passes.append(runs)
        print("perfbench: pass " + " ".join(
            f"{name}={r.wall_s:.3f}s/{r.refs:.1f}ref/{r.rss_kib // 1024}MB"
            for name, r in runs.items()
        ), file=sys.stderr)
    check_outputs(stages, work, 0, failures, seed, record, deadline)

    by_name = {s.name: s for s in stages}
    packets = count_packets(work / by_name["generate"].artifact)[1]
    quic, wireguard = sims(work, by_name["quic"]), sims(work, by_name["wireguard"])
    per_pass = [
        {
            "generate_pkts_per_ref": packets / r["generate"].refs,
            "split_pkts_per_ref": packets / r["split"].refs,
            "evaluate_pkts_per_ref": packets / r["evaluate"].refs,
            "baseline_pkts_per_ref": packets / r["baseline"].refs,
            "overhead_quic_sims_per_ref": quic / r["quic"].refs,
            "overhead_wireguard_sims_per_ref": wireguard / r["wireguard"].refs,
            "peak_rss_mb": max(x.rss_kib for x in r.values()) / 1024,
        }
        for r in passes
    ]
    values = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    values["setup_s"] = statistics.median(setup_samples)
    return values, len(passes) * len(stages), failures


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics from spans


def _count_loaded(counts, dataset, *args, **kwargs):
    counts["load_packets"] += sum(len(t.packets) for t in dataset.traces)


def _count_scheduled(counts, assignment, trace, *args, **kwargs):
    counts["schedule_packets"] += len(trace.packets)


def _count_split(counts, subtraces, *args, **kwargs):
    empty = sum(1 for s in subtraces if not s.packets)
    counts["subtraces"] += len(subtraces) - empty
    counts["empty_subtraces"] += empty


def _count_features(counts, vector, trace, *args, **kwargs):
    counts["feature_packets"] += len(trace.packets)


def _count_exemplars(counts, model, *args, **kwargs):
    counts["exemplars"] = max(counts["exemplars"], len(model.exemplars))


def _count_rejects(counts, label, *args, **kwargs):
    from pathsplit.traces import UNMONITORED_LABEL

    counts["gate_rejects"] += label == UNMONITORED_LABEL


def _transfer_span(paths, sender, *args, **kwargs) -> str:
    return f"netsim.simulate_transfer.{sender.protocol.value}"


# (pathsplit module, attribute looked up there, span name, counter)
PROBES = (
    ("cli", "generate_synthetic", "traces.generate_synthetic", None),
    ("cli", "save_dataset", "traces.save_dataset", None),
    ("cli", "load_dataset", "traces.load_dataset", _count_loaded),
    ("cli", "split_dataset", "splitter.split_dataset", None),
    ("cli", "evaluate_defense", "wf_eval.evaluate_defense", None),
    ("cli", "sweep_frequencies", "netsim.sweep_frequencies", None),
    ("splitter", "schedule", "scheduler.schedule", _count_scheduled),
    ("splitter", "split", "splitter.split", _count_split),
    ("wf_eval", "schedule", "scheduler.schedule", _count_scheduled),
    ("wf_eval", "split", "splitter.split", _count_split),
    ("wf_eval", "extract_features", "wf_eval.extract_features", _count_features),
    ("wf_eval", "train_classifier", "wf_eval.train_classifier", _count_exemplars),
    ("wf_eval", "classify", "wf_eval.classify", _count_rejects),
    ("netsim", "simulate_transfer", _transfer_span, None),
)


def import_pathsplit():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ.update(BLAS_ENV)  # read when numpy is first imported
    import pathsplit.cli

    return pathsplit


def in_process_pass(stages, work, failures, op, tracer=None) -> dict[str, float]:
    """Run the flow through pathsplit.cli.main; per-stage wall seconds."""
    cli = import_pathsplit().cli
    walls = {}
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for stage in stages:
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                if tracer is None:
                    code = cli.main(stage.argv)
                else:
                    code = tracer.call(f"cli.{stage.argv[0]}", cli.main, stage.argv)
            walls[stage.name] = time.perf_counter() - start
            if code != 0:
                failures.add((op, stage.name), f"exit code {code}")
    finally:
        os.chdir(cwd)
    return walls


def layer_metrics(tracer: Tracer, overhead_frac: float, rss_bytes_per_packet: float) -> dict:
    totals = tracer.totals()
    counts = tracer.counts

    def span(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0.0)

    def rate(n: float, seconds: float) -> float:
        return n / seconds if seconds > 0 else 0.0

    values = {
        "traces.generate_synthetic.s": span("traces.generate_synthetic", "s"),
        "traces.save_dataset.s": span("traces.save_dataset", "s"),
        "traces.load_dataset.s": span("traces.load_dataset", "s"),
        "traces.load_dataset.pkts_per_s": rate(
            counts["load_packets"], span("traces.load_dataset", "s")),
        "traces.rss_bytes_per_packet": rss_bytes_per_packet,
        "scheduler.schedule.s": span("scheduler.schedule", "s"),
        "scheduler.schedule.calls": span("scheduler.schedule", "calls"),
        "scheduler.schedule.pkts_per_s": rate(
            counts["schedule_packets"], span("scheduler.schedule", "s")),
        "splitter.split.s": span("splitter.split", "s"),
        "splitter.split.calls": span("splitter.split", "calls"),
        "splitter.split_dataset.self_s": span("splitter.split_dataset", "self_s"),
        "splitter.subtraces": counts["subtraces"],
        "splitter.empty_dropped": rate(
            counts["empty_subtraces"], counts["subtraces"] + counts["empty_subtraces"]),
        "wf_eval.extract_features.s": span("wf_eval.extract_features", "s"),
        "wf_eval.extract_features.calls": span("wf_eval.extract_features", "calls"),
        "wf_eval.extract_features.pkts_per_s": rate(
            counts["feature_packets"], span("wf_eval.extract_features", "s")),
        "wf_eval.train_classifier.self_s": span("wf_eval.train_classifier", "self_s"),
        "wf_eval.exemplars": counts["exemplars"],
        "wf_eval.classify.self_s": span("wf_eval.classify", "self_s"),
        "wf_eval.classify.calls": span("wf_eval.classify", "calls"),
        "wf_eval.classify.rows_per_s": rate(
            span("wf_eval.classify", "calls"), span("wf_eval.classify", "s")),
        "wf_eval.gate_rejects": rate(
            counts["gate_rejects"], span("wf_eval.classify", "calls")),
        "wf_eval.evaluate_defense.self_s": span("wf_eval.evaluate_defense", "self_s"),
        "netsim.sweep_frequencies.self_s": span("netsim.sweep_frequencies", "self_s"),
        "trace.overhead_frac": overhead_frac,
    }
    for protocol in ("quic", "wireguard"):
        name = f"netsim.simulate_transfer.{protocol}"
        values[f"{name}.s"] = span(name, "s")
        values[f"{name}.calls"] = span(name, "calls")
    for sub in ("generate", "split", "evaluate", "overhead"):
        values[f"cli.{sub}.self_s"] = span(f"cli.{sub}", "self_s")
    return values


def run_traced(stages, work, seed, record, deadline, spans_path) -> tuple[dict, int, Failures]:
    pathsplit = import_pathsplit()
    failures = Failures()
    untraced = in_process_pass(stages, work, failures, 0)
    digests = {s.name: sha256(work / s.artifact) for s in stages}

    tracer = Tracer()
    for module, attr, name, count in PROBES:
        tracer.wrap(getattr(pathsplit, module), attr, name, count)
    try:
        traced = in_process_pass(stages, work, failures, 1, tracer)
    finally:
        tracer.unwrap_all()
    tracer.write(spans_path)
    for stage in stages:
        if sha256(work / stage.artifact) != digests[stage.name]:
            failures.add((1, stage.name), "traced artifact differs from the untraced one")
    check_outputs(stages, work, 1, failures, seed, record, deadline)

    corpus = stages[0].artifact
    probe = subprocess.run(
        [sys.executable, "-c", RSS_PROBE, corpus, Path(corpus).suffix.lstrip(".")],
        cwd=work, env=child_env(), capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    rss_bytes_per_packet = 0.0
    if probe.returncode != 0:
        failures.add((2, "rss-probe"), f"exit code {probe.returncode}: {probe.stderr[-500:]}")
    else:
        delta_kib, packets = map(int, probe.stdout.split())
        rss_bytes_per_packet = delta_kib * 1024 / packets

    overhead_frac = sum(traced.values()) / sum(untraced.values()) - 1.0
    print("perfbench: untraced " + " ".join(f"{k}={v:.3f}s" for k, v in untraced.items())
          + " | traced " + " ".join(f"{k}={v:.3f}s" for k, v in traced.items()),
          file=sys.stderr)
    values = layer_metrics(tracer, overhead_frac, rss_bytes_per_packet)
    return values, 2 * len(stages) + 1, failures


# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, config: dict | None = None) -> dict:
    """One benchmark run; returns the result object.

    config has the layout of workloads.json and defaults to its contents.
    """
    deadline = time.monotonic() + RUN_LIMIT_S
    config = config or json.loads(WORKLOADS.read_text())
    spec = config["workloads"][workload]
    stages = build_stages(spec, config["overhead_common"], config["base_seeds"], seed)
    record = spec.get("record", {"tool_version": None})
    work = OUT / f"work-{workload}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if trace:
            values, attempted, failures = run_traced(
                stages, work, seed, record, deadline, OUT / f"spans-{workload}-s{seed}.json")
        else:
            values, attempted, failures = run_end_to_end(
                stages, work, seed, seconds, record, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    contract = json.loads(CONTRACT.read_text())
    listed = contract["per_layer" if trace else "end_to_end"]
    return {
        "correct": not failures.ops,
        "attempted": attempted,
        "failed": len(failures.ops),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(json.loads(WORKLOADS.read_text())["workloads"]))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=json.loads(CONTRACT.read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pathsplit" / "cli.py").is_file():
        print(f"perfbench: no pathsplit sources under {SRC}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
