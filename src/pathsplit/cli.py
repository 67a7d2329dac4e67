"""Command-line surface: generate, split, evaluate, overhead, replay.

Every subcommand writes its artifact atomically and drops a manifest next
to it (<output>.manifest.json) recording the subcommand, the fully
resolved configuration, seed, inputs/outputs, tool version, and wall-clock
duration. `replay <manifest>` re-runs the recorded command; artifacts are
deterministic, so a replay reproduces the artifact byte for byte.

Flags become the same config dict a manifest records, and one check,
_resolve, holds every rule a config keeps: a command and the replay of
its manifest refuse the same values, before any load, run or write.

Exit codes: 0 success, 1 runtime error (I/O, malformed data, a manifest
config _resolve refuses), 2 usage error (bad flags or flag combinations,
a flag value _resolve refuses).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import fields

from . import __version__
from .netsim import PathModel, Protocol, SenderModel, sweep_frequencies, sweep_to_csv
from .scheduler import MAX_PATHS, SchedulerConfig, Strategy
from .splitter import split_dataset
from .traces import (
    FORMATS, atomic_write_text, generate_synthetic, load_dataset, save_dataset,
)
from .wf_eval import evaluate_defense


class UsageError(Exception):
    """Bad flag combination detected after argparse; exits with code 2."""


def _infer_format(path: str, explicit: str | None) -> str:
    if explicit:
        return explicit
    return "csv" if path.endswith(".csv") else "ndjson"


def _parse_defense(spec: str, alpha: float, seed: int) -> dict | None:
    """Defense mini-syntax: none | strategy:paths:frequency, as a
    scheduler config dict.

    strategy is one of rr, ur, wr, context; paths is the path count; for
    rr/ur/wr the frequency is a packet batch size (e.g. 50) or a time
    window with an ms suffix (e.g. 100ms); for context it is the
    handshake packet count.
    """
    if spec == "none":
        return None
    parts = spec.split(":")
    if len(parts) != 3:
        raise UsageError(
            f"defense spec {spec!r} must be 'none' or strategy:paths:frequency"
        )
    name, paths_s, freq = parts
    try:
        strategy = Strategy(name)
    except ValueError:
        raise UsageError(
            f"unknown strategy {name!r}; expected rr, ur, wr, or context"
        ) from None
    try:
        n_paths = int(paths_s)
    except ValueError:
        raise UsageError(f"path count {paths_s!r} is not an integer") from None
    # the fields the spec leaves out keep SchedulerConfig's defaults
    scheduler = {f.name: f.default for f in fields(SchedulerConfig)}
    scheduler.update(n_paths=n_paths, strategy=name, boundary="packets",
                     seed=seed, dirichlet_alpha=alpha)
    try:
        if strategy is Strategy.CONTEXT_DEPENDENT:
            scheduler["handshake_packets"] = int(freq)
        elif freq.endswith("ms"):
            scheduler["boundary"] = "time"
            scheduler["window_us"] = int(freq[:-2]) * 1000
        else:
            scheduler["batch_packets"] = int(freq)
    except ValueError:
        raise UsageError(f"bad frequency {freq!r} in defense spec") from None
    return scheduler


def _checked(build, *args, **kwargs):
    """Call build on values derived from flags; a value it refuses is a
    usage error."""
    try:
        return build(*args, **kwargs)
    except (ValueError, OverflowError) as exc:
        raise UsageError(str(exc)) from None


def _write_manifest(
    output: str,
    subcommand: str,
    config: dict,
    seed: int,
    inputs: list[str],
    outputs: list[str],
    started: float,
) -> None:
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "seed": seed,
        "inputs": inputs,
        "outputs": outputs,
        "tool_version": __version__,
        "duration_s": round(time.monotonic() - started, 6),
    }
    atomic_write_text(
        output + ".manifest.json",
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
    )


# --- runners take a config dict that _resolve accepted, and what _resolve
# built from it, so `replay` can re-invoke them from a manifest verbatim


def run_generate(config: dict, _: None) -> None:
    started = time.monotonic()
    dataset = generate_synthetic(
        config["classes"],
        config["per_class"],
        config["unmonitored"],
        seed=config["seed"],
    )
    save_dataset(dataset, config["output"], config["format"])
    _write_manifest(
        config["output"], "generate", config, config["seed"], [],
        [config["output"]], started,
    )
    print(f"wrote {config['output']} ({len(dataset)} traces)")


def run_split(config: dict, scheduler: SchedulerConfig) -> None:
    started = time.monotonic()
    dataset = load_dataset(config["input"], config["input_format"])
    out = split_dataset(dataset, scheduler)
    save_dataset(out, config["output"], config["format"])
    _write_manifest(
        config["output"], "split", config, scheduler.seed,
        [config["input"]], [config["output"]], started,
    )
    print(f"wrote {config['output']} ({len(out)} traces from {len(dataset)} parents)")


def run_evaluate(config: dict, scheduler: SchedulerConfig | None) -> None:
    started = time.monotonic()
    dataset = load_dataset(config["input"], config["input_format"])
    report = evaluate_defense(
        dataset,
        scheduler,
        seed=config["seed"],
        k=config["k"],
        threshold_quantile=config["threshold_quantile"],
        r=config["r"],
    )
    payload = report.to_json_dict()
    # echo the experiment parameters; the artifact location is not one
    payload["config"] = {k: v for k, v in config.items() if k != "output"}
    atomic_write_text(
        config["output"], json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    _write_manifest(
        config["output"], "evaluate", config, config["seed"],
        [config["input"]], [config["output"]], started,
    )
    print(
        f"wrote {config['output']} "
        f"(f1={report.f1:.3f} r_precision={report.r_precision:.3f} "
        f"recall={report.recall:.3f})"
    )


def run_overhead(config: dict, sweep: dict) -> None:
    started = time.monotonic()
    points = sweep_frequencies(**sweep)
    atomic_write_text(config["output"], sweep_to_csv(points))
    _write_manifest(
        config["output"], "overhead", config, config["seed"], [],
        [config["output"]], started,
    )
    worst = max(points, key=lambda p: p.overhead_fraction)
    print(
        f"wrote {config['output']} ({len(points)} periods; "
        f"max overhead {worst.overhead_fraction:.1%} at {worst.period_us}us)"
    )


# subcommand -> (runner, the config keys it reads)
_RUNNERS = {
    "generate": (
        run_generate,
        ("classes", "per_class", "unmonitored", "seed", "output", "format"),
    ),
    "split": (run_split, ("input", "input_format", "scheduler", "output", "format")),
    "evaluate": (
        run_evaluate,
        ("input", "input_format", "scheduler", "seed", "k", "threshold_quantile",
         "r", "output"),
    ),
    "overhead": (
        run_overhead,
        ("protocol", "periods_ms", "reps", "paths", "rtt_ms", "bandwidth_mbps",
         "loss", "total_mb", "validate_cache", "seed", "output"),
    ),
}


def _finite_positive(value) -> bool:
    return 0 < value < math.inf  # refuses NaN too


# config key -> (the test its value passes, that test in words)
_RULES = {
    "classes": (lambda v: v >= 1, ">= 1"),
    "per_class": (lambda v: v >= 1, ">= 1"),
    "unmonitored": (lambda v: v >= 0, ">= 0"),
    "format": (lambda v: v in FORMATS, f"one of {FORMATS}"),
    "input_format": (lambda v: v in FORMATS, f"one of {FORMATS}"),
    "k": (lambda v: v >= 1, ">= 1"),
    "threshold_quantile": (lambda v: 0 < v <= 1, "in (0, 1]"),
    "r": (_finite_positive, "finite and positive"),
    "periods_ms": (lambda v: all(1 <= p < math.inf for p in v),
                   "finite periods of at least 1 ms"),
    "reps": (lambda v: v >= 1, ">= 1"),
    "paths": (lambda v: 1 <= v <= MAX_PATHS, f"in [1, {MAX_PATHS}]"),
    "rtt_ms": (_finite_positive, "finite and positive"),
    "bandwidth_mbps": (_finite_positive, "finite and positive"),
    "total_mb": (_finite_positive, "finite and positive"),
    "validate_cache": (lambda v: type(v) is bool, "true or false"),
}


def _resolve(subcommand: str, config: dict) -> SchedulerConfig | dict | None:
    """Check a config against every rule of its subcommand and build what
    its runner takes: the SchedulerConfig of split and evaluate (None for
    an undefended evaluate), the sweep_frequencies arguments of overhead.

    A command's flags and a replayed manifest come here alike, before any
    load, run or write. A refused value raises ValueError; a value of the
    wrong type raises TypeError where a rule or a build meets it.
    """
    keys = _RUNNERS[subcommand][1]
    missing = [key for key in keys if key not in config]
    if missing:
        raise ValueError(f"config for {subcommand} lacks {', '.join(missing)}")
    # a seed a runner passes on, its own or its scheduler's, must not write
    # the bytes of another seed: rand.stream_rng folds seeds mod 2**63 and
    # the overhead sweep's netsim._rep_seed mod 2**48
    limit = 2**48 if subcommand == "overhead" else 2**63
    seeds = {"seed": config.get("seed", 0)}
    if isinstance(config.get("scheduler"), dict):
        seeds["scheduler.seed"] = config["scheduler"].get("seed", 0)
    for name, seed in seeds.items():
        if type(seed) is not int or not 0 <= seed < limit:
            raise ValueError(f"{name} must be an integer in [0, {limit}), got {seed!r}")
    for key in keys:
        if key in _RULES and not _RULES[key][0](config[key]):
            raise ValueError(f"{key} must be {_RULES[key][1]}, got {config[key]!r}")

    if subcommand == "generate" or (
        subcommand == "evaluate" and config["scheduler"] is None
    ):
        return None
    if subcommand != "overhead":
        return SchedulerConfig.from_dict(config["scheduler"])
    if not config["periods_ms"]:
        raise ValueError("need at least one switching period")
    sender = SenderModel(
        protocol=Protocol(config["protocol"]),
        validation_cache=config["validate_cache"],
    )
    if sender.validation_cache and sender.protocol is not Protocol.QUIC_MIGRATION:
        raise ValueError("validate_cache is only valid with protocol quic")
    total_bytes = int(config["total_mb"] * 1_000_000)
    if total_bytes < sender.mss_bytes:
        raise ValueError(f"total_mb must be at least one MSS ({sender.mss_bytes} bytes)")
    path = PathModel(
        rtt_us=config["rtt_ms"] * 1000,
        bandwidth_bytes_per_s=int(config["bandwidth_mbps"] * 125_000),
        loss_rate=config["loss"],
    )
    return {
        "paths": [path] * config["paths"],
        "sender": sender,
        "periods_us": [p * 1000 for p in config["periods_ms"]],
        "total_bytes": total_bytes,
        "repetitions": config["reps"],
        "seed": config["seed"],
    }


def run_replay(manifest_path: str, output_override: str | None) -> None:
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ValueError("manifest is not a JSON object")
    subcommand = manifest.get("subcommand")
    if subcommand not in _RUNNERS:
        raise ValueError(f"manifest names unknown subcommand {subcommand!r}")
    version = manifest.get("tool_version")
    if version != __version__:
        raise ValueError(
            f"manifest was written by pathsplit {version!r}; this is "
            f"{__version__!r}, which may not reproduce its artifact"
        )
    config = manifest.get("config")
    if not isinstance(config, dict):
        raise ValueError("manifest has no config object")
    config = dict(config)
    if output_override:
        config["output"] = output_override
    try:
        _RUNNERS[subcommand][0](config, _resolve(subcommand, config))
    except TypeError as exc:
        raise ValueError(
            f"manifest config for {subcommand} has a value of the wrong type: {exc}"
        ) from None


# --- argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathsplit",
        description="Split packet traces across paths, evaluate the "
        "fingerprinting defense, and simulate switching overhead.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("generate", help="generate a synthetic labeled dataset")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--unmonitored", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--format", choices=("ndjson", "csv"), default=None)

    p = sub.add_parser("split", help="split a dataset across simulated paths")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--strategy", choices=("rr", "ur", "wr", "context"), required=True)
    p.add_argument("--paths", type=int, default=3)
    p.add_argument("--boundary", choices=("packets", "time"), default="packets")
    p.add_argument("--batch-packets", type=int, default=50)
    p.add_argument("--window-ms", type=int, default=None)
    p.add_argument("--alpha", type=float, default=1.0, help="Dirichlet alpha (wr)")
    p.add_argument("--handshake", type=int, default=4, help="handshake packets (context)")
    p.add_argument("--vpn-path", type=int, default=0, help="handshake path (context)")
    p.add_argument("--direct-path", type=int, default=1, help="post-handshake path (context)")
    p.add_argument("--rr-offset", type=int, default=0, help="starting path (rr)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("ndjson", "csv"), default=None)
    p.add_argument("--input-format", choices=("ndjson", "csv"), default=None)

    p = sub.add_parser("evaluate", help="run the fingerprinting attack pipeline")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument(
        "--defense",
        required=True,
        help="none, or strategy:paths:frequency (frequency: packets, e.g. "
        "wr:3:50, or milliseconds with an ms suffix, e.g. wr:3:100ms; for "
        "context the third field is the handshake packet count)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--threshold-quantile", type=float, default=0.95)
    p.add_argument("--r", type=float, default=20.0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--input-format", choices=("ndjson", "csv"), default=None)

    p = sub.add_parser("overhead", help="sweep throughput vs switching period")
    p.add_argument("--protocol", choices=("quic", "wireguard"), required=True)
    p.add_argument("--periods", required=True, help="comma list of periods in ms")
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--paths", type=int, default=2)
    p.add_argument("--rtt-ms", type=int, default=50)
    p.add_argument("--bandwidth-mbps", type=float, default=10.0)
    p.add_argument("--loss", type=float, default=0.0)
    p.add_argument("--total-mb", type=float, default=10.0)
    p.add_argument("--validate-cache", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("replay", help="re-run a command from its manifest")
    p.add_argument("manifest")
    p.add_argument("-o", "--output", default=None)

    return parser


def _dispatch(args: argparse.Namespace) -> None:
    if args.subcommand == "replay":
        run_replay(args.manifest, args.output)
        return
    runner, keys = _RUNNERS[args.subcommand]
    config = {k: v for k, v in vars(args).items() if k in keys}
    if "format" in keys:
        config["format"] = _infer_format(args.output, args.format)
    if "input_format" in keys:
        config["input_format"] = _infer_format(args.input, args.input_format)
    if args.subcommand == "split":
        if args.boundary == "time" and args.window_ms is None:
            raise UsageError("--boundary time requires --window-ms")
        if args.boundary == "packets" and args.window_ms is not None:
            raise UsageError("--window-ms requires --boundary time")
        config["scheduler"] = {
            "n_paths": args.paths,
            "strategy": args.strategy,
            "boundary": args.boundary,
            "batch_packets": args.batch_packets,
            "window_us": (100 if args.window_ms is None else args.window_ms) * 1000,
            "dirichlet_alpha": args.alpha,
            "handshake_packets": args.handshake,
            "vpn_path": args.vpn_path,
            "direct_path": args.direct_path,
            "rr_offset": args.rr_offset,
            "seed": args.seed,
        }
    elif args.subcommand == "evaluate":
        # the spec is echoed as given; the scheduler config is what runs
        config["defense"] = args.defense
        config["scheduler"] = _parse_defense(args.defense, args.alpha, args.seed)
    elif args.subcommand == "overhead":
        try:
            config["periods_ms"] = [int(p) for p in args.periods.split(",") if p]
        except ValueError:
            raise UsageError(
                f"--periods must be a comma list of integers, got {args.periods!r}"
            ) from None
    runner(config, _checked(_resolve, args.subcommand, config))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _dispatch(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
