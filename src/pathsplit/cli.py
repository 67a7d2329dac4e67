"""Command-line surface: generate, split, evaluate, overhead, replay.

Every subcommand writes its artifact atomically and drops a manifest next
to it (<output>.manifest.json) recording the subcommand, the fully
resolved configuration, seed, inputs/outputs, tool version, and wall-clock
duration. `replay <manifest>` re-runs the recorded command; artifacts are
deterministic, so a replay reproduces the artifact byte for byte.

Exit codes: 0 success, 1 runtime error (I/O, malformed data), 2 usage
error (bad flags or flag combinations).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from . import __version__
from .netsim import (
    PathModel,
    Protocol,
    SenderModel,
    sweep_frequencies,
    sweep_to_csv,
)
from .scheduler import BoundaryMode, SchedulerConfig, Strategy
from .splitter import split_dataset
from .traces import atomic_write_text, generate_synthetic, load_dataset, save_dataset
from .wf_eval import evaluate_defense


class UsageError(Exception):
    """Bad flag combination detected after argparse; exits with code 2."""


def _infer_format(path: str, explicit: str | None) -> str:
    if explicit:
        return explicit
    return "csv" if path.endswith(".csv") else "ndjson"


def _parse_defense(spec: str, alpha: float, seed: int) -> SchedulerConfig | None:
    """Defense mini-syntax: none | strategy:paths:frequency.

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
    kwargs: dict = {"n_paths": n_paths, "strategy": strategy, "seed": seed,
                    "dirichlet_alpha": alpha}
    try:
        if strategy is Strategy.CONTEXT_DEPENDENT:
            kwargs["handshake_packets"] = int(freq)
        elif freq.endswith("ms"):
            kwargs["boundary"] = BoundaryMode.TIME_WINDOW
            kwargs["window_us"] = int(freq[:-2]) * 1000
        else:
            kwargs["boundary"] = BoundaryMode.PACKET_COUNT
            kwargs["batch_packets"] = int(freq)
    except ValueError:
        raise UsageError(f"bad frequency {freq!r} in defense spec") from None
    return _checked(SchedulerConfig, **kwargs)


def _checked(build, *args, **kwargs):
    """Call build on values derived from flags; a value it refuses is a
    usage error."""
    try:
        return build(*args, **kwargs)
    except (ValueError, OverflowError) as exc:
        raise UsageError(str(exc)) from None


def _check_seeds(subcommand: str, config: dict) -> None:
    """Refuse every seed a runner passes on, its own and its scheduler's,
    that would write the bytes of another seed: rand.stream_rng folds
    seeds mod 2**63 and the overhead sweep's netsim._rep_seed mod 2**48."""
    limit = 2**48 if subcommand == "overhead" else 2**63
    seeds = {"seed": config.get("seed", 0)}
    if isinstance(config.get("scheduler"), dict):
        seeds["scheduler.seed"] = config["scheduler"].get("seed", 0)
    for name, seed in seeds.items():
        if type(seed) is not int or not 0 <= seed < limit:
            raise ValueError(f"{name} must be an integer in [0, {limit}), got {seed!r}")


def _require(ok: bool, message: str) -> None:
    """Refuse a flag value up front that the run would refuse only late."""
    if not ok:
        raise UsageError(message)


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


# --- runners take a fully resolved config dict so `replay` can re-invoke
# them from a manifest verbatim


def run_generate(config: dict) -> None:
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


def run_split(config: dict) -> None:
    started = time.monotonic()
    dataset = load_dataset(config["input"], config["input_format"])
    scheduler_config = SchedulerConfig.from_dict(config["scheduler"])
    out = split_dataset(dataset, scheduler_config)
    save_dataset(out, config["output"], config["format"])
    _write_manifest(
        config["output"], "split", config, scheduler_config.seed,
        [config["input"]], [config["output"]], started,
    )
    print(f"wrote {config['output']} ({len(out)} traces from {len(dataset)} parents)")


def run_evaluate(config: dict) -> None:
    started = time.monotonic()
    dataset = load_dataset(config["input"], config["input_format"])
    scheduler_config = (
        SchedulerConfig.from_dict(config["scheduler"]) if config["scheduler"] else None
    )
    report = evaluate_defense(
        dataset,
        scheduler_config,
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


def _sweep_args(config: dict) -> dict:
    """The sweep_frequencies arguments an overhead config describes."""
    path = PathModel(
        rtt_us=config["rtt_ms"] * 1000,
        bandwidth_bytes_per_s=int(config["bandwidth_mbps"] * 125_000),
        loss_rate=config["loss"],
    )
    return {
        "paths": [path] * config["paths"],
        "sender": SenderModel(
            protocol=Protocol(config["protocol"]),
            validation_cache=config["validate_cache"],
        ),
        "periods_us": [p * 1000 for p in config["periods_ms"]],
        "total_bytes": int(config["total_mb"] * 1_000_000),
        "repetitions": config["reps"],
        "seed": config["seed"],
    }


def run_overhead(config: dict) -> None:
    started = time.monotonic()
    points = sweep_frequencies(**_sweep_args(config))
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
    runner, keys = _RUNNERS[subcommand]
    missing = [key for key in keys if key not in config]
    if missing:
        raise ValueError(
            f"manifest config for {subcommand} lacks {', '.join(missing)}"
        )
    _check_seeds(subcommand, config)
    try:
        runner(config)
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
    if args.subcommand != "replay":
        # --seed is also the scheduler's seed in split and evaluate
        _checked(_check_seeds, args.subcommand, {"seed": args.seed})
    if args.subcommand == "generate":
        _require(args.classes >= 1, f"--classes must be >= 1, got {args.classes}")
        _require(args.per_class >= 1,
                 f"--per-class must be >= 1, got {args.per_class}")
        _require(args.unmonitored >= 0,
                 f"--unmonitored must be >= 0, got {args.unmonitored}")
        run_generate(
            {
                "classes": args.classes,
                "per_class": args.per_class,
                "unmonitored": args.unmonitored,
                "seed": args.seed,
                "output": args.output,
                "format": _infer_format(args.output, args.format),
            }
        )
    elif args.subcommand == "split":
        if args.boundary == "time" and args.window_ms is None:
            raise UsageError("--boundary time requires --window-ms")
        if args.boundary == "packets" and args.window_ms is not None:
            raise UsageError("--window-ms requires --boundary time")
        scheduler = _checked(
            SchedulerConfig,
            n_paths=args.paths,
            strategy=Strategy(args.strategy),
            boundary=BoundaryMode(args.boundary),
            batch_packets=args.batch_packets,
            window_us=(100 if args.window_ms is None else args.window_ms) * 1000,
            dirichlet_alpha=args.alpha,
            handshake_packets=args.handshake,
            vpn_path=args.vpn_path,
            direct_path=args.direct_path,
            rr_offset=args.rr_offset,
            seed=args.seed,
        )
        run_split(
            {
                "input": args.input,
                "input_format": _infer_format(args.input, args.input_format),
                "output": args.output,
                "format": _infer_format(args.output, args.format),
                "scheduler": scheduler.to_dict(),
            }
        )
    elif args.subcommand == "evaluate":
        scheduler = _parse_defense(args.defense, args.alpha, args.seed)
        _require(args.k >= 1, f"--k must be >= 1, got {args.k}")
        _require(0 < args.threshold_quantile <= 1,
                 f"--threshold-quantile must be in (0, 1], got {args.threshold_quantile}")
        _require(0 < args.r < math.inf,
                 f"--r must be finite and positive, got {args.r}")
        run_evaluate(
            {
                "input": args.input,
                "input_format": _infer_format(args.input, args.input_format),
                "output": args.output,
                "defense": args.defense,
                "scheduler": scheduler.to_dict() if scheduler else None,
                "seed": args.seed,
                "k": args.k,
                "threshold_quantile": args.threshold_quantile,
                "r": args.r,
            }
        )
    elif args.subcommand == "overhead":
        if args.validate_cache and args.protocol != "quic":
            raise UsageError("--validate-cache is only valid with --protocol quic")
        try:
            periods = [int(p) for p in args.periods.split(",") if p]
        except ValueError:
            raise UsageError(
                f"--periods must be a comma list of integers, got {args.periods!r}"
            ) from None
        _require(min(periods, default=0) >= 1,
                 f"--periods must name periods of at least 1 ms, got {args.periods!r}")
        _require(args.reps >= 1, f"--reps must be >= 1, got {args.reps}")
        _require(args.paths >= 1, f"--paths must be >= 1, got {args.paths}")
        config = {
            "protocol": args.protocol,
            "periods_ms": periods,
            "reps": args.reps,
            "paths": args.paths,
            "rtt_ms": args.rtt_ms,
            "bandwidth_mbps": args.bandwidth_mbps,
            "loss": args.loss,
            "total_mb": args.total_mb,
            "validate_cache": args.validate_cache,
            "seed": args.seed,
            "output": args.output,
        }
        sweep = _checked(_sweep_args, config)
        mss = sweep["sender"].mss_bytes
        _require(sweep["total_bytes"] >= mss,
                 f"--total-mb must be at least one MSS ({mss} bytes)")
        run_overhead(config)
    else:
        run_replay(args.manifest, args.output)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _dispatch(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
