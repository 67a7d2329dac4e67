"""Command-line surface: generate, split, evaluate, overhead, replay.

Every subcommand writes its artifact atomically, and one function runs,
times and records them all: it drops a manifest next to the artifact
(<output>.manifest.json) recording the subcommand, the fully resolved
configuration, seed, inputs/outputs, tool version, and wall-clock duration.
`replay <manifest>` re-runs the recorded command; artifacts are
deterministic, so a replay reproduces the artifact byte for byte.

Flags become the same config dict a manifest records, and the
subcommand's typed config (GenerateConfig, SplitConfig, EvaluateConfig or
OverheadConfig) is built from it by from_dict, which checks every rule,
the ones spanning fields too: a command and the replay of its manifest
refuse the same values, before any load, run or write.

Exit codes: 0 success, 1 runtime error (I/O, malformed data, a manifest
config its config class refuses), 2 usage error (bad flags or flag
combinations, a flag value the config class refuses).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, fields

from . import __version__
from .config import Config, require
from .netsim import (
    PathModel, Protocol, SenderModel, max_total_bytes, sweep_frequencies,
    sweep_to_csv,
)
from .rand import SEED_LIMIT, SEED_RULE
from .scheduler import MAX_PATHS, BoundaryMode, SchedulerConfig, Strategy
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
    scheduler config dict; a spec it cannot read raises ValueError.

    strategy is one of rr, ur, wr, context; paths is the path count; for
    rr/ur/wr the frequency is a packet batch size (e.g. 50) or a time
    window with an ms suffix (e.g. 100ms); for context it is the
    handshake packet count.
    """
    if spec == "none":
        return None
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(
            f"defense spec {spec!r} must be 'none' or strategy:paths:frequency"
        )
    name, paths_s, freq = parts
    try:
        strategy = Strategy(name)
    except ValueError:
        raise ValueError(
            f"unknown strategy {name!r}; expected rr, ur, wr, or context"
        ) from None
    try:
        n_paths = int(paths_s)
    except ValueError:
        raise ValueError(f"path count {paths_s!r} is not an integer") from None
    # the fields the spec leaves out keep SchedulerConfig's defaults
    scheduler = SchedulerConfig().to_dict()
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
        raise ValueError(f"bad frequency {freq!r} in defense spec") from None
    return scheduler


# --- one typed config per subcommand: its fields are the keys of the
# manifest's config, their annotations the type rules (see config.py) and
# its __post_init__ the rules on its values, alone and together. A seed
# is checked against rand's range here, before any load, run or write;
# a scheduler checks its own.


@dataclass(frozen=True)
class GenerateConfig(Config):
    classes: int
    per_class: int
    unmonitored: int
    seed: int
    output: str
    format: str

    def __post_init__(self):
        super().__post_init__()
        require(self, "seed", 0 <= self.seed < SEED_LIMIT, SEED_RULE)
        require(self, "classes", self.classes >= 1, ">= 1")
        require(self, "per_class", self.per_class >= 1, ">= 1")
        require(self, "unmonitored", self.unmonitored >= 0, ">= 0")
        require(self, "format", self.format in FORMATS, f"one of {FORMATS}")


@dataclass(frozen=True)
class SplitConfig(Config):
    input: str
    input_format: str
    scheduler: SchedulerConfig
    output: str
    format: str

    def __post_init__(self):
        super().__post_init__()
        require(self, "input_format", self.input_format in FORMATS, f"one of {FORMATS}")
        require(self, "format", self.format in FORMATS, f"one of {FORMATS}")


@dataclass(frozen=True)
class EvaluateConfig(Config):
    input: str
    input_format: str
    scheduler: SchedulerConfig | None  # None for an undefended evaluate
    defense: str
    seed: int
    k: int
    threshold_quantile: float
    r: float
    output: str

    def __post_init__(self):
        super().__post_init__()
        require(self, "seed", 0 <= self.seed < SEED_LIMIT, SEED_RULE)
        require(self, "input_format", self.input_format in FORMATS, f"one of {FORMATS}")
        require(self, "k", self.k >= 1, ">= 1")
        require(self, "threshold_quantile", 0 < self.threshold_quantile <= 1, "in (0, 1]")
        require(self, "r", 0 < self.r < math.inf, "finite and positive")  # refuses NaN
        # the spec leaves the Dirichlet alpha and the seed to the scheduler
        scheduler = self.scheduler or SchedulerConfig()
        parsed = _parse_defense(self.defense, scheduler.dirichlet_alpha, scheduler.seed)
        if (None if parsed is None else SchedulerConfig.from_dict(parsed)) != self.scheduler:
            raise ValueError(
                f"defense {self.defense!r} does not describe the config's scheduler"
            )


@dataclass(frozen=True)
class OverheadConfig(Config):
    protocol: Protocol
    periods_ms: list[int]
    reps: int
    paths: int
    rtt_ms: int
    bandwidth_mbps: float
    loss: float
    total_mb: float
    validate_cache: bool
    seed: int
    output: str

    def __post_init__(self):
        super().__post_init__()
        require(self, "seed", 0 <= self.seed < SEED_LIMIT, SEED_RULE)
        require(self, "periods_ms", all(p >= 1 for p in self.periods_ms),
                "finite periods of at least 1 ms")
        require(self, "periods_ms", len(set(self.periods_ms)) == len(self.periods_ms),
                "distinct")
        if not self.periods_ms:
            raise ValueError("need at least one switching period")
        require(self, "reps", self.reps >= 1, ">= 1")
        require(self, "paths", 1 <= self.paths <= MAX_PATHS, f"in [1, {MAX_PATHS}]")
        require(self, "rtt_ms", self.rtt_ms > 0, "finite and positive")
        require(self, "bandwidth_mbps", 0 < self.bandwidth_mbps < math.inf,
                "finite and positive")
        # a finite value can still give a byte count that int() cannot take
        require(self, "bandwidth_mbps", self.bandwidth_mbps * 125_000 < math.inf,
                "a finite number of bytes per second")
        require(self, "loss", 0 <= self.loss < 1, "in [0, 1)")
        require(self, "total_mb", 0 < self.total_mb < math.inf, "finite and positive")
        require(self, "total_mb", self.total_mb * 1_000_000 < math.inf,
                "a finite number of bytes")
        cap = max_total_bytes(self.loss)
        require(self, "total_mb", self.total_bytes <= cap,
                f"at most {cap / 1_000_000:.15g} (netsim.MAX_TOTAL_BYTES"
                + (" * (1 - loss))" if self.loss else ")"))
        if self.bandwidth_bytes_per_s < 1:
            raise ValueError(
                "bandwidth_mbps must be at least one byte per second (0.000008 Mbit/s)"
            )
        if self.validate_cache and self.protocol is not Protocol.QUIC_MIGRATION:
            raise ValueError("validate_cache is only valid with protocol quic")
        mss = SenderModel.mss_bytes
        if self.total_bytes < mss:
            raise ValueError(f"total_mb must be at least one MSS ({mss} bytes)")

    @property
    def bandwidth_bytes_per_s(self) -> int:
        return int(self.bandwidth_mbps * 125_000)

    @property
    def total_bytes(self) -> int:
        return int(self.total_mb * 1_000_000)


# --- runners take a checked config and return a summary of the artifact
# they wrote, so `replay` can re-invoke them from a manifest verbatim


def run_generate(config: GenerateConfig) -> str:
    dataset = generate_synthetic(
        config.classes, config.per_class, config.unmonitored, seed=config.seed
    )
    save_dataset(dataset, config.output, config.format)
    return f"{len(dataset)} traces"


def run_split(config: SplitConfig) -> str:
    dataset = load_dataset(config.input, config.input_format)
    out = split_dataset(dataset, config.scheduler)
    save_dataset(out, config.output, config.format)
    return f"{len(out)} traces from {len(dataset)} parents"


def run_evaluate(config: EvaluateConfig) -> str:
    dataset = load_dataset(config.input, config.input_format)
    report = evaluate_defense(
        dataset,
        config.scheduler,
        seed=config.seed,
        k=config.k,
        threshold_quantile=config.threshold_quantile,
        r=config.r,
    )
    payload = report.to_json_dict()
    # echo the experiment parameters; the artifact location is not one
    payload["config"] = {k: v for k, v in config.to_dict().items() if k != "output"}
    atomic_write_text(
        config.output, json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    return (f"f1={report.f1:.3f} r_precision={report.r_precision:.3f} "
            f"recall={report.recall:.3f}")


def run_overhead(config: OverheadConfig) -> str:
    path = PathModel(
        rtt_us=config.rtt_ms * 1000,
        bandwidth_bytes_per_s=config.bandwidth_bytes_per_s,
        loss_rate=config.loss,
    )
    points = sweep_frequencies(
        paths=[path] * config.paths,
        sender=SenderModel(config.protocol, validation_cache=config.validate_cache),
        periods_us=[p * 1000 for p in config.periods_ms],
        total_bytes=config.total_bytes,
        repetitions=config.reps,
        seed=config.seed,
    )
    atomic_write_text(config.output, sweep_to_csv(points))
    worst = max(points, key=lambda p: p.overhead_fraction)
    return (f"{len(points)} periods; "
            f"max overhead {worst.overhead_fraction:.1%} at {worst.period_us}us")


# subcommand -> (its config, its runner)
_RUNNERS = {
    "generate": (GenerateConfig, run_generate),
    "split": (SplitConfig, run_split),
    "evaluate": (EvaluateConfig, run_evaluate),
    "overhead": (OverheadConfig, run_overhead),
}


def _execute(subcommand: str, config: Config) -> None:
    """Run subcommand on its checked config, record the run in
    <output>.manifest.json and print what it wrote."""
    started = time.monotonic()
    summary = _RUNNERS[subcommand][1](config)
    manifest = {
        "subcommand": subcommand,
        "config": config.to_dict(),
        "seed": config.scheduler.seed if subcommand == "split" else config.seed,
        "inputs": [config.input] if hasattr(config, "input") else [],
        "outputs": [config.output],
        "tool_version": __version__,
        "duration_s": round(time.monotonic() - started, 6),
    }
    atomic_write_text(
        config.output + ".manifest.json",
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
    )
    print(f"wrote {config.output} ({summary})")


def run_replay(manifest_path: str, output_override: str | None) -> None:
    with open(manifest_path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ValueError(f"manifest {manifest_path} is not valid JSON: {exc}") from None
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
        checked = _RUNNERS[subcommand][0].from_dict(config)
    except TypeError as exc:
        raise ValueError(
            f"manifest config for {subcommand} has a value of the wrong type: {exc}"
        ) from None
    _execute(subcommand, checked)


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
    p.add_argument("--format", choices=FORMATS, default=None)

    p = sub.add_parser("split", help="split a dataset across simulated paths")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--strategy", choices=[s.value for s in Strategy], required=True)
    # a scheduler flag left out keeps SchedulerConfig's default
    p.add_argument("--paths", type=int, default=None)
    p.add_argument("--boundary", choices=[b.value for b in BoundaryMode], default=None)
    p.add_argument("--batch-packets", type=int, default=None)
    p.add_argument("--window-ms", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None, help="Dirichlet alpha (wr)")
    p.add_argument("--handshake", type=int, default=None, help="handshake packets (context)")
    p.add_argument("--vpn-path", type=int, default=None, help="handshake path (context)")
    p.add_argument("--direct-path", type=int, default=None,
                   help="post-handshake path (context)")
    p.add_argument("--rr-offset", type=int, default=None, help="starting path (rr)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", choices=FORMATS, default=None)
    p.add_argument("--input-format", choices=FORMATS, default=None)

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
    p.add_argument("--input-format", choices=FORMATS, default=None)

    p = sub.add_parser("overhead", help="sweep throughput vs switching period")
    p.add_argument("--protocol", choices=[m.value for m in Protocol], required=True)
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
    config_class = _RUNNERS[args.subcommand][0]
    keys = {f.name for f in fields(config_class)}
    config = {k: v for k, v in vars(args).items() if k in keys}
    if "format" in keys:
        config["format"] = _infer_format(args.output, args.format)
    if "input_format" in keys:
        config["input_format"] = _infer_format(args.input, args.input_format)
    if args.subcommand == "split":
        given = dict(n_paths=args.paths, strategy=args.strategy, boundary=args.boundary,
                     batch_packets=args.batch_packets, dirichlet_alpha=args.alpha,
                     handshake_packets=args.handshake, vpn_path=args.vpn_path,
                     direct_path=args.direct_path, rr_offset=args.rr_offset, seed=args.seed,
                     window_us=None if args.window_ms is None else args.window_ms * 1000)
        scheduler = SchedulerConfig().to_dict()
        scheduler.update((k, v) for k, v in given.items() if v is not None)
        if scheduler["boundary"] == "time" and args.window_ms is None:
            raise UsageError("--boundary time requires --window-ms")
        if scheduler["boundary"] == "packets" and args.window_ms is not None:
            raise UsageError("--window-ms requires --boundary time")
        if scheduler["boundary"] == "time" and args.batch_packets is not None:
            raise UsageError("--batch-packets requires --boundary packets")
        config["scheduler"] = scheduler
    elif args.subcommand == "overhead":
        try:
            config["periods_ms"] = [int(p) for p in args.periods.split(",")]
        except ValueError:
            raise UsageError(
                f"--periods must be a comma list of integers, got {args.periods!r}"
            ) from None
    try:  # a value the config refuses is a usage error
        if args.subcommand == "evaluate":
            # the spec is echoed as given; the scheduler config is what runs
            config["scheduler"] = _parse_defense(args.defense, args.alpha, args.seed)
        checked = config_class.from_dict(config)
    except (ValueError, OverflowError) as exc:
        raise UsageError(str(exc)) from None
    _execute(args.subcommand, checked)


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
