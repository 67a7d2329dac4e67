"""Path-selection strategies: which path carries each batch of packets.

A scheduler maps a trace to a per-packet path index. Path changes happen
only at batch boundaries: every B packets in packet mode, or at window
crossings (window k covers [k*T, (k+1)*T); a packet at exactly k*T belongs
to window k) in time mode.

Strategies:

* round robin cycles 0, 1, ..., n-1 by batch; in time mode the path is the
  absolute window index mod n, so a real scheduler switching every T
  microseconds would agree packet for packet.
* uniform random draws each batch's path independently.
* weighted random draws one probability vector per connection from a
  symmetric Dirichlet and then samples every batch from it.
* context-dependent sends the first H packets (the handshake) down one
  path and everything afterwards down another: exactly one switch.

Random strategies consume draws lazily, one per populated batch or
observed window, so an assignment is a pure function of the packet
sequence, the config, and the (seed, trace index) stream.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import Any

import numpy as np

from .rand import stream_rng
from .traces import INT64_MAX, Trace

_STREAM_SCHEDULE = 201


class Strategy(str, enum.Enum):
    ROUND_ROBIN = "rr"
    UNIFORM_RANDOM = "ur"
    WEIGHTED_RANDOM = "wr"
    CONTEXT_DEPENDENT = "context"


class BoundaryMode(str, enum.Enum):
    PACKET_COUNT = "packets"
    TIME_WINDOW = "time"


@dataclass(frozen=True)
class SchedulerConfig:
    n_paths: int = 3
    strategy: Strategy = Strategy.WEIGHTED_RANDOM
    boundary: BoundaryMode = BoundaryMode.PACKET_COUNT
    batch_packets: int = 50
    window_us: int = 100_000
    dirichlet_alpha: float = 1.0
    handshake_packets: int = 4
    vpn_path: int = 0
    direct_path: int = 1
    rr_offset: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.n_paths < 2:
            raise ValueError(f"n_paths must be >= 2, got {self.n_paths}")
        if self.batch_packets < 1:
            raise ValueError(f"batch_packets must be >= 1, got {self.batch_packets}")
        if self.window_us < 1:
            raise ValueError(f"window_us must be >= 1, got {self.window_us}")
        for name in ("n_paths", "batch_packets", "window_us"):
            value = getattr(self, name)
            if value > INT64_MAX:  # schedule computes with it in int64
                raise ValueError(f"{name} must be at most 2**63 - 1, got {value}")
        if not 0 < self.dirichlet_alpha < np.inf:  # refuses NaN too
            raise ValueError(
                f"dirichlet_alpha must be finite and > 0, got {self.dirichlet_alpha}"
            )
        if self.handshake_packets < 1:
            raise ValueError(
                f"handshake_packets must be >= 1, got {self.handshake_packets}"
            )
        if self.strategy is Strategy.CONTEXT_DEPENDENT:
            if self.vpn_path == self.direct_path:
                raise ValueError("vpn_path and direct_path must differ")
            if not (0 <= self.vpn_path < self.n_paths):
                raise ValueError(f"vpn_path {self.vpn_path} out of range")
            if not (0 <= self.direct_path < self.n_paths):
                raise ValueError(f"direct_path {self.direct_path} out of range")
        if not (0 <= self.rr_offset < self.n_paths):
            raise ValueError(f"rr_offset {self.rr_offset} out of range")

    def to_dict(self) -> dict[str, Any]:
        """The fields by name, enums as their values."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: v.value if isinstance(v, enum.Enum) else v for k, v in values.items()}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SchedulerConfig":
        defaults = {f.name: f.default for f in fields(cls)}
        unknown = sorted(set(data) - set(defaults))
        if unknown:
            raise ValueError(f"unknown scheduler config field(s): {', '.join(unknown)}")
        return cls(**{
            name: type(defaults[name])(value)
            if isinstance(defaults[name], enum.Enum) else value
            for name, value in data.items()
        })


def draw_connection_weights(
    n_paths: int, alpha: float, rng: np.random.Generator
) -> np.ndarray:
    """Draw one per-connection path-probability vector, symmetric Dirichlet."""
    if n_paths < 2:
        raise ValueError(f"n_paths must be >= 2, got {n_paths}")
    if not 0 < alpha < np.inf:
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    weights = rng.dirichlet(np.full(n_paths, float(alpha)))
    return weights / weights.sum()


def schedule(trace: Trace, config: SchedulerConfig, trace_index: int = 0) -> np.ndarray:
    """Assign a path to every packet of the trace: an int64 array of path
    indices in [0, config.n_paths), one per packet.

    Deterministic in (trace, config, trace_index): random strategies use
    the stream named by (config.seed, trace_index) so traces of a dataset
    are independent and the whole dataset is reproducible.
    """
    if not len(trace):
        raise ValueError("cannot schedule an empty trace")
    if config.strategy is Strategy.CONTEXT_DEPENDENT:
        # the handshake rides the tunneled path, the rest the direct one;
        # a trace no longer than the handshake never switches
        paths = np.full(len(trace), config.direct_path, dtype=np.int64)
        paths[:config.handshake_packets] = config.vpn_path
        return paths

    n = len(trace)
    rng = stream_rng(config.seed, _STREAM_SCHEDULE, trace_index)
    if config.strategy is Strategy.WEIGHTED_RANDOM:
        weights = draw_connection_weights(config.n_paths, config.dirichlet_alpha, rng)

    if config.boundary is BoundaryMode.PACKET_COUNT:
        inverse = np.arange(n) // config.batch_packets
        block_ids = np.arange(int(inverse[-1]) + 1)
    else:
        block_ids, inverse = np.unique(
            trace.times_us // config.window_us, return_inverse=True
        )

    if config.strategy is Strategy.ROUND_ROBIN:
        per_block = (config.rr_offset + block_ids) % config.n_paths
    elif config.strategy is Strategy.UNIFORM_RANDOM:
        per_block = rng.integers(0, config.n_paths, size=len(block_ids))
    else:
        per_block = rng.choice(config.n_paths, size=len(block_ids), p=weights)
    return per_block[inverse]
