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
from dataclasses import dataclass

import numpy as np

from .config import Config, require
from .rand import SEED_LIMIT, SEED_RULE, stream_rng
from .traces import INT64_MAX, Trace

_STREAM_SCHEDULE = 201

# The most paths a config may name. split returns one subtrace per path,
# empty or not, so its cost grows with the path count as well as with the
# packets; a connection migrating over more than a thousand paths is far
# beyond any deployment the lab models.
MAX_PATHS = 1024


class Strategy(str, enum.Enum):
    ROUND_ROBIN = "rr"
    UNIFORM_RANDOM = "ur"
    WEIGHTED_RANDOM = "wr"
    CONTEXT_DEPENDENT = "context"


class BoundaryMode(str, enum.Enum):
    PACKET_COUNT = "packets"
    TIME_WINDOW = "time"


@dataclass(frozen=True)
class SchedulerConfig(Config):
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
        super().__post_init__()
        require(self, "n_paths", self.n_paths >= 2, ">= 2")
        require(self, "n_paths", self.n_paths <= MAX_PATHS, f"at most {MAX_PATHS}")
        for name in ("batch_packets", "window_us"):
            value = getattr(self, name)
            require(self, name, value >= 1, ">= 1")
            # schedule computes with it in int64
            require(self, name, value <= INT64_MAX, "at most 2**63 - 1")
        require(self, "dirichlet_alpha", 0 < self.dirichlet_alpha < np.inf,
                "finite and > 0")  # refuses NaN too
        require(self, "handshake_packets", self.handshake_packets >= 1, ">= 1")
        if self.strategy is Strategy.CONTEXT_DEPENDENT:
            if self.vpn_path == self.direct_path:
                raise ValueError("vpn_path and direct_path must differ")
            if not (0 <= self.vpn_path < self.n_paths):
                raise ValueError(f"vpn_path {self.vpn_path} out of range")
            if not (0 <= self.direct_path < self.n_paths):
                raise ValueError(f"direct_path {self.direct_path} out of range")
        if not (0 <= self.rr_offset < self.n_paths):
            raise ValueError(f"rr_offset {self.rr_offset} out of range")
        require(self, "seed", 0 <= self.seed < SEED_LIMIT, SEED_RULE)


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
