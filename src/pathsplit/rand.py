"""Seed-stream derivation shared by every randomized component.

A stream is identified by a user-facing seed plus a tuple of small integers
naming the consumer (module tag, trace index, repetition, ...). Identical
identifiers always produce identical generators, and distinct identifiers
produce independent streams, so datasets and experiments are reproducible
trace by trace.

A seed is an integer in [0, SEED_LIMIT), SEED_RULE in a config's checks.
stream_rng refuses any other seed rather than fold it onto one in range;
numpy refuses a negative stream id and a float seed or id.
"""

from __future__ import annotations

import numpy as np

SEED_LIMIT = 2**63
SEED_RULE = f"an integer in [0, {SEED_LIMIT})"


def stream_rng(seed: int, *stream: int) -> np.random.Generator:
    """Return a Generator for the stream named by (seed, *stream)."""
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must be in [0, {SEED_LIMIT}), got {seed}")
    return np.random.default_rng(np.random.SeedSequence((seed, *stream)))
