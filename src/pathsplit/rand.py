"""Seed-stream derivation shared by every randomized component.

A stream is identified by a user-facing seed plus a tuple of small integers
naming the consumer (module tag, trace index, repetition, ...). Identical
identifiers always produce identical generators, so datasets and
experiments are reproducible trace by trace. Distinct identifiers are not
always independent streams. numpy's SeedSequence reads the missing words
of its 4-word pool as 0, so identifiers that differ only by trailing zero
ids can name one stream: (5, 401), (5, 401, 0) and (5, 401, 0, 0) do. It
also joins each integer's 32-bit words with no separator, so a seed at or
above 2**32 can name a smaller seed's stream with one more id.

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
