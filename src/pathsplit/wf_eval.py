"""Open-world website-fingerprinting evaluation.

The attack pipeline: hand-crafted features per trace, a stratified 9:1
train/test split, a k-nearest-neighbor classifier with a distance
threshold as the open-world gate, and the open-world metrics. Training
computes the features of all its rows as one matrix, from segmented
reductions over the rows' columns; classify computes one row's with
extract_features, the one-row reference the matrix equals.

Outcome bookkeeping distinguishes a true positive (monitored trace given
its own label), a wrong positive (monitored trace given another monitored
label), and a false positive (unmonitored trace given any monitored
label). Recall equals the true positive rate. Precision is base-rate
weighted:

    r_precision = TPR / (TPR + WPR + r * FPR)

with r the expected ratio of unmonitored to monitored visits (default
20), and F1 is the harmonic mean of r_precision and recall.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .rand import stream_rng
from .scheduler import SchedulerConfig, schedule
from .splitter import split
from .traces import Dataset, Trace, UNMONITORED_LABEL

_STREAM_SPLIT = 301

# Feature layout: 9 scalar statistics, then the direction signs of the
# first 30 packets (zero-padded), then a 10-bin packet-size histogram
# normalized to sum 1. Timestamps are rebased to the trace's first packet
# before duration/inter-arrival statistics, so the vector is invariant to
# clock shifts.
_SCALARS = 9
_FIRST_SIGNS = 30
_HIST_BINS = 10
_HIST_BIN_WIDTH = 150  # bytes
FEATURE_DIM = _SCALARS + _FIRST_SIGNS + _HIST_BINS


def extract_features(trace: Trace) -> np.ndarray:
    """Fixed-order feature vector; the all-zero vector for empty traces.

    The one-row reference: classify calls it per query row, and each row
    of training's _feature_matrix equals it bit for bit while the trace's
    byte total stays below 2**53.
    """
    vec = np.zeros(FEATURE_DIM)
    n = len(trace)
    if n == 0:
        return vec
    signed = trace.signed_size
    sizes = np.abs(signed.astype(np.float64))  # no int64 wrap of |-2**63| or sums
    signs = np.sign(signed)
    span = trace.times_us[-1] - trace.times_us[0]  # times never decrease
    out_mask = signed > 0

    vec[0] = n
    vec[1] = int(out_mask.sum())
    vec[2] = n - vec[1]
    vec[3] = sizes.sum()
    vec[4] = sizes[out_mask].sum()
    vec[5] = vec[3] - vec[4]
    vec[6] = span
    vec[7] = span / (n - 1) if n > 1 else 0.0
    vec[8] = vec[1] / n

    head = signs[:_FIRST_SIGNS]
    vec[_SCALARS : _SCALARS + len(head)] = head

    # bins of width 150 B over [0, 1500]; 1500 B and larger fall in the last
    hist = np.bincount(
        np.minimum(sizes // _HIST_BIN_WIDTH, _HIST_BINS - 1).astype(np.int64),
        minlength=_HIST_BINS,
    )
    vec[_SCALARS + _FIRST_SIGNS :] = hist / n
    return vec


# Packets per chunk of _feature_matrix: a chunk holds at most three of its
# packet columns at once, 0.2 MB at 8,192. Peak RSS of a fresh evaluate
# on the benchmark's many-traces corpus (csv, wr:5:20ms; 113,412 training
# packets in 2,144 rows; median of 5 on 2 vCPU, one BLAS thread) was
# 44.9 MB with per-row extract_features, 45.5 MB in one unchunked pass,
# 45.3 MB in chunks of 16,384 and 44.8 MB in chunks of 8,192. In process,
# the matrix took a median 5.1 ms in chunks of 8,192 (4.8 ms of 16,384,
# 5.8 ms of 4,096) against 30.0 ms for the 2,144 extract_features calls.
_CHUNK_PACKETS = 8_192


def _feature_matrix(traces: Sequence[Trace]) -> np.ndarray:
    """extract_features of each trace, one row per trace, in one pass.

    The traces' columns are concatenated in chunks of whole traces, at
    most _CHUNK_PACKETS packets unless one trace alone is longer, and
    each chunk's rows come from segmented reductions: np.add.reduceat for
    the counts and byte sums, the first and last timestamps for the
    duration, one gather for the first signs and one bincount over
    row * bins + bin for the histograms. A row equals extract_features
    bit for bit while its trace's byte total is below 2**53; from there
    float64 sums round, and reduceat adds in order where np.sum adds
    pairwise, so the two can part in the byte features' last bits.
    """
    features = np.zeros((len(traces), FEATURE_DIM))
    lengths = np.fromiter(map(len, traces), np.int64, len(traces))
    rows = np.flatnonzero(lengths)  # an empty trace keeps its zero row
    ends = np.concatenate(([0], np.cumsum(lengths[rows])))
    lo = 0
    while lo < len(rows):
        # the rows that fit in _CHUNK_PACKETS, or the one row that does not
        hi = int(np.searchsorted(ends, ends[lo] + _CHUNK_PACKETS, "right")) - 1
        hi = max(hi, lo + 1)
        chunk = rows[lo:hi]
        n = lengths[chunk]
        first = ends[lo:hi] - ends[lo]
        last = first + n - 1
        times = np.concatenate([traces[i].times_us for i in chunk])
        duration = times[last] - times[first]
        del times  # each chunk holds at most three packet columns at once
        signed = np.concatenate([traces[i].signed_size for i in chunk])
        head = np.arange(_FIRST_SIGNS)
        signs = np.sign(signed[np.minimum(first[:, None] + head, last[:, None])])
        features[chunk, _SCALARS : _SCALARS + _FIRST_SIGNS] = np.where(
            head < n[:, None], signs, 0
        )
        out_mask = signed > 0
        sizes = signed.astype(np.float64)
        np.abs(sizes, out=sizes)  # as extract_features: no int64 wrap
        del signed
        n_out = np.add.reduceat(out_mask, first, dtype=np.int64)
        total = np.add.reduceat(sizes, first)
        out_bytes = np.add.reduceat(np.where(out_mask, sizes, 0.0), first)
        features[chunk, :_SCALARS] = np.column_stack((
            n, n_out, n - n_out, total, out_bytes, total - out_bytes,
            duration, duration / np.maximum(n - 1, 1), n_out / n,
        ))  # a 1-packet trace's duration is 0, so its mean gap is 0.0

        # the sizes column becomes row * _HIST_BINS + bin in place
        sizes //= _HIST_BIN_WIDTH
        np.minimum(sizes, _HIST_BINS - 1, out=sizes)
        sizes += np.repeat(np.arange(len(chunk)) * _HIST_BINS, n)
        hist = np.bincount(sizes.astype(np.int64), minlength=len(chunk) * _HIST_BINS)
        features[chunk, _SCALARS + _FIRST_SIGNS :] = hist.reshape(-1, _HIST_BINS) / n[:, None]
        lo = hi
    return features


# ---------------------------------------------------------------------------
# Train/test split


def split_indices(dataset: Dataset, seed: int) -> tuple[list[int], list[int]]:
    """Stratified 9:1 indices; test takes ceil(n/10) of each label, min 1."""
    by_label: dict[str, list[int]] = defaultdict(list)
    for i, trace in enumerate(dataset.traces):
        by_label[trace.label].append(i)
    rng = stream_rng(seed, _STREAM_SPLIT)
    test: set[int] = set()
    for label in sorted(by_label):
        idxs = by_label[label]
        n = len(idxs)
        if label != UNMONITORED_LABEL and n < 2:
            raise ValueError(
                f"class {label!r} has only {n} trace(s); need at least 2 "
                "for a 9:1 split"
            )
        n_test = max(1, -(-n // 10))
        perm = rng.permutation(n)
        test.update(idxs[j] for j in perm[:n_test])
    train_idx = [i for i in range(len(dataset.traces)) if i not in test]
    test_idx = sorted(test)
    return train_idx, test_idx


# ---------------------------------------------------------------------------
# Baseline classifier: k-NN over standardized features with an open-world
# distance gate. Stands in for the neural-network attacks, which are out
# of desk-scale reach; defaults stay fixed across all experimental
# conditions.
#
# One search, _nearest, finds the k nearest exemplars exactly for the
# gate's training and for classify alike, so tau is a quantile of the very
# distance classify gates on. A matmul screen, ||q||^2 + ||e||^2 - 2 q.e,
# ranks all exemplars (||q||^2 is the same for every exemplar of a query
# row, so it is left out); every exemplar within _SCREEN_MARGIN of a bound
# no less than the row's k-th screened value is a candidate, and only
# candidates are measured with _distances. For d = 49 features the screen
# is off from the exact squared distance by less than about
# 3 * d * 2**-53 * (||q||^2 + ||e||^2), i.e. 1.6e-14 * (...), and so is
# the squared sum inside _distances; the gap that keeps sqrt from rounding
# a screened-out distance onto the k-th one is at most 2**-50 * (...).
# A margin of 1e-12 * (||q||^2 + max ||e||^2) covers all of them more than
# tenfold, so every exemplar left out is strictly farther than each of the
# k the screen ranks first: the k nearest, ties at the k-th place
# included, are always candidates.
_SCREEN_MARGIN = 1e-12

# Query rows screened per block, so memory is O(_BLOCK_ROWS * m) floats,
# never m x m: the one screen buffer is 64 x m float64, 1.0 MB at
# m = 1,979 and 10 MB at m = 19,725. Against 256 rows, four times the
# buffer, training's self-screen takes about 6% longer at m = 1,979
# (median 28.8 against 27.1 ms) and the same within run-to-run noise at
# m = 19,725 (medians 1.59-1.78 against 1.65-1.75 s); one BLAS thread.
_BLOCK_ROWS = 64

# Groups of exemplars when bounding a row's k-th screened value. Any k
# entries of a row bound its k-th smallest from above, so the k-th
# smallest of k or more per-group minima does; the screen stays exact. A
# group takes every g-th column (j, j + g, j + 2g, ...), so its minima
# are elementwise minima of contiguous column blocks, and exemplars near
# in index (the same class, so often all k nearest) land in different
# groups, which keeps the bound close to the k-th value itself.
_SCREEN_GROUPS = 256


def _distances(rows: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Euclidean distance from each row to query (a vector, or one per row)."""
    return np.sqrt(((rows - query) ** 2).sum(axis=1))


@dataclass
class Classifier:
    mean: np.ndarray
    std: np.ndarray
    exemplars: np.ndarray  # standardized monitored training vectors
    labels: tuple[str, ...]
    k: int
    tau: float  # open-world distance threshold
    # squared exemplar norms for the screen, derived when built
    sq_norms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.sq_norms = (self.exemplars**2).sum(axis=1)


def train_classifier(
    train: Dataset, k: int = 3, threshold_quantile: float = 0.95
) -> Classifier:
    """Fit the feature standardization, exemplar store, and rejection gate.

    tau is the given quantile of each monitored exemplar's distance to its
    k-th nearest neighbor among the other monitored exemplars, measured
    as classify measures a query's.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not (0.0 < threshold_quantile <= 1.0):
        raise ValueError(f"threshold_quantile must be in (0, 1], got {threshold_quantile}")
    mon_idx = [i for i, t in enumerate(train.traces) if t.monitored]
    labels = tuple(train.traces[i].label for i in mon_idx)
    if len(set(labels)) < 2:
        raise ValueError(
            f"degenerate training set: {len(set(labels))} monitored class(es)"
        )
    if len(mon_idx) == len(train.traces):
        raise ValueError("degenerate training set: no unmonitored traces")

    features = _feature_matrix(train.traces)
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    std[std == 0.0] = 1.0

    # only the exemplars are standardized, in place, and the feature matrix
    # is freed before the search makes its screen buffer
    exemplars = features[mon_idx]
    del features
    exemplars -= mean
    exemplars /= std
    m = len(exemplars)
    if m <= k:
        raise ValueError(f"need more than k={k} monitored exemplars, have {m}")

    # the screen takes the model's squared norms, and tau is set once it
    # has run; each exemplar is its own nearest, at sqrt(0.0) = 0.0, the
    # least distance there is: the (k+1)-th over all is the k-th over the
    # others
    model = Classifier(mean, std, exemplars, labels, k, tau=np.inf)
    _, dists = _nearest(exemplars, model.sq_norms, exemplars, k + 1)
    model.tau = _quantile(dists[:, k], threshold_quantile)
    return model


def _quantile(values: np.ndarray, q: float) -> float:
    """float(np.quantile(values, q)), bit for bit, for q in [0, 1].

    numpy's linear rule (Hyndman & Fan type 7) on a sorted copy: the
    virtual index (n - 1) * q falls between the sorted values x and y,
    g past x, and with d = y - x the value is x + d * g for g < 0.5,
    else y - d * (1 - g). At or past the last index both are the last
    value. np.quantile itself calls np.unique, which imports numpy.ma,
    about 15 ms and 1.25 MB of a fresh evaluate process.
    """
    ordered = np.sort(values)
    n = len(ordered)
    virtual = (n - 1) * q
    lo = hi = -1
    if virtual < n - 1:
        lo = int(virtual)  # floor, as virtual >= 0
        hi = lo + 1
    g = virtual - lo
    x, y = float(ordered[lo]), float(ordered[hi])
    d = y - x
    return x + d * g if g < 0.5 else y - d * (1 - g)


def _nearest(
    exemplars: np.ndarray, sq_norms: np.ndarray, queries: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Indices and distances, (len(queries), k) each, of every query row's
    k nearest exemplars, nearest first; of equally distant exemplars the
    lower index is nearer. sq_norms holds the exemplars' squared norms."""
    m = len(exemplars)
    groups = min(m, max(k, _SCREEN_GROUPS))
    whole = m - m % groups  # the columns that fill every group equally
    indices = np.empty((len(queries), k), dtype=np.intp)
    distances = np.empty((len(queries), k))
    # one screen buffer for every block: a screen freed per block raises
    # glibc's mmap threshold, and later screens then stay resident
    buffer = np.empty((min(len(queries), _BLOCK_ROWS), m))
    sq_max = sq_norms.max()
    for lo in range(0, len(queries), _BLOCK_ROWS):
        block = queries[lo : lo + _BLOCK_ROWS]
        screen = np.matmul(-2.0 * block, exemplars.T, out=buffer[: len(block)])
        screen += sq_norms
        margin = _SCREEN_MARGIN * ((block**2).sum(axis=1) + sq_max)
        minima = screen[:, :whole].reshape(len(block), -1, groups).min(axis=1)
        tail = minima[:, : m - whole]
        np.minimum(tail, screen[:, whole:], out=tail)
        bound = np.partition(minima, k - 1, axis=1)[:, k - 1] + margin
        rows, cols = np.divmod(np.flatnonzero(screen <= bound[:, None]), m)
        # chunks keep the differences no larger than the screen
        step = screen.size // exemplars.shape[1] + 1
        chunks = [slice(s, s + step) for s in range(0, len(rows), step)]
        dists = np.concatenate(
            [_distances(exemplars[cols[c]], block[rows[c]]) for c in chunks]
        )
        # each row's candidates by distance; cols ascend within a row and
        # lexsort is stable, so ties keep the lower index first
        order = np.lexsort((dists, rows))
        counts = np.bincount(rows, minlength=len(block))
        take = order[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
        indices[lo : lo + len(block)] = cols[take]
        distances[lo : lo + len(block)] = dists[take]
    return indices, distances


def classify(model: Classifier, trace: Trace) -> str:
    """Label a trace with a monitored class or the unmonitored label.

    A trace whose k-th nearest exemplar is farther than tau is rejected as
    unmonitored; otherwise the plurality label among the k nearest wins,
    ties broken by summed distance then lexical label order. Among equally
    distant exemplars the lower index is nearer. Empty traces are
    unmonitored by definition.
    """
    if not len(trace):
        return UNMONITORED_LABEL
    query = (extract_features(trace) - model.mean) / model.std
    k = min(model.k, len(model.exemplars))
    (near,), (dists,) = _nearest(model.exemplars, model.sq_norms, query[None], k)
    if dists[k - 1] > model.tau:
        return UNMONITORED_LABEL
    tally: dict[str, list[float]] = {}
    for j, dist in zip(near, dists):
        entry = tally.setdefault(model.labels[j], [0, 0.0])
        entry[0] += 1
        entry[1] += float(dist)
    return min(tally.items(), key=lambda kv: (-kv[1][0], kv[1][1], kv[0]))[0]


# ---------------------------------------------------------------------------
# Metrics


@dataclass(frozen=True)
class ConfusionCounts:
    true_positives: int
    wrong_positives: int
    false_positives: int
    false_negatives_monitored: int
    true_negatives: int
    monitored_total: int
    unmonitored_total: int

    def __post_init__(self):
        fields = (
            self.true_positives,
            self.wrong_positives,
            self.false_positives,
            self.false_negatives_monitored,
            self.true_negatives,
        )
        if any(v < 0 for v in fields):
            raise ValueError("confusion counts must be non-negative")
        if self.monitored_total <= 0 or self.unmonitored_total <= 0:
            raise ValueError("totals must be positive")
        mon = self.true_positives + self.wrong_positives + self.false_negatives_monitored
        if mon != self.monitored_total:
            raise ValueError(
                f"TP + WP + FN = {mon} does not match monitored_total "
                f"{self.monitored_total}"
            )
        unmon = self.false_positives + self.true_negatives
        if unmon != self.unmonitored_total:
            raise ValueError(
                f"FP + TN = {unmon} does not match unmonitored_total "
                f"{self.unmonitored_total}"
            )


@dataclass(frozen=True)
class EvalReport:
    tpr: float
    wpr: float
    fpr: float
    r: float
    r_precision: float
    recall: float
    f1: float

    def to_json_dict(self) -> dict[str, float]:
        return asdict(self)


def f1_score(r_precision: float, recall: float) -> float:
    """Harmonic mean of base-rate-weighted precision and recall; 0 when
    both are 0."""
    if r_precision + recall <= 0:
        return 0.0
    return 2.0 * r_precision * recall / (r_precision + recall)


def compute_metrics(counts: ConfusionCounts, r: float = 20.0) -> EvalReport:
    """Open-world rates and the base-rate-weighted precision/F1."""
    if not 0 < r < np.inf:
        raise ValueError(f"r must be finite and positive, got {r}")
    tpr = counts.true_positives / counts.monitored_total
    wpr = counts.wrong_positives / counts.monitored_total
    fpr = counts.false_positives / counts.unmonitored_total
    denom = tpr + wpr + r * fpr
    r_precision = tpr / denom if denom > 0 else 0.0
    recall = tpr
    return EvalReport(
        tpr, wpr, fpr, float(r), r_precision, recall, f1_score(r_precision, recall)
    )


def tally_predictions(
    results: Iterable[tuple[str, bool, str]],
) -> ConfusionCounts:
    """Fold (true label, monitored, predicted label) rows into counts."""
    tp = wp = fp = fn = tn = 0
    for label, monitored, predicted in results:
        if monitored:
            if predicted == label:
                tp += 1
            elif predicted == UNMONITORED_LABEL:
                fn += 1
            else:
                wp += 1
        else:
            if predicted == UNMONITORED_LABEL:
                tn += 1
            else:
                fp += 1
    return ConfusionCounts(tp, wp, fp, fn, tn, tp + wp + fn, fp + tn)


# ---------------------------------------------------------------------------
# End-to-end pipeline


def _defended_rows(
    dataset: Dataset, scheduler_config: SchedulerConfig | None, seed: int
) -> tuple[list[Trace], list[Trace]]:
    """evaluate_defense's (train, test) rows: each parent in index order on
    its split_indices side, itself if undefended, else its non-empty subtraces."""
    test = set(split_indices(dataset, seed)[1])
    sides: tuple[list[Trace], list[Trace]] = ([], [])
    for i, trace in enumerate(dataset.traces):
        rows = sides[i in test]
        if scheduler_config is None:
            rows.append(trace)
        else:
            paths = schedule(trace, scheduler_config, trace_index=i)
            rows.extend(s for s in split(trace, paths, scheduler_config.n_paths) if len(s))
    return sides


def evaluate_defense(
    dataset: Dataset,
    scheduler_config: SchedulerConfig | None = None,
    *,
    seed: int = 0,
    k: int = 3,
    threshold_quantile: float = 0.95,
    r: float = 20.0,
) -> EvalReport:
    """Run the full attack against an optionally defended dataset.

    Parent traces are 9:1-split first so all subtraces of one fetch stay
    on the same side (no leakage across train/test); each parent is split
    once, in index order, onto its side (empty subtraces dropped), the
    classifier trains on the train rows, and test rows are scored one by
    one. Fully deterministic under (dataset, config, seed).
    """
    train_rows, test_rows = _defended_rows(dataset, scheduler_config, seed)
    model = train_classifier(
        Dataset.from_traces(train_rows), k=k, threshold_quantile=threshold_quantile
    )
    results = [(t.label, t.monitored, classify(model, t)) for t in test_rows]
    return compute_metrics(tally_predictions(results), r=r)
