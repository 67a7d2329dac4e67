"""Open-world website-fingerprinting evaluation.

The attack pipeline: hand-crafted features per trace, a stratified 9:1
train/test split, a k-nearest-neighbor classifier with a distance
threshold as the open-world gate, and the open-world metrics.

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
from typing import Callable, Iterable, Sequence

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
    """Fixed-order feature vector; the all-zero vector for empty traces."""
    vec = np.zeros(FEATURE_DIM)
    n = len(trace)
    if n == 0:
        return vec
    times = trace.times_us
    signed = trace.signed_size
    sizes = np.abs(signed.astype(np.float64))  # no int64 wrap of |-2**63| or sums
    signs = np.sign(signed)
    rel = times - times[0]
    out_mask = signed > 0

    vec[0] = n
    vec[1] = int(out_mask.sum())
    vec[2] = n - vec[1]
    vec[3] = sizes.sum()
    vec[4] = sizes[out_mask].sum()
    vec[5] = vec[3] - vec[4]
    vec[6] = int(rel[-1])
    vec[7] = rel[-1] / (n - 1) if n > 1 else 0.0
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
# never m x m.
_BLOCK_ROWS = 256

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
    monitored_labels = {t.label for t in train.traces if t.monitored}
    unmonitored = sum(1 for t in train.traces if not t.monitored)
    if len(monitored_labels) < 2:
        raise ValueError(
            f"degenerate training set: {len(monitored_labels)} monitored class(es)"
        )
    if unmonitored == 0:
        raise ValueError("degenerate training set: no unmonitored traces")

    features = np.stack([extract_features(t) for t in train.traces])
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    std[std == 0.0] = 1.0
    standardized = (features - mean) / std

    mon_idx = [i for i, t in enumerate(train.traces) if t.monitored]
    exemplars = standardized[mon_idx]
    labels = tuple(train.traces[i].label for i in mon_idx)
    m = len(exemplars)
    if m <= k:
        raise ValueError(f"need more than k={k} monitored exemplars, have {m}")

    # each exemplar is its own nearest, at sqrt(0.0) = 0.0, the least
    # distance there is: the (k+1)-th over all is the k-th over the others
    _, dists = _nearest(exemplars, (exemplars**2).sum(axis=1), exemplars, k + 1)
    tau = float(np.quantile(dists[:, k], threshold_quantile))
    return Classifier(mean, std, exemplars, labels, k, tau)


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
    for lo in range(0, len(queries), _BLOCK_ROWS):
        block = queries[lo : lo + _BLOCK_ROWS]
        screen = (-2.0 * block) @ exemplars.T
        screen += sq_norms
        margin = _SCREEN_MARGIN * ((block**2).sum(axis=1) + sq_norms.max())
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


def evaluate_defense(
    dataset: Dataset,
    scheduler_config: SchedulerConfig | None = None,
    *,
    seed: int = 0,
    k: int = 3,
    threshold_quantile: float = 0.95,
    r: float = 20.0,
    transform: Callable[[Trace], Trace] | None = None,
) -> EvalReport:
    """Run the full attack against an optionally defended dataset.

    Parent traces are 9:1-split first so all subtraces of one fetch stay
    on the same side (no leakage across train/test); each side is then
    split per the scheduler config (empty subtraces dropped), the
    classifier trains on the train subtraces, and test subtraces are
    scored individually. Fully
    deterministic under (dataset, config, seed).

    `transform` composes another defense with splitting: it is applied to
    every parent trace (train and test alike, the adaptive-adversary
    setting) before the splitter runs.
    """
    train_idx, test_idx = split_indices(dataset, seed)

    def expand(indices: Sequence[int]) -> list[Trace]:
        rows: list[Trace] = []
        for i in indices:
            trace = dataset.traces[i]
            if transform is not None:
                trace = transform(trace)
            if scheduler_config is None:
                rows.append(trace)
                continue
            paths = schedule(trace, scheduler_config, trace_index=i)
            rows.extend(sub for sub in split(trace, paths, scheduler_config.n_paths)
                        if len(sub))
        return rows

    train_rows = expand(train_idx)
    test_rows = expand(test_idx)
    model = train_classifier(
        Dataset.from_traces(train_rows), k=k, threshold_quantile=threshold_quantile
    )
    results = [(t.label, t.monitored, classify(model, t)) for t in test_rows]
    return compute_metrics(tally_predictions(results), r=r)
