import dataclasses
import gc
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pathsplit import wf_eval
from pathsplit.scheduler import BoundaryMode, SchedulerConfig, Strategy, schedule
from pathsplit.splitter import split
from pathsplit.traces import Dataset, Trace, UNMONITORED_LABEL, generate_synthetic
from pathsplit.wf_eval import (
    Classifier,
    ConfusionCounts,
    FEATURE_DIM,
    classify,
    compute_metrics,
    evaluate_defense,
    extract_features,
    f1_score,
    split_indices,
    tally_predictions,
    train_classifier,
)


def mk_trace(pairs, label="class-000", monitored=True):
    return Trace([ts for ts, _ in pairs], [s for _, s in pairs], label, monitored)


def flat_trace(n, size=100, gap=1000, label="class-000", monitored=True):
    return mk_trace([(i * gap, size) for i in range(n)], label, monitored)


# --- features


def test_empty_trace_yields_zero_vector():
    vec = extract_features(Trace([], [], "class-000", True))
    assert vec.shape == (FEATURE_DIM,)
    assert not vec.any()


def test_feature_arithmetic_on_two_packet_trace():
    vec = extract_features(mk_trace([(0, 100), (1000, 100)]))
    assert vec[0] == 2          # packets
    assert vec[1] == 2          # outgoing
    assert vec[2] == 0          # incoming
    assert vec[3] == 200        # bytes
    assert vec[4] == 200        # outgoing bytes
    assert vec[5] == 0
    assert vec[6] == 1000       # duration
    assert vec[7] == 1000       # mean inter-arrival
    assert vec[8] == 1.0        # outgoing fraction
    assert vec[9] == 1 and vec[10] == 1 and vec[11] == 0  # signs, zero-padded
    assert vec[-10:].sum() == pytest.approx(1.0)


def test_features_invariant_to_clock_shift():
    base = mk_trace([(0, 100), (700, -300), (1500, 100)])
    shifted = mk_trace([(5_000_000, 100), (5_000_700, -300), (5_001_500, 100)])
    assert np.array_equal(extract_features(base), extract_features(shifted))


def test_histogram_normalized():
    vec = extract_features(mk_trace([(0, 100), (1, -1400), (2, -1400), (3, 700)]))
    hist = vec[-10:]
    assert hist.sum() == pytest.approx(1.0)
    assert hist[0] == pytest.approx(0.25)   # 100 in [0,150)
    assert hist[9] == pytest.approx(0.5)    # 1400s in the top bin


# --- train/test split


def test_split_is_9_to_1_per_class():
    traces = [flat_trace(10 + i, label="class-000") for i in range(50)]
    traces += [flat_trace(20 + i, label="class-001") for i in range(50)]
    traces += [flat_trace(5 + i, label=UNMONITORED_LABEL, monitored=False)
               for i in range(20)]
    train, test = split_indices(Dataset.from_traces(traces), seed=0)
    count = lambda idx, lab: sum(1 for i in idx if traces[i].label == lab)
    assert count(train, "class-000") == 45 and count(test, "class-000") == 5
    assert count(train, "class-001") == 45 and count(test, "class-001") == 5
    assert count(train, UNMONITORED_LABEL) == 18 and count(test, UNMONITORED_LABEL) == 2


def test_split_rounding_convention_on_large_unmonitored_pool():
    # 16,182 unmonitored -> 14,563 train + 1,619 test (test = ceil(n/10))
    traces = [flat_trace(3, label=UNMONITORED_LABEL, monitored=False)
              for _ in range(16_182)]
    train, test = split_indices(Dataset.from_traces(traces), seed=1)
    assert len(train) == 14_563
    assert len(test) == 1_619


def test_split_deterministic_and_disjoint():
    ds = generate_synthetic(4, 5, 12, seed=3)
    a_train, a_test = split_indices(ds, seed=5)
    assert split_indices(ds, seed=5) == (a_train, a_test)
    assert sorted(a_train + a_test) == list(range(len(ds)))


def test_split_rejects_single_trace_class():
    traces = [flat_trace(10, label="class-000"),
              flat_trace(12, label="class-001"),
              flat_trace(14, label="class-001")]
    with pytest.raises(ValueError, match="class-000"):
        split_indices(Dataset.from_traces(traces), seed=0)


# --- classifier


def separable_dataset():
    """Two classes far apart in count/size, background far from both."""
    traces = []
    for i in range(10):
        traces.append(flat_trace(20 + i % 3, size=100, label="class-000"))
        traces.append(flat_trace(500 + i % 3, size=1400, label="class-001"))
        traces.append(flat_trace(2000 + 50 * i, size=700,
                                 label=UNMONITORED_LABEL, monitored=False))
    return Dataset.from_traces(traces)


def test_perfectly_separable_classes_reach_full_recall():
    report = evaluate_defense(separable_dataset(), None, seed=2)
    assert report.recall == 1.0
    assert report.fpr == 0.0


def test_exact_exemplar_match_with_k1():
    traces = [flat_trace(10, label="class-000"),
              flat_trace(300, size=1200, label="class-001"),
              flat_trace(1500, size=600, label=UNMONITORED_LABEL, monitored=False)]
    model = train_classifier(Dataset.from_traces(traces), k=1)
    assert classify(model, flat_trace(10)) == "class-000"
    assert classify(model, flat_trace(300, size=1200)) == "class-001"


def test_identical_features_give_chance_recall():
    # every monitored trace identical: prediction collapses to one label,
    # so recall is 1/classes on a balanced test set
    classes = 5
    traces = [flat_trace(40, label=f"class-{c:03d}")
              for c in range(classes) for _ in range(10)]
    traces += [flat_trace(900, size=1200, label=UNMONITORED_LABEL, monitored=False)
               for _ in range(10)]
    report = evaluate_defense(Dataset.from_traces(traces), None, seed=4)
    assert report.recall == pytest.approx(1 / classes, abs=1e-9)


def test_far_query_rejected_as_unmonitored():
    model = train_classifier(separable_dataset())
    probe = flat_trace(100_000, size=1500, gap=50)
    assert classify(model, probe) == UNMONITORED_LABEL


def test_empty_trace_classified_unmonitored():
    model = train_classifier(separable_dataset())
    assert classify(model, Trace([], [], "class-000", True)) == UNMONITORED_LABEL


def test_plurality_vote_two_against_one():
    traces = [flat_trace(100, label="class-a"),
              flat_trace(104, label="class-a"),
              flat_trace(102, label="class-b"),
              flat_trace(400, size=900, label="class-b"),
              flat_trace(2000, size=1400, label=UNMONITORED_LABEL, monitored=False)]
    model = train_classifier(Dataset.from_traces(traces), k=3)
    assert classify(model, flat_trace(101)) == "class-a"


def test_vote_tie_broken_by_summed_distance():
    traces = [flat_trace(100, label="class-a"),
              flat_trace(110, label="class-b"),
              flat_trace(600, size=900, label="class-a"),
              flat_trace(640, size=900, label="class-b"),
              flat_trace(3000, size=1400, label=UNMONITORED_LABEL, monitored=False)]
    model = train_classifier(Dataset.from_traces(traces), k=2)
    assert classify(model, flat_trace(101)) == "class-a"
    assert classify(model, flat_trace(109)) == "class-b"


def test_degenerate_training_sets_rejected():
    single_class = [flat_trace(10 + i, label="class-000") for i in range(4)]
    single_class += [flat_trace(100, label=UNMONITORED_LABEL, monitored=False)]
    with pytest.raises(ValueError, match="monitored class"):
        train_classifier(Dataset.from_traces(single_class))
    no_unmon = [flat_trace(10 + i, label=f"class-{i % 2:03d}") for i in range(6)]
    with pytest.raises(ValueError, match="unmonitored"):
        train_classifier(Dataset.from_traces(no_unmon))


# --- the screened k-NN is exact: the dense rule it replaced is the oracle


def full_scan_label(model, trace):
    """classify's rule measured the dense way: every exemplar's distance,
    a stable sort of all m, then the tally."""
    if not len(trace):
        return UNMONITORED_LABEL
    query = (extract_features(trace) - model.mean) / model.std
    dists = np.sqrt(((model.exemplars - query) ** 2).sum(axis=1))
    order = np.argsort(dists, kind="stable")
    k = min(model.k, len(order))
    if dists[order[k - 1]] > model.tau:
        return UNMONITORED_LABEL
    tally = {}
    for j in order[:k]:
        entry = tally.setdefault(model.labels[j], [0, 0.0])
        entry[0] += 1
        entry[1] += float(dists[j])
    return min(tally.items(), key=lambda kv: (-kv[1][0], kv[1][1], kv[0]))[0]


def dense_kth(exemplars, k):
    """Each exemplar's distance to its k-th nearest other one, every pair
    measured with classify's formula."""
    dists = np.stack([np.sqrt(((exemplars - e) ** 2).sum(axis=1)) for e in exemplars])
    np.fill_diagonal(dists, np.inf)
    return np.partition(dists, k - 1, axis=1)[:, k - 1]


def expanded_tau(exemplars, k, threshold_quantile=0.95):
    """tau as training took it from one m x m array of expanded squared
    distances, before the screened k-NN."""
    sq = (exemplars**2).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (exemplars @ exemplars.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, np.inf)
    kth = np.sqrt(np.partition(d2, k - 1, axis=1)[:, k - 1])
    return float(np.quantile(kth, threshold_quantile))


def make_exemplars(k, extra, distinct, jitter, offset, seed):
    """k + extra exemplars drawn from `distinct` integer rows, so rows
    repeat exactly; half of them moved by `jitter` (near-duplicates); all
    shifted by `offset` (about 1e6, the screen loses most digits)."""
    rng = np.random.default_rng(seed)
    m = k + extra
    base = rng.integers(-2, 3, size=(distinct, FEATURE_DIM)).astype(float)
    exemplars = base[rng.integers(0, distinct, size=m)]
    moved = rng.random(m) < 0.5
    exemplars[moved] += jitter * rng.standard_normal((int(moved.sum()), FEATURE_DIM))
    return exemplars + offset, rng


KNN_CASES = dict(
    k=st.integers(1, 24),
    extra=st.integers(1, 60),
    distinct=st.integers(1, 8),
    jitter=st.sampled_from([0.0, 1e-9, 1e-6, 1e-3]),
    offset=st.sampled_from([0.0, 1e6]),
    seed=st.integers(0, 2**32 - 1),
)


@given(**KNN_CASES, block_rows=st.sampled_from([1, 7, 256]))
@example(k=1, extra=1, distinct=2, jitter=0.0, offset=0.0, seed=0, block_rows=256)
@example(k=3, extra=1, distinct=4, jitter=1e-3, offset=0.0, seed=1, block_rows=1)
@example(k=3, extra=40, distinct=2, jitter=0.0, offset=0.0, seed=2, block_rows=7)
@example(k=3, extra=40, distinct=3, jitter=1e-6, offset=1e6, seed=3, block_rows=256)
def test_training_kth_distances_equal_the_dense_oracle(
    k, extra, distinct, jitter, offset, seed, block_rows
):
    exemplars, _ = make_exemplars(k, extra, distinct, jitter, offset, seed)
    sq_norms = (exemplars**2).sum(axis=1)
    with mock.patch.object(wf_eval, "_BLOCK_ROWS", block_rows):
        _, dists = wf_eval._nearest(exemplars, sq_norms, exemplars, k + 1)
    assert dists[:, k].tobytes() == dense_kth(exemplars, k).tobytes()


@given(
    **KNN_CASES,
    training=st.booleans(),
    n_queries=st.integers(1, 20),
    query_jitter=st.sampled_from([0.0, 1e-9, 1e-3, 1.0]),
    block_rows=st.sampled_from([1, 7, 256]),
)
@example(k=1, extra=1, distinct=1, jitter=0.0, offset=0.0, seed=0, training=True,
         n_queries=1, query_jitter=0.0, block_rows=256)  # m = k + 1, all equal
@example(k=3, extra=1, distinct=2, jitter=0.0, offset=0.0, seed=1, training=True,
         n_queries=1, query_jitter=0.0, block_rows=7)
@example(k=4, extra=30, distinct=2, jitter=0.0, offset=1e6, seed=2, training=True,
         n_queries=1, query_jitter=0.0, block_rows=1)
@example(k=5, extra=20, distinct=3, jitter=0.0, offset=0.0, seed=3, training=False,
         n_queries=20, query_jitter=0.0, block_rows=7)
def test_search_equals_a_dense_stable_argsort(
    k, extra, distinct, jitter, offset, seed, training, n_queries, query_jitter,
    block_rows
):
    # training asks for k + 1 neighbours of every exemplar, so a query's
    # exact duplicates at lower indices tie with the query itself at 0.0
    exemplars, rng = make_exemplars(k, extra, distinct, jitter, offset, seed)
    m = len(exemplars)
    if training:
        queries, k = exemplars, k + 1
    else:
        queries = exemplars[rng.integers(0, m, size=n_queries)]
        moved = rng.random(n_queries) < 0.5
        queries[moved] += query_jitter * rng.standard_normal((int(moved.sum()), FEATURE_DIM))
    with mock.patch.object(wf_eval, "_BLOCK_ROWS", block_rows):
        indices, dists = wf_eval._nearest(
            exemplars, (exemplars**2).sum(axis=1), queries, k
        )
    dense = np.stack([wf_eval._distances(exemplars, q) for q in queries])
    order = np.argsort(dense, axis=1, kind="stable")[:, :k]
    assert np.array_equal(indices, order)
    assert dists.tobytes() == np.take_along_axis(dense, order, axis=1).tobytes()


@given(
    **KNN_CASES,
    query_jitter=st.sampled_from([0.0, 1e-9, 1e-3, 1.0]),
    gate=st.sampled_from(["open", "at", "below"]),
)
@example(k=1, extra=1, distinct=2, jitter=0.0, offset=0.0, seed=0, query_jitter=0.0,
         gate="at")
@example(k=3, extra=40, distinct=2, jitter=0.0, offset=0.0, seed=2, query_jitter=1e-3,
         gate="open")
@example(k=16, extra=2, distinct=5, jitter=0.0, offset=0.0, seed=1, query_jitter=0.0,
         gate="open")  # a quicksort of the candidates breaks this k-th place tie
@example(k=3, extra=40, distinct=3, jitter=1e-6, offset=1e6, seed=3, query_jitter=1e-9,
         gate="below")
def test_classify_labels_equal_the_full_scan(
    k, extra, distinct, jitter, offset, seed, query_jitter, gate
):
    exemplars, rng = make_exemplars(k, extra, distinct, jitter, offset, seed)
    m = len(exemplars)
    labels = tuple(f"class-{c}" for c in rng.integers(0, 3, size=m))
    target = exemplars[rng.integers(0, m)] + query_jitter * rng.standard_normal(FEATURE_DIM)
    probe = flat_trace(10)
    mean, std = extract_features(probe) - target, np.ones(FEATURE_DIM)
    query = (extract_features(probe) - mean) / std
    kth = np.sort(np.sqrt(((exemplars - query) ** 2).sum(axis=1)))[k - 1]
    tau = {"open": np.inf, "at": kth, "below": np.nextafter(kth, -np.inf)}[gate]
    model = Classifier(mean, std, exemplars, labels, k, float(tau))
    assert classify(model, probe) == full_scan_label(model, probe)


def benchmark_rows(classes, per_class, unmonitored, config, seed=1):
    """(train, test) rows of evaluate_defense on a generated corpus."""
    dataset = generate_synthetic(classes, per_class, unmonitored, seed=7)
    sides = []
    for indices in split_indices(dataset, seed):
        rows = []
        for i in indices:
            trace = dataset.traces[i]
            if config is None:
                rows.append(trace)
            else:
                paths = schedule(trace, config, trace_index=i)
                rows.extend(s for s in split(trace, paths, config.n_paths) if len(s))
        sides.append(rows)
    return sides


LONG_TRACES = (20, 8, 50)
MANY_TRACES = (9, 60, 40)
WR_3_50 = SchedulerConfig(n_paths=3, strategy=Strategy.WEIGHTED_RANDOM,
                          batch_packets=50, seed=1)
WR_5_20MS = SchedulerConfig(n_paths=5, strategy=Strategy.WEIGHTED_RANDOM,
                            boundary=BoundaryMode.TIME_WINDOW, window_us=20_000, seed=1)


@pytest.mark.parametrize("corpus, config", [
    (LONG_TRACES, None), (LONG_TRACES, WR_3_50),
    (MANY_TRACES, None), (MANY_TRACES, WR_5_20MS),
])
def test_benchmark_corpora_keep_the_dense_labels(corpus, config):
    train, test = benchmark_rows(*corpus, config)
    model = train_classifier(Dataset.from_traces(train))
    assert model.tau == float(np.quantile(dense_kth(model.exemplars, model.k), 0.95))
    dense = dataclasses.replace(model, tau=expanded_tau(model.exemplars, model.k))
    labels = [classify(model, t) for t in test]
    assert labels == [full_scan_label(dense, t) for t in test]
    assert 0 < labels.count(UNMONITORED_LABEL) < len(labels)


def test_training_memory_stays_within_row_blocks():
    train, _ = benchmark_rows(*MANY_TRACES, WR_5_20MS)
    dataset = Dataset.from_traces(train)
    gc.collect()
    tracemalloc.start()
    try:
        model = train_classifier(dataset)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(model.exemplars) == 1979  # one m x m float64 array is 31 MB
    assert peak <= 25e6


# --- metrics


def test_f1_matches_published_defended_and_undefended_pairs():
    assert f1_score(0.416, 0.329) == pytest.approx(0.367, abs=1e-3)
    assert f1_score(0.708, 0.993) == pytest.approx(0.827, abs=1e-3)


def test_compute_metrics_end_to_end_on_integer_counts():
    # rates tuned to the published defended operating point
    counts = ConfusionCounts(
        true_positives=329, wrong_positives=0, false_positives=231,
        false_negatives_monitored=671, true_negatives=9769,
        monitored_total=1000, unmonitored_total=10000)
    report = compute_metrics(counts, r=20.0)
    assert report.recall == pytest.approx(0.329)
    assert report.r_precision == pytest.approx(0.416, abs=1e-3)
    assert report.f1 == pytest.approx(0.367, abs=1e-3)


def test_r_precision_definition():
    counts = ConfusionCounts(
        true_positives=50, wrong_positives=25, false_positives=5,
        false_negatives_monitored=25, true_negatives=95,
        monitored_total=100, unmonitored_total=100)
    report = compute_metrics(counts, r=20.0)
    assert report.r_precision == pytest.approx(0.2857, abs=1e-4)
    assert report.recall == report.tpr


def test_perfect_classifier_metrics():
    counts = ConfusionCounts(10, 0, 0, 0, 7, 10, 7)
    for r in (1.0, 20.0, 500.0):
        report = compute_metrics(counts, r=r)
        assert report.r_precision == 1.0
        assert report.f1 == 1.0


def test_r_precision_monotone_in_r_and_scale_invariant():
    counts = ConfusionCounts(60, 20, 5, 20, 95, 100, 100)
    previous = 1.0
    for r in (1, 5, 20, 100):
        pi = compute_metrics(counts, r=float(r)).r_precision
        assert pi <= previous
        previous = pi
    scaled = ConfusionCounts(180, 60, 15, 60, 285, 300, 300)
    assert compute_metrics(scaled, 20.0).r_precision == pytest.approx(
        compute_metrics(counts, 20.0).r_precision)


def test_confusion_counts_identities_enforced():
    with pytest.raises(ValueError, match="monitored_total"):
        ConfusionCounts(5, 0, 0, 0, 7, 10, 7)
    with pytest.raises(ValueError, match="unmonitored_total"):
        ConfusionCounts(10, 0, 3, 0, 7, 10, 7)
    with pytest.raises(ValueError, match="positive"):
        ConfusionCounts(0, 0, 0, 0, 0, 0, 0)


@pytest.mark.parametrize("r", [0.0, -1.0, float("nan"), float("inf")])
def test_compute_metrics_refuses_bad_r(r):
    with pytest.raises(ValueError, match="r must be finite and positive"):
        compute_metrics(ConfusionCounts(10, 0, 0, 0, 7, 10, 7), r=r)


def test_tally_predictions():
    rows = [
        ("class-000", True, "class-000"),   # TP
        ("class-000", True, "class-001"),   # WP
        ("class-001", True, UNMONITORED_LABEL),  # FN
        (UNMONITORED_LABEL, False, "class-000"),  # FP
        (UNMONITORED_LABEL, False, UNMONITORED_LABEL),  # TN
    ]
    counts = tally_predictions(rows)
    assert (counts.true_positives, counts.wrong_positives,
            counts.false_positives, counts.false_negatives_monitored,
            counts.true_negatives) == (1, 1, 1, 1, 1)


# --- pipeline


def test_defended_f1_below_undefended():
    ds = generate_synthetic(10, 12, 60, seed=5)
    nodef = evaluate_defense(ds, None, seed=3)
    config = SchedulerConfig(n_paths=3, strategy=Strategy.WEIGHTED_RANDOM,
                             batch_packets=50, seed=3)
    defended = evaluate_defense(ds, config, seed=3)
    assert nodef.f1 >= 0.9
    assert defended.f1 < nodef.f1


def test_evaluate_defense_deterministic():
    ds = generate_synthetic(4, 6, 20, seed=8)
    config = SchedulerConfig(n_paths=2, strategy=Strategy.UNIFORM_RANDOM,
                             batch_packets=25, seed=2)
    assert evaluate_defense(ds, config, seed=1) == evaluate_defense(ds, config, seed=1)


def test_report_json_shape():
    report = compute_metrics(ConfusionCounts(10, 0, 0, 0, 7, 10, 7), r=20.0)
    payload = report.to_json_dict()
    assert sorted(payload) == ["f1", "fpr", "r", "r_precision", "recall",
                               "tpr", "wpr"]


@pytest.mark.parametrize("sizes", [[2**62, 2**62], [-2**63]])
def test_byte_features_do_not_wrap(sizes):
    vec = extract_features(Trace(list(range(len(sizes))), sizes, "a", True))
    assert vec[3] == 2.0**63                # bytes
    assert vec[4] + vec[5] == 2.0**63       # outgoing + incoming bytes
    assert vec[-1] == 1.0                   # every size in the top bin


def test_size_histogram_matches_numpy_histogram():
    sizes = [1, 64, 149, 150, 151, 299, 300, 1349, 1350, 1499, 1500, 1501, 9000]
    trace = mk_trace([(i, s if i % 2 else -s) for i, s in enumerate(sizes)])
    reference, _ = np.histogram(np.clip(sizes, 0, 1500.0), bins=10, range=(0.0, 1500.0))
    assert np.array_equal(extract_features(trace)[-10:], reference / len(sizes))

