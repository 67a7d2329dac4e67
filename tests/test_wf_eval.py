import numpy as np
import pytest

from pathsplit.scheduler import SchedulerConfig, Strategy
from pathsplit.splitter import split_dataset
from pathsplit.traces import (
    Dataset,
    Direction,
    Packet,
    Trace,
    UNMONITORED_LABEL,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from pathsplit.wf_eval import (
    ConfusionCounts,
    FEATURE_DIM,
    classify,
    compute_metrics,
    evaluate_defense,
    extract_features,
    f1_score,
    tally_predictions,
    train_classifier,
    train_test_split,
)


def mk_trace(pairs, label="class-000", monitored=True):
    packets = tuple(
        Packet(ts, Direction.OUTGOING if s > 0 else Direction.INCOMING, abs(s))
        for ts, s in pairs
    )
    return Trace.from_packets(packets, label, monitored)


def flat_trace(n, size=100, gap=1000, label="class-000", monitored=True):
    return mk_trace([(i * gap, size) for i in range(n)], label, monitored)


# --- features


def test_empty_trace_yields_zero_vector():
    vec = extract_features(Trace.from_packets((), "class-000", True))
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
    train, test = train_test_split(Dataset.from_traces(traces), seed=0)
    count = lambda ds, lab: sum(1 for t in ds.traces if t.label == lab)
    assert count(train, "class-000") == 45 and count(test, "class-000") == 5
    assert count(train, "class-001") == 45 and count(test, "class-001") == 5
    assert count(train, UNMONITORED_LABEL) == 18 and count(test, UNMONITORED_LABEL) == 2


def test_split_rounding_convention_on_large_unmonitored_pool():
    # 16,182 unmonitored -> 14,563 train + 1,619 test (test = ceil(n/10))
    traces = [flat_trace(3, label=UNMONITORED_LABEL, monitored=False)
              for _ in range(16_182)]
    train, test = train_test_split(Dataset.from_traces(traces), seed=1)
    assert len(train) == 14_563
    assert len(test) == 1_619


def test_split_deterministic_and_disjoint():
    ds = generate_synthetic(4, 5, 12, seed=3)
    a_train, a_test = train_test_split(ds, seed=5)
    b_train, b_test = train_test_split(ds, seed=5)
    assert a_train.traces == b_train.traces and a_test.traces == b_test.traces
    assert len(a_train) + len(a_test) == len(ds)
    ids = {id(t) for t in a_train.traces} & {id(t) for t in a_test.traces}
    assert not ids


def test_split_rejects_single_trace_class():
    traces = [flat_trace(10, label="class-000"),
              flat_trace(12, label="class-001"),
              flat_trace(14, label="class-001")]
    with pytest.raises(ValueError, match="class-000"):
        train_test_split(Dataset.from_traces(traces), seed=0)


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
    assert classify(model, Trace.from_packets((), "class-000", True)) == UNMONITORED_LABEL


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


def test_transform_hook_composes_with_splitting():
    # a size-hiding transform stands in for a padding defense; stacking
    # it with splitting must not help the attacker
    def pad_sizes(trace):
        packets = tuple(Packet(p.timestamp_us, p.direction, 1500)
                        for p in trace.packets)
        return Trace.from_packets(packets, trace.label, trace.monitored)

    ds = generate_synthetic(10, 12, 60, seed=5)
    config = SchedulerConfig(n_paths=3, strategy=Strategy.WEIGHTED_RANDOM,
                             batch_packets=50, seed=3)
    split_only = evaluate_defense(ds, config, seed=3)
    pad_only = evaluate_defense(ds, None, seed=3, transform=pad_sizes)
    combined = evaluate_defense(ds, config, seed=3, transform=pad_sizes)
    assert combined.f1 <= split_only.f1
    assert combined.f1 <= pad_only.f1


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


def test_load_split_evaluate_build_no_packet_objects(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("a Packet was built")

    monkeypatch.setattr(Packet, "__post_init__", refuse)
    with pytest.raises(AssertionError):
        Packet(0, Direction.OUTGOING, 1)
    corpus = generate_synthetic(4, 10, 20, seed=2)
    config = SchedulerConfig(n_paths=3, strategy=Strategy.WEIGHTED_RANDOM,
                             batch_packets=20, seed=1)
    for fmt in ("ndjson", "csv"):
        path = tmp_path / f"d.{fmt}"
        save_dataset(corpus, path, fmt)
        dataset = load_dataset(path, fmt)
        assert dataset.traces == corpus.traces
        assert len(split_dataset(dataset, config)) >= len(dataset)
        report = evaluate_defense(dataset, config, seed=1)
        assert 0.0 <= report.f1 <= 1.0
