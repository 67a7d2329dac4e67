"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL
lines. Ordering criteria are checked on the seeded 20x30+200 synthetic
corpus; randomized defenses are averaged over a fixed list of scheduler
seeds so a single unlucky draw cannot flip an ordering.
"""

from dataclasses import replace

import numpy as np
import pytest

from pathsplit.cli import main as cli_main
from pathsplit.netsim import (
    PathModel,
    Protocol,
    SenderModel,
    simulate_transfer,
    sweep_frequencies,
)
from pathsplit.rand import stream_rng
from pathsplit.scheduler import (
    BoundaryMode,
    SchedulerConfig,
    Strategy,
    draw_connection_weights,
    schedule,
)
from pathsplit.splitter import merge, split
from pathsplit.traces import generate_synthetic
from pathsplit.wf_eval import ConfusionCounts, compute_metrics, evaluate_defense, f1_score

CORPUS_SEED = 7
EVAL_SEED = 1
SCHED_SEEDS = (11, 23, 37, 41, 53)
SLACK = 0.02


def report(criterion, passed, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} — {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic(20, 30, 200, seed=CORPUS_SEED)


@pytest.fixture(scope="module")
def mean_eval(corpus):
    """Evaluate a defense under each scheduler seed; cache mean f1/recall."""
    cache = {}

    def run(strategy=None, paths=3, batch=50, boundary="packets"):
        key = (strategy, paths, batch, boundary)
        if key in cache:
            return cache[key]
        if strategy is None:
            rep = evaluate_defense(corpus, None, seed=EVAL_SEED)
            cache[key] = (rep.f1, rep.recall)
            return cache[key]
        f1s, recalls = [], []
        for sched_seed in SCHED_SEEDS:
            config = SchedulerConfig(
                n_paths=paths,
                strategy=Strategy(strategy),
                boundary=BoundaryMode(boundary),
                batch_packets=batch,
                window_us=100_000,
                seed=sched_seed,
            )
            rep = evaluate_defense(corpus, config, seed=EVAL_SEED)
            f1s.append(rep.f1)
            recalls.append(rep.recall)
        cache[key] = (float(np.mean(f1s)), float(np.mean(recalls)))
        return cache[key]

    return run


def test_criterion_1_f1_formula_fidelity():
    defended = f1_score(0.416, 0.329)
    undefended = f1_score(0.708, 0.993)
    ok = abs(defended - 0.367) <= 1e-3 and abs(undefended - 0.827) <= 1e-3
    report(1, ok, f"f1(0.416,0.329)={defended:.4f}, f1(0.708,0.993)={undefended:.4f}")


def test_criterion_2_r_precision_definition():
    counts = ConfusionCounts(
        true_positives=50, wrong_positives=25, false_positives=5,
        false_negatives_monitored=25, true_negatives=95,
        monitored_total=100, unmonitored_total=100)
    pi = compute_metrics(counts, r=20.0).r_precision
    report(2, abs(pi - 0.2857) <= 1e-4, f"pi_r={pi:.5f} expected 0.2857")


def test_criterion_3_strategy_ordering(mean_eval):
    nodef, nodef_recall = mean_eval(None)
    rr, _ = mean_eval("rr")
    ur, _ = mean_eval("ur")
    wr, _ = mean_eval("wr")
    ok = (
        nodef >= 0.9
        and nodef_recall > 0.9
        and nodef > rr - SLACK
        and rr >= ur - SLACK
        and ur >= wr - SLACK
        and nodef - wr > 0.15
    )
    report(3, ok, f"f1: nodef={nodef:.3f} rr={rr:.3f} ur={ur:.3f} wr={wr:.3f} "
                  f"(gap={nodef - wr:.3f}, nodef recall={nodef_recall:.3f})")


def test_criterion_4_frequency_ordering(mean_eval):
    b50, _ = mean_eval("wr", batch=50)
    b100, _ = mean_eval("wr", batch=100)
    b200, _ = mean_eval("wr", batch=200)
    ok = b200 >= b100 - SLACK and b100 >= b50 - SLACK
    report(4, ok, f"f1: B200={b200:.3f} B100={b100:.3f} B50={b50:.3f}")


def test_criterion_5_path_count_ordering(mean_eval):
    _, rec2 = mean_eval("wr", paths=2)
    _, rec3 = mean_eval("wr", paths=3)
    _, rec5 = mean_eval("wr", paths=5)
    ok = rec2 >= rec3 - SLACK and rec3 >= rec5 - SLACK
    report(5, ok, f"recall: n2={rec2:.3f} n3={rec3:.3f} n5={rec5:.3f}")


def test_criterion_6_time_packet_equivalence(corpus, mean_eval):
    rates = [len(t) / (t.times_us[-1] / 1e6) for t in corpus.traces]
    mean_rate = float(np.mean(rates))
    packet_f1, _ = mean_eval("wr", batch=50)
    time_f1, _ = mean_eval("wr", boundary="time")
    diff = abs(time_f1 - packet_f1)
    ok = 300 < mean_rate < 700 and diff <= 0.1
    report(6, ok, f"|f1(100ms)-f1(50pkt)|={diff:.3f} "
                  f"(time={time_f1:.3f}, packet={packet_f1:.3f}, "
                  f"corpus rate={mean_rate:.0f} pkt/s)")


def test_criterion_7_split_merge_conservation(corpus):
    rng = stream_rng(1234, 0)
    strategies = (Strategy.ROUND_ROBIN, Strategy.UNIFORM_RANDOM,
                  Strategy.WEIGHTED_RANDOM, Strategy.CONTEXT_DEPENDENT)
    checked = 0
    for rep in range(1000):
        trace = corpus.traces[int(rng.integers(0, len(corpus.traces)))]
        config = SchedulerConfig(
            n_paths=int(rng.integers(2, 6)),
            strategy=strategies[int(rng.integers(0, len(strategies)))],
            boundary=BoundaryMode.TIME_WINDOW if rng.integers(0, 2)
            else BoundaryMode.PACKET_COUNT,
            batch_packets=int(rng.integers(1, 300)),
            window_us=int(rng.integers(1_000, 500_000)),
            handshake_packets=int(rng.integers(1, 40)),
            seed=int(rng.integers(0, 1_000_000)),
        )
        subs = split(trace, schedule(trace, config, trace_index=rep), config.n_paths)
        assert merge(subs) == trace
        assert sum(len(s.packets) for s in subs) == len(trace)
        assert (sum(abs(p[1]) for s in subs for p in s.packets)
                == trace.total_bytes)
        checked += 1
    report(7, checked == 1000, f"{checked} random (trace, config) pairs round-tripped")


def test_criterion_8_dirichlet_sampler_statistics():
    n, alpha, draws = 3, 1.0, 100_000
    rng = stream_rng(321, 0)
    samples = np.stack([draw_connection_weights(n, alpha, rng) for _ in range(draws)])
    total = n * alpha
    mean_target = alpha / total
    var_target = alpha * (total - alpha) / (total**2 * (total + 1))
    mean_err = float(np.max(np.abs(samples.mean(axis=0) - mean_target)))
    var_err = float(np.max(np.abs(samples.var(axis=0) - var_target))) / var_target
    ok = mean_err < 0.01 and var_err < 0.10
    report(8, ok, f"mean err={mean_err:.4f} (<0.01), var rel err={var_err:.3f} (<0.10)")


def test_criterion_9_overhead_bands():
    paths = [PathModel(rtt_us=50_000, bandwidth_bytes_per_s=1_250_000)] * 2
    wg = SenderModel(protocol=Protocol.WIREGUARD_ROAMING)
    quic = SenderModel(protocol=Protocol.QUIC_MIGRATION)
    total = 10_000_000

    def overhead(sender, period, seed):
        switched = simulate_transfer(paths, sender, period, total, seed)
        unswitched = simulate_transfer(paths, sender, None, total, seed)
        return 1.0 - switched.throughput_bytes_per_s / unswitched.throughput_bytes_per_s

    wg_100 = overhead(wg, 100_000, seed=3)
    quic_100 = overhead(quic, 100_000, seed=3)
    points = sweep_frequencies(paths, quic, [10_000, 30_000, 100_000, 500_000],
                               total, repetitions=3, seed=5)
    non_increasing = all(
        earlier.mean_throughput_bps <= later.mean_throughput_bps * 1.01
        for earlier, later in zip(points, points[1:])
    )
    uncached = replace(quic, validation_cache=False)
    cached = replace(quic, validation_cache=True)
    caching_dominates = all(
        overhead(cached, period, seed=5) <= overhead(uncached, period, seed=5)
        for period in (10_000, 30_000, 100_000, 500_000)
    )
    ok = (
        wg_100 <= 0.10
        and quic_100 >= wg_100
        and non_increasing
        and caching_dominates
    )
    report(9, ok, f"WG@100ms={wg_100:.3f} (<=0.10), "
                  f"QUIC@100ms={quic_100:.3f}, "
                  f"monotone={non_increasing}, caching_dominates={caching_dominates}")


def test_criterion_10_cli_manifest_determinism(tmp_path):
    data = tmp_path / "data.ndjson"
    split_out = tmp_path / "split.ndjson"
    report_out = tmp_path / "report.json"
    sweep_out = tmp_path / "sweep.csv"

    assert cli_main(["generate", "--classes", "6", "--per-class", "8",
                     "--unmonitored", "30", "--seed", "5", "-o", str(data)]) == 0
    assert cli_main(["split", "-i", str(data), "--strategy", "wr", "--paths", "3",
                     "--batch-packets", "50", "--seed", "1", "-o", str(split_out)]) == 0
    assert cli_main(["evaluate", "-i", str(data), "--defense", "wr:3:50",
                     "--seed", "2", "-o", str(report_out)]) == 0
    assert cli_main(["overhead", "--protocol", "quic", "--periods", "10,100",
                     "--reps", "2", "--total-mb", "2", "-o", str(sweep_out)]) == 0

    identical = []
    for artifact in (data, split_out, report_out, sweep_out):
        replayed = tmp_path / ("replay-" + artifact.name)
        assert cli_main(["replay", str(artifact) + ".manifest.json",
                         "-o", str(replayed)]) == 0
        identical.append(replayed.read_bytes() == artifact.read_bytes())
    report(10, all(identical),
           f"replay byte-identical per subcommand: "
           f"generate={identical[0]} split={identical[1]} "
           f"evaluate={identical[2]} overhead={identical[3]}")
