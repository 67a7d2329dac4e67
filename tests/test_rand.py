"""The seed range: every seeded entry point refuses a seed or stream id
that rand.stream_rng once folded onto another one's stream."""

import pytest

from pathsplit.scheduler import SchedulerConfig, Strategy, schedule
from pathsplit.traces import Trace, generate_synthetic
from pathsplit.wf_eval import evaluate_defense

RANGE = r"^seed must be in \[0, 9223372036854775808\), got "
CONFIG_RANGE = r"^seed must be an integer in \[0, 9223372036854775808\), got "


@pytest.mark.parametrize("call, error, message", [
    # once seed 0's corpus
    (lambda: generate_synthetic(2, 3, 2, seed=2**63), ValueError, RANGE + "9223372036854775808$"),
    # once seed 2**63 - 1's corpus
    (lambda: generate_synthetic(2, 3, 2, seed=-1), ValueError, RANGE + "-1$"),
    # once seed 7's corpus
    (lambda: generate_synthetic(2, 3, 2, seed=7.5), TypeError, "seed must be integer"),
    (lambda: SchedulerConfig(seed=-1), ValueError, CONFIG_RANGE + "-1$"),
    (lambda: SchedulerConfig(seed=2**63), ValueError, CONFIG_RANGE + "9223372036854775808$"),
    # once seed 0's report
    (lambda: evaluate_defense(generate_synthetic(2, 3, 2), None, seed=2**63),
     ValueError, RANGE + "9223372036854775808$"),
    # once trace 2**63 - 1's stream
    (lambda: schedule(Trace([0, 1], [100, -100], "class-000", True), SchedulerConfig(),
                      trace_index=-1),
     ValueError, "expected non-negative integer"),
    # rr and context draw nothing, but refuse it by name all the same
    (lambda: schedule(Trace([0, 1], [100, -100], "class-000", True),
                      SchedulerConfig(strategy=Strategy.ROUND_ROBIN), trace_index=-1),
     ValueError, "^trace_index must be >= 0: expected non-negative integer, got -1$"),
    (lambda: schedule(Trace([0, 10, 20], [1, 2, 3], "a", True),
                      SchedulerConfig(n_paths=2, strategy=Strategy.CONTEXT_DEPENDENT),
                      trace_index=-1),
     ValueError, "^trace_index must be >= 0: expected non-negative integer, got -1$"),
    (lambda: schedule(Trace([0, 1], [100, -100], "class-000", True),
                      SchedulerConfig(strategy=Strategy.ROUND_ROBIN), trace_index=1.5),
     TypeError, "'float' object cannot be interpreted as an integer"),
], ids=["generate-2**63", "generate--1", "generate-7.5", "scheduler--1", "scheduler-2**63",
        "evaluate-2**63", "schedule-index--1", "schedule-rr-index--1",
        "schedule-context-index--1", "schedule-rr-index-1.5"])
def test_seeded_entry_points_refuse_what_they_once_aliased(call, error, message):
    with pytest.raises(error, match=message):
        call()

