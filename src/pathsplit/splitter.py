"""Apply a path assignment to a trace: the per-path views an adversary sees.

Splitting is an exact partition: every packet lands in exactly one
subtrace, in original order, with its parent-clock timestamp preserved
(an optional flag re-normalizes a subtrace to its own first packet).
Both directions follow the client's path choice, since migration-capable
servers answer on the most recently used client path. merge() is the
inverse used for conservation checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scheduler import PathAssignment, SchedulerConfig, schedule
from .traces import Dataset, PacketView, Trace


@dataclass(frozen=True)
class SubTrace:
    """The slice of one trace visible on one path, on the parent's clock."""

    path_index: int
    trace: Trace

    @property
    def packets(self) -> PacketView:
        return self.trace.packets

    @property
    def label(self) -> str:
        return self.trace.label

    @property
    def monitored(self) -> bool:
        return self.trace.monitored

    def to_trace(self, normalize: bool = False) -> Trace:
        """View as a plain Trace, optionally rebasing the clock to the
        subtrace's own first packet."""
        times = self.trace.times_us
        if normalize and len(times) and times[0]:
            return Trace(times - times[0], self.trace.signed_size, self.label,
                         self.monitored)
        return self.trace


def split(trace: Trace, assignment: PathAssignment) -> list[SubTrace]:
    """Partition a trace into one subtrace per path (empties included)."""
    paths = assignment.path_per_packet
    if len(paths) != len(trace):
        raise ValueError(
            f"assignment length {len(paths)} does not "
            f"match trace length {len(trace)}"
        )
    subtraces = []
    for i in range(assignment.n_paths):
        on_path = paths == i
        part = Trace(trace.times_us[on_path], trace.signed_size[on_path],
                     trace.label, trace.monitored)
        subtraces.append(SubTrace(i, part))
    return subtraces


def merge(subtraces: list[SubTrace]) -> Trace:
    """Recombine subtraces of one parent by timestamp.

    Ties break stably by path index then intra-path order, which restores
    the parent exactly whenever equal-timestamp packets left the splitter
    in that order (always true for strictly increasing timestamps).
    """
    if not subtraces:
        raise ValueError("nothing to merge")
    parts = [sub.trace for sub in subtraces]
    times = np.concatenate([t.times_us for t in parts])
    sizes = np.concatenate([t.signed_size for t in parts])
    lengths = [len(t) for t in parts]
    path = np.repeat([sub.path_index for sub in subtraces], lengths)
    rank = np.concatenate([np.arange(n) for n in lengths])
    order = np.lexsort((rank, path, times))
    return Trace(times[order], sizes[order], parts[0].label, parts[0].monitored)


def split_dataset(
    dataset: Dataset, config: SchedulerConfig, drop_empty: bool = True
) -> Dataset:
    """Split every trace; each subtrace becomes a separate labeled trace.

    Subtraces inherit their parent's label and monitored flag. Empty
    subtraces (a path that saw nothing) are dropped unless drop_empty is
    False. Output ordering is (parent index, path index); deterministic
    under config.seed.
    """
    out: list[Trace] = []
    for index, trace in enumerate(dataset.traces):
        assignment = schedule(trace, config, trace_index=index)
        for sub in split(trace, assignment):
            if drop_empty and not len(sub.trace):
                continue
            out.append(sub.to_trace())
    metadata = dict(dataset.metadata)
    metadata["split"] = {
        "config": config.to_dict(),
        "drop_empty": drop_empty,
        "parent_traces": len(dataset.traces),
    }
    return Dataset.from_traces(out, metadata)
