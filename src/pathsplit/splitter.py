"""Apply a path assignment to a trace: the per-path views an adversary sees.

Splitting is an exact partition: every packet lands in exactly one
subtrace, in original order, with its parent-clock timestamp preserved
(:func:`~pathsplit.traces.normalize_trace` rebases a subtrace to its own
first packet). Both directions follow the client's path choice, since
migration-capable servers answer on the most recently used client path.
merge() is the inverse used for conservation checks.
"""

from __future__ import annotations

import numpy as np

from .scheduler import SchedulerConfig, schedule
from .traces import Dataset, Trace, int64_column


def split(trace: Trace, paths: np.ndarray, n_paths: int) -> list[Trace]:
    """Partition a trace into one subtrace per path, on the parent's clock.

    paths holds one path index in [0, n_paths) per packet, as
    :func:`~pathsplit.scheduler.schedule` returns it. Entry i of the result
    is what path i carries; paths that saw nothing get an empty trace.
    Subtraces inherit the parent's label and monitored flag.
    """
    paths = int64_column(paths, "paths")
    if len(paths) != len(trace):
        raise ValueError(
            f"assignment length {len(paths)} does not "
            f"match trace length {len(trace)}"
        )
    # one stable sort groups the packets by path in their original order;
    # each subtrace is then a slice of the gathered columns. The sort's ends
    # are the least and greatest index: the range check needs no pass of
    # its own, and runs before bincount counts up to the greatest.
    order = np.argsort(paths, kind="stable")
    if len(order) and (paths[order[0]] < 0 or paths[order[-1]] >= n_paths):
        raise ValueError(f"path index out of range [0, {n_paths})")
    times = trace.times_us[order]
    sizes = trace.signed_size[order]
    times.flags.writeable = sizes.flags.writeable = False
    ends = np.cumsum(np.bincount(paths, minlength=n_paths)).tolist()
    return [
        Trace._subset(times[start:end], sizes[start:end], trace.label,
                      trace.monitored)
        for start, end in zip([0, *ends], ends)
    ]


def merge(subtraces: list[Trace]) -> Trace:
    """Recombine the subtraces of one parent, indexed by path, by timestamp.

    Ties break stably by path index then intra-path order, which restores
    the parent exactly whenever equal-timestamp packets left the splitter
    in that order (always true for strictly increasing timestamps).
    """
    if not subtraces:
        raise ValueError("nothing to merge")
    times = np.concatenate([t.times_us for t in subtraces])
    sizes = np.concatenate([t.signed_size for t in subtraces])
    # the columns are concatenated in (path, intra-path) order, so a stable
    # sort by timestamp breaks ties by path, then intra-path order
    order = np.argsort(times, kind="stable")
    first = subtraces[0]
    return Trace(times[order], sizes[order], first.label, first.monitored)


def split_dataset(dataset: Dataset, config: SchedulerConfig) -> Dataset:
    """Split every trace; each non-empty subtrace becomes a separate
    labeled trace.

    Empty subtraces (a path that saw nothing) are dropped. Output ordering
    is (parent index, path index); deterministic under config.seed.
    """
    out: list[Trace] = []
    for index, trace in enumerate(dataset.traces):
        paths = schedule(trace, config, trace_index=index)
        out.extend(sub for sub in split(trace, paths, config.n_paths) if len(sub))
    return Dataset.from_traces(out)
