"""Spans and counters recorded around the calls the pipeline makes into each layer.

The benchmark never edits the program.  Instead, ``instrument`` swaps the
names that ``tpmine.cli``, ``tpmine.miner``, ``tpmine.pruning`` and
``tpmine.matcher`` imported for wrappers that record a span (name, start,
end, parent) per call plus per-layer counters, and puts the originals back
on exit.  Nesting comes from the call stack: a subgraph test made inside a
supergraph prune check is a child of that check's span, so per-layer self
time is a span's duration minus what its direct children cover.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    """Spans kept in memory as (parent index, name, start, end), plus counters."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, on_result=None):
        spans = self.spans
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[sid] = (parent, name, start, clock())
                stack.pop()
            if on_result is not None:
                on_result(counts, result)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration minus its direct children's."""
        child = [0.0] * len(self.spans)
        for parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (_, name, start, end) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def calls(self) -> Counter:
        return Counter(name for _, name, _, _ in self.spans)


def _count_children(counts, tables):
    counts["growth.child_embeddings"] += sum(t.total_embeddings() for t in tables.values())


def _count_fire(key):
    def on_result(counts, hit):
        if hit is not None:
            counts[key] += 1
    return on_result


def _count_found(counts, witness):
    if witness is not None:
        counts["sequences.subgraph_test_found"] += 1


def _count_mining(counts, result):
    stats = result.stats
    counts["miner.patterns_visited"] += stats.patterns_visited
    counts["miner.subiso_tests"] += stats.subiso_tests
    counts["pruning.bound_fires"] += stats.bound_prune_fires
    counts["pruning.residual_tests"] += stats.residual_tests


def _count_len(key):
    def on_result(counts, items):
        counts[key] += len(items)
    return on_result


def _patch_table(tp):
    """(module, attribute, span name, counter hook) for every traced call site."""
    cli, datakit, matcher, miner, pruning = tp.cli, tp.datakit, tp.matcher, tp.miner, tp.pruning
    return [
        (datakit, "generate_synthetic", "datakit.generate", None),
        (datakit, "save_dataset", "datakit.save_dataset", None),
        # gen writes the truth file through the matcher module
        (matcher, "save_ground_truth", "datakit.save_dataset", None),
        (datakit, "load_dataset", "datakit.load_dataset", None),
        (datakit, "save_report", "datakit.report_io", None),
        (datakit, "load_report", "datakit.report_io", None),
        (cli, "mine", "miner", _count_mining),
        (miner, "expand", "growth.expand", _count_children),
        (miner, "residual_signature", "pruning.residual_signature", None),
        (miner, "subgraph_prune_check", "pruning.subgraph_check", _count_fire("pruning.subgraph_fires")),
        (miner, "supergraph_prune_check", "pruning.supergraph_check",
         _count_fire("pruning.supergraph_fires")),
        (miner, "temporal_subgraph_test", "sequences.subgraph_test", _count_found),
        (pruning, "temporal_subgraph_test", "sequences.subgraph_test", _count_found),
        (miner, "find_embeddings", "sequences.find_embeddings.mine", None),
        (pruning, "find_embeddings", "sequences.find_embeddings.mine", None),
        (miner, "rank", "scoring.rank", None),
        (matcher, "find_instances", "matcher.find_instances", _count_len("matcher.instances")),
        (matcher, "find_embeddings", "sequences.find_embeddings.match",
         _count_len("sequences.embeddings_returned")),
        (matcher, "evaluate", "matcher.evaluate", None),
    ]


@contextmanager
def instrument(tracer: Tracer, tp):
    """Route the program's cross-layer calls through tracer while the block runs.

    ``tp`` is a namespace holding the imported ``tpmine`` modules.
    """
    saved = []
    try:
        for module, attr, name, hook in _patch_table(tp):
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, hook))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# Per-layer metric name -> (unit, better, how it is read from one traced pipeline).
# Times are self time in seconds; "calls" reads the span count of a layer.
PER_LAYER = {
    "datakit.generate_s": ("s", "lower", ("self", "datakit.generate")),
    "datakit.save_dataset_s": ("s", "lower", ("self", "datakit.save_dataset")),
    "datakit.load_dataset_s": ("s", "lower", ("self", "datakit.load_dataset")),
    "datakit.report_io_s": ("s", "lower", ("self", "datakit.report_io")),
    "growth.expand_s": ("s", "lower", ("self", "growth.expand")),
    "growth.expand_calls": ("count", "lower", ("calls", "growth.expand")),
    "growth.child_embeddings": ("count", "lower", ("count", "growth.child_embeddings")),
    "pruning.residual_signature_s": ("s", "lower", ("self", "pruning.residual_signature")),
    "pruning.residual_signature_calls": ("count", "lower", ("calls", "pruning.residual_signature")),
    "pruning.subgraph_check_s": ("s", "lower", ("self", "pruning.subgraph_check")),
    "pruning.subgraph_check_calls": ("count", "lower", ("calls", "pruning.subgraph_check")),
    "pruning.supergraph_check_s": ("s", "lower", ("self", "pruning.supergraph_check")),
    "pruning.supergraph_check_calls": ("count", "lower", ("calls", "pruning.supergraph_check")),
    "pruning.subgraph_fires": ("count", "higher", ("count", "pruning.subgraph_fires")),
    "pruning.supergraph_fires": ("count", "higher", ("count", "pruning.supergraph_fires")),
    "pruning.bound_fires": ("count", "higher", ("count", "pruning.bound_fires")),
    "pruning.residual_tests": ("count", "lower", ("count", "pruning.residual_tests")),
    "sequences.subgraph_test_s": ("s", "lower", ("self", "sequences.subgraph_test")),
    "sequences.subgraph_test_calls": ("count", "lower", ("calls", "sequences.subgraph_test")),
    "sequences.subgraph_test_found": ("count", "higher", ("count", "sequences.subgraph_test_found")),
    "sequences.find_embeddings.mine_s": ("s", "lower", ("self", "sequences.find_embeddings.mine")),
    "sequences.find_embeddings.match_s": ("s", "lower", ("self", "sequences.find_embeddings.match")),
    "sequences.embeddings_returned": ("count", "lower", ("count", "sequences.embeddings_returned")),
    "matcher.find_instances_self_s": ("s", "lower", ("self", "matcher.find_instances")),
    "matcher.instances": ("count", "higher", ("count", "matcher.instances")),
    "matcher.evaluate_s": ("s", "lower", ("self", "matcher.evaluate")),
    "miner.self_s": ("s", "lower", ("self", "miner")),
    "miner.patterns_visited": ("count", "lower", ("count", "miner.patterns_visited")),
    "miner.subiso_tests": ("count", "lower", ("count", "miner.subiso_tests")),
    "scoring.rank_s": ("s", "lower", ("self", "scoring.rank")),
}


def layer_values(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric of PER_LAYER for what tracer recorded."""
    self_times = tracer.self_times()
    calls = tracer.calls()
    out = {}
    for metric, (_, _, (kind, key)) in PER_LAYER.items():
        if kind == "self":
            out[metric] = self_times.get(key, 0.0)
        elif kind == "calls":
            out[metric] = calls.get(key, 0)
        else:
            out[metric] = tracer.counts.get(key, 0)
    return out
