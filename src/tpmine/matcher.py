"""Behavior query evaluation against a large test graph.

A mined pattern used as a query identifies instances: embeddings in the test
graph, each carrying the time interval its matched edges span.  An
identified instance is correct when its interval lies inside a ground-truth
interval of the behavior, and a ground-truth instance is discovered when at
least one correct identified instance falls inside it.  Precision is
correct/identified, recall is discovered/total; queries for the same
behavior are OR-combined, so adding queries can only grow the identified
pool.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .graphs import Embedding, TemporalGraph, TemporalPattern
from .sequences import find_embeddings


@dataclass(frozen=True)
class Instance:
    """One identified occurrence of a behavior query."""

    embedding: Embedding
    interval: tuple[int, int]

    @classmethod
    def from_embedding(cls, emb: Embedding) -> "Instance":
        return cls(emb, (min(emb.times), max(emb.times)))


@dataclass(frozen=True)
class GroundTruth:
    """True behavior executions: (behavior name, start, end) per instance."""

    entries: tuple[tuple[str, int, int], ...]

    def __post_init__(self):
        for name, start, end in self.entries:
            if start > end:
                raise ValueError(f"ground-truth interval for {name!r} has start > end")

    def by_behavior(self) -> dict[str, list[tuple[int, int]]]:
        out: dict[str, list[tuple[int, int]]] = {}
        for name, start, end in self.entries:
            out.setdefault(name, []).append((start, end))
        return out


class TruthInvalid(ValueError):
    """A ground-truth file line that does not parse or has start > end."""


def load_ground_truth(path: str | Path) -> GroundTruth:
    """Parse lines of the form ``behavior <name> <start> <end>``."""
    entries = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if len(parts) != 4 or parts[0] != "behavior" or int(parts[2]) > int(parts[3]):
                raise ValueError
        except ValueError:
            raise TruthInvalid(f"{path}:{lineno}: expected 'behavior <name> <start> <end>' "
                               "with integers start <= end") from None
        entries.append((parts[1], int(parts[2]), int(parts[3])))
    return GroundTruth(tuple(entries))


def save_ground_truth(truth: GroundTruth, path: str | Path) -> None:
    lines = [f"behavior {name} {start} {end}" for name, start, end in truth.entries]
    Path(path).write_text("\n".join(lines) + "\n")


def find_instances(
    p: TemporalPattern,
    g: TemporalGraph,
    limit: Optional[int] = None,
    window: Optional[int] = None,
) -> list[Instance]:
    """Distinct matches of one query in the test graph, as time-stamped instances.

    ``window`` is the maximum instance duration in ticks (last - first edge
    time); None or 0 means no bound.  ``limit`` keeps the first ``limit``
    matches in the chronological order of ``find_embeddings``.  Results are
    ordered by interval, then node image, then edge times.
    """
    out = [Instance.from_embedding(emb) for emb in find_embeddings(p, g, limit=limit, window=window)]
    out.sort(key=lambda inst: (inst.interval, inst.embedding.nodes, inst.embedding.times))
    return out


@dataclass(frozen=True)
class BehaviorAccuracy:
    behavior: str
    identified: int
    correct: int
    truth_instances: int
    discovered: int
    precision: float
    recall: float
    vacuous_precision: bool = False


@dataclass(frozen=True)
class EvalReport:
    per_behavior: tuple[BehaviorAccuracy, ...]
    precision: float
    recall: float


def evaluate(
    instances_by_behavior: dict[str, Sequence[Instance]],
    truth: GroundTruth,
) -> EvalReport:
    """Precision/recall per behavior plus macro-averages.

    An instance is correct iff its interval is fully contained in one of the
    behavior's true intervals.  A behavior with no identified instances gets
    precision 1.0 when it also has no true instances (vacuously clean) and
    0.0 otherwise; the vacuous case is flagged in the per-behavior row.
    """
    truth_map = truth.by_behavior()
    behaviors = sorted(set(truth_map) | set(instances_by_behavior))
    rows = []
    for name in behaviors:
        intervals = truth_map.get(name, [])
        instances = list(instances_by_behavior.get(name, []))
        correct = [
            inst
            for inst in instances
            if any(s <= inst.interval[0] and inst.interval[1] <= e for s, e in intervals)
        ]
        discovered = sum(
            1
            for s, e in intervals
            if any(s <= inst.interval[0] and inst.interval[1] <= e for inst in correct)
        )
        vacuous = not instances
        if instances:
            precision = len(correct) / len(instances)
        else:
            precision = 1.0 if not intervals else 0.0
        recall = discovered / len(intervals) if intervals else 1.0
        rows.append(
            BehaviorAccuracy(
                behavior=name,
                identified=len(instances),
                correct=len(correct),
                truth_instances=len(intervals),
                discovered=discovered,
                precision=precision,
                recall=recall,
                vacuous_precision=vacuous,
            )
        )
    if rows:
        macro_p = sum(r.precision for r in rows) / len(rows)
        macro_r = sum(r.recall for r in rows) / len(rows)
    else:
        macro_p = macro_r = 1.0
    return EvalReport(tuple(rows), macro_p, macro_r)
