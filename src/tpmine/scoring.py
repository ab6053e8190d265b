"""Discriminative score functions and domain-knowledge interest ranking.

A discriminative score F(x, y) maps (positive frequency, negative frequency)
to a real value and must be monotone: increasing in x for fixed y, decreasing
in y for fixed x.  That shape is what makes the search's branch-and-bound
upper bound F(x, 0) valid.  Three variants ship: a log frequency ratio, a
signed G-test statistic, and signed information gain.

Patterns that tie on the discriminative score are further ordered by an
interest score: rarer node labels are more interesting, and labels on a
blacklist (temp files, caches, ...) contribute nothing.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable, Union

from .graphs import TemporalGraph, TemporalPattern


@dataclass(frozen=True)
class LogRatio:
    """log(x / (y + eps)); x = 0 falls back to the floor log(eps / (y + eps))."""

    epsilon: float = 1e-6
    name: str = field(default="logratio", repr=False)

    def score(self, x: float, y: float) -> float:
        e = self.epsilon
        return math.log(max(x, e) / (y + e))


def _kl_bernoulli(x: float, q: float) -> float:
    acc = 0.0
    if x > 0.0:
        acc += x * math.log(x / q)
    if x < 1.0:
        acc += (1.0 - x) * math.log((1.0 - x) / (1.0 - q))
    return acc


@dataclass(frozen=True)
class GTest:
    """Signed G statistic: sign(x - y) * 2 * scale * KL(x || clamp(y)).

    The sign keeps the score monotone over the whole unit square (an unsigned
    G statistic also rewards patterns that avoid the positives).  ``scale``
    stands in for the positive-set size in the classical statistic; the
    default 1.0 keeps scores invariant under dataset replication, and any
    positive value induces the same ordering.
    """

    epsilon: float = 1e-6
    scale: float = 1.0
    name: str = field(default="gtest", repr=False)

    def score(self, x: float, y: float) -> float:
        e = self.epsilon
        q = min(max(y, e), 1.0 - e)
        mag = 2.0 * self.scale * _kl_bernoulli(x, q)
        return mag if x >= q else -mag


def _entropy(p: float) -> float:
    acc = 0.0
    if p > 0.0:
        acc -= p * math.log(p)
    if p < 1.0:
        acc -= (1.0 - p) * math.log(1.0 - p)
    return acc


@dataclass(frozen=True)
class InfoGain:
    """Signed information gain about the class label from pattern occurrence.

    With class prior pos_prior, occurrence probability q = pi*x + (1-pi)*y,
    the gain is H(pi) - [q*H(P(pos|occ)) + (1-q)*H(P(pos|absent))], signed by
    whether the pattern is positively associated (x >= y).
    """

    pos_prior: float = 0.5
    name: str = field(default="infogain", repr=False)

    def score(self, x: float, y: float) -> float:
        pi = self.pos_prior
        q = pi * x + (1.0 - pi) * y
        gain = _entropy(pi)
        if q > 0.0:
            gain -= q * _entropy(pi * x / q)
        if q < 1.0:
            gain -= (1.0 - q) * _entropy(pi * (1.0 - x) / (1.0 - q))
        return gain if x >= y else -gain


ScoreFunction = Union[LogRatio, GTest, InfoGain]

_VARIANTS = {"logratio": LogRatio, "gtest": GTest, "infogain": InfoGain}


def make_score_function(name: str) -> ScoreFunction:
    """The named score function with its default parameters."""
    cls = _VARIANTS.get(name) if isinstance(name, str) else None
    if cls is None:
        raise ValueError(f"unknown score function {name!r}; expected one of {sorted(_VARIANTS)}")
    return cls()


@dataclass(frozen=True)
class InterestModel:
    """Label rarity model built from the training corpus.

    ``label_freq[l]`` is the number of training graphs containing label l;
    a node contributes 1/freq to a pattern's interest, blacklisted labels
    contribute 0, and labels never seen in training contribute 1.
    """

    label_freq: dict[str, int]
    blacklist: frozenset[str] = frozenset()

    @classmethod
    def from_graphs(cls, graphs: Iterable[TemporalGraph], blacklist: Iterable[str] = ()) -> "InterestModel":
        freq = dict(Counter(chain.from_iterable(set(g.labels) for g in graphs)))
        return cls(label_freq=freq, blacklist=frozenset(blacklist))


def interest(pattern: TemporalPattern, model: InterestModel) -> float:
    total = 0.0
    for lab in pattern.labels:
        if lab in model.blacklist:
            continue
        total += 1.0 / model.label_freq.get(lab, 1)
    return total


def load_blacklist(path: str | Path) -> frozenset[str]:
    """Blacklist file: one label per line, '#' starts a comment."""
    labels = set()
    for line in Path(path).read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            labels.add(line)
    return frozenset(labels)


@dataclass(frozen=True)
class ScoredPattern:
    pattern: TemporalPattern
    score: float
    freq_p: float
    freq_n: float
    interest: float


def rank(
    entries: Iterable[tuple[TemporalPattern, float, float, float]],
    model: InterestModel,
    k: int = 5,
) -> list[ScoredPattern]:
    """Order (pattern, score, freq_p, freq_n) entries and keep the top k.

    Sort key: discriminative score desc, interest desc, edge count asc, then
    canonical text asc so full ties resolve identically on every run.
    """
    scored = [
        ScoredPattern(p, s, fp, fn, interest(p, model)) for (p, s, fp, fn) in entries
    ]
    scored.sort(key=lambda sp: (-sp.score, -sp.interest, sp.pattern.n_edges, sp.pattern.text()))
    return scored[:k]
