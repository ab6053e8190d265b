"""Depth-first search over the T-connected pattern space.

Starting from the empty pattern, the search grows one-edge seeds and then
extends each pattern edge by edge, maintaining the pattern's embeddings in
the positive graphs incrementally, and its first match in each negative
graph as a growth table entry, which ``first_matches`` extends by a child's
new edge, for all negative graphs of one visit in one batch, before
searching afresh.  Each visited pattern is scored against the negatives with the configured score
function; three pruning rules (the frequency upper bound, subgraph pruning,
and supergraph pruning) can each skip a branch without affecting the maximum-score result.

The score threshold used by all pruning rules is the k-th best score seen so
far (k = top_k), which keeps pruning valid when more than one pattern is
reported: anything pruned is strictly below the threshold and therefore
below every pattern in the final top-k.
"""

from __future__ import annotations

import gc
import heapq
import math
import time
from dataclasses import dataclass
from typing import Callable, Collection, Iterator, Optional, Sequence

from .graphs import Embedding, TemporalGraph, TemporalPattern
from .growth import EmbeddingTable, Entry, empty_pattern, empty_table, expand, table_entries
from .pruning import (
    PatternRegistry,
    ResidualSignature,
    residual_signature,
    score_upper_bound,
    subgraph_prune_check,
    supergraph_prune_check,
)
from .scoring import GTest, InfoGain, InterestModel, LogRatio, ScoreFunction, ScoredPattern, rank
from .sequences import find_embeddings, first_matches, temporal_subgraph_test


class EmptyDataset(ValueError):
    pass


class ConfigInvalid(ValueError):
    pass


@dataclass(frozen=True)
class MiningConfig:
    """Settings of one mining run.

    ``seed`` is provenance only: it is written to the report and has no
    effect on mining, which is deterministic.
    """

    max_edges: int = 6
    top_k: int = 5
    score_fn: ScoreFunction = LogRatio()
    use_bound_prune: bool = True
    use_subgraph_prune: bool = True
    use_supergraph_prune: bool = True
    embedding_cap: int = 10_000
    min_freq_p: float = 0.0
    blacklist: frozenset[str] = frozenset()
    behavior: str = "behavior"
    seed: int = 0

    def validated(self) -> "MiningConfig":
        if self.max_edges < 1:
            raise ConfigInvalid("max_edges must be at least 1")
        if self.top_k < 1:
            raise ConfigInvalid("top_k must be at least 1")
        if self.embedding_cap < 1:
            raise ConfigInvalid("embedding_cap must be at least 1")
        if not (0.0 <= self.min_freq_p <= 1.0):
            raise ConfigInvalid("min_freq_p must lie in [0, 1]")
        # Written so that NaN fails too: a bad epsilon or scale makes scores raise, or breaks the
        # F(x, 0) bound and with it the reported maximum.
        fn = self.score_fn
        if isinstance(fn, GTest):
            if not (0.0 < fn.epsilon < 1.0):
                raise ConfigInvalid(f"gtest epsilon must lie in (0, 1), got {fn.epsilon}")
            if not (0.0 < fn.scale < math.inf):
                raise ConfigInvalid(f"gtest scale must be positive and finite, got {fn.scale}")
        elif isinstance(fn, LogRatio) and not (0.0 < fn.epsilon < math.inf):
            raise ConfigInvalid(f"epsilon must be positive and finite, got {fn.epsilon}")
        elif isinstance(fn, InfoGain) and not (0.0 <= fn.pos_prior <= 1.0):
            raise ConfigInvalid(f"infogain pos_prior must lie in [0, 1], got {fn.pos_prior}")
        return self


@dataclass
class MiningStats:
    patterns_visited: int = 0
    bound_prune_fires: int = 0
    subgraph_prune_fires: int = 0
    supergraph_prune_fires: int = 0
    subiso_tests: int = 0
    residual_tests: int = 0
    wall_time: float = 0.0


@dataclass
class MiningResult:
    ranked: list[ScoredPattern]
    max_score: float
    maximizers: list[ScoredPattern]
    stats: MiningStats
    config: MiningConfig


VisitHook = Callable[[TemporalPattern, Optional[TemporalPattern], float, Optional[float], str], None]


def _check_dataset(graphs: Sequence[TemporalGraph], role: str) -> None:
    if not graphs:
        raise EmptyDataset(f"{role} graph set is empty")
    ids = [g.id for g in graphs]
    if len(set(ids)) != len(ids):
        raise EmptyDataset(f"duplicate graph ids in the {role} set")


class _Session:
    """State for one mining run."""

    def __init__(self, positives, negatives, cfg: MiningConfig, on_visit: Optional[VisitHook]):
        self.positives: list[TemporalGraph] = list(positives)
        self.negatives: list[TemporalGraph] = list(negatives)
        self.pos_by_id = {g.id: g for g in self.positives}
        self.cfg = cfg
        self.on_visit = on_visit
        self.stats = MiningStats()
        self.registry = PatternRegistry()
        self.scored: list[tuple[TemporalPattern, float, float, float]] = []
        self._heap: list[float] = []

    def fstar(self) -> float:
        if len(self._heap) < self.cfg.top_k:
            return float("-inf")
        return self._heap[0]

    def record_score(self, pattern, s: float, fp: float, fn: float) -> None:
        self.scored.append((pattern, s, fp, fn))
        if len(self._heap) < self.cfg.top_k:
            heapq.heappush(self._heap, s)
        elif s > self._heap[0]:
            heapq.heapreplace(self._heap, s)

    def first_match(self, p: TemporalPattern, g: TemporalGraph) -> Optional[Embedding]:
        """Chronologically first match of p in g, or None; counts one subgraph test."""
        self.stats.subiso_tests += 1
        return temporal_subgraph_test(p, g)

    def exact_support(self, pattern: TemporalPattern, table: EmbeddingTable) -> int:
        """Number of positive graphs containing the pattern; exact even under truncation.

        A graph whose parent list was truncated may lose all stored children
        while still containing the pattern, so absence there is re-checked
        with a first-match search and a found witness is kept.  ``expand``
        stores no empty tuple, so every graph in the table supports it.
        """
        for gid in table.truncated:
            if gid not in table.entries:
                g = self.pos_by_id[gid]
                witness = self.first_match(pattern, g)
                if witness is not None:
                    table.entries[gid] = table_entries(g, [witness])
        return len(table.entries)

    def children(self, pattern: TemporalPattern, table: EmbeddingTable) -> Iterator[tuple]:
        """(child, child table, freq_p) per one-edge growth that meets the support floor; ``expand``
        reads children off matches, so each has support in some positive graph.  Each child's table
        is taken out of ``expand``'s result before it is checked, so it is freed as soon as the
        child is rejected or its visit ends, not when the last sibling is done."""
        kids = expand(pattern, table, self.positives, self.cfg.embedding_cap)
        for child in list(kids):
            child_table = kids.pop(child)
            freq_p = self.exact_support(child, child_table) / len(self.positives)
            if freq_p >= self.cfg.min_freq_p:
                yield child, child_table, freq_p

    def neg_signature(self, pattern: TemporalPattern,
                      support: Optional[Collection[str]] = None) -> ResidualSignature:
        """Full negative-side signature over the negative graphs whose ids are in ``support``, or
        that hold the pattern by a first-match test when it is None; enumerated on demand, and in
        the order of the negative set whatever the order of ``support``."""
        if support is None:
            support = {g.id for g in self.negatives if self.first_match(pattern, g) is not None}
        cap = self.cfg.embedding_cap
        entries = {}
        truncated = set()
        for g in self.negatives:
            if g.id in support:
                embs = find_embeddings(pattern, g, limit=cap)
                if len(embs) >= cap:
                    truncated.add(g.id)
                entries[g.id] = table_entries(g, embs)
        return residual_signature(EmbeddingTable(entries, frozenset(truncated)), self.negatives)


def mine(
    positives: Sequence[TemporalGraph],
    negatives: Sequence[TemporalGraph],
    cfg: MiningConfig = MiningConfig(),
    on_visit: Optional[VisitHook] = None,
) -> MiningResult:
    """Mine the most discriminative T-connected patterns up to cfg.max_edges edges.

    Returns the top-k ranked patterns plus the full set of maximum-score
    patterns.  With the default configuration the maximizer set is exact:
    every pattern with at least one positive embedding and at most max_edges
    edges is either visited and scored or pruned with a certificate that its
    whole branch scores strictly below the reported maximum.

    The search makes no cyclic garbage, so the process's cyclic garbage
    collector is paused while it runs and then restored to the caller's
    state (left off if it was off), also when ``on_visit`` raises.
    """
    cfg = cfg.validated()
    _check_dataset(positives, "positive")
    _check_dataset(negatives, "negative")
    started = time.monotonic()
    session = _Session(positives, negatives, cfg, on_visit)
    n_neg = len(session.negatives)
    fn = cfg.score_fn

    def visit(
        pattern: TemporalPattern,
        table: EmbeddingTable,
        parent: Optional[TemporalPattern],
        parent_matches: list[tuple[TemporalGraph, Entry]],
        freq_p: float,
    ) -> tuple[float, int]:
        """Explore one pattern; ``parent_matches`` pairs each negative graph
        holding the parent with the parent's first match there.

        Returns (branch score bound, reach): the bound holds for every
        pattern in the branch at any depth, and reach is the largest edge
        count whose scores the bound is known to cover by exploration; a
        reach below max_edges means the branch ended naturally, so the
        explored tree equals the unbounded tree.
        """
        session.stats.patterns_visited += 1
        sig_p = residual_signature(table, session.positives)
        entry = session.registry.add(pattern, sig_p)

        bound = score_upper_bound(fn, freq_p)
        if cfg.use_bound_prune and bound < session.fstar():
            session.stats.bound_prune_fires += 1
            if on_visit:
                on_visit(pattern, parent, freq_p, None, "bound_pruned")
            entry.finalize(bound)
            # the frequency bound dominates descendants at every depth
            return bound, pattern.n_edges

        if cfg.use_subgraph_prune:
            hit = subgraph_prune_check(pattern, sig_p, session.registry, session.fstar())
            if hit is not None:
                session.stats.subgraph_prune_fires += 1
                if on_visit:
                    on_visit(pattern, parent, freq_p, None, "subgraph_pruned")
                entry.finalize(hit.branch_max)
                # the certifying branch is depth-complete, so its maximum
                # covers this branch at every depth too
                return hit.branch_max, pattern.n_edges

        session.stats.subiso_tests += len(parent_matches)
        matches = first_matches(pattern, parent_matches)
        neg_support = frozenset({g.id for g, _ in matches})  # from a set: a right-sized table
        freq_n = len(matches) / n_neg
        s = fn.score(freq_p, freq_n)
        session.record_score(pattern, s, freq_p, freq_n)
        entry.neg_support = neg_support
        if on_visit:
            on_visit(pattern, parent, freq_p, freq_n, "scored")

        if cfg.use_supergraph_prune:
            hit = supergraph_prune_check(pattern, sig_p, neg_support, session.registry, session.fstar(),
                                         session.neg_signature)
            if hit is not None:
                session.stats.supergraph_prune_fires += 1
                cert = max(s, hit.branch_max)
                entry.finalize(cert, depth_complete=hit.depth_complete)
                # this branch's deep counterparts are smaller patterns in the
                # certifying branch; coverage beyond the cap is only known
                # when that branch was itself depth-complete
                reach = pattern.n_edges if hit.depth_complete else cfg.max_edges
                return cert, reach

        branch_max = s
        reach = pattern.n_edges
        if pattern.n_edges < cfg.max_edges:
            for child, child_table, child_freq_p in session.children(pattern, table):
                child_max, child_reach = visit(child, child_table, pattern, matches, child_freq_p)
                branch_max = max(branch_max, child_max)
                reach = max(reach, child_reach)
        entry.finalize(branch_max, depth_complete=reach < cfg.max_edges)
        return branch_max, reach

    all_negs = [(g, ((), -1)) for g in session.negatives]
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for seedling, seed_table, freq_p in session.children(empty_pattern(), empty_table(session.positives)):
            visit(seedling, seed_table, None, all_negs, freq_p)
    finally:
        del visit  # visit refers to itself through its closure cell; this frees the session
        if gc_was_enabled:
            gc.enable()

    model = InterestModel.from_graphs(
        list(session.positives) + list(session.negatives), cfg.blacklist
    )
    ranked = rank(session.scored, model, cfg.top_k)
    max_score = max((s for _, s, _, _ in session.scored), default=float("-inf"))
    maximizer_entries = [e for e in session.scored if abs(e[1] - max_score) <= 1e-12]
    maximizers = rank(maximizer_entries, model, len(maximizer_entries))
    session.stats.residual_tests = session.registry.residual_tests
    session.stats.wall_time = time.monotonic() - started
    return MiningResult(
        ranked=ranked,
        max_score=max_score,
        maximizers=maximizers,
        stats=session.stats,
        config=cfg,
    )
