"""Shared corpus builders for the test suite.

Random graphs and patterns are built from explicit seeded generators rather
than global state so every test is reproducible in isolation.  Patterns are
grown T-connected by construction; "embedded" pattern sampling pulls an
actual edge subset out of a graph so that positive subgraph verdicts are
common in the corpora.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

import pytest

from tpmine.datakit import generate_synthetic, preset_spec
from tpmine.graphs import TemporalGraph, TemporalPattern, canonical_pattern, validate


def random_graph(
    rng: random.Random,
    max_nodes: int = 6,
    max_edges: int = 10,
    labels: str = "ABCD",
    min_edges: int = 1,
    graph_id: Optional[str] = None,
) -> TemporalGraph:
    n = rng.randint(2, max_nodes)
    labs = [rng.choice(labels) for _ in range(n)]
    m = rng.randint(min_edges, max_edges)
    edges = []
    t = 0
    for _ in range(m):
        t += rng.randint(1, 3)
        u = rng.randrange(n)
        v = rng.randrange(n)
        while v == u:
            v = rng.randrange(n)
        edges.append((u, v, t))
    gid = graph_id if graph_id is not None else f"g{rng.randrange(10**9)}"
    return validate(gid, labs, edges)


def random_pattern(
    rng: random.Random, max_edges: int = 5, labels: str = "ABCD", min_edges: int = 1
) -> TemporalPattern:
    """Random T-connected pattern grown one edge at a time."""
    labs = [rng.choice(labels), rng.choice(labels)]
    edges = [(0, 1, 1)]
    target = rng.randint(min_edges, max_edges)
    for t in range(2, target + 1):
        kind = rng.choice("fbi")
        if kind == "f":
            src = rng.randrange(len(labs))
            labs.append(rng.choice(labels))
            edges.append((src, len(labs) - 1, t))
        elif kind == "b":
            dst = rng.randrange(len(labs))
            labs.append(rng.choice(labels))
            edges.append((len(labs) - 1, dst, t))
        else:
            src = rng.randrange(len(labs))
            dst = rng.randrange(len(labs))
            while dst == src:
                dst = rng.randrange(len(labs))
            edges.append((src, dst, t))
    return canonical_pattern(labs, edges)


def embedded_pattern(
    rng: random.Random, g: TemporalGraph, max_edges: int = 4
) -> Optional[TemporalPattern]:
    """A pattern that certainly occurs in g: a T-connected subset of its edges."""
    if g.n_edges == 0:
        return None
    for _ in range(20):
        k = rng.randint(1, min(max_edges, g.n_edges))
        idxs = sorted(rng.sample(range(g.n_edges), k))
        subset = [(g.srcs[i], g.dsts[i], g.timestamps[i]) for i in idxs]
        try:
            labels = {v: g.labels[v] for s, d, _ in subset for v in (s, d)}
            return canonical_pattern(labels, subset)
        except Exception:
            continue
    return None


def replicate(graphs: Sequence[TemporalGraph], k: int) -> list[TemporalGraph]:
    """k copies of each graph with fresh ids; pattern frequencies are unchanged."""
    if k < 1:
        raise ValueError("replication factor must be at least 1")
    out = []
    for g in graphs:
        out.append(g)
        for i in range(1, k):
            out.append(TemporalGraph(f"{g.id}~{i}", g.labels, g.srcs, g.dsts, g.timestamps))
    return out


def edge_columns(g: TemporalGraph) -> tuple[tuple, tuple, tuple]:
    """The edge-index columns of g, by source, by destination and by node pair, built through
    the ``edge_range`` lookups that read them: as in ``_cache``, ``((positions, offsets),
    (positions, offsets), codes)``."""
    g.edge_range(0, -1), g.edge_range(-1, 0), g.edge_range(0, 0)
    c = g._cache
    return (c["src_positions"], c["src_offsets"]), (c["dst_positions"], c["dst_offsets"]), c["by_pair"]


def desk_instance(seed: int, labels: str = "ABCD"):
    """Small positive/negative graph sets sized for exhaustive oracle checks."""
    rng = random.Random(seed)
    n_pos = rng.randint(2, 5)
    n_neg = rng.randint(2, 5)
    positives = [
        random_graph(rng, max_nodes=5, max_edges=8, labels=labels, min_edges=2, graph_id=f"p{i}")
        for i in range(n_pos)
    ]
    negatives = [
        random_graph(rng, max_nodes=5, max_edges=8, labels=labels, min_edges=2, graph_id=f"n{i}")
        for i in range(n_neg)
    ]
    return positives, negatives


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture(scope="session")
def medium_corpus():
    """The ``medium`` preset at seed 0, shared by the acceptance and CLI tests."""
    return generate_synthetic(preset_spec("medium"), seed=0)
