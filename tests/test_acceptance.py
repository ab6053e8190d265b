"""Acceptance gate: one test per headline criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance is pinned here.

One criterion - the residual-signature integer equivalence - is known not to
hold: the compressed integer can collide while the underlying residual
multisets differ (test_pruning.py carries a minimal example), so its test is
implemented exactly as stated and is expected to fail.  Mining is unaffected:
pruning always compares full residual profiles, which is what the exactness
and pruning-invariance criteria below verify.
"""

import itertools
import math
import random
import time

import pytest

from tpmine.graphs import canonical_pattern, verify_embedding
from tpmine.matcher import evaluate, find_instances
from tpmine.miner import MiningConfig, mine
from tpmine.oracle import (
    OracleBudget,
    oracle_best_score,
    oracle_enumerate_patterns,
    oracle_subgraph_test,
)
from tpmine.pruning import residual_signature
from tpmine.growth import EmbeddingTable, table_entries
from tpmine.scoring import GTest, InfoGain, LogRatio
from tpmine.sequences import find_embeddings

from conftest import desk_instance, embedded_pattern, random_graph, random_pattern, replicate
from oracle_ref import oracle_residual_equal
from sequence_ref import SubgraphTestOptions, sequence_subgraph_test

BUDGET = OracleBudget(wall_seconds=300.0)


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] {name}: {status}{(' - ' + detail) if detail else ''}")


BENCH_CFG = MiningConfig(max_edges=6, top_k=5, min_freq_p=0.5, behavior="planted")


def test_exactness_vs_exhaustive_oracle():
    """Mining returns exactly the exhaustive-search optimum on 20 instances."""
    started = time.monotonic()
    checked = 0
    for seed in range(20):
        positives, negatives = desk_instance(seed)
        result = mine(positives, negatives, MiningConfig(max_edges=4, top_k=5))
        best, argmax = oracle_best_score(positives, negatives, 4, LogRatio(), BUDGET)
        assert result.max_score == pytest.approx(best, abs=0.0), f"instance {seed}"
        assert {sp.pattern.key() for sp in result.maximizers} == {
            p.key() for p in argmax.values()
        }, f"instance {seed}"
        checked += 1
    elapsed = time.monotonic() - started
    ok = checked == 20 and elapsed < 60.0
    _report("exactness vs exhaustive oracle", ok, f"{checked} instances in {elapsed:.1f}s")
    assert ok


def test_enumeration_completeness_and_no_repetition():
    """Pruning-free search visits the full pattern space exactly once each."""
    instances = 0
    for seed in range(10):
        positives, negatives = desk_instance(seed + 100)
        visits: dict[tuple, int] = {}

        def watch(pattern, parent, freq_p, freq_n, action):
            visits[pattern.key()] = visits.get(pattern.key(), 0) + 1

        cfg = MiningConfig(
            max_edges=4,
            use_bound_prune=False,
            use_subgraph_prune=False,
            use_supergraph_prune=False,
        )
        mine(positives, negatives, cfg, on_visit=watch)
        expected = {p.key() for p in oracle_enumerate_patterns(positives, 4, BUDGET).values()}
        assert set(visits) == expected, f"instance {seed}: misses or extras"
        assert all(c == 1 for c in visits.values()), f"instance {seed}: duplicates"
        instances += 1
    _report("enumeration completeness + no repetition", True, f"{instances} instances")


def test_pruning_invariance_and_fires():
    """All 8 pruning toggles agree; enabled pruning fires and reduces visits."""
    fires = []
    strictly_lower = 0
    for seed in range(20):
        positives, negatives = desk_instance(seed)
        outcomes = {}
        for toggles in itertools.product([False, True], repeat=3):
            b, s, sup = toggles
            cfg = MiningConfig(
                max_edges=4,
                top_k=1,
                use_bound_prune=b,
                use_subgraph_prune=s,
                use_supergraph_prune=sup,
            )
            outcomes[toggles] = mine(positives, negatives, cfg)
        scores = {r.max_score for r in outcomes.values()}
        maximizer_sets = {
            frozenset(sp.pattern.key() for sp in r.maximizers) for r in outcomes.values()
        }
        assert len(scores) == 1, f"instance {seed}: scores diverge across toggles"
        assert len(maximizer_sets) == 1, f"instance {seed}: maximizer sets diverge"
        full = outcomes[(True, True, True)]
        none = outcomes[(False, False, False)]
        assert full.stats.patterns_visited <= none.stats.patterns_visited
        strictly_lower += full.stats.patterns_visited < none.stats.patterns_visited
        fires.append(
            full.stats.bound_prune_fires
            + full.stats.subgraph_prune_fires
            + full.stats.supergraph_prune_fires
        )
    avg_fires = sum(fires) / len(fires)
    ok = strictly_lower >= 10 and avg_fires >= 1.0
    _report(
        "pruning invariance (8 toggle combinations)",
        ok,
        f"avg fires/instance {avg_fires:.1f}, strictly fewer visits on {strictly_lower}/20",
    )
    assert ok


def test_subsequence_test_equivalence():
    """Sequence-based subgraph verdicts match backtracking on 500 pairs."""
    rng = random.Random(2024)
    pairs = []
    while len(pairs) < 500:
        g = random_graph(rng, max_nodes=6, max_edges=12)
        if rng.random() < 0.5:
            p = embedded_pattern(rng, g, max_edges=6)
            if p is None:
                continue
        else:
            p = random_pattern(rng, max_edges=6)
        pairs.append((p, g))
    combos = [
        SubgraphTestOptions(label_sequence_test=a, local_info=b, prefix_pruning=c)
        for a, b, c in itertools.product([False, True], repeat=3)
    ]
    mismatches = 0
    positives = 0
    for p, g in pairs:
        fast = sequence_subgraph_test(p, g)
        slow = oracle_subgraph_test(p, g, BUDGET)
        if (fast is None) != (slow is None):
            mismatches += 1
            continue
        if fast is not None:
            positives += 1
            if not verify_embedding(p, g, fast):
                mismatches += 1
        verdicts = {sequence_subgraph_test(p, g, o) is None for o in combos}
        if len(verdicts) != 1:
            mismatches += 1
    ok = mismatches == 0 and 0 < positives < 500
    _report(
        "subsequence subgraph test equivalence",
        ok,
        f"500 pairs, {positives} positive, {mismatches} mismatches",
    )
    assert ok


def test_residual_signature_integer_equivalence():
    """Integer equality vs direct residual comparison on 1000 nested pairs.

    Stated tolerance: zero mismatches.  This is known to be unattainable:
    the residual-size sum is not injective over residual multisets, and
    spurious collisions occur at a low but non-zero rate (pruning therefore
    always compares full profiles, not just the integer).
    The check is implemented exactly as stated and reports honestly.
    """
    rng = random.Random(99)
    total = 0
    mismatches = 0
    first_example = None
    while total < 1000:
        graphs = [
            random_graph(rng, max_nodes=6, max_edges=10, graph_id=f"a{total}.{i}")
            for i in range(rng.randint(1, 3))
        ]
        g2 = embedded_pattern(rng, graphs[rng.randrange(len(graphs))], max_edges=4)
        if g2 is None:
            continue
        j = rng.randint(1, g2.n_edges)
        g1 = canonical_pattern(
            {i: g2.labels[i] for i in range(g2.n_nodes)},
            list(zip(g2.srcs, g2.dsts, g2.timestamps))[:j],
        )

        def int_sig(p):
            table = EmbeddingTable({g.id: table_entries(g, find_embeddings(p, g)) for g in graphs})
            return residual_signature(table, graphs).i_value

        int_equal = int_sig(g1) == int_sig(g2)
        direct_equal = oracle_residual_equal(g1, g2, graphs, BUDGET)
        if int_equal != direct_equal:
            mismatches += 1
            if first_example is None:
                first_example = (g1.text(), g2.text())
        total += 1
    ok = mismatches == 0
    detail = f"{total} pairs, {mismatches} mismatches"
    if not ok:
        detail += (
            f"; first spurious pair g1={first_example[0]!r} g2={first_example[1]!r}"
            " (integer collides, residual multisets differ; known upstream defect,"
            " see README 'Residual signatures' and the decisions ledger)"
        )
    _report("residual signature integer equivalence", ok, detail)
    assert ok, detail


def test_planted_behavior_recovery(medium_corpus):
    """Top-5 queries from the medium corpus hit >=0.90 precision and recall."""
    data = medium_corpus
    started = time.monotonic()
    result = mine(data.positives, data.negatives, BENCH_CFG)
    longest = max(e - s for _, s, e in data.truth.entries)
    instances = []
    for sp in result.ranked:
        instances.extend(find_instances(sp.pattern, data.test_graph, window=2 * longest))
    elapsed = time.monotonic() - started
    report = evaluate({"planted": instances}, data.truth)
    row = report.per_behavior[0]
    ok = row.precision >= 0.90 and row.recall >= 0.90 and elapsed < 600.0
    _report(
        "planted behavior recovery",
        ok,
        f"precision {row.precision:.3f}, recall {row.recall:.3f}, "
        f"{row.identified} instances, {elapsed:.1f}s",
    )
    assert ok


def test_training_size_scaling(medium_corpus):
    """Mining time grows linearly in the replication factor (R^2 >= 0.9)."""
    from tpmine.graphs import TemporalGraph

    def cold(graphs):
        # fresh objects so every run pays derived-structure costs equally
        return [TemporalGraph(g.id, g.labels, g.srcs, g.dsts, g.timestamps) for g in graphs]

    data = medium_corpus
    times = {}
    reference = None
    for k in (1, 2, 4):
        pos = cold(replicate(data.positives, k))
        neg = cold(replicate(data.negatives, k))
        started = time.monotonic()
        result = mine(pos, neg, BENCH_CFG)
        times[k] = time.monotonic() - started
        key = (result.max_score, frozenset(sp.pattern.key() for sp in result.maximizers))
        if reference is None:
            reference = key
        assert key == reference, "replication changed the mining result"
    ks = [1, 2, 4]
    ts = [times[k] for k in ks]
    mean_k = sum(ks) / 3
    mean_t = sum(ts) / 3
    slope = sum((k - mean_k) * (t - mean_t) for k, t in zip(ks, ts)) / sum(
        (k - mean_k) ** 2 for k in ks
    )
    intercept = mean_t - slope * mean_k
    ss_res = sum((t - (intercept + slope * k)) ** 2 for k, t in zip(ks, ts))
    ss_tot = sum((t - mean_t) ** 2 for t in ts)
    r2 = 1.0 - ss_res / ss_tot
    ratio = times[4] / times[1]
    ok = r2 >= 0.9 and ratio <= 6.0
    _report(
        "training-size scaling",
        ok,
        f"times {times[1]:.2f}/{times[2]:.2f}/{times[4]:.2f}s, R^2 {r2:.3f}, x4 ratio {ratio:.2f}",
    )
    assert ok


def test_pruning_speedup(medium_corpus):
    """Full pruning at least halves wall time versus the bound rule alone.

    Wall times are the median of three runs per configuration to damp
    scheduler noise; the compared results themselves must be identical.
    """
    data = medium_corpus
    bound_only = MiningConfig(
        max_edges=6,
        top_k=5,
        min_freq_p=0.5,
        use_subgraph_prune=False,
        use_supergraph_prune=False,
        behavior="planted",
    )

    def timed(cfg):
        times = []
        result = None
        for _ in range(3):
            started = time.monotonic()
            result = mine(data.positives, data.negatives, cfg)
            times.append(time.monotonic() - started)
        return sorted(times)[1], result

    full_time, full_result = timed(BENCH_CFG)
    bound_time, bound_result = timed(bound_only)
    assert full_result.max_score == pytest.approx(bound_result.max_score, abs=1e-12)
    assert {sp.pattern.key() for sp in full_result.maximizers} == {
        sp.pattern.key() for sp in bound_result.maximizers
    }
    speedup = bound_time / full_time
    ok = speedup >= 2.0 and full_result.stats.subgraph_prune_fires > 0
    _report(
        "pruning speedup vs bound-only",
        ok,
        f"full {full_time:.2f}s vs bound-only {bound_time:.2f}s -> {speedup:.2f}x "
        f"({full_result.stats.subgraph_prune_fires} registry fires)",
    )
    assert ok


def test_score_function_properties():
    """Monotonicity grids for all variants; log-ratio extreme value exact."""
    ok = True
    n = 101
    grid = [i / (n - 1) for i in range(n)]
    for fn in (LogRatio(), GTest(), InfoGain()):
        vals = [[fn.score(x, y) for y in grid] for x in grid]
        for i in range(n):
            for j in range(n):
                if i + 1 < n and vals[i + 1][j] < vals[i][j] - 1e-12:
                    ok = False
                if j + 1 < n and vals[i][j + 1] > vals[i][j] + 1e-12:
                    ok = False
    extreme = abs(LogRatio().score(1.0, 0.0) - math.log(1e6)) <= 1e-9
    ok = ok and extreme
    _report("score function properties", ok, f"3 variants on 101x101 grid; ln(1e6) exact: {extreme}")
    assert ok
