#!/usr/bin/env python3
"""Whole-graph matching against the oracle on one long test stream, per corpus seed.

    python3 bench/reference.py [corpus seeds...]        (default: 0 1 2)

For each corpus seed: generates the medium corpus with a 16-episode test
stream (about 1,100 edges), mines it with the benchmark's settings, then
times ``matcher.find_instances`` without a window and
``oracle.oracle_embeddings`` on every mined query and checks that the two
instance sets are equal.  Gives the README's whole-graph reference figures;
seeds whose behaviour has 7 nodes take 30-50 s each.
"""

from __future__ import annotations

import sys
import time

import checks
import run

EPISODES = 16


def main(argv) -> int:
    tp = run.load_tpmine()
    seeds = [int(a) for a in argv] or [0, 1, 2]
    for seed in seeds:
        data = tp.datakit.generate_synthetic(tp.datakit.preset_spec("medium", test_episodes=EPISODES), seed)
        cfg = tp.miner.MiningConfig(max_edges=6, top_k=5, min_freq_p=0.5)
        ranked = tp.miner.mine(data.positives, data.negatives, cfg).ranked
        g = data.test_graph
        queries = [sp.pattern for sp in ranked]
        budget = checks.oracle_budget(tp, [g], queries)
        engine = oracle = 0.0
        equal = True
        for q in queries:
            start = time.perf_counter()
            found = {inst.embedding for inst in tp.matcher.find_instances(q, g)}
            engine += time.perf_counter() - start
            start = time.perf_counter()
            reference = set(tp.oracle.oracle_embeddings(q, g, budget))
            oracle += time.perf_counter() - start
            equal &= found == reference
        print(f"corpus seed {seed}: behaviour with {data.planted.n_nodes} nodes, {g.n_edges}-edge stream, "
              f"query edges {[q.n_edges for q in queries]}: find_instances {engine:.2f} s "
              f"({engine / len(queries):.3f} s/query), oracle {oracle:.3f} s "
              f"({1000 * oracle / len(queries):.1f} ms/query), identical sets: {equal}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
