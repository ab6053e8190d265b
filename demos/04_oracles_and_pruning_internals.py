"""A look under the hood: brute-force oracles and residual signatures.

The package ships deliberately slow reference implementations used by the
test suite.  This script cross-checks the fast paths against them on a small
random universe, and shows why residual signatures carry the full per-graph
size multisets rather than just the compressed integer.

Run:  python demos/04_oracles_and_pruning_internals.py
"""

import random
from bisect import bisect_right

from tpmine import MiningConfig, mine, validate
from tpmine.graphs import canonical_pattern
from tpmine.growth import EmbeddingTable, table_entries
from tpmine.oracle import oracle_best_score, oracle_embeddings, oracle_subgraph_test
from tpmine.pruning import residual_signature, signatures_equivalent
from tpmine.scoring import LogRatio
from tpmine.sequences import find_embeddings, temporal_subgraph_test


def random_graph(rng, gid):
    n = rng.randint(3, 5)
    labels = [rng.choice("ABCD") for _ in range(n)]
    edges, t = [], 0
    for _ in range(rng.randint(3, 7)):
        t += rng.randint(1, 3)
        u, v = rng.sample(range(n), 2)
        edges.append((u, v, t))
    return validate(gid, labels, edges)


rng = random.Random(5)
positives = [random_graph(rng, f"p{i}") for i in range(4)]
negatives = [random_graph(rng, f"n{i}") for i in range(4)]

result = mine(positives, negatives, MiningConfig(max_edges=3, top_k=3))
best, argmax = oracle_best_score(positives, negatives, 3, LogRatio())
print(f"miner max score   : {result.max_score:.6f}")
print(f"exhaustive optimum: {best:.6f}")
print(f"same maximizer set: "
      f"{ {sp.pattern.key() for sp in result.maximizers} == {p.key() for p in argmax.values()} }")

# Subgraph testing: the miner's first-match test and the backtracking oracle
# always agree.
agreements = 0
for _ in range(200):
    g = random_graph(rng, "x")
    p = canonical_pattern(["A", "B"], [(0, 1, 1)])
    agreements += (temporal_subgraph_test(p, g) is None) == (oracle_subgraph_test(p, g) is None)
print(f"\nsubgraph test agreement on 200 spot checks: {agreements}/200")

# Residual signatures: the integer is a fast necessary filter, but distinct
# residual structures can collide on it.  The canonical collision:
G = validate("G", ["A", "B", "C", "A", "B"], [(0, 1, 1), (1, 2, 2), (1, 2, 3), (3, 4, 4)])
g1 = canonical_pattern(["A", "B"], [(0, 1, 1)])
g2 = canonical_pattern(["A", "B", "C"], [(0, 1, 1), (1, 2, 2)])


def sig(p):
    return residual_signature(EmbeddingTable({G.id: table_entries(G, find_embeddings(p, G))}), [G])


def direct_sizes(p):
    # residual size of every match, recounted from the brute-force enumeration
    return sorted(G.n_edges - bisect_right(G.timestamps, emb.max_data_time) for emb in oracle_embeddings(p, G))


s1, s2 = sig(g1), sig(g2)
print(f"\nresidual integers: {s1.i_value} vs {s2.i_value} (equal)")
print(f"residual sizes: {s1.sizes} vs {s2.sizes} (different)")
print(f"direct comparison: {direct_sizes(g1) == direct_sizes(g2)}")
print(f"integers equal:         {s1.i_value == s2.i_value}")
print(f"signatures_equivalent:  {signatures_equivalent(s1, s2)}")
print("pruning compares the full profiles, so its decisions never trust a collision.")
