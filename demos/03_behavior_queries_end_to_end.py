"""Full behavior-query workflow: mine, search a big test graph, score.

Mined patterns become queries; each match in the test graph is an
identified instance carrying the time interval it spans.  An instance is
correct when that interval sits inside a ground-truth execution window, and
precision/recall summarize query quality.

Run:  python demos/03_behavior_queries_end_to_end.py
"""

import time

from tpmine import MiningConfig, generate_synthetic, mine, preset_spec
from tpmine.matcher import evaluate, find_instances

data = generate_synthetic(preset_spec("small", n_positive=40, n_negative=40), seed=11)
result = mine(data.positives, data.negatives, MiningConfig(max_edges=4, top_k=5))
queries = [sp.pattern for sp in result.ranked]
print(f"{len(queries)} queries; test graph has {data.test_graph.n_edges} edges "
      f"and {len(data.truth.entries)} true behavior executions")

# The window is the maximum instance duration in ticks (last - first edge
# time).  Sized from the longest known execution, it only drops matches too
# long to fit inside any true execution, so it cuts work, never recall.
longest = max(end - start for _, start, end in data.truth.entries)
started = time.monotonic()
instances = []
for q in queries:
    instances.extend(find_instances(q, data.test_graph, window=longest))
print(f"search took {time.monotonic() - started:.2f}s, "
      f"{len(instances)} identified instances")

report = evaluate({data.spec.behavior: instances}, data.truth)
for row in report.per_behavior:
    print(f"behavior {row.behavior!r}: precision {row.precision:.3f} "
          f"recall {row.recall:.3f} ({row.correct}/{row.identified} correct, "
          f"{row.discovered}/{row.truth_instances} discovered)")

# Query size tradeoff: longer queries never lose precision on this corpus.
print("\nquery-size sweep (max edges -> precision/recall):")
for max_edges in (1, 2, 3, 4, 5, 6):
    r = mine(data.positives, data.negatives, MiningConfig(max_edges=max_edges, top_k=5))
    inst = []
    for sp in r.ranked:
        inst.extend(find_instances(sp.pattern, data.test_graph, window=longest))
    ev = evaluate({data.spec.behavior: inst}, data.truth)
    print(f"  {max_edges}: precision {ev.precision:.3f} recall {ev.recall:.3f}")
