"""Tour of the core model: temporal graphs, patterns, and subgraph witnesses.

Run:  python demos/01_temporal_graphs_and_sequences.py
"""

from tpmine import (
    canonical_pattern,
    is_t_connected,
    temporal_subgraph_test,
    validate,
)

# A temporal graph is a labeled directed multigraph whose edges carry
# distinct integer timestamps.  Think of nodes as system entities (processes,
# files, sockets) and edges as timestamped interactions between them.
trace = validate(
    "trace",
    ["Proc", "File", "Sock", "Proc", "File"],
    [
        (0, 1, 10),   # Proc writes File
        (1, 3, 12),   # File read by another Proc
        (3, 2, 15),   # that Proc opens a Sock
        (3, 4, 21),   # and writes a second File
        (0, 2, 30),   # first Proc reaches the Sock much later
    ],
)
print(trace)
print("T-connected:", is_t_connected(trace))

# T-connectivity means every timestamp prefix is connected.  Interleaving two
# unrelated interactions breaks it:
split = validate("split", ["A", "B", "C", "D"], [(0, 1, 1), (2, 3, 2), (1, 2, 3)])
print("disconnected prefix ->", is_t_connected(split))

# Patterns are temporal graphs with timestamps compacted to 1..|E|.  Any edge
# list with distinct timestamps canonicalizes into one:
pattern = canonical_pattern(
    {7: "Proc", 9: "File", 4: "Proc"},
    [(7, 9, 100), (9, 4, 250)],
)
print("canonical pattern:", pattern.text())

# Canonical form numbers nodes in first-visit order, so two patterns are
# equal exactly when their keys (labels plus edge endpoints) are equal.
other = canonical_pattern(["Proc", "File", "Proc"], [(0, 1, 1), (1, 2, 2)])
print("equal?", pattern.key() == other.key())

# The temporal subgraph test finds a witness embedding: a node map plus an
# order-preserving timestamp map.  It is the chronologically first match,
# found by binding the pattern's edges in time order to later data edges.
witness = temporal_subgraph_test(pattern, trace)
print("pattern occurs in trace:", witness)
