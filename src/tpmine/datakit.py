"""Dataset file format, ingestion, synthetic corpora, and report serialization.

The on-disk dataset format is line oriented and diff friendly::

    g <id> <positive|negative|test>
    v <nodeIndex> <label>
    e <src> <dst> <timestamp>

Node indices are dense from 0 within each graph; labels are any
non-whitespace text.  Events that share a timestamp are either rejected
(default: the data model assumes a total order) or sequentialized
deterministically in file order.

The synthetic generator builds labeled activity corpora: every positive
graph embeds one instance of a planted behavior pattern (its edges
interleaved with background noise, order preserved), negatives carry
background only, and a test graph strings together shifted behavior episodes
separated by background traffic, with ground-truth intervals recorded for
each episode.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, fields, replace
from itertools import accumulate
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .graphs import (GraphError, TemporalGraph, TemporalPattern, TieRejected, canonical_pattern, validate,
                     validate_columns)
from .matcher import GroundTruth
from .miner import MiningConfig, MiningResult
from .scoring import ScoreFunction, ScoredPattern, make_score_function


class ParseError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class SpecInvalid(ValueError):
    pass


ROLES = ("positive", "negative", "test")


# The line breaks of ``str.splitlines`` other than "\n"; a block holding one is read line by line.
_OTHER_LINE_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def parse_dataset(text: str, tie_policy: str = "reject") -> list[tuple[str, TemporalGraph]]:
    """Parse a dataset document into (role, graph) pairs, in file order; each graph's edge
    columns are ordered and checked once, at its end, by ``graphs.validate_columns``.

    The text is cut into blocks before every line that starts with ``g ``.  A regular block
    (see ``_regular_block``) is read with one ``str.split`` per record run; every other block,
    and every block whose graph fails a check, goes through ``_parse_lines``, which names the
    line at fault.
    """
    graphs: list[tuple[str, TemporalGraph]] = []
    seen_ids: set[str] = set()
    cuts = [0]
    i = text.find("\ng ")
    while i >= 0:
        cuts.append(i + 1)
        i = text.find("\ng ", i + 1)
    cuts.append(len(text))
    line = 1  # number of the block's first line
    for a, b in zip(cuts, cuts[1:]):
        parsed = _regular_block(text, a, b, seen_ids, tie_policy)
        if parsed is None:
            lines = text[a:b].splitlines()
            _parse_lines(lines, line, graphs, seen_ids, tie_policy)
            line += len(lines)
        else:
            graphs.append(parsed)
            seen_ids.add(parsed[1].id)
            line += text.count("\n", a, b)
    return graphs


def _regular_block(text: str, a: int, b: int, seen_ids: set[str],
                   tie_policy: str) -> Optional[tuple[str, TemporalGraph]]:
    """(role, graph) of the block text[a:b] if it is regular and its graph passes every check,
    else None.

    A regular block is a header ``g <id> <role>`` with a known role and a new id, then only
    ``v`` lines with dense indices, then only ``e`` lines with integer fields.  Every line
    starts with its tag and a space and ends in "\n", and no other line break occurs.  The
    tags then sit exactly at every third (fourth) token of the ``v`` (``e``) run: no label is
    ``v`` and ``int`` reads no tag, so each line holds exactly the tokens the line loop reads.
    """
    if not text.startswith("g ", a) or text[b - 1] != "\n" or any(text.find(c, a, b) >= 0
                                                                   for c in _OTHER_LINE_BREAKS):
        return None
    h = text.index("\n", a)
    header = text[a:h].split()
    if len(header) != 3 or header[2] not in ROLES or header[1] in seen_ids:
        return None
    e = text.find("\ne ", h, b) + 1 or b  # start of the first 'e' line
    nv, ne = text.count("\n", h + 1, e), text.count("\n", e, b)
    if text.count("\nv ", h, e) != nv or text.count("\ne ", e - 1, b) != ne:
        return None
    v, edges = text[h + 1:e].split(), text[e:b].split()
    if (len(v) != 3 * nv or v[0::3].count("v") != nv or "v" in v[2::3]
            or len(edges) != 4 * ne or edges[0::4].count("e") != ne):
        return None
    try:
        if list(map(int, v[1::3])) != list(range(nv)):
            return None
        srcs, dsts, ts = [list(map(int, edges[k::4])) for k in (1, 2, 3)]
    except ValueError:
        return None
    try:
        return header[2], validate_columns(header[1], v[2::3], srcs, dsts, ts, tie_policy=tie_policy)
    except ValueError:
        return None


def _parse_lines(lines: list[str], first: int, graphs: list[tuple[str, TemporalGraph]],
                 seen_ids: set[str], tie_policy: str) -> None:
    """Parse ``lines``, line ``first`` of the document onward, one line at a time, appending
    each (role, graph) to ``graphs`` and its id to ``seen_ids``; a fault raises ParseError
    (TieRejected for a tie) naming its line."""
    gid: Optional[str] = None
    role = ""
    labels: list[str] = []
    srcs, dsts, ts = [], [], []  # edge columns, in file order
    start_line = 0

    def flush(line: int):
        if gid is None:
            return
        try:
            graphs.append((role, validate_columns(gid, labels, srcs, dsts, ts, tie_policy=tie_policy)))
        except TieRejected as exc:
            raise TieRejected(f"line {line}: graph {gid!r} (started line {start_line}): {exc}") from None
        except ValueError as exc:
            raise ParseError(f"graph {gid!r} (started line {start_line}): {exc}", line) from exc

    lineno = first - 1
    for lineno, raw in enumerate(lines, start=first):
        parts = raw.split()
        if not parts:
            continue
        tag = parts[0]
        if tag == "e":
            if gid is None:
                raise ParseError("'e' line before any 'g' line", lineno)
            if len(parts) != 4:
                raise ParseError("expected 'e <src> <dst> <t>'", lineno)
            try:
                src, dst, t = int(parts[1]), int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError("edge fields must be integers", lineno) from None
            n = len(labels)
            if not (0 <= src < n and 0 <= dst < n):
                raise ParseError(f"edge endpoint outside declared nodes 0..{n - 1}", lineno)
            srcs.append(src)
            dsts.append(dst)
            ts.append(t)
        elif tag == "v":
            if gid is None:
                raise ParseError("'v' line before any 'g' line", lineno)
            if len(parts) != 3:
                raise ParseError("expected 'v <nodeIndex> <label>'", lineno)
            try:
                idx = int(parts[1])
            except ValueError:
                raise ParseError(f"node index {parts[1]!r} is not an integer", lineno) from None
            if idx != len(labels):
                raise ParseError(f"node index {idx} is not dense (expected {len(labels)})", lineno)
            labels.append(parts[2])
        elif tag == "g":
            flush(lineno - 1)
            if len(parts) != 3 or parts[2] not in ROLES:
                raise ParseError("expected 'g <id> <positive|negative|test>'", lineno)
            gid, role = parts[1], parts[2]
            if gid in seen_ids:
                raise ParseError(f"duplicate graph id {gid!r}", lineno)
            seen_ids.add(gid)
            labels, srcs, dsts, ts = [], [], [], []
            start_line = lineno
        elif not tag.startswith("#"):
            raise ParseError(f"unknown record type {tag!r}", lineno)
    flush(lineno)


def load_dataset(
    path: str | Path, tie_policy: str = "reject"
) -> tuple[list[TemporalGraph], list[TemporalGraph], list[TemporalGraph]]:
    """Load and split a dataset file into (positives, negatives, test graphs)."""
    graphs = parse_dataset(Path(path).read_text(), tie_policy)
    positives = [g for role, g in graphs if role == "positive"]
    negatives = [g for role, g in graphs if role == "negative"]
    tests = [g for role, g in graphs if role == "test"]
    return positives, negatives, tests


def dump_dataset(graphs: Iterable[tuple[str, TemporalGraph]]) -> str:
    lines = []
    for role, g in graphs:
        lines.append(f"g {g.id} {role}")
        for i, lab in enumerate(g.labels):
            lines.append(f"v {i} {lab}")
        lines.extend(f"e {src} {dst} {t}" for src, dst, t in zip(g.srcs, g.dsts, g.timestamps))
    return "\n".join(lines) + "\n"


def save_dataset(path: str | Path, graphs: Iterable[tuple[str, TemporalGraph]]) -> None:
    Path(path).write_text(dump_dataset(graphs))


# ---------------------------------------------------------------------------
# Synthetic corpora
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs for the synthetic corpus generator.

    Background graphs draw node labels from a skewed (Zipf-like) distribution
    over an alphabet of ``n_labels``.  On top of that, a pool of small
    recurring activity templates makes the background repetitive rather than
    uniformly random, the way monitored systems are: each template appears in
    a graph at most once (with probability ``template_presence``), on fresh
    nodes whose labels are exclusive to its position in that template.

    The planted behavior is a T-connected pattern of ``planted_edges`` edges;
    its first ``planted_shared_nodes`` nodes reuse mid-frequency background
    labels while the alphabet lasts (so its shortest sub-patterns stay
    ambiguous), the rest use behavior-exclusive labels.
    """

    n_positive: int = 100
    n_negative: int = 100
    nodes: int = 65
    edges: int = 120
    n_labels: int = 95
    zipf_s: float = 1.2
    planted_edges: int = 6
    planted_labels: Optional[tuple[str, ...]] = None
    planted_shared_nodes: int = 2
    n_templates: int = 6
    template_edges_lo: int = 4
    template_edges_hi: int = 7
    template_presence: float = 1.0
    test_episodes: int = 40
    test_segment_edges: int = 50
    behavior: str = "planted"

    def validated(self) -> "SyntheticSpec":
        """This spec, if every field has its declared type and range; otherwise SpecInvalid.

        Labels and the behavior name must be non-empty and free of whitespace, so that the
        dataset and ground-truth files the corpus is written to read back unchanged.
        """
        for f in fields(self):  # f.type is the annotation's text: annotations are postponed here
            value = getattr(self, f.name)
            if f.type == "int" and type(value) is not int:
                raise SpecInvalid(f"{f.name} must be an integer, got {value!r}")
            if f.type == "float" and not (type(value) in (int, float) and math.isfinite(value)):
                raise SpecInvalid(f"{f.name} must be a finite number, got {value!r}")
        if self.planted_labels is not None:
            if not (isinstance(self.planted_labels, tuple) and self.planted_labels):
                raise SpecInvalid(f"planted_labels must be a non-empty list, got {self.planted_labels!r}")
            for label in self.planted_labels:
                _check_token("planted label", label)
        _check_token("behavior", self.behavior)
        if self.n_positive < 0 or self.n_negative < 0:
            raise SpecInvalid("graph counts must be non-negative")
        if self.nodes < 2 or self.edges < 1:
            raise SpecInvalid("background graphs need at least 2 nodes and 1 edge")
        if self.n_labels < 4:
            raise SpecInvalid("label alphabet must have at least 4 labels")
        if self.planted_edges < 1:
            raise SpecInvalid("the planted pattern needs at least 1 edge")
        if self.planted_shared_nodes < 0 or self.n_templates < 0:
            raise SpecInvalid("planted_shared_nodes and n_templates must be non-negative")
        if not (1 <= self.template_edges_lo <= self.template_edges_hi):
            raise SpecInvalid("bad template size range")
        if not (0.0 <= self.template_presence <= 1.0):
            raise SpecInvalid("template_presence must lie in [0, 1]")
        if self.test_episodes < 0 or self.test_segment_edges < 0:
            raise SpecInvalid("test graph sizes must be non-negative")
        try:
            finite = math.isfinite(_zipf_cum_weights(self.n_labels, self.zipf_s)[-1])
        except (OverflowError, ZeroDivisionError):
            finite = False
        if not finite:
            raise SpecInvalid(f"zipf_s {self.zipf_s} overflows the weights of {self.n_labels} labels")
        return self


def _check_token(what: str, value) -> None:
    """SpecInvalid unless value is a non-empty string without whitespace (one file field)."""
    if not (isinstance(value, str) and value.split() == [value]):
        raise SpecInvalid(f"{what} must be non-empty text without whitespace, got {value!r}")


PRESETS = {
    "small": dict(nodes=12, edges=18, n_labels=15, n_templates=3,
                  template_edges_lo=3, template_edges_hi=4,
                  test_episodes=25, test_segment_edges=12),
    "medium": dict(nodes=65, edges=30, n_labels=95, n_templates=24,
                   template_edges_lo=5, template_edges_hi=5,
                   test_episodes=40, test_segment_edges=50),
    "large": dict(nodes=280, edges=730, n_labels=270, n_templates=10,
                  test_episodes=60, test_segment_edges=200),
}


def preset_spec(name: str, **overrides) -> SyntheticSpec:
    if name not in PRESETS:
        raise SpecInvalid(f"unknown preset {name!r}; expected one of {sorted(PRESETS)}")
    params = dict(PRESETS[name])
    params.update(overrides)
    return SyntheticSpec(**params).validated()


@dataclass
class SyntheticDataset:
    positives: list[TemporalGraph]
    negatives: list[TemporalGraph]
    test_graph: TemporalGraph
    truth: GroundTruth
    planted: TemporalPattern
    spec: SyntheticSpec


def _zipf_cum_weights(n: int, s: float) -> list[float]:
    """Cumulative Zipf weights: the table ``rng.choices(weights=...)`` would rebuild on every call."""
    return list(accumulate(1.0 / (r + 1) ** s for r in range(n)))


def _randbelow(rng: random.Random, n: int) -> int:
    """``rng.randrange(n)`` for n >= 1, drawn from ``rng.getrandbits`` exactly as CPython's
    ``Random._randbelow_with_getrandbits`` draws it, without randrange's argument handling.
    n = 0 would loop forever (``getrandbits(0)`` is 0), where randrange raises."""
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _distinct_pair(rng: random.Random, n: int) -> tuple[int, int]:
    """Two distinct node indices below n: the first draw, then redraws of the second until it differs."""
    u = _randbelow(rng, n)
    v = _randbelow(rng, n)
    while v == u:
        v = _randbelow(rng, n)
    return u, v


def _random_structure(rng: random.Random, n_edges: int) -> tuple[int, tuple, tuple]:
    """Random T-connected shape: node count plus source and destination columns (edge k at
    time k+1); labels are assigned later."""
    n_nodes = 2
    srcs, dsts = [0], [1]
    for _ in range(2, n_edges + 1):
        kind = rng.choice(["forward", "backward", "inward"])
        if kind == "forward":
            src, dst = rng.randrange(n_nodes), n_nodes
            n_nodes += 1
        elif kind == "backward":
            src, dst = n_nodes, rng.randrange(n_nodes)
            n_nodes += 1
        else:
            src, dst = _distinct_pair(rng, n_nodes)
        srcs.append(src)
        dsts.append(dst)
    return n_nodes, tuple(srcs), tuple(dsts)


def _assemble_graph(
    rng: random.Random,
    gid: str,
    spec: SyntheticSpec,
    alphabet: Sequence[str],
    cum_weights: Sequence[float],
    instances: Sequence[TemporalPattern],
) -> TemporalGraph:
    """Background edges plus embedded instances, merged into one time line.

    Every edge gets a random sort key; an instance's edges get sorted keys so
    their relative order survives the merge.  Timestamps then advance by
    random small steps, keeping the total order strict.
    """
    node_labels = rng.choices(alphabet, cum_weights=cum_weights, k=spec.nodes)
    stream: list[tuple[float, int, int]] = []
    for _ in range(spec.edges):
        u, v = _distinct_pair(rng, spec.nodes)
        stream.append((rng.random(), u, v))
    for inst in instances:
        base = len(node_labels)
        node_labels.extend(inst.labels)
        keys = sorted(rng.random() for _ in range(inst.n_edges))
        for src, dst, key in zip(inst.srcs, inst.dsts, keys):
            stream.append((key, base + src, base + dst))
    stream.sort(key=itemgetter(0))
    t = 1 + _randbelow(rng, 5)
    edges = []
    for _, u, v in stream:
        edges.append((u, v, t))
        t += 1 + _randbelow(rng, 3)
    return validate(gid, node_labels, edges)


def _assemble_test_graph(
    rng: random.Random,
    spec: SyntheticSpec,
    alphabet: Sequence[str],
    cum_weights: Sequence[float],
    planted: TemporalPattern,
    templates: Sequence[TemporalPattern],
) -> tuple[TemporalGraph, GroundTruth]:
    """Episodes of the planted behavior separated by background traffic."""
    pool_size = max(spec.nodes * 3, 8)
    node_labels = rng.choices(alphabet, cum_weights=cum_weights, k=pool_size)
    edges: list[tuple[int, int, int]] = []
    truth_entries: list[tuple[str, int, int]] = []
    t = 1 + _randbelow(rng, 5)

    def advance() -> int:
        nonlocal t
        now = t
        t += 1 + _randbelow(rng, 3)
        return now

    def background_burst(count: int):
        for _ in range(count):
            u, v = _distinct_pair(rng, pool_size)
            edges.append((u, v, advance()))

    def instance_burst(inst: TemporalPattern, mix: int) -> tuple[int, int]:
        base = len(node_labels)
        node_labels.extend(inst.labels)
        stream: list[tuple[float, int, int, bool]] = []
        keys = sorted(rng.random() for _ in range(inst.n_edges))
        for src, dst, key in zip(inst.srcs, inst.dsts, keys):
            stream.append((key, base + src, base + dst, True))
        for _ in range(mix):
            u, v = _distinct_pair(rng, pool_size)
            stream.append((rng.random(), u, v, False))
        stream.sort(key=itemgetter(0))
        span = []
        for _, u, v, is_planted in stream:
            now = advance()
            edges.append((u, v, now))
            if is_planted:
                span.append(now)
        return (min(span), max(span))

    for _ in range(spec.test_episodes):
        background_burst(spec.test_segment_edges)
        if templates and rng.random() < 0.5:
            instance_burst(templates[rng.randrange(len(templates))], mix=2)
        start, end = instance_burst(planted, mix=spec.test_segment_edges // 8)
        truth_entries.append((spec.behavior, start, end))
    background_burst(spec.test_segment_edges)
    graph = validate("test-0", node_labels, edges)
    return graph, GroundTruth(tuple(truth_entries))


def generate_synthetic(spec: SyntheticSpec, seed: int = 0) -> SyntheticDataset:
    """Deterministic synthetic corpus with a planted behavior.

    Every positive graph contains exactly one instance of the planted
    pattern, so its frequency in the positives is 1 by construction;
    negatives share the same background process and never contain it as a
    whole (short sub-patterns may still occur by chance, which is the point).
    """
    spec = spec.validated()
    rng = random.Random(seed)
    alphabet = [f"L{i:03d}" for i in range(spec.n_labels)]
    cum_weights = _zipf_cum_weights(spec.n_labels, spec.zipf_s)

    n_nodes, planted_srcs, planted_dsts = _random_structure(rng, spec.planted_edges)
    if spec.planted_labels is not None:
        pool = list(spec.planted_labels)
        planted_node_labels = [pool[i % len(pool)] for i in range(n_nodes)]
    else:
        mid = spec.n_labels // 3
        planted_node_labels = []
        for i in range(n_nodes):
            if i < spec.planted_shared_nodes and mid + i < spec.n_labels:
                planted_node_labels.append(alphabet[mid + i])
            else:
                planted_node_labels.append(f"P{i}")
    planted = TemporalPattern("planted", planted_node_labels, planted_srcs, planted_dsts,
                              tuple(range(1, spec.planted_edges + 1)))

    templates = []
    for ti in range(spec.n_templates):
        # Recurring background activities are pipelines with position-
        # exclusive labels: a setup chain whose last node then fans out to a
        # few artifacts.  One instance per graph, and later traffic never
        # reuses an earlier position's label.
        size = rng.randint(spec.template_edges_lo, spec.template_edges_hi)
        # Edge k runs to node k at time k, from node k-1 along the chain, then from its end.
        chain = 2 if size > 2 else size
        ticks = tuple(range(1, size + 1))
        t_srcs = tuple(range(chain)) + (chain,) * (size - chain)
        t_labels = [f"T{ti:02d}{chr(97 + j)}" for j in range(size + 1)]
        templates.append(TemporalPattern(f"template-{ti}", t_labels, t_srcs, ticks, ticks))

    def noise_templates() -> list[TemporalPattern]:
        # Each recurring background activity shows up at most once per graph.
        return [t for t in templates if rng.random() < spec.template_presence]

    positives = [_assemble_graph(rng, f"pos-{i:04d}", spec, alphabet, cum_weights, noise_templates() + [planted])
                 for i in range(spec.n_positive)]
    negatives = [_assemble_graph(rng, f"neg-{i:04d}", spec, alphabet, cum_weights, noise_templates())
                 for i in range(spec.n_negative)]
    test_graph, truth = _assemble_test_graph(rng, spec, alphabet, cum_weights, planted, templates)
    return SyntheticDataset(positives=positives, negatives=negatives, test_graph=test_graph, truth=truth,
                            planted=planted, spec=spec)


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------


# report key (camelCase) -> score-function attribute, for every parameter of any score function
_SCORE_PARAMS = {"epsilon": "epsilon", "scale": "scale", "posPrior": "pos_prior"}


def _score_fn_to_dict(fn: ScoreFunction) -> dict:
    params = {key: getattr(fn, attr) for key, attr in _SCORE_PARAMS.items() if hasattr(fn, attr)}
    return {"name": fn.name, **params}


def score_fn_from_dict(d: dict) -> ScoreFunction:
    """The score function a report's ``config.score`` describes; inverse of _score_fn_to_dict.
    Raises ParseError unless ``d`` is an object naming a known score function whose other keys
    are its parameters, with numeric values in the ranges ``MiningConfig`` accepts."""
    name = json_value(d, "name", what="report config.score")
    try:
        fn = make_score_function(name)
        params = {key: value for key, value in d.items() if key != "name"}
        for key, value in params.items():
            if not hasattr(fn, _SCORE_PARAMS.get(key, "")):
                raise ValueError(f"{key!r} is not a parameter of {name}")
            if type(value) not in (int, float):
                raise ValueError(f"{key} is not a number")
        fn = replace(fn, **{_SCORE_PARAMS[key]: value for key, value in params.items()})
        MiningConfig(score_fn=fn).validated()
    except ValueError as exc:
        raise ParseError(f"report config.score: {exc}") from None
    return fn


def config_to_dict(cfg: MiningConfig) -> dict:
    return {
        "maxEdges": cfg.max_edges,
        "topK": cfg.top_k,
        "score": _score_fn_to_dict(cfg.score_fn),
        "pruning": {
            "bound": cfg.use_bound_prune,
            "subgraph": cfg.use_subgraph_prune,
            "supergraph": cfg.use_supergraph_prune,
        },
        "embeddingCap": cfg.embedding_cap,
        "minFreqP": cfg.min_freq_p,
        "behavior": cfg.behavior,
        "seed": cfg.seed,
    }


def scored_pattern_to_dict(sp: ScoredPattern) -> dict:
    p = sp.pattern
    return {
        "edges": [
            {"src": src, "dst": dst, "t": t, "srcLabel": p.labels[src], "dstLabel": p.labels[dst]}
            for src, dst, t in zip(p.srcs, p.dsts, p.timestamps)
        ],
        "score": sp.score,
        "freqP": sp.freq_p,
        "freqN": sp.freq_n,
        "interest": sp.interest,
    }


def pattern_from_dict(d: dict, graph_id: str = "query") -> TemporalPattern:
    """The canonical pattern a report entry's edge list describes.

    Raises ParseError unless ``edges`` is a list of objects with integer ``src``, ``dst``
    and ``t`` and string ``srcLabel`` and ``dstLabel``, or when a node carries two labels
    or the node ids are not 0..n-1; DuplicateTimestamp when edges share a timestamp.
    """
    edges = json_value(d, "edges", what=graph_id)
    if not isinstance(edges, list):
        raise ParseError(f"{graph_id}: edges is not a list")
    labels: dict[int, str] = {}
    triples = []
    for e in edges:
        if not (isinstance(e, dict) and all(type(e.get(k)) is int for k in ("src", "dst", "t"))
                and all(type(e.get(k)) is str for k in ("srcLabel", "dstLabel"))):
            raise ParseError(f"{graph_id}: edge {e!r} needs integer src, dst and t and string srcLabel and dstLabel")
        for node, label in ((e["src"], e["srcLabel"]), (e["dst"], e["dstLabel"])):
            if labels.setdefault(node, label) != label:
                raise ParseError(f"{graph_id}: node {node} is labelled both {labels[node]!r} and {label!r}")
        triples.append((e["src"], e["dst"], e["t"]))
    missing = set(range(len(labels))) - set(labels)
    if missing:
        raise ParseError(f"{graph_id}: node ids are not 0..{len(labels) - 1}; {min(missing)} is missing")
    return canonical_pattern(labels, triples, graph_id, strict=False)


def result_to_dict(result: MiningResult) -> dict:
    stats = {
        "patternsVisited": result.stats.patterns_visited,
        "boundPruneFires": result.stats.bound_prune_fires,
        "subgraphPruneFires": result.stats.subgraph_prune_fires,
        "supergraphPruneFires": result.stats.supergraph_prune_fires,
        "subisoTests": result.stats.subiso_tests,
        "residualTests": result.stats.residual_tests,
        "wallTime": result.stats.wall_time,
    }
    return {
        "config": config_to_dict(result.config),
        "patterns": [scored_pattern_to_dict(sp) for sp in result.ranked],
        "maxScore": result.max_score,
        "maximizers": [scored_pattern_to_dict(sp) for sp in result.maximizers],
        "stats": stats,
    }


def save_report(result: MiningResult, path: str | Path) -> None:
    Path(path).write_text(json.dumps(result_to_dict(result), indent=2, sort_keys=True) + "\n")


def load_report(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


def json_value(doc, *path: str, what: str = "report"):
    """``doc[path[0]][path[1]]...`` of a parsed JSON file.

    Raises ParseError, naming the step, when a step is not a JSON object or
    lacks its key.
    """
    for depth, key in enumerate(path):
        if not isinstance(doc, dict):
            raise ParseError(f"{'.'.join((what,) + path[:depth])} is not a JSON object")
        if key not in doc:
            raise ParseError(f"{what} lacks key {'.'.join(path[:depth + 1])!r}")
        doc = doc[key]
    return doc


def report_queries(report: dict) -> list[TemporalPattern]:
    """The report's patterns as queries ``query-0``, ``query-1``, ...; a malformed or edgeless one
    raises ParseError."""
    patterns = json_value(report, "patterns")
    if not isinstance(patterns, list):
        raise ParseError("report.patterns is not a JSON list")
    queries = []
    for i, d in enumerate(patterns):
        try:
            queries.append(pattern_from_dict(d, graph_id=f"query-{i}"))
        except GraphError as exc:
            raise ParseError(f"query-{i}: {exc}") from None
        if not queries[-1].n_edges:
            raise ParseError(f"query-{i}: the pattern has no edges")
    return queries
