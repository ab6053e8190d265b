"""Dataset format round-trips, tie policies, replication, and the generator."""

import gc
import hashlib
import json
import random
import re

import pytest

from tpmine.cli import main
from tpmine.datakit import (
    _randbelow,
    ParseError,
    SpecInvalid,
    SyntheticSpec,
    TieRejected,
    config_to_dict,
    dump_dataset,
    generate_synthetic,
    load_dataset,
    parse_dataset,
    preset_spec,
    save_dataset,
    score_fn_from_dict,
)
from tpmine.graphs import MAX_TIMESTAMP, GraphError, canonical_pattern, ordered_columns, validate
from tpmine.matcher import find_instances
from tpmine.miner import MiningConfig, mine
from tpmine.scoring import GTest, InfoGain, LogRatio
from tpmine.sequences import find_embeddings

from conftest import edge_columns, random_graph, replicate


class TestFormat:
    def test_roundtrip(self, tmp_path):
        rng = random.Random(1)
        graphs = [("positive", random_graph(rng, graph_id="a")),
                  ("negative", random_graph(rng, graph_id="b")),
                  ("test", random_graph(rng, graph_id="c"))]
        text = dump_dataset(graphs)
        parsed = parse_dataset(text)
        assert dump_dataset(parsed) == text

    def test_well_formed_two_graphs(self):
        text = "g one positive\nv 0 A\nv 1 B\ne 0 1 3\ng two negative\nv 0 C\nv 1 D\ne 0 1 1\n"
        parsed = parse_dataset(text)
        assert [(role, g.id) for role, g in parsed] == [("positive", "one"), ("negative", "two")]

    def test_edge_before_nodes(self):
        text = "g one positive\ne 0 1 3\nv 0 A\nv 1 B\n"
        with pytest.raises(ParseError) as err:
            parse_dataset(text)
        assert err.value.line == 2

    def test_non_dense_node_index(self):
        with pytest.raises(ParseError):
            parse_dataset("g one positive\nv 1 A\n")

    def test_unknown_record(self):
        with pytest.raises(ParseError):
            parse_dataset("x nonsense\n")

    def test_bad_role(self):
        with pytest.raises(ParseError):
            parse_dataset("g one training\n")

    def test_duplicate_graph_id(self):
        text = "g one positive\nv 0 A\ng one negative\nv 0 B\n"
        with pytest.raises(ParseError, match="duplicate graph id"):
            parse_dataset(text)

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\ng one positive\nv 0 A\nv 1 B\n# middle\ne 0 1 3\n"
        assert len(parse_dataset(text)) == 1

    def test_load_dataset_splits_roles(self, tmp_path):
        path = tmp_path / "d.tg"
        path.write_text(
            "g p positive\nv 0 A\nv 1 B\ne 0 1 1\n"
            "g n negative\nv 0 A\nv 1 B\ne 0 1 1\n"
            "g t test\nv 0 A\nv 1 B\ne 0 1 1\n"
        )
        pos, neg, tests = load_dataset(path)
        assert [g.id for g in pos] == ["p"]
        assert [g.id for g in neg] == ["n"]
        assert [g.id for g in tests] == ["t"]


def _reference_parse(text, tie_policy):
    """Line-by-line reference parser: (role, id, labels, [(src, dst, t)]) per graph.

    Errors come out as (error type, line number): a line error names its
    line, a graph error (timestamp range, then tie, then self-loop) the graph's
    last line.  Timestamps are range-checked as given, and again after
    ``inputOrder`` bumps them.
    """
    out, seen, state = [], set(), {"gid": None}

    class Failed(Exception):
        pass

    def fail(kind, line):
        raise Failed(kind, line)

    def flush(line):
        if state["gid"] is None:
            return
        if not all(0 <= t <= MAX_TIMESTAMP for _, _, t in state["edges"]):
            fail(ParseError, line)
        ordered = sorted(state["edges"], key=lambda e: e[2])
        if tie_policy == "reject":
            if any(a[2] == b[2] for a, b in zip(ordered, ordered[1:])):
                fail(TieRejected, line)
        else:
            bumped, prev = [], -1
            for src, dst, t in ordered:
                prev = max(t, prev + 1)
                bumped.append((src, dst, prev))
            ordered = bumped
        for src, dst, t in ordered:
            if src == dst or not 0 <= t <= MAX_TIMESTAMP:
                fail(ParseError, line)
        out.append((state["role"], state["gid"], state["labels"], ordered))

    lineno = 0
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            parts = raw.split()
            if not parts or parts[0].startswith("#"):
                continue
            tag, labels = parts[0], state.get("labels")
            if tag == "g":
                flush(lineno - 1)
                if len(parts) != 3 or parts[2] not in ("positive", "negative", "test") or parts[1] in seen:
                    fail(ParseError, lineno)
                seen.add(parts[1])
                state.update(gid=parts[1], role=parts[2], labels=[], edges=[])
            elif tag == "v":
                if state["gid"] is None or len(parts) != 3 or not re.fullmatch(r"[+-]?\d+", parts[1]):
                    fail(ParseError, lineno)
                if int(parts[1]) != len(labels):
                    fail(ParseError, lineno)
                labels.append(parts[2])
            elif tag == "e":
                if state["gid"] is None or len(parts) != 4:
                    fail(ParseError, lineno)
                if not all(re.fullmatch(r"[+-]?\d+", f) for f in parts[1:]):
                    fail(ParseError, lineno)
                src, dst, t = map(int, parts[1:])
                if not (0 <= src < len(labels) and 0 <= dst < len(labels)):
                    fail(ParseError, lineno)
                state["edges"].append((src, dst, t))
            else:
                fail(ParseError, lineno)
        flush(lineno)
    except Failed as exc:
        return exc.args
    return out


def _random_document(rng):
    """Small dataset text with unsorted edges, ties, self-loops, comments, blanks and late 'v' lines,
    plus at most two malformed lines."""
    lines = []
    for gi in range(rng.randint(1, 3)):
        lines.append(f"g g{gi} {rng.choice(['positive', 'negative', 'test'])}")
        n = rng.randint(1, 4)
        body = [f"v {i} {rng.choice('ABC')}" for i in range(n)]
        for _ in range(rng.randint(0, 6)):
            r = rng.random()
            t = -rng.randint(1, 3) if r < 0.04 else MAX_TIMESTAMP if r < 0.08 else rng.randint(0, 3 if r < 0.4 else 9)
            body.append(f"e {rng.randrange(n)} {rng.randrange(n)} {t}")
        if rng.random() < 0.2:  # one more node, declared after an edge that names it
            body.append(f"e {n} 0 {rng.randint(0, 9)}")
            body.append(f"v {n} D")
        for _ in range(rng.randint(0, 2)):
            body.insert(rng.randint(n, len(body)), rng.choice(["", "   ", "# comment", "  # e 0 1 2"]))
        lines.extend(body)
    for _ in range(rng.choice([0, 0, 1, 2])):
        bad = rng.choice([
            "e 0 1", "e 0 1 2 3", "e a 1 2", "e 0 1 2.5", "v 0", "v x A", "v 7 A", "v 0 A B",
            "g lonely", "g g0 positive", "g new training", "x 1 2", "e 9 0 1", "e 0 -1 4", "e -2 0 4",
        ])
        lines.insert(rng.randint(0, len(lines)), bad)
    return "\n".join(lines) + "\n"


def test_ingest_matches_reference_parser():
    rng = random.Random(42)
    outcomes = set()
    for _ in range(1500):
        text = _random_document(rng)
        for tie_policy in ("reject", "inputOrder"):
            want = _reference_parse(text, tie_policy)
            try:
                parsed = parse_dataset(text, tie_policy)
            except (ParseError, TieRejected) as exc:
                got = (type(exc), int(re.match(r"line (\d+): ", str(exc))[1]))
            else:
                got = [(role, g.id, list(g.labels), list(zip(g.srcs, g.dsts, g.timestamps)))
                       for role, g in parsed]
            assert got == want, text
            outcomes.add(want[0].__name__ if isinstance(want, tuple) else "ok")
    assert outcomes == {"ok", "ParseError", "TieRejected"}


class TestTies:
    def test_reject_policy(self):
        with pytest.raises(TieRejected):
            ordered_columns((0, 1), (1, 2), (5, 5), "reject")

    def test_input_order_breaks_tie_by_file_order(self):
        srcs, dsts, ts = ordered_columns((0, 1), (1, 2), (5, 5), "inputOrder")
        assert ts == (5, 6)
        assert list(zip(srcs, dsts)) == [(0, 1), (1, 2)]

    def test_no_ties_is_identity(self):
        columns = ((0, 1), (1, 2), (3, 7))
        assert ordered_columns(*columns, "inputOrder") == columns

    def test_stable_around_unrelated_event(self):
        srcs, dsts, ts = ordered_columns((0, 1, 2), (1, 2, 0), (5, 3, 5), "inputOrder")
        assert list(zip(srcs, dsts)) == [(1, 2), (0, 1), (2, 0)]
        assert list(ts) == sorted(ts) and len(set(ts)) == 3

    def test_load_with_tie_policy(self, tmp_path):
        path = tmp_path / "d.tg"
        path.write_text("g p positive\nv 0 A\nv 1 B\ne 0 1 5\ne 1 0 5\n")
        with pytest.raises(TieRejected):
            load_dataset(path)
        pos, _, _ = load_dataset(path, tie_policy="inputOrder")
        assert pos[0].timestamps == (5, 6)

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            ordered_columns((), (), (), "random")

    def test_negative_timestamps_rejected_before_sequencing(self):
        text = "g a positive\nv 0 A\nv 1 B\ne 0 1 -5\ne 1 0 -3\n"
        for tie_policy in ("reject", "inputOrder"):
            with pytest.raises(ParseError, match="timestamp -5 outside the supported range"):
                parse_dataset(text, tie_policy=tie_policy)
        # the range fault is reported before the tie at t=5
        with pytest.raises(GraphError, match="timestamp -5 outside"):
            validate("a", ["A", "B"], [(0, 1, -5), (1, 0, 5), (0, 1, 5)])


def _containers(obj) -> list:
    """obj and every tuple or dict inside it."""
    out = [obj]
    for item in out:
        items = item.values() if isinstance(item, dict) else item
        out += [v for v in items if isinstance(v, (tuple, dict))]
    return out


def test_pipeline_reads_only_the_edge_columns(tmp_path):
    """Loading, mining and matching build no edge objects, and the collector tracks no column.

    Each graph caches its edge indexes as at most nine flat columns, whatever its size; every
    column is built here explicitly, since a lookup builds only the columns it reads.
    """
    data = generate_synthetic(preset_spec("small"), seed=0)
    path = tmp_path / "all.tg"
    save_dataset(path, [("positive", g) for g in data.positives]
                 + [("negative", g) for g in data.negatives] + [("test", data.test_graph)])
    positives, negatives, tests = load_dataset(path)
    result = mine(positives, negatives, MiningConfig(max_edges=4, top_k=3, behavior="planted"))
    assert sum(len(find_instances(sp.pattern, tests[0])) for sp in result.ranked) > 0
    loaded = positives + negatives + tests
    for g in loaded:
        edge_columns(g), g.incident(), g.label_pair_index()
    assert not [g.id for g in loaded if "edges" in g._cache]
    gc.collect()
    assert not [g.id for g in loaded for col in (g.srcs, g.dsts, g.timestamps) if gc.is_tracked(col)]
    index_keys = {"src_positions", "src_offsets", "dst_positions", "dst_offsets", "by_pair",
                  "incident_positions", "incident_offsets", "label_ids", "label_pairs"}
    cached = [(g.id, key, g._cache[key]) for g in loaded for key in sorted(index_keys & g._cache.keys())]
    assert {key for _, key, _ in cached} == index_keys
    assert not [(gid, key) for gid, key, col in cached if _containers(col) != [col]]
    assert not [(gid, key) for gid, key, col in cached if gc.is_tracked(col)]


class TestReplicate:
    def test_identity_at_one(self):
        rng = random.Random(2)
        graphs = [random_graph(rng, graph_id="g0")]
        assert replicate(graphs, 1) == graphs

    def test_doubling_keeps_frequencies(self):
        rng = random.Random(3)
        graphs = [random_graph(rng, graph_id=f"g{i}", min_edges=3) for i in range(4)]
        doubled = replicate(graphs, 2)
        assert len(doubled) == 8
        assert len({g.id for g in doubled}) == 8
        p = canonical_pattern([graphs[0].labels[graphs[0].srcs[0]], graphs[0].labels[graphs[0].dsts[0]]],
                              [(0, 1, 1)])
        base_hits = sum(1 for g in graphs if find_embeddings(p, g, limit=1))
        doubled_hits = sum(1 for g in doubled if find_embeddings(p, g, limit=1))
        assert base_hits / len(graphs) == doubled_hits / len(doubled)

    def test_replication_does_not_change_mining_result(self):
        spec = preset_spec("small", n_positive=4, n_negative=4, test_episodes=0)
        data = generate_synthetic(spec, seed=5)
        cfg = MiningConfig(max_edges=2, top_k=3)
        base = mine(data.positives, data.negatives, cfg)
        dup = mine(replicate(data.positives, 2), replicate(data.negatives, 2), cfg)
        assert base.max_score == pytest.approx(dup.max_score, abs=1e-12)
        assert {sp.pattern.key() for sp in base.maximizers} == {
            sp.pattern.key() for sp in dup.maximizers
        }

    def test_bad_factor(self):
        with pytest.raises(ValueError):
            replicate([], 0)


# SHA-256 of every file `gen` writes, per (preset, seed, spec).  The generator must reproduce
# these bytes exactly: the benchmark selects its corpus seeds from `gen` output, so a change to
# the random stream or to the file format shows up here first.
GEN_FILES = ("pos.tg", "neg.tg", "test.tg", "truth.txt", "planted.tg")
PROBE_SPEC = {"nPositive": 0, "nNegative": 0, "testEpisodes": 0}
EMPTY = "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b"  # a lone newline
GEN_DIGESTS = {
    ("small", 0, None): (
        "13da9c86b46829f3a8404d207f6e318cbaa0d6dc50843ce4167beade82938741",
        "5886e09b1217def9ea7361d8003e5b2011a24f9f3a0b38d9601397e6b04015d0",
        "e0a5ed73a83758e7e384b3be2e9f1d4c3fe6fe381e994ac76418a34e0c9169c4",
        "cc71e1811fffb296ca87b290f9fc31dbb21c280586ed837ac13817b363ae15e1",
        "b617e5ce725031ac9bfe9ae36c97a34049793b3405c7c0a1180ebb462b66a963"),
    ("small", 1, None): (
        "0295fa5eecf6407178dc42c8c7c46f2d60869665ba049a46092e9d548bc0996a",
        "dec29c2f2066c8eb0b2ed5874b83045dbaa8bd32f0782c9e038172141386a34c",
        "40497307ce20a34915e54c7414b6d79ef5fcb27d60f9862415c69d5650f90fa4",
        "3afcd9830e46b1471a1b20769db1f1c98044aa260f1382cad893ce8ee9f8865b",
        "5dcf7e4bf8952dd6765025b25c86c3de0d3c2f7c1b677efc23ecf320614c7d37"),
    ("small", 7, None): (
        "5c1076b2e16541a34a5fa9043df712b205db508a0f652368d39de6ab3bcea2b6",
        "1aba8d896ada0f71b9dbb088b4ed93aa430eac2312d7d0fc89880777592f02eb",
        "7d0fb0feb81f06dc840fdb36d169fadb20afd6024a1ef5af407b45cfdae85e84",
        "f75e78e21e441e93708ef8a77d763a62b42ca2b8cc5978201777533e7a982840",
        "21ed76db7e88c4ca0cb702fb76fa8208559e76927d76ccadc8d093855c41b150"),
    ("medium", 0, None): (
        "566340f854b62cfdb5fca36019c119b0638f8e52613aae47810bd40a67afb736",
        "3acac35cf9fd9fbdd4b05754f9c6b8f1aa5e33b1a0354c16e5ae36fe3e7752d5",
        "7272c6f065889a78d61a66565e972090585a0772e8fb4e1d76fa9aff6d5b8475",
        "feb55300754e3f37702e0210fd5f44c382feacefd356f9bee5493b7c152ff06e",
        "b209e968d98a44e0cec7a72b421e159db438e6981b8ce6338a47ceeba5d4fd41"),
    ("medium", 1, None): (
        "d4c393a396c420b4707851128835ae70058a3901e9ece270cd9b424f93e8e43a",
        "68ba9c385d781a03e7c9180abb0127df7ca302349dbcfe23570a5cff5fe03414",
        "d4787089912b7386cf748b92d618b44e8cf15b552546b0643c99f2f0e8ceeb79",
        "2de03749b5e745cc315b346106821536fcb89bc2cf6d6f52bbd7b3cdb752d89f",
        "543ebcd193e7399bdae2a21ffb754b0834940ca826535931aeada37c20931cd2"),
    ("medium", 7, None): (
        "a4fca8f7a7000ce2c2ed4c343095a2e0ef87d6f2b41e016b94cd69afd505edb1",
        "5d286462d397b65fe3fe81fc2c5ef6c30fd5cdac49aff67a01b8b596c5d0037c",
        "1a2b4cd619713be169209b9d419bfe64be00e9a6022b87ca11e65a18e89b2eda",
        "bf626e8d31aedba5e22ba777b758664f712788e221203ee9d9505eee6fd1f5d8",
        "d7868ee74ff97933c6b9f0181f58d651ecb7de21b7ccfdf0d153db4d9b207fac"),
    ("medium", 0, "probe"): (
        EMPTY, EMPTY,
        "2382ed4f9be0e16e0d195dc22706828dd3b39caddd2e858ec0347c1caf54de63",
        EMPTY,
        "b209e968d98a44e0cec7a72b421e159db438e6981b8ce6338a47ceeba5d4fd41"),
    ("medium", 1000, "probe"): (
        EMPTY, EMPTY,
        "978dd3beef136dfe6b4027b41bca5797dd813594f2fdf091668dd707adb3df57",
        EMPTY,
        "4aa37351290ab14a9fe42ab22a13c48227831c4960a9083e00f48e6f91bce598"),
}


class TestGenerator:
    @pytest.mark.parametrize("preset, seed, spec", sorted(GEN_DIGESTS, key=str))
    def test_gen_files_are_byte_identical(self, tmp_path, capsys, preset, seed, spec):
        argv = ["gen", "--preset", preset, "--seed", str(seed), "--out", str(tmp_path / "out")]
        if spec == "probe":
            (tmp_path / "probe.json").write_text(json.dumps(PROBE_SPEC))
            argv += ["--spec", str(tmp_path / "probe.json")]
        assert main(argv) == 0
        digests = tuple(hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
                        for name in GEN_FILES)
        assert dict(zip(GEN_FILES, digests)) == dict(zip(GEN_FILES, GEN_DIGESTS[preset, seed, spec]))

    def test_deterministic_given_seed(self):
        spec = preset_spec("small", n_positive=3, n_negative=3, test_episodes=4)
        a = generate_synthetic(spec, seed=9)
        b = generate_synthetic(spec, seed=9)
        dump = lambda d: dump_dataset(
            [("positive", g) for g in d.positives]
            + [("negative", g) for g in d.negatives]
            + [("test", d.test_graph)]
        )
        assert dump(a) == dump(b)
        assert a.truth == b.truth
        c = generate_synthetic(spec, seed=10)
        assert dump(a) != dump(c)

    def test_planted_pattern_present_in_every_positive(self):
        spec = preset_spec("small", n_positive=6, n_negative=2, test_episodes=0)
        data = generate_synthetic(spec, seed=11)
        for g in data.positives:
            assert find_embeddings(data.planted, g, limit=1)

    def test_truth_intervals_contain_episode_edges(self):
        spec = preset_spec("small", n_positive=1, n_negative=1, test_episodes=6)
        data = generate_synthetic(spec, seed=13)
        assert len(data.truth.entries) == 6
        g = data.test_graph
        for name, start, end in data.truth.entries:
            assert name == spec.behavior
            window = [e for e in zip(g.srcs, g.dsts, g.timestamps) if start <= e[2] <= end]
            # the planted pattern matches fully inside its truth interval
            shard = validate("w", g.labels, window)
            assert find_embeddings(data.planted, shard, limit=1)

    @pytest.mark.parametrize("seed", [0, 1, 7, 123, 2**40 + 3])
    def test_randbelow_draws_as_randrange(self, seed):
        ours, stdlib = random.Random(seed), random.Random(seed)
        for _ in range(3):
            for n in range(1, 301):
                assert _randbelow(ours, n) == stdlib.randrange(n), n
        assert ours.getstate() == stdlib.getstate()

    def test_specs_validate(self):
        with pytest.raises(SpecInvalid):
            SyntheticSpec(nodes=1).validated()
        with pytest.raises(SpecInvalid):
            SyntheticSpec(planted_edges=0).validated()
        with pytest.raises(SpecInvalid):
            preset_spec("gigantic")

    def test_large_preset_generates(self):
        spec = preset_spec("large", n_positive=2, n_negative=2, test_episodes=2)
        data = generate_synthetic(spec, seed=4)
        assert len(data.positives) == 2
        assert data.positives[0].n_edges > 700
        assert find_embeddings(data.planted, data.positives[0], limit=1)

    def test_zero_positive_graphs_yield_empty_dataset_downstream(self):
        from tpmine.miner import EmptyDataset

        spec = preset_spec("small", n_positive=0, n_negative=2, test_episodes=0)
        data = generate_synthetic(spec, seed=1)
        with pytest.raises(EmptyDataset):
            mine(data.positives, data.negatives)


class TestReportScore:
    @pytest.mark.parametrize("fn", [LogRatio(epsilon=1e-3), GTest(epsilon=1e-4, scale=5.0),
                                    InfoGain(pos_prior=0.3)])
    def test_score_function_roundtrip(self, fn):
        cfg = MiningConfig(score_fn=fn)
        restored = score_fn_from_dict(config_to_dict(cfg)["score"])
        assert restored == fn
        assert restored.score(0.7, 0.2) == fn.score(0.7, 0.2)
