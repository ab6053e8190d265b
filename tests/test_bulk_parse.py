"""The block parser against the line-by-line parser it replaced, on mutated dumped corpora.

``_line_loop_parse`` is the former ``datakit.parse_dataset``, kept verbatim as the
reference: on every document ``parse_dataset`` must return equal graphs, or raise the
same exception type with the same message.
"""

import random
from typing import Optional

import pytest

from tpmine import datakit
from tpmine.datakit import ROLES, ParseError, dump_dataset, generate_synthetic, parse_dataset, preset_spec
from tpmine.graphs import TemporalGraph, TieRejected, validate_columns


def _line_loop_parse(text: str, tie_policy: str = "reject") -> list[tuple[str, TemporalGraph]]:
    """Parse a dataset document into (role, graph) pairs, in file order; each graph's edge
    columns are ordered and checked once, at its end, by ``graphs.validate_columns``."""
    graphs: list[tuple[str, TemporalGraph]] = []
    seen_ids: set[str] = set()
    gid: Optional[str] = None
    role = ""
    labels: list[str] = []
    srcs, dsts, ts = [], [], []  # edge columns, in file order
    checked = 0  # edges of the current graph already checked against its declared nodes
    start_line = 0
    lines = text.splitlines()

    def check_endpoints():
        """Edges not yet checked must name nodes declared before them, at their own 'e' line."""
        nonlocal checked
        n, s, d = len(labels), srcs[checked:], dsts[checked:]
        if s and (min(s) < 0 or min(d) < 0 or max(s) >= n or max(d) >= n):
            k = checked + next(k for k, (a, b) in enumerate(zip(s, d)) if not (0 <= a < n and 0 <= b < n))
            e_lines = [i + 1 for i in range(start_line, len(lines)) if lines[i].split()[:1] == ["e"]]
            raise ParseError(f"edge endpoint outside declared nodes 0..{n - 1}", e_lines[k])
        checked = len(srcs)

    def flush(line: int):
        if gid is None:
            return
        check_endpoints()
        try:
            graphs.append((role, validate_columns(gid, labels, srcs, dsts, ts, tie_policy=tie_policy)))
        except TieRejected as exc:
            raise TieRejected(f"line {line}: graph {gid!r} (started line {start_line}): {exc}") from None
        except ValueError as exc:
            raise ParseError(f"graph {gid!r} (started line {start_line}): {exc}", line) from exc

    lineno = 0
    try:
        for lineno, raw in enumerate(lines, start=1):
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
                srcs.append(src)
                dsts.append(dst)
                ts.append(t)
            elif tag == "v":
                if gid is None:
                    raise ParseError("'v' line before any 'g' line", lineno)
                if srcs:
                    check_endpoints()
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
                checked = 0
                start_line = lineno
            elif not tag.startswith("#"):
                raise ParseError(f"unknown record type {tag!r}", lineno)
    except ParseError:
        check_endpoints()  # an earlier 'e' line's endpoint error comes first
        raise
    flush(lineno)
    return graphs


def _outcome(parse, text, tie_policy):
    """The graphs as plain data, or the exception's type and message."""
    try:
        parsed = parse(text, tie_policy)
    except (ParseError, TieRejected) as exc:
        return type(exc), str(exc)
    return [(role, g.id, g.labels, g.srcs, g.dsts, g.timestamps) for role, g in parsed]


def _corpus_lines(data, n_graphs):
    """The dumped lines of the first n_graphs positives and negatives and of the test graph."""
    graphs = ([("positive", g) for g in data.positives[:n_graphs]]
              + [("negative", g) for g in data.negatives[:n_graphs]] + [("test", data.test_graph)])
    return dump_dataset(graphs).splitlines()


def _int_variant(rng, field):
    """The same integer as ``int`` reads it, spelled another way (``01``, ``+1``, ``1_0``)."""
    kind = rng.choice(["zero", "plus", "underscore"])
    if kind == "zero":
        return "0" + field
    if kind == "plus" or len(field) < 2:
        return "+" + field
    i = rng.randrange(1, len(field))
    return field[:i] + "_" + field[i:]


def _mutate(rng, lines):
    """The lines with one seeded fault, variant spelling or separator; returns the document text."""
    lines = list(lines)
    kind = rng.choice(["comment", "blank", "crlf", "tab", "separator", "break", "shift", "v_after_e", "int",
                       "duplicate_id", "tie", "dangling", "self_loop", "unsorted", "no_newline"])
    e_at = [i for i, line in enumerate(lines) if line.startswith("e ")]
    v_at = [i for i, line in enumerate(lines) if line.startswith("v ")]
    g_at = [i for i, line in enumerate(lines) if line.startswith("g ")]
    i = rng.randrange(len(lines))
    end = "\n"
    if kind == "comment":
        lines.insert(i, rng.choice(["# comment", "  # e 0 1 2", "#", "#g x positive"]))
    elif kind == "blank":
        lines.insert(i, rng.choice(["", "   ", "\t"]))
    elif kind == "crlf":
        if rng.random() < 0.5:
            end = "\r\n"
        else:
            lines[i] += "\r"
    elif kind == "tab":
        lines[i] = lines[i].replace(" ", "\t", rng.randint(1, 3))
    elif kind == "separator":  # whitespace inside a line; \x0b, \x1c and \u2028 also break lines
        fields = lines[i].split(" ")
        j = rng.randrange(1, len(fields)) if len(fields) > 1 else 1
        lines[i] = " ".join(fields[:j]) + rng.choice(["\x0b", "\x1c", "\u2028", "\x1f", "\xa0"]) + " ".join(fields[j:])
    elif kind == "break":  # a line break other than "\n" between two lines
        j = min(i, len(lines) - 2)
        lines[j:j + 2] = [lines[j] + rng.choice(["\x0b", "\x1c", "\u2028", "\r", "\x0c"]) + lines[j + 1]]
    elif kind == "shift":  # a line's last token moves to the start of the next line, maybe as a tag
        j = min(i, len(lines) - 2)
        *head, last = lines[j].split(" ")
        if rng.random() < 0.5:
            last = lines[j + 1][:1]
        lines[j:j + 2] = [" ".join(head), last + " " + lines[j + 1]]
    elif kind == "v_after_e":
        v = rng.choice(v_at)
        line = lines.pop(v)
        later = [k for k in e_at if k > v] or [len(lines)]
        lines.insert(rng.choice(later[:3]), line)
    elif kind == "int":
        k = rng.choice(e_at + v_at)
        fields = lines[k].split(" ")
        f = rng.randrange(1, 4 if fields[0] == "e" else 2)
        fields[f] = _int_variant(rng, fields[f])
        lines[k] = " ".join(fields)
    elif kind == "duplicate_id":
        a, b = sorted(rng.sample(g_at, 2))
        lines[b] = f"g {lines[a].split()[1]} {lines[b].split()[2]}"
    elif kind in ("tie", "dangling", "self_loop"):
        k = rng.choice(e_at)
        _, src, dst, t = lines[k].split()
        if kind == "tie":
            t = lines[rng.choice([k - 1, k + 1] if k + 1 in e_at else [k - 1])].split()[-1]
            t = t if t.isdigit() else "0"
        elif kind == "dangling":
            src = rng.choice(["-1", "999"])
        else:
            dst = src
        lines[k] = f"e {src} {dst} {t}"
    elif kind == "unsorted":
        k = rng.choice(e_at)
        lines[k], lines[k - 1] = (lines[k - 1], lines[k]) if lines[k - 1].startswith("e ") else (lines[k], lines[k - 1])
    text = end.join(lines) + end
    return (text[:-len(end)] if kind == "no_newline" else text), kind


@pytest.fixture(scope="module")
def base_documents(medium_corpus):
    return [_corpus_lines(generate_synthetic(preset_spec("small"), seed=0), 8),
            _corpus_lines(medium_corpus, 3)]


@pytest.mark.parametrize("text", [
    "", "\n", "# only a comment", "g a positive", "g a positive\n", "g a positive\nv 0 A",
    "g a positive\nv 0 A\nv 1 B\ne 0 1 5", "g a positive\ne 0 1 5\n", "e 0 1 5\ng a positive\n",
    "g a positive\nv 0 v\nv 1 e\ne 0 1 5\ne 1 0 6\n",  # labels that read as tags
    "g a positive\nv 0\nv v 1 B\ne 0 1 5\n",  # a label-sized hole: 'v 0' then 'v v 1 B'
    "g a positive\nv 0 A\nv 1 B\ne 0 1\n5 e 1 0 6\n",
    "g a positive\nv 0 A\nv 1 B\ne 0 1\x0b5\ne 1 0 6\n",
    "g a positive\nv 0 A\nv 1 B\ne 0 1 5\ng a negative\nv 0 A\n",
    "g a positive extra\nv 0 A\n", "g a training\nv 0 A\n",
])
def test_edge_case_documents_match_the_line_loop(text):
    for tie_policy in ("reject", "inputOrder"):
        assert _outcome(parse_dataset, text, tie_policy) == _outcome(_line_loop_parse, text, tie_policy)


def test_bulk_parse_matches_the_line_loop(base_documents):
    rng = random.Random(20)
    kinds, errors = set(), set()
    for _ in range(400):
        lines = rng.choice(base_documents)
        text, kind = _mutate(rng, lines)
        if rng.random() < 0.3:  # a second change in the same document
            text, _ = _mutate(rng, text.splitlines())
        for tie_policy in ("reject", "inputOrder"):
            want = _outcome(_line_loop_parse, text, tie_policy)
            assert _outcome(parse_dataset, text, tie_policy) == want, (kind, tie_policy)
            if isinstance(want, tuple):
                errors.add(want[0].__name__)
        kinds.add(kind)
    assert len(kinds) == 15
    assert errors == {"ParseError", "TieRejected"}


def test_dumped_corpus_never_reaches_the_line_loop(base_documents, monkeypatch):
    # Every block of a dumped corpus is regular, so the per-line loop stays idle; one comment
    # sends its block, and only that one, through the loop, with the same result.
    read_by_lines = []
    parse_lines = datakit._parse_lines

    def spy(lines, *args):
        read_by_lines.append(lines)
        return parse_lines(lines, *args)

    monkeypatch.setattr(datakit, "_parse_lines", spy)
    for lines in base_documents:
        second = [i for i, line in enumerate(lines) if line.startswith("g ")][1]
        for doc in (lines, lines[:second + 1] + ["# note"] + lines[second + 1:]):
            text = "\n".join(doc) + "\n"
            assert _outcome(parse_dataset, text, "reject") == _outcome(_line_loop_parse, text, "reject")
        assert [block[:2] for block in read_by_lines] == [[lines[second], "# note"]]
        read_by_lines.clear()
