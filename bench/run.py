#!/usr/bin/env python3
"""Benchmark of the tpmine pipeline gen -> mine -> match -> eval.

    python3 bench/run.py --workload medium-full --seed 0 --seconds 36 --trace 0

Runs the command-line stages in this process, one thread, through
``tpmine.cli.main``, on corpora generated from ``--seed``; times every
stage, checks every output against independent references (bench/checks.py)
and prints one JSON object as the last line of standard output.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced pipelines and reports per-layer self times
and counts (bench/tracing.py) plus the tracing overhead, and writes the spans
to bench/work/traces/.  The program is imported from src/ of the checkout
this file sits in; without it the benchmark exits with status 1.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "work"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracing  # noqa: E402

# Whole-graph matching cost is set by the shape of the mined queries, which
# follows the planted behaviour: on the same stream a corpus whose behaviour
# has 7 nodes (a 6-edge tree) matches 2-7x slower than one with 4-6 nodes.
# Every workload therefore draws corpus seeds, from 1000 x --seed upward,
# whose planted behaviour has 7 nodes: the seed varies everything else,
# and the heaviest shape is the one always measured.
PLANTED_NODES = 7
SEED_STRIDE = 1000
SETUP_REPEATS = 9  # extra gen runs before the first pass, round robin over the corpora
STAGES = ("gen", "mine", "match", "eval")

MINE_ARGS = ("--max-edges", "6", "--top-k", "5", "--score", "logratio", "--epsilon", "1e-6",
             "--min-freq-p", "0.5", "--behavior", "planted")
BOUND_ONLY = ("--no-subgraph-prune", "--no-supergraph-prune")


@dataclass(frozen=True)
class Workload:
    corpora: int  # corpus seeds measured per run
    test_episodes: int  # behaviour episodes in the test stream (about 65 edges each)
    windowed: bool  # match with --window set to the longest ground-truth interval
    mine_flags: tuple = ()


WORKLOADS = {
    "medium-full": Workload(corpora=1, test_episodes=152, windowed=True),
    "medium-bound-only": Workload(corpora=1, test_episodes=152, windowed=True, mine_flags=BOUND_ONLY),
    "medium-whole-match": Workload(corpora=4, test_episodes=10, windowed=False),
}

END_TO_END = {
    "setup_s": ("s", "gen"),
    "mine_s": ("s", "mine"),
    "match_s": ("s", "match"),
}


class StageFailed(RuntimeError):
    pass


def load_tpmine() -> SimpleNamespace:
    src = ROOT / "src"
    if not (src / "tpmine" / "__init__.py").is_file():
        raise SystemExit(f"error: no tpmine package under {src}")
    sys.path.insert(0, str(src))
    names = ("cli", "datakit", "graphs", "matcher", "miner", "oracle", "pruning")
    tp = SimpleNamespace(**{n: importlib.import_module(f"tpmine.{n}") for n in names})
    if src.resolve() not in Path(tp.cli.__file__).resolve().parents:
        raise SystemExit(f"error: tpmine was imported from {tp.cli.__file__}, not {src}")
    return tp


def run_cli(tp, argv, tracer=None) -> tuple[float, str]:
    """One CLI stage in this process; returns (seconds, captured stdout)."""
    main = tp.cli.main
    if tracer is not None:
        main = tracer.wrap(f"cli.{argv[0]}", main)
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        rc = main([str(a) for a in argv])
        seconds = time.perf_counter() - start
    if rc != 0:
        raise StageFailed(f"{' '.join(map(str, argv))} exited {rc}: {err.getvalue().strip()}")
    return seconds, out.getvalue()


def planted_nodes(path: Path) -> int:
    return sum(1 for line in path.read_text().splitlines() if line.startswith("v "))


def select_corpus_seeds(tp, seed: int, count: int, probe_dir: Path) -> list[int]:
    """The first `count` corpus seeds from SEED_STRIDE * seed whose behaviour has PLANTED_NODES nodes.

    The probe generates only the planted behaviour (no graphs, no episodes),
    which the generator draws first from the seed.
    """
    probe_dir.mkdir(parents=True, exist_ok=True)
    spec = probe_dir / "spec.json"
    spec.write_text(json.dumps({"nPositive": 0, "nNegative": 0, "testEpisodes": 0}))
    found = []
    candidate = SEED_STRIDE * seed
    while len(found) < count:
        run_cli(tp, ["gen", "--preset", "medium", "--seed", candidate, "--spec", spec, "--out", probe_dir])
        if planted_nodes(probe_dir / "planted.tg") == PLANTED_NODES:
            found.append(candidate)
        candidate += 1
    return found


class Corpus:
    """Files and stage command lines for one corpus seed."""

    def __init__(self, seed: int, workload: Workload, root: Path):
        self.seed = seed
        self.workload = workload
        self.dir = root / f"corpus-{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.spec = self.dir / "spec.json"
        self.spec.write_text(json.dumps({"testEpisodes": workload.test_episodes}))
        self.samples: dict[str, list[float]] = {"gen": [], "mine": [], "match": [], "eval": []}
        self.snapshot = None
        self.eval_output = None

    def path(self, name: str) -> Path:
        return self.dir / name

    def window(self):
        if not self.workload.windowed:
            return None
        return max(end - start for _, start, end in checks.read_truth(self.path("truth.txt")))

    def argv(self, stage: str) -> list:
        if stage == "gen":
            return ["gen", "--preset", "medium", "--seed", self.seed, "--spec", self.spec, "--out", self.dir]
        if stage == "mine":
            return ["mine", "--pos", self.path("pos.tg"), "--neg", self.path("neg.tg"), *MINE_ARGS,
                    *self.workload.mine_flags, "--out", self.path("report.json")]
        if stage == "match":
            window = self.window()
            extra = [] if window is None else ["--window", window]
            return ["match", "--queries", self.path("report.json"), "--graph", self.path("test.tg"),
                    *extra, "--out", self.path("instances.json")]
        return ["eval", "--instances", self.path("instances.json"), "--truth", self.path("truth.txt")]

    def outputs(self):
        """Report (without its timing field) and instances, for the cross-pass comparison."""
        report = json.loads(self.path("report.json").read_text())
        report["stats"].pop("wallTime", None)
        return report, self.path("instances.json").read_text()


def run_pass(tp, corpora, stages, tracer=None) -> tuple[float, int, int, list[str]]:
    """Every stage on every corpus once; returns (seconds, attempted, failed, problems)."""
    total = 0.0
    attempted = failed = 0
    problems = []
    for corpus in corpora:
        for stage in stages:
            attempted += 1
            try:
                seconds, out = run_cli(tp, corpus.argv(stage), tracer)
            except StageFailed as exc:
                failed += 1
                problems.append(f"stage: {exc}")
                break
            corpus.samples[stage].append(seconds)
            total += seconds
            if stage == "eval":
                corpus.eval_output = json.loads(out)
        else:
            if "mine" not in stages:
                continue
            snapshot = corpus.outputs()
            if corpus.snapshot is None:
                corpus.snapshot = snapshot
            elif snapshot != corpus.snapshot:
                problems.append(f"determinism: corpus {corpus.seed} changed its report or instances")
    return total, attempted, failed, problems


def check_corpus(tp, corpus: Corpus) -> list[str]:
    problems = []
    if planted_nodes(corpus.path("planted.tg")) != PLANTED_NODES:
        problems.append(f"corpus: seed {corpus.seed} no longer plants a {PLANTED_NODES}-node behaviour")
    positives = tp.datakit.load_dataset(corpus.path("pos.tg"))[0]
    negatives = tp.datakit.load_dataset(corpus.path("neg.tg"))[1]
    test_graph = tp.datakit.load_dataset(corpus.path("test.tg"))[2][0]
    report = json.loads(corpus.path("report.json").read_text())
    bound_only = corpus.workload.mine_flags == BOUND_ONLY
    expected = {
        "maxEdges": 6, "topK": 5, "minFreqP": 0.5, "behavior": "planted",
        "pruning": {"bound": True, "subgraph": not bound_only, "supergraph": not bound_only},
    }
    problems += checks.check_report(tp, report, positives, negatives, expected)
    payload = json.loads(corpus.path("instances.json").read_text())
    queries = tp.datakit.report_queries(report)
    problems += checks.check_instances(tp, payload, queries, test_graph, corpus.window())
    truth = checks.read_truth(corpus.path("truth.txt"))
    problems += checks.check_accuracy(payload, truth, corpus.eval_output)
    return [f"corpus {corpus.seed}: {p}" for p in problems]


def per_corpus_mean(corpora, stage: str) -> float:
    """Mean over corpora of each corpus's median stage time."""
    return statistics.fmean(statistics.median(c.samples[stage]) for c in corpora)


class Schedule:
    """Whole passes for about the run's seconds.

    Another pass starts while the time so far plus half a mean pass fits, so
    a run ends within half a pass of its seconds on either side.
    """

    def __init__(self, seconds: float, min_passes: int):
        self.start = time.perf_counter()
        self.seconds = seconds
        self.min_passes = min_passes
        self.durations: list[float] = []
        self._pass_start = None

    def another(self) -> bool:
        now = time.perf_counter()
        if self._pass_start is not None:
            self.durations.append(now - self._pass_start)
        self._pass_start = now
        if len(self.durations) < self.min_passes:
            return True
        return now - self.start + statistics.fmean(self.durations) / 2 <= self.seconds

    @property
    def passes(self) -> int:
        return len(self.durations)


def measure(tp, corpora, seconds: float, trace: bool):
    """Set-up gens, then whole passes of the pipeline over every corpus.

    setup_s takes every gen sample, the extra ones before the first pass and
    one per corpus in each pass, so its samples spread over the whole run.
    A traced run alternates untraced and traced passes, so the overhead is
    measured on the same inputs in the same process.
    """
    attempted = failed = 0
    problems = []
    schedule = Schedule(seconds, min_passes=2 if trace else 1)
    for i in range(SETUP_REPEATS):
        _, a, f, p = run_pass(tp, [corpora[i % len(corpora)]], ("gen",))
        attempted, failed, problems = attempted + a, failed + f, problems + p
    walls = {False: [], True: []}
    layers = []
    tracer = None
    while schedule.another():
        traced = trace and schedule.passes % 2 == 1
        if traced:
            tracer = tracing.Tracer()
            with tracing.instrument(tracer, tp):
                wall, a, f, p = run_pass(tp, corpora, STAGES, tracer)
            layers.append({k: v / len(corpora) for k, v in tracing.layer_values(tracer).items()})
        else:
            wall, a, f, p = run_pass(tp, corpora, STAGES)
        walls[traced].append(wall)
        attempted, failed, problems = attempted + a, failed + f, problems + p
    metrics = {}
    if trace:
        for name, (unit, _, _) in tracing.PER_LAYER.items():
            metrics[name] = (statistics.median(layer[name] for layer in layers), unit)
        overhead = statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
        metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        for name, (unit, stage) in END_TO_END.items():
            metrics[name] = (per_corpus_mean(corpora, stage), unit)
        metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
    return attempted, failed, problems, metrics, tracer


def write_trace(path: Path, workload: str, seed: int, corpora, metrics, tracer) -> None:
    """Spans of the last traced pipeline pass plus the per-layer figures."""
    path.parent.mkdir(parents=True, exist_ok=True)
    origin = tracer.spans[0][2] if tracer.spans else 0.0
    doc = {
        "workload": workload,
        "seed": seed,
        "corpusSeeds": [c.seed for c in corpora],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "counts": dict(tracer.counts),
        "spanFields": ["parent", "name", "start", "end"],
        "spans": [[p, n, s - origin, e - origin] for p, n, s, e in tracer.spans],
    }
    path.write_text(json.dumps(doc) + "\n")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    tp = load_tpmine()
    workload = WORKLOADS[args.workload]
    run_dir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        seeds = select_corpus_seeds(tp, args.seed, workload.corpora, run_dir / "probe")
        corpora = [Corpus(s, workload, run_dir) for s in seeds]
        attempted, failed, problems, metrics, tracer = measure(
            tp, corpora, args.seconds, bool(args.trace))
        if not failed:
            for corpus in corpora:
                problems += check_corpus(tp, corpus)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if tracer is not None:
        write_trace(WORK / "traces" / f"{args.workload}-seed{args.seed}.json",
                    args.workload, args.seed, corpora, metrics, tracer)
    for problem in problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}")
    for corpus in corpora:
        medians = {stage: statistics.median(v) for stage, v in corpus.samples.items() if v}
        print(f"  corpus {corpus.seed}: " + ", ".join(
            f"{stage} {len(corpus.samples[stage])}x median {m:.4f} s" for stage, m in medians.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6f} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
