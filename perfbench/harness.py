"""Benchmark orchestration: prepare a workload, time its command
sequence through `taghrida.cli.main`, check and digest its outputs, and
report end-to-end metrics (untraced runs) or per-layer metrics (traced
runs).

A run is a closed loop with one client: each command starts when the
previous one has returned. It repeats the workload's command sequence
until the next iteration would overrun the time budget, always at
least once, and reports medians over the iterations.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import regex

import checks
from spans import Tracer
from taghrida import baseline, cli, dataset, metrics
from taghrida.normalize import (
    NormalizationConfig,
    collapse_repeats,
    collapse_spaces,
    insert_boundaries,
    remove_unwanted_chars,
    replace_entities,
    strip_markup,
)
from taghrida.segment import CliticRules, default_lexicon, segment_token
from workloads import WORKLOADS, Plan, char_ngram_stats, input_properties

SETUP_REPEATS = 9
# A run whose predict commands took less than PREDICT_SECONDS in all runs
# the predict command again on the same inputs, up to PREDICT_SAMPLES
# samples, so that a short predict's throughput is a median of several
# samples rather than one.
PREDICT_SECONDS = 3.0
PREDICT_SAMPLES = 9
LABELS = ("NEG", "NEU", "POS", "FALSE", "TRUE")
CLI_COMMANDS = ("normalize", "segment", "split", "train", "predict", "evaluate")

# The program's fresh-process set-up: import, default lexicon,
# normalization config, clitic rules, and the model predict will read.
_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from taghrida import baseline
from taghrida.normalize import NormalizationConfig
from taghrida.segment import CliticRules, default_lexicon
default_lexicon(); NormalizationConfig(); CliticRules()
baseline.load_model(sys.argv[2])
print(time.perf_counter() - t0)
"""


class Ops:
    """Counts attempted and failed operations: commands and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, what: str, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # any error in a check is a failed check
            self.failures.append(f"{what}: {exc!r}"[:500])
            return None

    def command(self, argv: list[str], tracer: Tracer | None = None) -> float:
        """Run one CLI command in-process; return its wall time. Garbage
        left by earlier commands is collected first, untimed, as a fresh
        process per command would not see it."""
        self.attempted += 1
        gc.collect()
        sink = io.StringIO()
        span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        with span, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = cli.main(argv)
            except Exception as exc:  # a traceback escaping the CLI is a failure
                code = repr(exc)
        elapsed = time.perf_counter() - start
        if code != 0:
            self.failures.append(f"{argv[0]} exited {code}: {sink.getvalue()[-300:]}")
        return elapsed


class Observed:
    """Counters kept at the traced layer boundaries."""

    def __init__(self):
        self.normalized_inputs: list[str] = []
        self.rules_changed: Counter = Counter()
        self.entities: Counter = Counter()
        self.segmented_inputs: list[str] = []
        self.featurized: list[str] = []
        self.features = 0
        self.buckets: set[int] = set()
        self.feature_config: baseline.FeatureConfig | None = None

    def install(self, tracer: Tracer) -> None:
        tracer.wrap(cli, "normalize", "normalize", self._normalize)
        tracer.wrap(cli, "segment_text", "segment", self._segment)
        for fn in ("featurize", "loss_and_gradient", "train", "predict", "save_model", "load_model"):
            tracer.wrap(baseline, fn, f"baseline.{fn}", self._featurize if fn == "featurize" else None)
        for fn in ("load_csv", "load_jsonl", "export_jsonl", "stratified_split"):
            tracer.wrap(dataset, fn, f"dataset.{fn}")
        tracer.wrap(metrics, "evaluation_report", "metrics.evaluation_report")

    def _normalize(self, args, result) -> None:
        self.normalized_inputs.append(args[0])
        self.rules_changed.update(result.rules_applied)
        self.entities.update(result.entity_counts)

    def _segment(self, args, result) -> None:
        self.segmented_inputs.append(args[0])

    def _featurize(self, args, result) -> None:
        self.featurized.append(args[0])
        self.features += len(result)
        self.buckets.update(result)
        self.feature_config = args[1]


def _verify(plan: Plan, work: Path, ops: Ops, reference: dict) -> None:
    """Check the outputs of the first iteration; afterwards require the
    same stage digests."""
    stages = dict(plan.stages)
    for k, scored in enumerate(plan.scored):
        stages.update({f"predictions{k}": scored.predictions, f"report{k}": scored.report})
    digest = ops.check("stage digests", checks.digests, stages, [scored.model for scored in plan.scored])
    if reference:
        ops.check("digests agree across iterations", _same, digest, reference)
        return
    reference.update(digest or {})
    s = plan.stages
    if "normalized" in s:
        ops.check("normalized fixed point", checks.normalized_fixed_point, s["normalized"], len(plan.raw_texts))
    if "segmented" in s:
        ops.check("desegment restores", checks.desegment_restores, s["segmented"], s["normalized"])
    if "train" in s:
        ops.check("split partitions", checks.split_partitions, s["segmented"], s["train"], s["dev"])
    for scored in plan.scored:
        ops.check("model round trip", checks.model_roundtrip, scored.model, work / "roundtrip.json")
        ops.check(
            "report matches predictions", checks.report_matches,
            scored.gold, scored.predictions, scored.report, plan.task,
        )


def _same(digest, reference) -> None:
    if digest != reference:
        raise checks.CheckFailed(f"stage digests differ: {digest} vs {reference}")


def _loop(
    plan: Plan, work: Path, inputs: set[Path], seconds: float, ops: Ops, reference: dict, traced: bool
) -> list[dict]:
    """Timed iterations of the workload's command sequence. Only command
    time counts against the budget; checks run between iterations.

    Every file but the prepared `inputs` is deleted before an iteration,
    so each one creates its outputs afresh: overwriting a file in place
    can cost the file system far more than creating it, and only later
    iterations would pay that."""
    iterations = []
    while True:
        for path in list(work.rglob("*")):
            if path.is_file() and path not in inputs:
                path.unlink()
        tracer = Tracer() if traced else None
        observed = Observed() if traced else None
        if tracer:
            observed.install(tracer)
        try:
            start = time.perf_counter()
            timed = [(argv, ops.command(argv, tracer)) for argv in plan.commands]
            wall = time.perf_counter() - start
        finally:
            if tracer:
                tracer.uninstall()
        times = Counter()
        for argv, seconds in timed:
            times[argv[0]] += seconds
        predict = [(argv, seconds) for argv, seconds in timed if argv[0] == "predict"]
        iterations.append(
            {"wall": wall, "times": dict(times), "predict": predict, "tracer": tracer, "observed": observed}
        )
        _verify(plan, work, ops, reference)
        walls = [it["wall"] for it in iterations]
        if sum(walls) + statistics.median(walls) > seconds:
            return iterations


def _median(values) -> float:
    return statistics.median(list(values))


def _setup_seconds(root: Path, model: Path, ops: Ops) -> list[float]:
    """Fresh-process set-up time, measured inside each child so that the
    interpreter's own start-up is left out."""
    samples = []
    for _ in range(SETUP_REPEATS):
        ops.attempted += 1
        try:
            proc = subprocess.run(
                [sys.executable, "-c", _SETUP_CHILD, str(root / "src"), str(model)],
                capture_output=True, text=True, timeout=60, check=True,
            )
            samples.append(float(proc.stdout.split()[-1]))
        except (subprocess.SubprocessError, ValueError, IndexError) as exc:
            ops.failures.append(f"setup: {exc!r}"[:500])
    return samples


# --- per-layer metrics ------------------------------------------------------

# The six rules in pipeline order, keyed by the names `rules_applied` uses.
_RULES = {
    "markup_strip": lambda text, config: strip_markup(text),
    "entity_replace": lambda text, config: replace_entities(text, config)[0],
    "unwanted_chars": remove_unwanted_chars,
    "repeat_collapse": lambda text, config: collapse_repeats(text, config.max_repeat_run),
    "boundary_insert": lambda text, config: insert_boundaries(text),
    "space_collapse": lambda text, config: collapse_spaces(text),
}


def _span_metrics(it: dict, plan: Plan) -> dict[str, float]:
    """Layer times of one traced iteration, from its spans."""
    summary = it["tracer"].summary()

    def total(name: str, key: str = "s") -> float:
        return summary[name][key] if name in summary else 0.0

    def rate(calls: float, seconds: float) -> float:
        return calls / seconds if seconds else 0.0

    m = {f"dataset.{fn}_s": total(f"dataset.{fn}") for fn in ("load_csv", "load_jsonl", "export_jsonl")}
    m["dataset.split_s"] = total("dataset.stratified_split")
    for layer in ("normalize", "segment"):
        m[f"{layer}.s"] = total(layer)
        m[f"{layer}.tweets_per_s"] = rate(total(layer, "calls"), total(layer))
    for fn, label in (("featurize", "featurize"), ("loss_and_gradient", "gradient")):
        m[f"baseline.{label}.s"] = total(f"baseline.{fn}")
        m[f"baseline.{label}.calls"] = total(f"baseline.{fn}", "calls")
    m["baseline.optimizer.s"] = total("baseline.train", "self_s")
    m["baseline.train.steps"] = it["tracer"].children_of("baseline.train", "baseline.loss_and_gradient")
    m["baseline.save_model_s"] = total("baseline.save_model")
    m["baseline.load_model_s"] = total("baseline.load_model")
    m["baseline.predict.s"] = total("baseline.predict")
    m["metrics.evaluate_s"] = total("metrics.evaluation_report")
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.self_s"] = total(f"cli.{cmd}", "self_s")
    m["cli.train.s"] = total("cli.train")
    m["cli.preprocess.tweets_per_s"] = rate(
        plan.n_preprocessed, total("cli.normalize") + total("cli.segment")
    )
    return m


def _rule_metrics(obs: Observed) -> dict[str, float]:
    """Each public rule function timed over the texts the workload
    normalized, applied once in pipeline order; plus the counts of
    tweets each rule changed and of entities replaced, as `normalize`
    reported them."""
    config = NormalizationConfig()
    texts = list(obs.normalized_inputs)
    m = {}
    for rule, fn in _RULES.items():
        start = time.perf_counter()
        texts = [fn(text, config) for text in texts]
        m[f"normalize.rule.{rule}.s"] = time.perf_counter() - start
        m[f"normalize.rule.{rule}.changed"] = obs.rules_changed[rule]
    for kind in ("url", "email", "mention"):
        m[f"normalize.entities.{kind}"] = obs.entities[kind]
    return m


def _segment_metrics(obs: Observed) -> dict[str, float]:
    """How the tokens the workload segmented were resolved: the stem is
    a lexicon entry, a proclitic was peeled without a lexicon match, or
    the token passed through whole. Placeholder spans are skipped, as in
    `segment_text`."""
    rules, lexicon = CliticRules(), default_lexicon()
    counts = Counter()
    seen = set()
    for text in obs.segmented_inputs:
        tokens = text.split()
        i = 0
        while i < len(tokens):
            if tokens[i] == "[" and i + 2 < len(tokens) and tokens[i + 2] == "]":
                i += 3
                continue
            seg = segment_token(tokens[i], rules, lexicon)
            seen.add(tokens[i])
            if len(seg.stem) >= rules.min_stem_len and seg.stem in lexicon:
                counts["lexicon_hits"] += 1
            elif seg.is_segmented:
                counts["fallback_peels"] += 1
            else:
                counts["passthrough"] += 1
            i += 1
    tokens = sum(counts.values())
    loads = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        default_lexicon()
        loads.append(time.perf_counter() - start)
    return {
        "segment.tokens": tokens,
        "segment.lexicon_hits": counts["lexicon_hits"],
        "segment.fallback_peels": counts["fallback_peels"],
        "segment.passthrough": counts["passthrough"],
        "segment.oov_rate": (tokens - counts["lexicon_hits"]) / tokens if tokens else 0.0,
        "segment.distinct_token_ratio": len(seen) / tokens if tokens else 0.0,
        "segment.lexicon_load_s": _median(loads),
    }


def _feature_metrics(obs: Observed) -> dict[str, float]:
    """Feature sharing over every text featurize was called with. A memo
    of feature -> (bucket, sign) would miss once per distinct feature,
    so 1 - distinct/occurrences is an upper bound on its hit rate. Every
    workload predicts, so featurize is always called."""
    cfg = obs.feature_config
    occurrences, distinct = char_ngram_stats(obs.featurized, *cfg.char_ngram_range)
    if cfg.include_word_unigrams:
        words = [w for text in obs.featurized for w in text.split()]
        occurrences += len(words)
        distinct += len(set(words))
    return {
        "baseline.ngram_occurrences_per_distinct": occurrences / distinct,
        "baseline.feature_cache_hit_rate_upper_bound": 1.0 - distinct / occurrences,
        "baseline.features_per_tweet": obs.features / len(obs.featurized),
        "baseline.bucket_occupancy": len(obs.buckets) / cfg.hash_dim,
        "baseline.collision_rate": 1.0 - len(obs.buckets) / distinct,
    }


def _prediction_metrics(plan: Plan) -> dict[str, float]:
    """Label shares over every predictions file; the final loss and file
    size of the workload's models, medians where it trains several."""
    labels = Counter(rec["label"] for s in plan.scored for rec in checks.read_jsonl(s.predictions))
    total = sum(labels.values())
    return {
        **{f"baseline.pred_label_share.{label}": labels[label] / total for label in LABELS},
        "baseline.train.final_loss": _median(baseline.load_model(s.model).final_loss for s in plan.scored),
        "baseline.model_bytes": _median(s.model.stat().st_size for s in plan.scored),
    }


def layer_metrics(plan: Plan, untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    per_iteration = [_span_metrics(it, plan) for it in traced]
    m = {key: _median(it[key] for it in per_iteration) for key in per_iteration[0]}
    obs = traced[0]["observed"]
    m.update(_rule_metrics(obs))
    m.update(_segment_metrics(obs))
    m.update(_feature_metrics(obs))
    m.update(_prediction_metrics(plan))
    m["trace.overhead_s"] = _median(it["wall"] for it in traced) - _median(it["wall"] for it in untraced)
    return m


# --- end-to-end metrics -----------------------------------------------------


def _predict_tweets_per_s(plan: Plan, work: Path, iterations: list[dict], ops: Ops, reference: dict) -> list[float]:
    """Throughput of every predict command the iterations ran, plus
    repeats of the first one while the run has spent less than
    PREDICT_SECONDS predicting. A repeat must reproduce the same
    predictions file."""
    samples = [sample for it in iterations for sample in it["predict"]]
    first = plan.scored[0].predictions
    while sum(seconds for _, seconds in samples) < PREDICT_SECONDS and len(samples) < PREDICT_SAMPLES:
        for path in first.parent.glob(first.name + "*"):
            path.unlink()  # create afresh, as in an iteration
        argv = samples[0][0]
        samples.append((argv, ops.command(argv)))
        _verify(plan, work, ops, reference)
    rows = {s.gold: len(checks.read_jsonl(s.gold)) for s in plan.scored}
    return [rows[Path(argv[argv.index("--input") + 1])] / seconds for argv, seconds in samples]


def end_to_end_metrics(
    plan: Plan, iterations: list[dict], predict: list[float], setup: list[float]
) -> dict[str, float]:
    """`dev_score` is the median official score over the workload's
    models; it is the same in every iteration, as the digests check."""
    reports = [json.loads(s.report.read_text(encoding="utf-8")) for s in plan.scored]
    return {
        "setup_s": _median(setup),
        "wall_s": _median(it["wall"] for it in iterations),
        "predict_tweets_per_s": _median(predict),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "dev_score": _median(report["official"] for report in reports),
    }


UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "dev_score": "score"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("tweets_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("final_loss"):
        return "nats"
    if name.endswith(("_rate", "_ratio", "occupancy", "_bound", "_per_distinct", "per_tweet")) or (
        ".pred_label_share." in name
    ):
        return "ratio"
    return "count"


# --- the run ----------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown: not a git checkout"
    try:
        return subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def environment(args, root: Path, load_at_start) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_at_start": load_at_start,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "regex": regex.__version__,
        "blas_threads": {var: value for var, value in os.environ.items() if var.endswith("_NUM_THREADS")},
        "commit": _commit(root),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "scale": args.scale,
    }


def run(args, root: Path, started: float, load_at_start) -> int:
    work = root / "perfbench" / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(args, root, work, started, load_at_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, root: Path, work: Path, started: float, load_at_start) -> int:
    plan = WORKLOADS[args.workload](work, args.seed, args.scale)
    prep = Ops()
    for argv in plan.prepare:
        prep.command(argv)
    if prep.failures:
        print(f"error: workload preparation failed: {prep.failures}", file=sys.stderr)
        return 1

    ops = Ops()
    reference: dict = {}
    inputs = set(work.rglob("*"))
    untraced = _loop(plan, work, inputs, args.seconds, ops, reference, traced=False)
    record = {
        "environment": environment(args, root, load_at_start),
        "digests": reference,
        "iterations": [{"wall_s": it["wall"], "command_s": it["times"]} for it in untraced],
    }
    if args.trace:
        traced = _loop(plan, work, inputs, args.seconds, ops, reference, traced=True)
        values = ops.check("layer metrics", layer_metrics, plan, untraced, traced)
        record["inputs"] = input_properties(plan.raw_texts)
    else:
        record["predict_tweets_per_s"] = _predict_tweets_per_s(plan, work, untraced, ops, reference)
        setup = _setup_seconds(root, plan.scored[0].model, ops)
        values = ops.check(
            "end-to-end metrics", end_to_end_metrics, plan, untraced, record["predict_tweets_per_s"], setup
        )
    record.update(failures=ops.failures, run_s=time.perf_counter() - started)
    print(json.dumps({"record": record}, ensure_ascii=False))
    result = {
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in (values or {}).items()},
    }
    print(json.dumps(result))
    return 0
