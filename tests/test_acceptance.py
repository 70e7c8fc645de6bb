"""Acceptance suite.

Each test implements one release criterion at its stated tolerance and
prints a single PASS/FAIL line (run with `pytest -s` to see them). The
real training CSV is exercised too when TAGHRIDA_ARSARCASM_CSV points
at it; otherwise a synthesized fixture with the same label marginals
stands in.
"""

from __future__ import annotations

import json
import os
import random
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from conftest import separable_examples, synth_rows, write_csv
from taghrida import baseline, cli, dataset, metrics
from taghrida.normalize import NormalizationConfig, normalize
from taghrida.segment import Lexicon, desegment, segment_text, segment_token

import test_metrics as metric_oracles
from test_normalize import EMAIL_RE, GOLDEN, MENTION_RE, URL_RE, grapheme_runs_ok, strip_placeholders
from test_segment import random_arabic_text

REAL_CSV_ENV = "TAGHRIDA_ARSARCASM_CSV"

SARCASM_TOTALS = {"FALSE": 10380, "TRUE": 2168}
SENTIMENT_TOTALS = {"NEG": 4621, "NEU": 5747, "POS": 2180}
TOTAL = 12548
TRAIN_N, DEV_N = 11293, 1255


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def _dataset_protocol_assertions(ds):
    assert len(ds) == TOTAL
    assert dataset.class_distribution(ds, "sarcasm") == SARCASM_TOTALS
    assert dataset.class_distribution(ds, "sentiment") == SENTIMENT_TOTALS
    result = dataset.stratified_split(ds, 0.90, seed=42)
    assert len(result.train) == TRAIN_N
    assert len(result.dev) == DEV_N
    assert TRAIN_N + DEV_N == TOTAL


def test_criterion_1_dataset_protocol(tmp_path):
    with criterion(1, "dataset protocol"):
        started = time.monotonic()
        real = os.environ.get(REAL_CSV_ENV)
        if real:
            _dataset_protocol_assertions(dataset.load_csv(real))
        rows = synth_rows(SARCASM_TOTALS, SENTIMENT_TOTALS, seed=20210)
        path = write_csv(rows, tmp_path / "fixture.csv")
        _dataset_protocol_assertions(dataset.load_csv(path))
        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"dataset protocol took {elapsed:.2f}s"


def test_criterion_2_normalizer_golden_and_properties():
    with criterion(2, "normalizer golden corpus + properties"):
        assert len(GOLDEN) >= 40
        cfg = NormalizationConfig()
        for text, expected in GOLDEN:
            assert normalize(text, cfg).normalized == expected, text

        started = time.monotonic()
        pool = (
            "ابتثجحخدذرزسشصضطظعغفقكلمنهويىءةؤئأإآ" * 3
            + "abcdefgh123456789٠١٢٣٤٥٦٧٨٩"
            + "    ..@@//::()<>&;#!?ـًّ\t\n"
            + "😂😍🤣🔥❤✨"
            + "httpwwwtcomsn"
        )
        rng = random.Random(42)
        for _ in range(10_000):
            text = "".join(rng.choice(pool) for _ in range(rng.randint(0, 60)))
            out = normalize(text, cfg).normalized
            again = normalize(out, cfg).normalized
            assert again == out, f"not idempotent on {text!r}"
            clean = strip_placeholders(out)
            assert grapheme_runs_ok(clean, cfg.max_repeat_run), text
            assert not URL_RE.search(clean), text
            assert not EMAIL_RE.search(clean), text
            assert not MENTION_RE.search(clean), text
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"property suite took {elapsed:.2f}s"


def test_criterion_3_segmenter_roundtrip(rules, lexicon):
    with criterion(3, "segmenter round trip"):
        rng = random.Random(31)
        for _ in range(10_000):
            text = random_arabic_text(rng)
            assert desegment(segment_text(text, rules, lexicon)) == text
        cfg = NormalizationConfig()
        for raw, _ in GOLDEN:
            norm = normalize(raw, cfg).normalized
            assert desegment(segment_text(norm, rules, lexicon)) == norm
        # longest-match dominance on a crafted lexicon
        crafted = Lexicon(frozenset({"كتاب", "الكتاب"}))
        st = segment_token("والكتاب", rules, crafted)
        assert st.stem == "كتاب" and st.proclitics == ("و", "ال")


def test_criterion_4_metrics_oracle():
    with criterion(4, "metrics oracle"):
        rng = random.Random(99)
        for _ in range(1000):
            gold, pred, labels = metric_oracles.random_pairs(rng)
            m = metrics.confusion_matrix(gold, pred, labels)
            scores = metrics.per_class_prf(m)
            expected = metric_oracles.brute_scores(gold, pred, labels)
            for lab in labels:
                s, e = scores[lab], expected[lab]
                assert abs(s.precision - e[0]) <= 1e-12
                assert abs(s.recall - e[1]) <= 1e-12
                assert abs(s.f1 - e[2]) <= 1e-12
            for got, want in zip(
                metrics.aggregate(scores, "weighted"),
                metric_oracles.brute_weighted(expected),
            ):
                assert abs(got - want) <= 1e-12
            for got, want in zip(
                metrics.aggregate(scores, "macro"),
                metric_oracles.brute_macro(expected),
            ):
                assert abs(got - want) <= 1e-12

        # hand-built official-metric checks, including the 0.7 F-PN case
        counts = np.array([[3, 2, 0], [2, 5, 1], [0, 1, 4]], dtype=np.int64)
        m = metrics.ConfusionMatrix(labels=("NEG", "NEU", "POS"), counts=counts)
        assert metrics.official_metric(m, "sentiment") == pytest.approx(0.7, abs=1e-12)
        perfect = metrics.confusion_matrix(
            ["TRUE", "FALSE"], ["TRUE", "FALSE"], ["FALSE", "TRUE"]
        )
        assert metrics.official_metric(perfect, "sarcasm") == 1.0

        # injected values render byte-exactly in the table row
        rep = metrics.EvalReport(
            task="sarcasm",
            official=0.5872,
            accuracy=0.7830,
            weighted=(0.7264, 0.7147, 0.71),
            macro=(0.5, 0.5, 0.72),
            per_class={},
        )
        row = metrics.report(rep, "table").splitlines()[2]
        assert row == "58.72 78.30 72.64 71.47 72.00"


def test_criterion_5_baseline_trainer(tmp_path):
    with criterion(5, "baseline trainer"):
        # gradient check is implemented (at its stated tolerance) in
        # test_baseline; rerun its core here
        import test_baseline

        test_baseline.test_gradient_matches_finite_differences()

        # 100% training accuracy on the documented separable set
        examples = separable_examples()
        cfg = baseline.FeatureConfig(hash_dim=2**10)
        hyper = baseline.HyperParams(epochs=10, batch_size=4, seed=0)
        model = baseline.train(examples, hyper, cfg)
        assert all(
            baseline.predict(model, text)[0] == label for text, label in examples
        )

        # bitwise determinism
        again = baseline.train(examples, hyper, cfg)
        assert model.weights.tobytes() == again.weights.tobytes()
        assert model.bias.tobytes() == again.bias.tobytes()

        # on a fixture dataset the trained model's F-PN strictly beats
        # the majority-class constant predictor
        rows = synth_rows(
            {"FALSE": 400, "TRUE": 100}, {"NEG": 185, "NEU": 230, "POS": 85}, seed=55
        )
        ds = dataset.load_csv(write_csv(rows, tmp_path / "f500.csv"))
        split = dataset.stratified_split(ds, 0.9, seed=1)
        train_pairs = [(r.text, r.sentiment) for r in split.train]
        dev_pairs = [(r.text, r.sentiment) for r in split.dev]
        clf = baseline.train(
            train_pairs,
            baseline.HyperParams(epochs=5, batch_size=40, seed=1),
            baseline.FeatureConfig(hash_dim=2**12),
        )
        gold = [label for _, label in dev_pairs]
        pred = [baseline.predict(clf, text)[0] for text, _ in dev_pairs]
        matrix = metrics.confusion_matrix(gold, pred, dataset.TASK_LABELS["sentiment"])
        model_fpn = metrics.evaluation_report(matrix, "sentiment").official

        majority = max(
            dataset.class_distribution(split.train, "sentiment").items(),
            key=lambda kv: kv[1],
        )[0]
        constant = metrics.confusion_matrix(
            gold, [majority] * len(gold), dataset.TASK_LABELS["sentiment"]
        )
        majority_fpn = metrics.official_metric(constant, "sentiment")
        assert model_fpn > majority_fpn, (model_fpn, majority_fpn)


def test_criterion_6_end_to_end(tmp_path):
    with criterion(6, "end-to-end pipeline"):
        started = time.monotonic()
        rows = synth_rows(
            {"FALSE": 410, "TRUE": 90}, {"NEG": 180, "NEU": 235, "POS": 85}, seed=66
        )
        corpus = write_csv(rows, tmp_path / "e2e.csv")
        norm = tmp_path / "norm.jsonl"
        seg = tmp_path / "seg.jsonl"
        train_f = tmp_path / "train.jsonl"
        dev_f = tmp_path / "dev.jsonl"
        model_f = tmp_path / "model.json"
        report_f = tmp_path / "report.json"

        steps = [
            ["normalize", "--input", str(corpus), "--output", str(norm)],
            ["segment", "--input", str(norm), "--output", str(seg)],
            [
                "split", "--input", str(seg),
                "--train-output", str(train_f), "--dev-output", str(dev_f),
                "--ratio", "0.9", "--seed", "42",
            ],
            [
                "train", "--input", str(train_f), "--output", str(model_f),
                "--task", "sarcasm", "--hash-dim", "8192", "--epochs", "4",
                "--seed", "42",
            ],
            [
                "evaluate", "--input", str(dev_f), "--model", str(model_f),
                "--task", "sarcasm", "--output", str(report_f),
            ],
        ]
        manifest_anchors = [norm, seg, train_f, model_f, report_f]
        for step in steps:
            assert cli.main(step) == cli.EXIT_OK, step

        for anchor in manifest_anchors:
            mpath = anchor.with_name(anchor.name + ".manifest.json")
            assert mpath.is_file(), f"stage manifest missing: {mpath}"
            manifest = json.loads(mpath.read_text(encoding="utf-8"))
            assert manifest["tool_version"]
            assert manifest["command"]
            assert isinstance(manifest["duration_s"], float)
            assert all(Path(p).exists() for p in manifest["outputs"])

        saved = json.loads(report_f.read_text(encoding="utf-8"))
        assert {"task", "official", "accuracy", "weighted", "macro_f1"} <= set(saved)

        elapsed = time.monotonic() - started
        assert elapsed < 30.0, f"end-to-end took {elapsed:.2f}s"
