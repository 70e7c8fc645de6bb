"""Output checks and stage digests.

Each check reads the files a workload wrote and raises CheckFailed (or
any error a malformed file provokes) when an output is wrong. The
harness counts every check as one attempted operation and every raise
as one failed operation.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from taghrida import baseline
from taghrida.normalize import normalize
from taghrida.segment import desegment


class CheckFailed(Exception):
    pass


def read_jsonl(path: Path) -> list[dict]:
    """Every line of a JSONL file, strictly: a truncated line raises."""
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _same_ids(records: list[dict], expected: list[int], what: str) -> None:
    ids = [rec["id"] for rec in records]
    _require(ids == expected, f"{what}: ids differ from its input ({len(ids)} vs {len(expected)})")


def normalized_fixed_point(path: Path, n_rows: int) -> None:
    """Every normalized text normalizes to itself, and no row is lost."""
    records = read_jsonl(path)
    _same_ids(records, list(range(n_rows)), path.name)
    for rec in records:
        text = rec["normalized"]
        _require(normalize(text).normalized == text, f"record {rec['id']}: not a fixed point")


def desegment_restores(segmented: Path, normalized: Path) -> None:
    """desegment(segmented) == normalized for every record, same ids."""
    records = read_jsonl(segmented)
    _same_ids(records, [rec["id"] for rec in read_jsonl(normalized)], segmented.name)
    for rec in records:
        _require(
            desegment(rec["segmented"]) == rec["normalized"],
            f"record {rec['id']}: desegment does not restore the normalized text",
        )


def split_partitions(source: Path, train: Path, dev: Path) -> None:
    """Train and dev are disjoint and together hold every source record."""
    src = {rec["id"]: rec for rec in read_jsonl(source)}
    parts = read_jsonl(train) + read_jsonl(dev)
    _require(len(parts) == len(src), f"split holds {len(parts)} of {len(src)} records")
    _require(all(src.get(rec["id"]) == rec for rec in parts), "split altered or duplicated records")


def weight_bytes(model: baseline.BaselineModel) -> bytes:
    return model.weights.tobytes() + model.bias.tobytes()


def model_roundtrip(path: Path, resaved: Path) -> None:
    """load_model -> save_model -> load_model keeps the weights bit-exact
    and rewrites the same file."""
    first = baseline.load_model(path)
    baseline.save_model(first, resaved)
    second = baseline.load_model(resaved)
    _require(weight_bytes(first) == weight_bytes(second), "weights changed on a save/load round trip")
    _require(resaved.read_bytes() == path.read_bytes(), "re-saved model file differs")


def _prf(gold: list[str], pred: list[str], label: str) -> tuple[float, float, float]:
    tp = sum(1 for g, p in zip(gold, pred) if g == p == label)
    n_pred = pred.count(label)
    n_gold = gold.count(label)
    precision = tp / n_pred if n_pred else 0.0
    recall = tp / n_gold if n_gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def report_matches(gold_path: Path, pred_path: Path, report_path: Path, task: str) -> None:
    """The predictions cover every gold record once, and the evaluate
    report equals the scores recomputed here from the predictions file,
    independently of taghrida.metrics: accuracy, per-class P/R/F1, and
    the official score (F1 of TRUE for sarcasm, mean F1 of POS and NEG
    for sentiment)."""
    gold_records = read_jsonl(gold_path)
    preds = read_jsonl(pred_path)
    _require(
        [p["id"] for p in preds] == [g["id"] for g in gold_records],
        "predictions do not cover the gold records one to one",
    )
    gold = [g[task] for g in gold_records]
    pred = [p["label"] for p in preds]
    report = json.loads(report_path.read_text(encoding="utf-8"))
    expected = {"accuracy": sum(g == p for g, p in zip(gold, pred)) / len(gold)}
    actual = {"accuracy": report["accuracy"], "official": report["official"]}
    f1 = {}
    for label, scores in report["per_class"].items():
        p, r, f1[label] = _prf(gold, pred, label)
        expected.update({f"{label}.p": p, f"{label}.r": r, f"{label}.f1": f1[label]})
        actual.update({f"{label}.{k}": scores[k] for k in ("p", "r", "f1")})
    expected["official"] = f1["TRUE"] if task == "sarcasm" else (f1["POS"] + f1["NEG"]) / 2
    for key, value in expected.items():
        _require(abs(actual[key] - value) < 1e-12, f"report {key} differs from the predictions")


def digests(files: dict[str, Path], models: list[Path]) -> dict[str, str]:
    """sha256 of every stage output file and of the models' weight bytes,
    in order."""
    out = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in files.items()}
    weights = hashlib.sha256()
    for model in models:
        weights.update(weight_bytes(baseline.load_model(model)))
    out["weights"] = weights.hexdigest()
    return out
