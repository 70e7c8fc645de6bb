"""Command-line front end.

Subcommands chain into the full experimental protocol:

    taghrida normalize -> segment -> split -> train -> evaluate

with JSONL as the interchange format between stages so external
trainers can consume any intermediate output. Every command that writes
files also writes a JSON manifest (command, config snapshot, paths,
seed, version, duration) next to its primary output.

Exit codes: 0 success, 1 data/validation error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from functools import partial
from pathlib import Path

from . import __version__
from . import baseline, dataset, metrics
from .errors import DataError, SchemaError, TaghridaError
from .normalize import ENTITY_KINDS, RULE_ORDER, NormalizationConfig, normalize
from .segment import (
    CliticRules,
    default_lexicon,
    load_lexicon,
    segment_stats,
    segment_text,
)

CONFIG_ENV_VAR = "TAGHRIDA_CONFIG"

EXIT_OK = 0
EXIT_DATA = 1
EXIT_USAGE = 2


class UsageError(TaghridaError):
    """Bad invocation: wrong flags, missing files, incompatible inputs."""


def _write_manifest(
    primary_output: Path,
    command: str,
    config: dict,
    inputs: list[str],
    outputs: list[str],
    seed: int | None,
    started: float,
    stats: dict | None = None,
) -> None:
    manifest = {
        "command": command,
        "tool_version": __version__,
        "config": config,
        "inputs": inputs,
        "outputs": outputs,
        "seed": seed,
        "duration_s": round(time.monotonic() - started, 6),
    }
    if stats is not None:
        manifest["stats"] = stats
    path = primary_output.with_name(primary_output.name + ".manifest.json")
    path.write_text(json.dumps(manifest, ensure_ascii=False, indent=2), encoding="utf-8")


def _warn_if_empty(count: int, in_path: Path, out_path: Path) -> None:
    if count == 0:
        print(f"warning: {in_path} holds no records; {out_path} is empty", file=sys.stderr)


def _require_file(path: str, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{what} not found: {path}")
    return p


def _load_norm_config(args) -> NormalizationConfig:
    import os

    config_path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV_VAR)
    if config_path:
        try:
            return NormalizationConfig.from_file(_require_file(config_path, "config file"))
        except ValueError as exc:
            raise UsageError(f"bad config file: {exc}") from None
    return NormalizationConfig()


def _config_snapshot(obj) -> dict:
    from dataclasses import asdict, is_dataclass

    if is_dataclass(obj):
        snap = asdict(obj)
        # removal_ranges is long and derivable; record its size instead
        if "removal_ranges" in snap:
            snap["removal_ranges"] = f"<{len(snap['removal_ranges'])} ranges>"
        return snap
    return dict(obj)


def _load_any(path: Path, columns: str | None = None) -> dataset.LabeledDataset:
    """A CSV, read with the `--columns` remap, or a JSONL file."""
    if path.suffix.lower() == ".csv":
        return dataset.load_csv(path, schema=_parse_columns(columns))
    return dataset.load_jsonl(path)


def _parse_columns(arg: str | None) -> dict[str, str] | None:
    if not arg:
        return None
    mapping = {}
    for part in arg.split(","):
        if "=" not in part:
            raise UsageError(f"bad --columns entry {part!r}, expected logical=column")
        logical, column = part.split("=", 1)
        if logical not in dataset.DEFAULT_SCHEMA:
            raise UsageError(
                f"unknown logical column {logical!r}; expected one of "
                f"{sorted(dataset.DEFAULT_SCHEMA)}"
            )
        mapping[logical] = column
    return mapping


# The `--text-field` choices; "auto" reads the first field present of
# segmented, normalized and text.
TEXT_FIELDS = ("auto", "text", "normalized", "segmented")


def _model_text(field_of, text_field: str = "auto"):
    """The text a model reads from one record, whose fields `field_of`
    looks up by name, for train, evaluate and predict alike; None if
    the field is missing."""
    names = ("segmented", "normalized", "text") if text_field == "auto" else (text_field,)
    for name in names:
        value = field_of(name)
        if value is not None:
            return value
    return None


def _record_text(rec: dataset.Record, text_field: str) -> str:
    value = _model_text(partial(getattr, rec), text_field)
    if value is None:
        raise UsageError(
            f"record {rec.id} has no {text_field!r} field; run the earlier "
            "pipeline stages or pick another --text-field"
        )
    return value


# --- subcommands -----------------------------------------------------------


def cmd_normalize(args) -> int:
    started = time.monotonic()
    in_path = _require_file(args.input, "input CSV")
    config = _load_norm_config(args)
    ds = _load_any(in_path, args.columns)
    results = [normalize(rec.text, config) for rec in ds]
    out_ds = dataset.with_fields(ds, normalized=[r.normalized for r in results])
    out_path = Path(args.output)
    count = dataset.export_jsonl(out_ds, out_path, with_normalized=True)
    changed = Counter(rule for r in results for rule in r.rules_applied)
    entities: Counter = Counter()
    for r in results:
        entities.update(r.entity_counts)
    _write_manifest(
        out_path,
        "normalize",
        _config_snapshot(config),
        [str(in_path)],
        [str(out_path)],
        None,
        started,
        {
            "records": count,
            "changed_by_rule": {rule: changed[rule] for rule in RULE_ORDER},
            "entities": {kind: entities[kind] for kind in ENTITY_KINDS},
            "passes": {str(n): k for n, k in sorted(Counter(r.passes for r in results).items())},
        },
    )
    _warn_if_empty(count, in_path, out_path)
    print(f"normalized {count} records -> {out_path}")
    return EXIT_OK


def cmd_segment(args) -> int:
    started = time.monotonic()
    in_path = _require_file(args.input, "input JSONL")
    if args.lexicon:
        lexicon = load_lexicon(_require_file(args.lexicon, "lexicon file"))
    else:
        lexicon = default_lexicon()
    rules = CliticRules(min_stem_len=args.min_stem_len)
    ds = dataset.load_jsonl(in_path)
    segmented = [
        segment_text(rec.normalized if rec.normalized is not None else rec.text, rules, lexicon)
        for rec in ds
    ]
    out_ds = dataset.with_fields(ds, segmented=segmented)
    out_path = Path(args.output)
    count = dataset.export_jsonl(out_ds, out_path, with_normalized=True)
    _write_manifest(
        out_path,
        "segment",
        {"lexicon": lexicon.source, "min_stem_len": rules.min_stem_len},
        [str(in_path)],
        [str(out_path)],
        None,
        started,
        {"records": count, **segment_stats(rules, lexicon)},
    )
    _warn_if_empty(count, in_path, out_path)
    print(f"segmented {count} records -> {out_path}")
    return EXIT_OK


def cmd_split(args) -> int:
    started = time.monotonic()
    if not 0.0 < args.ratio < 1.0:
        raise UsageError(f"--ratio must be in (0, 1), got {args.ratio}")
    in_path = _require_file(args.input, "input file")
    ds = _load_any(in_path)
    result = dataset.stratified_split(ds, args.ratio, args.seed)
    train_path, dev_path = Path(args.train_output), Path(args.dev_output)
    dataset.export_jsonl(result.train, train_path, with_normalized=True)
    dataset.export_jsonl(result.dev, dev_path, with_normalized=True)
    _write_manifest(
        train_path,
        "split",
        {"ratio": args.ratio, "seed": args.seed},
        [str(in_path)],
        [str(train_path), str(dev_path)],
        args.seed,
        started,
    )
    print(
        f"split {len(ds)} records -> train {len(result.train)} ({train_path}), "
        f"dev {len(result.dev)} ({dev_path})"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    started = time.monotonic()
    in_path = _require_file(args.input, "training JSONL")
    ds = dataset.load_jsonl(in_path)
    if len(ds) == 0:
        raise UsageError(f"training file {in_path} has no records")
    hyper = baseline.HyperParams(
        learning_rate=args.learning_rate,
        adam_epsilon=args.adam_epsilon,
        batch_size=args.batch_size,
        max_seq_len=args.max_seq_len,
        epochs=args.epochs,
        l2_lambda=args.l2_lambda,
        seed=args.seed,
    )
    cfg = baseline.FeatureConfig(hash_dim=args.hash_dim)
    pairs = [(_record_text(rec, args.text_field), rec.label(args.task)) for rec in ds]
    model = baseline.train(pairs, hyper, cfg)
    out_path = Path(args.output)
    baseline.save_model(model, out_path)
    _write_manifest(
        out_path,
        "train",
        {
            "task": args.task,
            "text_field": args.text_field,
            "hyper": _config_snapshot(hyper),
            "features": _config_snapshot(cfg),
        },
        [str(in_path)],
        [str(out_path)],
        args.seed,
        started,
        {**_config_snapshot(model.train_stats), "epoch_loss": list(model.loss_history)},
    )
    print(
        f"trained on {len(pairs)} records, final epoch loss {model.final_loss:.4f} "
        f"-> {out_path}"
    )
    return EXIT_OK


def cmd_predict(args) -> int:
    started = time.monotonic()
    model = baseline.load_model(_require_file(args.model, "model file"))
    in_path = _require_file(args.input, "input JSONL")
    out_path = Path(args.output)
    count = 0
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            for lineno, line in enumerate(dataset.read_utf8(in_path).splitlines(), start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                    if not isinstance(obj, dict):
                        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
                    rec_id = obj["id"]
                    text = _model_text(obj.get)
                    if text is None:
                        raise KeyError("text")
                except (ValueError, KeyError) as exc:
                    raise DataError(f"{in_path}:{lineno}: {exc}") from None
                if not isinstance(text, str):
                    raise DataError(
                        f"{in_path}:{lineno}: text is {type(text).__name__}, expected a string"
                    )
                label, probs = baseline.predict(model, text)
                out_line = json.dumps(
                    {
                        "id": rec_id,
                        "label": label,
                        "probs": {l: float(p) for l, p in zip(model.labels, probs)},
                    },
                    ensure_ascii=False,
                )
                try:
                    out_line.encode("utf-8")
                except UnicodeEncodeError:
                    # a JSON escape such as \ud800 in the id decodes to a lone surrogate
                    raise DataError(
                        f"{in_path}:{lineno}: id {rec_id!r} holds a lone surrogate, "
                        "which UTF-8 output cannot encode"
                    ) from None
                fh.write(out_line + "\n")
                count += 1
    except DataError:
        out_path.unlink(missing_ok=True)
        raise
    _write_manifest(
        out_path,
        "predict",
        {"model": str(args.model)},
        [str(in_path), str(args.model)],
        [str(out_path)],
        None,
        started,
    )
    _warn_if_empty(count, in_path, out_path)
    print(f"predicted {count} records -> {out_path}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    started = time.monotonic()
    in_path = _require_file(args.input, "gold JSONL")
    ds = dataset.load_jsonl(in_path)
    gold = [rec.label(args.task) for rec in ds]

    if args.pred:
        pred_path = _require_file(args.pred, "predictions JSONL")
        pred_by_id = {}
        for lineno, line in enumerate(dataset.read_utf8(pred_path).splitlines(), start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                rec_id, label = obj["id"], obj["label"]
                duplicate = rec_id in pred_by_id
            except (ValueError, KeyError, TypeError) as exc:
                raise DataError(f"{pred_path}:{lineno}: {exc}") from None
            if duplicate:
                raise DataError(f"{pred_path}:{lineno}: duplicate id {rec_id!r}")
            pred_by_id[rec_id] = label
        if len(pred_by_id) != len(gold):
            raise UsageError(
                f"gold has {len(gold)} records but predictions cover "
                f"{len(pred_by_id)} ids"
            )
        missing = [rec.id for rec in ds if rec.id not in pred_by_id]
        if missing:
            raise UsageError(f"predictions missing ids {missing[:5]}...")
        pred = [pred_by_id[rec.id] for rec in ds]
        model_path = args.pred
    elif args.model:
        model = baseline.load_model(_require_file(args.model, "model file"))
        pred = [
            baseline.predict(model, _record_text(rec, args.text_field))[0]
            for rec in ds
        ]
        model_path = args.model
    else:
        raise UsageError("evaluate needs --model or --pred")

    matrix = metrics.confusion_matrix(gold, pred, dataset.TASK_LABELS[args.task])
    rep = metrics.evaluation_report(matrix, args.task)
    rendered = metrics.report(rep, args.format)
    print(rendered)
    if args.output:
        out_path = Path(args.output)
        out_path.write_text(metrics.report(rep, "json") + "\n", encoding="utf-8")
        _write_manifest(
            out_path,
            "evaluate",
            {"task": args.task, "source": str(model_path), "format": args.format},
            [str(in_path), str(model_path)],
            [str(out_path)],
            None,
            started,
        )
    return EXIT_OK


def cmd_stats(args) -> int:
    in_path = _require_file(args.input, "input file")
    ds = _load_any(in_path)
    counts = dataset.class_distribution(ds, args.task)
    if args.format == "json":
        print(json.dumps({"task": args.task, "total": len(ds), "counts": counts}))
    else:
        print(f"task: {args.task}")
        for label, count in counts.items():
            print(f"{label} {count}")
        print(f"Total {len(ds)}")
    return EXIT_OK


def cmd_report(args) -> int:
    in_path = _require_file(args.input, "report JSON")
    try:
        rep = metrics.report_from_json(in_path.read_text(encoding="utf-8"))
    except (ValueError, KeyError) as exc:
        raise DataError(f"{in_path}: not a valid report ({exc})") from None
    print(metrics.report(rep, args.format))
    return EXIT_OK


# --- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taghrida",
        description="Arabic tweet preprocessing, segmentation and classification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="clean raw tweets into normalized JSONL")
    p.add_argument("--input", required=True, help="input CSV (or JSONL)")
    p.add_argument("--output", required=True, help="output JSONL path")
    p.add_argument("--config", help=f"key=value config file (default ${CONFIG_ENV_VAR})")
    p.add_argument("--columns", help="CSV column remap, e.g. text=tweet,sarcasm=sarc")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("segment", help="add clitic-segmented text to JSONL records")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--lexicon", help="stem lexicon path (default: packaged lexicon)")
    p.add_argument("--min-stem-len", type=int, default=2)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("split", help="stratified train/dev split")
    p.add_argument("--input", required=True)
    p.add_argument("--train-output", required=True)
    p.add_argument("--dev-output", required=True)
    p.add_argument("--ratio", type=float, default=0.9)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train the hashed-feature classifier")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True, help="model JSON path")
    p.add_argument("--task", required=True, choices=dataset.TASKS)
    p.add_argument("--text-field", default="auto", choices=TEXT_FIELDS)
    p.add_argument("--learning-rate", type=float, default=0.05)
    p.add_argument("--adam-epsilon", type=float, default=1e-8)
    p.add_argument("--batch-size", type=int, default=40)
    p.add_argument("--max-seq-len", type=int, default=256)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--l2-lambda", type=float, default=1e-4)
    p.add_argument("--hash-dim", type=int, default=2**18)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="write per-record predictions")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score a model or prediction file")
    p.add_argument("--input", required=True, help="gold-labeled JSONL")
    p.add_argument("--model", help="model JSON to run")
    p.add_argument("--pred", help="predictions JSONL to score instead of a model")
    p.add_argument("--task", required=True, choices=dataset.TASKS)
    p.add_argument("--format", default="table", choices=("table", "json"))
    p.add_argument("--output", help="also write the JSON report here")
    p.add_argument("--text-field", default="auto", choices=TEXT_FIELDS)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("stats", help="class distribution of a dataset")
    p.add_argument("--input", required=True)
    p.add_argument("--task", required=True, choices=dataset.TASKS)
    p.add_argument("--format", default="table", choices=("table", "json"))
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("report", help="render a saved JSON report")
    p.add_argument("--input", required=True)
    p.add_argument("--format", default="table", choices=("table", "json"))
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (UsageError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return EXIT_USAGE
    except IsADirectoryError as exc:
        print(f"error: {exc.filename or exc} is a directory, not a file", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
