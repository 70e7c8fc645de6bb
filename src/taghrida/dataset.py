"""Labeled tweet datasets: CSV/JSONL loading, stratified splitting,
class distributions.

Records carry two labels per tweet, a binary sarcasm flag
(TRUE / FALSE) and a three-way sentiment (POS / NEG / NEU), parsed
case-sensitively from their canonical string forms. The 90:10 protocol
is reproduced by `stratified_split`, which stratifies on the joint
(sarcasm, sentiment) pair so one split serves both classification tasks.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DataError, SchemaError

SARCASM_LABELS = ("FALSE", "TRUE")
SENTIMENT_LABELS = ("NEG", "NEU", "POS")
TASKS = ("sarcasm", "sentiment")
TASK_LABELS = {"sarcasm": SARCASM_LABELS, "sentiment": SENTIMENT_LABELS}

DEFAULT_SCHEMA = {
    "text": "tweet",
    "sarcasm": "sarcasm",
    "sentiment": "sentiment",
    "dialect": "dialect",
}

# JSONL field order is part of the interchange contract.
_JSONL_FIELDS = ("id", "text", "normalized", "segmented", "sarcasm", "sentiment")


@dataclass(frozen=True)
class Record:
    """One labeled tweet. `id` is assigned at load and never reused."""

    id: int
    text: str
    sarcasm: str
    sentiment: str
    dialect: str | None = None
    normalized: str | None = None
    segmented: str | None = None

    def __post_init__(self):
        if not self.text:
            raise ValueError("record text must be non-empty")
        if self.sarcasm not in SARCASM_LABELS:
            raise ValueError(f"bad sarcasm label {self.sarcasm!r}")
        if self.sentiment not in SENTIMENT_LABELS:
            raise ValueError(f"bad sentiment label {self.sentiment!r}")

    def label(self, task: str) -> str:
        if task == "sarcasm":
            return self.sarcasm
        if task == "sentiment":
            return self.sentiment
        raise ValueError(f"unknown task {task!r}")


@dataclass(frozen=True)
class LabeledDataset:
    """An ordered, immutable collection of records with provenance."""

    records: tuple[Record, ...]
    source: str = "<memory>"

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, i: int) -> Record:
        return self.records[i]

    def ids(self) -> frozenset[int]:
        return frozenset(r.id for r in self.records)


@dataclass(frozen=True)
class SplitResult:
    """A train/dev partition plus the parameters that produced it."""

    train: LabeledDataset
    dev: LabeledDataset
    seed: int
    ratio: float

    def __post_init__(self):
        if self.train.ids() & self.dev.ids():
            raise ValueError("train and dev share record ids")


def _check_task(task: str) -> None:
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}; expected one of {TASKS}")


def read_utf8(path: str | Path) -> str:
    """A file's text, as `Path.read_text` gives it; bytes that are not
    UTF-8 are refused naming the file and the line of the first bad byte."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def _utf8_lines(fh, path: str | Path):
    """The lines of the text file `fh`, refusing bytes that are not
    UTF-8 as `read_utf8` does."""
    try:
        yield from fh
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def _not_utf8(path: str | Path) -> DataError:
    """The error for a file that is not UTF-8, naming the line of its
    first bad byte. A decoder reading in chunks reports an offset into
    the chunk, so the file is decoded again, whole."""
    raw = Path(path).read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        return DataError(f"{path}:{line}: not UTF-8: byte 0x{raw[exc.start]:02x} ({exc.reason})")
    return DataError(f"{path}: not UTF-8")  # the file changed between the reads


def load_csv(path: str | Path, schema: dict[str, str] | None = None) -> LabeledDataset:
    """Load a training CSV into a dataset.

    `schema` remaps logical field names (text, sarcasm, sentiment,
    dialect) to column names; defaults match the common tweet/sarcasm/
    sentiment/dialect layout. Every row must carry non-empty text and
    exact-case labels; all bad rows are collected and reported together
    with their row numbers.
    """
    path = Path(path)
    columns = dict(DEFAULT_SCHEMA)
    columns.update(schema or {})
    records = []
    problems = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(_utf8_lines(fh, path))
        if reader.fieldnames is None:
            raise SchemaError(f"{path}: empty file, no header row")
        for logical in ("text", "sarcasm", "sentiment"):
            if columns[logical] not in reader.fieldnames:
                raise SchemaError(
                    f"{path}: missing required column {columns[logical]!r} "
                    f"(for {logical}); found {reader.fieldnames}"
                )
        has_dialect = columns["dialect"] in reader.fieldnames
        for rownum, row in enumerate(reader, start=2):  # header is row 1
            try:
                records.append(
                    Record(
                        id=len(records),
                        text=row[columns["text"]] or "",
                        sarcasm=row[columns["sarcasm"]] or "",
                        sentiment=row[columns["sentiment"]] or "",
                        dialect=row[columns["dialect"]] if has_dialect else None,
                    )
                )
            except ValueError as exc:
                problems.append(f"row {rownum}: {exc}")
    if problems:
        raise DataError(
            f"{path}: {len(problems)} bad row(s):\n" + "\n".join(problems)
        )
    return LabeledDataset(records=tuple(records), source=str(path))


def _require_utf8(rec: Record) -> None:
    """Refuse a record that `export_jsonl` could not write: a JSON
    escape such as \\ud800 decodes to a lone surrogate, which UTF-8
    cannot encode."""
    for name in ("text", "normalized", "segmented", "dialect"):
        value = getattr(rec, name)
        if isinstance(value, str):
            try:
                value.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise ValueError(
                    f"{name} holds a lone surrogate U+{ord(value[exc.start]):04X}, "
                    "which UTF-8 output cannot encode"
                ) from None


def load_jsonl(path: str | Path) -> LabeledDataset:
    """Load a dataset from the JSONL interchange format. A record whose
    text fields hold a lone surrogate is a bad line."""
    path = Path(path)
    records = []
    problems = []
    lines = read_utf8(path).splitlines()
    # Strict UTF-8 decoding yields no lone surrogate; only a \u escape
    # can spell one, so a file without "\u" needs no check per record.
    has_escapes = any("\\u" in line for line in lines)
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            rec = Record(
                id=int(obj["id"]),
                text=obj["text"],
                sarcasm=obj["sarcasm"],
                sentiment=obj["sentiment"],
                dialect=obj.get("dialect"),
                normalized=obj.get("normalized"),
                segmented=obj.get("segmented"),
            )
            if has_escapes:
                _require_utf8(rec)
            records.append(rec)
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"line {lineno}: {exc}")
    if problems:
        raise DataError(
            f"{path}: {len(problems)} bad line(s):\n" + "\n".join(problems)
        )
    return LabeledDataset(records=tuple(records), source=str(path))


def export_jsonl(
    ds: LabeledDataset, path: str | Path, with_normalized: bool = False
) -> int:
    """Write a dataset as JSONL, one object per line, fixed key order
    (id, text, normalized?, segmented?, sarcasm, sentiment). Returns the
    number of records written."""
    path = Path(path)
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for rec in ds:
            obj = {"id": rec.id, "text": rec.text}
            if with_normalized and rec.normalized is not None:
                obj["normalized"] = rec.normalized
            if rec.segmented is not None:
                obj["segmented"] = rec.segmented
            obj["sarcasm"] = rec.sarcasm
            obj["sentiment"] = rec.sentiment
            if rec.dialect is not None:
                obj["dialect"] = rec.dialect
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")
            count += 1
    return count


def class_distribution(ds: LabeledDataset, task: str) -> dict[str, int]:
    """Label -> count for one task, zero-filled over the full label set."""
    _check_task(task)
    counts = {label: 0 for label in TASK_LABELS[task]}
    for rec in ds:
        counts[rec.label(task)] += 1
    return counts


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def stratified_split(ds: LabeledDataset, ratio: float, seed: int) -> SplitResult:
    """Deterministic stratified train/dev split.

    Strata are the joint (sarcasm, sentiment) pairs. Each stratum
    contributes floor or ceil of ratio*|stratum| to train (largest
    fractional remainders get the extra records) so the train total is
    exactly round(ratio*N) while every stratum stays within one record
    of proportional. Records keep their ids and original order inside
    each side.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
    if len(ds) == 0:
        raise ValueError("cannot split an empty dataset")

    strata: dict[tuple[str, str], list[int]] = {}
    for idx, rec in enumerate(ds):
        strata.setdefault((rec.sarcasm, rec.sentiment), []).append(idx)

    target_train = _round_half_up(ratio * len(ds))
    keys = sorted(strata)
    base = {k: int(np.floor(ratio * len(strata[k]))) for k in keys}
    remainders = sorted(
        keys, key=lambda k: (-(ratio * len(strata[k]) - base[k]), k)
    )
    deficit = target_train - sum(base.values())
    take = dict(base)
    for k in remainders[:deficit]:
        take[k] += 1

    rng = np.random.default_rng(seed)
    train_idx: list[int] = []
    dev_idx: list[int] = []
    for k in keys:
        members = np.array(strata[k])
        order = rng.permutation(len(members))
        chosen = members[order[: take[k]]]
        train_idx.extend(int(i) for i in chosen)
        dev_idx.extend(int(i) for i in members[order[take[k] :]])

    train_idx.sort()
    dev_idx.sort()
    train = LabeledDataset(
        records=tuple(ds[i] for i in train_idx), source=ds.source
    )
    dev = LabeledDataset(records=tuple(ds[i] for i in dev_idx), source=ds.source)
    return SplitResult(train=train, dev=dev, seed=seed, ratio=ratio)


def with_fields(ds: LabeledDataset, **updates) -> LabeledDataset:
    """Dataset with per-record field updates; `updates` maps a field
    name to a list of one value per record (None leaves a record as is)."""
    n = len(ds)
    for name, values in updates.items():
        if len(values) != n:
            raise ValueError(f"{name}: expected {n} values, got {len(values)}")
    new_records = []
    for i, rec in enumerate(ds):
        changes = {
            name: values[i]
            for name, values in updates.items()
            if values[i] is not None
        }
        new_records.append(replace(rec, **changes) if changes else rec)
    return LabeledDataset(records=tuple(new_records), source=ds.source)
