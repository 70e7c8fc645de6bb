"""Dataset loading, splitting and distribution tests."""

from __future__ import annotations

import csv
from collections import Counter

import pytest

from conftest import joint_counts
from taghrida import dataset
from taghrida.errors import DataError, SchemaError


def write_rows(path, rows, fieldnames=("tweet", "sarcasm", "sentiment", "dialect")):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(fieldnames))
        writer.writeheader()
        writer.writerows(rows)
    return path


# --- load_csv ----------------------------------------------------------------


def test_load_csv(small_corpus):
    ds = dataset.load_csv(small_corpus)
    assert len(ds) == 200
    assert [r.id for r in ds] == list(range(200))
    assert ds.source == str(small_corpus)
    assert all(r.dialect for r in ds)


def test_load_csv_header_only(tmp_path):
    path = write_rows(tmp_path / "empty.csv", [])
    ds = dataset.load_csv(path)
    assert len(ds) == 0


def test_load_csv_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("tweet,sarcasm\nx,TRUE\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="sentiment"):
        dataset.load_csv(path)


def test_load_csv_lowercase_label_rejected(tmp_path):
    rows = [
        {"tweet": "نص", "sarcasm": "TRUE", "sentiment": "pos", "dialect": ""},
        {"tweet": "نص اخر", "sarcasm": "maybe", "sentiment": "NEG", "dialect": ""},
    ]
    path = write_rows(tmp_path / "bad.csv", rows)
    with pytest.raises(DataError) as exc:
        dataset.load_csv(path)
    message = str(exc.value)
    # all offending rows listed with their numbers
    assert "row 2" in message and "row 3" in message and "2 bad row" in message


def test_load_csv_empty_text_rejected(tmp_path):
    rows = [{"tweet": "", "sarcasm": "TRUE", "sentiment": "POS", "dialect": ""}]
    path = write_rows(tmp_path / "bad.csv", rows)
    with pytest.raises(DataError, match="non-empty"):
        dataset.load_csv(path)


def test_load_csv_schema_remap(tmp_path):
    path = tmp_path / "remap.csv"
    path.write_text("body,sarc,sent\nمرحبا,FALSE,NEU\n", encoding="utf-8")
    ds = dataset.load_csv(
        path, schema={"text": "body", "sarcasm": "sarc", "sentiment": "sent"}
    )
    assert len(ds) == 1 and ds[0].text == "مرحبا"
    assert ds[0].dialect is None


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        dataset.load_csv(tmp_path / "absent.csv")


# --- class distributions -----------------------------------------------------


def test_class_distribution(small_corpus):
    ds = dataset.load_csv(small_corpus)
    assert dataset.class_distribution(ds, "sarcasm") == {"FALSE": 160, "TRUE": 40}
    assert dataset.class_distribution(ds, "sentiment") == {
        "NEG": 70,
        "NEU": 90,
        "POS": 40,
    }


def test_class_distribution_empty():
    ds = dataset.LabeledDataset(records=())
    assert dataset.class_distribution(ds, "sarcasm") == {"FALSE": 0, "TRUE": 0}
    assert dataset.class_distribution(ds, "sentiment") == {"NEG": 0, "NEU": 0, "POS": 0}
    with pytest.raises(ValueError):
        dataset.class_distribution(ds, "emotion")


def test_distribution_sums_to_total(small_corpus):
    ds = dataset.load_csv(small_corpus)
    for task in ("sarcasm", "sentiment"):
        assert sum(dataset.class_distribution(ds, task).values()) == len(ds)


# --- stratified split ---------------------------------------------------------


def test_split_exact_sizes(small_corpus):
    ds = dataset.load_csv(small_corpus)
    result = dataset.stratified_split(ds, 0.9, seed=42)
    assert len(result.train) == 180 and len(result.dev) == 20
    assert result.seed == 42 and result.ratio == 0.9


def test_split_partition(small_corpus):
    ds = dataset.load_csv(small_corpus)
    result = dataset.stratified_split(ds, 0.8, seed=3)
    assert result.train.ids() | result.dev.ids() == ds.ids()
    assert not result.train.ids() & result.dev.ids()


def test_split_stratification_bound(small_corpus):
    ds = dataset.load_csv(small_corpus)
    result = dataset.stratified_split(ds, 0.9, seed=11)
    whole = Counter((r.sarcasm, r.sentiment) for r in ds)
    train = Counter((r.sarcasm, r.sentiment) for r in result.train)
    for key, total in whole.items():
        assert abs(train[key] - 0.9 * total) <= 1.0, key


def test_split_deterministic(small_corpus):
    ds = dataset.load_csv(small_corpus)
    a = dataset.stratified_split(ds, 0.9, seed=42)
    b = dataset.stratified_split(ds, 0.9, seed=42)
    assert a.train.ids() == b.train.ids()
    c = dataset.stratified_split(ds, 0.9, seed=43)
    assert a.train.ids() != c.train.ids()


def test_split_single_stratum_rounding():
    records = tuple(
        dataset.Record(id=i, text=f"t{i}", sarcasm="FALSE", sentiment="NEU")
        for i in range(10)
    )
    ds = dataset.LabeledDataset(records=records)
    result = dataset.stratified_split(ds, 0.9, seed=0)
    assert len(result.train) == 9 and len(result.dev) == 1


def test_split_bad_ratio(small_corpus):
    ds = dataset.load_csv(small_corpus)
    for ratio in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ValueError):
            dataset.stratified_split(ds, ratio, seed=0)
    with pytest.raises(ValueError):
        dataset.stratified_split(dataset.LabeledDataset(records=()), 0.9, seed=0)


def test_two_loads_of_one_file_compare_equal(tmp_path, small_corpus):
    assert dataset.load_csv(small_corpus) == dataset.load_csv(small_corpus)
    out = tmp_path / "out.jsonl"
    dataset.export_jsonl(dataset.load_csv(small_corpus), out)
    assert dataset.load_jsonl(out) == dataset.load_jsonl(out)


# --- jsonl export / load ------------------------------------------------------


def test_export_jsonl_roundtrip(tmp_path, small_corpus):
    ds = dataset.load_csv(small_corpus)
    out = tmp_path / "out.jsonl"
    count = dataset.export_jsonl(ds, out)
    assert count == len(ds)
    back = dataset.load_jsonl(out)
    assert len(back) == len(ds)
    for a, b in zip(ds, back):
        assert (a.id, a.text, a.sarcasm, a.sentiment) == (b.id, b.text, b.sarcasm, b.sentiment)


def test_export_jsonl_field_order(tmp_path):
    rec = dataset.Record(
        id=0, text="نص", sarcasm="FALSE", sentiment="NEU", normalized="نص", segmented="نص"
    )
    ds = dataset.LabeledDataset(records=(rec,))
    out = tmp_path / "one.jsonl"
    dataset.export_jsonl(ds, out, with_normalized=True)
    line = out.read_text(encoding="utf-8").strip()
    keys = list(__import__("json").loads(line))
    assert keys == ["id", "text", "normalized", "segmented", "sarcasm", "sentiment"]


def test_export_jsonl_empty(tmp_path):
    ds = dataset.LabeledDataset(records=())
    out = tmp_path / "none.jsonl"
    assert dataset.export_jsonl(ds, out) == 0
    assert out.read_text(encoding="utf-8") == ""


def test_load_jsonl_reports_bad_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"id": 0, "text": "x", "sarcasm": "TRUE", "sentiment": "POS"}\n'
        "not json\n"
        '{"id": 2, "text": "y", "sarcasm": "yes", "sentiment": "POS"}\n',
        encoding="utf-8",
    )
    with pytest.raises(DataError) as exc:
        dataset.load_jsonl(path)
    assert "line 2" in str(exc.value) and "line 3" in str(exc.value)


@pytest.mark.parametrize("loader", [dataset.load_csv, dataset.load_jsonl])
def test_file_that_is_not_utf8_is_refused_naming_its_line(tmp_path, loader):
    path = tmp_path / "latin1.txt"
    good = '{"id": 0, "text": "x", "sarcasm": "TRUE", "sentiment": "POS"}'
    path.write_bytes(f"tweet,sarcasm,sentiment\n{good}\n".encode() + "café".encode("latin-1") + b"\n")
    with pytest.raises(DataError) as exc:
        loader(path)
    assert str(exc.value).startswith(f"{path}:3: ")
    assert "0xe9" in str(exc.value)


def test_with_fields(small_corpus):
    ds = dataset.load_csv(small_corpus)
    normalized = [r.text.upper() for r in ds]
    updated = dataset.with_fields(ds, normalized=normalized)
    assert all(u.normalized == n for u, n in zip(updated, normalized))
    with pytest.raises(ValueError):
        dataset.with_fields(ds, normalized=["x"])


# --- fixture corpus consistency ----------------------------------------------


def test_synth_rows_match_requested_marginals(tmp_path):
    sarc = {"FALSE": 10380, "TRUE": 2168}
    sent = {"NEG": 4621, "NEU": 5747, "POS": 2180}
    table = joint_counts(sarc, sent)
    assert sum(table.values()) == 12548
    for s in sarc:
        assert sum(v for (a, _), v in table.items() if a == s) == sarc[s]
    for s in sent:
        assert sum(v for (_, b), v in table.items() if b == s) == sent[s]
