"""CLI contract tests: exit codes, manifests, byte-level idempotence."""

from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from taghrida import baseline, cli
from taghrida.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE
from taghrida.normalize import RULE_ORDER, normalize
from taghrida.segment import CliticRules, default_lexicon, segment_token

from conftest import token_kind, write_csv


def run(*argv) -> int:
    return cli.main(list(argv))


@pytest.fixture()
def pipeline_dir(tmp_path, small_corpus):
    """Corpus CSV plus empty output dir for chained commands."""
    return small_corpus, tmp_path


def manifest_of(path: Path) -> dict:
    mpath = path.with_name(path.name + ".manifest.json")
    assert mpath.is_file(), f"no manifest alongside {path}"
    manifest = json.loads(mpath.read_text(encoding="utf-8"))
    for key in ("command", "tool_version", "config", "inputs", "outputs", "seed", "duration_s"):
        assert key in manifest, key
    return manifest


# --- normalize ----------------------------------------------------------------


def test_normalize_writes_jsonl_and_manifest(pipeline_dir):
    corpus, tmp = pipeline_dir
    out = tmp / "norm.jsonl"
    assert run("normalize", "--input", str(corpus), "--output", str(out)) == EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 200
    first = json.loads(lines[0])
    assert "text" in first and "normalized" in first
    assert manifest_of(out)["command"] == "normalize"


def test_normalize_empty_input(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("tweet,sarcasm,sentiment\n", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert run("normalize", "--input", str(empty), "--output", str(out)) == EXIT_OK
    assert out.read_text(encoding="utf-8") == ""


def test_normalize_bad_column_mapping_is_usage_error(pipeline_dir):
    corpus, tmp = pipeline_dir
    out = tmp / "x.jsonl"
    rc = run(
        "normalize",
        "--input", str(corpus),
        "--output", str(out),
        "--columns", "text=no_such_column",
    )
    assert rc == EXIT_USAGE


def test_normalize_missing_input(tmp_path):
    rc = run("normalize", "--input", str(tmp_path / "nope.csv"), "--output", str(tmp_path / "o"))
    assert rc == EXIT_USAGE


def test_normalize_bad_label_rows_are_data_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("tweet,sarcasm,sentiment\nنص,TRUE,pos\n", encoding="utf-8")
    rc = run("normalize", "--input", str(bad), "--output", str(tmp_path / "o.jsonl"))
    assert rc == EXIT_DATA


def test_output_path_that_is_a_directory_is_usage_error(pipeline_dir, capsys):
    corpus, tmp = pipeline_dir
    rc = run("normalize", "--input", str(corpus), "--output", str(tmp))
    assert rc == EXIT_USAGE
    assert "is a directory" in capsys.readouterr().err


def test_normalize_config_env_var(tmp_path, small_corpus, monkeypatch):
    cfg = tmp_path / "norm.cfg"
    cfg.write_text("max_repeat_run = 1\n", encoding="utf-8")
    monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(cfg))
    out = tmp_path / "n.jsonl"
    assert run("normalize", "--input", str(small_corpus), "--output", str(out)) == EXIT_OK
    snap = manifest_of(out)["config"]
    assert snap["max_repeat_run"] == 1


@pytest.mark.parametrize("line", ["removal_ranges = 1F600..1F64F", "max_repeat_run = two"])
def test_config_value_that_does_not_parse_is_usage_error_naming_its_line(pipeline_dir, line, capsys):
    corpus, tmp = pipeline_dir
    cfg = tmp / "norm.cfg"
    cfg.write_text(f"# config\n{line}\n", encoding="utf-8")
    out = tmp / "n.jsonl"
    rc = run("normalize", "--input", str(corpus), "--output", str(out), "--config", str(cfg))
    assert rc == EXIT_USAGE
    assert f"{cfg}:2: " in capsys.readouterr().err
    assert not out.exists()


def test_csv_that_is_not_utf8_is_refused_naming_its_line(tmp_path, capsys):
    rows = [{"tweet": f"نص رقم {i}", "sarcasm": "FALSE", "sentiment": "NEU"} for i in range(3000)]
    corpus = write_csv(rows, tmp_path / "c.csv")
    with open(corpus, "ab") as fh:
        fh.write(b"\xed\xa0\x80 bad,FALSE,NEU\r\n")  # line 3002: a UTF-8-encoded surrogate
    out = tmp_path / "n.jsonl"
    rc = run("normalize", "--input", str(corpus), "--output", str(out))
    assert rc == EXIT_DATA
    assert f"{corpus}:3002: " in capsys.readouterr().err
    assert not out.exists()


# --- segment -------------------------------------------------------------------


def test_segment_roundtrip_and_errors(pipeline_dir):
    corpus, tmp = pipeline_dir
    norm = tmp / "n.jsonl"
    seg = tmp / "s.jsonl"
    run("normalize", "--input", str(corpus), "--output", str(norm))
    assert run("segment", "--input", str(norm), "--output", str(seg)) == EXIT_OK
    from taghrida.segment import desegment

    for line in seg.read_text(encoding="utf-8").splitlines():
        obj = json.loads(line)
        assert desegment(obj["segmented"]) == obj["normalized"]
    # missing lexicon file
    rc = run(
        "segment", "--input", str(norm), "--output", str(seg),
        "--lexicon", str(tmp / "no_lex.txt"),
    )
    assert rc == EXIT_USAGE


def test_normalize_manifest_records_stats(tmp_path):
    texts = [
        "<b>مرحبا</b> @user_1 http://t.co/abc رااااائع",
        "راسلني a@b.com  اليوم😂😂",
        "الفوز(المؤكد)قريب 2021",
        "نص نظيف",
    ]
    corpus = write_csv(
        [{"tweet": t, "sarcasm": "FALSE", "sentiment": "NEU"} for t in texts], tmp_path / "c.csv"
    )
    out = tmp_path / "n.jsonl"
    assert run("normalize", "--input", str(corpus), "--output", str(out)) == EXIT_OK
    results = [normalize(text) for text in texts]
    stats = manifest_of(out)["stats"]
    assert stats == {
        "records": 4,
        "changed_by_rule": {
            rule: sum(rule in r.rules_applied for r in results) for rule in RULE_ORDER
        },
        "entities": {
            kind: sum(r.entity_counts.get(kind, 0) for r in results) for kind in ("url", "email", "mention")
        },
        "passes": {"1": 1, "2": 3},
    }
    assert all(stats["changed_by_rule"].values())
    assert stats["entities"] == {"url": 1, "email": 1, "mention": 1}
    assert [r.passes for r in results] == [2, 2, 2, 1]  # the clean text needs no second pass


def test_segment_manifest_records_stats(pipeline_dir):
    corpus, tmp = pipeline_dir
    norm, seg = tmp / "n.jsonl", tmp / "s.jsonl"
    run("normalize", "--input", str(corpus), "--output", str(norm))
    with norm.open("a", encoding="utf-8") as fh:  # two placeholder spans, a repeated token
        fh.write(json.dumps({
            "id": 999, "text": "x", "normalized": "[ رابط ] والكتاب [ مستخدم ] والكتاب",
            "sarcasm": "FALSE", "sentiment": "NEU",
        }) + "\n")
    before = norm.read_bytes()
    assert run("segment", "--input", str(norm), "--output", str(seg)) == EXIT_OK
    assert norm.read_bytes() == before
    tokens, spans = [], 0
    for line in before.decode("utf-8").splitlines():
        words = json.loads(line)["normalized"].split()
        i = 0
        while i < len(words):
            if words[i] == "[" and i + 2 < len(words) and words[i + 2] == "]":
                spans += 1
                i += 3
            else:
                tokens.append(words[i])
                i += 1
    rules, lexicon = CliticRules(), default_lexicon()
    kinds = Counter(token_kind(segment_token(token, rules, lexicon), rules, lexicon) for token in tokens)
    stats = manifest_of(seg)["stats"]
    assert stats == {
        "records": 201, "tokens": len(tokens), "distinct_tokens": len(set(tokens)), "placeholder_spans": spans,
        "lexicon_hits": kinds["lexicon_hits"], "fallback_peels": kinds["fallback_peels"],
        "passthrough": kinds["passthrough"],
    }
    assert spans >= 2 and len(set(tokens)) < len(tokens)
    assert min(kinds.values()) > 0 and len(kinds) == 3


SURROGATE = chr(0xD800)


@pytest.mark.parametrize(
    "command, record",
    [
        ("normalize", {"id": 1, "text": SURROGATE + " abc", "sarcasm": "FALSE", "sentiment": "NEU"}),
        (
            "segment",
            {"id": 1, "text": "abc", "normalized": SURROGATE + " abc", "sarcasm": "FALSE", "sentiment": "NEU"},
        ),
        ("predict", {"id": SURROGATE, "text": "abc"}),
    ],
)
def test_record_that_cannot_be_written_is_refused_naming_its_line(trained, command, record, capsys):
    tmp, tr, dv, model = trained
    inp, out = tmp / "surrogate.jsonl", tmp / "out.jsonl"
    good = {"id": 0, "text": "نص", "normalized": "نص", "sarcasm": "TRUE", "sentiment": "POS"}
    # json.dumps escapes the lone surrogate as \ud800, as a JSON writer may
    inp.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
    argv = [command, "--input", str(inp), "--output", str(out)]
    if command == "predict":
        argv += ["--model", str(model)]
    capsys.readouterr()
    assert run(*argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{inp}:2: " in err or (f"{inp}: " in err and "line 2: " in err)
    assert "surrogate" in err and "Traceback" not in err
    assert not out.exists()
    assert not out.with_name(out.name + ".manifest.json").exists()


@pytest.mark.parametrize("command", ["segment", "predict"])
def test_empty_input_warns(trained, command, capsys):
    tmp, tr, dv, model = trained
    inp, out = tmp / "empty.jsonl", tmp / "out.jsonl"
    inp.write_text("", encoding="utf-8")
    argv = [command, "--input", str(inp), "--output", str(out)]
    if command == "predict":
        argv += ["--model", str(model)]
    capsys.readouterr()
    assert run(*argv) == EXIT_OK
    assert f"warning: {inp} holds no records" in capsys.readouterr().err
    assert out.read_text(encoding="utf-8") == ""


# --- split ----------------------------------------------------------------------


def test_split_sizes_and_ratio_error(pipeline_dir):
    corpus, tmp = pipeline_dir
    tr, dv = tmp / "tr.jsonl", tmp / "dv.jsonl"
    assert (
        run(
            "split", "--input", str(corpus),
            "--train-output", str(tr), "--dev-output", str(dv),
            "--ratio", "0.9", "--seed", "42",
        )
        == EXIT_OK
    )
    assert len(tr.read_text(encoding="utf-8").splitlines()) == 180
    assert len(dv.read_text(encoding="utf-8").splitlines()) == 20
    assert manifest_of(tr)["seed"] == 42

    rc = run(
        "split", "--input", str(corpus),
        "--train-output", str(tr), "--dev-output", str(dv),
        "--ratio", "1.5",
    )
    assert rc == EXIT_USAGE


def test_split_idempotent_bytes(pipeline_dir):
    corpus, tmp = pipeline_dir
    tr1, dv1 = tmp / "a_tr.jsonl", tmp / "a_dv.jsonl"
    tr2, dv2 = tmp / "b_tr.jsonl", tmp / "b_dv.jsonl"
    for tr, dv in ((tr1, dv1), (tr2, dv2)):
        run(
            "split", "--input", str(corpus),
            "--train-output", str(tr), "--dev-output", str(dv),
            "--ratio", "0.9", "--seed", "7",
        )
    assert tr1.read_bytes() == tr2.read_bytes()
    assert dv1.read_bytes() == dv2.read_bytes()


# --- train / predict / evaluate ---------------------------------------------------


@pytest.fixture()
def trained(pipeline_dir):
    corpus, tmp = pipeline_dir
    norm = tmp / "n.jsonl"
    tr, dv = tmp / "tr.jsonl", tmp / "dv.jsonl"
    model = tmp / "model.json"
    run("normalize", "--input", str(corpus), "--output", str(norm))
    run(
        "split", "--input", str(norm),
        "--train-output", str(tr), "--dev-output", str(dv), "--seed", "5",
    )
    rc = run(
        "train", "--input", str(tr), "--output", str(model),
        "--task", "sentiment", "--hash-dim", "4096", "--epochs", "4", "--seed", "5",
    )
    assert rc == EXIT_OK
    return tmp, tr, dv, model


def test_train_predict_evaluate_chain(trained, capsys):
    tmp, tr, dv, model = trained
    preds = tmp / "preds.jsonl"
    assert (
        run("predict", "--model", str(model), "--input", str(dv), "--output", str(preds))
        == EXIT_OK
    )
    pred_lines = [json.loads(l) for l in preds.read_text(encoding="utf-8").splitlines()]
    assert all(set(p) == {"id", "label", "probs"} for p in pred_lines)

    report_path = tmp / "report.json"
    rc = run(
        "evaluate", "--input", str(dv), "--pred", str(preds),
        "--task", "sentiment", "--format", "table", "--output", str(report_path),
    )
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "C_E A P R M-F1" in out
    saved = json.loads(report_path.read_text(encoding="utf-8"))
    assert saved["task"] == "sentiment"
    assert 0.0 <= saved["official"] <= 1.0

    # model-direct evaluation agrees with prediction-file evaluation
    rc = run(
        "evaluate", "--input", str(dv), "--model", str(model),
        "--task", "sentiment", "--format", "json",
    )
    assert rc == EXIT_OK
    direct = json.loads(capsys.readouterr().out)
    assert direct["official"] == pytest.approx(saved["official"])


def test_predict_reads_the_text_train_and_evaluate_read(trained, capsys):
    # one markup tag: the text normalizes to "", which train and
    # evaluate --model read, so predict must read "" too
    tmp, tr, dv, model = trained
    tweet = '<img alt="جميل جميل">'
    corpus = write_csv([{"tweet": tweet, "sarcasm": "FALSE", "sentiment": "NEG"}], tmp / "tag.csv")
    norm, preds = tmp / "tag.jsonl", tmp / "tag_preds.jsonl"
    assert run("normalize", "--input", str(corpus), "--output", str(norm)) == EXIT_OK
    assert json.loads(norm.read_text(encoding="utf-8"))["normalized"] == ""
    assert run("predict", "--model", str(model), "--input", str(norm), "--output", str(preds)) == EXIT_OK
    loaded = baseline.load_model(model)
    _, probs = baseline.predict(loaded, "")
    (line,) = preds.read_text(encoding="utf-8").splitlines()
    assert json.loads(line)["probs"] == {l: float(p) for l, p in zip(loaded.labels, probs)}
    capsys.readouterr()
    reports = []
    for source in (["--model", str(model)], ["--pred", str(preds)]):
        rc = run("evaluate", "--input", str(norm), *source, "--task", "sentiment", "--format", "json")
        assert rc == EXIT_OK
        reports.append(json.loads(capsys.readouterr().out))
    assert reports[0] == reports[1]


def test_train_deterministic_model_bytes(trained):
    tmp, tr, dv, model = trained
    again = tmp / "model2.json"
    run(
        "train", "--input", str(tr), "--output", str(again),
        "--task", "sentiment", "--hash-dim", "4096", "--epochs", "4", "--seed", "5",
    )
    assert model.read_bytes() == again.read_bytes()


def test_evaluate_length_mismatch_usage_error(trained, tmp_path):
    tmp, tr, dv, model = trained
    preds = tmp / "short_preds.jsonl"
    preds.write_text('{"id": 0, "label": "NEU"}\n', encoding="utf-8")
    rc = run(
        "evaluate", "--input", str(dv), "--pred", str(preds), "--task", "sentiment"
    )
    assert rc == EXIT_USAGE


def test_evaluate_rejects_duplicate_prediction_ids(trained, tmp_path, capsys):
    tmp, tr, dv, model = trained
    preds = tmp / "preds.jsonl"
    assert run("predict", "--model", str(model), "--input", str(dv), "--output", str(preds)) == EXIT_OK
    lines = preds.read_text(encoding="utf-8").splitlines()
    last = json.loads(lines[-1])
    wrong = next(label for label in ("NEG", "NEU", "POS") if label != last["label"])
    # the last id is labelled twice, first wrongly and then correctly
    lines[-1:] = [json.dumps({**last, "label": wrong}), json.dumps(last)]
    preds.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    rc = run("evaluate", "--input", str(dv), "--pred", str(preds), "--task", "sentiment")
    assert rc == EXIT_DATA
    assert f"{preds}:{len(lines)}: duplicate id" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["5", '{"id": [1], "label": "NEU"}'])
def test_evaluate_rejects_prediction_line_that_is_no_record(trained, line):
    tmp, tr, dv, model = trained
    preds = tmp / "bad_preds.jsonl"
    preds.write_text(line + "\n", encoding="utf-8")
    rc = run("evaluate", "--input", str(dv), "--pred", str(preds), "--task", "sentiment")
    assert rc == EXIT_DATA


def test_predict_with_incomplete_model_is_data_error(trained, capsys):
    tmp, tr, dv, model = trained
    bad = tmp / "bad_model.json"
    bad.write_text(json.dumps({"format_version": baseline.MODEL_FORMAT_VERSION}), encoding="utf-8")
    rc = run("predict", "--model", str(bad), "--input", str(dv), "--output", str(tmp / "p.jsonl"))
    assert rc == EXIT_DATA
    assert "feature_config" in capsys.readouterr().err


def test_predict_with_format_1_model_asks_to_retrain(trained, capsys):
    tmp, tr, dv, model = trained
    old = tmp / "v1_model.json"
    payload = json.loads(model.read_text(encoding="utf-8"))
    old.write_text(json.dumps({**payload, "format_version": 1}), encoding="utf-8")
    capsys.readouterr()
    rc = run("predict", "--model", str(old), "--input", str(dv), "--output", str(tmp / "p.jsonl"))
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    assert "version 1" in err and "retrain" in err
    assert "Traceback" not in err


def test_predict_accepts_lone_surrogate(trained):
    tmp, tr, dv, model = trained
    inp, out = tmp / "surrogate.jsonl", tmp / "p.jsonl"
    # json.dumps escapes the lone surrogate as \ud800, as a JSON writer may
    inp.write_text(json.dumps({"id": 1, "text": chr(0xD800) + " abc"}) + "\n", encoding="utf-8")
    assert run("predict", "--model", str(model), "--input", str(inp), "--output", str(out)) == EXIT_OK
    (line,) = out.read_text(encoding="utf-8").splitlines()
    assert json.loads(line)["id"] == 1


def test_predict_featurizes_once_per_text(trained, monkeypatch):
    # perfbench's traced run wraps the module attribute baseline.featurize
    # and reads its (text, cfg) and result for every predicted text
    tmp, tr, dv, model = trained
    calls = []
    featurize = baseline.featurize

    def counting(text, cfg):
        calls.append(text)
        return featurize(text, cfg)

    monkeypatch.setattr(baseline, "featurize", counting)
    preds = tmp / "preds.jsonl"
    assert run("predict", "--model", str(model), "--input", str(dv), "--output", str(preds)) == EXIT_OK
    dev_texts = [json.loads(l)["normalized"] for l in dv.read_text(encoding="utf-8").splitlines()]
    assert calls == dev_texts


@pytest.mark.parametrize(
    "line", ["5", "[1]", '"x"', '{"id": 1, "text": 5}', '{"id": 1, "segmented": ["a"]}']
)
def test_predict_rejects_line_that_is_no_text_record(trained, line, capsys):
    tmp, tr, dv, model = trained
    inp = tmp / "bad_input.jsonl"
    inp.write_text('{"id": 0, "text": "نص"}\n' + line + "\n", encoding="utf-8")
    capsys.readouterr()
    rc = run("predict", "--model", str(model), "--input", str(inp), "--output", str(tmp / "p.jsonl"))
    assert rc == EXIT_DATA
    assert f"{inp}:2: " in capsys.readouterr().err


def test_train_manifest_records_stats(trained):
    tmp, tr, dv, model = trained
    stats = manifest_of(model)["stats"]
    assert stats["steps"] == 4 * math.ceil(180 / 40)
    assert len(stats["epoch_loss"]) == len(stats["epoch_s"]) == 4
    assert stats["epoch_loss"] == json.loads(model.read_text(encoding="utf-8"))["loss_history"]
    assert stats["featurize_s"] >= 0.0 and stats["columns_s"] >= 0.0
    assert stats["gradient_s"] > 0.0 and stats["optimizer_s"] > 0.0 and stats["penalty_s"] > 0.0
    assert stats["gradient_s"] + stats["optimizer_s"] + stats["penalty_s"] <= sum(stats["epoch_s"])
    assert 0 < stats["support"] <= 4096
    assert stats["bucket_occupancy"] == stats["support"] / 4096
    cfg = baseline.FeatureConfig(hash_dim=4096)
    texts = [json.loads(l)["normalized"] for l in tr.read_text(encoding="utf-8").splitlines()]
    assert stats["features"] == sum(len(baseline.featurize(text[:256], cfg)) for text in texts)


@pytest.mark.parametrize("flag", ["--learning-rate", "--adam-epsilon", "--l2-lambda"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_train_refuses_a_non_finite_hyperparameter(trained, capsys, flag, value):
    tmp, tr, dv, model = trained
    out = tmp / "bad.json"
    capsys.readouterr()
    assert run("train", "--input", str(tr), "--output", str(out), "--task", "sentiment",
               "--hash-dim", "4096", flag, value) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag[2:].replace("-", "_") in err
    assert not out.exists()


def test_train_reports_a_hash_dim_too_large_to_hold(trained):
    # 3 x 2**40 float64 weights (24 TiB) cannot be allocated under a 2 GB
    # address-space cap: the CLI says so, without a traceback, before
    # it trains.
    tmp, tr, dv, model = trained
    out = tmp / "huge.json"
    cap = 2 << 30
    proc = subprocess.run(
        [
            sys.executable, "-c", "import sys; from taghrida.cli import main; sys.exit(main(sys.argv[1:]))",
            "train", "--input", str(tr), "--output", str(out), "--task", "sentiment",
            "--hash-dim", str(2**40),
        ],
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == EXIT_DATA, proc.stderr[-2000:]
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert "(3, 1099511627776)" in proc.stderr  # the weight matrix
    assert not out.exists()


def test_evaluate_requires_model_or_pred(trained):
    tmp, tr, dv, model = trained
    assert run("evaluate", "--input", str(dv), "--task", "sentiment") == EXIT_USAGE


def test_end_to_end_pipeline_on_segmented_text(trained):
    tmp, tr, dv, model = trained
    seg_tr, seg_dv = tmp / "seg_tr.jsonl", tmp / "seg_dv.jsonl"
    run("segment", "--input", str(tr), "--output", str(seg_tr))
    run("segment", "--input", str(dv), "--output", str(seg_dv))
    seg_model = tmp / "seg_model.json"
    rc = run(
        "train", "--input", str(seg_tr), "--output", str(seg_model),
        "--task", "sarcasm", "--hash-dim", "4096", "--epochs", "3",
        "--text-field", "segmented",
    )
    assert rc == EXIT_OK


# --- stats / report -----------------------------------------------------------------


def test_stats_table_and_json(pipeline_dir, capsys):
    corpus, tmp = pipeline_dir
    assert run("stats", "--input", str(corpus), "--task", "sentiment") == EXIT_OK
    out = capsys.readouterr().out
    assert "NEG 70" in out and "NEU 90" in out and "POS 40" in out and "Total 200" in out

    assert run("stats", "--input", str(corpus), "--task", "sarcasm", "--format", "json") == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"] == {"FALSE": 160, "TRUE": 40}


def test_stats_unknown_task_is_usage_error(pipeline_dir, capsys):
    corpus, _ = pipeline_dir
    assert run("stats", "--input", str(corpus), "--task", "emotion") == EXIT_USAGE


def test_report_command_renders_saved_json(trained, capsys):
    tmp, tr, dv, model = trained
    report_path = tmp / "rep.json"
    run(
        "evaluate", "--input", str(dv), "--model", str(model),
        "--task", "sentiment", "--output", str(report_path),
    )
    capsys.readouterr()
    assert run("report", "--input", str(report_path)) == EXIT_OK
    assert "C_E A P R M-F1" in capsys.readouterr().out
    bad = tmp / "not_report.json"
    bad.write_text("{}", encoding="utf-8")
    assert run("report", "--input", str(bad)) == EXIT_DATA


def test_unknown_command_is_usage_error():
    assert run("frobnicate") == EXIT_USAGE
