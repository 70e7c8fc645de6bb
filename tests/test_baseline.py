"""Baseline classifier tests: gradient correctness against central
finite differences, separable-set fitting, determinism, persistence."""

from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import reference_baseline
import reference_preprocess
from conftest import separable_examples, synth_rows
from taghrida import baseline
from taghrida.baseline import (
    BaselineModel,
    FeatureConfig,
    HyperParams,
    featurize,
    load_model,
    loss_and_gradient,
    predict,
    save_model,
    train,
)
from taghrida.dataset import TASK_LABELS
from taghrida.metrics import confusion_matrix, evaluation_report

SMALL_CFG = FeatureConfig(hash_dim=2**10)


def tiny_model(n_classes=3, hash_dim=2**10, seed=0):
    rng = np.random.default_rng(seed)
    cfg = FeatureConfig(hash_dim=hash_dim)
    return BaselineModel(
        labels=tuple(f"C{i}" for i in range(n_classes)),
        weights=rng.normal(scale=0.5, size=(n_classes, hash_dim)),
        bias=rng.normal(scale=0.5, size=n_classes),
        feature_config=cfg,
        max_seq_len=256,
        seed=seed,
    )


# --- featurize ---------------------------------------------------------------


def test_featurize_empty():
    assert featurize("", SMALL_CFG) == {}


def test_featurize_single_char_is_one_unigram():
    vec = featurize("ا", SMALL_CFG)
    assert len(vec) == 1
    assert abs(next(iter(vec.values()))) == 1.0


def test_featurize_deterministic():
    text = "والكتاب جميل جدا 123"
    assert featurize(text, SMALL_CFG) == featurize(text, SMALL_CFG)


def test_featurize_seed_changes_buckets():
    a = featurize("كتاب", FeatureConfig(hash_dim=2**10, hash_seed=0))
    b = featurize("كتاب", FeatureConfig(hash_dim=2**10, hash_seed=1))
    assert a != b


def test_featurize_counts_accumulate():
    # the same bigram twice contributes |value| 2 in its bucket
    vec = featurize("aaa", FeatureConfig(char_ngram_range=(2, 2), include_word_unigrams=False))
    assert sorted(abs(v) for v in vec.values()) == [2.0]


feature_configs = st.builds(
    FeatureConfig,
    char_ngram_range=st.tuples(st.integers(1, 8), st.integers(1, 8)).map(lambda r: tuple(sorted(r))),
    include_word_unigrams=st.booleans(),
    hash_dim=st.sampled_from([2**10, 2**12, 2**18, 2**20, 2**63]),
    hash_seed=st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([0, 1, 2**64 - 1])),
)
feature_text = st.text(
    alphabet=st.one_of(
        st.characters(),
        st.characters(categories=["Cs"]),  # lone surrogates
        st.sampled_from("كتاب والجميل ab\n"),
    ),
    max_size=60,
)


@given(feature_text, feature_configs)
@example(chr(0xD800) + " abc", SMALL_CFG)
@example(chr(0xD83D) + chr(0xDE00) + " " + chr(0x10FFFF), SMALL_CFG)
@settings(max_examples=300, deadline=None)
def test_featurize_matches_reference_in_order(text, cfg):
    # ordered items: the order feeds the packed rows and the np.add.at order
    want = list(reference_preprocess.featurize(text, cfg).items())
    assert list(featurize(text, cfg).items()) == want


def test_featurize_hash_state_does_not_carry_across_seeds():
    # the salts are cached per seed: switching seeds must not reuse them
    text = "والكتاب جميل جدا abc"
    for seed in (7, 2**64 - 1, 7, 0):
        cfg = FeatureConfig(hash_dim=2**18, hash_seed=seed)
        want = list(reference_preprocess.featurize(text, cfg).items())
        assert list(featurize(text, cfg).items()) == want


def test_features_is_a_read_only_mapping_like_the_reference_dict():
    for text, cfg in [
        ("والكتاب جميل جدا abc", SMALL_CFG),
        ("خبر خبر خبر", FeatureConfig(hash_dim=2**18, hash_seed=3)),
        ("ا", SMALL_CFG),
    ]:
        want = reference_preprocess.featurize(text, cfg)
        got = featurize(text, cfg)
        assert isinstance(got, baseline.Features)
        assert list(got.items()) == list(want.items())
        assert list(got) == list(want) and list(got.values()) == list(want.values())
        assert len(got) == len(want) and got == want and dict(got) == want
        for bucket, value in want.items():
            assert bucket in got and got[bucket] == value
        missing = next(b for b in range(cfg.hash_dim) if b not in want)
        for key in (missing, -1, 2**63, 2**64, "a", 1.5, None):
            assert key not in got
            with pytest.raises(KeyError):
                got[key]
        with pytest.raises(TypeError):
            got[missing] = 1.0
        with pytest.raises(ValueError):
            got.vals[0] = 5.0  # the arrays are read-only too
        # what perfbench's traced observer reads from every result
        buckets = set()
        buckets.update(got)
        assert buckets == set(want) and len(got) == len(want)
    empty = featurize(CANCELLING_TEXT, SMALL_CFG)
    assert empty == {} and {} == empty and not empty and len(empty) == 0
    assert empty.idx.dtype == np.int64 and empty.vals.dtype == np.float64


def test_feature_config_validation():
    with pytest.raises(ValueError):
        FeatureConfig(char_ngram_range=(0, 3))
    with pytest.raises(ValueError):
        FeatureConfig(char_ngram_range=(4, 2))
    with pytest.raises(ValueError):
        FeatureConfig(hash_dim=1000)  # not a power of two
    with pytest.raises(ValueError):
        FeatureConfig(hash_dim=512)  # too small
    with pytest.raises(ValueError):
        FeatureConfig(hash_dim=2**64)  # the bucket would overlap the sign bit
    assert FeatureConfig(hash_dim=2**63).hash_dim == 2**63


def test_hyper_params_validation():
    with pytest.raises(ValueError):
        HyperParams(learning_rate=0)
    with pytest.raises(ValueError):
        HyperParams(epochs=-1)
    with pytest.raises(ValueError):
        HyperParams(l2_lambda=-0.1)
    assert HyperParams().adam_epsilon == 1e-8
    assert HyperParams().max_seq_len == 256
    assert HyperParams().epochs == 10
    assert HyperParams().batch_size == 40


@pytest.mark.parametrize("field", ["learning_rate", "adam_epsilon", "l2_lambda"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_hyper_params_reject_non_finite(field, value):
    # caught here, not after every epoch as "model parameters must be finite"
    with pytest.raises(ValueError, match=field):
        HyperParams(**{field: value})


# --- loss and gradient ---------------------------------------------------------


def test_loss_at_zero_weights_is_log_k():
    for k in (2, 3, 5):
        cfg = FeatureConfig(hash_dim=2**10)
        model = BaselineModel(
            labels=tuple(f"C{i}" for i in range(k)),
            weights=np.zeros((k, cfg.hash_dim)),
            bias=np.zeros(k),
            feature_config=cfg,
            max_seq_len=256,
            seed=0,
        )
        feats = featurize("نص تجريبي", cfg)
        loss, _, _ = loss_and_gradient(model, [(feats, "C0")])
        assert loss == pytest.approx(math.log(k), abs=1e-12)


def test_gradient_zero_weights_single_example():
    # at zero weights the gradient is (softmax - onehot) outer features
    cfg = FeatureConfig(hash_dim=2**10)
    model = BaselineModel(
        labels=("A", "B"),
        weights=np.zeros((2, cfg.hash_dim)),
        bias=np.zeros(2),
        feature_config=cfg,
        max_seq_len=256,
        seed=0,
    )
    feats = featurize("اب", cfg)
    _, grad_w, grad_b = loss_and_gradient(model, [(feats, "A")])
    err = np.array([0.5 - 1.0, 0.5])
    assert np.allclose(grad_b, err)
    for idx, val in feats.items():
        assert np.allclose(grad_w[:, idx], err * val)
    # bias-only gradient for an empty feature vector
    _, grad_w, grad_b = loss_and_gradient(model, [({}, "B")])
    assert np.allclose(grad_w, 0.0)
    assert np.allclose(grad_b, np.array([0.5, 0.5 - 1.0]))


def test_gradient_matches_finite_differences():
    """Central differences, h=1e-5, relative error <= 1e-4.

    The weight space is deliberately small (3 classes x 64 dims, 5
    random sparse examples) so every coordinate can be perturbed. The
    gradient math only sees raw feature dicts, so the batch is built
    directly instead of through featurize.
    """
    rng = np.random.default_rng(2024)
    n_classes, dim = 3, 2**6
    model = BaselineModel(
        labels=tuple(f"C{i}" for i in range(n_classes)),
        weights=rng.normal(scale=0.5, size=(n_classes, dim)),
        bias=rng.normal(scale=0.5, size=n_classes),
        feature_config=FeatureConfig(hash_dim=2**10),
        max_seq_len=256,
        seed=0,
    )
    batch = []
    for _ in range(5):
        nnz = rng.integers(1, 12)
        idxs = rng.choice(dim, size=nnz, replace=False)
        feats = {int(j): float(rng.integers(-3, 4) or 1) for j in idxs}
        batch.append((feats, model.labels[rng.integers(n_classes)]))
    l2 = 0.01
    h = 1e-5

    def loss_at(weights, bias):
        probe = BaselineModel(
            labels=model.labels,
            weights=weights,
            bias=bias,
            feature_config=model.feature_config,
            max_seq_len=256,
            seed=0,
        )
        return loss_and_gradient(probe, batch, l2)[0]

    _, grad_w, grad_b = loss_and_gradient(model, batch, l2)

    def check(analytic, numeric):
        denom = max(abs(analytic), abs(numeric), 1e-8)
        assert abs(analytic - numeric) / denom <= 1e-4, (analytic, numeric)

    for k in range(n_classes):
        for j in range(dim):
            w_plus = model.weights.copy()
            w_minus = model.weights.copy()
            w_plus[k, j] += h
            w_minus[k, j] -= h
            numeric = (loss_at(w_plus, model.bias) - loss_at(w_minus, model.bias)) / (2 * h)
            if abs(numeric) < 1e-10 and abs(grad_w[k, j]) < 1e-10:
                continue
            check(grad_w[k, j], numeric)
        b_plus = model.bias.copy()
        b_minus = model.bias.copy()
        b_plus[k] += h
        b_minus[k] -= h
        numeric = (loss_at(model.weights, b_plus) - loss_at(model.weights, b_minus)) / (2 * h)
        check(grad_b[k], numeric)


def test_loss_errors():
    model = tiny_model()
    with pytest.raises(ValueError):
        loss_and_gradient(model, [])
    with pytest.raises(ValueError):
        loss_and_gradient(model, [({}, "nope")])


# --- training ------------------------------------------------------------------


def test_train_fits_separable_set():
    examples = separable_examples()
    model = train(examples, HyperParams(epochs=10, batch_size=4, seed=0), SMALL_CFG)
    correct = sum(predict(model, text)[0] == label for text, label in examples)
    assert correct == len(examples)


def test_train_loss_trend_non_increasing():
    # trend measured on the data term alone (l2 off): the penalty is a
    # function of weight norm, not of fit, and drifts upward once the
    # separable set is solved
    examples = separable_examples()
    model = train(
        examples,
        HyperParams(epochs=8, batch_size=4, seed=3, l2_lambda=0.0),
        SMALL_CFG,
    )
    losses = model.loss_history
    assert len(losses) == 8
    # allow warmup noise over the first two epochs, monotone after
    for earlier, later in zip(losses[1:], losses[2:]):
        assert later <= earlier + 1e-9, losses


def test_train_deterministic_bitwise():
    examples = separable_examples()
    hyper = HyperParams(epochs=3, batch_size=4, seed=11)
    a = train(examples, hyper, SMALL_CFG)
    b = train(examples, hyper, SMALL_CFG)
    assert a.weights.tobytes() == b.weights.tobytes()
    assert a.bias.tobytes() == b.bias.tobytes()
    assert a.final_loss == b.final_loss
    c = train(examples, HyperParams(epochs=3, batch_size=4, seed=12), SMALL_CFG)
    assert a.weights.tobytes() != c.weights.tobytes()


def test_train_rejects_single_label():
    with pytest.raises(ValueError, match="labels"):
        train([("نص", "POS"), ("اخر", "POS")], HyperParams(epochs=1), SMALL_CFG)
    with pytest.raises(ValueError):
        train([], HyperParams(epochs=1), SMALL_CFG)


def test_train_stats(tmp_path):
    examples = separable_examples()
    model = train(examples, HyperParams(epochs=3, batch_size=6, seed=0), SMALL_CFG)
    stats = model.train_stats
    assert stats.steps == 3 * 4  # 20 examples in batches of 6: 6, 6, 6, 2
    assert len(stats.epoch_s) == 3 and all(s >= 0.0 for s in stats.epoch_s)
    assert stats.featurize_s >= 0.0 and stats.columns_s >= 0.0
    assert stats.penalty_s > 0.0  # the default l2_lambda is not zero
    no_l2 = train(examples, HyperParams(epochs=1, l2_lambda=0.0), SMALL_CFG).train_stats
    assert no_l2.penalty_s == 0.0
    buckets = set()
    for text, _ in examples:
        buckets.update(featurize(text, SMALL_CFG))
    assert stats.support == len(buckets)
    assert stats.bucket_occupancy == len(buckets) / SMALL_CFG.hash_dim
    # the stats describe one training run and are not part of the model file
    path = tmp_path / "model.json"
    save_model(model, path)
    assert load_model(path).train_stats is None


def test_train_memory_peak_stays_near_the_packed_features():
    # The packed features take 16 bytes each and their support columns 8
    # more. Mapping buckets to columns with np.unique(buckets,
    # return_inverse=True) sorted copies of them all, and train's traced
    # peak reached 58 bytes per feature here; a presence mask and a
    # bucket-to-column table of hash_dim entries peak at 30.
    rows = synth_rows({"FALSE": 1333, "TRUE": 667}, {"NEG": 666, "NEU": 667, "POS": 667}, seed=5)
    pairs = [(row["tweet"], row["sarcasm"]) for row in rows]
    cfg, hyper = FeatureConfig(hash_dim=2**12), HyperParams(epochs=1)
    train(pairs[:50], hyper, cfg)  # fill featurize's lookup-table caches
    n_features = sum(len(featurize(text[: hyper.max_seq_len], cfg)) for text, _ in pairs)
    tracemalloc.start()
    try:
        train(pairs, hyper, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 36 * n_features, peak / n_features


# --- byte-exact against the dense reference trainer ------------------------------

# With hash_dim 1024 and hash_seed 0, the bigram and the word feature of
# this text land in one bucket with opposite signs: its feature dict is
# empty. Found by featurizing every two-character text over ASCII letters,
# digits and the Arabic letters U+0621-U+064A at SMALL_CFG.
CANCELLING_TEXT = "XG"
# A small alphabet, so that n-grams repeat within and across texts.
_ALPHABET = "ابتكلمن un"


def model_bytes(model: BaselineModel, path) -> bytes:
    save_model(model, path)
    return path.read_bytes()


def test_cancelling_text_has_no_features():
    assert featurize(CANCELLING_TEXT, SMALL_CFG) == {}


@st.composite
def training_runs(draw, n_labels: int, l2_lambda: float):
    labels = [f"L{i}" for i in range(n_labels)]
    texts = draw(st.lists(st.text(_ALPHABET, max_size=24), max_size=20))
    rows = [(text, draw(st.sampled_from(labels))) for text in texts]
    rows += [("", labels[0]), (CANCELLING_TEXT, labels[1]), ("كتاب منكم", labels[-1])]
    rows += [(label, label) for label in labels[2:-1]]  # every label is trained
    rows = draw(st.permutations(rows))
    batch_size = draw(st.integers(2, 7).filter(lambda b: len(rows) % b))
    hyper = HyperParams(
        learning_rate=draw(st.sampled_from([0.05, 0.5])),
        batch_size=batch_size,
        max_seq_len=draw(st.sampled_from([6, 256])),
        epochs=draw(st.integers(1, 3)),
        l2_lambda=l2_lambda,
        seed=draw(st.integers(0, 2**16)),
    )
    return rows, hyper


# (n_labels, l2_lambda, cfg). 17 labels make numpy's pairwise sum of the
# penalty split unevenly (runs of 136 elements split into 64 and 72).
_REFERENCE_RUNS = [
    pytest.param(n, l2, SMALL_CFG, id=f"{n}-{l2}") for n in (2, 3) for l2 in (0.0, 1e-3)
] + [
    pytest.param(n, l2, FeatureConfig(hash_dim=dim), id=f"{n}-{l2}-{dim}")
    for n, dim in ((17, 2**10), (17, 2**12), (3, 2**12))
    for l2 in (0.0, 1e-3)
]


@pytest.mark.parametrize("n_labels,l2_lambda,cfg", _REFERENCE_RUNS)
@settings(
    max_examples=12, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_train_matches_reference_bytes(tmp_path, l2_lambda, n_labels, cfg, data):
    rows, hyper = data.draw(training_runs(n_labels, l2_lambda))
    fast = model_bytes(train(rows, hyper, cfg), tmp_path / "fast.json")
    slow = model_bytes(reference_baseline.train(rows, hyper, cfg), tmp_path / "slow.json")
    assert fast == slow


@pytest.mark.parametrize("block", ["weights", "weights - 1", 7])
def test_train_block_boundaries_keep_reference_bytes(tmp_path, monkeypatch, block):
    # The step runs block by block over the weights, then the bias, in
    # one flat array: a block that ends at the last weight, one that
    # straddles it, and many small ones.
    rows = synth_rows({"FALSE": 60, "TRUE": 30}, {"NEG": 30, "NEU": 40, "POS": 20}, seed=3)
    pairs = [(row["tweet"], row["sentiment"]) for row in rows]
    hyper = HyperParams(epochs=2, l2_lambda=1e-3)
    support = set()
    for text, _ in pairs:
        support.update(featurize(text[: hyper.max_seq_len], SMALL_CFG))
    n_weights = 3 * len(support)
    sizes = {"weights": n_weights, "weights - 1": n_weights - 1}
    monkeypatch.setattr(baseline, "_BLOCK", sizes.get(block, block))
    fast = model_bytes(train(pairs, hyper, SMALL_CFG), tmp_path / "fast.json")
    slow = model_bytes(reference_baseline.train(pairs, hyper, SMALL_CFG), tmp_path / "slow.json")
    assert fast == slow


# (n_labels, log2 hash_dim): even splits down to the leaves (2, 3, 16),
# uneven splits under a balanced tree (17), an unbalanced tree (33, 100),
# and the defaults' 3 x 2**18
_PENALTY_SHAPES = [
    (2, 10), (2, 12), (3, 10), (3, 18), (5, 11), (16, 10), (17, 10), (17, 13), (33, 10), (100, 10)
]


@settings(max_examples=60, deadline=None)
@example(shape=(3, 18), occupancy=0.19, seed=0)
@given(
    shape=st.sampled_from(_PENALTY_SHAPES),
    occupancy=st.sampled_from([0.0, 0.001, 0.19, 0.9, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_pairwise_sum_of_the_support_matches_numpy(shape, occupancy, seed):
    n_labels, log_dim = shape
    size = n_labels << log_dim
    rng = np.random.default_rng(seed)
    support = np.flatnonzero(rng.random(size) < occupancy)
    dense = np.zeros(size)
    # magnitudes over 16 decades, so that another order of the additions shows
    dense[support] = rng.random(len(support)) * 10.0 ** rng.integers(-8, 8, len(support))
    assert baseline._PairwiseSum(size, support)(dense[support]) == float(dense.sum())


@pytest.mark.parametrize("task", ["sarcasm", "sentiment"])
def test_train_matches_reference_bytes_at_defaults(tmp_path, task):
    rows = synth_rows({"FALSE": 60, "TRUE": 30}, {"NEG": 30, "NEU": 40, "POS": 20}, seed=3)
    pairs = [(row["tweet"], row[task]) for row in rows]
    hyper = HyperParams(epochs=2)
    fast = model_bytes(train(pairs, hyper), tmp_path / "fast.json")
    slow = model_bytes(reference_baseline.train(pairs, hyper), tmp_path / "slow.json")
    assert fast == slow


def test_loss_and_gradient_matches_reference_bits():
    model = tiny_model(n_classes=3, seed=4)
    texts = ["كتاب جميل", "", CANCELLING_TEXT, "خبر خبر خبر", "abc 123"]
    batch = [(featurize(t, model.feature_config), f"C{i % 3}") for i, t in enumerate(texts)]
    for l2 in (0.0, 0.01):
        got = loss_and_gradient(model, batch, l2)
        want = reference_baseline.loss_and_gradient(model, batch, l2)
        assert got[0] == want[0]
        assert got[1].tobytes() == want[1].tobytes()
        assert got[2].tobytes() == want[2].tobytes()


def assert_same_bits(got, want):
    assert got[0] == want[0]
    for g, w in zip(got[1:], want[1:]):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("l2", [0.0, 0.01])
def test_loss_and_gradient_edge_batches_match_reference_bits(l2):
    model = tiny_model(n_classes=3, seed=6)
    cfg = model.feature_config
    batches = {
        "all rows empty": [
            ({}, "C0"),
            (featurize("", cfg), "C1"),
            (featurize(CANCELLING_TEXT, cfg), "C2"),
        ],
        "one row": [(featurize("كتاب جميل", cfg), "C2")],
        "one empty row": [({}, "C1")],
        # plain dicts, keys out of order, buckets shared across rows
        "plain dicts": [
            ({900: 2.0, 3: -1.0, 77: 0.5}, "C0"),
            ({}, "C2"),
            ({77: -3.0, 900: 1.0}, "C1"),
            ({3: 1.0}, "C0"),
        ],
    }
    for batch in batches.values():
        got = loss_and_gradient(model, batch, l2)
        assert_same_bits(got, reference_baseline.loss_and_gradient(model, batch, l2))


def test_loss_and_gradient_clamp_matches_reference_bits():
    # the target's probability underflows to 0.0, so the loss reads the
    # 1e-300 clamp: -log(1e-300) / 2 per such row
    cfg = FeatureConfig(hash_dim=2**10)
    feats = featurize("خبر", cfg)
    weights = np.zeros((2, cfg.hash_dim))
    weights[1, feats.idx] = 1000.0 * feats.vals
    model = BaselineModel(
        labels=("A", "B"), weights=weights, bias=np.array([0.0, 900.0]),
        feature_config=cfg, max_seq_len=256, seed=0,
    )
    batch = [(feats, "A"), ({}, "A")]
    got = loss_and_gradient(model, batch)
    assert got[0] == pytest.approx(-math.log(1e-300))
    assert_same_bits(got, reference_baseline.loss_and_gradient(model, batch))


def test_matmul_on_a_gather_slice_matches_a_fresh_gather():
    # The training kernel gathers a batch's rows of the bucket-major
    # table once and multiplies each row's slice of the transposed
    # gather; the bits equal a per-row column gather of the weights only
    # while the two have one layout and BLAS rounds a strided slice as it
    # rounds a fresh copy. A numpy or BLAS upgrade that breaks this fails
    # here.
    rng = np.random.default_rng(0)
    sizes = list(range(18)) + [31, 32, 33, 63, 64, 65, 127, 128, 129, 600]
    sizes += rng.integers(0, 601, size=120).tolist()
    for n_labels in (2, 3):
        table = rng.normal(size=(4096, n_labels))
        weights = np.ascontiguousarray(table.T)
        perm = rng.permutation(len(sizes))
        ptr = np.concatenate([[0], np.cumsum(np.array(sizes)[perm])])
        cols = rng.integers(0, 4096, size=ptr[-1])
        vals = rng.normal(size=ptr[-1]) * rng.integers(1, 4, size=ptr[-1])
        gathered = np.take(table, cols, axis=0).T
        assert gathered.strides == weights[:, cols].strides == (8, 8 * n_labels)
        out = np.zeros((len(sizes), n_labels))
        for r, (lo, hi) in enumerate(zip(ptr[:-1], ptr[1:])):
            np.matmul(gathered[:, lo:hi], vals[lo:hi], out=out[r])
            want = weights[:, cols[lo:hi]] @ vals[lo:hi]
            assert out[r].tobytes() == want.tobytes(), (n_labels, hi - lo, lo)


# --- prediction ------------------------------------------------------------------


def test_predict_probability_simplex():
    model = tiny_model(n_classes=4, hash_dim=2**10, seed=5)
    for text in ["كتاب", "خبر جميل جدا", "", "abc 123"]:
        _, probs = predict(model, text)
        assert (probs >= 0).all()
        assert abs(probs.sum() - 1.0) <= 1e-9


def test_predict_zero_weight_model_uniform_first_label():
    cfg = FeatureConfig(hash_dim=2**10)
    model = BaselineModel(
        labels=("A", "B", "C"),
        weights=np.zeros((3, cfg.hash_dim)),
        bias=np.zeros(3),
        feature_config=cfg,
        max_seq_len=256,
        seed=0,
    )
    label, probs = predict(model, "نص")
    assert label == "A"
    assert np.allclose(probs, 1 / 3)


def test_predict_argmax_scale_invariant():
    model = tiny_model(n_classes=3, hash_dim=2**10, seed=9)
    scaled = BaselineModel(
        labels=model.labels,
        weights=model.weights * 3.0,
        bias=model.bias * 3.0,
        feature_config=model.feature_config,
        max_seq_len=model.max_seq_len,
        seed=model.seed,
    )
    for text in ["كتاب جميل", "خبر", "xyz"]:
        assert predict(model, text)[0] == predict(scaled, text)[0]


def test_predict_truncates_to_max_seq_len():
    model = tiny_model(hash_dim=2**10)
    short = BaselineModel(
        labels=model.labels,
        weights=model.weights,
        bias=model.bias,
        feature_config=model.feature_config,
        max_seq_len=4,
        seed=0,
    )
    long_text = "ابجد" + "هوز" * 50
    full_label, full_probs = predict(short, long_text)
    cut_label, cut_probs = predict(short, long_text[:4])
    assert full_label == cut_label
    assert np.array_equal(full_probs, cut_probs)


# --- evaluate ---------------------------------------------------------------------


def test_evaluate_memorized_devset():
    examples = separable_examples()
    model = train(examples, HyperParams(epochs=10, batch_size=4, seed=0), SMALL_CFG)
    dev = [(t, l) for t, l in examples[:5]] + [(t, l) for t, l in examples[-5:]]
    # sentiment task needs all three labels; map POS/NEG straight through
    pred = [predict(model, text)[0] for text, _ in dev]
    matrix = confusion_matrix([label for _, label in dev], pred, TASK_LABELS["sentiment"])
    rep = evaluation_report(matrix, "sentiment")
    assert rep.official == 1.0
    assert rep.task == "sentiment"


def test_evaluate_constant_predictor_zero_official():
    cfg = FeatureConfig(hash_dim=2**10)
    # bias forces FALSE for every input
    model = BaselineModel(
        labels=("FALSE", "TRUE"),
        weights=np.zeros((2, cfg.hash_dim)),
        bias=np.array([5.0, -5.0]),
        feature_config=cfg,
        max_seq_len=64,
        seed=0,
    )
    dev = [("نص اول", "FALSE"), ("نص ثان", "FALSE"), ("نص ثالث", "TRUE")]
    pred = [predict(model, text)[0] for text, _ in dev]
    matrix = confusion_matrix([label for _, label in dev], pred, TASK_LABELS["sarcasm"])
    rep = evaluation_report(matrix, "sarcasm")
    assert rep.official == 0.0
    assert rep.accuracy == pytest.approx(2 / 3)


# --- persistence -------------------------------------------------------------------


def test_save_load_roundtrip(tmp_path):
    examples = separable_examples()
    model = train(examples, HyperParams(epochs=2, batch_size=4, seed=1), SMALL_CFG)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert back.labels == model.labels
    assert back.weights.tobytes() == model.weights.tobytes()
    assert back.bias.tobytes() == model.bias.tobytes()
    assert back.feature_config == model.feature_config
    assert back.max_seq_len == model.max_seq_len
    assert back.final_loss == model.final_loss
    assert back.loss_history == model.loss_history
    for text in ["قمر نجم اليوم", "صخر رمل غدا"]:
        assert predict(back, text)[0] == predict(model, text)[0]


def test_load_rejects_unknown_version(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"format_version": 99}', encoding="utf-8")
    with pytest.raises(ValueError, match="version"):
        load_model(path)


def _saved_payload(tmp_path) -> dict:
    path = tmp_path / "good.json"
    save_model(tiny_model(n_classes=2), path)
    return json.loads(path.read_text(encoding="utf-8"))


_bad_array = baseline._encode_array


_MALFORMED = {
    "only a version": lambda p: {"format_version": baseline.MODEL_FORMAT_VERSION},
    "not an object": lambda p: [p],
    "no feature_config": lambda p: {k: v for k, v in p.items() if k != "feature_config"},
    "no weights": lambda p: {k: v for k, v in p.items() if k != "weights"},
    "no max_seq_len": lambda p: {k: v for k, v in p.items() if k != "max_seq_len"},
    "labels a string": lambda p: {**p, "labels": "C0C1"},
    "label not a string": lambda p: {**p, "labels": ["C0", 1]},
    "hash_dim a string": lambda p: {**p, "feature_config": {**p["feature_config"], "hash_dim": "1024"}},
    "ngram range a number": lambda p: {**p, "feature_config": {**p["feature_config"], "char_ngram_range": 3}},
    "seed a float": lambda p: {**p, "seed": 1.5},
    "hash_seed negative": lambda p: {**p, "feature_config": {**p["feature_config"], "hash_seed": -1}},
    "loss history of strings": lambda p: {**p, "loss_history": ["x"]},
    "weights not an object": lambda p: {**p, "weights": "AAAA"},
    "weights float32": lambda p: {**p, "weights": _bad_array(np.zeros((2, 2**10), np.float32))},
    "weights int64": lambda p: {**p, "weights": _bad_array(np.zeros((2, 2**10), np.int64))},
    "weights too narrow": lambda p: {**p, "weights": _bad_array(np.zeros((2, 2**9)))},
    "weights one label short": lambda p: {**p, "weights": _bad_array(np.zeros((1, 2**10)))},
    "bias too long": lambda p: {**p, "bias": _bad_array(np.zeros(3))},
    "bias a matrix": lambda p: {**p, "bias": _bad_array(np.zeros((2, 1)))},
    "shape does not match data": lambda p: {**p, "bias": {**p["bias"], "shape": [3]}},
    "data not base64": lambda p: {**p, "bias": {**p["bias"], "data": "!!!"}},
    "weights not finite": lambda p: {**p, "weights": _bad_array(np.full((2, 2**10), np.nan))},
    "bias infinite": lambda p: {**p, "bias": _bad_array(np.array([0.0, np.inf]))},
    "max_seq_len zero": lambda p: {**p, "max_seq_len": 0},
    "max_seq_len negative": lambda p: {**p, "max_seq_len": -5},
    "labels repeated": lambda p: {**p, "labels": ["C0", "C0"]},
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_load_rejects_malformed_model(tmp_path, case):
    payload = _MALFORMED[case](_saved_payload(tmp_path))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError):
        load_model(path)
