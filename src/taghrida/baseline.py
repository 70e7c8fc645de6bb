"""Hashed-feature multinomial logistic regression.

A vocabulary-free text classifier sized for a laptop: character n-grams
and word unigrams are hashed into a fixed-width signed count vector, and
a dense weight matrix over that space is trained with minibatch
cross-entropy and Adam-style adaptive updates. Training is fully
deterministic under a fixed seed, and models serialize to a versioned
JSON container with bit-exact weights.
"""

from __future__ import annotations

import base64
import json
import math
import time
from array import array
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
# Elements per block of the training step's elementwise pass: a block of
# the weights, both moments, the gradient and two scratch rows (6 x 256
# KiB) stays in cache across its operations.
_BLOCK = 2**15

MODEL_FORMAT_VERSION = 2


@dataclass(frozen=True)
class FeatureConfig:
    """Feature extraction parameters.

    Character n-grams in `char_ngram_range` (inclusive) are counted over
    the raw string, word unigrams over whitespace tokens; every feature
    is hashed into [0, hash_dim) with a seeded signed hash.
    """

    char_ngram_range: tuple[int, int] = (2, 5)
    include_word_unigrams: bool = True
    hash_dim: int = 2**18
    hash_seed: int = 0

    def __post_init__(self):
        lo, hi = self.char_ngram_range
        if not 1 <= lo <= hi <= 8:
            raise ValueError(f"char_ngram_range must satisfy 1 <= lo <= hi <= 8, got {lo, hi}")
        # at most 2**63, so that the bucket bits leave out the sign bit
        if not 2**10 <= self.hash_dim <= 2**63 or self.hash_dim & (self.hash_dim - 1):
            raise ValueError(
                f"hash_dim must be a power of two in [2**10, 2**63], got {self.hash_dim}"
            )
        if not 0 <= self.hash_seed < 2**64:
            raise ValueError(f"hash_seed must be in [0, 2**64), got {self.hash_seed}")


@dataclass(frozen=True)
class HyperParams:
    """Training hyperparameters.

    `adam_epsilon`, `batch_size`, `max_seq_len` and `epochs` keep the
    conventional fine-tuning defaults (1e-8, 40, 256 characters, 10);
    the learning rate defaults to 0.05, which suits sparse hashed count
    features (transformer-scale rates in the 1e-5 range are far too
    small for this model family).
    """

    learning_rate: float = 0.05
    adam_epsilon: float = 1e-8
    batch_size: int = 40
    max_seq_len: int = 256
    epochs: int = 10
    l2_lambda: float = 1e-4
    seed: int = 42

    def __post_init__(self):
        for name in ("learning_rate", "adam_epsilon", "l2_lambda"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("learning_rate", "adam_epsilon", "batch_size", "max_seq_len", "epochs"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.l2_lambda < 0:
            raise ValueError("l2_lambda must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class TrainStats:
    """What one `train` call did. The loss per epoch is the model's
    `loss_history`."""

    steps: int
    epoch_s: tuple[float, ...]  # seconds per epoch
    featurize_s: float
    columns_s: float  # mapping the features' buckets to support columns
    gradient_s: float  # batch gathers and the loss/gradient kernel, all steps
    optimizer_s: float  # the L2 gradient term, Adam and the squares, all steps
    penalty_s: float  # the sum of the squares into ||W||^2, all steps
    support: int  # buckets with a non-zero value in some training text
    bucket_occupancy: float  # support / hash_dim


@dataclass
class BaselineModel:
    """Trained classifier: dense weights over the hashed feature space."""

    labels: tuple[str, ...]
    weights: np.ndarray  # (n_labels, hash_dim)
    bias: np.ndarray  # (n_labels,)
    feature_config: FeatureConfig
    max_seq_len: int
    seed: int
    final_loss: float = float("nan")
    loss_history: tuple[float, ...] = ()  # mean loss per epoch
    train_stats: TrainStats | None = None  # set by `train`; not saved

    def __post_init__(self):
        if not np.isfinite(self.weights).all() or not np.isfinite(self.bias).all():
            raise ValueError("model parameters must be finite")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"model labels must be distinct, got {self.labels!r}")
        if self.max_seq_len <= 0:
            raise ValueError(f"max_seq_len must be positive, got {self.max_seq_len}")


# The feature hash; README "Baseline classifier" states it in full.
_MULTIPLIER = 0xC2B2AE3D27D4EB4F  # odd, so it has an inverse mod 2**64
_GOLDEN = 0x9E3779B97F4A7C15  # splitmix64's increment
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_WORD_TAG = 0  # char n-grams are tagged with n, 1..8


def _finalize(h: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, in place on the uint64 array `h`."""
    h ^= h >> np.uint64(30)
    h *= _MIX1
    h ^= h >> np.uint64(27)
    h *= _MIX2
    h ^= h >> np.uint64(31)
    return h


@lru_cache(maxsize=64)
def _salts(seed: int) -> np.ndarray:
    """salts[tag]: the (tag + 1)-th output of splitmix64 seeded with `seed`."""
    return _finalize(np.array([(seed + (tag + 1) * _GOLDEN) % 2**64 for tag in range(9)], np.uint64))


@lru_cache(maxsize=4)
def _powers(size: int) -> tuple[np.ndarray, np.ndarray]:
    """_MULTIPLIER**i and _MULTIPLIER**-i mod 2**64 for i in [0, size)."""
    tables = []
    for base in (_MULTIPLIER, pow(_MULTIPLIER, -1, 2**64)):
        table = np.ones(size, np.uint64)
        np.cumprod(np.full(size - 1, base, np.uint64), out=table[1:])
        tables.append(table)
    return tables[0], tables[1]


class Features(Mapping):
    """The hashed features of one text: a read-only {bucket: value}
    mapping over two read-only arrays, `idx` (int64 buckets in ascending
    order) and `vals` (their float64 values, none zero). It iterates,
    compares and looks up like the dict it stands for; callers that
    only need the numbers read the arrays."""

    __slots__ = ("idx", "vals")

    def __init__(self, idx: np.ndarray, vals: np.ndarray):
        idx.flags.writeable = vals.flags.writeable = False
        self.idx = idx
        self.vals = vals

    def __len__(self) -> int:
        return len(self.idx)

    def __iter__(self):
        return iter(self.idx.tolist())

    def __getitem__(self, bucket) -> float:
        if isinstance(bucket, (int, np.integer)) and 0 <= bucket < 2**63:
            i = int(np.searchsorted(self.idx, bucket))
            if i < len(self.idx) and self.idx[i] == bucket:
                return float(self.vals[i])
        raise KeyError(bucket)

    def items(self):
        return _FeatureItems(self)

    def values(self):
        return _FeatureValues(self)

    def __repr__(self) -> str:
        return f"Features({dict(self.items())!r})"


class _FeatureItems(ItemsView):
    def __iter__(self):
        return zip(self._mapping.idx.tolist(), self._mapping.vals.tolist())


class _FeatureValues(ValuesView):
    def __iter__(self):
        return iter(self._mapping.vals.tolist())


def featurize(text: str, cfg: FeatureConfig) -> Features:
    """Signed hashed count vector for one text, as a read-only
    {bucket: value} mapping in ascending bucket order (see `Features`).

    Each char n-gram and each word of `text.split()` has the polynomial
    hash P = sum_j (c_j + 1) * _MULTIPLIER**j mod 2**64 over its
    codepoints c_j. It is XORed with a salt per (n or word, hash_seed)
    and put through the splitmix64 finalizer: the low bits of the result
    give the bucket and the top bit the sign (set: -1). P is read off
    prefix sums of the whole text, (G[s + n] - G[s]) * _MULTIPLIER**-s.

    Known weakness: polynomial hashes mod 2**64 have structural
    collision families (Thue-Morse strings, which need words of
    thousands of characters), and the finalizer, a bijection, keeps
    them. They cost accuracy, not safety.
    """
    words = text.split() if cfg.include_word_unigrams else []
    n_chars = len(text)
    # "surrogatepass": every str hashes, lone surrogates included
    codes = np.frombuffer(
        (text + "".join(words)).encode("utf-32-le", "surrogatepass"), np.uint32
    )
    powers, inverses = _powers(max(1024, 1 << len(codes).bit_length()))
    prefix = np.zeros(len(codes) + 1, np.uint64)
    np.cumsum((codes + np.uint64(1)) * powers[: len(codes)], out=prefix[1:])
    salts = _salts(cfg.hash_seed)
    lo, hi = cfg.char_ngram_range
    parts = []
    for n in range(lo, min(hi, n_chars) + 1):
        count = n_chars + 1 - n
        parts.append(((prefix[n : n_chars + 1] - prefix[:count]) * inverses[:count]) ^ salts[n])
    if words:
        # the words follow the text in `codes`, back to back
        lengths = np.fromiter(map(len, words), np.int64, len(words))
        ends = np.cumsum(lengths) + n_chars
        starts = ends - lengths
        parts.append(((prefix[ends] - prefix[starts]) * inverses[starts]) ^ salts[_WORD_TAG])
    if not parts:
        return Features(np.empty(0, np.int64), np.empty(0))
    h = _finalize(np.concatenate(parts))
    buckets, where = np.unique(h & np.uint64(cfg.hash_dim - 1), return_inverse=True)
    sums = np.bincount(where, weights=1.0 - 2.0 * (h >> np.uint64(63)), minlength=len(buckets))
    keep = sums != 0.0
    # hash_dim <= 2**63, so every bucket fits in an int64
    return Features(buckets[keep].view(np.int64), sums[keep])


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _logits(weights: np.ndarray, bias: np.ndarray, features: Features) -> np.ndarray:
    z = bias.copy()
    if len(features):
        z += weights[:, features.idx] @ features.vals
    return z


def _pack(texts: Iterable[str], cfg: FeatureConfig, max_seq_len: int):
    """Featurize each text once into packed rows.

    Returns (ptr, buckets, values): the features of text i are
    buckets[ptr[i]:ptr[i+1]] with values[ptr[i]:ptr[i+1]], in the order
    `featurize` yields them. Each text's arrays are copied into the
    buffers and dropped, so memory holds 16 bytes per feature instead of
    every text's arrays at once.
    """
    ptr, buckets, values = array("q", [0]), array("q"), array("d")
    for text in texts:
        features = featurize(text[:max_seq_len], cfg)
        buckets.frombytes(memoryview(features.idx).cast("B"))
        values.frombytes(memoryview(features.vals).cast("B"))
        ptr.append(len(buckets))
    return (
        np.frombuffer(ptr, dtype=np.int64),
        np.frombuffer(buckets, dtype=np.int64),
        np.frombuffer(values, dtype=np.float64),
    )


def _take_rows(ptr: np.ndarray, cols: np.ndarray, vals: np.ndarray, rows: np.ndarray):
    """The packed rows `rows`, joined in that order: (ptr, cols, vals)."""
    starts = ptr[rows]
    lengths = ptr[rows + 1] - starts
    out_ptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(lengths, out=out_ptr[1:])
    idx = np.repeat(starts - out_ptr[:-1], lengths) + np.arange(out_ptr[-1])
    return out_ptr, cols[idx], vals[idx]


def _batch_loss_and_gradient(
    table: np.ndarray,
    bias: np.ndarray,
    ptr: np.ndarray,
    cols: np.ndarray,
    vals: np.ndarray,
    targets: Sequence[int],
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of a packed batch, with its gradient with
    respect to `table` and `bias` as one flat array: the table's
    gradient in row-major order, then the bias's.

    `table` holds the weights bucket-major, one row of n_labels per
    column of the model's weight matrix. Row r of the batch has the
    features cols[ptr[r]:ptr[r+1]], which index rows of `table`, with
    the values vals[ptr[r]:ptr[r+1]], and the label index targets[r].
    """
    n_rows = len(targets)
    n_cols, n_labels = table.shape
    inv_n = 1.0 / n_rows
    # Only the product W[:, features] @ values runs per row: its rounding
    # depends on the BLAS call. The transposed row gather has the layout
    # of the fancy index W[:, cols], strides (8, 8 * n_labels), and a
    # column slice of it makes the call the row's own gather would.
    gathered = np.take(table, cols, axis=0).T
    z = np.zeros((n_rows, n_labels))
    bounds = ptr.tolist()
    for r in range(n_rows):
        lo, hi = bounds[r], bounds[r + 1]
        if hi > lo:
            np.matmul(gathered[:, lo:hi], vals[lo:hi], out=z[r])
    # An empty row gets 0.0 + bias, which can differ from bias only in
    # the sign of a zero; the softmax maps both to the same bits.
    z += bias
    errs = _softmax(z)
    rows = np.arange(n_rows)
    picked = np.log(np.maximum(errs[rows, targets], 1e-300)) * inv_n
    loss = 0.0
    for term in picked.tolist():  # in row order
        loss -= term
    errs[rows, targets] -= 1.0
    errs *= inv_n
    # One scatter for the batch, label by label. bincount adds in input
    # order, so every cell sums its contributions in example order,
    # starting from 0.0.
    n_weights = n_cols * n_labels
    flat = (cols * n_labels + np.arange(n_labels)[:, None]).ravel()
    contrib = (np.repeat(errs.T, np.diff(ptr), axis=1) * vals).ravel()
    # with no features at all, bincount returns int64 zeros
    grad = np.bincount(flat, weights=contrib, minlength=n_weights + n_labels)
    grad = grad.astype(np.float64, copy=False)
    # accumulate adds the rows in order; no entry is -0.0, so starting
    # from row 0 gives the same bits as starting from 0.0
    grad[n_weights:] = np.add.accumulate(errs, axis=0)[-1]
    return float(loss), grad


def loss_and_gradient(
    model: BaselineModel,
    batch: Sequence[tuple[Mapping[int, float], str]],
    l2_lambda: float = 0.0,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy over a (features, label) batch plus an
    L2 penalty of l2_lambda * ||W||^2 / 2, with its exact gradient.

    Returns (loss, grad_weights, grad_bias); the gradients match the
    parameter shapes. The bias column is not regularized. This is the
    kernel `train` runs, applied to the model's full weight matrix.
    """
    if not batch:
        raise ValueError("batch must be non-empty")
    label_index = {label: i for i, label in enumerate(model.labels)}
    targets = []
    for _, label in batch:
        if label not in label_index:
            raise ValueError(f"label {label!r} not in model labels {model.labels}")
        targets.append(label_index[label])
    ptr = np.cumsum([0] + [len(features) for features, _ in batch])
    cols = np.fromiter((j for features, _ in batch for j in features), np.int64, ptr[-1])
    vals = np.fromiter((v for features, _ in batch for v in features.values()), np.float64, ptr[-1])
    loss, grad = _batch_loss_and_gradient(model.weights.T, model.bias, ptr, cols, vals, targets)
    grad_w = grad[: model.weights.size].reshape(model.weights.shape[::-1]).T
    if l2_lambda:
        loss += 0.5 * l2_lambda * float((model.weights**2).sum())
        grad_w += l2_lambda * model.weights
    return loss, grad_w, grad[model.weights.size :]


# numpy sums a contiguous float64 array pairwise: a run of more than
# _PAIRWISE_LEAF elements splits into [0, h) and [h, n) at
# h = n//2 - (n//2) % 8; a shorter run is a leaf, summed into 8 lanes
# (lane j adds elements j, j + 8, ... in order) that combine as
# ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)).
_PAIRWISE_LEAF = 128


class _PairwiseSum:
    """float(x.sum()) for a contiguous float64 x of `size` elements that
    are non-negative and zero outside `indices` (sorted and distinct),
    from x[indices] alone.

    A zero adds nothing, so a lane's sum is that of its entries in
    `indices`, in order: one `np.bincount` into the leaves' lanes. The
    tree above the lanes runs one `np.add` per level, from a plan built
    here. `size` is a multiple of 8 above _PAIRWISE_LEAF (n_labels x
    hash_dim is), so every run splits into multiples of 8 and no leaf
    has a tail beyond its lanes.
    """

    def __init__(self, size: int, indices: np.ndarray):
        if size <= _PAIRWISE_LEAF or size % 8:
            raise ValueError(f"size must be a multiple of 8 above {_PAIRWISE_LEAF}, got {size}")
        # While a run is a multiple of 16, it splits into two equal
        # halves, so the tree is `copies` equal trees of `period`
        # elements under a perfect binary tree.
        copies, period = 1, size
        while period > _PAIRWISE_LEAF and period % 16 == 0:
            copies, period = copies * 2, period // 2
        # The tree of one period, nodes grouped by height: a lane is a
        # node of height 0, and a sum is one higher than its higher
        # operand. levels[h] lists the (operand, operand) of each node
        # of height h in tree order; a node is (height, its index there).
        levels: list[list] = [[]]
        leaf_starts: list[int] = []

        def add(a, b):
            h = max(a[0], b[0]) + 1
            if h == len(levels):
                levels.append([])
            levels[h].append((a, b))
            return h, len(levels[h]) - 1

        def build(lo: int, n: int):
            if n > _PAIRWISE_LEAF:
                half = n // 2 - (n // 2) % 8
                return add(build(lo, half), build(lo + half, n - half))
            base = 8 * len(leaf_starts)
            leaf_starts.append(lo)
            r = [(0, base + j) for j in range(8)]
            return add(add(add(r[0], r[1]), add(r[2], r[3])), add(add(r[4], r[5]), add(r[6], r[7])))

        build(0, period)
        widths = [8 * len(leaf_starts)] + [len(level) for level in levels[1:]]
        # The values of height h sit at starts[h] + copy * widths[h] + index;
        # the perfect tree over the periods' roots follows.
        starts = np.cumsum([0] + [copies * w for w in widths])
        copy = np.arange(copies)[:, None]
        self._levels = []
        for h in range(1, len(levels)):
            refs = np.array([[*a, *b] for a, b in levels[h]])
            operands = [
                (starts[refs[:, k]] + refs[:, k + 1] + copy * np.take(widths, refs[:, k])).ravel()
                for k in (0, 2)
            ]
            out = slice(int(starts[h]), int(starts[h + 1]))
            self._levels.append((*map(_as_index, operands), out))
        at, n = int(starts[-1]) - copies, copies
        while n > 1:
            self._levels.append(
                (slice(at, at + n, 2), slice(at + 1, at + n, 2), slice(at + n, at + n + n // 2))
            )
            at, n = at + n, n // 2
        self._size = at + 1
        # each index's lane: 8 per leaf, leaves in order, periods in order
        leaf = np.searchsorted(leaf_starts, indices % period, side="right") - 1
        self._lanes = (indices // period) * widths[0] + 8 * leaf + indices % 8

    def __call__(self, values: np.ndarray) -> float:
        """The sum; values[i] is x[indices[i]]."""
        nodes = np.bincount(self._lanes, weights=values, minlength=self._size)
        for left, right, out in self._levels:
            np.add(nodes[left], nodes[right], out=nodes[out])
        return float(nodes[-1])


def _as_index(positions: np.ndarray):
    """`positions` as a slice if they step evenly, else as they are."""
    step = int(positions[1] - positions[0]) if len(positions) > 1 else 1
    if step > 0 and (np.diff(positions) == step).all():
        return slice(int(positions[0]), int(positions[-1]) + 1, step)
    return positions


def train(
    train_set: Sequence[tuple[str, str]],
    hyper: HyperParams | None = None,
    cfg: FeatureConfig | None = None,
) -> BaselineModel:
    """Train on (text, label) pairs with shuffled minibatch Adam updates.

    Texts are truncated to `max_seq_len` characters before featurization.
    The label order is the sorted set of training labels. Identical
    (data, hyper, cfg) always produce bit-identical models.

    Only the support is trained: the buckets that some training text
    has a non-zero value in. Every other weight has a zero gradient,
    zero Adam moments and a zero value at every step, so dense Adam
    would leave it at exactly 0.0. The result is the dense update's,
    bit for bit; the returned model carries `train_stats`.
    """
    hyper = hyper or HyperParams()
    cfg = cfg or FeatureConfig()
    if not train_set:
        raise ValueError("training set must be non-empty")
    labels = tuple(sorted({label for _, label in train_set}))
    if len(labels) < 2:
        raise ValueError(f"need at least 2 distinct labels, got {labels}")
    n_classes = len(labels)

    started = time.perf_counter()
    ptr, buckets, vals = _pack((text for text, _ in train_set), cfg, hyper.max_seq_len)
    featurize_s = time.perf_counter() - started
    label_index = {label: i for i, label in enumerate(labels)}
    targets = np.array([label_index[label] for _, label in train_set])
    # The returned matrix, allocated before the first epoch so that a
    # hash_dim too large to hold fails before training, not after it.
    # np.zeros maps pages that stay unresident until the support is
    # written into them.
    dense = np.zeros((n_classes, cfg.hash_dim), dtype=np.float64)

    # Each feature's column: the support from a presence mask, then a
    # table of hash_dim entries from bucket to column, one pass each
    # instead of a sort of all the features.
    started = time.perf_counter()
    present = np.zeros(cfg.hash_dim, dtype=bool)
    present[buckets] = True
    support = np.flatnonzero(present)
    del present
    column = np.empty(cfg.hash_dim, dtype=np.intp)
    column[support] = np.arange(len(support))
    cols = column[buckets]
    del column
    columns_s = time.perf_counter() - started

    # The weights bucket-major, one row of labels per support bucket,
    # then the bias, in one flat array, as the kernel returns their
    # gradient; Adam runs over all of it at once.
    n_weights = len(support) * n_classes
    params = np.zeros(n_weights + n_classes)
    table = params[:n_weights].reshape(len(support), n_classes)
    bias = params[n_weights:]
    m_params, v_params = np.zeros_like(params), np.zeros_like(params)
    scratch = np.empty((2, min(params.size, _BLOCK)))
    l2 = hyper.l2_lambda
    if l2:
        # ||W||^2 of the dense matrix, summed in numpy's order from the
        # support's squares in the dense matrix's label-major order
        # (`_PairwiseSum`).
        squares = np.empty(n_weights)
        penalty = _PairwiseSum(
            n_classes * cfg.hash_dim,
            (np.arange(n_classes)[:, None] * cfg.hash_dim + support).ravel(),
        )

    rng = np.random.default_rng(hyper.seed)
    step = 0
    sq_norm = 0.0  # the weights start at zero
    gradient_s = optimizer_s = penalty_s = 0.0
    history, epoch_s = [], []
    for _ in range(hyper.epochs):
        epoch_started = time.perf_counter()
        order = rng.permutation(len(train_set))
        batch_losses = []
        for start in range(0, len(train_set), hyper.batch_size):
            step_started = time.perf_counter()
            rows = order[start : start + hyper.batch_size]
            loss, grad = _batch_loss_and_gradient(
                table, bias, *_take_rows(ptr, cols, vals, rows), targets[rows]
            )
            if l2:  # loss_and_gradient's penalty term, in its order
                loss += 0.5 * l2 * sq_norm
            kernel_done = time.perf_counter()
            gradient_s += kernel_done - step_started
            batch_losses.append(loss)
            step += 1
            bc1 = 1.0 - _ADAM_BETA1**step
            bc2 = 1.0 - _ADAM_BETA2**step
            # Block by block, so that each block's arrays stay in cache
            # across its operations. Every operation is elementwise, so
            # the blocks give the bits of one pass over the whole array.
            for lo in range(0, params.size, _BLOCK):
                hi = min(lo + _BLOCK, params.size)
                param, g, m, v = params[lo:hi], grad[lo:hi], m_params[lo:hi], v_params[lo:hi]
                tmp, den = scratch[:, : hi - lo]
                w = params[lo : min(hi, n_weights)]  # the bias is not regularized
                if l2:  # loss_and_gradient's grad_w += l2 * weights
                    g[: len(w)] += np.multiply(w, l2, out=tmp[: len(w)])
                # The operations of m += (1 - b1) g, v += (1 - b2) g**2 and
                # param -= lr (m / bc1) / (sqrt(v / bc2) + eps) in their
                # written order, so the result is bitwise the same, but
                # into two reused buffers instead of a new array each.
                m *= _ADAM_BETA1
                m += np.multiply(g, 1.0 - _ADAM_BETA1, out=tmp)
                v *= _ADAM_BETA2
                np.square(g, out=tmp)
                tmp *= 1.0 - _ADAM_BETA2
                v += tmp
                np.divide(m, bc1, out=tmp)
                tmp *= hyper.learning_rate
                np.divide(v, bc2, out=den)
                np.sqrt(den, out=den)
                den += hyper.adam_epsilon
                tmp /= den
                param -= tmp
            if l2:  # label by label, as the penalty's indices run
                np.square(table.T, out=squares.reshape(n_classes, -1))
            optimizer_done = time.perf_counter()
            optimizer_s += optimizer_done - kernel_done
            if l2:
                sq_norm = penalty(squares)
                penalty_s += time.perf_counter() - optimizer_done
        history.append(float(np.mean(batch_losses)))
        epoch_s.append(time.perf_counter() - epoch_started)

    dense[:, support] = table.T
    return BaselineModel(
        labels=labels,
        weights=dense,
        bias=bias.copy(),
        feature_config=cfg,
        max_seq_len=hyper.max_seq_len,
        seed=hyper.seed,
        final_loss=history[-1],
        loss_history=tuple(history),
        train_stats=TrainStats(
            steps=step,
            epoch_s=tuple(epoch_s),
            featurize_s=featurize_s,
            columns_s=columns_s,
            gradient_s=gradient_s,
            optimizer_s=optimizer_s,
            penalty_s=penalty_s,
            support=len(support),
            bucket_occupancy=len(support) / cfg.hash_dim,
        ),
    )


def predict(model: BaselineModel, text: str) -> tuple[str, np.ndarray]:
    """Most probable label plus the full probability vector.

    Probabilities are renormalized to sum to exactly 1 within 1e-9;
    ties go to the earliest label in the model's label order.
    """
    features = featurize(text[: model.max_seq_len], model.feature_config)
    probs = _softmax(_logits(model.weights, model.bias, features))
    probs = probs / probs.sum()
    return model.labels[int(np.argmax(probs))], probs


def save_model(model: BaselineModel, path: str | Path) -> None:
    """Serialize to a versioned JSON container with bit-exact weights."""
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "labels": list(model.labels),
        "feature_config": {
            "char_ngram_range": list(model.feature_config.char_ngram_range),
            "include_word_unigrams": model.feature_config.include_word_unigrams,
            "hash_dim": model.feature_config.hash_dim,
            "hash_seed": model.feature_config.hash_seed,
        },
        "max_seq_len": model.max_seq_len,
        "seed": model.seed,
        "final_loss": model.final_loss,
        "loss_history": list(model.loss_history),
        "weights": _encode_array(model.weights),
        "bias": _encode_array(model.bias),
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_model(path: str | Path) -> BaselineModel:
    """Load a model saved by `save_model`.

    Fails closed: a missing or wrongly typed key, an array that is not
    float64 of the shape the labels and `hash_dim` imply, a weight that
    is not finite, a repeated label or a `max_seq_len` below 1 raises
    ValueError.
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise ValueError("model file must hold a JSON object")
    version = payload.get("format_version")
    if version == 1:
        raise ValueError(
            "model format version 1 hashes features differently from this version "
            f"(format {MODEL_FORMAT_VERSION}); retrain the model"
        )
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    fc = _field(payload, "feature_config", dict)
    ngram_range = _field(fc, "char_ngram_range", list)
    if len(ngram_range) != 2 or not all(_is_a(n, int) for n in ngram_range):
        raise ValueError(f"model file: 'char_ngram_range' must be two integers, got {ngram_range!r}")
    cfg = FeatureConfig(
        char_ngram_range=tuple(ngram_range),
        include_word_unigrams=_field(fc, "include_word_unigrams", bool),
        hash_dim=_field(fc, "hash_dim", int),
        hash_seed=_field(fc, "hash_seed", int),
    )
    labels = tuple(_field(payload, "labels", list))
    if not all(isinstance(label, str) for label in labels):
        raise ValueError(f"model file: 'labels' must be strings, got {labels!r}")
    history = _field(payload, "loss_history", list, default=[])
    if not all(_is_a(loss, (int, float)) for loss in history):
        raise ValueError("model file: 'loss_history' must hold numbers")
    return BaselineModel(
        labels=labels,
        weights=_decode_array(_field(payload, "weights", dict), (len(labels), cfg.hash_dim)),
        bias=_decode_array(_field(payload, "bias", dict), (len(labels),)),
        feature_config=cfg,
        max_seq_len=_field(payload, "max_seq_len", int),
        seed=_field(payload, "seed", int),
        final_loss=_field(payload, "final_loss", (int, float)),
        loss_history=tuple(history),
    )


def _is_a(value, kind) -> bool:
    """isinstance for JSON values, where a bool is not a number."""
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _field(obj: dict, key: str, kind, default=None):
    """obj[key] if it is present and of the JSON type `kind`, else ValueError."""
    value = obj.get(key, default)
    if not _is_a(value, kind):
        raise ValueError(f"model file: {key!r} is missing or of the wrong type")
    return value


def _encode_array(arr: np.ndarray) -> dict:
    return {
        "shape": list(arr.shape),
        "dtype": str(arr.dtype),
        "data": base64.b64encode(np.ascontiguousarray(arr).tobytes()).decode("ascii"),
    }


def _decode_array(obj: dict, shape: tuple[int, ...]) -> np.ndarray:
    """The float64 array of `shape` that `_encode_array` wrote, else ValueError."""
    if obj.get("dtype") != "float64" or obj.get("shape") != list(shape):
        raise ValueError(
            f"model array must be float64 of shape {list(shape)}, "
            f"got {obj.get('dtype')!r} of shape {obj.get('shape')!r}"
        )
    data = base64.b64decode(_field(obj, "data", str), validate=True)
    return np.frombuffer(data, dtype=np.float64).reshape(shape).copy()
