"""Reference trainer: the dense per-example training loop that
`taghrida.baseline.train` replaced, kept unchanged as a test oracle.

It runs Adam over every one of the n_labels x hash_dim weights and
re-reads each example's feature dict at every step. The production
trainer must write the same model bytes as this one for any input.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from taghrida.baseline import BaselineModel, FeatureConfig, HyperParams, _softmax, featurize

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999


def _logits(weights: np.ndarray, bias: np.ndarray, features: Mapping[int, float]) -> np.ndarray:
    z = bias.copy()
    if features:
        idxs = np.fromiter(features.keys(), dtype=np.int64, count=len(features))
        vals = np.fromiter(features.values(), dtype=np.float64, count=len(features))
        z += weights[:, idxs] @ vals
    return z


def loss_and_gradient(
    model: BaselineModel,
    batch: Sequence[tuple[Mapping[int, float], str]],
    l2_lambda: float = 0.0,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy over a (features, label) batch plus an
    L2 penalty of l2_lambda * ||W||^2 / 2, with its exact gradient.

    Returns (loss, grad_weights, grad_bias); the gradients match the
    parameter shapes. The bias column is not regularized.
    """
    if not batch:
        raise ValueError("batch must be non-empty")
    label_index = {label: i for i, label in enumerate(model.labels)}
    grad_w = np.zeros_like(model.weights)
    grad_b = np.zeros_like(model.bias)
    loss = 0.0
    inv_n = 1.0 / len(batch)
    for features, label in batch:
        if label not in label_index:
            raise ValueError(f"label {label!r} not in model labels {model.labels}")
        probs = _softmax(_logits(model.weights, model.bias, features))
        loss -= np.log(max(probs[label_index[label]], 1e-300)) * inv_n
        err = probs.copy()
        err[label_index[label]] -= 1.0
        err *= inv_n
        grad_b += err
        if features:
            idxs = np.fromiter(features.keys(), dtype=np.int64, count=len(features))
            vals = np.fromiter(features.values(), dtype=np.float64, count=len(features))
            np.add.at(grad_w, (slice(None), idxs), err[:, None] * vals[None, :])
    if l2_lambda:
        loss += 0.5 * l2_lambda * float((model.weights**2).sum())
        grad_w += l2_lambda * model.weights
    return float(loss), grad_w, grad_b


def train(
    train_set: Sequence[tuple[str, str]],
    hyper: HyperParams | None = None,
    cfg: FeatureConfig | None = None,
) -> BaselineModel:
    """Train on (text, label) pairs with shuffled minibatch Adam updates.

    Texts are truncated to `max_seq_len` characters before featurization.
    The label order is the sorted set of training labels. Identical
    (data, hyper, cfg) always produce bit-identical models.
    """
    hyper = hyper or HyperParams()
    cfg = cfg or FeatureConfig()
    if not train_set:
        raise ValueError("training set must be non-empty")
    labels = tuple(sorted({label for _, label in train_set}))
    if len(labels) < 2:
        raise ValueError(f"need at least 2 distinct labels, got {labels}")

    examples = [
        (featurize(text[: hyper.max_seq_len], cfg), label) for text, label in train_set
    ]
    n_classes = len(labels)
    weights = np.zeros((n_classes, cfg.hash_dim), dtype=np.float64)
    bias = np.zeros(n_classes, dtype=np.float64)
    m_w = np.zeros_like(weights)
    v_w = np.zeros_like(weights)
    m_b = np.zeros_like(bias)
    v_b = np.zeros_like(bias)

    model = BaselineModel(
        labels=labels,
        weights=weights,
        bias=bias,
        feature_config=cfg,
        max_seq_len=hyper.max_seq_len,
        seed=hyper.seed,
    )

    rng = np.random.default_rng(hyper.seed)
    step = 0
    history = []
    for _ in range(hyper.epochs):
        order = rng.permutation(len(examples))
        batch_losses = []
        for start in range(0, len(examples), hyper.batch_size):
            batch = [examples[i] for i in order[start : start + hyper.batch_size]]
            loss, grad_w, grad_b = loss_and_gradient(model, batch, hyper.l2_lambda)
            batch_losses.append(loss)
            step += 1
            bc1 = 1.0 - _ADAM_BETA1**step
            bc2 = 1.0 - _ADAM_BETA2**step
            for grad, param_m, param_v, param in (
                (grad_w, m_w, v_w, weights),
                (grad_b, m_b, v_b, bias),
            ):
                param_m *= _ADAM_BETA1
                param_m += (1.0 - _ADAM_BETA1) * grad
                param_v *= _ADAM_BETA2
                param_v += (1.0 - _ADAM_BETA2) * grad**2
                param -= hyper.learning_rate * (param_m / bc1) / (
                    np.sqrt(param_v / bc2) + hyper.adam_epsilon
                )
        history.append(float(np.mean(batch_losses)))
    model.loss_history = tuple(history)
    model.final_loss = history[-1]
    return model
