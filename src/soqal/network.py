"""Feedforward classifier with a shared rectifier trunk and two heads.

The class head emits a softmax over C classes; the gate head squashes a
single logit to a scalar o in (0, 1) read as "probability that an outside
label is needed".  Dropout after each trunk activation uses the inverted
convention: masked passes scale kept units by 1/(1-rate) so the
deterministic forward equals the mask expectation.

Training minimizes, per mini-batch,

    sum_i [ -log p(y_i = c | x_i) - beta * e_i * log(o_i)
            - (1 - e_i) * log(1 - o_i) ]

where e_i is the zero-one loss of the class head against the target and
beta = (#e=0)/(#e=1) rebalances the gate term within the batch.  Gradients
are exact (hand-derived backprop); parameter updates step along the
batch-mean gradient with plain SGD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

PROB_FLOOR = 1e-12  # clamp applied to every probability before a log


def relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def softmax_rows(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def clamp_probs(p: np.ndarray | float) -> np.ndarray | float:
    return np.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR)


@dataclass
class Layer:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)


@dataclass
class Network:
    """Trunk layers plus class/gate heads; mutate only from a single thread."""

    trunk: list[Layer]
    class_head: Layer
    gate_head: Layer  # single output row
    dropout_rate: float
    gate_detached: bool = False  # True: gate loss does not reach the trunk

    @classmethod
    def initialize(
        cls,
        n_features: int,
        n_classes: int,
        hidden: list[int],
        dropout_rate: float,
        seed: int | np.random.SeedSequence,
        gate_detached: bool = False,
    ) -> "Network":
        if not 0.0 <= dropout_rate < 1.0:
            raise ConfigError("dropout_rate must lie in [0, 1)")
        if n_classes < 2:
            raise ConfigError("need at least 2 classes")
        if not hidden:
            raise ConfigError("need at least one trunk layer")
        rng = np.random.default_rng(seed)
        trunk = []
        fan_in = n_features
        for width in hidden:
            scale = np.sqrt(2.0 / fan_in)
            trunk.append(
                Layer(
                    weight=scale * rng.standard_normal((width, fan_in)),
                    bias=np.zeros(width),
                )
            )
            fan_in = width
        scale = np.sqrt(1.0 / fan_in)
        class_head = Layer(
            weight=scale * rng.standard_normal((n_classes, fan_in)),
            bias=np.zeros(n_classes),
        )
        gate_head = Layer(
            weight=scale * rng.standard_normal((1, fan_in)), bias=np.zeros(1)
        )
        return cls(trunk, class_head, gate_head, dropout_rate, gate_detached)

    @property
    def n_features(self) -> int:
        return self.trunk[0].weight.shape[1]

    @property
    def n_classes(self) -> int:
        return self.class_head.weight.shape[0]

    def parameters(self) -> list[np.ndarray]:
        """Live views of every parameter array, in a fixed order."""
        arrays: list[np.ndarray] = []
        for layer in [*self.trunk, self.class_head, self.gate_head]:
            arrays.extend([layer.weight, layer.bias])
        return arrays

    def make_masks(self, batch_size: int, rng: np.random.Generator) -> list[np.ndarray]:
        """One keep/drop mask per trunk layer; all-ones when dropout is off."""
        masks = []
        for layer in self.trunk:
            width = layer.weight.shape[0]
            if self.dropout_rate == 0.0:
                masks.append(np.ones((batch_size, width)))
            else:
                masks.append(
                    (rng.random((batch_size, width)) >= self.dropout_rate).astype(
                        np.float64
                    )
                )
        return masks

    def forward_batch(
        self, inputs: np.ndarray, masks: list[np.ndarray] | None = None
    ) -> tuple[np.ndarray, np.ndarray, dict]:
        """Run (B, m) inputs through the trunk and both heads.

        Returns (class_probs (B, C), gate_outputs (B,), cache for backward).
        `masks=None` is the deterministic mode: no units dropped, no scaling.
        """
        x = np.asarray(inputs, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise ConfigError(
                f"expected inputs of shape (B, {self.n_features}), got {x.shape}"
            )
        keep = 1.0 - self.dropout_rate
        activations = [x]
        pre_relu = []
        h = x
        for idx, layer in enumerate(self.trunk):
            z = h @ layer.weight.T + layer.bias
            pre_relu.append(z)
            h = relu(z)
            if masks is not None:
                h = h * masks[idx] / keep
            activations.append(h)
        class_probs = softmax_rows(h @ self.class_head.weight.T + self.class_head.bias)
        gate = sigmoid((h @ self.gate_head.weight.T + self.gate_head.bias)[:, 0])
        cache = {"activations": activations, "pre_relu": pre_relu, "masks": masks,
                 "class_probs": class_probs, "gate": gate}
        return class_probs, gate, cache

    def backward(
        self, cache: dict, targets: np.ndarray, errors: np.ndarray, beta: float
    ) -> list[np.ndarray]:
        """Gradients of the summed joint objective, ordered like parameters()."""
        probs = cache["class_probs"]
        gate = cache["gate"]
        masks = cache["masks"]
        keep = 1.0 - self.dropout_rate
        batch, _ = probs.shape
        top = cache["activations"][-1]

        d_class_logits = probs.copy()
        d_class_logits[np.arange(batch), targets] -= 1.0
        g_class_w = d_class_logits.T @ top
        g_class_b = d_class_logits.sum(axis=0)

        # d/dz of -beta*e*log(o) - (1-e)*log(1-o) with o = sigmoid(z).
        d_gate_logit = (1.0 - errors) * gate - beta * errors * (1.0 - gate)
        g_gate_w = (d_gate_logit[:, None] * top).sum(axis=0, keepdims=True)
        g_gate_b = np.array([d_gate_logit.sum()])

        d_top = d_class_logits @ self.class_head.weight
        if not self.gate_detached:
            d_top = d_top + d_gate_logit[:, None] * self.gate_head.weight

        grads_trunk: list[tuple[np.ndarray, np.ndarray]] = []
        d_h = d_top
        for idx in range(len(self.trunk) - 1, -1, -1):
            if masks is not None:
                d_h = d_h * masks[idx] / keep
            d_z = d_h * (cache["pre_relu"][idx] > 0.0)
            grads_trunk.append(
                (d_z.T @ cache["activations"][idx], d_z.sum(axis=0))
            )
            d_h = d_z @ self.trunk[idx].weight
        grads_trunk.reverse()

        flat: list[np.ndarray] = []
        for g_w, g_b in grads_trunk:
            flat.extend([g_w, g_b])
        flat.extend([g_class_w, g_class_b, g_gate_w, g_gate_b])
        return flat


def compute_beta(errors: list[int] | np.ndarray) -> float:
    """Batch rebalancing weight (#correct / #misclassified).

    Returns 1.0 when no sample is misclassified: the weighted term is then an
    empty sum, so any finite value is equivalent and 1 avoids sentinels.
    """
    e = np.asarray(errors)
    if e.size == 0:
        raise ValueError("errors must be non-empty")
    wrong = int(e.sum())
    if wrong == 0:
        return 1.0
    return float((e.size - wrong) / wrong)


def loss_terms(
    class_probs: np.ndarray,
    gate_outputs: np.ndarray,
    targets: np.ndarray,
    errors: np.ndarray,
    beta: float,
) -> tuple[float, float]:
    """(summed class term, summed gate term) of the joint objective;
    probabilities are clamped before logs."""
    if beta < 0:
        raise ValueError("beta must be non-negative")
    probs = np.asarray(class_probs, dtype=np.float64)
    o = clamp_probs(np.asarray(gate_outputs, dtype=np.float64))
    t = np.asarray(targets)
    e = np.asarray(errors, dtype=np.float64)
    p_target = clamp_probs(probs[np.arange(len(t)), t])
    class_term = float(-np.log(p_target).sum())
    gate_term = float((-beta * e * np.log(o) - (1.0 - e) * np.log(1.0 - o)).sum())
    return class_term, gate_term


@dataclass
class EpochStats:
    mean_class_loss: float
    mean_gate_loss: float
    train_accuracy: float


def train_epoch(
    net: Network,
    inputs: np.ndarray,
    targets: np.ndarray,
    learning_rate: float,
    batch_size: int,
    rng: np.random.Generator,
) -> EpochStats:
    """One seeded pass of mini-batch SGD over the labelled pool.

    Inputs and targets are checked once: equal lengths and targets in
    [0, C).  Per batch: a fresh dropout mask, zero-one errors from the
    current class head, beta from those errors, then an in-place step along
    the batch-mean gradient.
    """
    n = len(targets)
    if n == 0:
        raise ConfigError("labelled pool is empty")
    if len(inputs) != n:
        raise ValueError("inputs and targets disagree on batch size")
    targets = np.asarray(targets)
    if np.any(targets < 0) or np.any(targets >= net.n_classes):
        raise ValueError(f"targets must lie in [0, {net.n_classes})")
    order = rng.permutation(n)
    total_class = 0.0
    total_gate = 0.0
    total_correct = 0
    params = net.parameters()
    for start in range(0, n, batch_size):
        batch_idx = order[start : start + batch_size]
        x, y = inputs[batch_idx], targets[batch_idx]
        masks = net.make_masks(len(y), rng)
        probs, gate, cache = net.forward_batch(x, masks)
        errors = (probs.argmax(axis=1) != y).astype(np.float64)
        beta = compute_beta(errors)
        class_term, gate_term = loss_terms(probs, gate, y, errors, beta)
        grads = net.backward(cache, y, errors, beta)
        scale = learning_rate / len(y)
        for param, grad in zip(params, grads):
            param -= scale * grad
        total_class += class_term
        total_gate += gate_term
        total_correct += int((errors == 0.0).sum())
    return EpochStats(
        mean_class_loss=total_class / n,
        mean_gate_loss=total_gate / n,
        train_accuracy=total_correct / n,
    )
