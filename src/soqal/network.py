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
from functools import reduce
from typing import NamedTuple

import numpy as np

from .errors import ConfigError

PROB_FLOOR = 1e-12  # clamp applied to every probability before a log
PREDICT_ROWS = 320  # rows per forward call of `Network.predict`: bounds its peak memory


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) where z >= 0, else exp(z) / (1 + exp(z)): exp never
    overflows.  `minimum(z, -z)` is -|z| that keeps a NaN's sign bit."""
    ez = np.exp(np.minimum(z, -z))
    denom = 1.0 + ez
    return np.where(z >= 0, 1.0 / denom, ez / denom)


def row_sums(a: np.ndarray) -> np.ndarray:
    """The bits of `a.sum(axis=-1)`, several times faster for short rows.

    Below eight columns numpy adds a row's entries in order, so a sum taken
    column by column rounds the same; from eight on it sums pairwise, and
    `sum` stays.  The one difference: numpy starts from +0.0, so a row of
    -0.0 sums to +0.0 there and to -0.0 here.
    """
    return reduce(np.add, a.T).T if a.shape[-1] < 8 else a.sum(axis=-1)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax of each row, in place on (B, C) logits, which it returns.

    The row max is taken column by column, which for small C is several
    times faster than `max(axis=1)`.  Both give the same maximum, up to the
    sign of a zero (which the exp erases) or of a NaN.
    """
    logits -= reduce(np.maximum, logits.T)[:, None]
    np.exp(logits, out=logits)
    logits /= row_sums(logits)[:, None]
    return logits


def clamp_probs(p: np.ndarray | float) -> np.ndarray | float:
    """np.clip's bits, without its dispatch cost, which exceeds a batch's work."""
    return np.minimum(np.maximum(p, PROB_FLOOR), 1.0 - PROB_FLOOR)


class Layer(NamedTuple):
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
        rng = np.random.default_rng(seed)
        trunk = []
        fan_in = n_features
        for width in hidden:
            scale = np.sqrt(2.0 / fan_in)
            trunk.append(Layer(scale * rng.standard_normal((width, fan_in)), np.zeros(width)))
            fan_in = width
        scale = np.sqrt(1.0 / fan_in)
        class_head = Layer(scale * rng.standard_normal((n_classes, fan_in)), np.zeros(n_classes))
        gate_head = Layer(scale * rng.standard_normal((1, fan_in)), np.zeros(1))
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
        """One bool keep mask per trunk layer, which `h *= mask` casts to the
        exact 0.0 and 1.0; all True, drawing nothing, when dropout is off."""
        shapes = [(batch_size, layer.weight.shape[0]) for layer in self.trunk]
        if self.dropout_rate == 0.0:
            return [np.ones(shape, dtype=bool) for shape in shapes]
        return [rng.random(shape) >= self.dropout_rate for shape in shapes]

    def trunk_layer(self, idx: int, h: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        """Trunk layer `idx` on (B, in) rows: affine, rectifier and, with a
        mask, dropout, all in place on the matmul's output."""
        layer = self.trunk[idx]
        out = h @ layer.weight.T
        out += layer.bias
        np.maximum(out, 0.0, out=out)
        if mask is not None:  # inverted dropout: zero the dropped units, scale the kept
            out *= mask
            out /= 1.0 - self.dropout_rate
        return out

    def forward_batch(
        self, inputs: np.ndarray, masks: list[np.ndarray] | None = None
    ) -> tuple[np.ndarray, np.ndarray, dict]:
        """Run (B, m) inputs through the trunk and both heads.

        Returns (class_probs (B, C), gate_outputs (B,), cache for backward).
        `masks=None` is the deterministic mode: no units dropped, no scaling.
        Each layer's matmul allocates its output and every later step of the
        layer runs in place on it, so inputs and masks are never written.
        The cache keeps the inputs, every layer's output and the masks.
        """
        if inputs.ndim != 2 or inputs.shape[1] != self.n_features:
            raise ConfigError(
                f"expected inputs of shape (B, {self.n_features}), got {inputs.shape}"
            )
        activations = [inputs]
        h = inputs
        for idx in range(len(self.trunk)):
            h = self.trunk_layer(idx, h, None if masks is None else masks[idx])
            activations.append(h)
        logits = h @ self.class_head.weight.T
        logits += self.class_head.bias
        class_probs = softmax(logits)
        gate = sigmoid((h @ self.gate_head.weight.T + self.gate_head.bias)[:, 0])
        cache = {"activations": activations, "masks": masks,
                 "class_probs": class_probs, "gate": gate}
        return class_probs, gate, cache

    def predict(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Deterministic (class_probs (N, C), gate_outputs (N,)) of (N, m) rows:
        the forward of the gate refit, validation, test and an event's picks.

        Runs `forward_batch` on chunks of at most PREDICT_ROWS rows, writes
        each chunk into preallocated outputs and drops its cache at once, so
        peak memory is the outputs plus one chunk's layers, whatever N is.
        N <= PREDICT_ROWS is one call, the bytes of `forward_batch(rows)`;
        above that a row's bits are those of its chunk's call.  Zero rows
        still make one call, which checks the shape.
        """
        probs = np.empty((len(rows), self.n_classes))
        gate = np.empty(len(rows))
        for start in range(0, len(rows) or 1, PREDICT_ROWS):
            stop = start + PREDICT_ROWS
            probs[start:stop], gate[start:stop] = self.forward_batch(rows[start:stop])[:2]
        return probs, gate

    def backward(
        self, cache: dict, targets: np.ndarray, errors: np.ndarray, beta: float
    ) -> list[np.ndarray]:
        """Gradients of the summed joint objective, ordered like parameters();
        each is a fresh array, which the caller may overwrite."""
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

        d_h = d_class_logits @ self.class_head.weight  # gradient of the top layer
        if not self.gate_detached:
            d_h += d_gate_logit[:, None] * self.gate_head.weight

        grads = [g_class_w, g_class_b, g_gate_w, g_gate_b]
        for idx in range(len(self.trunk) - 1, -1, -1):
            # d_h is fresh from a matmul, so it is scaled and gated in place.
            # A layer output is positive only where its unit was kept and
            # z > 0, so the gate applies the mask too: a dropped unit gets
            # (d / keep) * 0, the same ±0 as (d * 0 / keep) * 0.
            if masks is not None:
                d_h /= keep
            d_h *= cache["activations"][idx + 1] > 0.0
            grads[:0] = [d_h.T @ cache["activations"][idx], d_h.sum(axis=0)]
            if idx:  # the input gradient of the first layer is not needed
                d_h = d_h @ self.trunk[idx].weight
        return grads


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
    o = clamp_probs(gate_outputs)
    p_target = clamp_probs(class_probs[np.arange(len(targets)), targets])
    class_term = float(-np.log(p_target).sum())
    gate_term = float((-beta * errors * np.log(o) - (1.0 - errors) * np.log(1.0 - o)).sum())
    return class_term, gate_term


class EpochStats(NamedTuple):
    mean_class_loss: float
    mean_gate_loss: float


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
    [0, C), then gathered once in shuffled order and sliced into batches.
    Per batch: a fresh dropout mask, zero-one errors from the current class
    head, beta from those errors, then a step along the batch-mean gradient
    in place (`grad *= scale; param -= grad` rounds as `param -= scale * grad`).
    """
    n = len(targets)
    if n == 0:
        raise ConfigError("labelled pool is empty")
    if len(inputs) != n:
        raise ValueError("inputs and targets disagree on batch size")
    if np.any(targets < 0) or np.any(targets >= net.n_classes):
        raise ValueError(f"targets must lie in [0, {net.n_classes})")
    order = rng.permutation(n)
    shuffled_x, shuffled_y = inputs[order], targets[order]
    total_class = 0.0
    total_gate = 0.0
    params = net.parameters()
    for start in range(0, n, batch_size):
        x = shuffled_x[start : start + batch_size]
        y = shuffled_y[start : start + batch_size]
        masks = net.make_masks(len(y), rng)
        probs, gate, cache = net.forward_batch(x, masks)
        errors = (probs.argmax(axis=1) != y).astype(np.float64)
        beta = compute_beta(errors)
        class_term, gate_term = loss_terms(probs, gate, y, errors, beta)
        grads = net.backward(cache, y, errors, beta)
        scale = learning_rate / len(y)
        for param, grad in zip(params, grads):
            grad *= scale
            param -= grad
        total_class += class_term
        total_gate += gate_term
    return EpochStats(mean_class_loss=total_class / n, mean_gate_loss=total_gate / n)
