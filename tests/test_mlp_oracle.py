"""Bit-exact parity of the MLP's SGD step with its earlier implementation.

The functions below are the earlier `_forward_batch`, `_act_grad`,
`loss_and_grad`, `train` and `score`, kept verbatim as oracles.  They
recompute the softmax for the loss, the tanh for its derivative and the L2
terms at l2 == 0; the current code reuses what the forward pass already has.
Weights, biases, loss histories and scores must match exactly
(np.array_equal, no tolerance), because the model file and the score file
are written from them.  `mlp.score` takes every row in one stacked pass;
the oracle's `score` takes one row, as score-cm once called it per row.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spoofsense import mlp
from spoofsense.errors import EmptyDataset
from spoofsense.mlp import BONAFIDE, SPOOF, MlpModel, TrainConfig, _act, _check_input


# ---------------------------------------------------------------- oracles


def _act_grad(z, kind):
    if kind == "tanh":
        t = np.tanh(z)
        return 1.0 - t * t
    return (z > 0).astype(np.float64)


def _forward_batch(m, x):
    """Returns per-layer pre-activations, activations, and softmax probs."""
    zs, acts = [], [x]
    a = x
    for k in range(3):
        z = a @ m.weights[k] + m.biases[k]
        zs.append(z)
        a = _act(z, m.activation) if k < 2 else z
        acts.append(a)
    logits = zs[-1]
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)
    return zs, acts, probs


def score(m, x):
    """ln p(bonafide) - ln p(spoof); equals the logit difference."""
    x = _check_input(m, x)
    zs, _, _ = _forward_batch(m, x)
    return float(zs[-1][0, BONAFIDE] - zs[-1][0, SPOOF])


def loss_and_grad(m, x, y, l2=0.0):
    """Mean cross-entropy (+ l2/2 * ||W||^2) and its exact gradients."""
    x = _check_input(m, x)
    y = np.asarray(y, dtype=int)
    if len(y) != x.shape[0] or len(y) == 0:
        raise ValueError("labels must parallel a nonempty batch")
    zs, acts, probs = _forward_batch(m, x)
    n = x.shape[0]

    logits = zs[-1]
    lse = np.log(np.exp(logits - logits.max(axis=1, keepdims=True)).sum(axis=1)) + logits.max(axis=1)
    data_loss = float(np.mean(lse - logits[np.arange(n), y]))
    loss = data_loss + 0.5 * l2 * sum(float(np.sum(w * w)) for w in m.weights)

    delta = probs.copy()
    delta[np.arange(n), y] -= 1.0
    delta /= n
    gw, gb = [None] * 3, [None] * 3
    for k in (2, 1, 0):
        gw[k] = acts[k].T @ delta + l2 * m.weights[k]
        gb[k] = delta.sum(axis=0)
        if k > 0:
            delta = (delta @ m.weights[k].T) * _act_grad(zs[k - 1], m.activation)
    return loss, gw, gb


def train(model, x, y, cfg=None):
    """Mini-batch SGD; returns a trained copy and per-epoch mean loss."""
    cfg = cfg or TrainConfig()
    x = _check_input(model, x)
    y = np.asarray(y, dtype=int)
    if x.shape[0] == 0:
        raise EmptyDataset("no training rows")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 (bonafide) or 1 (spoof)")

    m = MlpModel(
        dims=model.dims,
        weights=[w.copy() for w in model.weights],
        biases=[b.copy() for b in model.biases],
        activation=model.activation,
        seed=model.seed,
    )
    rng = np.random.default_rng(cfg.seed)
    n = x.shape[0]
    history = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        total = 0.0
        for lo in range(0, n, cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            loss, gw, gb = loss_and_grad(m, x[idx], y[idx], cfg.l2)
            for k in range(3):
                m.weights[k] -= cfg.learning_rate * gw[k]
                m.biases[k] -= cfg.learning_rate * gb[k]
            total += loss * len(idx)
        history.append(total / n)
    return m, history


# ------------------------------------------------------------------ tests


def _assert_train_matches(dims, activation, seed, n, batch_size, l2, epochs):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, dims[0])) * rng.uniform(0.5, 3.0, size=dims[0])
    y = rng.integers(0, 2, size=n)
    m = mlp.init_model(dims, activation=activation, seed=seed)
    cfg = TrainConfig(epochs=epochs, batch_size=batch_size, l2=l2, seed=seed + 1)
    want, want_hist = train(m, x, y, cfg)
    got, got_hist = mlp.train(m, x, y, cfg)
    for a, b in zip(want.weights + want.biases, got.weights + got.biases):
        assert np.array_equal(a, b)
    assert np.array_equal(np.array(want_hist), np.array(got_hist))
    assert np.array([score(want, v) for v in x]).tobytes() == mlp.score(got, x).tobytes()


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("l2", [0.0, 0.01])
@pytest.mark.parametrize("batch_size", [1, 7, 32, 90])
def test_train_matches_oracle(activation, l2, batch_size):
    _assert_train_matches((11, 9, 5, 2), activation, 17, 90, batch_size, l2, epochs=6)


@pytest.mark.parametrize("l2", [0.0, 0.01])
def test_train_matches_oracle_at_benchmark_shape(l2):
    # the cm-train-score model: 305 pooled dims into 32 and 16 tanh units;
    # 1000 rows in batches of 32 leave a last batch of 8
    _assert_train_matches((305, 32, 16, 2), "tanh", 23, 1000, 32, l2, epochs=3)


@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("l2", [0.0, 0.01])
def test_loss_and_grad_matches_oracle(activation, l2):
    rng = np.random.default_rng(5)
    m = mlp.init_model((6, 8, 4, 2), activation=activation, seed=2)
    m.biases = [rng.normal(scale=0.5, size=b.size) for b in m.biases]
    x, y = rng.normal(size=(13, 6)), rng.integers(0, 2, size=13)
    want, got = loss_and_grad(m, x, y, l2), mlp.loss_and_grad(m, x, y, l2)
    assert want[0] == got[0]
    for a, b in zip(want[1] + want[2], got[1] + got[2]):
        assert np.array_equal(a, b)


@given(
    d_in=st.integers(1, 12),
    h1=st.integers(1, 10),
    h2=st.integers(1, 8),
    seed=st.integers(0, 2**31 - 1),
    activation=st.sampled_from(["tanh", "relu"]),
    l2=st.sampled_from([0.0, 0.01]),
    batch_size=st.integers(1, 40),
)
@settings(max_examples=30, deadline=None)
def test_train_matches_oracle_property(d_in, h1, h2, seed, activation, l2, batch_size):
    _assert_train_matches((d_in, h1, h2, 2), activation, seed, 37, batch_size, l2, epochs=3)


def _assert_scores_match(dims, activation, seed, n):
    """mlp.score on n rows at once is the bits of the oracle's one row at a time."""
    rng = np.random.default_rng(seed)
    m = mlp.init_model(dims, activation=activation, seed=seed)
    m.biases = [rng.normal(scale=0.5, size=b.size) for b in m.biases]
    x = rng.normal(size=(n, dims[0])) * rng.uniform(0.5, 3.0, size=dims[0])
    assert np.array([score(m, v) for v in x], np.float64).tobytes() == mlp.score(m, x).tobytes()


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_scores_match_oracle_at_benchmark_shape(activation):
    # score-cm on the cm-train-score corpus: 1000 pooled 305-dim rows
    _assert_scores_match((305, 32, 16, 2), activation, 29, 1000)


@given(
    d_in=st.integers(1, 80),
    h1=st.integers(1, 40),
    h2=st.integers(1, 20),
    seed=st.integers(0, 2**31 - 1),
    activation=st.sampled_from(["tanh", "relu"]),
    n=st.integers(0, 70),
)
@settings(max_examples=40, deadline=None)
def test_scores_match_oracle_property(d_in, h1, h2, seed, activation, n):
    _assert_scores_match((d_in, h1, h2, 2), activation, seed, n)


def test_unregularised_loss_is_finite_for_huge_weights():
    # with l2 = 0 the loss is the data loss alone: adding 0 * sum(w*w) would
    # give 0 * inf = nan once w*w overflows, though every weight is finite
    m = mlp.init_model((3, 4, 3, 2), seed=0)
    m.weights = [np.sign(w) * 1e155 for w in m.weights]
    x, y = np.array([[0.5, -1.0, 2.0], [1.0, 0.2, -0.3]]), np.array([0, 1])
    with np.errstate(over="ignore", invalid="ignore"):  # only the loss is checked
        loss = mlp.loss_and_grad(m, x, y, 0.0)[0]
    a = x
    for k in range(3):
        a = a @ m.weights[k] + m.biases[k]
        a = np.tanh(a) if k < 2 else a
    top = a.max(axis=1)
    lse = np.log(np.exp(a - top[:, None]).sum(axis=1)) + top
    data_loss = float(np.mean(lse - a[[0, 1], y]))
    assert np.isfinite(data_loss) and data_loss > 1e150
    assert loss == data_loss
