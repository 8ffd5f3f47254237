import numpy as np
import pytest

from conftest import softmax
from spoofsense import mlp
from spoofsense.errors import BadDims, DimMismatch, EmptyDataset, TruncatedPayload, BadMagic
from spoofsense.mlp import (
    TrainConfig,
    init_model,
    load_model,
    loss_and_grad,
    save_model,
    score,
    train,
)


def flat_params(m):
    return np.concatenate([a.ravel() for a in m.weights + m.biases])


def set_params(m, theta):
    i = 0
    for arr in m.weights + m.biases:
        arr.flat[:] = theta[i : i + arr.size]
        i += arr.size


def fd_grad(m, x, y, l2=0.0, h=1e-6):
    theta = flat_params(m).copy()
    g = np.zeros_like(theta)
    for i in range(len(theta)):
        for sign in (+1, -1):
            t = theta.copy()
            t[i] += sign * h
            set_params(m, t)
            loss, _, _ = loss_and_grad(m, x, y, l2)
            g[i] += sign * loss
    set_params(m, theta)
    return g / (2 * h)


def preact_margin(m, x):
    """Distance from the closest pre-activation to zero (a relu corner)."""
    a = np.asarray(x, dtype=np.float64)
    margin = np.inf
    for w, b in zip(m.weights, m.biases):
        z = a @ w + b
        margin = min(margin, float(np.abs(z).min()))
        a = np.maximum(z, 0.0) if m.activation == "relu" else np.tanh(z)
    return margin


@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradient_matches_finite_differences(activation, seed):
    rng = np.random.default_rng(seed)
    m = init_model((3, 5, 4, 2), activation=activation, seed=seed)
    theta = flat_params(m)
    n_bias = sum(b.size for b in m.biases)
    theta[-n_bias:] = rng.normal(scale=0.3, size=n_bias)  # off the zero init
    set_params(m, theta)
    # a pre-activation within h of zero makes the central difference
    # straddle the relu corner and measure the kink, not the backprop
    x = rng.normal(size=(7, 3))
    while preact_margin(m, x) < 1e-4:
        x = rng.normal(size=(7, 3))
    y = rng.integers(0, 2, size=7)
    gw, gb = loss_and_grad(m, x, y, l2=0.01)[1:]
    analytic = np.concatenate([a.ravel() for a in gw + gb])
    numeric = fd_grad(m, x, y, l2=0.01)
    rel = np.linalg.norm(analytic - numeric) / max(
        np.linalg.norm(analytic) + np.linalg.norm(numeric), 1e-12
    )
    assert rel < 1e-5


def test_forward_is_a_distribution():
    m = init_model((4, 6, 5, 2), seed=3)
    x = np.array([0.3, -1.0, 2.0, 0.5])
    p = softmax(mlp._layers(m, x[None, :])[-1][0])
    assert len(p) == 2 and abs(sum(p) - 1.0) < 1e-12
    assert all(0 <= v <= 1 for v in p)
    (s,) = score(m, x)
    assert abs(s - (np.log(p[0]) - np.log(p[1]))) < 1e-9


def test_separable_toy_converges():
    rng = np.random.default_rng(0)
    n = 100
    x0 = rng.normal(size=(n, 2)) + [2.5, 2.5]
    x1 = rng.normal(size=(n, 2)) - [2.5, 2.5]
    x = np.vstack([x0, x1])
    y = np.array([0] * n + [1] * n)
    m = init_model((2, 8, 4, 2), seed=0)
    trained, history = train(m, x, y, TrainConfig(epochs=200, learning_rate=0.1))
    preds = score(trained, x) < 0  # p(spoof) > 0.5
    assert np.mean(preds == y) >= 0.99
    assert history[-1] < history[0]


def test_training_is_deterministic(tmp_path):
    rng = np.random.default_rng(5)
    x = rng.normal(size=(40, 3))
    y = rng.integers(0, 2, size=40)
    outs = []
    for run in range(2):
        m = init_model((3, 6, 4, 2), seed=9)
        trained, hist = train(m, x, y, TrainConfig(epochs=20, seed=9))
        p = tmp_path / ("m%d.bin" % run)
        save_model(p, trained)
        outs.append((tuple(hist), p.read_bytes()))
    assert outs[0][0] == outs[1][0]
    assert outs[0][1] == outs[1][1]


def test_train_neither_mutates_nor_aliases_its_input():
    """train returns a trained copy: the input model's arrays keep their
    values, and no array of a result shares memory with them or with the
    result of another call."""
    rng = np.random.default_rng(6)
    x = rng.normal(size=(20, 3))
    y = rng.integers(0, 2, size=20)
    m = init_model((3, 5, 4, 2), seed=6)
    m.biases = [rng.normal(size=b.size) for b in m.biases]  # off the zero init
    before = [a.copy() for a in m.weights + m.biases]
    runs = [train(m, x, y, TrainConfig(epochs=3))[0] for _ in range(2)]
    for a, b in zip(m.weights + m.biases, before):
        assert a.shape == b.shape and np.array_equal(a, b)
    first, second = [t.weights + t.biases for t in runs]
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
    assert not any(np.array_equal(a, b) for a, b in zip(first, before))  # it did train
    for a in first:
        for b in m.weights + m.biases + second:
            assert not np.shares_memory(a, b)


def test_model_roundtrip(tmp_path):
    m = init_model((5, 7, 3, 2), activation="relu", seed=4)
    save_model(tmp_path / "m.bin", m)
    back = load_model(tmp_path / "m.bin")
    assert back.dims == m.dims and back.activation == "relu" and back.seed == 4
    for a, b in zip(m.weights + m.biases, back.weights + back.biases):
        np.testing.assert_array_equal(a, b)


def test_model_file_errors(tmp_path):
    m = init_model((3, 4, 3, 2), seed=0)
    p = tmp_path / "m.bin"
    save_model(p, m)
    raw = p.read_bytes()

    (tmp_path / "bad1.bin").write_bytes(b"NOTMLP" + raw[6:])
    with pytest.raises(BadMagic):
        load_model(tmp_path / "bad1.bin")

    (tmp_path / "bad2.bin").write_bytes(raw[:-8])
    with pytest.raises(TruncatedPayload):
        load_model(tmp_path / "bad2.bin")

    (tmp_path / "bad3.bin").write_bytes(raw + b"\x00" * 8)
    with pytest.raises(TruncatedPayload):
        load_model(tmp_path / "bad3.bin")


def test_init_validation():
    with pytest.raises(BadDims):
        init_model((3, 4, 2))  # only 3 dims
    with pytest.raises(BadDims):
        init_model((3, 4, 5, 3))  # output must be 2
    with pytest.raises(ValueError):
        init_model((3, 4, 5, 2), activation="sigmoid")


def test_train_validation():
    m = init_model((2, 3, 3, 2), seed=0)
    with pytest.raises(EmptyDataset):
        train(m, np.zeros((0, 2)), np.zeros(0, dtype=int))
    with pytest.raises(ValueError):
        train(m, np.zeros((2, 2)), np.array([0, 2]))
    with pytest.raises(DimMismatch):
        score(m, np.zeros(5))


@pytest.mark.parametrize("bad", [-1, 2, 3, -2, np.iinfo(np.int64).min])
def test_labels_outside_0_1_are_refused(bad):
    """-1 would index the spoof column and 2 past the last one; each batch
    that holds such a label is refused, in train too, where every row is in
    some batch of the first epoch."""
    m = init_model((3, 4, 3, 2), seed=0)
    x = np.ones((4, 3))
    message = "^labels must be 0 \\(bonafide\\) or 1 \\(spoof\\)$"
    for y in ([bad, 0], [1, 0, 1, bad]):
        with pytest.raises(ValueError, match=message):
            loss_and_grad(m, x[: len(y)], y)
    with pytest.raises(ValueError, match=message):
        train(m, x, [0, 1, 1, bad], TrainConfig(epochs=1, batch_size=1))
    for y in ([0, 0], [1, 1], [0, 1]):  # each accepted label
        assert np.isfinite(loss_and_grad(m, x[:2], y)[0])


def test_score_takes_rows():
    """score returns one float64 score per row: a 1-D vector scores as the
    (1, d) row it is, no rows give no scores, and a row's score does not
    depend on the rows scored with it."""
    m = init_model((3, 5, 4, 2), seed=2)
    x = np.random.default_rng(4).normal(size=(5, 3))
    all_rows = score(m, x)
    assert all_rows.dtype == np.float64 and all_rows.shape == (5,)
    assert score(m, x[1]).tobytes() == score(m, x[1:2]).tobytes() == all_rows[1:2].tobytes()
    assert score(m, x[::-1]).tobytes() == all_rows[::-1].tobytes()
    assert score(m, x[:0]).shape == (0,)


def test_l2_shrinks_weights():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(30, 3))
    y = rng.integers(0, 2, size=30)
    m = init_model((3, 8, 6, 2), seed=1)
    plain, _ = train(m, x, y, TrainConfig(epochs=50, l2=0.0))
    reg, _ = train(m, x, y, TrainConfig(epochs=50, l2=0.5))
    norm = lambda mm: sum(float(np.sum(w**2)) for w in mm.weights)
    assert norm(reg) < norm(plain)
