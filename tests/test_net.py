import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from helpers import one_blas_thread

from acropoet import net
from acropoet.net import (
    BiLstmEncoder, EarlyStopper, Linear, LstmLayer, NetError,
    ParameterStore, adam_update, child_rng, clip_global_norm,
    dropout_forward, grad_check, load_checkpoint, lstm_step,
    save_checkpoint,
)


# --- lstm_step --------------------------------------------------------------

def test_lstm_step_zero_everything():
    D, H = 3, 2
    x = np.zeros(D)
    h, c = lstm_step(x, np.zeros(H), np.zeros(H),
                     np.zeros((D, 4 * H)), np.zeros((H, 4 * H)),
                     np.zeros(4 * H))
    assert np.allclose(h, 0) and np.allclose(c, 0)

def test_lstm_step_zero_weights_carry_cell():
    # gates all sigmoid(0)=0.5; c=0.5*1=0.5; h=0.5*tanh(0.5)
    h, c = lstm_step(np.zeros(1), np.zeros(1), np.ones(1),
                     np.zeros((1, 4)), np.zeros((1, 4)), np.zeros(4))
    assert c[0] == pytest.approx(0.5)
    assert h[0] == pytest.approx(0.5 * np.tanh(0.5), abs=1e-9)

def lstm_step_oracle(x, h_prev, c_prev, Wx, Wh, b):
    """Straight-line reimplementation of the gate algebra."""
    H = Wh.shape[0]
    a = x @ Wx + h_prev @ Wh + b
    sig = lambda z: 1 / (1 + np.exp(-z))
    i, f = sig(a[:H]), sig(a[H:2 * H])
    g, o = np.tanh(a[2 * H:3 * H]), sig(a[3 * H:])
    c = f * c_prev + i * g
    return o * np.tanh(c), c

@pytest.mark.parametrize("seed", range(5))
def test_lstm_step_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    D, H = 4, 3
    args = (rng.normal(size=D), rng.normal(size=H), rng.normal(size=H),
            rng.normal(size=(D, 4 * H)), rng.normal(size=(H, 4 * H)),
            rng.normal(size=4 * H))
    h, c = lstm_step(*args)
    ho, co = lstm_step_oracle(*args)
    assert np.allclose(h, ho) and np.allclose(c, co)

def test_lstm_step_dim_mismatch():
    with pytest.raises(NetError):
        lstm_step(np.zeros(3), np.zeros(2), np.zeros(2),
                  np.zeros((4, 8)), np.zeros((2, 8)), np.zeros(8))


# --- padded batches -----------------------------------------------------------

@pytest.mark.parametrize("seed", range(3))
def test_bilstm_final_states_match_stepwise_cells(seed):
    """BiLstmEncoder's final states for a batch of mixed lengths equal
    lstm_step run over each column's own length, forward and reversed."""
    rng = np.random.default_rng(seed)
    T, B, D, H = 7, 5, 3, 4
    enc = BiLstmEncoder(ParameterStore(), "enc", D, H, rng)
    X = rng.normal(size=(T, B, D))
    lengths = rng.integers(1, T + 1, size=B)
    encoded, _ = enc.forward(X, lengths)
    for j, L in enumerate(lengths):
        for layer, steps, half in ((enc.fwd, range(L), slice(0, H)),
                                   (enc.bwd, range(L - 1, -1, -1),
                                    slice(H, 2 * H))):
            h, c = np.zeros(H), np.zeros(H)
            for t in steps:
                h, c = lstm_step(X[t, j], h, c, *layer.step_weights())
            assert np.allclose(encoded[j, half], h, rtol=0, atol=1e-12)


@pytest.mark.parametrize("B", [1, 3])
@pytest.mark.parametrize("with_const", [False, True])
def test_forward_equals_lstm_step_on_the_step_weights(B, with_const):
    """LstmLayer.forward is lstm_step run over the steps on
    step_weights(const), from the given state."""
    rng = np.random.default_rng(B)
    T, D, Dc, H = 5, 3, 2 if with_const else 0, 4
    layer = LstmLayer(ParameterStore(), "l", D + Dc, H, rng)
    X = rng.normal(size=(T, B, D))
    const = rng.normal(size=(B, Dc)) if with_const else None
    h, c = rng.normal(size=(B, H)), rng.normal(size=(B, H))
    Hs, _ = layer.forward(X, const, (h, c))
    weights = layer.step_weights(const)
    assert weights[0].shape == (D, 4 * H)
    for t in range(T):
        h, c = lstm_step(X[t], h, c, *weights)
        assert np.allclose(Hs[t], h, rtol=0, atol=1e-12)


def test_only_net_reads_the_lstm_weights_whole():
    """Every other module takes an LSTM's weights from step_weights."""
    src = Path(net.__file__).parent
    readers = sorted(p.name for p in src.glob("*.py")
                     if "._weights(" in p.read_text(encoding="utf-8"))
    assert readers == ["net.py"]


def test_reverse_padded_reverses_within_each_length():
    X = np.arange(4 * 3 * 2).reshape(4, 3, 2)
    lengths = np.array([4, 1, 3])
    Y = net.reverse_padded(X, lengths)
    for j, L in enumerate(lengths):
        assert np.array_equal(Y[:L, j], X[L - 1::-1, j])
        assert np.array_equal(Y[L:, j], X[L:, j])
    assert np.array_equal(net.reverse_padded(Y, lengths), X)


# --- adam -------------------------------------------------------------------

def _store_with(name, arr):
    s = ParameterStore()
    s.add(name, arr)
    return s

def test_adam_first_step_is_signed_lr():
    s = _store_with("w", np.array([1.0]))
    g = np.array([0.3])
    adam_update(s, {"w": g}, lr=0.01)
    # bias-corrected first step: delta = -lr*g/(|g| + eps)
    expected = 1.0 - 0.01 * 0.3 / (0.3 + 1e-8)
    assert s["w"][0] == pytest.approx(expected, rel=1e-9)
    assert s["w"][0] == pytest.approx(1.0 - 0.01, rel=1e-4)

def test_adam_zero_grad_no_move():
    s = _store_with("w", np.array([2.0]))
    adam_update(s, {"w": np.zeros(1)}, lr=0.1)
    assert s["w"][0] == 2.0

def test_adam_two_steps_match_hand_expansion():
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    g = 0.5
    s = _store_with("w", np.array([0.0]))
    adam_update(s, {"w": np.array([g])}, lr=lr)
    adam_update(s, {"w": np.array([g])}, lr=lr)
    # hand expansion
    w, m, v = 0.0, 0.0, 0.0
    for t in (1, 2):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        w -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
    assert s["w"][0] == pytest.approx(w, rel=1e-12)

def test_adam_rejects_nan_before_mutation():
    s = _store_with("w", np.array([1.0]))
    with pytest.raises(NetError):
        adam_update(s, {"w": np.array([np.nan])}, lr=0.1)
    assert s["w"][0] == 1.0 and s.step == 0

def test_clip_global_norm():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    total = clip_global_norm(grads, max_norm=1.0)
    assert total == pytest.approx(5.0)
    norm = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    assert norm == pytest.approx(1.0)


# --- early stopping ---------------------------------------------------------

def test_early_stopper_patience_sequence():
    s = ParameterStore()
    s.add("w", np.array([0.0]))
    stopper = EarlyStopper(patience=2)
    stops_at = None
    for epoch, metric in enumerate([3, 2, 2, 2, 2, 2]):
        s.params["w"][0] = epoch
        stopper.update(metric, s)
        if stopper.should_stop:
            stops_at = epoch
            break
    assert stops_at == 4  # 3rd non-improving epoch after the best at epoch 1
    stopper.restore_best(s)
    assert s["w"][0] == 1.0


# --- dropout ----------------------------------------------------------------

def test_dropout_identity_at_inference():
    x = np.ones((5, 5))
    y, mask = dropout_forward(x, 0.4, None)
    assert y is x and mask is None

def test_dropout_preserves_scale():
    rng = np.random.default_rng(0)
    x = np.ones(10000)
    y, _ = dropout_forward(x, 0.4, rng)
    assert abs(y.mean() - 1.0) < 0.02


# --- gradient checks --------------------------------------------------------

def _check(loss_and_grads, store, **kw):
    loss, grads = loss_and_grads()
    return grad_check(lambda: loss_and_grads()[0], store, grads, **kw)

def test_gradcheck_linear_exact():
    store = ParameterStore()
    rng = np.random.default_rng(0)
    lin = Linear(store, "lin", 3, 1, rng)
    store.add("fixed", np.ones(2))
    store.fixed.add("fixed")
    x = rng.normal(size=(4, 3))

    def lg():
        y, cache = lin.forward(x)
        grads = store.zero_grads()
        lin.backward(np.ones_like(y), cache, grads)
        return float(y.sum()), grads

    report = _check(lg, store)
    assert report["max_rel_error"] <= 1e-7
    # an array without an analytic gradient is not checked
    assert sorted(report["per_param"]) == ["lin.W", "lin.b"]

@pytest.mark.parametrize("seed", range(3))
def test_gradcheck_lstm_layer(seed):
    store = ParameterStore()
    rng = np.random.default_rng(seed)
    layer = LstmLayer(store, "lstm", 3, 4, rng)
    X = rng.normal(size=(3, 2, 3))
    W = rng.normal(size=4)

    def lg():
        H, cache = layer.forward(X)
        loss = float((H * W).sum())
        grads = store.zero_grads()
        layer.backward(np.broadcast_to(W, H.shape).copy(), cache, grads)
        return loss, grads

    assert _check(lg, store)["max_rel_error"] <= 1e-4

def _bilstm_gradcheck(seed, lengths):
    store = ParameterStore()
    rng = np.random.default_rng(seed)
    enc = BiLstmEncoder(store, "enc", 2, 3, rng)
    X = rng.normal(size=(3, 3, 2))
    W = rng.normal(size=6)

    def lg():
        e, cache = enc.forward(X, lengths)
        loss = float((e * W).sum())
        grads = store.zero_grads()
        enc.backward(np.broadcast_to(W, e.shape).copy(), cache, grads)
        return loss, grads

    return _check(lg, store)["max_rel_error"]

@pytest.mark.parametrize("seed", range(3))
def test_gradcheck_bilstm_with_lengths(seed):
    assert _bilstm_gradcheck(seed, np.array([3, 1, 2])) <= 1e-4

@pytest.mark.parametrize("seed", range(3))
def test_gradcheck_bilstm_with_every_length_below_t(seed):
    """No column's final state is the last row of the batch."""
    assert _bilstm_gradcheck(seed, np.array([2, 1, 2])) <= 1e-4

def _const_case(seed, single_column):
    """A layer over 3 step inputs plus 2 constant ones, and its inputs: a
    batch of 3 columns, or of the one column generation runs."""
    rng = np.random.default_rng(seed)
    T, B, D, Dc, H = 4, 1 if single_column else 3, 3, 2, 4
    store = ParameterStore()
    layer = LstmLayer(store, "lstm", D + Dc, H, rng)
    X = rng.normal(size=(T, B, D))
    const = rng.normal(size=(B, Dc))
    return store, layer, X, const, rng.normal(size=H)


@pytest.mark.parametrize("single_column", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_const_input_equals_the_input_copied_into_every_step(
        seed, single_column):
    store, layer, X, const, W = _const_case(seed, single_column)
    T, B, D = X.shape
    wide = np.concatenate([X, np.broadcast_to(const, (T,) + const.shape)],
                          axis=2)
    runs = []
    for H, cache in (layer.forward(X, const=const), layer.forward(wide)):
        grads = store.zero_grads()
        runs.append((H, grads, layer.backward(
            np.broadcast_to(W, H.shape).copy(), cache, grads)))
    (H_c, g_c, (dX_c, dconst)), (H_w, g_w, (dX_w, none)) = runs
    assert none is None
    assert np.allclose(H_c, H_w, rtol=0, atol=1e-12)
    for name in g_w:
        assert np.allclose(g_c[name], g_w[name], rtol=0, atol=1e-12), name
    assert np.allclose(dX_c, dX_w[:, :, :D], rtol=0, atol=1e-12)
    assert np.allclose(dconst, dX_w[:, :, D:].sum(axis=0), rtol=0,
                       atol=1e-12)


@pytest.mark.parametrize("single_column", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_gradcheck_lstm_layer_with_const(seed, single_column):
    """Weights and both inputs: X and const join the store so that the
    finite differences reach them too."""
    store, layer, X, const, W = _const_case(seed, single_column)
    X = store.add("X", X)
    const = store.add("const", const)

    def lg():
        H, cache = layer.forward(X, const=const)
        grads = store.zero_grads()
        grads["X"], grads["const"] = layer.backward(
            np.broadcast_to(W, H.shape).copy(), cache, grads)
        return float((H * W).sum()), grads

    assert _check(lg, store)["max_rel_error"] <= 1e-4


def test_backward_without_input_grad_keeps_weight_grads():
    store, layer, X, const, W = _const_case(0, False)
    H, cache = layer.forward(X, const=const)
    dH = np.broadcast_to(W, H.shape).copy()
    with_inputs, without = store.zero_grads(), store.zero_grads()
    assert layer.backward(dH, cache, with_inputs)[1] is not None
    assert layer.backward(dH, cache, without, input_grad=False) == (None,
                                                                    None)
    for name in with_inputs:
        assert np.array_equal(with_inputs[name], without[name])


def test_lstm_forward_rejects_wrong_input_width():
    store, layer, X, const, W = _const_case(0, False)
    with pytest.raises(NetError, match="input width 3 plus constant width 0"):
        layer.forward(X)


def test_gradcheck_flags_corrupted_gradient():
    store = ParameterStore()
    rng = np.random.default_rng(0)
    lin = Linear(store, "lin", 2, 1, rng)
    x = rng.normal(size=(3, 2))

    def lg():
        y, cache = lin.forward(x)
        grads = store.zero_grads()
        lin.backward(np.ones_like(y), cache, grads)
        grads["lin.W"] += 1.0  # deliberate corruption
        return float(y.sum()), grads

    assert _check(lg, store)["max_rel_error"] > 0.01


# --- checkpoints ------------------------------------------------------------

def test_checkpoint_roundtrip_bitexact(tmp_path):
    store = ParameterStore()
    rng = np.random.default_rng(1)
    store.add("a.W", rng.normal(size=(3, 4)))
    store.add("b", rng.normal(size=7))
    meta = {"kind": "test", "epoch": 3}
    p1 = tmp_path / "c1.ckpt"
    save_checkpoint(p1, store, meta)
    loaded, meta2 = load_checkpoint(p1)
    assert meta2 == meta
    assert sorted(loaded) == sorted(store.params)
    for name in store.params:
        assert np.array_equal(loaded[name], store[name])
    p2 = tmp_path / "c2.ckpt"
    save_checkpoint(p2, loaded, meta2)
    assert p1.read_bytes() == p2.read_bytes()


class _FailsOnWrite:
    """An array-like whose values cannot be read: saving it fails after
    the header and every array before it are written."""

    shape = (2,)

    def __array__(self, *args, **kwargs):
        raise RuntimeError("disk full")


def test_failed_save_leaves_the_earlier_file_whole(tmp_path):
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, {"a": np.ones(3), "b": np.zeros(2)}, {"k": 1})
    before = path.read_bytes()
    with pytest.raises(RuntimeError, match="disk full"):
        save_checkpoint(path, {"a": np.full(3, 2.0), "b": _FailsOnWrite()},
                        {"k": 2})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["c.ckpt"]


def test_child_rng_deterministic_and_distinct():
    a = child_rng(42, "lm").random(3)
    b = child_rng(42, "lm").random(3)
    c = child_rng(42, "rhymer").random(3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def _small_checkpoint(tmp_path):
    store = ParameterStore()
    rng = np.random.default_rng(2)
    store.add("a.W", rng.normal(size=(2, 3)))
    store.add("b", rng.normal(size=4))
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, store, {"kind": "test"})
    return path, path.read_bytes()

def test_checkpoint_truncated_anywhere_raises_net_error(tmp_path):
    path, data = _small_checkpoint(tmp_path)
    cut_path = tmp_path / "cut.ckpt"
    for cut in range(len(data)):
        cut_path.write_bytes(data[:cut])
        with pytest.raises(NetError):
            load_checkpoint(cut_path)

def test_checkpoint_short_payload_names_entry(tmp_path):
    path, data = _small_checkpoint(tmp_path)
    path.write_bytes(data[:-5])
    with pytest.raises(NetError, match="truncated checkpoint: b needs 32 "
                                       "bytes, 27 left"):
        load_checkpoint(path)

def test_checkpoint_header_length_past_file(tmp_path):
    path, data = _small_checkpoint(tmp_path)
    magic = data[:6]
    path.write_bytes(magic + (len(data) * 2).to_bytes(8, "little")
                     + data[14:])
    with pytest.raises(NetError, match="runs past the end"):
        load_checkpoint(path)

@pytest.mark.parametrize("first", [b"{", b"\xff"])
def test_checkpoint_header_not_json(tmp_path, first):
    path, data = _small_checkpoint(tmp_path)
    hlen = int.from_bytes(data[6:14], "little")
    garbled = data[:14] + first + b"{" * (hlen - 1) + data[14 + hlen:]
    path.write_bytes(garbled)
    with pytest.raises(NetError, match="corrupt checkpoint header"):
        load_checkpoint(path)

def _with_header(path, data, header: bytes):
    hlen = int.from_bytes(data[6:14], "little")
    path.write_bytes(data[:6] + len(header).to_bytes(8, "little") + header
                     + data[14 + hlen:])

def test_checkpoint_header_nested_too_deep(tmp_path):
    path, data = _small_checkpoint(tmp_path)
    _with_header(path, data, b"[" * 200_000)
    with pytest.raises(NetError, match="corrupt checkpoint header"):
        load_checkpoint(path)

_GOOD_ENTRY = {"name": "b", "shape": [4]}

@pytest.mark.parametrize("header", [
    [1],
    "step",
    {"meta": {}},
    {"entries": []},
    {"meta": None, "entries": []},
    {"meta": "x", "entries": []},
    {"meta": {}, "entries": None},
    {"meta": {}, "entries": [_GOOD_ENTRY, _GOOD_ENTRY]},
    {"meta": [], "entries": []},
    {"meta": {}, "entries": {}},
    {"meta": {}, "entries": [1]},
    {"meta": {}, "entries": [{"shape": [4]}]},
    {"meta": {}, "entries": [dict(_GOOD_ENTRY, name=5)]},
    {"meta": {}, "entries": [{"name": "b"}]},
    {"meta": {}, "entries": [dict(_GOOD_ENTRY, shape="4")]},
    {"meta": {}, "entries": [dict(_GOOD_ENTRY, shape=[-3])]},
    {"meta": {}, "entries": [dict(_GOOD_ENTRY, shape=[2.5])]},
    {"meta": {}, "entries": [dict(_GOOD_ENTRY, shape=[True])]},
])
def test_checkpoint_header_bad_structure(tmp_path, header):
    path, data = _small_checkpoint(tmp_path)
    _with_header(path, data, json.dumps(header).encode())
    with pytest.raises(NetError, match="corrupt checkpoint header"):
        load_checkpoint(path)

def test_checkpoint_huge_shape_is_truncation(tmp_path):
    # a product past 2**64 must not wrap around to a small byte count
    path, data = _small_checkpoint(tmp_path)
    entry = dict(_GOOD_ENTRY, shape=[2 ** 62, 4])
    _with_header(path, data, json.dumps(
        {"step": 0, "meta": {}, "entries": [entry]}).encode())
    with pytest.raises(NetError, match="truncated checkpoint: b needs"):
        load_checkpoint(path)

@pytest.mark.parametrize("shape", [[0, 10 ** 30], [1] * 70])
def test_checkpoint_shape_numpy_cannot_make_is_net_error(tmp_path, shape):
    path, data = _small_checkpoint(tmp_path)
    entry = dict(_GOOD_ENTRY, shape=shape)
    _with_header(path, data, json.dumps(
        {"meta": {}, "entries": [entry]}).encode())
    with pytest.raises(NetError, match="corrupt checkpoint: b has shape"):
        load_checkpoint(path)

def test_checkpoint_holds_parameters_only(tmp_path):
    path, data = _small_checkpoint(tmp_path)
    hlen = int.from_bytes(data[6:14], "little")
    header = json.loads(data[14:14 + hlen])
    assert sorted(header) == ["entries", "meta"]
    assert header["entries"] == [{"name": "a.W", "shape": [2, 3]},
                                 {"name": "b", "shape": [4]}]
    assert len(data) == 14 + hlen + 8 * (6 + 4)

def test_checkpoint_of_another_format_is_not_a_checkpoint(tmp_path):
    path, data = _small_checkpoint(tmp_path)
    path.write_bytes(b"ACPK1\n" + data[6:])
    with pytest.raises(NetError, match="not a checkpoint file"):
        load_checkpoint(path)

def test_checkpoint_trailing_bytes_are_corrupt(tmp_path):
    path, data = _small_checkpoint(tmp_path)
    path.write_bytes(data + b"\0" * 8)
    with pytest.raises(NetError, match="8 bytes after the last array"):
        load_checkpoint(path)


# --- parameter store: moments for training only, exact loads -----------------

def test_store_creates_moments_for_trainable_arrays_only():
    s = ParameterStore()
    s.add("w", np.ones(3))
    s.add("emb", np.ones((2, 2)))
    s.fixed.add("emb")
    assert s.m == {} and s.v == {}
    s.init_moments()
    assert sorted(s.m) == sorted(s.v) == ["w"]
    s.m["w"][...] = 1.0
    s.init_moments()  # existing moments carry on
    assert s.m["w"].tolist() == [1.0, 1.0, 1.0]

def test_reset_moments_restarts_adam_as_on_a_fresh_store():
    rng = np.random.default_rng(4)
    w = rng.normal(size=(3, 4))
    grads = [rng.normal(size=w.shape) for _ in range(3)]
    trained = _store_with("w", w.copy())
    for g in grads:
        adam_update(trained, {"w": g.copy()}, lr=0.01)
    trained.reset_moments()
    assert trained.m == {} and trained.v == {} and trained.step == 0
    fresh = _store_with("w", trained["w"].copy())
    for g in grads:
        adam_update(trained, {"w": g.copy()}, lr=0.01)
        adam_update(fresh, {"w": g.copy()}, lr=0.01)
    assert _same_bits(trained["w"], fresh["w"])
    assert _same_bits(trained.m["w"], fresh.m["w"])
    assert trained.step == fresh.step == 3

def test_store_add_twice_is_an_error():
    s = _store_with("w", np.ones(2))
    with pytest.raises(NetError, match="'w' added twice"):
        s.add("w", np.ones(2))


def _layer_store(source=None):
    store = ParameterStore(source)
    LstmLayer(store, "l", 3, 2, np.random.default_rng(0))
    return store


def test_store_built_from_source_takes_its_arrays(tmp_path):
    path = tmp_path / "l.ckpt"
    save_checkpoint(path, {k: v + 1.0 for k, v in _layer_store().items()},
                    {})
    source, _ = load_checkpoint(path)
    store = _layer_store(source)
    store.check_source()
    for name, arr in source.items():
        assert store[name] is arr
        arr += 1.0  # writable: a loaded model can be trained further


def test_store_built_from_source_names_every_mismatch():
    source = dict(_layer_store().params)
    source["l.Wh"] = np.zeros((3, 8))
    source["z"] = np.zeros(1)
    store = _layer_store(source)
    assert "l.Wh" not in store  # never allocated at the model's shape
    with pytest.raises(NetError) as err:
        store.check_source()
    assert str(err.value) == (
        "arrays do not match the model: 'l.Wh' has shape (3, 8), the model "
        "needs (2, 8); extra 'z'")


def test_store_built_from_source_stops_at_a_missing_array():
    source = dict(_layer_store().params)
    del source["l.Wh"]
    with pytest.raises(NetError, match="missing 'l.Wh'"):
        _layer_store(source)


@pytest.mark.parametrize("with_const", [False, True])
def test_forward_from_a_state_continues_the_sequence(with_const):
    """Running X[:s] and then X[s:] from the state it ended in gives the
    states of one run over X, for every split (an empty tail included)."""
    store, layer, X, const, _ = _const_case(4, single_column=True)
    const = const if with_const else None
    if const is None:
        layer = LstmLayer(store, "plain", X.shape[2], layer.hidden,
                          np.random.default_rng(0))
    T = X.shape[0]
    whole, (_, _, Hs, Cs, _) = layer.forward(X, const=const)
    for s in range(T + 1):
        _, (_, _, Hs0, Cs0, _) = layer.forward(X[:s], const=const)
        tail, (_, _, Hs1, Cs1, _) = layer.forward(
            X[s:], const=const, state=(Hs0[-1], Cs0[-1]))
        assert np.allclose(tail, whole[s:], rtol=0, atol=1e-12), s
        assert np.allclose(Hs1[-1], Hs[-1], rtol=0, atol=1e-12), s
        assert np.allclose(Cs1[-1], Cs[-1], rtol=0, atol=1e-12), s


def _adam_reference(params, m, v, g, step, lr, beta1=0.9, beta2=0.999,
                    eps=1e-8):
    """Adam written as plain expressions, one temporary per operation."""
    bc1, bc2 = 1.0 - beta1 ** step, 1.0 - beta2 ** step
    m[:] = beta1 * m + (1.0 - beta1) * g
    v[:] = beta2 * v + (1.0 - beta2) * g * g
    params -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def test_adam_in_place_matches_the_expression_form_bit_for_bit():
    rng = np.random.default_rng(3)
    store = ParameterStore()
    store.add("w", rng.normal(size=(5, 7)))
    ref = store["w"].copy()
    m, v = np.zeros_like(ref), np.zeros_like(ref)
    for step in range(1, 5):
        g = rng.normal(size=ref.shape) * 10.0 ** rng.integers(-6, 3)
        adam_update(store, {"w": g.copy()}, lr=0.01)
        _adam_reference(ref, m, v, g, step, lr=0.01)
        assert np.array_equal(store["w"], ref)
        assert np.array_equal(store.m["w"], m)
        assert np.array_equal(store.v["w"], v)


def test_softmax_and_linear_keep_their_inputs():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(4, 6)) * 30
    kept = logits.copy()
    probs = net.softmax(logits)
    assert np.array_equal(logits, kept)
    z = kept - kept.max(axis=-1, keepdims=True)
    assert np.array_equal(probs, np.exp(z) / np.exp(z).sum(-1, keepdims=True))
    store = ParameterStore()
    layer = Linear(store, "lin", 6, 3, rng)
    store["lin.b"][:] = rng.normal(size=3)
    Y, X = layer.forward(kept)
    assert X is kept and np.array_equal(kept, logits)
    assert np.array_equal(Y, kept @ store["lin.W"] + store["lin.b"])


def _xent_grad_reference(logits, targets, weights):
    want = _plain_softmax(logits) * weights[:, None]
    want[np.arange(len(want)), targets] -= weights
    return want / max(float(weights.sum()), 1.0)


def test_xent_grad_is_the_expression_form_bit_for_bit():
    """softmax_xent_batch's probabilities, made the mean loss's gradient
    in place by xent_grad; reshaped probabilities, and row chunks over
    the whole batch's weight, give the same bits."""
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(12, 7)) * 5
    targets = rng.integers(0, 7, size=12)
    weights = rng.random(12) * (rng.random(12) > 0.3)
    loss, probs, wsum = net.softmax_xent_batch(logits, targets, weights)
    want = _xent_grad_reference(logits, targets, weights)
    rows = np.arange(12)
    p_t = np.clip(_plain_softmax(logits)[rows, targets], net.CE_EPS, None)
    assert loss == float(-(weights * np.log(p_t)).sum())
    assert wsum == float(weights.sum()) > 1.0
    shaped = probs.copy().reshape(3, 4, 7)
    chunks = probs.copy()
    assert net.xent_grad(probs, targets, weights, wsum) is probs
    assert _same_bits(probs, want)
    assert _same_bits(net.xent_grad(shaped, targets, weights, wsum),
                      want.reshape(3, 4, 7))
    for lo, hi in ((0, 5), (5, 12)):
        net.xent_grad(chunks[lo:hi], targets[lo:hi], weights[lo:hi], wsum)
    assert _same_bits(chunks, want)
    # a total weight below 1 divides by 1
    small = weights / (2.0 * wsum)
    _, probs, small_sum = net.softmax_xent_batch(logits, targets, small)
    assert _same_bits(net.xent_grad(probs, targets, small, small_sum),
                      _xent_grad_reference(logits, targets, small))


# --- row blocks -------------------------------------------------------------

def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


def _block_counts(monkeypatch, max_blocks):
    """Patch the CPU count row blocks may use; returns the list of block
    counts each run_row_blocks call then gets."""
    counts = []
    real = net.run_row_blocks

    def counted(fn, rows, blocks):
        counts.append(blocks)
        return real(fn, rows, blocks)
    monkeypatch.setattr(net, "max_row_blocks", lambda: max_blocks)
    monkeypatch.setattr(net, "run_row_blocks", counted)
    return counts


def _operand(rng, shape, transposed):
    """A (rows, cols) operand, or the transposed view of a C array."""
    if transposed:
        return rng.normal(size=shape[::-1]).T
    return rng.normal(size=shape)


# (M, K, N, A transposed, B transposed): the LM's product classes at
# T*B = 263 positions, H = 256, V = 1000, embedding width 100
MATMUL_CASES = {
    "input projection X @ Wx": (263, 100, 1024, False, False),
    "step h @ Wh": (32, 256, 1024, False, False),
    "step da @ Wh.T": (32, 1024, 256, False, True),
    "dWx X.T @ dA": (100, 263, 1024, True, False),
    "dWh Hs.T @ dA": (256, 263, 1024, True, False),
    "dX dA @ Wx.T": (263, 1024, 256, False, True),
    "Linear X @ W": (263, 256, 1000, False, False),
    "Linear dW X.T @ dY": (256, 263, 1000, True, False),
    "Linear dX dY @ W.T": (263, 1000, 256, False, True),
    "odd rows": (77, 333, 1024, False, False),
    "fewer rows than blocks": (5, 2048, 1024, False, False),
    "too few rows to split": (3, 4096, 1024, False, False),
}


@pytest.mark.parametrize("case", MATMUL_CASES)
@pytest.mark.parametrize("max_blocks", [1, 2, 3, 4])
def test_matmul_equals_the_plain_product_bit_for_bit(monkeypatch, case,
                                                     max_blocks):
    M, K, N, ta, tb = MATMUL_CASES[case]
    rng = np.random.default_rng(M * K + N)
    A = _operand(rng, (M, K), ta)
    B = _operand(rng, (K, N), tb)
    with one_blas_thread():
        want = A @ B
        counts = _block_counts(monkeypatch, max_blocks)
        got = net.matmul(A, B)
    assert _same_bits(got, want)
    # every block has two rows or more; one row would take numpy's GEMV
    blocks = min(max_blocks, M // 2, M * K * N // net.ROW_BLOCK_MACS)
    assert counts == ([blocks] if blocks > 1 else [])


@pytest.mark.parametrize("N", [999, 1004, 4999])
def test_matmul_runs_whole_when_columns_are_not_a_multiple_of_8(
        monkeypatch, N):
    """Row blocks of such products changed bits on OpenBLAS."""
    rng = np.random.default_rng(N)
    A, B = rng.normal(size=(263, 256)), rng.normal(size=(256, N))
    counts = _block_counts(monkeypatch, 4)
    assert _same_bits(net.matmul(A, B), A @ B)
    assert counts == []


def test_matmul_runs_a_stacked_product_whole(monkeypatch):
    """numpy computes (T, B, K) @ (K, N) per stack; flattening it to one
    2-D product would change bits, so it is not split."""
    rng = np.random.default_rng(5)
    X, W = rng.normal(size=(40, 16, 256)), rng.normal(size=(256, 1024))
    counts = _block_counts(monkeypatch, 4)
    assert _same_bits(net.matmul(X, W), X @ W)
    assert counts == []


def _plain_softmax(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("shape, split", [
    ((263, 4001), True), ((3, 1 << 19), True), ((255, 4000), False)])
@pytest.mark.parametrize("max_blocks", [1, 2, 3, 4])
def test_softmax_equals_the_plain_computation_bit_for_bit(
        monkeypatch, shape, split, max_blocks):
    """2-D logits of 2^20 entries or more split into row blocks, fewer
    rows than blocks included; smaller ones run whole."""
    logits = np.random.default_rng(max_blocks).normal(size=shape) * 20
    kept = logits.copy()
    counts = _block_counts(monkeypatch, max_blocks)
    probs = net.softmax(logits)
    assert _same_bits(probs, _plain_softmax(kept))
    assert _same_bits(logits, kept)
    blocks = min(max_blocks, shape[0]) if split else 1
    assert counts == [blocks]


@pytest.mark.parametrize("failing", [0, 3])
def test_a_block_error_reaches_the_caller_after_every_block(failing):
    """Block 0 runs on the pool, block 3 on the caller's thread; either
    one's exception is raised only once the other blocks have finished."""
    finished = []

    def block(lo, hi):
        if lo == 2 * failing:
            raise ValueError(f"block {failing}")
        time.sleep(0.05)
        finished.append(lo)
    with pytest.raises(ValueError, match=f"block {failing}"):
        net.run_row_blocks(block, 8, 4)
    assert sorted(finished) == sorted({0, 2, 4, 6} - {2 * failing})


def test_concurrent_callers_share_the_pool_without_mixing_rows(
        monkeypatch):
    """More callers than CPUs, each splitting products into 4 blocks on
    the one pool, with frequent thread switches: every product keeps the
    bits of A @ B."""
    rng = np.random.default_rng(7)
    A, B = rng.normal(size=(96, 256)), rng.normal(size=(256, 1024))
    want = A @ B
    monkeypatch.setattr(net, "max_row_blocks", lambda: 4)
    wrong = []

    def caller(k):
        for _ in range(10):
            got = net.matmul(A[k:], B)
            if not _same_bits(got, want[k:]):
                wrong.append(k)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with one_blas_thread():
            threads = [threading.Thread(target=caller, args=(2 * k,))
                       for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


_FORK_SCRIPT = """
import os, signal, sys
sys.path[:0] = sys.argv[1:]
from acropoet import net
rows = []
net.run_row_blocks(lambda lo, hi: rows.append(lo), 4, 2)
pid = os.fork()
if pid == 0:
    signal.alarm(20)  # a child that waits on its parent's threads dies
    net.run_row_blocks(lambda lo, hi: rows.append(lo), 4, 2)
    os._exit(0 if sorted(rows) == [0, 0, 2, 2] else 1)
_, status = os.waitpid(pid, 0)
print(os.waitstatus_to_exitcode(status))
"""


def test_a_forked_child_makes_a_pool_of_its_own():
    """A forked child has none of the pool's threads; its blocks run on
    a new pool instead of waiting forever."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", _FORK_SCRIPT, str(src)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


def test_row_blocks_cover_every_row_once():
    seen = []
    net.run_row_blocks(lambda lo, hi: seen.append((lo, hi)), 7, 3)
    assert sorted(seen) == [(0, 2), (2, 4), (4, 7)]


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _lstm_reference(layer, X, const, state, dH):
    """LstmLayer's forward and backward as whole-batch expressions, one
    step at a time: H_out, the gradients, dX and d_const."""
    Wx, Wh, bias = layer.step_weights(const)
    T, B, D = X.shape
    H = layer.hidden
    XW = (X.reshape(T * B, D) @ Wx).reshape(T, B, 4 * H)
    Hs, Cs = np.zeros((T + 1, B, H)), np.zeros((T + 1, B, H))
    Hs[0], Cs[0] = state
    gates = []
    for t in range(T):
        a = XW[t] + Hs[t] @ Wh + bias
        i, f, o = (_sigmoid(a[:, k * H:(k + 1) * H]) for k in (0, 1, 3))
        g = np.tanh(a[:, 2 * H:3 * H])
        Cs[t + 1] = f * Cs[t] + i * g
        tc = np.tanh(Cs[t + 1])
        Hs[t + 1] = o * tc
        gates.append((i, f, g, o, tc))
    dA = np.empty((T, B, 4 * H))
    dh_next, dc_next = np.zeros((B, H)), np.zeros((B, H))
    for t in range(T - 1, -1, -1):
        i, f, g, o, tc = gates[t]
        dh = dH[t] + dh_next
        do = dh * tc
        dc = dc_next + dh * o * (1.0 - tc * tc)
        dA[t] = np.concatenate([dc * g * i * (1.0 - i),
                                dc * Cs[t] * f * (1.0 - f),
                                dc * i * (1.0 - g * g),
                                do * o * (1.0 - o)], axis=1)
        dh_next = dA[t] @ Wh.T
        dc_next = dc * f
    flat = dA.reshape(T * B, 4 * H)
    grads = {"Wx": np.zeros((layer.in_dim, 4 * H)),
             "Wh": Hs[:-1].reshape(T * B, H).T @ flat,
             "b": flat.sum(axis=0)}
    grads["Wx"][:D] = X.reshape(T * B, D).T @ flat
    d_const = None
    if const is not None:
        dA_sum = dA.sum(axis=0)
        grads["Wx"][D:] = const.T @ dA_sum
        d_const = dA_sum @ layer.step_weights()[0][D:].T
    return Hs[1:], grads, (flat @ Wx.T).reshape(T, B, D), d_const


# B -> (hidden, block count at 2-4 CPUs): the step products split only
# at two rows a block and 2^21 multiply-adds a block
LSTM_BLOCK_CASES = {1: (512, [1, 1, 1]), 2: (512, [1, 1, 1]),
                    5: (512, [2, 2, 2]), 32: (256, [2, 3, 4]),
                    33: (256, [2, 3, 4])}


@pytest.mark.parametrize("B", LSTM_BLOCK_CASES)
@pytest.mark.parametrize("with_const", [False, True])
@pytest.mark.parametrize("with_state", [False, True])
def test_lstm_layer_row_blocks_keep_every_bit(monkeypatch, B, with_const,
                                              with_state):
    """At 1-4 CPUs, forward and backward give the bits of the step-by-step
    whole-batch expressions: outputs, every gradient, dX and d_const."""
    H, splits = LSTM_BLOCK_CASES[B]
    rng = np.random.default_rng(B)
    T, D, Dc = 3, 4, 3 if with_const else 0
    store = ParameterStore()
    layer = LstmLayer(store, "l", D + Dc, H, rng)
    store["l.b"][:] = rng.normal(size=4 * H)
    X = rng.normal(size=(T, B, D))
    const = rng.normal(size=(B, Dc)) if with_const else None
    state = (tuple(rng.normal(size=(2, B, H))) if with_state
             else (np.zeros((B, H)), np.zeros((B, H))))
    dH = rng.normal(size=(T, B, H))
    with one_blas_thread():
        want_H, want, want_dX, want_dc = _lstm_reference(layer, X, const,
                                                         state, dH)
        real = net.run_row_blocks
        for max_blocks, split in zip([1, 2, 3, 4], [1] + splits):
            loops = []  # block counts of the calls over the B columns

            def counted(fn, rows, blocks):
                if rows == B:
                    loops.append(blocks)
                return real(fn, rows, blocks)
            monkeypatch.setattr(net, "max_row_blocks", lambda: max_blocks)
            monkeypatch.setattr(net, "run_row_blocks", counted)
            Hs, cache = layer.forward(X, const,
                                      state if with_state else None)
            grads = store.zero_grads()
            dX, d_const = layer.backward(dH, cache, grads)
            assert loops == [split, split]
            assert _same_bits(Hs, want_H), max_blocks
            for name in want:
                assert _same_bits(grads[f"l.{name}"], want[name]), name
            assert _same_bits(dX, want_dX)
            assert (d_const is None if const is None
                    else _same_bits(d_const, want_dc))


@pytest.mark.parametrize("shape", [
    (1000,), (net.ADAM_CHUNK,), (2 * net.ADAM_CHUNK + 5,),
    (3, net.ADAM_CHUNK // 2 + 7), (257, 1000)])
@pytest.mark.parametrize("max_blocks", [1, 2, 3, 4])
def test_adam_row_blocks_keep_every_bit(monkeypatch, shape, max_blocks):
    """Arrays below, at and across the chunk size, updated in up to four
    blocks, keep the bits of the expression form in params, m and v."""
    rng = np.random.default_rng(len(shape) + shape[-1])
    store = ParameterStore()
    store.add("w", rng.normal(size=shape))
    ref = store["w"].copy()
    m, v = np.zeros_like(ref), np.zeros_like(ref)
    counts = _block_counts(monkeypatch, max_blocks)
    for step in (1, 2):
        g = rng.normal(size=shape)
        adam_update(store, {"w": g}, lr=0.01)
        _adam_reference(ref, m, v, g, step, lr=0.01)
        assert _same_bits(store["w"], ref)
        assert _same_bits(store.m["w"], m)
        assert _same_bits(store.v["w"], v)
    chunks = -(-ref.size // net.ADAM_CHUNK)
    assert counts == [min(max_blocks, shape[0], chunks)] * 2


# One train_lm epoch at B=32, H=256 in a child process whose BLAS thread
# count is set before numpy loads; its output head runs in several chunks.
# Prints what the row blocks and the head chunks did.
_EPOCH_SCRIPT = """
import hashlib, json, os, sys
sys.path[:0] = sys.argv[1:]
from helpers import make_poems, make_table
from acropoet import net, poemlm
from acropoet.corpus import build_vocabulary
from acropoet.poemlm import (
    LmConfig, LmVariant, PoemLM, build_embedding_matrix, train_lm)

counts = []
real = net.run_row_blocks
def counted(fn, rows, blocks):
    counts.append(blocks)
    return real(fn, rows, blocks)
net.run_row_blocks = counted

poemlm.HEAD_ROWS = 64
head_chunks = []
real_chunks = poemlm.head_chunks
def chunked(rows):
    head_chunks.append(len(real_chunks(rows)))
    return real_chunks(rows)
poemlm.head_chunks = chunked

def epoch():
    table = make_table(dim=8, seed=0)
    train, dev = make_poems(32, seed=1), make_poems(4, seed=2)
    vocab = build_vocabulary(train, max_size=200)
    cfg = LmConfig(n_layers=2, hidden=256, dropout=0.1, lr=0.01,
                   batch_size=32, patience=1, max_epochs=1, seed=0)
    model = PoemLM(vocab, cfg, topic_dim=table.dim,
                   emb_matrix=build_embedding_matrix(vocab, table),
                   variant=LmVariant.from_name("gold+"))
    no_pool_at_load = net._pool is None
    train_lm(model, train, dev, table)
    digest = hashlib.sha256()
    for name in sorted(model.store):
        digest.update(model.store[name].tobytes())
    return digest.hexdigest(), no_pool_at_load

pooled, no_pool_at_load = epoch()
blocks = max(counts, default=1)
net.max_row_blocks = lambda: 1
counts.clear()
whole, _ = epoch()
print(json.dumps({"blas_threads": net.blas_threads(), "blocks": blocks,
                  "patched_blocks": max(counts, default=1),
                  "same_bits": pooled == whole,
                  "head_chunks": min(head_chunks),
                  "no_pool_at_load": no_pool_at_load}))
"""


def _epoch_in_child(blas_threads):
    if net.blas_threads() is None:
        pytest.skip("numpy's BLAS reports no thread count")
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("row blocks need two CPUs")
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    proc = subprocess.run(
        [sys.executable, "-c", _EPOCH_SCRIPT, str(tests),
         str(tests.parent / "src")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_training_on_one_blas_thread_uses_row_blocks_with_the_same_bits():
    out = _epoch_in_child(1)
    assert out["blas_threads"] == 1
    assert out["blocks"] > 1
    assert out["head_chunks"] > 1
    assert out["same_bits"]
    assert out["patched_blocks"] == 1
    assert out["no_pool_at_load"]


def test_training_on_two_blas_threads_runs_one_block():
    out = _epoch_in_child(2)
    assert out["blas_threads"] == 2
    assert out["blocks"] == 1
    assert out["same_bits"]


def test_early_stopper_keeps_and_restores_trainable_arrays_only():
    """Fixed arrays never change in training, so the snapshot skips them;
    a restore brings back the best trainable values."""
    s = ParameterStore()
    s.add("w", np.array([1.0, 2.0]))
    s.add("emb", np.arange(6.0).reshape(3, 2))
    s.fixed.add("emb")
    emb = s["emb"]
    stopper = EarlyStopper(patience=1)
    stopper.update(1.0, s)
    assert set(stopper.best_params) == {"w"}
    assert not np.shares_memory(stopper.best_params["w"], s["w"])
    s.params["w"][:] = 9.0
    stopper.update(2.0, s)
    stopper.restore_best(s)
    assert np.array_equal(s["w"], [1.0, 2.0])
    assert s["emb"] is emb
    assert np.array_equal(emb, np.arange(6.0).reshape(3, 2))
