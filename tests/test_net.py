import json

import numpy as np
import pytest

from acropoet import net
from acropoet.net import (
    BiLstmEncoder, EarlyStopper, Linear, LstmLayer, NetError,
    ParameterStore, adam_update, child_rng, clip_global_norm, cross_entropy,
    dropout_forward, grad_check, load_checkpoint, lstm_step,
    save_checkpoint, softmax_masked,
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
                h, c = lstm_step(X[t, j], h, c, *layer._weights())
            assert np.allclose(encoded[j, half], h, rtol=0, atol=1e-12)


def test_reverse_padded_reverses_within_each_length():
    X = np.arange(4 * 3 * 2).reshape(4, 3, 2)
    lengths = np.array([4, 1, 3])
    Y = net.reverse_padded(X, lengths)
    for j, L in enumerate(lengths):
        assert np.array_equal(Y[:L, j], X[L - 1::-1, j])
        assert np.array_equal(Y[L:, j], X[L:, j])
    assert np.array_equal(net.reverse_padded(Y, lengths), X)


# --- masked softmax / cross entropy -----------------------------------------

def test_softmax_masked_all_ones_is_softmax():
    logits = np.array([1.0, 2.0, 3.0])
    p = softmax_masked(logits, np.ones(3))
    e = np.exp(logits - 3.0)
    assert np.allclose(p, e / e.sum())

def test_softmax_masked_symmetry():
    p = softmax_masked(np.zeros(3), np.array([1, 0, 1]))
    assert np.allclose(p, [0.5, 0.0, 0.5])
    assert p[1] == 0.0

def test_softmax_masked_two_way():
    p = softmax_masked(np.array([1.0, 2.0, 3.0]), np.array([0, 1, 1]))
    assert p[0] == 0.0
    assert p[1] == pytest.approx(0.26894, abs=1e-5)
    assert p[2] == pytest.approx(0.73106, abs=1e-5)
    assert p.sum() == pytest.approx(1.0, abs=1e-9)

def test_softmax_masked_empty_mask_errors():
    with pytest.raises(NetError):
        softmax_masked(np.zeros(3), np.zeros(3))

def test_cross_entropy_values(caplog):
    assert cross_entropy(np.full(50, 1 / 50), 7) == pytest.approx(np.log(50))
    assert cross_entropy(np.array([0.0, 1.0]), 1) == 0.0
    assert cross_entropy(np.array([0.25, 0.75]), 0) == pytest.approx(1.38629,
                                                                    abs=1e-5)
    with caplog.at_level("WARNING"):
        val = cross_entropy(np.array([0.0, 1.0]), 0)
    assert val == pytest.approx(-np.log(1e-12))
    assert "clamping" in caplog.text


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
    y, mask = dropout_forward(x, 0.4, np.random.default_rng(0), train=False)
    assert y is x and mask is None

def test_dropout_preserves_scale():
    rng = np.random.default_rng(0)
    x = np.ones(10000)
    y, _ = dropout_forward(x, 0.4, rng, train=True)
    assert abs(y.mean() - 1.0) < 0.02


# --- gradient checks --------------------------------------------------------

def _check(loss_and_grads, store, **kw):
    loss, grads = loss_and_grads()
    return grad_check(lambda: loss_and_grads()[0], store, grads, **kw)

def test_gradcheck_linear_exact():
    store = ParameterStore()
    rng = np.random.default_rng(0)
    lin = Linear(store, "lin", 3, 1, rng)
    x = rng.normal(size=(4, 3))

    def lg():
        y, cache = lin.forward(x)
        grads = store.zero_grads()
        lin.backward(np.ones_like(y), cache, grads)
        return float(y.sum()), grads

    report = _check(lg, store)
    assert report["max_rel_error"] <= 1e-7

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

def test_store_add_twice_is_an_error():
    s = _store_with("w", np.ones(2))
    with pytest.raises(NetError, match="'w' added twice"):
        s.add("w", np.ones(2))

def test_load_params_names_every_mismatched_array():
    s = ParameterStore()
    for name, shape in (("a", (2, 3)), ("b", (4,)), ("c", (1,))):
        s.add(name, np.zeros(shape))
    with pytest.raises(NetError) as err:
        s.load_params({"a": np.ones((3, 2)), "c": np.ones(1),
                       "z": np.ones(1)}, "x.ckpt")
    message = str(err.value)
    assert message.startswith("x.ckpt: arrays do not match the model: ")
    for part in ("missing 'b'", "extra 'z'", "'a' has shape (3, 2)"):
        assert part in message
    assert not s["c"].any()  # nothing is copied unless everything matches
    s.load_params({"a": np.ones((2, 3)), "b": np.ones(4), "c": np.ones(1)})
    assert all(s[k].all() for k in s)


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
