"""Trainable sequence-model substrate in plain numpy.

Everything here is float64 with hand-written backward passes: LSTM cells
and stacks (uni/bidirectional), linear + softmax output, cross-entropy,
Adam with bias correction, the early-stopped training loop, and a
central-finite-difference gradient checker used to validate the backprop
code.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import math
import os
import time
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

INIT_SCALE = 0.08
GRAD_CLIP_NORM = 5.0
CE_EPS = 1e-12


class NetError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Deterministic RNG plumbing: one root seed, children derived per component
# ---------------------------------------------------------------------------

def _key_int(key) -> int:
    if isinstance(key, int):
        return key
    digest = hashlib.blake2b(str(key).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def child_rng(root_seed: int, *keys) -> np.random.Generator:
    """Derive an independent generator from a root seed and a key path."""
    seq = np.random.SeedSequence([root_seed] + [_key_int(k) for k in keys])
    return np.random.Generator(np.random.PCG64(seq))


# ---------------------------------------------------------------------------
# Parameter store
# ---------------------------------------------------------------------------

class ParameterStore(Mapping):
    """Named parameter arrays, as a mapping from name to array.

    Arrays named in `fixed` get no gradient, so training never changes
    them.  Adam moments and the step counter exist for training only:
    `init_moments` creates them, and checkpoints do not hold them.

    A store made with `source` arrays (a checkpoint's, by name) builds
    from them: `new` takes the source array of each name it is asked for
    and allocates nothing, and `check_source` then rejects a source
    unlike the model.
    """

    def __init__(self, source: Mapping[str, np.ndarray] | None = None):
        self.params: dict[str, np.ndarray] = {}
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.fixed: set[str] = set()
        self.step = 0
        self.source = source
        self._misshapen: dict[str, str] = {}

    def add(self, name: str, array: np.ndarray) -> np.ndarray:
        if name in self.params:
            raise NetError(f"parameter {name!r} added twice")
        arr = np.asarray(array, dtype=np.float64)
        self.params[name] = arr
        return arr

    def new(self, name: str, shape, init) -> np.ndarray:
        """Add and return array `name` of `shape`, filled by init(shape),
        or the source array of that name itself.

        Building from a source, a missing array raises NetError at once
        (so a model bigger than its checkpoint stops growing), and a
        misshapen one is noted for `check_source` and left out: the
        returned stand-in is empty.
        """
        shape = tuple(shape)
        if self.source is None:
            return self.add(name, init(shape))
        have = self.source.get(name)
        if have is None:
            raise NetError(_mismatch([f"missing {name!r}",
                                      *self._misshapen.values()]))
        if have.shape != shape:
            self._misshapen[name] = (f"{name!r} has shape {have.shape}, "
                                     f"the model needs {shape}")
            return np.empty(0)
        return self.add(name, have)

    def check_source(self) -> None:
        """Raise NetError naming every misshapen source array and every
        one the model never asked for."""
        problems = list(self._misshapen.values())
        problems += [f"extra {k!r}" for k in sorted(self.source)
                     if k not in self.params and k not in self._misshapen]
        if problems:
            raise NetError(_mismatch(problems))

    def __getitem__(self, name: str) -> np.ndarray:
        return self.params[name]

    def __iter__(self):
        return iter(self.params)

    def __len__(self) -> int:
        return len(self.params)

    def init_moments(self) -> None:
        """Zero Adam moments for each trainable array that has none yet."""
        for k, p in self.params.items():
            if k not in self.fixed and k not in self.m:
                self.m[k] = np.zeros_like(p)
                self.v[k] = np.zeros_like(p)

    def zero_grads(self) -> dict[str, np.ndarray]:
        """One zero gradient per trainable array; fixed arrays get none."""
        return {k: np.zeros_like(p) for k, p in self.params.items()
                if k not in self.fixed}

    def copy_params(self) -> dict[str, np.ndarray]:
        return {k: p.copy() for k, p in self.params.items()}

    def load_params(self, params: Mapping[str, np.ndarray],
                    source: str = "parameters") -> None:
        """Copy `params` into the store's arrays.  They must match the
        store name for name and shape for shape; otherwise raise NetError
        naming `source` and every missing, extra or misshapen array."""
        problems = [f"missing {k!r}" for k in self.params if k not in params]
        problems += [f"extra {k!r}" for k in sorted(params)
                     if k not in self.params]
        problems += [f"{k!r} has shape {params[k].shape}, the model "
                     f"needs {p.shape}" for k, p in self.params.items()
                     if k in params and params[k].shape != p.shape]
        if problems:
            raise NetError(f"{source}: {_mismatch(problems)}")
        for k, p in params.items():
            self.params[k][...] = p


def _mismatch(problems: list[str]) -> str:
    return "arrays do not match the model: " + "; ".join(problems)


def build_from_checkpoint(path, build):
    """The model build() makes from the arrays of the checkpoint at `path`,
    which build passes to the model's constructor as its store's source.
    Raises NetError naming `path` when the arrays are not the ones the
    model needs, allocating none the file does not hold."""
    try:
        model = build()
        model.store.check_source()
    except NetError as exc:
        raise NetError(f"{path}: {exc}") from None
    return model


def init_uniform(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape)


# ---------------------------------------------------------------------------
# LSTM cell
# ---------------------------------------------------------------------------

def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _cell(a, c_prev):
    """LSTM cell on the pre-activation a = x @ Wx + h_prev @ Wh + b, gates
    in order input, forget, cell, output; returns ((h, c), (i, f, g, o,
    tanh(c))), the second part for backprop."""
    H = c_prev.shape[-1]
    i = _sigmoid(a[..., :H])
    f = _sigmoid(a[..., H:2 * H])
    g = np.tanh(a[..., 2 * H:3 * H])
    o = _sigmoid(a[..., 3 * H:])
    c = f * c_prev + i * g
    tc = np.tanh(c)
    return (o * tc, c), (i, f, g, o, tc)


def lstm_step(x, h_prev, c_prev, Wx, Wh, b):
    """One LSTM recurrence step; returns (h, c)."""
    if x.shape[-1] != Wx.shape[0] or h_prev.shape[-1] != Wh.shape[0]:
        raise NetError(
            f"lstm_step dimension mismatch: x {x.shape}, h {h_prev.shape}, "
            f"Wx {Wx.shape}, Wh {Wh.shape}"
        )
    return _cell(x @ Wx + h_prev @ Wh + b, c_prev)[0]


class LstmLayer:
    """Single-direction LSTM over a (T, B, D) batch with an optional input
    that is constant over time.

    The input projection of all T steps is one GEMM before the time loop,
    so each step multiplies only h @ Wh; backward collects the per-step
    pre-activation gradients and takes the weight and input gradients as
    single GEMMs after its loop.  Every column runs all T steps: a caller
    of right-padded sequences reads each column's state at its length
    (`final_steps`), and padding steps, which get no gradient, add none.
    """

    def __init__(self, store: ParameterStore, name: str, in_dim: int,
                 hidden: int, rng: np.random.Generator):
        self.name = name
        self.in_dim = in_dim
        self.hidden = hidden
        uniform = functools.partial(init_uniform, rng)
        store.new(f"{name}.Wx", (in_dim, 4 * hidden), uniform)
        store.new(f"{name}.Wh", (hidden, 4 * hidden), uniform)
        store.new(f"{name}.b", (4 * hidden,), self._forget_bias)
        self.store = store

    def _forget_bias(self, shape):
        b = np.zeros(shape)
        b[self.hidden:2 * self.hidden] = 1.0
        return b

    def _weights(self):
        s = self.store
        return s[f"{self.name}.Wx"], s[f"{self.name}.Wh"], s[f"{self.name}.b"]

    def forward(self, X: np.ndarray, const: np.ndarray | None = None):
        """Run the full sequence.

        const, if given, is a (B, Dc) input that every step sees after
        X[t]: it meets the last Dc rows of Wx once, as a per-column bias,
        instead of being copied into every step's input.
        Returns (H_out (T,B,H), cache).
        """
        Wx, Wh, b = self._weights()
        T, B, D = X.shape
        Dc = 0 if const is None else const.shape[1]
        if D + Dc != self.in_dim:
            raise NetError(f"{self.name}: input width {D} plus constant "
                           f"width {Dc} is not {self.in_dim}")
        H = self.hidden
        XW = (X.reshape(T * B, D) @ Wx[:D]).reshape(T, B, 4 * H)
        bias = b if const is None else const @ Wx[D:] + b
        # row t holds the state before step t, row t + 1 the state after
        Hs = np.zeros((T + 1, B, H))
        Cs = np.zeros((T + 1, B, H))
        gates = []
        for t in range(T):
            (Hs[t + 1], Cs[t + 1]), cell = _cell(XW[t] + Hs[t] @ Wh + bias,
                                                 Cs[t])
            gates.append(cell)
        return Hs[1:], (X, const, Hs, Cs, gates)

    def backward(self, dH: np.ndarray, cache, grads: dict[str, np.ndarray],
                 input_grad: bool = True):
        """Backprop through the sequence; dH is (T,B,H).

        Returns (dX, d_const): d_const is None without a constant input,
        and both are None when input_grad is False (for inputs that take
        no gradient, such as fixed embeddings).
        """
        Wx, Wh, b = self._weights()
        X, const, Hs, Cs, gates = cache
        T, B, D = X.shape
        H = self.hidden
        dA = np.empty((T, B, 4 * H))  # gradient of each step's pre-activation
        dh_next = np.zeros((B, H))
        dc_next = np.zeros((B, H))
        for t in range(T - 1, -1, -1):
            i, f, g, o, tc = gates[t]
            dh = dH[t] + dh_next
            do = dh * tc
            dc = dc_next + dh * o * (1.0 - tc * tc)
            da = dA[t]
            da[:, :H] = dc * g * i * (1.0 - i)
            da[:, H:2 * H] = dc * Cs[t] * f * (1.0 - f)
            da[:, 2 * H:3 * H] = dc * i * (1.0 - g * g)
            da[:, 3 * H:] = do * o * (1.0 - o)
            dh_next = da @ Wh.T
            dc_next = dc * f
        flat = dA.reshape(T * B, 4 * H)
        dWx = grads[f"{self.name}.Wx"]
        dWx[:D] += X.reshape(T * B, D).T @ flat
        grads[f"{self.name}.Wh"] += Hs[:-1].reshape(T * B, H).T @ flat
        grads[f"{self.name}.b"] += flat.sum(axis=0)
        if const is not None:
            dA_sum = dA.sum(axis=0)
            dWx[D:] += const.T @ dA_sum
        if not input_grad:
            return None, None
        dX = (flat @ Wx[:D].T).reshape(T, B, D)
        return dX, None if const is None else dA_sum @ Wx[D:].T


def pad_ids(seqs: list[list[int]], pad_id: int):
    """Id sequences as one (T, B) array padded with pad_id, and lengths."""
    lengths = np.array([len(s) for s in seqs])
    ids = np.full((lengths.max(), len(seqs)), pad_id, dtype=int)
    for j, s in enumerate(seqs):
        ids[:len(s), j] = s
    return ids, lengths


def length_mask(lengths: np.ndarray, T: int) -> np.ndarray:
    """(T, B) float mask, 1 at the steps within each column's length."""
    return (np.arange(T)[:, None] < lengths[None, :]).astype(float)


def final_steps(lengths: np.ndarray):
    """Index of each column's last step within its length: H[idx] is the
    (B, ...) final state of a right-padded (T, B, ...) H, and dH[idx] = d
    puts the final states' gradient back."""
    return lengths - 1, np.arange(len(lengths))


def reverse_padded(X: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Reverse each sequence within its own length, leaving padding in place."""
    t = np.arange(X.shape[0])[:, None]
    return X[np.where(t < lengths, lengths - 1 - t, t),
             np.arange(X.shape[1])]


class BiLstmEncoder:
    """One forward and one reversed LSTM; exposes concatenated final states."""

    def __init__(self, store: ParameterStore, name: str, in_dim: int,
                 hidden: int, rng: np.random.Generator):
        self.fwd = LstmLayer(store, f"{name}.fwd", in_dim, hidden, rng)
        self.bwd = LstmLayer(store, f"{name}.bwd", in_dim, hidden, rng)
        self.hidden = hidden
        self.out_dim = 2 * hidden

    def forward(self, X: np.ndarray, lengths: np.ndarray):
        """Final states of right-padded X (T, B, D), each column read at
        its length; returns ((B, 2H) encodings, cache)."""
        last = final_steps(lengths)
        Hf, cf = self.fwd.forward(X)
        Hb, cb = self.bwd.forward(reverse_padded(X, lengths))
        enc = np.concatenate([Hf[last], Hb[last]], axis=1)
        return enc, (cf, cb, lengths, X.shape[0])

    def backward(self, d_enc: np.ndarray, cache,
                 grads: dict[str, np.ndarray],
                 input_grad: bool = True) -> np.ndarray | None:
        """Gradient of X, or None when input_grad is False."""
        cf, cb, lengths, T = cache
        B = d_enc.shape[0]
        H = self.hidden
        last = final_steps(lengths)
        dHf = np.zeros((T, B, H))
        dHf[last] = d_enc[:, :H]
        dHb = np.zeros((T, B, H))
        dHb[last] = d_enc[:, H:]
        dX, _ = self.fwd.backward(dHf, cf, grads, input_grad)
        dXr, _ = self.bwd.backward(dHb, cb, grads, input_grad)
        if not input_grad:
            return None
        dX += reverse_padded(dXr, lengths)
        return dX


class Linear:
    def __init__(self, store: ParameterStore, name: str, in_dim: int,
                 out_dim: int, rng: np.random.Generator):
        self.name = name
        store.new(f"{name}.W", (in_dim, out_dim),
                  functools.partial(init_uniform, rng))
        store.new(f"{name}.b", (out_dim,), np.zeros)
        self.store = store

    def forward(self, X: np.ndarray):
        W, b = self.store[f"{self.name}.W"], self.store[f"{self.name}.b"]
        return X @ W + b, X

    def backward(self, dY: np.ndarray, X: np.ndarray,
                 grads: dict[str, np.ndarray]) -> np.ndarray:
        W = self.store[f"{self.name}.W"]
        flatX = X.reshape(-1, X.shape[-1])
        flatdY = dY.reshape(-1, dY.shape[-1])
        grads[f"{self.name}.W"] += flatX.T @ flatdY
        grads[f"{self.name}.b"] += flatdY.sum(axis=0)
        return dY @ W.T


# ---------------------------------------------------------------------------
# Dropout (inverted: scaled at train time, identity at inference)
# ---------------------------------------------------------------------------

def dropout_forward(X: np.ndarray, rate: float, rng: np.random.Generator,
                    train: bool):
    if not train or rate == 0.0:
        return X, None
    keep = 1.0 - rate
    mask = (rng.random(X.shape) < keep) / keep
    return X * mask, mask


def dropout_backward(dY: np.ndarray, mask) -> np.ndarray:
    return dY if mask is None else dY * mask


# ---------------------------------------------------------------------------
# Softmax / cross-entropy
# ---------------------------------------------------------------------------

def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_masked(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax with masked entries forced to exactly zero probability."""
    mask = np.asarray(mask)
    if not np.any(mask):
        raise NetError("softmax_masked: mask excludes every entry")
    neg = np.where(mask > 0, 0.0, -np.inf)
    with np.errstate(invalid="ignore"):
        z = logits + neg
    z = z - z.max(axis=-1, keepdims=True)
    e = np.where(mask > 0, np.exp(z), 0.0)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(probs: np.ndarray, target_id: int) -> float:
    """Negative log likelihood of one target under a distribution."""
    p = probs[target_id]
    if p <= 0.0:
        log.warning("cross_entropy: zero probability for target %d, "
                    "clamping", target_id)
        p = CE_EPS
    return float(-np.log(p))


def softmax_xent_batch(logits: np.ndarray, targets: np.ndarray,
                       weights: np.ndarray):
    """Weighted cross-entropy over (N, V) logits.

    Returns (total loss, dlogits, total weight).  Weight 0 positions
    (padding) contribute nothing.
    """
    probs = softmax(logits)
    rows = np.arange(logits.shape[0])
    p_t = np.clip(probs[rows, targets], CE_EPS, None)
    loss = float(-(weights * np.log(p_t)).sum())
    dlogits = probs  # built in place: the probabilities are not kept
    dlogits *= weights[:, None]
    dlogits[rows, targets] -= weights
    return loss, dlogits, float(weights.sum())


# ---------------------------------------------------------------------------
# Optimization
# ---------------------------------------------------------------------------

def clip_global_norm(grads: dict[str, np.ndarray],
                     max_norm: float = GRAD_CLIP_NORM) -> float:
    total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


def adam_update(store: ParameterStore, grads: dict[str, np.ndarray],
                lr: float, beta1: float = 0.9, beta2: float = 0.999,
                eps: float = 1e-8) -> None:
    """Adam with bias correction.  Raises before mutating on bad gradients."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NetError(f"non-finite gradient for {name!r}")
    store.init_moments()
    store.step += 1
    t = store.step
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, g in grads.items():
        m = store.m[name]
        v = store.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        store.params[name] -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


@dataclass
class EarlyStopper:
    """Stop after `patience` epochs without improvement; lower is better."""

    patience: int
    best_metric: float = np.inf
    epochs_since_best: int = 0
    best_params: dict = field(default_factory=dict, repr=False)

    def update(self, metric: float, store: ParameterStore) -> bool:
        if metric < self.best_metric:
            self.best_metric = metric
            self.epochs_since_best = 0
            self.best_params = store.copy_params()
            return True
        self.epochs_since_best += 1
        return False

    @property
    def should_stop(self) -> bool:
        return self.epochs_since_best > self.patience

    def restore_best(self, store: ParameterStore) -> None:
        if self.best_params:
            store.load_params(self.best_params)


def fit(store: ParameterStore, run_epoch, evaluate, patience: int,
        max_epochs: int, tag: str) -> list[dict]:
    """Early-stopped training; returns the per-epoch history.

    evaluate() -> (dev loss to minimise, that epoch's dev history fields);
    run_epoch() trains one epoch and returns its training history fields,
    which override same-named dev fields.  Epoch 0 is the dev pass before
    any training.  The best parameters seen are restored at the end.
    Arrays without Adam moments get zero ones before the first pass;
    moments from an earlier call carry on.  Each epoch's wall-clock time
    goes to its log line only, so artifacts written from the history stay
    byte-identical across reruns with the same seed.
    """
    store.init_moments()
    stopper = EarlyStopper(patience=patience)
    loss, dev = evaluate()
    history = [{"epoch": 0, **dev}]
    stopper.update(loss, store)
    for epoch in range(1, max_epochs + 1):
        t0 = time.perf_counter()
        train = run_epoch()
        loss, dev = evaluate()
        improved = stopper.update(loss, store)
        entry = {"epoch": epoch, **dev, **train}
        log.info("[%s] epoch %d %s (%.2fs)%s", tag, epoch,
                 " ".join(f"{k}={v:.4f}" for k, v in entry.items()
                          if k != "epoch"),
                 time.perf_counter() - t0, " *" if improved else "")
        history.append(entry)
        if stopper.should_stop:
            break
    stopper.restore_best(store)
    return history


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

def grad_check(loss_fn, store: ParameterStore,
               analytic: dict[str, np.ndarray], h: float = 1e-4,
               max_entries_per_param: int = 64,
               rng: np.random.Generator | None = None,
               param_names=None) -> dict:
    """Central finite differences against analytic gradients.

    loss_fn() re-evaluates the loss at the store's current parameters.
    Returns a report with per-parameter and overall max relative error.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    report = {"per_param": {}, "max_rel_error": 0.0}
    for name, p in store.params.items():
        if param_names is not None and name not in param_names:
            continue
        flat = p.reshape(-1)
        g_flat = analytic[name].reshape(-1)
        n = flat.size
        idx = (np.arange(n) if n <= max_entries_per_param
               else rng.choice(n, size=max_entries_per_param, replace=False))
        worst = 0.0
        for j in idx:
            orig = flat[j]
            flat[j] = orig + h
            lp = loss_fn()
            flat[j] = orig - h
            lm = loss_fn()
            flat[j] = orig
            num = (lp - lm) / (2.0 * h)
            # absolute floor keeps FD roundoff on near-zero gradients from
            # registering as relative error
            denom = max(1e-6, abs(num) + abs(g_flat[j]))
            worst = max(worst, abs(num - g_flat[j]) / denom)
        report["per_param"][name] = worst
        report["max_rel_error"] = max(report["max_rel_error"], worst)
    return report


# ---------------------------------------------------------------------------
# Checkpoint container (deterministic bytes: json header + raw arrays)
# ---------------------------------------------------------------------------

_MAGIC = b"ACPK2\n"


def save_checkpoint(path, params: Mapping[str, np.ndarray],
                    meta: dict) -> None:
    """Write `meta` and the named arrays, sorted by name; nothing else.

    The bytes go to a temporary file beside `path`, which then replaces
    `path` in one rename, so a save that fails leaves any earlier file at
    `path` as it was.
    """
    names = sorted(params)
    entries = [{"name": name, "shape": list(np.shape(params[name]))}
               for name in names]
    header = json.dumps({"meta": meta, "entries": entries},
                        sort_keys=True).encode()
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(len(header).to_bytes(8, "little"))
            fh.write(header)
            for name in names:
                fh.write(np.ascontiguousarray(params[name],
                                              dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _is_count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _header_ok(header) -> bool:
    """Whether a parsed header has the structure save_checkpoint writes:
    a meta object and entries of distinct names with valid shapes."""
    if not (isinstance(header, dict) and isinstance(header.get("meta"), dict)
            and isinstance(header.get("entries"), list)):
        return False
    entries = header["entries"]
    return (all(isinstance(e, dict) and isinstance(e.get("name"), str)
                and isinstance(e.get("shape"), list)
                and all(map(_is_count, e["shape"])) for e in entries)
            and len({e["name"] for e in entries}) == len(entries))


def _json_is(value, want) -> bool:
    """Whether a parsed JSON value has type `want`: an int passes for a
    float, a bool never for an int, an int must not be negative (every int
    field is a size, a count or a seed), and list[str] checks every item."""
    if want is float:
        return type(value) in (int, float)
    if want is int:
        return _is_count(value)
    if getattr(want, "__origin__", None) is list:
        return type(value) is list and all(
            _json_is(item, want.__args__[0]) for item in value)
    return type(value) is want


def field_problem(values: dict, cls) -> str | None:
    """Why `values` cannot be the keyword arguments of dataclass cls: a
    key that is not a field, or a value of another type than the field's
    default; None when they can."""
    types = {f.name: type(f.default) for f in fields(cls)}
    unknown = sorted(set(values) - set(types))
    if unknown:
        return f"unknown key {unknown[0]!r}"
    for key, value in sorted(values.items()):
        if not _json_is(value, types[key]):
            want = ("a non-negative int" if types[key] is int
                    else types[key].__name__)
            return f"key {key!r} must be {want}, got {json.dumps(value)}"
    return None


def meta_problem(meta: dict, kind: str, config_cls, **required) -> str | None:
    """What is wrong with the meta of a checkpoint of `kind`: another kind,
    a required key (`config`, a dict of config_cls fields, plus each
    keyword's key) missing or of the wrong type; None when it is sound."""
    if meta.get("kind") != kind:
        return f"not a {kind} checkpoint"
    for key, want in {"config": dict, **required}.items():
        if not _json_is(meta.get(key), want):
            return f"checkpoint meta {key!r} is missing or of the wrong type"
    problem = field_problem(meta["config"], config_cls)
    return problem and f"checkpoint meta 'config': {problem}"


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """The arrays of a checkpoint by name, each read from the file into
    an array of its own, and its meta.  Raises NetError on a file that is
    not exactly what save_checkpoint writes."""
    with open(path, "rb") as fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise NetError(f"{path}: not a checkpoint file")
        size = os.fstat(fh.fileno()).st_size
        hlen = int.from_bytes(fh.read(8), "little")
        if len(_MAGIC) + 8 + hlen > size:
            raise NetError(f"{path}: truncated checkpoint: header of "
                           f"{hlen} bytes runs past the end of the file")
        try:
            header = json.loads(fh.read(hlen))
        except ValueError as exc:
            raise NetError(f"{path}: corrupt checkpoint header ({exc})")
        if not _header_ok(header):
            raise NetError(f"{path}: corrupt checkpoint header (not the "
                           f"structure of a checkpoint)")
        params = {}
        for entry in header["entries"]:
            shape = tuple(entry["shape"])
            count = math.prod(shape)  # exact: dims may be huge if corrupt
            left = size - fh.tell()
            if count * 8 > left:
                raise NetError(
                    f"{path}: truncated checkpoint: {entry['name']} needs "
                    f"{count * 8} bytes, {left} left")
            arr = np.empty(shape, dtype="<f8")
            fh.readinto(arr.reshape(-1).view(np.uint8))
            params[entry["name"]] = arr
        left = size - fh.tell()
        if left:
            raise NetError(f"{path}: corrupt checkpoint: {left} bytes after "
                           f"the last array")
    return params, header["meta"]
