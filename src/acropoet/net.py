"""Trainable sequence-model substrate in plain numpy.

Everything here is float64 with hand-written backward passes: LSTM cells
and stacks (uni/bidirectional), linear + softmax output, cross-entropy,
Adam with bias correction, the early-stopped training loop, and a
central-finite-difference gradient checker used to validate the backprop
code.  Large products and softmaxes run as row blocks on a small thread
pool when numpy's BLAS runs one thread (`matmul`, `softmax`).
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import json
import logging
import math
import os
import threading
import time
from collections.abc import Mapping
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass, field, fields
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

def _key_int(key: str) -> int:
    digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def child_rng(root_seed: int, *keys: str) -> np.random.Generator:
    """Derive an independent generator from a root seed and a path of
    string keys."""
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

    def reset_moments(self) -> None:
        """Drop the Adam moments and the step: fresh optimizer state."""
        self.m.clear()
        self.v.clear()
        self.step = 0

    def zero_grads(self) -> dict[str, np.ndarray]:
        """One zero gradient per trainable array; fixed arrays get none."""
        return {k: np.zeros_like(p) for k, p in self.params.items()
                if k not in self.fixed}


def _mismatch(problems: list[str]) -> str:
    return "arrays do not match the model: " + "; ".join(problems)


def init_uniform(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape)


# ---------------------------------------------------------------------------
# Row blocks: large row-wise work split over the CPUs, one block each
# ---------------------------------------------------------------------------

ROW_BLOCK_MACS = 1 << 21     # a product gets one block per this many MACs
BLOCK_COLUMNS = 8            # products split only when N is a multiple
SOFTMAX_BLOCK_MIN = 1 << 20  # entries of the smallest softmax split up
ADAM_CHUNK = 1 << 16         # elements Adam updates at a time, in L2

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


@functools.cache
def blas_threads() -> int | None:
    """The thread count numpy's BLAS reports, read once; None when it
    reports none (a BLAS other than OpenBLAS)."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath
    try:
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return None
    for name in ("scipy_openblas_get_num_threads64_",
                 "openblas_get_num_threads"):
        get = getattr(lib, name, None)
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            return get()
    return None


@functools.cache
def max_row_blocks() -> int:
    """How many row blocks large work may use: one per CPU this process
    may run on when numpy's BLAS runs one thread, else 1, since a BLAS
    with threads of its own already uses the other CPUs."""
    if blas_threads() != 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _forget_pool() -> None:
    global _pool
    _pool = None  # a forked child has none of its parent's threads


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _worker_pool() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max(1, max_row_blocks() - 1),
                                       thread_name_prefix="acropoet-rows")
        return _pool


def run_row_blocks(fn, rows: int, blocks: int) -> None:
    """Call fn(lo, hi) once per block of `blocks` contiguous, near-equal
    row ranges that cover range(rows).

    The pool's threads take all blocks but the last, which the caller's
    thread computes.  Returns once every block has finished; an exception
    from any block is raised then, and not before.  Each block must write
    only its own rows, so the blocks need no lock.
    """
    if blocks <= 1:
        fn(0, rows)
        return
    bounds = [rows * k // blocks for k in range(blocks + 1)]
    pool = _worker_pool()
    futures = [pool.submit(fn, bounds[k], bounds[k + 1])
               for k in range(blocks - 1)]
    try:
        fn(bounds[-2], bounds[-1])
    finally:
        wait(futures)
    for future in futures:
        future.result()


def product_blocks(M: int, K: int, N: int) -> int:
    """How many row blocks a product of an (M, K) by a (K, N) matrix runs
    as: one per ROW_BLOCK_MACS multiply-adds, capped by max_row_blocks()
    and by two rows a block, and 1 unless N is a multiple of
    BLOCK_COLUMNS.  Such blocks give the bits of the whole product (see
    `matmul`)."""
    macs = M * K * N
    if N % BLOCK_COLUMNS or macs < 2 * ROW_BLOCK_MACS:
        return 1  # small products skip the rest
    return max(1, min(max_row_blocks(), M // 2, macs // ROW_BLOCK_MACS))


def matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B; a large product of 2-D A and B runs as row blocks of A.

    Each block multiplies its rows of A by all of B into its rows of one
    output, so the bits equal A @ B's at every block count: OpenBLAS on
    one thread computes each row of a product from that row of A alone
    when B's column count is a multiple of BLOCK_COLUMNS and every block
    has two rows or more (a one-row block takes numpy's GEMV path).
    `product_blocks` sets the count.  Other products run whole, as do
    stacked ones, whose bits are not those of one 2-D product.  Column
    blocks are never used: their bits changed at unaligned splits.  The
    LSTM time loops do not come here per step: `LstmLayer` splits each
    whole loop by the same rule.
    """
    if A.ndim != 2 or B.ndim != 2:
        return A @ B
    (M, K), N = A.shape, B.shape[1]
    blocks = product_blocks(M, K, N)
    if blocks <= 1:
        return A @ B
    out = np.empty((M, N), dtype=np.result_type(A, B))

    def block(lo, hi):
        np.matmul(A[lo:hi], B, out=out[lo:hi])
    run_row_blocks(block, M, blocks)
    return out


# ---------------------------------------------------------------------------
# LSTM cell
# ---------------------------------------------------------------------------

def _cell(a, c_prev, h, c, tanh_c):
    """LSTM cell on the pre-activation a = x @ Wx + h_prev @ Wh + b, gates
    in order input, forget, cell, output, computed in place: a's four
    quarters become i, f, g and o, kept with tanh(c) for backprop; h and
    c get the new state.

    Each sigmoid runs -x, exp, + 1 and 1 / in a's buffer, the operations
    of 1 / (1 + exp(-x)), so the bits are those of that expression.  a is
    (..., 4H) and c_prev, h, c and tanh_c (..., H); the outputs must not
    overlap the inputs.
    """
    H = c_prev.shape[-1]
    g = a[..., 2 * H:3 * H]
    np.tanh(g, out=g)
    for gates in (a[..., :2 * H], a[..., 3 * H:]):  # i and f, then o
        np.negative(gates, out=gates)
        np.exp(gates, out=gates)
        gates += 1.0
        np.divide(1.0, gates, out=gates)
    np.multiply(a[..., H:2 * H], c_prev, out=c)
    c += np.multiply(a[..., :H], g, out=h)  # h holds i * g until the end
    np.tanh(c, out=tanh_c)
    np.multiply(a[..., 3 * H:], tanh_c, out=h)


def lstm_step(x, h_prev, c_prev, Wx, Wh, b):
    """One LSTM recurrence step; returns (h, c)."""
    if x.shape[-1] != Wx.shape[0] or h_prev.shape[-1] != Wh.shape[0]:
        raise NetError(
            f"lstm_step dimension mismatch: x {x.shape}, h {h_prev.shape}, "
            f"Wx {Wx.shape}, Wh {Wh.shape}"
        )
    h, c, tanh_c = np.empty((3,) + c_prev.shape)
    _cell(x @ Wx + h_prev @ Wh + b, c_prev, h, c, tanh_c)
    return h, c


class LstmLayer:
    """Single-direction LSTM over a (T, B, D) batch with an optional input
    that is constant over time.

    The input projection of all T steps is one GEMM before the time loop,
    and backward takes the weight and input gradients as single GEMMs
    after its loop.  The loops themselves run as row blocks over the
    batch columns, which never interact in the recurrence: each block
    runs every step for its own columns, h @ Wh and the cell forward,
    the gate gradients and da @ Wh.T backward, so one pool dispatch
    carries a whole loop.  The block count is `product_blocks`' for the
    step product, so the bits are those of the whole batch's loop.
    Every column runs all T steps: a caller of right-padded sequences
    reads each column's state at its length (`final_steps`), and padding
    steps, which get no gradient, add none.
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

    def step_weights(self, const: np.ndarray | None = None):
        """(Wx, Wh, b) for `lstm_step` on inputs that end with `const`.

        const, if given, is a (Dc,) or (B, Dc) input that every step sees
        after its own: it meets the last Dc rows of Wx once, as a bias
        b + const @ Wx[D:], and the returned Wx is the first D rows only,
        for the per-step input.
        """
        Wx, Wh, b = self._weights()
        if const is None:
            return Wx, Wh, b
        D = self.in_dim - const.shape[-1]
        return Wx[:D], Wh, b + const @ Wx[D:]

    def forward(self, X: np.ndarray, const: np.ndarray | None = None,
                state: tuple[np.ndarray, np.ndarray] | None = None):
        """Run the full sequence.

        const, if given, is a (B, Dc) input that every step sees after
        X[t], projected once by `step_weights` instead of being copied
        into every step's input.  state, if given, is the (h, c) to start
        from, each (B, H); zeros otherwise.  Returns (H_out (T,B,H),
        cache).
        """
        T, B, D = X.shape
        Dc = 0 if const is None else const.shape[1]
        if D + Dc != self.in_dim:
            raise NetError(f"{self.name}: input width {D} plus constant "
                           f"width {Dc} is not {self.in_dim}")
        Wx, Wh, bias = self.step_weights(const)
        H = self.hidden
        # each step's input projection; the loop adds h @ Wh and the bias,
        # and _cell makes the sum i, f, g, o, kept for backward
        acts = matmul(X.reshape(T * B, D), Wx).reshape(T, B, 4 * H)
        tanh_c = np.empty((T, B, H))
        # row t holds the state before step t, row t + 1 the state after
        Hs = np.zeros((T + 1, B, H))
        Cs = np.zeros((T + 1, B, H))
        if state is not None:
            Hs[0], Cs[0] = state

        def columns(lo, hi):
            b = bias if bias.ndim == 1 else bias[lo:hi]
            product = np.empty((hi - lo, 4 * H))
            for t in range(T):
                a = acts[t, lo:hi]
                np.matmul(Hs[t, lo:hi], Wh, out=product)
                np.add(a, product, out=a)
                a += b
                _cell(a, Cs[t, lo:hi], Hs[t + 1, lo:hi], Cs[t + 1, lo:hi],
                      tanh_c[t, lo:hi])
        run_row_blocks(columns, B, product_blocks(B, H, 4 * H))
        return Hs[1:], (X, const, Hs, Cs, (acts, tanh_c))

    def backward(self, dH: np.ndarray, cache, grads: dict[str, np.ndarray],
                 input_grad: bool = True):
        """Backprop through the sequence; dH is (T,B,H).

        Returns (dX, d_const): d_const is None without a constant input,
        and both are None when input_grad is False (for inputs that take
        no gradient, such as fixed embeddings).
        """
        Wx, Wh, b = self._weights()
        X, const, Hs, Cs, (acts, tanh_c) = cache
        T, B, D = X.shape
        H = self.hidden
        dA = np.empty((T, B, 4 * H))  # gradient of each step's pre-activation

        def columns(lo, hi):
            dh_next = np.zeros((hi - lo, H))
            dc_next = np.zeros((hi - lo, H))
            # the step's i, f, g and o as contiguous rows, which the
            # expressions below read faster than acts' strided quarters
            gates = np.empty((4, hi - lo, H))
            i, f, g, o = gates
            for t in range(T - 1, -1, -1):
                gates[...] = acts[t, lo:hi].reshape(-1, 4, H).swapaxes(0, 1)
                tc = tanh_c[t, lo:hi]
                dh = dH[t, lo:hi] + dh_next
                do = dh * tc
                dc = dc_next + dh * o * (1.0 - tc * tc)
                da = dA[t, lo:hi]
                da[:, :H] = dc * g * i * (1.0 - i)
                da[:, H:2 * H] = dc * Cs[t, lo:hi] * f * (1.0 - f)
                da[:, 2 * H:3 * H] = dc * i * (1.0 - g * g)
                da[:, 3 * H:] = do * o * (1.0 - o)
                np.matmul(da, Wh.T, out=dh_next)
                dc_next = dc * f
        run_row_blocks(columns, B, product_blocks(B, 4 * H, H))
        flat = dA.reshape(T * B, 4 * H)
        dWx = grads[f"{self.name}.Wx"]
        dWx[:D] += matmul(X.reshape(T * B, D).T, flat)
        grads[f"{self.name}.Wh"] += matmul(Hs[:-1].reshape(T * B, H).T, flat)
        grads[f"{self.name}.b"] += flat.sum(axis=0)
        if const is not None:
            dA_sum = dA.sum(axis=0)
            dWx[D:] += const.T @ dA_sum
        if not input_grad:
            return None, None
        dX = matmul(flat, Wx[:D].T).reshape(T, B, D)
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
        Y = matmul(X, W)
        Y += b
        return Y, X

    def backward(self, dY: np.ndarray, X: np.ndarray,
                 grads: dict[str, np.ndarray]) -> np.ndarray:
        W = self.store[f"{self.name}.W"]
        flatX = X.reshape(-1, X.shape[-1])
        flatdY = dY.reshape(-1, dY.shape[-1])
        grads[f"{self.name}.W"] += matmul(flatX.T, flatdY)
        grads[f"{self.name}.b"] += flatdY.sum(axis=0)
        return matmul(dY, W.T)


# ---------------------------------------------------------------------------
# Dropout (inverted: scaled at train time, identity at inference)
# ---------------------------------------------------------------------------

def dropout_forward(X: np.ndarray, rate: float,
                    rng: np.random.Generator | None):
    """Masks drawn from rng; without an rng (inference) X passes as is."""
    if rng is None or rate == 0.0:
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
    """Softmax over the last axis, in one new buffer; logits are kept.

    2-D logits of SOFTMAX_BLOCK_MIN entries or more run as row blocks;
    rows are independent, so the bits are the same.
    """
    blocks = 1
    if logits.ndim == 2 and logits.size >= SOFTMAX_BLOCK_MIN:
        blocks = min(max_row_blocks(), len(logits))
    out = np.empty_like(logits)
    run_row_blocks(lambda lo, hi: _softmax_rows(logits[lo:hi], out[lo:hi]),
                   len(logits), blocks)
    return out


def _softmax_rows(logits: np.ndarray, out: np.ndarray) -> None:
    np.subtract(logits, logits.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)


def softmax_xent_batch(logits: np.ndarray, targets: np.ndarray,
                       weights: np.ndarray):
    """Weighted cross-entropy over (N, V) logits.

    Returns (total loss, probs, total weight): probs is the softmax of the
    logits, in a buffer of its own that `xent_grad` turns into the mean
    loss's gradient for a caller that trains.  Weight 0 positions (padding)
    contribute nothing.
    """
    probs = softmax(logits)
    p_t = np.clip(probs[np.arange(len(probs)), targets], CE_EPS, None)
    loss = float(-(weights * np.log(p_t)).sum())
    return loss, probs, float(weights.sum())


def xent_grad(probs: np.ndarray, targets: np.ndarray,
              weights: np.ndarray, total: float) -> np.ndarray:
    """The gradient of a mean loss (a total loss over max(total, 1)) with
    respect to the logits of softmax_xent_batch's probs, built in place
    of them, which are returned.  total is the whole batch's weight, of
    which these rows may be a part.  probs may be reshaped first, to any
    shape whose last axis is V."""
    flat = probs.reshape(-1, probs.shape[-1])  # a view: probs is C order
    flat *= weights[:, None]
    flat[np.arange(len(flat)), targets] -= weights
    probs /= max(total, 1.0)
    return probs


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
    """Adam with bias correction.  Raises before mutating on bad gradients.

    Each array is updated in row blocks of its first axis, one per
    ADAM_CHUNK elements up to max_row_blocks(); a block works through its
    rows ADAM_CHUNK elements at a time, in two scratch arrays that size.
    Every operation is elementwise, so the bits do not depend on either.
    """
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NetError(f"non-finite gradient for {name!r}")
    store.init_moments()
    store.step += 1
    t = store.step
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, g in grads.items():
        p, m, v = store.params[name], store.m[name], store.v[name]
        rows = len(p)
        step = max(1, ADAM_CHUNK * rows // max(p.size, 1))  # rows a chunk

        def block(lo, hi):
            s = np.empty((min(step, hi - lo),) + p.shape[1:])
            u = np.empty_like(s)
            for r in range(lo, hi, step):
                e = min(r + step, hi)
                _adam_chunk(p[r:e], m[r:e], v[r:e], g[r:e], s[:e - r],
                            u[:e - r], lr, beta1, beta2, eps, bc1, bc2)
        chunks = -(-p.size // ADAM_CHUNK)
        run_row_blocks(block, rows, min(max_row_blocks(), rows, chunks))


def _adam_chunk(p, m, v, g, s, u, lr, beta1, beta2, eps, bc1, bc2):
    """Adam on one chunk in scratch arrays s and u: the operations and
    their order of p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), so the
    bits match."""
    m *= beta1
    m += np.multiply(1.0 - beta1, g, out=s)
    v *= beta2
    np.multiply(1.0 - beta2, g, out=u)
    v += np.multiply(u, g, out=u)
    np.divide(m, bc1, out=s)
    s *= lr
    np.divide(v, bc2, out=u)
    np.sqrt(u, out=u)
    u += eps
    s /= u
    p -= s


@dataclass
class EarlyStopper:
    """Stop after `patience` epochs without improvement; lower is better.

    The best parameters are kept as copies of the trainable arrays only:
    training never changes the store's fixed ones.
    """

    patience: int
    best_metric: float = np.inf
    epochs_since_best: int = 0
    best_params: dict = field(default_factory=dict, repr=False)

    def update(self, metric: float, store: ParameterStore) -> bool:
        if metric < self.best_metric:
            self.best_metric = metric
            self.epochs_since_best = 0
            self.best_params = {k: p.copy() for k, p in store.params.items()
                                if k not in store.fixed}
            return True
        self.epochs_since_best += 1
        return False

    @property
    def should_stop(self) -> bool:
        return self.epochs_since_best > self.patience

    def restore_best(self, store: ParameterStore) -> None:
        for name, p in self.best_params.items():
            store.params[name][...] = p


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
               rng: np.random.Generator | None = None) -> dict:
    """Central finite differences against analytic gradients.

    loss_fn() re-evaluates the loss at the store's current parameters.
    Checks every array with an analytic gradient.  Returns a report with
    per-parameter and overall max relative error.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    report = {"per_param": {}, "max_rel_error": 0.0}
    for name, p in store.params.items():
        if name not in analytic:
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


def config_problem(cfg, sizes) -> str | None:
    """What is out of range in a model config: a field named in `sizes`
    below 1, or an `lr` that is not a finite number above 0; None when
    nothing is."""
    for name in sizes:
        if getattr(cfg, name) < 1:
            return f"{name} must be at least 1"
    if not 0 < cfg.lr < math.inf:  # also false for NaN
        return "lr must be a finite number above 0"
    return None


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
        except (ValueError, RecursionError) as exc:
            # RecursionError: a header nested too deep
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
            try:
                arr = np.empty(shape, dtype="<f8")
            except ValueError as exc:  # a shape numpy cannot make
                raise NetError(f"{path}: corrupt checkpoint: {entry['name']} "
                               f"has shape {list(shape)} ({exc})") from None
            fh.readinto(arr.reshape(-1).view(np.uint8))
            params[entry["name"]] = arr
        left = size - fh.tell()
        if left:
            raise NetError(f"{path}: corrupt checkpoint: {left} bytes after "
                           f"the last array")
    return params, header["meta"]


def save_model(path, kind: str, model, **meta) -> None:
    """Save `model`'s parameters (`model.store`) as a checkpoint whose
    meta is its `kind`, its config (`model.cfg`, a dataclass) and the
    keyword arguments."""
    save_checkpoint(path, model.store,
                    {"kind": kind, "config": asdict(model.cfg), **meta})


def meta_value(meta: dict, key: str, parse):
    """parse(meta[key]); a ValueError it raises is raised again as its
    own type, naming the key."""
    try:
        return parse(meta[key])
    except ValueError as exc:
        raise type(exc)(f"checkpoint meta {key!r}: {exc}") from None


def _config(config_cls, values: dict):
    problem = field_problem(values, config_cls)
    if problem:
        raise NetError(problem)
    return config_cls(**values)


def load_model(path, kind: str, config_cls, build, **required):
    """The model that save_model wrote to `path` for `kind`, and the
    checkpoint's meta.

    The meta must hold a `config` of config_cls fields and each keyword's
    key, with a value of the keyword's type.  build(cfg, meta, arrays)
    makes the model with the arrays as its store's source, parsing what
    its own meta adds with `meta_value`; the model must then have asked
    for every array.  An error raised on the way (the library's errors
    are ValueErrors) is raised again as its own type, naming `path`.
    """
    arrays, meta = load_checkpoint(path)
    try:
        if meta.get("kind") != kind:
            raise NetError(f"not a {kind} checkpoint")
        for key, want in {"config": dict, **required}.items():
            if not _json_is(meta.get(key), want):
                raise NetError(f"checkpoint meta {key!r} is missing or of "
                               f"the wrong type")
        cfg = meta_value(meta, "config",
                         lambda values: _config(config_cls, values))
        model = build(cfg, meta, arrays)
        model.store.check_source()
    except ValueError as exc:
        raise type(exc)(f"{path}: {exc}") from None
    return model, meta
