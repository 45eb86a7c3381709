"""Conditional poem language model.

A multi-layer unidirectional LSTM over tokens, conditioned at every step on
a topic embedding, the flattened 8x27 acrostic letter block, and the target
line count.  Word embeddings are pretrained and stay fixed; training covers
the recurrent stack and the output projection.

Training regimes: finetune on gold-topic poems only, on gold+silver poems,
or pretrain on plain text first (conditioning channels zeroed) and then
finetune.  Topic conditioning can be disabled, in which case the topic
channel is a zero vector throughout.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import net
from .corpus import (
    N_LETTER_COLS, N_LETTER_ROWS, Poem, Vocabulary, acrostic_block,
    build_vocabulary, poem_initials, tokenize,
)
from .embed import EmbeddingTable
from .net import (
    Linear, LstmLayer, ParameterStore, adam_update, clip_global_norm,
    dropout_backward, dropout_forward, length_mask, pad_ids, softmax,
    softmax_xent_batch, xent_grad,
)

log = logging.getLogger(__name__)

ACROSTIC_DIM = N_LETTER_ROWS * N_LETTER_COLS  # 216
EMB_NAME = "embed.fixed"
HEAD_ROWS = 256  # target positions the training head takes at a time


class PoemLmError(ValueError):
    pass


@dataclass
class LmConfig:
    n_layers: int = 3
    hidden: int = 1024
    dropout: float = 0.4
    lr: float = 0.0005
    batch_size: int = 128
    patience: int = 25
    max_epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        problem = net.config_problem(self, ("n_layers", "hidden",
                                            "batch_size"))
        if problem:
            raise PoemLmError(problem)
        if not 0 <= self.dropout < 1:
            raise PoemLmError("dropout must be at least 0 and below 1")

    @classmethod
    def desk_scale(cls, **overrides) -> "LmConfig":
        base = dict(n_layers=2, hidden=64, dropout=0.1, batch_size=16,
                    patience=5, max_epochs=30)
        base.update(overrides)
        return cls(**base)


@dataclass(frozen=True)
class LmVariant:
    """One of the six training regimes GOLD+/-, PRED/GOLD+/-, WIKI+/-."""

    name: str             # a key of NAMES
    silver: bool          # finetunes on gold plus silver-labeled poems
    pretrain: bool        # pretrains on plain text first
    topic_channel: bool

    NAMES = {
        "gold+": (False, False, True),
        "gold-": (False, False, False),
        "pred/gold+": (True, False, True),
        "pred/gold-": (True, False, False),
        "wiki+": (True, True, True),
        "wiki-": (True, True, False),
    }

    @classmethod
    def from_name(cls, name: str) -> "LmVariant":
        key = name.lower()
        if key not in cls.NAMES:
            raise PoemLmError(
                f"unknown variant {name!r}; expected one of "
                f"{sorted(cls.NAMES)}")
        return cls(key, *cls.NAMES[key])


def _fallback_vector(token: str, dim: int) -> np.ndarray:
    """Deterministic fixed vector for tokens without a pretrained embedding."""
    digest = hashlib.blake2b(token.encode(), digest_size=8).digest()
    rng = np.random.Generator(np.random.PCG64(
        int.from_bytes(digest, "little")))
    return rng.uniform(-net.INIT_SCALE, net.INIT_SCALE, size=dim)


def build_embedding_matrix(vocab: Vocabulary,
                           table: EmbeddingTable) -> np.ndarray:
    """Row i is token i's table vector, or its `_fallback_vector` when the
    table has none; <pad>'s row is zero."""
    mat = np.zeros((len(vocab), table.dim))
    rows = {i: table.row(tok) for i, tok in enumerate(vocab.id_to_token)
            if i != vocab.pad_id}
    found = [i for i, row in rows.items() if row is not None]
    mat[found] = table.matrix[[rows[i] for i in found]]
    for i, row in rows.items():
        if row is None:
            mat[i] = _fallback_vector(vocab.id_to_token[i], table.dim)
    return mat


def target_positions(batch):
    """The flat positions t * B + b of a padded batch's targets (weight
    above 0), and the targets and weights there."""
    _, targets, weights, _ = batch
    positions = np.flatnonzero(weights > 0)
    return (positions, targets.reshape(-1)[positions],
            weights.reshape(-1)[positions])


def head_chunks(rows: int) -> list[tuple[int, int]]:
    """The (lo, hi) bounds of consecutive chunks of HEAD_ROWS rows, the
    last one shorter, that cover range(rows).  They depend on rows alone,
    never on the CPU count."""
    return [(lo, min(lo + HEAD_ROWS, rows))
            for lo in range(0, rows, HEAD_ROWS)]


class StepCondition(NamedTuple):
    """Every layer's `LstmLayer.step_weights` under one condition vector,
    made once for the steps of one poem by `PoemLM.project_condition`."""

    layers: tuple


class PoemLM:
    """LSTM language model with per-step conditioning channels.

    `params`, if given, are the arrays to build from (a checkpoint's); the
    initial values, emb_matrix's included, are then never used.
    """

    def __init__(self, vocab: Vocabulary, cfg: LmConfig, topic_dim: int,
                 emb_matrix: np.ndarray, variant: LmVariant,
                 params: Optional[dict[str, np.ndarray]] = None):
        if emb_matrix.shape != (len(vocab), topic_dim):
            raise PoemLmError("embedding matrix shape mismatch")
        self.vocab = vocab
        self.cfg = cfg
        self.variant = variant
        self.topic_dim = topic_dim
        self.embed_dim = emb_matrix.shape[1]
        self.in_dim = self.embed_dim + topic_dim + ACROSTIC_DIM + 1
        self.store = ParameterStore(params)
        rng = net.child_rng(cfg.seed, "poemlm", "init")
        self.emb = self.store.new(EMB_NAME, emb_matrix.shape,
                                  lambda _: emb_matrix)
        self.store.fixed.add(EMB_NAME)
        self.layers = []
        for l in range(cfg.n_layers):
            in_dim = self.in_dim if l == 0 else cfg.hidden
            self.layers.append(
                LstmLayer(self.store, f"lm.lstm{l}", in_dim, cfg.hidden, rng))
        self.out = Linear(self.store, "lm.out", cfg.hidden, len(vocab), rng)

    # -- encoding -----------------------------------------------------------

    def topic_vector(self, topic: Optional[str],
                     table: Optional[EmbeddingTable]) -> np.ndarray:
        """Embedding of the first in-table token of the topic, or zeros."""
        if not self.variant.topic_channel or topic is None or table is None:
            return np.zeros(self.topic_dim)
        for tok in tokenize(topic):
            if tok in table:
                return np.asarray(table.vector(tok), dtype=float)
        return np.zeros(self.topic_dim)

    def condition(self, topic: Optional[str],
                  initials: Sequence[Optional[str]],
                  table: Optional[EmbeddingTable]) -> np.ndarray:
        """The condition vector of a poem about `topic` whose lines start
        with `initials`: the topic vector, the flattened acrostic block
        and the line count.  Training and generation both build it here."""
        return np.concatenate([self.topic_vector(topic, table),
                               acrostic_block(initials).reshape(-1),
                               [float(len(initials))]])

    def zero_condition(self) -> np.ndarray:
        """Conditioning for plain-text pretraining: every channel zeroed."""
        return np.zeros(self.topic_dim + ACROSTIC_DIM + 1)

    # -- forward / backward ---------------------------------------------------

    def hidden_batch(self, token_ids: np.ndarray, cond: np.ndarray,
                     rng: Optional[np.random.Generator] = None,
                     positions: Optional[np.ndarray] = None):
        """The top layer's hidden rows for (T,B) token ids under (B,C)
        conditions: (T,B,H), or (len(positions), H) at the given flat
        positions t * B + b only; and the caches `backward_batch` takes.

        The conditions are layer 0's constant input, so they are projected
        once per batch, not once per step.  Dropout runs, with masks drawn
        from rng, only when rng is given.
        """
        if token_ids.max() >= len(self.vocab) or token_ids.min() < 0:
            raise PoemLmError("token id out of range")
        H, cache = self.layers[0].forward(self.emb[token_ids], const=cond)
        caches = [(cache, None)]
        for layer in self.layers[1:]:
            H, dmask = dropout_forward(H, self.cfg.dropout, rng)
            H, cache = layer.forward(H)
            caches.append((cache, dmask))
        shape = H.shape
        if positions is not None:
            H = H.reshape(-1, shape[-1])[positions]
        return H, (caches, positions, shape)

    def forward_batch(self, token_ids: np.ndarray, cond: np.ndarray,
                      rng: Optional[np.random.Generator] = None,
                      positions: Optional[np.ndarray] = None):
        """Logits for (T,B) token ids under (B,C) conditions: (T,B,V), or
        (len(positions), V) at the given flat positions t * B + b only.

        Returns (logits, (hidden rows, caches)): the hidden rows are the
        input `self.out.backward` takes, the caches `backward_batch`'s.
        rng is `hidden_batch`'s.
        """
        H, caches = self.hidden_batch(token_ids, cond, rng=rng,
                                      positions=positions)
        logits, lin_cache = self.out.forward(H)
        return logits, (lin_cache, caches)

    def backward_batch(self, dH: np.ndarray, caches,
                       grads: dict[str, np.ndarray]) -> None:
        """Add the gradients of the stack's weights, given dH, the
        gradient of the hidden rows `hidden_batch` returned with caches."""
        layer_caches, positions, shape = caches
        if positions is not None:
            full = np.zeros(shape)
            full.reshape(-1, shape[-1])[positions] = dH
            dH = full
        for l in range(len(self.layers) - 1, 0, -1):
            cache, dmask = layer_caches[l]
            dX, _ = self.layers[l].backward(dH, cache, grads)
            dH = dropout_backward(dX, dmask)
        # layer 0's inputs, fixed embeddings and conditions, take no gradient
        self.layers[0].backward(dH, layer_caches[0][0], grads,
                                input_grad=False)

    def target_loss(self, batch,
                    rng: Optional[np.random.Generator] = None):
        """Cross-entropy of one padded batch from `batches`, with logits
        only at its target positions (weight > 0).  Dropout runs, with
        masks drawn from rng, only when rng is given.

        Returns (summed loss, total weight, `forward_batch`'s caches,
        xent): xent is the softmax, targets and weights at those
        positions.  This is the scoring pass; training runs the same
        loss with its output head in chunks, in `loss_and_grads`.
        """
        inputs, _, _, cond = batch
        positions, targets, weights = target_positions(batch)
        logits, caches = self.forward_batch(inputs, cond, rng=rng,
                                            positions=positions)
        loss, probs, wsum = softmax_xent_batch(logits, targets, weights)
        return loss, wsum, caches, (probs, targets, weights)

    def loss_and_grads(self, batch,
                       rng: Optional[np.random.Generator] = None):
        """The loss of `target_loss` and the gradients of its mean:
        (summed loss, total weight, gradients).

        The output head runs over `head_chunks` of the target positions,
        one after another, so that no (positions, V) logits or softmax
        is built whole.  Each chunk's dlogits divide by the whole batch's
        weight; its head gradients add up in chunk order.
        """
        inputs, _, _, cond = batch
        positions, targets, weights = target_positions(batch)
        H, caches = self.hidden_batch(inputs, cond, rng=rng,
                                      positions=positions)
        total = float(weights.sum())
        grads = self.store.zero_grads()
        dH = np.empty_like(H)
        loss = 0.0
        for lo, hi in head_chunks(len(H)):
            t, w = targets[lo:hi], weights[lo:hi]
            logits, X = self.out.forward(H[lo:hi])
            chunk_loss, probs, _ = softmax_xent_batch(logits, t, w)
            loss += chunk_loss
            # logits go before the backward pass; probs stay until the
            # next chunk's replace them.  Freeing both every chunk let
            # glibc trim the heap, and each chunk faulted those pages in
            # again: 24k against 15k minor faults a call (B=32, V=5000)
            del logits
            dH[lo:hi] = self.out.backward(xent_grad(probs, t, w, total), X,
                                          grads)
        self.backward_batch(dH, caches, grads)
        return loss, total, grads

    # -- scoring --------------------------------------------------------------

    def perplexity(self, poems: list[Poem],
                   table: Optional[EmbeddingTable],
                   zero_cond: bool = False) -> float:
        if not poems:
            raise PoemLmError("perplexity over an empty dataset")
        total_nll = 0.0
        total_tok = 0
        for batch in self.batches(poems, table,
                                  batch_size=self.cfg.batch_size,
                                  zero_cond=zero_cond):
            loss, wsum, _, _ = self.target_loss(batch)
            total_nll += loss
            total_tok += int(wsum)
        return float(np.exp(total_nll / total_tok))

    # -- generation-time incremental state ------------------------------------

    def init_state(self):
        H = self.cfg.hidden
        return [(np.zeros(H), np.zeros(H)) for _ in self.layers]

    def project_condition(self, cond: np.ndarray) -> StepCondition:
        """The step weights of every layer under a condition vector, which
        is layer 0's constant input."""
        first, *rest = self.layers
        return StepCondition((first.step_weights(cond),)
                             + tuple(layer.step_weights() for layer in rest))

    def step(self, state, token_id: int, cond: StepCondition) -> np.ndarray:
        """Advance one token under `project_condition(cond)`; mutates
        state, returns next-token probs."""
        if not 0 <= token_id < len(self.vocab):
            raise PoemLmError(f"token id {token_id} out of range")
        x = self.emb[token_id]
        for l, weights in enumerate(cond.layers):
            state[l] = net.lstm_step(x, *state[l], *weights)
            x = state[l][0]
        W = self.store["lm.out.W"]
        bias = self.store["lm.out.b"]
        return softmax(x @ W + bias)

    # -- batching -------------------------------------------------------------

    def batches(self, poems: list[Poem], table: Optional[EmbeddingTable],
                batch_size: int,
                shuffle_rng: Optional[np.random.Generator] = None,
                zero_cond: bool = False):
        """Length-bucketed padded batches of (inputs, targets, weights, cond).

        zero_cond zeroes every conditioning channel, as plain-text
        pretraining does; `table` is then unused.
        """
        encoded = [self.vocab.encode_poem(poem) for poem in poems]
        conds = [self.zero_condition() if zero_cond
                 else self.condition(poem.topic, poem_initials(poem), table)
                 for poem in poems]
        order = sorted(range(len(encoded)), key=lambda i: len(encoded[i]))
        chunks = [order[i:i + batch_size]
                  for i in range(0, len(order), batch_size)]
        if shuffle_rng is not None:
            shuffle_rng.shuffle(chunks)
        pad = self.vocab.pad_id
        for chunk in chunks:
            inputs, lengths = pad_ids([encoded[i][:-1] for i in chunk], pad)
            targets, _ = pad_ids([encoded[i][1:] for i in chunk], pad)
            yield (inputs, targets, length_mask(lengths, len(inputs)),
                   np.array([conds[i] for i in chunk]))


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def train_lm(model: PoemLM, train_poems: list[Poem], dev_poems: list[Poem],
             table: Optional[EmbeddingTable], seed_key: str = "finetune",
             zero_cond: bool = False,
             max_epochs: Optional[int] = None) -> list[dict]:
    """Early-stopped training loop; returns the per-epoch history.

    zero_cond trains and evaluates with every conditioning channel
    zeroed, as plain-text pretraining on `pretrain_poems` does.
    """
    cfg = model.cfg
    rng = net.child_rng(cfg.seed, "poemlm", seed_key)

    def run_epoch():
        total, count = 0.0, 0.0
        for batch in model.batches(train_poems, table, cfg.batch_size,
                                   shuffle_rng=rng, zero_cond=zero_cond):
            loss, wsum, grads = model.loss_and_grads(batch, rng=rng)
            clip_global_norm(grads)
            adam_update(model.store, grads, lr=cfg.lr)
            total += loss
            count += wsum
        return {"train_ppl": float(np.exp(total / max(count, 1.0)))}

    def evaluate():
        dev_ppl = model.perplexity(dev_poems, table, zero_cond=zero_cond)
        return dev_ppl, {"dev_ppl": dev_ppl, "train_ppl": None}

    return net.fit(model.store, run_epoch, evaluate, cfg.patience,
                   max_epochs if max_epochs is not None else cfg.max_epochs,
                   seed_key)


@dataclass
class TrainedLm:
    model: PoemLM
    history: list[dict] = field(default_factory=list)


def pretrain_poems(sentences: list[list[str]]) -> tuple[list[Poem],
                                                       list[Poem]]:
    """Plain-text sentences as one-line poems: (training, held out).  The
    held-out poems are a 10% tail split, so that early stopping during
    pretraining watches them, not the poem dev set, and the pretrained
    weights survive into finetuning."""
    sentences = [Poem(lines=[s]) for s in sentences]
    held_out = max(1, len(sentences) // 10)
    return sentences[:-held_out] or sentences, sentences[-held_out:]


def train_variant(variant: LmVariant, gold_train: list[Poem],
                  gold_dev: list[Poem], silver_train: Optional[list[Poem]],
                  pretrain_sentences: Optional[list[list[str]]],
                  table: EmbeddingTable, cfg: LmConfig) -> TrainedLm:
    """Train `variant` end to end; its silver poems and pretrain sentences
    are given (not None) exactly when it reads them."""
    for reads, given, corpus, hint in [
            (variant.silver, silver_train, "silver-labeled poems",
             "; run silver labeling first"),
            (variant.pretrain, pretrain_sentences,
             "plain-text pretrain sentences", "")]:
        if not reads and given is not None:
            raise PoemLmError(f"variant {variant.name!r} reads no {corpus}")
        if reads and not given:
            raise PoemLmError(f"variant {variant.name!r} needs {corpus}{hint}")
    finetune = gold_train + (silver_train or [])
    if not finetune or not gold_dev:
        raise PoemLmError("empty training or dev corpus")

    vocab = build_vocabulary(finetune)
    model = PoemLM(vocab, cfg, topic_dim=table.dim,
                   emb_matrix=build_embedding_matrix(vocab, table),
                   variant=variant)
    history = []
    if variant.pretrain:
        history += [dict(h, phase="pretrain") for h in train_lm(
            model, *pretrain_poems(pretrain_sentences), table,
            seed_key="pretrain", zero_cond=True)]
        model.store.reset_moments()  # fresh optimizer state for finetuning
    history += [dict(h, phase="finetune") for h in train_lm(
        model, finetune, gold_dev, table, seed_key="finetune")]
    return TrainedLm(model=model, history=history)


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------

def save_lm(path, trained: TrainedLm) -> None:
    model = trained.model
    net.save_model(path, "poemlm", model, variant=model.variant.name,
                   topic_dim=model.topic_dim,
                   vocab=model.vocab.non_special_tokens(),
                   history=trained.history)


def _build_lm(cfg: LmConfig, meta: dict, arrays) -> PoemLM:
    vocab = net.meta_value(meta, "vocab", Vocabulary)
    variant = net.meta_value(meta, "variant", LmVariant.from_name)
    # a zero-stride stand-in: the checkpoint supplies the values
    emb = np.broadcast_to(0.0, (len(vocab), meta["topic_dim"]))
    return PoemLM(vocab, cfg, topic_dim=meta["topic_dim"], emb_matrix=emb,
                  variant=variant, params=arrays)


def load_lm(path) -> TrainedLm:
    model, meta = net.load_model(path, "poemlm", LmConfig, _build_lm,
                                 variant=str, topic_dim=int, vocab=list[str])
    return TrainedLm(model=model, history=meta.get("history", []))
