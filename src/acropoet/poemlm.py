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
from dataclasses import dataclass, asdict, field
from typing import NamedTuple, Optional

import numpy as np

from . import net
from .corpus import (
    N_LETTER_COLS, N_LETTER_ROWS, CorpusError, Poem, Vocabulary,
    derive_training_condition, tokenize,
)
from .embed import EmbeddingTable
from .net import (
    Linear, LstmLayer, ParameterStore, adam_update, clip_global_norm,
    dropout_backward, dropout_forward, length_mask, pad_ids, softmax,
    softmax_xent_batch,
)

log = logging.getLogger(__name__)

ACROSTIC_DIM = N_LETTER_ROWS * N_LETTER_COLS  # 216
EMB_NAME = "embed.fixed"
VOCAB_SIZE = 50000  # most frequent training tokens the LM keeps


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

    @classmethod
    def desk_scale(cls, **overrides) -> "LmConfig":
        base = dict(n_layers=2, hidden=64, dropout=0.1, batch_size=16,
                    patience=5, max_epochs=30)
        base.update(overrides)
        return cls(**base)


@dataclass(frozen=True)
class LmVariant:
    """One of the six training regimes GOLD+/-, PRED/GOLD+/-, WIKI+/-."""

    pretrain: str = "none"            # none | plain_text
    finetune_corpus: str = "gold_only"  # gold_only | gold_plus_silver
    topic_channel: bool = True

    NAMES = {
        "gold+": ("none", "gold_only", True),
        "gold-": ("none", "gold_only", False),
        "pred/gold+": ("none", "gold_plus_silver", True),
        "pred/gold-": ("none", "gold_plus_silver", False),
        "wiki+": ("plain_text", "gold_plus_silver", True),
        "wiki-": ("plain_text", "gold_plus_silver", False),
    }

    @classmethod
    def from_name(cls, name: str) -> "LmVariant":
        key = name.lower()
        if key not in cls.NAMES:
            raise PoemLmError(
                f"unknown variant {name!r}; expected one of "
                f"{sorted(cls.NAMES)}")
        pre, corp, topic = cls.NAMES[key]
        return cls(pretrain=pre, finetune_corpus=corp, topic_channel=topic)

    @property
    def name(self) -> str:
        for key, val in self.NAMES.items():
            if val == (self.pretrain, self.finetune_corpus,
                       self.topic_channel):
                return key
        raise PoemLmError("unnamed variant")


def _fallback_vector(token: str, dim: int) -> np.ndarray:
    """Deterministic fixed vector for tokens without a pretrained embedding."""
    digest = hashlib.blake2b(token.encode(), digest_size=8).digest()
    rng = np.random.Generator(np.random.PCG64(
        int.from_bytes(digest, "little")))
    return rng.uniform(-net.INIT_SCALE, net.INIT_SCALE, size=dim)


def build_embedding_matrix(vocab: Vocabulary,
                           table: EmbeddingTable) -> np.ndarray:
    mat = np.zeros((len(vocab), table.dim))
    for i, tok in enumerate(vocab.id_to_token):
        if i == vocab.pad_id:
            continue
        if tok in table:
            mat[i] = table.vector(tok)
        else:
            mat[i] = _fallback_vector(tok, table.dim)
    return mat


class StepCondition(NamedTuple):
    """A condition vector projected into layer 0's bias, made once for
    the steps of one poem by `PoemLM.project_condition`."""

    bias: np.ndarray


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

    def condition_vector(self, topic_vec: np.ndarray,
                         acrostic_block: np.ndarray,
                         n_lines: float) -> np.ndarray:
        return np.concatenate(
            [topic_vec, np.asarray(acrostic_block).reshape(-1),
             [float(n_lines)]])

    def zero_condition(self) -> np.ndarray:
        """Conditioning for plain-text pretraining: every channel zeroed."""
        return np.zeros(self.topic_dim + ACROSTIC_DIM + 1)

    def poem_condition(self, poem: Poem,
                       table: Optional[EmbeddingTable]) -> np.ndarray:
        spec = derive_training_condition(poem)
        return self.condition_vector(
            self.topic_vector(poem.topic, table), spec.onehot_block(),
            poem.n_lines)

    # -- forward / backward ---------------------------------------------------

    def forward_batch(self, token_ids: np.ndarray, cond: np.ndarray,
                      train: bool = False,
                      rng: Optional[np.random.Generator] = None,
                      positions: Optional[np.ndarray] = None):
        """Logits for (T,B) token ids under (B,C) conditions: (T,B,V), or
        (len(positions), V) at the given flat positions t * B + b only.

        The conditions are layer 0's constant input, so they are projected
        once per batch, not once per step.
        """
        if token_ids.max() >= len(self.vocab) or token_ids.min() < 0:
            raise PoemLmError("token id out of range")
        H, cache = self.layers[0].forward(self.emb[token_ids], const=cond)
        caches = [(cache, None)]
        for layer in self.layers[1:]:
            H, dmask = dropout_forward(H, self.cfg.dropout, rng, train)
            H, cache = layer.forward(H)
            caches.append((cache, dmask))
        shape = H.shape
        if positions is not None:
            H = H.reshape(-1, shape[-1])[positions]
        logits, lin_cache = self.out.forward(H)
        return logits, (caches, lin_cache, positions, shape)

    def backward_batch(self, dlogits: np.ndarray, caches,
                       grads: dict[str, np.ndarray]) -> None:
        layer_caches, lin_cache, positions, shape = caches
        dH = self.out.backward(dlogits, lin_cache, grads)
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

    def target_xent(self, inputs: np.ndarray, targets: np.ndarray,
                    weights: np.ndarray, cond: np.ndarray,
                    train: bool = False,
                    rng: Optional[np.random.Generator] = None):
        """Cross-entropy of one padded batch from `batches`, with logits
        only at its target positions (weight > 0).

        Returns (summed loss, dlogits at those positions, total weight,
        caches for backward_batch).
        """
        positions = np.flatnonzero(weights > 0)
        logits, caches = self.forward_batch(inputs, cond, train=train,
                                            rng=rng, positions=positions)
        loss, dlogits, wsum = softmax_xent_batch(
            logits, targets.reshape(-1)[positions],
            weights.reshape(-1)[positions])
        return loss, dlogits, wsum, caches

    # -- scoring --------------------------------------------------------------

    def lm_forward(self, prefix_ids: list[int],
                   cond: np.ndarray) -> np.ndarray:
        """Next-token distribution given a prefix starting with BOS."""
        if not prefix_ids or prefix_ids[0] != self.vocab.bos_id:
            raise PoemLmError("prefix must start with BOS")
        ids = np.asarray(prefix_ids)[:, None]
        logits, _ = self.forward_batch(ids, cond[None, :],
                                       positions=np.array([len(ids) - 1]))
        return softmax(logits[0])

    def poem_log_prob(self, poem: Poem, cond: np.ndarray) -> float:
        ids = self.vocab.encode_poem(poem)
        inputs = np.asarray(ids[:-1])[:, None]
        targets = np.asarray(ids[1:])
        logits, _ = self.forward_batch(inputs, cond[None, :], train=False)
        probs = softmax(logits[:, 0, :])
        p = np.clip(probs[np.arange(len(targets)), targets], net.CE_EPS, None)
        return float(np.log(p).sum())

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
            loss, _, wsum, _ = self.target_xent(*batch)
            total_nll += loss
            total_tok += int(wsum)
        return float(np.exp(total_nll / total_tok))

    # -- generation-time incremental state ------------------------------------

    def init_state(self):
        H = self.cfg.hidden
        return [(np.zeros(H), np.zeros(H)) for _ in self.layers]

    def project_condition(self, cond: np.ndarray) -> StepCondition:
        """Layer 0's bias under a constant condition: b + cond @ Wx[E:]."""
        Wx, _, b = self.layers[0]._weights()
        return StepCondition(b + cond @ Wx[self.embed_dim:])

    def step(self, state, token_id: int, cond) -> np.ndarray:
        """Advance one token; mutates state, returns next-token probs.

        `cond` is a condition vector, or its `project_condition` for a run
        of steps under one condition; either way layer 0 multiplies only
        the token's embedding.
        """
        if not 0 <= token_id < len(self.vocab):
            raise PoemLmError(f"token id {token_id} out of range")
        if not isinstance(cond, StepCondition):
            cond = self.project_condition(cond)
        x = self.emb[token_id]
        for l, layer in enumerate(self.layers):
            Wx, Wh, b = layer._weights()
            if l == 0:
                Wx, b = Wx[:self.embed_dim], cond.bias
            h, c = net.lstm_step(x, state[l][0], state[l][1], Wx, Wh, b)
            state[l] = (h, c)
            x = h
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
                 else self.poem_condition(poem, table) for poem in poems]
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
             pretrain_sentences: Optional[list[list[str]]] = None,
             max_epochs: Optional[int] = None) -> list[dict]:
    """Early-stopped training loop; returns the per-epoch history.

    When pretrain_sentences is given, trains on those as one-line poems
    with zeroed conditioning; early stopping then watches held-out
    pretrain sentences (a 10% tail split), not the poem dev set, so the
    pretrained weights survive into finetuning.
    """
    cfg = model.cfg
    rng = net.child_rng(cfg.seed, "poemlm", seed_key)
    zero_cond = pretrain_sentences is not None
    if zero_cond:
        sentences = [Poem(lines=[s]) for s in pretrain_sentences]
        held_out = max(1, len(sentences) // 10)
        train_poems = sentences[:-held_out] or sentences
        dev_poems = sentences[-held_out:]

    def run_epoch():
        total, count = 0.0, 0.0
        for batch in model.batches(train_poems, table, cfg.batch_size,
                                   shuffle_rng=rng, zero_cond=zero_cond):
            loss, dlogits, wsum, caches = model.target_xent(
                *batch, train=True, rng=rng)
            grads = model.store.zero_grads()
            model.backward_batch(dlogits / max(wsum, 1.0), caches, grads)
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


def train_variant(variant: LmVariant, gold_train: list[Poem],
                  gold_dev: list[Poem], silver_train: list[Poem],
                  pretrain_sentences: Optional[list[list[str]]],
                  table: EmbeddingTable, cfg: LmConfig) -> TrainedLm:
    """Train one of the named regimes end to end."""
    from .corpus import build_vocabulary

    if variant.finetune_corpus == "gold_plus_silver":
        if not silver_train:
            raise PoemLmError(
                f"variant {variant.name!r} needs silver-labeled poems; "
                "run silver labeling first")
        finetune = gold_train + silver_train
    else:
        finetune = list(gold_train)
    if variant.pretrain == "plain_text" and not pretrain_sentences:
        raise PoemLmError(
            f"variant {variant.name!r} needs a plain-text pretrain corpus")
    if not finetune or not gold_dev:
        raise PoemLmError("empty training or dev corpus")

    vocab = build_vocabulary(finetune, max_size=VOCAB_SIZE)
    model = PoemLM(vocab, cfg, topic_dim=table.dim,
                   emb_matrix=build_embedding_matrix(vocab, table),
                   variant=variant)
    history = []
    if variant.pretrain == "plain_text":
        history += [dict(h, phase="pretrain") for h in train_lm(
            model, [], gold_dev, table, seed_key="pretrain",
            pretrain_sentences=pretrain_sentences)]
        # finetuning starts from fresh optimizer state
        model.store.step = 0
        for name in model.store.m:
            model.store.m[name][...] = 0.0
            model.store.v[name][...] = 0.0
    history += [dict(h, phase="finetune") for h in train_lm(
        model, finetune, gold_dev, table, seed_key="finetune")]
    return TrainedLm(model=model, history=history)


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------

def save_lm(path, trained: TrainedLm) -> None:
    model = trained.model
    meta = {
        "kind": "poemlm",
        "config": asdict(model.cfg),
        "variant": model.variant.name,
        "topic_dim": model.topic_dim,
        "vocab": model.vocab.non_special_tokens(),
        "history": trained.history,
    }
    net.save_checkpoint(path, model.store, meta)


def load_lm(path) -> TrainedLm:
    params, meta = net.load_checkpoint(path)
    problem = net.meta_problem(meta, "poemlm", LmConfig, variant=str,
                               topic_dim=int, vocab=list[str])
    if problem:
        raise PoemLmError(f"{path}: {problem}")
    try:
        vocab = Vocabulary(meta["vocab"])
    except CorpusError as exc:
        raise PoemLmError(f"{path}: checkpoint meta 'vocab': {exc}") from None
    # a zero-stride stand-in: the checkpoint supplies the values
    emb = np.broadcast_to(0.0, (len(vocab), meta["topic_dim"]))
    model = net.build_from_checkpoint(path, lambda: PoemLM(
        vocab, LmConfig(**meta["config"]), topic_dim=meta["topic_dim"],
        emb_matrix=emb, variant=LmVariant.from_name(meta["variant"]),
        params=params))
    return TrainedLm(model=model, history=meta.get("history", []))
