"""Topic prediction and silver labeling.

A bidirectional word-level LSTM reads the whole poem (BOS ... EOS) and a
linear head over the concatenated final states scores the topic inventory.
Predicted argmax topics ("silver" labels) are attached to unlabeled poems
so they can serve as additional language-model training data.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, asdict

import numpy as np

from . import net
from .corpus import Poem, Vocabulary, build_vocabulary
from .embed import EmbeddingTable
from .net import (
    BiLstmEncoder, Linear, ParameterStore, adam_update, clip_global_norm,
    pad_ids, softmax, softmax_xent_batch,
)
from .poemlm import EMB_NAME, build_embedding_matrix

log = logging.getLogger(__name__)


class TopicError(ValueError):
    pass


@dataclass
class TopicConfig:
    hidden: int = 1024
    lr: float = 0.0005
    batch_size: int = 128
    patience: int = 25
    max_epochs: int = 100
    vocab_size: int = 50000
    seed: int = 0

    @classmethod
    def desk_scale(cls, **overrides) -> "TopicConfig":
        base = dict(hidden=24, lr=0.01, batch_size=16, patience=5,
                    max_epochs=30)
        base.update(overrides)
        return cls(**base)


class TopicClassifier:
    """`params`, if given, are the arrays to build from (a checkpoint's);
    emb_matrix's values are then never used."""

    def __init__(self, vocab: Vocabulary, labels: list[str],
                 cfg: TopicConfig, emb_matrix: np.ndarray,
                 params: dict[str, np.ndarray] | None = None):
        if len(labels) < 2:
            raise TopicError("need at least two topics to classify")
        if labels != sorted(labels):
            raise TopicError("label inventory must be sorted")
        self.vocab = vocab
        self.labels = labels
        self.label_to_id = {t: i for i, t in enumerate(labels)}
        self.cfg = cfg
        self.store = ParameterStore(params)
        rng = net.child_rng(cfg.seed, "topics", "init")
        self.emb = self.store.new(EMB_NAME, emb_matrix.shape,
                                  lambda _: emb_matrix)
        self.store.fixed.add(EMB_NAME)
        self.embed_dim = emb_matrix.shape[1]
        self.encoder = BiLstmEncoder(self.store, "tp.enc", self.embed_dim,
                                     cfg.hidden, rng)
        self.head = Linear(self.store, "tp.head", 2 * cfg.hidden,
                           len(labels), rng)

    def forward_batch(self, poems: list[Poem]):
        ids, lengths = pad_ids([self.vocab.encode_poem(p) for p in poems],
                               self.vocab.pad_id)
        X = self.emb[ids]
        enc, cache = self.encoder.forward(X, lengths)
        logits, head_cache = self.head.forward(enc)
        return logits, (cache, head_cache)

    def loss_and_grads(self, poems: list[Poem], targets: np.ndarray):
        logits, (cache, head_cache) = self.forward_batch(poems)
        weights = np.ones(len(poems))
        loss, dlogits, wsum = softmax_xent_batch(logits, targets, weights)
        grads = self.store.zero_grads()
        d_enc = self.head.backward(dlogits / wsum, head_cache, grads)
        self.encoder.backward(d_enc, cache, grads, input_grad=False)
        return loss / wsum, grads

    def predict_topic(self, poem: Poem) -> np.ndarray:
        """Distribution over the topic inventory for one poem."""
        if poem.n_lines == 0 or all(not l for l in poem.lines):
            raise TopicError("cannot classify an empty poem")
        logits, _ = self.forward_batch([poem])
        return softmax(logits[0])

    def accuracy(self, poems: list[Poem]) -> float:
        if not poems:
            raise TopicError("empty evaluation set")
        correct = 0
        for i in range(0, len(poems), self.cfg.batch_size):
            chunk = poems[i:i + self.cfg.batch_size]
            logits, _ = self.forward_batch(chunk)
            pred = logits.argmax(axis=1)
            try:
                gold = np.array([self.label_to_id[p.topic] for p in chunk])
            except KeyError as exc:
                raise TopicError(f"topic {exc.args[0]!r} is not one of the "
                                 f"{len(self.labels)} the classifier was "
                                 f"trained on") from None
            correct += int((pred == gold).sum())
        return correct / len(poems)

    def label_corpus(self, poems: list[Poem]) -> list[Poem]:
        """Attach argmax silver topics (plus confidence) to every poem."""
        out = []
        counts: dict[str, int] = {}
        for i in range(0, len(poems), self.cfg.batch_size):
            chunk = poems[i:i + self.cfg.batch_size]
            logits, _ = self.forward_batch(chunk)
            probs = softmax(logits)
            for j, poem in enumerate(chunk):
                k = int(probs[j].argmax())
                topic = self.labels[k]
                counts[topic] = counts.get(topic, 0) + 1
                out.append(Poem(lines=poem.lines, topic=topic,
                                topic_confidence=float(probs[j, k])))
        log.info("silver labels: %s", dict(sorted(counts.items())))
        return out


def train_topic_model(gold_train: list[Poem], gold_dev: list[Poem],
                      table: EmbeddingTable, cfg: TopicConfig
                      ) -> tuple[TopicClassifier, list[dict]]:
    """Train on gold-topic poems, early-stopped on dev accuracy."""
    if not gold_train or not gold_dev:
        raise TopicError("empty training or dev corpus")
    for p in gold_train + gold_dev:
        if p.topic is None:
            raise TopicError("every training poem needs a gold topic")
    labels = sorted({p.topic for p in gold_train})
    if len(labels) < 2:
        raise TopicError(
            "training corpus has a single topic; classifier is degenerate")
    vocab = build_vocabulary(gold_train, max_size=cfg.vocab_size)
    model = TopicClassifier(vocab, labels, cfg,
                            build_embedding_matrix(vocab, table))
    rng = net.child_rng(cfg.seed, "topics", "train")
    targets_all = np.array([model.label_to_id[p.topic] for p in gold_train])
    order = np.arange(len(gold_train))  # shuffled in place every epoch

    def run_epoch():
        rng.shuffle(order)
        for i in range(0, len(order), cfg.batch_size):
            sel = order[i:i + cfg.batch_size]
            chunk = [gold_train[j] for j in sel]
            _, grads = model.loss_and_grads(chunk, targets_all[sel])
            clip_global_norm(grads)
            adam_update(model.store, grads, lr=cfg.lr)
        return {}

    def evaluate():
        acc = model.accuracy(gold_dev)
        return -acc, {"dev_acc": acc}  # fit minimizes

    history = net.fit(model.store, run_epoch, evaluate, cfg.patience,
                      cfg.max_epochs, "topics")
    return model, history


def save_topics(path, model: TopicClassifier, history: list[dict]) -> None:
    net.save_checkpoint(path, model.store, {
        "kind": "topics",
        "config": asdict(model.cfg),
        "labels": model.labels,
        "embed_dim": model.embed_dim,
        "vocab": model.vocab.non_special_tokens(),
        "history": history,
    })


def load_topics(path) -> TopicClassifier:
    params, meta = net.load_checkpoint(path)
    problem = net.meta_problem(meta, "topics", TopicConfig,
                               labels=list[str], embed_dim=int,
                               vocab=list[str])
    if problem:
        raise TopicError(f"{path}: {problem}")
    vocab = Vocabulary(meta["vocab"])
    # a zero-stride stand-in: the checkpoint supplies the values
    emb = np.broadcast_to(0.0, (len(vocab), meta["embed_dim"]))
    return net.build_from_checkpoint(path, lambda: TopicClassifier(
        vocab, meta["labels"], TopicConfig(**meta["config"]),
        emb_matrix=emb, params=params))
