from collections import Counter

import numpy as np
import pytest
from helpers import make_poems

from acropoet import net
from acropoet.corpus import Poem, build_vocabulary
from acropoet.net import grad_check
from acropoet.poemlm import EMB_NAME, build_embedding_matrix
from acropoet.topics import (
    TopicClassifier, TopicConfig, TopicError, load_topics, save_topics,
    train_topic_model,
)


@pytest.fixture(scope="module")
def tiny_topics(table):
    train = make_poems(40, seed=1)
    dev = make_poems(20, seed=2)
    cfg = TopicConfig.desk_scale(seed=3)
    model, history = train_topic_model(train, dev, table, cfg)
    return model, history, dev


def test_separable_corpus_high_dev_accuracy(tiny_topics):
    model, history, dev = tiny_topics
    assert model.accuracy(dev) >= 0.95
    assert history[-1]["dev_acc"] <= max(h["dev_acc"] for h in history)


def test_single_topic_corpus_rejected(table):
    poems = make_poems(10, seed=0, topic="fire")
    with pytest.raises(TopicError, match="single topic"):
        train_topic_model(poems[:8], poems[8:], table,
                          TopicConfig.desk_scale(max_epochs=1))


def test_dev_topic_unseen_in_training_rejected(table):
    train = make_poems(8, seed=0)
    dev = make_poems(2, seed=1)
    dev[1] = Poem(lines=dev[1].lines, topic="earth")
    with pytest.raises(TopicError, match="'earth'"):
        train_topic_model(train, dev, table,
                          TopicConfig.desk_scale(max_epochs=1))


def test_unlabeled_training_poem_rejected(table):
    poems = make_poems(10, seed=0)
    poems[3] = Poem(lines=poems[3].lines, topic=None)
    with pytest.raises(TopicError, match="gold topic"):
        train_topic_model(poems[:8], poems[8:], table,
                          TopicConfig.desk_scale(max_epochs=1))


def test_predict_topic_valid_distribution(tiny_topics):
    model, _, dev = tiny_topics
    for poem in dev[:5]:
        dist = model.predict_topic(poem)
        assert dist.shape == (len(model.labels),)
        assert dist.min() >= 0
        assert dist.sum() == pytest.approx(1.0, abs=1e-9)


def test_predict_empty_poem_errors(tiny_topics):
    model, _, _ = tiny_topics
    with pytest.raises(TopicError):
        model.predict_topic(Poem(lines=[]))


def test_label_corpus_closed_set_and_confidence(tiny_topics):
    model, _, _ = tiny_topics
    unlabeled = [Poem(lines=p.lines) for p in make_poems(12, seed=7)]
    labeled = model.label_corpus(unlabeled)
    assert len(labeled) == len(unlabeled)
    for before, after in zip(unlabeled, labeled):
        assert after.lines == before.lines
        assert after.topic in model.labels
        dist = model.predict_topic(after)
        assert after.topic_confidence == pytest.approx(dist.max(), abs=1e-12)
        assert 1.0 / len(model.labels) <= after.topic_confidence <= 1.0


def test_silver_labels_match_gold_on_separable_data(tiny_topics):
    model, _, dev = tiny_topics
    stripped = [Poem(lines=p.lines) for p in dev]
    labeled = model.label_corpus(stripped)
    agree = sum(l.topic == g.topic for l, g in zip(labeled, dev))
    assert agree / len(dev) >= 0.95


def test_shuffled_labels_stay_near_chance(table):
    rng = np.random.default_rng(0)
    train = [Poem(lines=p.lines,
                  topic=("fire", "water")[rng.integers(2)])
             for p in make_poems(30, seed=4)]
    dev = [Poem(lines=p.lines,
                topic=("fire", "water")[rng.integers(2)])
           for p in make_poems(20, seed=5)]
    cfg = TopicConfig.desk_scale(seed=1, max_epochs=8, patience=8)
    model, _ = train_topic_model(train, dev, table, cfg)
    assert model.accuracy(dev) <= 0.85


def test_training_bit_reproducible(table):
    snaps = []
    train = make_poems(16, seed=1)
    dev = make_poems(8, seed=2)
    for _ in range(2):
        cfg = TopicConfig.desk_scale(seed=9, max_epochs=2, patience=5)
        model, _ = train_topic_model(train, dev, table, cfg)
        snaps.append(model.store.copy_params())
    for name in snaps[0]:
        assert np.array_equal(snaps[0][name], snaps[1][name])


def test_gradcheck_classifier(table):
    poems = make_poems(4, seed=3, min_lines=4, max_lines=5)
    vocab = build_vocabulary(poems, max_size=60)
    cfg = TopicConfig(hidden=4, seed=2)
    model = TopicClassifier(vocab, ["fire", "water"], cfg,
                            build_embedding_matrix(vocab, table))
    targets = np.array([model.label_to_id[p.topic] for p in poems])

    def loss_fn():
        loss, wsum, _ = model.loss_and_grads((poems, targets))
        return loss / wsum

    _, wsum, grads = model.loss_and_grads((poems, targets))
    assert wsum == len(poems)
    names = [n for n in model.store.params if n != EMB_NAME]
    report = grad_check(loss_fn, model.store, grads, param_names=names,
                        max_entries_per_param=20)
    assert report["max_rel_error"] <= 1e-4


def test_encoder_backward_makes_no_input_gradient(table, monkeypatch):
    """The encoder reads fixed embeddings, so neither direction's backward
    computes a gradient for its input."""
    input_grads = Counter()
    real_backward = net.LstmLayer.backward

    def backward(layer, *args, **kwargs):
        dX, d_const = real_backward(layer, *args, **kwargs)
        input_grads[layer.name, dX is not None, d_const is not None] += 1
        return dX, d_const
    monkeypatch.setattr(net.LstmLayer, "backward", backward)
    poems = make_poems(4, seed=3)
    vocab = build_vocabulary(poems, max_size=60)
    model = TopicClassifier(vocab, ["fire", "water"],
                            TopicConfig(hidden=4, seed=2),
                            build_embedding_matrix(vocab, table))
    model.loss_and_grads(
        (poems, np.array([model.label_to_id[p.topic] for p in poems])))
    assert input_grads == Counter({("tp.enc.fwd", False, False): 1,
                                   ("tp.enc.bwd", False, False): 1})


def test_checkpoint_roundtrip(tmp_path, tiny_topics):
    model, history, dev = tiny_topics
    p1 = tmp_path / "topics.ckpt"
    save_topics(p1, model, history)
    loaded = load_topics(p1)
    assert loaded.labels == model.labels
    assert loaded.accuracy(dev) == model.accuracy(dev)
    for poem in dev[:3]:
        assert np.array_equal(loaded.predict_topic(poem),
                              model.predict_topic(poem))
    p2 = tmp_path / "topics2.ckpt"
    save_topics(p2, loaded, history)
    assert p1.read_bytes() == p2.read_bytes()


def test_training_leaves_fixed_embeddings_untouched(tiny_topics, table):
    model, _, _ = tiny_topics
    passed_in = build_embedding_matrix(model.vocab, table)
    assert np.array_equal(model.store[EMB_NAME], passed_in)
    assert EMB_NAME not in model.store.m
    assert EMB_NAME not in model.store.v
    assert EMB_NAME not in model.store.zero_grads()
