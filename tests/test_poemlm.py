import numpy as np
import pytest
from helpers import make_plain_sentences, make_poems, make_table

from acropoet.corpus import Poem, build_vocabulary
from acropoet.net import grad_check, softmax, softmax_xent_batch, xent_grad
from acropoet.poemlm import (
    ACROSTIC_DIM, EMB_NAME, LmConfig, LmVariant, PoemLM, PoemLmError,
    TrainedLm, build_embedding_matrix, load_lm, save_lm, train_lm,
    train_variant,
)


def fresh_model(table, seed=0, topic_channel=True, **cfg_over):
    poems = make_poems(30, seed=5)
    vocab = build_vocabulary(poems, max_size=200)
    cfg_kw = dict(n_layers=2, hidden=16, dropout=0.0, lr=0.01,
                  batch_size=8, patience=3, max_epochs=5, seed=seed)
    cfg_kw.update(cfg_over)
    cfg = LmConfig(**cfg_kw)
    variant = LmVariant.from_name("gold+" if topic_channel else "gold-")
    model = PoemLM(vocab, cfg, topic_dim=table.dim,
                   emb_matrix=build_embedding_matrix(vocab, table),
                   variant=variant)
    return model, poems


def test_variant_names_roundtrip():
    for name in ["gold+", "gold-", "pred/gold+", "pred/gold-",
                 "wiki+", "wiki-"]:
        assert LmVariant.from_name(name).name == name
    with pytest.raises(PoemLmError):
        LmVariant.from_name("silver+")


def test_input_dimension(table):
    model, _ = fresh_model(table)
    assert model.in_dim == table.dim + table.dim + ACROSTIC_DIM + 1


def test_uniform_when_output_zeroed(table):
    model, _ = fresh_model(table)
    model.store["lm.out.W"][...] = 0.0
    model.store["lm.out.b"][...] = 0.0
    cond = model.zero_condition()
    probs = model.lm_forward([model.vocab.bos_id], cond)
    V = len(model.vocab)
    assert np.allclose(probs, 1.0 / V)


def test_lm_forward_valid_distribution(table):
    model, poems = fresh_model(table)
    rng = np.random.default_rng(0)
    for _ in range(20):
        L = int(rng.integers(1, 8))
        prefix = [model.vocab.bos_id] + list(
            rng.integers(0, len(model.vocab), size=L))
        cond = model.poem_condition(poems[0], None)
        probs = model.lm_forward(prefix, cond)
        assert probs.min() >= 0
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_lm_forward_requires_bos(table):
    model, _ = fresh_model(table)
    with pytest.raises(PoemLmError):
        model.lm_forward([model.vocab.eos_id], model.zero_condition())


def test_lm_forward_deterministic(table):
    model, poems = fresh_model(table)
    cond = model.poem_condition(poems[0], table)
    a = model.lm_forward([model.vocab.bos_id], cond)
    b = model.lm_forward([model.vocab.bos_id], cond)
    assert np.array_equal(a, b)


def test_target_loss_matches_stepwise_oracle(table):
    """target_loss's loss over a padded batch is the summed next-token
    NLL that lm_forward gives one prefix at a time."""
    model, poems = fresh_model(table)
    batch = poems[:3]
    padded, = model.batches(batch, table, batch_size=3)
    assert padded[2].min() == 0  # the batch is padded
    loss, wsum, _, _ = model.target_loss(padded)
    # oracle: accumulate lm_forward one prefix at a time
    total, count = 0.0, 0
    for poem in batch:
        ids = model.vocab.encode_poem(poem)
        poem_cond = model.poem_condition(poem, table)
        for i in range(1, len(ids)):
            total -= np.log(model.lm_forward(ids[:i], poem_cond)[ids[i]])
            count += 1
    assert wsum == count
    assert loss == pytest.approx(total, abs=1e-9)


def test_step_state_matches_full_forward(table):
    model, poems = fresh_model(table)
    cond = model.poem_condition(poems[1], table)
    ids = model.vocab.encode_poem(poems[1])[:6]
    state, step_cond = model.init_state(), model.project_condition(cond)
    for i, tok in enumerate(ids):
        probs_inc = model.step(state, tok, step_cond)
        probs_full = model.lm_forward(ids[:i + 1], cond)
        assert np.allclose(probs_inc, probs_full, atol=1e-12)


def test_perplexity_uniform_model(table):
    model, poems = fresh_model(table)
    model.store["lm.out.W"][...] = 0.0
    model.store["lm.out.b"][...] = 0.0
    V = len(model.vocab)
    assert model.perplexity(poems[:5], table) == pytest.approx(V, abs=1e-6)


def test_perplexity_empty_dataset_errors(table):
    model, _ = fresh_model(table)
    with pytest.raises(PoemLmError):
        model.perplexity([], table)


def test_memorize_single_poem(table):
    poem = Poem(lines=[["ash", "blaze"], ["coal", "dragon"],
                       ["ember", "flame"], ["glow", "."]], topic="fire")
    vocab = build_vocabulary([poem], max_size=50)
    cfg = LmConfig(n_layers=1, hidden=24, dropout=0.0, lr=0.02,
                   batch_size=1, patience=200, max_epochs=150, seed=3)
    model = PoemLM(vocab, cfg, topic_dim=table.dim,
                   emb_matrix=build_embedding_matrix(vocab, table),
                   variant=LmVariant.from_name("gold+"))
    train_lm(model, [poem], [poem], table)
    assert model.perplexity([poem], table) < 1.5


def test_training_improves_dev_ppl(table):
    model, poems = fresh_model(table)
    history = train_lm(model, poems[:24], poems[24:], table)
    assert history[-1]["dev_ppl"] < history[0]["dev_ppl"]
    best = min(h["dev_ppl"] for h in history)
    assert best < history[0]["dev_ppl"]


def test_topic_channel_off_ignores_labels(table):
    results = []
    for permute in (False, True):
        model, poems = fresh_model(table, topic_channel=False,
                                   max_epochs=2, patience=10)
        if permute:
            poems = [Poem(lines=p.lines,
                          topic="water" if p.topic == "fire" else "fire")
                     for p in poems]
        train_lm(model, poems[:20], poems[20:], table)
        results.append(model.store.copy_params())
    for name in results[0]:
        assert np.array_equal(results[0][name], results[1][name])


def test_training_bit_reproducible(table):
    snaps = []
    for _ in range(2):
        model, poems = fresh_model(table, seed=11, max_epochs=2, patience=10)
        train_lm(model, poems[:20], poems[20:], table)
        snaps.append(model.store.copy_params())
    for name in snaps[0]:
        assert np.array_equal(snaps[0][name], snaps[1][name])


def test_gradcheck_full_model(table):
    poems = make_poems(4, seed=9, min_lines=4, max_lines=4)
    vocab = build_vocabulary(poems, max_size=60)
    cfg = LmConfig(n_layers=2, hidden=5, dropout=0.0, seed=1)
    model = PoemLM(vocab, cfg, topic_dim=table.dim,
                   emb_matrix=build_embedding_matrix(vocab, table),
                   variant=LmVariant.from_name("gold+"))
    batch = next(model.batches(poems[:2], table, batch_size=2))
    inputs, targets, weights, cond = batch

    def loss_and_grads():
        logits, caches = model.forward_batch(inputs, cond, train=False)
        V = logits.shape[-1]
        loss, probs, wsum = softmax_xent_batch(
            logits.reshape(-1, V), targets.reshape(-1), weights.reshape(-1))
        dflat = xent_grad(probs, targets.reshape(-1), weights.reshape(-1))
        grads = model.store.zero_grads()
        model.backward_batch(dflat.reshape(logits.shape), caches, grads)
        return loss / wsum, grads

    loss, grads = loss_and_grads()
    names = [n for n in model.store.params if n != EMB_NAME]
    report = grad_check(lambda: loss_and_grads()[0], model.store, grads,
                        param_names=names, max_entries_per_param=20)
    assert report["max_rel_error"] <= 1e-4


def _full_logits_xent(model, inputs, targets, weights, cond, rng):
    """The loss and gradients from logits at every position, padding
    included: the reference for the target-position path."""
    logits, caches = model.forward_batch(inputs, cond, train=True, rng=rng)
    V = logits.shape[-1]
    loss, probs, _ = softmax_xent_batch(
        logits.reshape(-1, V), targets.reshape(-1), weights.reshape(-1))
    dflat = xent_grad(probs, targets.reshape(-1), weights.reshape(-1))
    grads = model.store.zero_grads()
    model.backward_batch(dflat.reshape(logits.shape), caches, grads)
    return logits, loss, grads


def test_target_positions_match_full_logits(table):
    model, poems = fresh_model(table, n_layers=3, dropout=0.3)
    # one batch of poems 4 to 8 lines long: padding of many lengths
    batch = next(model.batches(poems, table, batch_size=len(poems)))
    inputs, targets, weights, cond = batch
    assert 0.2 < 1.0 - weights.mean() < 0.8
    logits, loss, grads = _full_logits_xent(
        model, *batch, rng=np.random.default_rng(3))
    loss_t, _, grads_t = model.loss_and_grads(
        batch, rng=np.random.default_rng(3))
    assert loss_t == pytest.approx(loss, rel=0, abs=1e-12)
    assert sorted(grads_t) == sorted(grads)
    for name in grads:
        assert np.allclose(grads_t[name], grads[name], rtol=0,
                           atol=1e-12), name
    # the default call still returns every position's logits, and those
    # at the target positions are the gathered ones
    full, _ = model.forward_batch(inputs, cond)
    T, B = inputs.shape
    assert full.shape == (T, B, len(model.vocab))
    positions = np.flatnonzero(weights > 0)
    gathered, _ = model.forward_batch(inputs, cond, positions=positions)
    assert np.allclose(full.reshape(T * B, -1)[positions], gathered,
                       rtol=0, atol=1e-12)


def test_perplexity_takes_the_loss_without_its_gradient(table,
                                                       monkeypatch):
    """Scoring never builds dlogits, and its losses are the training
    path's, bit for bit."""
    from acropoet import poemlm
    model, poems = fresh_model(table)
    grads_built = []
    real = poemlm.xent_grad

    def counted(*xent):
        grads_built.append(len(xent[0]))
        return real(*xent)
    monkeypatch.setattr(poemlm, "xent_grad", counted)
    ppl = model.perplexity(poems, table)
    assert grads_built == []
    total, count = 0.0, 0
    for batch in model.batches(poems, table, model.cfg.batch_size):
        loss, wsum, _ = model.loss_and_grads(batch)
        total += loss
        count += int(wsum)
    assert len(grads_built) == -(-len(poems) // model.cfg.batch_size)
    assert ppl == float(np.exp(total / count))


def test_lm_forward_equals_the_last_row_of_full_logits(table):
    model, poems = fresh_model(table)
    cond = model.poem_condition(poems[2], table)
    ids = model.vocab.encode_poem(poems[2])
    for i in (1, 4, len(ids)):
        logits, _ = model.forward_batch(np.asarray(ids[:i])[:, None],
                                        cond[None, :])
        assert np.allclose(model.lm_forward(ids[:i], cond),
                           softmax(logits[-1, 0]), rtol=0, atol=1e-12)


def test_variant_prerequisites(table):
    poems = make_poems(10, seed=4)
    cfg = LmConfig(n_layers=1, hidden=8, max_epochs=1, seed=0)
    with pytest.raises(PoemLmError, match="silver"):
        train_variant(LmVariant.from_name("pred/gold+"), poems[:8],
                      poems[8:], [], None, table, cfg)
    with pytest.raises(PoemLmError, match="pretrain"):
        train_variant(LmVariant.from_name("wiki+"), poems[:8], poems[8:],
                      poems[:4], None, table, cfg)


def test_wiki_variant_runs_and_keeps_shapes(table):
    poems = make_poems(16, seed=4)
    sents = make_plain_sentences(20, seed=5)
    cfg = LmConfig(n_layers=1, hidden=12, dropout=0.0, lr=0.01,
                   batch_size=8, patience=1, max_epochs=2, seed=0)
    trained = train_variant(LmVariant.from_name("wiki+"), poems[:12],
                            poems[12:], poems[:6], sents, table, cfg)
    phases = {h["phase"] for h in trained.history}
    assert phases == {"pretrain", "finetune"}


def test_checkpoint_roundtrip_preserves_ppl(table, tmp_path):
    model, poems = fresh_model(table, max_epochs=1, patience=10)
    train_lm(model, poems[:20], poems[20:], table)
    before = model.perplexity(poems[20:], table)
    p1 = tmp_path / "lm.ckpt"
    save_lm(p1, TrainedLm(model=model, history=[]))
    loaded = load_lm(p1)
    after = loaded.model.perplexity(poems[20:], table)
    assert before == after  # bit-exact
    p2 = tmp_path / "lm2.ckpt"
    save_lm(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()


def test_training_leaves_fixed_embeddings_untouched(table):
    model, poems = fresh_model(table, max_epochs=2, patience=10)
    passed_in = model.store[EMB_NAME].copy()
    train_lm(model, poems[:20], poems[20:], table,
             pretrain_sentences=make_plain_sentences(20, seed=1))
    train_lm(model, poems[:20], poems[20:], table)
    assert np.array_equal(model.store[EMB_NAME], passed_in)
    assert EMB_NAME not in model.store.m
    assert EMB_NAME not in model.store.v
    assert EMB_NAME not in model.store.zero_grads()
