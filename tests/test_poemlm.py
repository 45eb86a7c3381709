import tracemalloc

import numpy as np
import pytest
from helpers import make_plain_sentences, make_poems, make_table
from reference import lm_forward

from acropoet import poemlm
from acropoet.corpus import Poem, Vocabulary, build_vocabulary, poem_initials
from acropoet.net import grad_check, softmax, softmax_xent_batch, xent_grad
from acropoet.poemlm import (
    ACROSTIC_DIM, EMB_NAME, LmConfig, LmVariant, PoemLM, PoemLmError,
    TrainedLm, build_embedding_matrix, load_lm, pretrain_poems, save_lm,
    train_lm, train_variant,
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


def poem_condition(model, poem, table):
    """The condition `batches` gives `poem`."""
    return model.condition(poem.topic, poem_initials(poem), table)


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
    probs = lm_forward(model, [model.vocab.bos_id], cond)
    V = len(model.vocab)
    assert np.allclose(probs, 1.0 / V)


def test_lm_forward_valid_distribution(table):
    model, poems = fresh_model(table)
    rng = np.random.default_rng(0)
    for _ in range(20):
        L = int(rng.integers(1, 8))
        prefix = [model.vocab.bos_id] + list(
            rng.integers(0, len(model.vocab), size=L))
        cond = poem_condition(model, poems[0], None)
        probs = lm_forward(model, prefix, cond)
        assert probs.min() >= 0
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_lm_forward_requires_bos(table):
    model, _ = fresh_model(table)
    with pytest.raises(PoemLmError):
        lm_forward(model, [model.vocab.eos_id], model.zero_condition())


def test_lm_forward_deterministic(table):
    model, poems = fresh_model(table)
    cond = poem_condition(model, poems[0], table)
    a = lm_forward(model, [model.vocab.bos_id], cond)
    b = lm_forward(model, [model.vocab.bos_id], cond)
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
        poem_cond = poem_condition(model, poem, table)
        for i in range(1, len(ids)):
            total -= np.log(lm_forward(model, ids[:i], poem_cond)[ids[i]])
            count += 1
    assert wsum == count
    assert loss == pytest.approx(total, abs=1e-9)


def test_step_state_matches_full_forward(table):
    model, poems = fresh_model(table)
    cond = poem_condition(model, poems[1], table)
    ids = model.vocab.encode_poem(poems[1])[:6]
    state, step_cond = model.init_state(), model.project_condition(cond)
    for i, tok in enumerate(ids):
        probs_inc = model.step(state, tok, step_cond)
        probs_full = lm_forward(model, ids[:i + 1], cond)
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
        results.append({k: p.copy() for k, p in model.store.items()})
    for name in results[0]:
        assert np.array_equal(results[0][name], results[1][name])


def test_training_bit_reproducible(table):
    snaps = []
    for _ in range(2):
        model, poems = fresh_model(table, seed=11, max_epochs=2, patience=10)
        train_lm(model, poems[:20], poems[20:], table)
        snaps.append({k: p.copy() for k, p in model.store.items()})
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
        logits, (H, caches) = model.forward_batch(inputs, cond)
        V = logits.shape[-1]
        loss, probs, wsum = softmax_xent_batch(
            logits.reshape(-1, V), targets.reshape(-1), weights.reshape(-1))
        dflat = xent_grad(probs, targets.reshape(-1), weights.reshape(-1),
                          wsum)
        grads = model.store.zero_grads()
        dH = model.out.backward(dflat.reshape(logits.shape), H, grads)
        model.backward_batch(dH, caches, grads)
        return loss / wsum, grads

    loss, grads = loss_and_grads()
    assert EMB_NAME not in grads  # the fixed embeddings take no gradient
    report = grad_check(lambda: loss_and_grads()[0], model.store, grads,
                        max_entries_per_param=20)
    assert report["max_rel_error"] <= 1e-4


def _full_logits_xent(model, inputs, targets, weights, cond, rng):
    """The loss and gradients from logits at every position, padding
    included: the reference for the target-position path."""
    logits, (H, caches) = model.forward_batch(inputs, cond, rng=rng)
    V = logits.shape[-1]
    loss, probs, wsum = softmax_xent_batch(
        logits.reshape(-1, V), targets.reshape(-1), weights.reshape(-1))
    dflat = xent_grad(probs, targets.reshape(-1), weights.reshape(-1), wsum)
    grads = model.store.zero_grads()
    dH = model.out.backward(dflat.reshape(logits.shape), H, grads)
    model.backward_batch(dH, caches, grads)
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


@pytest.mark.parametrize("head_rows", [5, 7])
def test_chunked_head_matches_full_logits(table, monkeypatch, head_rows):
    """Batches that span several head chunks, the last one shorter, give
    the whole-array loss and gradients."""
    monkeypatch.setattr(poemlm, "HEAD_ROWS", head_rows)
    model, poems = fresh_model(table, n_layers=2, dropout=0.3)
    batch = next(model.batches(poems[:3], table, batch_size=3))
    rows = int((batch[2] > 0).sum())
    chunks = poemlm.head_chunks(rows)
    assert len(chunks) > 2 and rows % head_rows
    assert [lo for lo, _ in chunks] == list(range(0, rows, head_rows))
    assert [hi for _, hi in chunks] == [lo for lo, _ in chunks[1:]] + [rows]
    _, loss, grads = _full_logits_xent(model, *batch,
                                       rng=np.random.default_rng(4))
    loss_t, wsum, grads_t = model.loss_and_grads(
        batch, rng=np.random.default_rng(4))
    assert wsum == rows
    assert loss_t == pytest.approx(loss, rel=0, abs=1e-12)
    assert sorted(grads_t) == sorted(grads)
    for name in grads:
        assert np.allclose(grads_t[name], grads[name], rtol=0,
                           atol=1e-12), name


def test_training_builds_no_whole_batch_logits(table):
    """The head's chunks keep one loss_and_grads call's allocation peak
    below one (positions, V) array; the whole-array head builds two, the
    logits and their softmax."""
    poems = make_poems(40, seed=6)
    vocab = Vocabulary(build_vocabulary(poems).non_special_tokens()
                       + [f"w{i}" for i in range(2000)])
    model = PoemLM(vocab, LmConfig(n_layers=1, hidden=8, dropout=0.0),
                   topic_dim=table.dim,
                   emb_matrix=build_embedding_matrix(vocab, table),
                   variant=LmVariant.from_name("gold+"))
    batch = next(model.batches(poems, table, batch_size=len(poems)))
    rows = int((batch[2] > 0).sum())
    assert rows > 4 * poemlm.HEAD_ROWS
    model.loss_and_grads(batch)  # warm up: first-call allocations
    tracemalloc.start()
    try:
        model.loss_and_grads(batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < rows * len(vocab) * 8


def test_perplexity_takes_the_loss_without_its_gradient(table,
                                                       monkeypatch):
    """Scoring never builds dlogits, and its losses are the training
    path's, bit for bit, when each batch's head is one chunk (chunked
    losses are checked against the whole array above)."""
    model, poems = fresh_model(table)
    batches = list(model.batches(poems, table, model.cfg.batch_size))
    monkeypatch.setattr(poemlm, "HEAD_ROWS",
                        max(int((b[2] > 0).sum()) for b in batches))
    grads_built = []
    real = poemlm.xent_grad

    def counted(*xent):
        grads_built.append(len(xent[0]))
        return real(*xent)
    monkeypatch.setattr(poemlm, "xent_grad", counted)
    ppl = model.perplexity(poems, table)
    assert grads_built == []
    total, count = 0.0, 0
    for batch in batches:
        loss, wsum, _ = model.loss_and_grads(batch)
        total += loss
        count += int(wsum)
    assert len(grads_built) == -(-len(poems) // model.cfg.batch_size)
    assert ppl == float(np.exp(total / count))


def test_lm_forward_equals_the_last_row_of_full_logits(table):
    model, poems = fresh_model(table)
    cond = poem_condition(model, poems[2], table)
    ids = model.vocab.encode_poem(poems[2])
    for i in (1, 4, len(ids)):
        logits, _ = model.forward_batch(np.asarray(ids[:i])[:, None],
                                        cond[None, :])
        assert np.allclose(lm_forward(model, ids[:i], cond),
                           softmax(logits[-1, 0]), rtol=0, atol=1e-12)


@pytest.mark.parametrize("bad", [-1, "V"])
def test_a_token_id_out_of_range_errors(table, bad):
    """numpy would index a negative id from the end and give a wrong
    answer with no error."""
    model, poems = fresh_model(table)
    V = len(model.vocab)
    bad = V if bad == "V" else bad
    cond = poem_condition(model, poems[0], table)
    with pytest.raises(PoemLmError, match=f"token id {bad} out of range"):
        model.step(model.init_state(), bad, model.project_condition(cond))
    ids = np.array([[model.vocab.bos_id], [bad]])
    with pytest.raises(PoemLmError, match="token id out of range"):
        model.forward_batch(ids, cond[None, :])


def test_embedding_matrix_must_fit_the_vocabulary(table):
    model, _ = fresh_model(table)
    with pytest.raises(PoemLmError, match="shape mismatch"):
        PoemLM(model.vocab, model.cfg, topic_dim=table.dim,
               emb_matrix=np.zeros((len(model.vocab) - 1, table.dim)),
               variant=model.variant)


def test_variant_needs_training_and_dev_poems(table):
    poems = make_poems(10, seed=4)
    cfg = LmConfig(n_layers=1, hidden=8, max_epochs=1, seed=0)
    for train, dev in ((poems, []), ([], poems)):
        with pytest.raises(PoemLmError, match="empty training or dev"):
            train_variant(LmVariant.from_name("gold+"), train, dev, None,
                          None, table, cfg)


def test_variant_prerequisites(table):
    poems = make_poems(10, seed=4)
    cfg = LmConfig(n_layers=1, hidden=8, max_epochs=1, seed=0)
    with pytest.raises(PoemLmError, match="silver"):
        train_variant(LmVariant.from_name("pred/gold+"), poems[:8],
                      poems[8:], [], None, table, cfg)
    with pytest.raises(PoemLmError, match="pretrain"):
        train_variant(LmVariant.from_name("wiki+"), poems[:8], poems[8:],
                      poems[:4], None, table, cfg)


def test_variant_flags_are_bools():
    for name in LmVariant.NAMES:
        variant = LmVariant.from_name(name)
        assert variant.silver is name.startswith(("pred/gold", "wiki"))
        assert variant.pretrain is name.startswith("wiki")
        assert variant.topic_channel is name.endswith("+")


@pytest.mark.parametrize("pretrain_given", [True, False])
@pytest.mark.parametrize("silver_given", [True, False])
@pytest.mark.parametrize("name", list(LmVariant.NAMES))
def test_a_variant_is_given_exactly_the_corpora_it_reads(
        table, name, silver_given, pretrain_given):
    poems = make_poems(10, seed=4)
    variant = LmVariant.from_name(name)
    cfg = LmConfig(n_layers=1, hidden=8, batch_size=8, max_epochs=1, seed=0)

    def train():
        return train_variant(
            variant, poems[:8], poems[8:],
            poems[:4] if silver_given else None,
            make_plain_sentences(10, seed=5) if pretrain_given else None,
            table, cfg)

    wrong = [corpus for corpus, reads, given in [
        ("silver", variant.silver, silver_given),
        ("pretrain", variant.pretrain, pretrain_given)] if reads != given]
    if not wrong:
        phases = {h["phase"] for h in train().history}
        assert phases == ({"pretrain", "finetune"} if variant.pretrain
                          else {"finetune"})
        return
    with pytest.raises(PoemLmError) as raised:
        train()
    message = str(raised.value)
    assert f"variant {name!r}" in message
    assert wrong[0] in message


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
    train_lm(model, *pretrain_poems(make_plain_sentences(20, seed=1)),
             table, zero_cond=True)
    train_lm(model, poems[:20], poems[20:], table)
    assert np.array_equal(model.store[EMB_NAME], passed_in)
    assert EMB_NAME not in model.store.m
    assert EMB_NAME not in model.store.v
    assert EMB_NAME not in model.store.zero_grads()
