import hashlib

import numpy as np
import pytest
from helpers import make_sonnets

from acropoet.corpus import Poem, RawDocument, build_vocabulary
from acropoet.net import CE_EPS, grad_check, lstm_step, pad_ids, softmax
from acropoet.rhymer import (
    BOS_ID, EOS_ID, MAX_WORD_LEN, PAD_ID, RhymeExample, RhymerConfig,
    RhymerError, RhymerModel, beam_search, choose_rhyme, decode_chars,
    encode_chars, extract_rhyme_pairs, load_rhymer, save_rhymer,
    train_rhymer,
)


# --- rhyme pair extraction --------------------------------------------------

def test_seven_examples_per_sonnet():
    sonnets = make_sonnets(3, seed=0)
    examples = extract_rhyme_pairs(sonnets)
    assert len(examples) == 21

ENDS = "abcdefghijklmn"  # distinct line-final words enda..endn

def test_pair_structure_matches_scheme():
    lines = [f"line number {i} end{ENDS[i]}," for i in range(14)]
    doc = RawDocument(lines=lines, source_tag="sonnet")
    examples = extract_rhyme_pairs([doc])
    got = sorted((ex.a, ex.c) for ex in examples)
    expected = sorted((f"end{ENDS[i - 1]}", f"end{ENDS[j - 1]}")
                      for i, j in [(1, 3), (2, 4), (5, 7), (6, 8), (9, 11),
                                   (10, 12), (13, 14)])
    assert got == expected

def test_b_ends_before_final_word_of_pair_line():
    lines = [f"alpha beta end{ENDS[i]}" for i in range(14)]
    doc = RawDocument(lines=lines, source_tag="sonnet")
    examples = extract_rhyme_pairs([doc])
    gg = [ex for ex in examples if ex.a == "endm"][0]
    assert gg.c == "endn"
    assert gg.b.endswith("endm\nalpha beta ")
    assert "endn" not in gg.b

def test_wrong_line_count_skipped(caplog):
    doc = RawDocument(lines=["x y"] * 13, source_tag="sonnet")
    with caplog.at_level("WARNING"):
        assert extract_rhyme_pairs([doc]) == []
    assert "skipping" in caplog.text


# --- generic beam search ----------------------------------------------------

N_SYMS = 5  # symbols 0..3 plus EOS=4
TOY_EOS = 4

def _toy_logp(history, salt=0):
    digest = hashlib.blake2b(repr((salt, history)).encode(),
                             digest_size=8).digest()
    rng = np.random.default_rng(int.from_bytes(digest, "little"))
    logits = rng.normal(size=N_SYMS) * 2.0
    z = logits - logits.max()
    return z - np.log(np.exp(z).sum())

def make_toy_step(salt=0):
    def step_fn(prev, state):
        history = () if prev is None else state + (prev,)
        return _toy_logp(history, salt), history
    return step_fn

def exhaustive_oracle(salt, max_len, top):
    """Score every string over the content alphabet up to max_len."""
    results = []
    def rec(prefix, score):
        if len(prefix) < max_len:
            results.append((prefix, score + _toy_logp(prefix, salt)[TOY_EOS]))
            for sym in range(N_SYMS - 1):
                rec(prefix + (sym,), score + _toy_logp(prefix, salt)[sym])
        else:
            results.append((prefix, score))
    rec((), 0.0)
    results.sort(key=lambda e: (-e[1], e[0]))
    return results[:top]

@pytest.mark.parametrize("salt", range(10))
def test_beam_matches_exhaustive(salt):
    got = beam_search(make_toy_step(salt), eos_id=TOY_EOS, width=5,
                      max_len=4)[:5]
    want = exhaustive_oracle(salt, max_len=4, top=5)
    assert [ids for ids, _ in got] == [ids for ids, _ in want]
    for (_, s1), (_, s2) in zip(got, want):
        assert s1 == pytest.approx(s2, abs=1e-12)

def test_beam_width_one_is_greedy(tiny_rhymer):
    model, _ = tiny_rhymer
    cands = model.rhyme_candidates("cat", "the fat cat sat on a", width=1)
    assert len(cands) == 1

def test_candidate_scores_non_increasing(tiny_rhymer):
    model, _ = tiny_rhymer
    cands = model.rhyme_candidates("cat", "the fat cat sat on a", width=5)
    scores = [s for _, s in cands]
    assert scores == sorted(scores, reverse=True)


# --- training / overfit fixture ---------------------------------------------

@pytest.fixture(scope="module")
def tiny_rhymer():
    examples = [
        RhymeExample(a="cat", b="sat on a", c="hat"),
        RhymeExample(a="cat", b="fly to your", c="bat"),
        RhymeExample(a="day", b="come what", c="may"),
        RhymeExample(a="sea", b="wild and", c="free"),
    ]
    cfg = RhymerConfig(word_hidden=12, poem_hidden=16, decoder_hidden=16,
                       char_dim=8, lr=0.01, batch_size=2, patience=1000,
                       max_epochs=1000, seed=5)
    model = RhymerModel(cfg)
    history = train_rhymer(model, examples, examples)
    return model, examples

def test_overfit_nll_below_threshold(tiny_rhymer):
    model, examples = tiny_rhymer
    assert model.per_char_nll(examples) < 0.1

def test_overfit_recovers_target_in_top2(tiny_rhymer):
    model, _ = tiny_rhymer
    cands = model.rhyme_candidates("cat", "the fat cat sat on a", width=5)
    assert "hat" in [w for w, _ in cands[:2]]

def _per_hypothesis_candidates(model, a, b, width):
    """rhyme_candidates as the `beam_search` adapter drives it: one
    decoder step per hypothesis on the full, unprojected decoder input."""
    a_enc, b_enc = model._encode_inputs(a, b)
    (a_ids, a_len), (b_ids, b_len) = (pad_ids([a_enc], PAD_ID),
                                      pad_ids([b_enc], PAD_ID))
    enc_a, _, enc_b, _ = model._encoders_forward(a_ids, a_len, b_ids, b_len)
    cond = np.concatenate([enc_a[0], enc_b[0]])
    Wx, Wh, bias = model.decoder._weights()
    W_out, b_out = model.store["rh.out.W"], model.store["rh.out.b"]
    H = model.cfg.decoder_hidden

    def step_fn(prev, state):
        h, c = state if state is not None else (np.zeros(H), np.zeros(H))
        x = np.concatenate(
            [model.char_emb[BOS_ID if prev is None else prev], cond])
        h, c = lstm_step(x, h, c, Wx, Wh, bias)
        logp = np.log(np.clip(softmax(h @ W_out + b_out), CE_EPS, None))
        logp[[PAD_ID, BOS_ID]] = -np.inf
        return logp, (h, c)

    out = []
    for ids, score in beam_search(step_fn, EOS_ID, width, MAX_WORD_LEN):
        word = decode_chars(ids)
        if word and word not in dict(out):
            out.append((word, score))
        if len(out) == width:
            break
    return out

BEAM_INPUTS = [("cat", "the fat cat sat on a", 5), ("day", "", 3),
               ("", "no partner word here", 5), ("seashore", "q", 1),
               ("night", "a long context " * 40, 5), ("free", "wild and", 8)]

def _assert_same_candidates(model):
    for a, b, width in BEAM_INPUTS:
        got = model.rhyme_candidates(a, b, width=width)
        want = _per_hypothesis_candidates(model, a, b, width)
        for (w1, s1), (w2, s2) in zip(got, want):
            assert s1 == pytest.approx(s2, rel=0, abs=1e-12), (a, b, w1, w2)
        # a tie that the batched sums broke the other way shows here
        assert [w for w, _ in got] == [w for w, _ in want], (
            f"candidate order differs for {(a, b, width)}: batched {got}, "
            f"per hypothesis {want}")

@pytest.mark.parametrize("seed", range(4))
def test_batched_beam_equals_per_hypothesis_beam(seed):
    _assert_same_candidates(RhymerModel(RhymerConfig.desk_scale(seed=seed)))

def test_batched_beam_equals_per_hypothesis_beam_trained(tiny_rhymer):
    model, _ = tiny_rhymer
    _assert_same_candidates(model)

def test_training_requires_data():
    model = RhymerModel(RhymerConfig.desk_scale())
    with pytest.raises(RhymerError):
        train_rhymer(model, [], [])

def test_word_encoder_output_dim():
    cfg = RhymerConfig.desk_scale()
    model = RhymerModel(cfg)
    assert model.word_enc.out_dim == 2 * cfg.word_hidden

@pytest.mark.parametrize("seed", range(3))
def test_batched_encodings_equal_each_example_encoded_alone(seed):
    """A batch of mixed word and context lengths gives every example the
    encodings it gets alone, in the one-column batch of generation."""
    model = RhymerModel(RhymerConfig.desk_scale(seed=seed,
                                                max_context_chars=12))
    examples = [RhymeExample(a="cat", b="sat on a", c="hat"),
                RhymeExample(a="seashore", b="", c="x"),
                RhymeExample(a="q", b="a context longer than the cut",
                             c="b")]

    def encode(exs):
        (a, a_len), (b, b_len), _, _ = model._encode_batch(exs)
        enc_a, _, enc_b, _ = model._encoders_forward(a, a_len, b, b_len)
        return np.concatenate([enc_a, enc_b], axis=1)

    batched = encode(examples)
    for j, ex in enumerate(examples):
        assert np.allclose(batched[j], encode([ex])[0], rtol=0, atol=1e-12)


# --- choose_rhyme -----------------------------------------------------------

def _vocab():
    return build_vocabulary(
        [Poem(lines=[["hat", "bat", "day", "may"]] * 4)], max_size=10)

def test_choose_single_candidate():
    v = _vocab()
    dist = np.full(len(v), 1.0 / len(v))
    assert choose_rhyme([("hat", -1.0)], dist, v) == "hat"

def test_choose_lm_argmax_matches_oracle():
    v = _vocab()
    rng = np.random.default_rng(0)
    dist = rng.random(len(v))
    dist /= dist.sum()
    cands = [("hat", -1.0), ("bat", -2.0), ("day", -3.0)]
    got = choose_rhyme(cands, dist, v)
    want = max(cands, key=lambda wc: dist[v.token_to_id[wc[0]]])[0]
    assert got == want

def test_choose_tie_prefers_rhymer_order():
    v = _vocab()
    dist = np.full(len(v), 1.0 / len(v))  # all LM probs equal
    assert choose_rhyme([("bat", -1.0), ("hat", -2.0)], dist, v) == "bat"

def test_choose_all_unk_falls_back(caplog):
    v = _vocab()
    dist = np.full(len(v), 1.0 / len(v))
    with caplog.at_level("WARNING"):
        got = choose_rhyme([("zzz", -1.0), ("qqq", -2.0)], dist, v)
    assert got == "zzz"
    assert "out of LM vocabulary" in caplog.text

def test_choose_empty_errors():
    with pytest.raises(RhymerError):
        choose_rhyme([], np.ones(4), _vocab())


# --- gradients / checkpoints ------------------------------------------------

def test_gradcheck_rhymer_full():
    cfg = RhymerConfig(word_hidden=3, poem_hidden=4, decoder_hidden=4,
                       char_dim=3, seed=2)
    model = RhymerModel(cfg)
    examples = [RhymeExample(a="ab", b="xy z", c="cd"),
                RhymeExample(a="q", b="longer context here", c="be")]

    def loss_fn():
        loss, wsum, _ = model.loss_and_grads(examples)
        return loss / wsum

    # loss_and_grads already returns gradients of loss/wsum
    _, wsum, grads = model.loss_and_grads(examples)
    report = grad_check(loss_fn, model.store, grads,
                        max_entries_per_param=15)
    assert report["max_rel_error"] <= 1e-4

@pytest.mark.parametrize("seed", range(3))
def test_gradcheck_rhymer_encoders_via_decoder_constant_input(seed):
    """The encodings reach the decoder only as its constant input, so the
    encoders' gradients all flow through d_const; check every entry of
    theirs and of the decoder's input weights."""
    cfg = RhymerConfig(word_hidden=2, poem_hidden=3, decoder_hidden=3,
                       char_dim=2, seed=seed)
    model = RhymerModel(cfg)
    examples = [RhymeExample(a="ab", b="xy z", c="cde"),
                RhymeExample(a="q", b="a longer context", c="b"),
                RhymeExample(a="sea", b="wild and", c="free")]

    def loss_fn():
        loss, wsum, _ = model.loss_and_grads(examples)
        return loss / wsum

    _, _, grads = model.loss_and_grads(examples)
    names = [n for n in model.store
             if n.startswith(("rh.word.", "rh.poem.", "rh.dec.Wx"))]
    assert all(np.any(grads[n]) for n in names)
    report = grad_check(loss_fn, model.store, grads, param_names=names,
                        max_entries_per_param=200)
    assert report["max_rel_error"] <= 1e-4


def test_rhymer_checkpoint_roundtrip(tmp_path, tiny_rhymer):
    model, examples = tiny_rhymer
    p1 = tmp_path / "rh.ckpt"
    save_rhymer(p1, model, history=[])
    loaded = load_rhymer(p1)
    assert loaded.per_char_nll(examples) == model.per_char_nll(examples)
    c1 = model.rhyme_candidates("cat", "the fat cat sat on a")
    c2 = loaded.rhyme_candidates("cat", "the fat cat sat on a")
    assert c1 == c2


def test_encode_chars_drops_unknown():
    ids = encode_chars("Abcé 1!")
    assert EOS_ID not in ids
    from acropoet.rhymer import decode_chars
    assert decode_chars(ids) == "abc 1!"
