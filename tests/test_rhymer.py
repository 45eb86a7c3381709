import hashlib

import numpy as np
import pytest
from helpers import make_sonnets
from reference import (
    beam_search, exhaustive_oracle, rhyme_candidates, run_to_max_len,
)

from acropoet import rhymer
from acropoet.corpus import Poem, RawDocument, build_vocabulary
from acropoet.net import grad_check, pad_ids
from acropoet.rhymer import (
    EOS_ID, PAD_ID, PoemContext, RhymeExample, RhymerConfig, RhymerError,
    RhymerModel, choose_rhyme, decode_chars, encode_chars,
    extract_rhyme_pairs, load_rhymer, save_rhymer, train_rhymer,
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

def test_a_pair_line_without_a_word_is_skipped(caplog):
    """Line 3 holds no word, so pair (1, 3) is skipped with a warning and
    the other six pairs are kept."""
    lines = [f"alpha beta end{ENDS[i]}" for i in range(14)]
    lines[2] = "1234 -- !!"
    doc = RawDocument(lines=lines, source_tag="sonnet")
    with caplog.at_level("WARNING"):
        examples = extract_rhyme_pairs([doc])
    assert "no rhyme word on line 1 or 3" in caplog.text
    assert len(examples) == 6
    assert "enda" not in [ex.a for ex in examples]

@pytest.mark.parametrize("a, c", [("", "hat"), ("cat", "")])
def test_rhyme_words_must_be_non_empty(a, c):
    with pytest.raises(RhymerError, match="non-empty"):
        RhymeExample(a=a, b="sat on a", c=c)

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

def toy_oracle(salt, max_len, top):
    """Every string over the toy's content alphabet up to max_len, scored."""
    return exhaustive_oracle(lambda history: _toy_logp(history, salt),
                             N_SYMS, TOY_EOS, max_len, top)

@pytest.mark.parametrize("salt", range(10))
def test_beam_matches_exhaustive(salt):
    got = beam_search(make_toy_step(salt), eos_id=TOY_EOS, width=5,
                      max_len=4)[:5]
    want = toy_oracle(salt, max_len=4, top=5)
    assert [ids for ids, _ in got] == [ids for ids, _ in want]
    for (_, s1), (_, s2) in zip(got, want):
        assert s1 == pytest.approx(s2, abs=1e-12)

def _table_step(rows):
    """A toy step whose log-prob row is rows[history]."""
    def step_fn(prev, state):
        history = () if prev is None else state + (prev,)
        return np.array(rows[history], dtype=float), history
    return step_fn

def test_top_cut_ties_go_to_the_smaller_symbol():
    """Symbols 5 and 9 lead and the other content symbols tie; the width-5
    beam holds the two leaders and the three smallest tied symbols."""
    eos = 11
    first = np.full(12, np.log(0.4 / 9))
    first[[5, 9]] = np.log(0.3)
    first[eos] = -np.inf
    stop = np.full(12, -np.inf)
    stop[eos] = 0.0
    rows = {(): first, **{(sym,): stop for sym in range(eos)}}
    got = beam_search(_table_step(rows), eos_id=eos, width=5, max_len=4)
    assert [ids for ids, _ in got] == [(5,), (9,), (0,), (1,), (2,)]

@pytest.mark.parametrize("max_len", [0, -1])
def test_beam_rejects_max_len_below_one(max_len):
    with pytest.raises(RhymerError, match="max_len"):
        beam_search(make_toy_step(), eos_id=TOY_EOS, width=3,
                    max_len=max_len)
    assert beam_search(make_toy_step(), eos_id=TOY_EOS, width=3, max_len=1)

@pytest.mark.parametrize("width", [0, -1])
def test_beam_rejects_width_below_one(width):
    with pytest.raises(RhymerError, match="width"):
        rhymer.beam_search_rows(None, None, None, eos_id=TOY_EOS,
                                width=width, max_len=4)

def test_beam_width_one_is_greedy(tiny_rhymer):
    model, _ = tiny_rhymer
    cands = model.rhyme_candidates("cat", "the fat cat sat on a", width=1)
    assert len(cands) == 1

def test_candidate_scores_non_increasing(tiny_rhymer):
    model, _ = tiny_rhymer
    cands = model.rhyme_candidates("cat", "the fat cat sat on a", width=5)
    scores = [s for _, s in cands]
    assert scores == sorted(scores, reverse=True)


# --- training / overfit ------------------------------------------------------

def test_overfit_nll_below_threshold(tiny_rhymer):
    model, examples = tiny_rhymer
    assert model.per_char_nll(examples) < 0.1

def test_overfit_recovers_target_in_top2(tiny_rhymer):
    model, _ = tiny_rhymer
    cands = model.rhyme_candidates("cat", "the fat cat sat on a", width=5)
    assert "hat" in [w for w, _ in cands[:2]]

BEAM_INPUTS = [("cat", "the fat cat sat on a", 5), ("day", "", 3),
               ("", "no partner word here", 5), ("seashore", "q", 1),
               ("night", "a long context " * 40, 5), ("free", "wild and", 8)]

def _assert_same_candidates(model):
    for a, b, width in BEAM_INPUTS:
        got = model.rhyme_candidates(a, b, width=width)
        want = rhyme_candidates(model, a, b, width)
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

@pytest.mark.parametrize("seed", range(4))
def test_rhyme_candidates_are_distinct_words(seed):
    """Completed id tuples are distinct and hold no PAD, BOS or EOS, so
    their words are distinct without a filter."""
    model = RhymerModel(RhymerConfig.desk_scale(seed=seed))
    for a, b, width in BEAM_INPUTS:
        words = [w for w, _ in model.rhyme_candidates(a, b, width=width)]
        assert words and len(set(words)) == len(words), (a, b, width)

# --- the stop once the best completions are final -----------------------------

def _leading(hyps, width):
    """The first `width` entries and the first `width` non-empty ones."""
    return hyps[:width], [h for h in hyps if h[0]][:width]

def _beam_both_ways(monkeypatch, search):
    """search() with the stop, then with `beam_search_rows` run to
    max_len; `beam_search` and `rhyme_candidates` both go through it."""
    got = search()
    with monkeypatch.context() as m:
        m.setattr(rhymer, "beam_search_rows", run_to_max_len)
        want = search()
    return got, want

def _masked_toy_logp(history, salt):
    """`_toy_logp` with about a third of the symbols, EOS too, at -inf,
    but never all of them."""
    digest = hashlib.blake2b(repr(("masked", salt, history)).encode(),
                             digest_size=8).digest()
    rng = np.random.default_rng(int.from_bytes(digest, "little"))
    logits = rng.normal(size=N_SYMS) * 2.0
    logits[rng.random(N_SYMS) < 0.35] = -np.inf
    if np.all(logits == -np.inf):
        logits[rng.integers(N_SYMS)] = 0.0
    z = logits - logits.max()
    return z - np.log(np.exp(z).sum())

@pytest.mark.parametrize("salt", range(6))
@pytest.mark.parametrize("toy_logp", [_toy_logp, _masked_toy_logp])
def test_stop_keeps_the_leading_hypotheses_bit_for_bit(monkeypatch, toy_logp,
                                                       salt):
    def step_fn(prev, state):
        history = () if prev is None else state + (prev,)
        return toy_logp(history, salt), history

    for width in range(1, 7):
        for max_len in range(1, 7):
            got, want = _beam_both_ways(monkeypatch, lambda: beam_search(
                step_fn, TOY_EOS, width, max_len))
            assert _leading(got, width) == _leading(want, width), (
                width, max_len)

def test_stop_waits_for_a_later_completion_that_ties():
    """(0,) and (1,) complete at -2 log 2 while (0, 0) is live at the same
    score; its EOS then costs nothing, so it completes tied and sorts
    before (1,).  Stopping on a tie would lose it."""
    half = np.log(0.5)
    ninf = -np.inf
    rows = {(): [half, half, ninf], (0,): [half, ninf, half],
            (1,): [half, ninf, half], (0, 0): [ninf, ninf, 0.0],
            (1, 0): [ninf, ninf, 0.0]}
    got = beam_search(_table_step(rows), eos_id=2, width=2, max_len=4)
    assert got[:2] == [((0,), 2 * half), ((0, 0), 2 * half)]

def test_stop_waits_for_width_completions():
    """After step 2 only (0,) has completed above the best live score; a
    width-2 search must go on to complete (1, 0) as its second word."""
    log, ninf = np.log, -np.inf
    rows = {(): [log(0.5), log(0.4), log(0.1)],
            (0,): [log(0.1), ninf, log(0.9)],
            (1,): [log(0.5), log(0.5), ninf], (0, 0): [ninf, ninf, 0.0],
            (1, 0): [ninf, ninf, 0.0], (1, 1): [ninf, ninf, 0.0]}
    got = beam_search(_table_step(rows), eos_id=2, width=2, max_len=4)
    assert [ids for ids, _ in got[:2]] == [(0,), (1, 0)]

def _same_candidates_as_run_to_max_len(monkeypatch, model):
    for a, b, width in BEAM_INPUTS:
        got, want = _beam_both_ways(
            monkeypatch, lambda: model.rhyme_candidates(a, b, width=width))
        assert got == want, (a, b, width)

@pytest.mark.parametrize("seed", range(4))
def test_stop_keeps_rhyme_candidates(monkeypatch, seed):
    _same_candidates_as_run_to_max_len(
        monkeypatch, RhymerModel(RhymerConfig.desk_scale(seed=seed)))

def test_stop_keeps_rhyme_candidates_trained(monkeypatch, tiny_rhymer):
    _same_candidates_as_run_to_max_len(monkeypatch, tiny_rhymer[0])

@pytest.mark.parametrize("width", range(1, 7))
def test_uniform_rows_stop_after_three_steps(width):
    """Step 2 completes `width` words at -2 log S, level with the best
    live one; step 3 leaves every live one below them."""
    calls = []

    def step_rows(prev, state):
        calls.append(len(prev))
        return np.full((len(prev), 10), -np.log(10)), state

    hyps = rhymer.beam_search_rows(step_rows, lambda st, rows: st, None,
                                   eos_id=9, width=width, max_len=20)
    assert len(calls) <= 3
    assert [ids for ids, _ in hyps[1:width + 1]] == [
        (sym,) for sym in range(width)]

def test_no_stop_while_eos_is_impossible():
    """EOS is -inf until a hypothesis is cut at max_len, so nothing
    completes early and the search takes all max_len steps."""
    def step_rows(prev, state):
        logp = np.full((len(prev), 6), np.log(0.2))
        logp[:, 5] = -np.inf
        calls.append(len(prev))
        return logp, state

    for max_len in (1, 5, 20):
        calls = []
        hyps = rhymer.beam_search_rows(step_rows, lambda st, rows: st, None,
                                       eos_id=5, width=4, max_len=max_len)
        assert len(calls) == max_len
        assert all(len(ids) == max_len for ids, _ in hyps)


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
    report = grad_check(loss_fn, model.store,
                        {name: grads[name] for name in names},
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


# --- one poem's context, carried across its rhyme slots -----------------

def _fresh_encoding(model, b):
    _, b_enc = model._encode_inputs("", b)
    b_ids, b_len = pad_ids([b_enc], PAD_ID)
    _, _, enc_b, _ = model._encoders_forward(*pad_ids([[EOS_ID]], PAD_ID),
                                             b_ids, b_len)
    return enc_b[0]

def _poem_steps(monkeypatch, model):
    """Records the length of every poem-encoder run."""
    steps = []
    real = type(model.poem_enc).forward

    def forward(layer, X, *args, **kwargs):
        if layer is model.poem_enc:
            steps.append(X.shape[0])
        return real(layer, X, *args, **kwargs)
    monkeypatch.setattr(type(model.poem_enc), "forward", forward)
    return steps

POEM = "the sea at night\nand the wind on the "

def test_context_encoding_equals_fresh_for_every_suffix_length(monkeypatch):
    model = RhymerModel(RhymerConfig.desk_scale(seed=2))
    ids = encode_chars(POEM)
    steps = _poem_steps(monkeypatch, model)
    for n in (1, 9, len(ids) - 1):
        for end in range(n + 1, len(ids) + 1):
            context = PoemContext()
            model._encode_context(ids[:n], context)
            steps.clear()
            got = model._encode_context(ids[:end], context)
            assert steps == [end - n]  # only the new chars are read
            assert context.ids == ids[:end]
            want = _fresh_encoding(model, POEM[:end])
            assert np.allclose(got, want, rtol=0, atol=1e-12), (n, end)

def test_context_gives_fresh_candidates_across_slots_and_a_slide(
        monkeypatch):
    """Slot contexts that extend each other reuse the encoding; a context
    cut by max_context_chars, a shorter one, an empty one and another
    poem's are encoded from the start.  Every call's candidates equal a
    call with no context."""
    model = RhymerModel(RhymerConfig.desk_scale(seed=3, max_context_chars=30))
    texts = ["the sea", "the sea at night\nand", "the sea at night\nand a",
             POEM, POEM + "cold\nwhere ", "", "x", "the sea"]
    context = PoemContext()
    steps = _poem_steps(monkeypatch, model)
    read = []
    for text in texts:
        ids = model._encode_inputs("", text)[1]
        steps.clear()
        got = model.rhyme_candidates("light", text, width=4, context=context)
        want = model.rhyme_candidates("light", text, width=4)
        assert [w for w, _ in got] == [w for w, _ in want], text
        for (_, s1), (_, s2) in zip(got, want):
            assert s1 == pytest.approx(s2, rel=0, abs=1e-12), text
        assert context.ids == ids
        assert steps[1] == len(ids)
        read.append(steps[0])
    # POEM is 37 chars, so from it on the window slides
    assert read == [7, 13, 2, 30, 30, 1, 1, 7]


@pytest.mark.parametrize("chars", [0, -1])
def test_config_rejects_a_context_of_no_chars(chars):
    """A cut of [-0:] would read the whole poem, not none of it."""
    with pytest.raises(RhymerError, match="max_context_chars"):
        RhymerConfig(max_context_chars=chars)
    with pytest.raises(RhymerError, match="max_context_chars"):
        RhymerConfig.desk_scale(max_context_chars=chars)
    assert RhymerConfig(max_context_chars=1).max_context_chars == 1
