import gc
import weakref

import numpy as np
import pytest
from helpers import make_poems, make_table

from acropoet import decode
from acropoet.corpus import EOL, EOS, Poem, build_vocabulary
from acropoet.decode import (
    DecodeError, GenerationConfig, ModelBundle, RhymeScheme, _LineRule,
    _LmCursor, acrostic_word, first_word, generate_poem, render_poem,
    scheme_for,
)
from acropoet.embed import knn_with_initial
from acropoet.net import child_rng
from acropoet.poemlm import (
    LmConfig, LmVariant, PoemLM, build_embedding_matrix, train_lm,
)
from acropoet.rhymer import RhymerConfig, RhymerModel
from reference import boundaries_oracle, knn_oracle, state_from_bos


# --- rhyme schemes ----------------------------------------------------------

SCHEME_TABLE = {4: "ABAB", 5: "ABABC", 6: "ABABCC", 7: "ABABCDC",
                8: "ABABCDCD"}

def slots_oracle(letters):
    """Second occurrence of each letter, 1-indexed, by direct scan."""
    slots = set()
    for ch in set(letters):
        positions = [i + 1 for i, c in enumerate(letters) if c == ch]
        if len(positions) >= 2:
            slots.add(positions[1])
    return slots

@pytest.mark.parametrize("n", range(4, 9))
def test_scheme_table_and_slots(n):
    scheme = scheme_for(n)
    assert scheme.letters == SCHEME_TABLE[n]
    assert len(scheme.letters) == n
    assert scheme.substitution_slots == slots_oracle(scheme.letters)

def test_scheme_examples():
    assert scheme_for(4).substitution_slots == {3, 4}
    assert scheme_for(5).substitution_slots == {3, 4}
    assert scheme_for(8).substitution_slots == {3, 4, 7, 8}

def test_scheme_partner():
    s = scheme_for(8)
    assert s.partner(3) == 1
    assert s.partner(4) == 2
    assert s.partner(7) == 5
    assert s.partner(8) == 6

@pytest.mark.parametrize("n", [3, 9, 0])
def test_scheme_out_of_range(n):
    with pytest.raises(DecodeError):
        scheme_for(n)


# --- generation config ------------------------------------------------------

def test_config_m1_must_lie_in_unit_interval():
    for m1 in (-0.1, 1.5):
        with pytest.raises(DecodeError, match=r"m1 must lie in \[0, 1\]"):
            GenerationConfig(m1=m1)
    assert GenerationConfig(m1=0.0).m1 == 0.0
    assert GenerationConfig(m1=1.0).m1 == 1.0

@pytest.mark.parametrize("temperature", [0.0, -1.0, float("nan")])
def test_config_temperature_must_be_positive(temperature):
    with pytest.raises(DecodeError, match="temperature"):
        GenerationConfig(temperature=temperature)

INF, NAN = float("inf"), float("nan")

# a range check alone lets nan through
@pytest.mark.parametrize("kwargs, name", [
    ({"temperature": INF}, "temperature"),
    ({"m1": INF}, "m1"), ({"m1": NAN}, "m1"),
    ({"temperature": NAN}, "temperature"), ({"m1": -INF}, "m1"),
    ({"m1": 10 ** 400}, "m1")])
def test_config_weights_and_temperature_must_be_finite(kwargs, name):
    with pytest.raises(DecodeError, match=f"{name} must be a finite"):
        GenerationConfig(**kwargs)

@pytest.mark.parametrize("name", ["k", "beam_width", "max_tokens_per_line"])
@pytest.mark.parametrize("value", [0, -1])
def test_config_counts_must_be_positive(name, value):
    with pytest.raises(DecodeError, match=f"{name} must be positive"):
        GenerationConfig(**{name: value})

# --- sampling ---------------------------------------------------------------

@pytest.mark.parametrize("temperature", [0.01, 1e-3])
def test_low_temperature_samples_an_allowed_token(temperature):
    """p ** (1 / T) of a flat V=5000 distribution underflows to zero at
    these temperatures; in log space every allowed token keeps weight."""
    probs = np.full(5000, 1 / 5000)
    allowed = np.arange(3, 5000, 26)[:190]
    mask = np.zeros(5000)
    mask[allowed] = 1.0
    rng = np.random.default_rng(0)
    drawn = {decode._sample_id(probs, mask, rng, temperature)
             for _ in range(50)}
    assert drawn <= set(allowed.tolist())
    assert len(drawn) > 1

def test_low_temperature_picks_the_likeliest_allowed_token():
    probs = np.random.default_rng(1).dirichlet(np.ones(40))
    mask = np.zeros(40)
    mask[::3] = 1.0
    best = int(np.argmax(probs * mask))
    rng = np.random.default_rng(2)
    assert {decode._sample_id(probs, mask, rng, 1e-3)
            for _ in range(20)} == {best}

class _FixedDraw:
    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value

def test_a_draw_past_the_cdf_end_picks_an_allowed_token():
    """The cdf of the masked probabilities can end just below 1; a draw
    in [cdf[-1], 1) takes the last allowed token, not the masked last
    one."""
    probs = np.random.default_rng(2).dirichlet(np.ones(105))
    mask = np.ones(105)
    mask[-1] = 0.0
    p = probs * mask
    end = np.cumsum(p / p.sum())[-1]
    assert end < 1.0  # the case this test is about
    assert decode._sample_id(probs, mask, _FixedDraw(end), 1.0) == 103
    below = np.nextafter(end, 0.0)
    assert decode._sample_id(probs, mask, _FixedDraw(below), 1.0) == 103

@pytest.mark.parametrize("temperature", [1.0, 0.5, 2.0])
def test_empty_sampling_mask_is_a_decode_error(temperature):
    with pytest.raises(DecodeError, match="excludes every token"):
        decode._sample_id(np.full(4, 0.25), np.zeros(4),
                          np.random.default_rng(0), temperature)


# --- line boundary forcing --------------------------------------------------

def line_rule_stream(tokens, target_lines, max_tokens_per_line=15):
    """A whole token stream fed through `decode._LineRule`, as generation
    feeds it one token at a time: the kept tokens and each line's closing
    marker, up to the end of the poem."""
    rule = _LineRule(target_lines, max_tokens_per_line)
    out = []
    for tok in tokens:
        end = rule.push(tok, out)
        if end is not None:
            out.append(end)
        if end == EOS:
            break
    return out

def test_early_eos_becomes_eol():
    got = line_rule_stream(["a", EOS, "b", EOL, "c", EOL, "d", EOS], 4)
    assert got == ["a", EOL, "b", EOL, "c", EOL, "d", EOS]

def test_eol_on_final_line_becomes_eos_and_truncates():
    got = line_rule_stream(["a", EOL, "b", EOL, "c", EOL, "d", EOL,
                            "junk"], 4)
    assert got == ["a", EOL, "b", EOL, "c", EOL, "d", EOS]

def test_runaway_line_capped():
    got = line_rule_stream(["w"] * 13, 4, max_tokens_per_line=3)
    assert got == ["w"] * 3 + [EOL] + ["w"] * 3 + [EOL] + ["w"] * 3 + \
        [EOL] + ["w"] * 3 + [EOS]

def test_terminal_comma_rewritten():
    got = line_rule_stream(["a", EOL, "b", EOL, "c", EOL, "d", ",",
                            EOS], 4)
    assert got[-2:] == [".", EOS]
    got = line_rule_stream(["a", EOL, "b", EOL, "c", EOL, "d", ";",
                            EOS], 4)
    assert got[-2:] == [".", EOS]

def test_boundaries_match_oracle_randomized():
    rng = np.random.default_rng(0)
    alphabet = ["w", "x", ",", ";", ".", EOL, EOS]
    for _ in range(200):
        n = int(rng.integers(0, 40))
        stream = [alphabet[i] for i in rng.integers(0, len(alphabet),
                                                    size=n)]
        target = int(rng.integers(4, 9))
        cap = int(rng.integers(2, 8))
        assert line_rule_stream(stream, target, cap) == \
            boundaries_oracle(stream, target, cap)


# --- first-word policy ------------------------------------------------------

@pytest.fixture(scope="module")
def bundle(tiny_trained_lm, table):
    rhymer = RhymerModel(RhymerConfig.desk_scale(seed=1))
    return ModelBundle(lm=tiny_trained_lm, table=table, rhymer=rhymer)

def _uniform_probs(lm):
    return np.full(len(lm.vocab), 1.0 / len(lm.vocab))

def test_first_word_knn_matches_scoring_oracle(bundle):
    lm, table = bundle.lm, bundle.table
    rng = np.random.default_rng(3)
    cfg = GenerationConfig(m1=1.0)
    for letter in "bcdefg":
        probs = rng.random(len(lm.vocab))
        probs /= probs.sum()
        tid, path = first_word(letter, "fire", probs, cfg, bundle,
                               child_rng(0, "coin"), child_rng(0, "s"))
        assert path == "knn"
        cands = knn_with_initial("fire", letter, table, lm.vocab, k=cfg.k)
        scores = [probs[lm.vocab.token_to_id[c]] for c in cands]
        assert lm.vocab.id_to_token[tid] == cands[int(np.argmax(scores))]

def test_first_word_single_knn_candidate_deterministic(bundle):
    lm, table = bundle.lm, bundle.table
    cfg = GenerationConfig(m1=1.0, k=1)
    for trial in range(5):
        tid, path = first_word("g", "fire", _uniform_probs(lm), cfg,
                               bundle, child_rng(trial, "c"),
                               child_rng(trial, "s"))
        assert path == "knn"
        only = knn_with_initial("fire", "g", table, lm.vocab, k=1)[0]
        assert lm.vocab.id_to_token[tid] == only

def test_first_word_mask_property_m1_zero(bundle):
    lm = bundle.lm
    cfg = GenerationConfig(m1=0.0)
    probs = _uniform_probs(lm)
    rng = child_rng(0, "mask")
    for _ in range(1000):
        tid, path = first_word("s", "fire", probs, cfg, bundle,
                               child_rng(0, "c"), rng)
        assert path == "sample"
        assert lm.vocab.id_to_token[tid].startswith("s")

def test_first_word_st_off_never_takes_knn_at_m1_one(bundle):
    """The no-steering ablation samples every first word, whatever m1,
    and never draws from the coin stream."""
    lm = bundle.lm
    cfg = GenerationConfig(st=False, m1=1.0)
    coin, untouched = child_rng(0, "c"), child_rng(0, "c")
    rng = child_rng(0, "s")
    for letter in "bcdefgs" * 10:
        tid, path = first_word(letter, "fire", _uniform_probs(lm), cfg,
                               bundle, coin, rng)
        assert path == "sample"
        assert lm.vocab.id_to_token[tid].startswith(letter)
    assert coin.random() == untouched.random()

def test_first_word_unknown_topic_falls_back_to_sampling(bundle):
    lm = bundle.lm
    cfg = GenerationConfig(m1=1.0)
    tid, path = first_word("s", "zzzunknown", _uniform_probs(lm), cfg,
                           bundle, child_rng(0, "c"), child_rng(0, "s"))
    assert path == "sample"
    assert lm.vocab.id_to_token[tid].startswith("s")

def test_first_word_missing_letter_errors(table):
    poem = Poem(lines=[["ash", "blaze"]] * 4, topic="fire")
    vocab = build_vocabulary([poem], max_size=10)
    lm = PoemLM(vocab, LmConfig(n_layers=1, hidden=4, seed=0),
                topic_dim=table.dim,
                emb_matrix=build_embedding_matrix(vocab, table),
                variant=LmVariant.from_name("gold+"))
    cfg = GenerationConfig(m1=0.0)
    with pytest.raises(DecodeError, match="'z'"):
        first_word("z", "fire", np.full(len(vocab), 1 / len(vocab)), cfg,
                   ModelBundle(lm=lm, table=table), child_rng(0, "c"),
                   child_rng(0, "s"))


def test_bundle_knn_equals_oracle_for_every_letter(bundle, monkeypatch):
    """The bundle makes each letter's candidates on its first query, keeps
    them, and its queries equal the exhaustive oracle."""
    made = []
    real = decode.letter_candidates
    monkeypatch.setattr(decode, "letter_candidates",
                        lambda *a: made.append(a[2]) or real(*a))
    lm, table = bundle.lm, bundle.table
    models = ModelBundle(lm=lm, table=table)
    assert made == []
    letters = "abcdefghijklmnopqrstuvwxyz.,'"
    for topic in ("fire", "water"):
        for letter in letters:
            for k in (1, 5, 40):
                got = knn_with_initial(topic, letter, table, lm.vocab, k=k,
                                       candidates=models.knn_candidates(
                                           letter))
                assert got == knn_oracle(topic, letter, table, lm.vocab, k)
    assert made == list(letters)
    with pytest.raises(AttributeError):
        models.table = None

# --- poem generation --------------------------------------------------------

class CountingRhymer:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def rhyme_candidates(self, a, b, width=5, context=None):
        self.calls += 1
        return self.inner.rhyme_candidates(a, b, width=width,
                                           context=context)

def test_generate_poet_spells_word(bundle):
    result = generate_poem("poet", GenerationConfig(rng_seed=0), bundle)
    poem = result.poem
    assert poem.n_lines == 4
    assert [line[0][0] for line in poem.lines] == list("poet")

def test_generate_nature_six_lines(bundle):
    result = generate_poem("nature", GenerationConfig(rng_seed=1), bundle)
    assert result.poem.n_lines == 6
    assert [line[0][0] for line in result.poem.lines] == list("nature")

def test_generate_deterministic(bundle):
    cfg = GenerationConfig(rng_seed=42)
    r1 = generate_poem("tide", cfg, bundle)
    r2 = generate_poem("tide", cfg, bundle)
    assert r1.poem.lines == r2.poem.lines
    assert r1.record(cfg) == r2.record(cfg)

def test_generate_acrostic_many_words(bundle):
    rng = np.random.default_rng(5)
    letters = "abcdefghijklmnopqrstuvwxyz"
    for seed in range(10):
        word = "".join(letters[i] for i in
                       rng.integers(0, 26, size=int(rng.integers(4, 9))))
        result = generate_poem(word, GenerationConfig(rng_seed=seed), bundle)
        assert result.poem.n_lines == len(word)
        assert [l[0][0] for l in result.poem.lines] == list(word)

def test_generate_rhymer_called_once_per_slot(bundle):
    counting = CountingRhymer(bundle.rhymer)
    models = ModelBundle(lm=bundle.lm, table=bundle.table, rhymer=counting)
    for word in ["mist", "ember", "harbor", "kindled"]:
        counting.calls = 0
        result = generate_poem(word, GenerationConfig(rng_seed=3), models)
        n_slots = len(result.scheme.substitution_slots)
        assert counting.calls == n_slots
        assert result.rhymer_calls == n_slots

def test_generate_rhyme_off_never_calls_rhymer(bundle):
    counting = CountingRhymer(bundle.rhymer)
    models = ModelBundle(lm=bundle.lm, table=bundle.table, rhymer=counting)
    result = generate_poem("mist", GenerationConfig(rng_seed=3, rh=False),
                           models)
    assert counting.calls == 0
    assert result.rhymer_calls == 0

def test_generate_rhyme_on_requires_rhymer(bundle):
    models = ModelBundle(lm=bundle.lm, table=bundle.table, rhymer=None)
    with pytest.raises(DecodeError, match="rhymer"):
        generate_poem("mist", GenerationConfig(), models)

@pytest.mark.parametrize("word", ["po3t", "cat", "abcdefghi", "", "sea!",
                                  "f\u00eate", "\u212aing", "fire\n"])
def test_generate_invalid_word(bundle, word):
    with pytest.raises(DecodeError,
                       match="acrostic word must be 4-8 letters a-z"):
        generate_poem(word, GenerationConfig(), bundle)

def test_acrostic_word_lowercases():
    assert acrostic_word("Fire") == "fire"
    assert acrostic_word("NAUTICAL") == "nautical"

@pytest.mark.parametrize("tp", [True, False])
@pytest.mark.parametrize("word", ["fire", "water", "yellow", "inferno",
                                  "nautical"])
def test_generation_conditions_the_lm_as_training_does(bundle, monkeypatch,
                                                       word, tp):
    """Generating `word` feeds the LM, bit for bit, the condition that
    `batches` gives a poem about `word` whose lines spell it; with tp off,
    that of the same poem with no topic."""
    lm = bundle.lm
    fed = []
    project = lm.project_condition
    monkeypatch.setattr(lm, "project_condition",
                        lambda cond: fed.append(cond) or project(cond))
    generate_poem(word, GenerationConfig(tp=tp), bundle)
    poem = Poem(lines=[[letter + "x", "."] for letter in word],
                topic=word if tp else None)
    (_, _, _, cond), = lm.batches([poem], bundle.table, batch_size=1)
    assert len(fed) == 1
    assert cond[0].tobytes() == fed[0].tobytes()
    assert cond[0][:lm.topic_dim].any() == tp

def test_generate_terminal_never_comma(bundle):
    for seed in range(8):
        result = generate_poem("wave", GenerationConfig(rng_seed=seed),
                               bundle)
        assert result.poem.lines[-1][-1] not in (",", ";")

def test_generate_line_cap_respected(bundle):
    cfg = GenerationConfig(rng_seed=0, max_tokens_per_line=5)
    result = generate_poem("glow", cfg, bundle)
    assert all(len(line) <= 5 for line in result.poem.lines)

def test_generate_ac_off_keeps_line_count(bundle):
    cfg = GenerationConfig(rng_seed=2, ac=False)
    result = generate_poem("spark", cfg, bundle)
    assert result.poem.n_lines == 5

def test_branch_isolation_m2_only_draws_match(bundle):
    # find a seed whose four coin flips all land in the sampling branch
    word = "lake"
    chosen = None
    for seed in range(600):
        coin = child_rng(seed, "generate", word, "coin")
        if all(coin.random() >= 0.7 for _ in range(len(word))):
            chosen = seed
            break
    assert chosen is not None
    r_mixed = generate_poem(word, GenerationConfig(rng_seed=chosen), bundle)
    r_m2 = generate_poem(word, GenerationConfig(m1=0.0,
                                                rng_seed=chosen), bundle)
    assert r_mixed.first_word_paths == ["sample"] * len(word)
    assert r_mixed.poem.lines == r_m2.poem.lines


# --- LM state: snapshot resume after a rhyme substitution ------------------

def test_resume_equals_full_prefix_from_bos(bundle):
    lm, v = bundle.lm, bundle.lm.vocab
    cond = lm.condition("fire", "fire", bundle.table)
    words = [t for t in v.non_special_tokens() if t.isalpha()]
    rng = np.random.default_rng(17)
    seen = {"index 0": 0, "word before punctuation": 0, "oov": 0}

    def pick(n):
        return [words[i] for i in rng.integers(0, len(words), size=n)]

    for trial in range(6):
        prior = [pick(int(rng.integers(1, 5)))
                 for _ in range(int(rng.integers(0, 3)))]
        line = pick(int(rng.integers(1, 5)))
        if trial % 2:
            line.append(".")
        for idx in range(len(line)):
            for replacement in (pick(1)[0], "zzqxoov"):
                cursor = _LmCursor(lm, cond)
                for toks in prior:
                    for tok in toks:
                        cursor.feed(v.token_to_id[tok])
                    cursor.end_line(toks, None)
                for tok in line:
                    cursor.feed(v.token_to_id[tok])
                new_line = list(line)
                new_line[idx] = replacement
                cursor.end_line(new_line, idx)

                ids = [v.bos_id]
                for toks in prior + [new_line]:
                    ids += [v.token_to_id[t] if t in v else v.unk_id
                            for t in toks] + [v.eol_id]
                state, probs = state_from_bos(lm, ids, cond)
                for (h, c), (h_ref, c_ref) in zip(cursor.state, state):
                    assert np.array_equal(h, h_ref)
                    assert np.array_equal(c, c_ref)
                assert np.array_equal(cursor.probs, probs)

                seen["index 0"] += idx == 0
                seen["word before punctuation"] += (
                    idx == len(line) - 2 and line[-1] == ".")
                seen["oov"] += replacement not in v
    assert all(seen.values()), seen


# --- LM step counts: each fed token is stepped once ------------------------

STEP_WORDS = ["mist", "ember", "harbor", "kindled", "tide", "lake", "glow",
              "wave", "spark", "oceans", "quaywind", "zephyr"]

def _count_steps(monkeypatch):
    calls = [0]
    step = PoemLM.step

    def counting(self, *args, **kwargs):
        calls[0] += 1
        return step(self, *args, **kwargs)

    monkeypatch.setattr(PoemLM, "step", counting)
    return calls

def _fed_tokens(poem):
    """<bos>, every token, and <eol> after every line but the last."""
    return 1 + sum(map(len, poem.lines)) + poem.n_lines - 1

def test_generate_rh_off_steps_once_per_fed_token(bundle, monkeypatch):
    calls = _count_steps(monkeypatch)
    for seed, word in enumerate(STEP_WORDS):
        calls[0] = 0
        result = generate_poem(word, GenerationConfig(rng_seed=seed,
                                                      rh=False), bundle)
        assert calls[0] == _fed_tokens(result.poem)

def test_generate_rh_on_refeeds_only_changed_line_tails(bundle, monkeypatch):
    calls = _count_steps(monkeypatch)
    changed = []
    apply_rhyme = decode._apply_rhyme

    def recording(models, result, lines, slot, *args):
        idx = apply_rhyme(models, result, lines, slot, *args)
        if idx is not None:
            changed.append((slot, idx))
        return idx

    monkeypatch.setattr(decode, "_apply_rhyme", recording)
    refed_lines = 0
    for seed, word in enumerate(STEP_WORDS):
        calls[0] = 0
        changed.clear()
        result = generate_poem(word, GenerationConfig(rng_seed=seed), bundle)
        lines = result.poem.lines
        bound = sum(len(lines[slot - 1]) - idx + 1
                    for slot, idx in changed if slot < len(lines))
        refed_lines += sum(slot < len(lines) for slot, _ in changed)
        assert _fed_tokens(result.poem) <= calls[0]
        assert calls[0] <= _fed_tokens(result.poem) + bound
    assert refed_lines > 0


# --- generation closes lines by the one line rule -------------------------

@pytest.fixture(scope="module")
def comma_bundle(table):
    """An untrained LM whose output bias favours "," and ";" and the line
    markers, so lines end on punctuation and the terminal rewrite runs."""
    poems = [Poem(lines=[line + [",", ";"] for line in p.lines],
                  topic=p.topic) for p in make_poems(6, seed=9)]
    vocab = build_vocabulary(poems, max_size=200)
    lm = PoemLM(vocab, LmConfig(n_layers=1, hidden=8, seed=0),
                topic_dim=table.dim,
                emb_matrix=build_embedding_matrix(vocab, table),
                variant=LmVariant.from_name("gold+"))
    bias = lm.store["lm.out.b"]
    bias[[vocab.token_to_id[","], vocab.token_to_id[";"]]] = 2.0
    bias[[vocab.eol_id, vocab.eos_id]] = 1.0
    return ModelBundle(lm=lm, table=table)

@pytest.mark.parametrize("cap", [2, 3, 4, 5])
@pytest.mark.parametrize("lm_kind", ["trained", "commas"])
def test_generation_follows_the_shared_line_rule(request, monkeypatch,
                                                 lm_kind, cap):
    models = request.getfixturevalue(
        "bundle" if lm_kind == "trained" else "comma_bundle")
    v = models.lm.vocab
    stream = []  # every token drawn, markers included, in draw order
    real_first, real_sample = decode.first_word, decode._sample_id

    def first(*args, **kwargs):
        n = len(stream)
        tid, path = real_first(*args, **kwargs)
        del stream[n:]  # a sampled first word is recorded once, here
        stream.append(v.id_to_token[tid])
        return tid, path

    def sample(*args, **kwargs):
        tid = real_sample(*args, **kwargs)
        stream.append(v.id_to_token[tid])
        return tid

    monkeypatch.setattr(decode, "first_word", first)
    monkeypatch.setattr(decode, "_sample_id", sample)
    closed_by = {"cap": 0, "marker": 0}
    rewrites = 0
    for seed, word in enumerate(STEP_WORDS):
        stream.clear()
        cfg = GenerationConfig(rng_seed=seed, rh=False,
                               max_tokens_per_line=cap)
        result = generate_poem(word, cfg, models)
        forced = line_rule_stream(stream, len(word), cap)
        assert forced[-1] == EOS
        lines = [[]]
        for tok in forced[:-1]:
            if tok == EOL:
                lines.append([])
            else:
                lines[-1].append(tok)
        assert result.poem.lines == lines
        for line in lines:
            closed_by["cap" if len(line) == cap else "marker"] += 1
        rewrites += [t for t in stream if t not in (EOL, EOS)][-1] in ",;"
    if lm_kind == "trained":
        assert all(closed_by.values()), closed_by
    else:
        assert rewrites > 0


# --- rhyme substitution writes words only ----------------------------------

class StubRhymer:
    def __init__(self, words):
        self.words = words

    def rhyme_candidates(self, a, b, width=5, context=None):
        return [(w, -float(i)) for i, w in enumerate(self.words)]

def test_non_word_rhyme_candidates_are_never_substituted(bundle):
    assert "ash" in bundle.lm.vocab

    def models(words):
        return ModelBundle(lm=bundle.lm, table=bundle.table,
                           rhymer=StubRhymer(words))

    substituted = 0
    for seed, word in enumerate(STEP_WORDS[:6]):
        plain = generate_poem(word, GenerationConfig(rng_seed=seed,
                                                     rh=False), bundle)
        symbols = generate_poem(word, GenerationConfig(rng_seed=seed),
                                models(["/", "&"]))
        assert symbols.poem.lines == plain.poem.lines
        assert symbols.substitutions == []
        assert symbols.rhymer_calls == len(symbols.scheme.substitution_slots)
        mixed = generate_poem(word, GenerationConfig(rng_seed=seed),
                              models(["/", "ash"]))
        assert all(sub["replacement"] == "ash"
                   for sub in mixed.substitutions)
        substituted += len(mixed.substitutions)
    assert substituted > 0


class RecordingRhymer(StubRhymer):
    def rhyme_candidates(self, a, b, width=5, context=None):
        self.asked = (a, b)
        return super().rhyme_candidates(a, b, width)

@pytest.mark.parametrize("partner_end", [["."], ["'s", "."]])
def test_rhyme_slot_word_skips_contraction_tokens(bundle, partner_end):
    # the slot word, the partner word and the rhymer context all come from
    # the token list: "'s" is not a word, so "bat" is the one replaced
    rhymer = RecordingRhymer(["cat"])
    models = ModelBundle(lm=bundle.lm, table=bundle.table, rhymer=rhymer)
    lines = [["a", "night"] + partner_end, ["by", "the", "sea"],
             ["to", "the", "bat", "'s", "."]]
    result = decode.GenerationResult(poem=None, word="mist",
                                     scheme=RhymeScheme("ABAB"), seed=0)
    V = len(bundle.lm.vocab)
    idx = decode._apply_rhyme(models, result, lines, 3, np.full(V, 1 / V),
                              GenerationConfig())
    assert idx == 2
    assert rhymer.asked == (
        "night", "a night " + " ".join(partner_end) + "\nby the sea\nto the ")
    assert lines[2] == ["to", "the", "cat", "'s", "."]
    assert result.substitutions == [{"slot": 3, "original": "bat",
                                     "replacement": "cat"}]


def test_a_rhyme_equal_to_the_slot_word_is_no_substitution(bundle):
    """The rhymer's only candidate is the slot line's own last word (not an
    LM word, so `choose_rhyme` keeps it): the line stays as it is, the
    call is counted and no substitution is recorded."""
    models = ModelBundle(lm=bundle.lm, table=bundle.table,
                         rhymer=StubRhymer(["bat"]))
    lines = [["a", "night", "."], ["by", "the", "sea"], ["to", "the", "bat"]]
    result = decode.GenerationResult(poem=None, word="mist",
                                     scheme=RhymeScheme("ABAB"), seed=0)
    V = len(bundle.lm.vocab)
    assert decode._apply_rhyme(models, result, lines, 3, np.full(V, 1 / V),
                               GenerationConfig()) is None
    assert lines[2] == ["to", "the", "bat"]
    assert result.substitutions == [] and result.rhymer_calls == 1


# --- no hidden state: dropped models are freed ----------------------------

def test_masks_released_with_their_vocabulary():
    vocab = build_vocabulary(make_poems(3, seed=5), max_size=50)
    letter = next(t[0] for t in vocab.non_special_tokens() if t[0].isalpha())
    base, first = decode._sampling_masks(vocab)
    mask = decode._initial_mask(vocab, letter)
    assert base.shape == first.shape == mask.shape == (len(vocab),)
    dead = weakref.ref(vocab)
    del vocab
    gc.collect()
    assert dead() is None
    assert mask.sum() > 0

def test_generation_keeps_no_reference_to_its_models():
    table = make_table(dim=8, seed=0)
    vocab = build_vocabulary(make_poems(20, seed=5), max_size=100)
    lm = PoemLM(vocab, LmConfig(n_layers=1, hidden=8, seed=0),
                topic_dim=table.dim,
                emb_matrix=build_embedding_matrix(vocab, table),
                variant=LmVariant.from_name("gold+"))
    models = ModelBundle(lm=lm, table=table)
    paths = []
    for seed, word in enumerate(["fire", "water", "ember", "tide"]):
        result = generate_poem(word, GenerationConfig(rh=False,
                                                      rng_seed=seed), models)
        paths += result.first_word_paths
    assert {"knn", "sample"} <= set(paths)
    assert knn_with_initial("fire", "s", table, vocab, k=2)
    dead = [weakref.ref(obj) for obj in (vocab, table, lm)]
    del vocab, table, lm, models, result
    gc.collect()
    assert [ref() for ref in dead] == [None, None, None]


@pytest.mark.parametrize("work", ["generate", "perplexity", "train"])
def test_models_are_freed_without_the_cycle_collector(work):
    """Dropping the last reference frees the models at once: no reference
    cycle holds one, so a loop that drops a model and loads the next does
    not wait for the cycle collector."""
    gc.disable()
    try:
        table = make_table(dim=8, seed=0)
        poems = make_poems(20, seed=5)
        vocab = build_vocabulary(poems, max_size=100)
        lm = PoemLM(vocab, LmConfig(n_layers=2, hidden=8, batch_size=8,
                                    seed=0),
                    topic_dim=table.dim,
                    emb_matrix=build_embedding_matrix(vocab, table),
                    variant=LmVariant.from_name("gold+"))
        rh = RhymerModel(RhymerConfig.desk_scale(seed=0))
        models = ModelBundle(lm=lm, table=table, rhymer=rh)
        if work == "generate":
            for seed, word in enumerate(["fire", "water", "ember"]):
                result = generate_poem(word, GenerationConfig(rng_seed=seed),
                                       models)
                assert result.rhymer_calls > 0
        elif work == "perplexity":
            assert np.isfinite(lm.perplexity(poems[:6], table))
        else:
            assert len(train_lm(lm, poems[:16], poems[16:], table,
                                max_epochs=1)) == 2
        dead = [weakref.ref(obj) for obj in (vocab, table, lm, rh)]
        del vocab, table, lm, rh, models
        assert [ref() for ref in dead] == [None] * 4
    finally:
        gc.enable()


# --- rendering --------------------------------------------------------------

def test_render_reattaches_punctuation_and_capitalizes():
    poem = Poem(lines=[["earth", "'s", "heart", ","],
                       ["ocean", "wave", "."]])
    assert render_poem(poem) == "Earth's heart,\nOcean wave."
