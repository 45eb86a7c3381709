"""Property fuzz of `generate_poem` over small generated worlds.

Each example builds a vocabulary, an embedding table and an untrained
desk LM, and a rhymer: either a desk `RhymerModel` whose context window is
small enough to slide, or a stub that proposes non-words, empty strings
or the partner word.  Generation must either raise one of the library's
own errors or return a poem that keeps every invariant, the same on a
rerun.
"""

import json

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from acropoet.corpus import SPECIALS, Poem, build_vocabulary
from acropoet.decode import (
    DecodeError, GenerationConfig, ModelBundle, generate_poem,
)
from acropoet.embed import EmbeddingError, EmbeddingTable
from acropoet.poemlm import (
    LmConfig, LmVariant, PoemLM, build_embedding_matrix,
)
from acropoet.rhymer import WORD_RE, RhymerConfig, RhymerError, RhymerModel

LETTERS = "abcdefg"
DIM = 4

# a letter's tokens can be words, punctuation or apostrophe forms (which
# start with the letter but are not words), or there can be none
words = st.text(LETTERS, min_size=1, max_size=5)
non_words = st.builds(lambda ch, tail: ch + tail, st.sampled_from(LETTERS),
                      st.sampled_from(["'", "'s", ",", "."]))
tokens = st.lists(st.one_of(words, words, non_words), min_size=1,
                  max_size=20, unique=True)
# per token: a random vector, a zero vector, or none
vector_kinds = st.sampled_from(["random", "random", "zero", "missing"])
mostly_on = st.sampled_from([True, True, False])


class StubRhymer:
    """Candidates built from `kinds`: non-words, empty strings, the
    partner word itself, or a word."""

    def __init__(self, kinds):
        self.kinds = kinds

    def rhyme_candidates(self, a, b, width=5, context=None):
        pick = {"non-word": "a'", "empty": "", "partner": a, "word": "gab"}
        return [(pick[kind], -float(i)) for i, kind in
                enumerate(self.kinds[:width])]


rhymers = st.one_of(
    st.builds(lambda n, seed: RhymerModel(RhymerConfig.desk_scale(
        seed=seed, max_context_chars=n)),
        st.integers(1, 24), st.integers(0, 3)),
    st.builds(StubRhymer, st.lists(st.sampled_from(
        ["non-word", "empty", "partner", "word"]), max_size=4)))


@st.composite
def worlds(draw):
    toks = draw(tokens)
    kinds = draw(st.lists(vector_kinds, min_size=len(toks),
                          max_size=len(toks)))
    # mostly words whose letters all start some token
    initials = "".join(sorted({tok[0] for tok in toks}))
    alphabet = draw(st.sampled_from([LETTERS, initials, initials]))
    word = draw(st.text(alphabet, min_size=4, max_size=8))
    topic_kind = draw(st.sampled_from(["random"] * 3 + ["zero", "missing"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    vectors = {}
    for tok, kind in zip(toks + [word], kinds + [topic_kind]):
        if kind != "missing":
            vectors[tok] = (rng.normal(size=DIM) if kind == "random"
                            else np.zeros(DIM))
    table = EmbeddingTable(dim=DIM, vectors=vectors)
    vocab = build_vocabulary([Poem(lines=[toks])], max_size=len(toks))
    lm = PoemLM(vocab, LmConfig(n_layers=1, hidden=4,
                                seed=draw(st.integers(0, 3))),
                topic_dim=DIM, emb_matrix=build_embedding_matrix(vocab, table),
                variant=LmVariant.from_name("gold+"))
    models = ModelBundle(lm=lm, table=table, rhymer=draw(rhymers))
    m1 = draw(st.sampled_from([0.0, 0.5, 1.0, 1.0]))
    cfg = GenerationConfig(
        k=draw(st.integers(1, 6)), m1=m1, m2=1.0 - m1,
        beam_width=draw(st.integers(1, 4)), st=draw(mostly_on),
        ac=draw(mostly_on), rh=draw(mostly_on), tp=draw(mostly_on),
        rng_seed=draw(st.integers(0, 9)),
        max_tokens_per_line=draw(st.integers(1, 4)),
        temperature=draw(st.floats(1e-3, 1e3)))
    return word, cfg, models


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(worlds())
def test_generation_keeps_its_invariants_or_raises_a_library_error(world):
    word, cfg, models = world
    try:
        result = generate_poem(word, cfg, models)
    except (DecodeError, EmbeddingError, RhymerError):
        return
    lines = result.poem.lines
    assert len(lines) == len(word)
    if cfg.ac:
        assert [line[0][:1] for line in lines] == list(word)
    assert not any(tok in SPECIALS for line in lines for tok in line)
    slots = result.scheme.substitution_slots
    assert result.rhymer_calls == (len(slots) if cfg.rh else 0)
    for sub in result.substitutions:
        assert WORD_RE.fullmatch(sub["replacement"]), sub
        assert sub["slot"] in slots
    again = generate_poem(word, cfg, models)
    assert json.dumps(again.record(cfg)) == json.dumps(result.record(cfg))
