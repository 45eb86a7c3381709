"""`decode.generate_poem` against the plain reference decoder.

The generator's shortcuts (per-token LM snapshots, per-poem masks, the
per-letter kNN candidates, the batched beam with its stop, rhymer context
reuse) must
change nothing: the poem, the first-word paths, the substitutions, the
rhymer calls and the distribution of every sampled token equal those of
`reference.reference_poem`, which has none of them.  (One draw of a
uniform number picks a token from a distribution, and a small error in
the distribution rarely moves it, so the tokens alone would hide a small
fault in the LM state.)  The one tolerance is the rhymer's scores: the batched beam sums
log probs from a bias-projected, batched decoder step, the reference from
one unprojected step per hypothesis, so a score may differ in its last
bits (here up to 1e-12).  The candidate words and their order must match
exactly.
"""

import itertools

import numpy as np
import pytest
from helpers import make_poems, make_table
from reference import reference_poem

from acropoet import decode
from acropoet.corpus import Poem, build_vocabulary
from acropoet.decode import GenerationConfig, ModelBundle, generate_poem
from acropoet.poemlm import (
    LmConfig, LmVariant, PoemLM, build_embedding_matrix, train_lm,
)
from acropoet.rhymer import RhymerConfig, RhymerModel

# A third word for every initial, so that with k=2 a kNN query leaves
# candidates out.
EXTRA = ["amber", "bloom", "cinder", "dusk", "echo", "fern", "gale", "haze",
         "iris", "jade", "knoll", "lunar", "moss", "nectar", "oak", "petal",
         "quill", "rain", "stone", "thorn", "unity", "vale", "willow",
         "xylem", "yarrow", "zinc"]
# one word of each length 4-8; "quaywind" has no vector, so its kNN
# queries fail and its topic channel is zero
WORDS = ["mist", "ember", "harbor", "inferno", "nautical", "quaywind"]
FLAGS = list(itertools.product([True, False], repeat=4))  # st, ac, rh, tp
SETTINGS = [{}, {"k": 2, "temperature": 0.7, "beam_width": 3},
            {"k": 2, "m1": 0.9, "max_tokens_per_line": 4}]
SEEDS = range(len(SETTINGS))


@pytest.fixture(scope="module")
def models():
    """A trained desk-scale LM whose vocabulary has three words of every
    initial, and its table."""
    table = make_table(dim=8, seed=0, extra_tokens=EXTRA)
    rng = np.random.default_rng(4)
    swap = {w[0]: w for w in EXTRA}
    poems = [Poem(lines=[[swap[t[0]] if t.isalpha() and rng.random() < 0.3
                          else t for t in line] for line in p.lines],
                  topic=p.topic) for p in make_poems(80, seed=1)]
    vocab = build_vocabulary(poems, max_size=200)
    cfg = LmConfig.desk_scale(hidden=32, dropout=0.0, lr=0.01, max_epochs=8,
                              seed=3)
    lm = PoemLM(vocab, cfg, topic_dim=table.dim,
                emb_matrix=build_embedding_matrix(vocab, table),
                variant=LmVariant.from_name("gold+"))
    train_lm(lm, poems[:64], poems[64:], table)
    assert all(len(vocab.by_initial[ch]) >= 3
               for ch in "abcdefghijklmnopqrstuvwxyz")
    return lm, table


class StubRhymer:
    """Candidates that do not depend on the poem."""

    def __init__(self, words):
        self.words = words

    def rhyme_candidates(self, a, b, width=5, context=None):
        return [(w, -float(i)) for i, w in enumerate(self.words)]


class RecordingRhymer:
    """Records (a, b, candidates) of every call to the rhymer it wraps."""

    def __init__(self, inner):
        self.inner, self.calls = inner, []

    def rhyme_candidates(self, a, b, width=5, context=None):
        out = self.inner.rhyme_candidates(a, b, width=width, context=context)
        self.calls.append((a, b, out))
        return out


# kind -> the rhymer, made from the trained one
RHYMERS = {
    "desk rhymer": lambda trained: RhymerModel(
        RhymerConfig.desk_scale(seed=1)),
    # a context window that slides within a poem: a slot's context then
    # does not extend the one before, and is read in full
    "desk rhymer, 60-char context": lambda trained: RhymerModel(
        RhymerConfig.desk_scale(seed=2, max_context_chars=60)),
    # an untrained rhymer's words are mostly one char long, so only a
    # trained one's beam runs long enough for its stop to matter
    "trained rhymer": lambda trained: trained,
    # no candidate is an LM word, so the rhymer's top one is written and
    # its line re-fed with <unk> in its place
    "out-of-vocabulary stub": lambda trained: StubRhymer(
        ["/", "qoov", "zzyx"]),
    "in-vocabulary stub": lambda trained: StubRhymer(["/", "ash", "qoov"]),
}


def _assert_same_calls(got, want):
    assert len(got) == len(want)
    for (a1, b1, c1), (a2, b2, c2) in zip(got, want):
        assert (a1, b1) == (a2, b2)
        assert [w for w, _ in c1] == [w for w, _ in c2], (a1, b1)
        for (_, s1), (_, s2) in zip(c1, c2):
            assert s1 == pytest.approx(s2, rel=0, abs=1e-12), (a1, b1)


@pytest.mark.parametrize("kind", RHYMERS)
def test_generate_poem_equals_the_reference_decoder(models, tiny_rhymer,
                                                    monkeypatch, kind):
    lm, table = models
    inner = RHYMERS[kind](tiny_rhymer[0])
    sampled_from = []
    sample_id = decode._sample_id
    monkeypatch.setattr(decode, "_sample_id", lambda probs, *args: (
        sampled_from.append(probs) or sample_id(probs, *args)))
    seen = {"knn first words": 0, "replays after a substitution": 0,
            "<unk> replays": 0, "poems with 2+ rhyme slots": 0}
    # rhyme off, the rhymer is never called
    flags = FLAGS if kind == "desk rhymer" else [f for f in FLAGS if f[2]]
    for n, ((st, ac, rh, tp), seed) in enumerate(
            itertools.product(flags, SEEDS)):
        word = WORDS[n % len(WORDS)]
        cfg = GenerationConfig(st=st, ac=ac, rh=rh, tp=tp, rng_seed=seed,
                               **SETTINGS[seed])
        recording = RecordingRhymer(inner)
        sampled_from.clear()
        got = generate_poem(word, cfg, ModelBundle(lm=lm, table=table,
                                                   rhymer=recording))
        want, want_calls, want_sampled_from = reference_poem(
            word, cfg, lm, table, inner)
        case = (kind, word, cfg)
        assert got.poem.lines == want.poem.lines, case
        assert got.first_word_paths == want.first_word_paths, case
        assert got.substitutions == want.substitutions, case
        assert got.rhymer_calls == want.rhymer_calls, case
        _assert_same_calls(recording.calls, want_calls)
        assert len(sampled_from) == len(want_sampled_from), case
        for i, (p1, p2) in enumerate(zip(sampled_from, want_sampled_from)):
            assert np.array_equal(p1, p2), (case, i)

        seen["knn first words"] += got.first_word_paths.count("knn")
        replayed = [s for s in got.substitutions if s["slot"] < len(word)]
        seen["replays after a substitution"] += len(replayed)
        seen["<unk> replays"] += sum(s["replacement"] not in lm.vocab
                                     for s in replayed)
        seen["poems with 2+ rhyme slots"] += got.rhymer_calls >= 2
    # the in-vocabulary stub's substitutions are all LM words
    unk_replays = kind != "in-vocabulary stub"
    assert (seen.pop("<unk> replays") > 0) == unk_replays, seen
    assert all(seen.values()), seen
