"""Seeded synthetic inputs for the acropoet benchmark.

Everything the benchmark feeds the program is derived from one workload
seed: a vocabulary of random words, word vectors for every token, training
poems over that vocabulary, the acrostic words to generate for, and two
untrained models (the "mid" poem LM and the desk-scale rhymer).  The same
seed always gives the same inputs.

Run as a script to write one seed's inputs to a directory:

    PYTHONPATH=src python3 bench/workload.py --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import string
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from acropoet.corpus import Poem, build_vocabulary, write_poems
from acropoet.embed import EmbeddingTable
from acropoet.poemlm import (
    LmConfig, LmVariant, PoemLM, TrainedLm, build_embedding_matrix, save_lm,
)
from acropoet.rhymer import RhymerConfig, RhymerModel, save_rhymer

# ROADMAP "mid" size.  VOCAB counts the five reserved specials.
VOCAB = 5000
DIM = 100
HIDDEN = 256
LAYERS = 2
BATCH = 32

N_TRAIN = 640        # 20 training batches of BATCH poems
N_DEV = 2            # dev set train_lm early-stops on; kept small so
                     # the dev passes do not swamp the one-batch epoch
N_TEST = 4 * BATCH   # held-out batches the perplexity pass rotates over
N_ACROSTIC = 40      # acrostic words per length, lengths 4-8
ACROSTIC_LENGTHS = range(4, 9)
PUNCTUATION = [",", ".", ";", "!", "?"]

# Untrained weights give <eol> probability ~1/V, so every generated line
# would run to the 15-token cap and overstate prefix replay.  Biasing the
# <eol> logit so it takes this share of each step gives lines of ~5-6
# tokens, the 3-7 of the training poems.
EOL_SHARE = 0.2


@dataclass
class World:
    """One seed's inputs, in memory."""

    seed: int
    tokens: list[str]
    vectors: dict[str, np.ndarray]
    train: list[Poem]
    dev: list[Poem]
    test: list[Poem]
    acrostic_words: list[str]

    def table(self) -> EmbeddingTable:
        return EmbeddingTable(dim=DIM, vectors=self.vectors)


def make_tokens(rng: np.random.Generator, n: int) -> list[str]:
    """n distinct tokens: punctuation plus random lowercase words.

    The first 26 words start with a..z in turn, so every initial has at
    least one in-table token (first-word masking raises otherwise).
    """
    letters = np.array(list(string.ascii_lowercase))
    out = list(PUNCTUATION)
    seen = set(out)
    while len(out) < n:
        length = int(rng.integers(2, 10))
        chars = rng.choice(letters, size=length)
        if len(out) - len(PUNCTUATION) < 26:
            chars[0] = letters[len(out) - len(PUNCTUATION)]
        word = "".join(chars)
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


def make_acrostic_words(rng: np.random.Generator,
                        tokens: list[str]) -> list[str]:
    """N_ACROSTIC in-table words of each length 4-8, interleaved by length.

    Interleaving keeps the mix of rhyme schemes the same in any prefix of
    the list, so time-bounded runs of different seeds do the same mix.
    """
    by_len = []
    for length in ACROSTIC_LENGTHS:
        pool = sorted(t for t in tokens
                      if len(t) == length and t.isalpha())
        by_len.append(list(rng.choice(pool, size=N_ACROSTIC,
                                      replace=False)))
    return [str(group[i]) for i in range(N_ACROSTIC) for group in by_len]


def make_poems(rng: np.random.Generator, tokens: list[str], n: int,
               cover: bool = False) -> list[Poem]:
    """Poems of 4-8 lines and 3-7 tokens per line, topic an in-table word.

    With cover=True every token appears at least once, so the vocabulary
    built from these poems is the full token list.
    """
    words = [t for t in tokens if t.isalpha()]
    stream = list(rng.permutation(tokens)) if cover else []
    stream.reverse()
    poems = []
    for _ in range(n):
        lines = []
        for _ in range(int(rng.integers(4, 9))):
            line = []
            for _ in range(int(rng.integers(3, 8))):
                line.append(str(stream.pop()) if stream
                            else words[int(rng.integers(len(words)))])
            lines.append(line)
        topic = words[int(rng.integers(len(words)))]
        poems.append(Poem(lines=lines, topic=topic))
    if stream:
        raise ValueError("too few poems to cover the vocabulary")
    return poems


def make_world(seed: int) -> World:
    rng = np.random.default_rng([seed, 0xAC20])
    tokens = make_tokens(rng, VOCAB - 5)
    # six decimals, as in the text file, so the file round-trips exactly
    vectors = {t: np.round(rng.normal(size=DIM) * 1e6) / 1e6 for t in tokens}
    return World(
        seed=seed, tokens=tokens, vectors=vectors,
        train=make_poems(rng, tokens, N_TRAIN, cover=True),
        dev=make_poems(rng, tokens, N_DEV),
        test=make_poems(rng, tokens, N_TEST),
        acrostic_words=make_acrostic_words(rng, tokens))


def calibrate_eol(lm: PoemLM, poems: list[Poem],
                  table: EmbeddingTable) -> None:
    """Set the <eol> output bias so that <eol> takes EOL_SHARE of the
    probability, averaged over every position of `poems`.

    The bias shifts only the <eol> logit, so one forward pass gives each
    position's margin against the other tokens and the shift is found by
    bisection.  Calibrating per model keeps the line lengths, and so the
    work per poem, alike across seeds.
    """
    inputs, _, weights, cond = next(lm.batches(poems, table, len(poems)))
    logits, _ = lm.forward_batch(inputs, cond)
    logits = logits[weights > 0]
    eol = lm.vocab.eol_id
    others = np.delete(logits, eol, axis=1)
    top = others.max(axis=1)
    margin = logits[:, eol] - top - np.log(
        np.exp(others - top[:, None]).sum(axis=1))
    lo, hi = -50.0, 50.0
    for _ in range(100):
        mid = (lo + hi) / 2
        if np.mean(1.0 / (1.0 + np.exp(-(margin + mid)))) < EOL_SHARE:
            lo = mid
        else:
            hi = mid
    lm.store["lm.out.b"][eol] += (lo + hi) / 2


def make_lm(world: World) -> PoemLM:
    """Seeded, untrained mid-size LM over the training vocabulary."""
    vocab = build_vocabulary(world.train, max_size=VOCAB - 5)
    table = world.table()
    cfg = LmConfig.desk_scale(n_layers=LAYERS, hidden=HIDDEN,
                              batch_size=BATCH, seed=world.seed)
    lm = PoemLM(vocab, cfg, topic_dim=DIM,
                emb_matrix=build_embedding_matrix(vocab, table),
                variant=LmVariant.from_name("gold+"))
    calibrate_eol(lm, world.test[:BATCH], table)
    return lm


def write_world(world: World, out: Path) -> None:
    """Write the files the benchmark's loaders read."""
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "vectors.txt", "w", encoding="utf-8") as fh:
        for tok in world.tokens:
            fh.write(tok + " " + " ".join(
                f"{x:.6f}" for x in world.vectors[tok]) + "\n")
    for name in ("train", "dev", "test"):
        write_poems(out / f"{name}.jsonl", getattr(world, name))
    (out / "words.json").write_text(json.dumps(world.acrostic_words))
    save_lm(out / "lm.ckpt", TrainedLm(model=make_lm(world)))
    rhymer = RhymerModel(RhymerConfig.desk_scale(seed=world.seed))
    save_rhymer(out / "rhymer.ckpt", rhymer, [])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    write_world(make_world(args.seed), args.out)


if __name__ == "__main__":
    main()
