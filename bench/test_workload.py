"""Tests for the benchmark's synthetic input generator.

    PYTHONPATH=src python3 -m pytest bench -q
"""

import string

import numpy as np
import pytest

import workload
from acropoet.decode import GenerationConfig, ModelBundle, generate_poem


@pytest.fixture(scope="module")
def world():
    return workload.make_world(3)


def test_same_seed_same_inputs(world):
    again = workload.make_world(3)
    assert again.tokens == world.tokens
    assert again.acrostic_words == world.acrostic_words
    for name in ("train", "dev", "test"):
        assert ([(p.lines, p.topic) for p in getattr(again, name)]
                == [(p.lines, p.topic) for p in getattr(world, name)])
    assert all(np.array_equal(again.vectors[t], world.vectors[t])
               for t in world.tokens)
    other = workload.make_world(4)
    assert other.tokens != world.tokens
    assert other.acrostic_words != world.acrostic_words


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_every_initial_starts_an_in_table_token(seed):
    tokens = workload.make_world(seed).tokens
    assert len(tokens) == workload.VOCAB - 5
    assert {t[0] for t in tokens if t.isalpha()} == set(string.ascii_lowercase)


def test_every_word_length_appears_in_each_round(world):
    words = world.acrostic_words
    lengths = list(workload.ACROSTIC_LENGTHS)
    assert len(words) == workload.N_ACROSTIC * len(lengths)
    assert all(w.isalpha() and w in world.vectors for w in words)
    rounds = [words[i:i + len(lengths)]
              for i in range(0, len(words), len(lengths))]
    assert all(sorted(map(len, r)) == lengths for r in rounds)


def test_eol_bias_gives_training_poem_line_lengths(world):
    lm = workload.make_lm(world)
    models = ModelBundle(lm=lm, table=world.table())
    lines = []
    for i, word in enumerate(world.acrostic_words[:10]):
        cfg = GenerationConfig(rh=False, rng_seed=i)
        lines += generate_poem(word, cfg, models).poem.lines
    mean = sum(map(len, lines)) / len(lines)
    assert 3.0 <= mean <= 7.0
