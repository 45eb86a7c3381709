"""Synthetic fixture builders shared by the test modules."""

import contextlib
import ctypes

import numpy as np
import pytest

from acropoet.corpus import Poem, RawDocument
from acropoet.embed import EmbeddingTable

# Two topics with disjoint content vocabularies; words cover many initials.
TOPIC_WORDS = {
    "fire": ["ash", "blaze", "coal", "dragon", "ember", "flame", "glow",
             "heat", "inferno", "jet", "kindle", "lava", "match", "night",
             "oven", "pyre", "quick", "red", "spark", "torch", "umber",
             "vivid", "warm", "xeno", "yellow", "zeal"],
    "water": ["abyss", "bay", "creek", "drop", "eddy", "flow", "gulf",
              "harbor", "ice", "jetty", "kelp", "lake", "mist", "nautical",
              "ocean", "pond", "quay", "river", "sea", "tide", "under",
              "vapor", "wave", "xebec", "yacht", "zephyr"],
}
ALL_WORDS = sorted(set(sum(TOPIC_WORDS.values(), [])) | set(TOPIC_WORDS))


def make_table(dim=8, seed=0, extra_tokens=()):
    """Embedding table with topic-clustered vectors."""
    rng = np.random.default_rng(seed)
    centers = {t: rng.normal(size=dim) for t in sorted(TOPIC_WORDS)}
    vecs = {}
    for topic, words in TOPIC_WORDS.items():
        vecs[topic] = centers[topic] * 2.0
        for w in words:
            vecs[w] = centers[topic] + 0.3 * rng.normal(size=dim)
    for tok in extra_tokens:
        vecs[tok] = rng.normal(size=dim)
    return EmbeddingTable(dim=dim, vectors=vecs)


def make_poems(n, seed=0, topic=None, min_lines=4, max_lines=8):
    """Markov-ish poems: each line walks the topic word list cyclically,
    which gives the LM an easily learnable next-token structure."""
    rng = np.random.default_rng(seed)
    poems = []
    topics = sorted(TOPIC_WORDS) if topic is None else [topic]
    for i in range(n):
        t = topics[i % len(topics)]
        bank = TOPIC_WORDS[t]
        n_lines = int(rng.integers(min_lines, max_lines + 1))
        lines = []
        for _ in range(n_lines):
            start = int(rng.integers(0, len(bank)))
            length = int(rng.integers(3, 6))
            lines.append([bank[(start + j) % len(bank)]
                          for j in range(length)])
        lines[-1] = lines[-1] + ["."]
        poems.append(Poem(lines=lines, topic=t))
    return poems


def make_plain_sentences(n, seed=0):
    """Plain-text pretraining sentences over the same vocabulary."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        t = sorted(TOPIC_WORDS)[int(rng.integers(0, 2))]
        bank = TOPIC_WORDS[t]
        start = int(rng.integers(0, len(bank)))
        length = int(rng.integers(4, 9))
        out.append([bank[(start + j) % len(bank)] for j in range(length)]
                   + ["."])
    return out


def make_documents(n, seed=0):
    """Raw documents (pre-tokenization) for corpus-level tests and the CLI."""
    rng = np.random.default_rng(seed)
    docs = []
    for i in range(n):
        t = sorted(TOPIC_WORDS)[i % 2]
        bank = TOPIC_WORDS[t]
        n_lines = int(rng.integers(3, 14))
        lines = []
        for j in range(n_lines):
            start = int(rng.integers(0, len(bank)))
            words = [bank[(start + k) % len(bank)]
                     for k in range(int(rng.integers(3, 6)))]
            line = " ".join(words)
            if rng.random() < 0.4 or j == n_lines - 1:
                line += "."
            lines.append(line)
            if rng.random() < 0.1:
                lines.append("")
        docs.append(RawDocument(lines=lines, source_tag="known_topic",
                                topic=t))
    return docs


def make_sonnets(n, seed=0):
    """14-line documents usable as rhymer training data."""
    rng = np.random.default_rng(seed)
    rhyme_groups = [["day", "way", "play", "stay"],
                    ["night", "light", "sight", "bright"],
                    ["sea", "free", "tree", "thee"],
                    ["love", "dove", "above", "glove"]]
    scheme = "ABABCDCDEFEFGG"
    docs = []
    for _ in range(n):
        ends = {}
        for letter in sorted(set(scheme)):
            group = rhyme_groups[int(rng.integers(0, len(rhyme_groups)))]
            picks = rng.choice(len(group), size=2, replace=False)
            ends[letter] = (group[picks[0]], group[picks[1]])
        seen = {}
        lines = []
        for letter in scheme:
            idx = seen.get(letter, 0)
            seen[letter] = idx + 1
            bank = TOPIC_WORDS["water"]
            start = int(rng.integers(0, len(bank)))
            words = [bank[(start + k) % len(bank)] for k in range(3)]
            lines.append(" ".join(words) + " " + ends[letter][idx] + ",")
        docs.append(RawDocument(lines=lines, source_tag="sonnet"))
    return docs


@contextlib.contextmanager
def one_blas_thread():
    """numpy's OpenBLAS on one thread inside the block, as it was after.

    Row blocks give the bits of the whole product only on a
    single-threaded BLAS; skips the test when the BLAS has no thread
    control.
    """
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath
    lib = ctypes.CDLL(_multiarray_umath.__file__)
    for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
        get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
        put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
        if get is not None and put is not None:
            break
    else:
        pytest.skip("numpy's BLAS has no OpenBLAS thread control")
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)
