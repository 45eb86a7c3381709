import gc
import weakref

import numpy as np
import pytest

from acropoet import embed
from acropoet.corpus import AcrosticSpec, CorpusError, Poem, build_vocabulary
from acropoet.embed import (
    EmbeddingError, EmbeddingTable, cosine, knn_with_initial, load_embeddings,
)


def write_vectors(path, entries):
    with open(path, "w") as fh:
        for tok, vec in entries:
            fh.write(tok + " " + " ".join(str(x) for x in vec) + "\n")


def table_from(entries, dim):
    vecs = {}
    for tok, vec in entries:
        vecs[tok] = np.array(vec, dtype=float)
    return EmbeddingTable(dim=dim, vectors=vecs)


# --- loading ----------------------------------------------------------------

def test_load_two_lines(tmp_path):
    p = tmp_path / "emb.txt"
    write_vectors(p, [("cat", [1, 2, 3]), ("dog", [4, 5, 6])])
    t = load_embeddings(p, expected_dim=3)
    assert len(t) == 2
    assert np.allclose(t.vector("cat"), [1, 2, 3])

def test_load_dim_mismatch_names_line(tmp_path):
    p = tmp_path / "emb.txt"
    write_vectors(p, [("cat", [1, 2, 3]), ("dog", [1, 2, 3, 4])])
    with pytest.raises(EmbeddingError, match="2"):
        load_embeddings(p, expected_dim=3)

def test_load_duplicate_last_wins(tmp_path, caplog):
    p = tmp_path / "emb.txt"
    write_vectors(p, [("cat", [1, 0]), ("cat", [0, 1])])
    with caplog.at_level("WARNING"):
        t = load_embeddings(p, expected_dim=2)
    assert np.allclose(t.vector("cat"), [0, 1])
    assert "duplicate" in caplog.text

def test_load_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_embeddings(tmp_path / "nope.txt", expected_dim=2)

def test_load_non_utf8_names_path_and_line(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_bytes(b"cat 1 2\ndog 3 4\n\xe9t\xe9 5 6\n")
    with pytest.raises(EmbeddingError, match=r"emb\.txt:3: not valid UTF-8"):
        load_embeddings(p, expected_dim=2)


# --- cosine -----------------------------------------------------------------

def test_cosine_identical():
    t = table_from([("a", [1, 2]), ("b", [1, 2])], 2)
    assert cosine("a", "b", t) == pytest.approx(1.0, abs=1e-9)

def test_cosine_orthogonal():
    t = table_from([("a", [1, 0]), ("b", [0, 1])], 2)
    assert cosine("a", "b", t) == pytest.approx(0.0, abs=1e-9)

def test_cosine_45_degrees():
    t = table_from([("a", [1, 0]), ("b", [1, 1])], 2)
    assert cosine("a", "b", t) == pytest.approx(0.70710678, abs=1e-6)

def test_cosine_zero_norm_error():
    t = table_from([("a", [0, 0]), ("b", [1, 1])], 2)
    with pytest.raises(EmbeddingError, match="zero-norm"):
        cosine("a", "b", t)

def test_cosine_missing_token():
    t = table_from([("a", [1, 0])], 2)
    with pytest.raises(EmbeddingError):
        cosine("a", "zzz", t)

def test_cosine_symmetry_and_scale_invariance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        va, vb = rng.normal(size=4), rng.normal(size=4)
        c = rng.uniform(0.1, 10.0)
        t = table_from([("a", va), ("b", vb), ("bs", c * vb)], 4)
        assert cosine("a", "b", t) == pytest.approx(cosine("b", "a", t),
                                                    abs=1e-12)
        assert cosine("a", "bs", t) == pytest.approx(cosine("a", "b", t),
                                                     abs=1e-9)


# --- kNN --------------------------------------------------------------------

def _vocab(tokens):
    return build_vocabulary([Poem(lines=[list(tokens)] * 4)],
                            max_size=len(tokens))

def knn_oracle(topic, letter, table, vocab, k):
    cands = []
    for tok in vocab.non_special_tokens():
        if tok.startswith(letter) and tok in table and np.any(table.vector(tok)):
            cands.append(tok)
    cands.sort(key=lambda t: (-cosine(t, topic, table), t))
    return cands[:k]

def test_knn_fewer_candidates_than_k():
    t = table_from([("top", [1, 0]), ("aa", [1, 1]), ("ab", [0, 1])], 2)
    v = _vocab(["aa", "ab"])
    got = knn_with_initial("top", "a", t, v, k=10)
    assert got == ["aa", "ab"]

def test_knn_no_candidates_empty():
    t = table_from([("top", [1, 0]), ("aa", [1, 1])], 2)
    assert knn_with_initial("top", "z", t, _vocab(["aa"]), k=5) == []

def test_knn_missing_topic():
    t = table_from([("aa", [1, 1])], 2)
    with pytest.raises(EmbeddingError):
        knn_with_initial("nope", "a", t, _vocab(["aa"]), k=5)

@pytest.mark.parametrize("seed", range(10))
def test_knn_matches_bruteforce(seed):
    rng = np.random.default_rng(seed)
    toks = ["".join(rng.choice(list("abcd"), size=3)) + str(i)
            for i in range(20)]
    toks = [t for t in toks]
    entries = [("topic", rng.normal(size=5))]
    entries += [(t, rng.normal(size=5)) for t in toks]
    table = table_from(entries, 5)
    vocab = _vocab(toks)
    for letter in "abcd":
        got = knn_with_initial("topic", letter, table, vocab, k=4)
        assert got == knn_oracle("topic", letter, table, vocab, 4)


def _assert_knn_matches_oracle(topic, table, vocab, letters, ks):
    for letter in letters:
        for k in ks:
            want = knn_oracle(topic, letter, table, vocab, k)
            # the second call is served from the cached index
            assert knn_with_initial(topic, letter, table, vocab, k=k) == want
            assert knn_with_initial(topic, letter, table, vocab, k=k) == want

def test_knn_exact_ties_break_on_token():
    rng = np.random.default_rng(11)
    base = [rng.normal(size=4) for _ in range(4)]
    entries = [("topic", rng.normal(size=4))]
    toks = []
    for i, vec in enumerate(base):
        # duplicates and positive rescalings tie in exact cosine
        for j, scale in enumerate([1.0, 1.0, 2.5, 1e-3, 1e3]):
            tok = f"a{i}{'zyxwv'[j]}"
            toks.append(tok)
            entries.append((tok, scale * vec))
    table = table_from(entries, 4)
    vocab = _vocab(toks)
    _assert_knn_matches_oracle("topic", table, vocab, "a", range(1, 12))

def test_knn_near_ties_keep_exact_order():
    # cosines that differ in the last few bits: the matvec may order them
    # differently from `cosine`, the shortlist must not
    entries = [("topic", np.array([1.0, 0.0, 0.0]))]
    toks = []
    for i in range(30):
        tok = f"b{i:02d}"
        toks.append(tok)
        entries.append((tok, np.array([1.0, 1e-8 * (i % 7), 1e-9 * i])))
    table = table_from(entries, 3)
    vocab = _vocab(toks)
    _assert_knn_matches_oracle("topic", table, vocab, "b", range(1, 31))

def test_knn_zero_vector_tokens_excluded():
    t = table_from([("top", [1, 0]), ("aa", [0, 0]), ("ab", [1, 1]),
                    ("ac", [0, 0]), ("ad", [-1, 1]), ("ae", [2, 1])], 2)
    v = _vocab(["aa", "ab", "ac", "ad", "ae"])
    assert knn_with_initial("top", "a", t, v, k=2) == ["ae", "ab"]
    assert knn_with_initial("top", "a", t, v, k=5) == ["ae", "ab", "ad"]
    _assert_knn_matches_oracle("top", t, v, "a", range(1, 6))

def test_knn_zero_norm_topic():
    t = table_from([("top", [0, 0]), ("aa", [1, 1]), ("ab", [0, 1]),
                    ("ac", [1, 0])], 2)
    v = _vocab(["aa", "ab", "ac"])
    for k in (1, 2, 5):
        with pytest.raises(EmbeddingError, match="zero-norm"):
            knn_with_initial("top", "a", t, v, k=k)
    assert knn_with_initial("top", "z", t, v, k=2) == []

def test_knn_k_larger_than_candidates():
    rng = np.random.default_rng(5)
    toks = [f"c{i}" for i in range(6)] + [f"d{i}" for i in range(3)]
    entries = [("topic", rng.normal(size=3))]
    entries += [(tok, rng.normal(size=3)) for tok in toks]
    table = table_from(entries, 3)
    vocab = _vocab(toks)
    _assert_knn_matches_oracle("topic", table, vocab, "cde", [3, 6, 7, 50])
    assert len(knn_with_initial("topic", "d", table, vocab, k=50)) == 3

def test_knn_second_vocabulary_gets_own_index():
    rng = np.random.default_rng(9)
    toks = [f"e{i:02d}" for i in range(20)]
    entries = [("topic", rng.normal(size=5))]
    entries += [(tok, rng.normal(size=5)) for tok in toks]
    table = table_from(entries, 5)
    first, second = _vocab(toks[:12]), _vocab(toks[8:])
    _assert_knn_matches_oracle("topic", table, first, "e", [1, 3, 20])
    _assert_knn_matches_oracle("topic", table, second, "e", [1, 3, 20])
    assert set(knn_with_initial("topic", "e", table, second, k=20)) == \
        set(toks[8:])
    assert len(table._knn_index) == 2

def test_knn_index_released_with_its_vocabulary():
    t = table_from([("top", [1, 0]), ("aa", [1, 1]), ("ab", [0, 1])], 2)
    vocab = _vocab(["aa", "ab"])
    assert knn_with_initial("top", "a", t, vocab, k=1) == ["aa"]
    assert len(t._knn_index) == 1
    dead = weakref.ref(vocab)
    del vocab
    gc.collect()
    assert dead() is None
    assert len(t._knn_index) == 0


# --- char one-hot -----------------------------------------------------------

def test_onehot_poet():
    block = AcrosticSpec.from_word("poet").onehot_block()
    for row, ch in enumerate("poet"):
        assert block[row, ord(ch) - ord("a")] == 1
    for row in range(4, 8):
        assert block[row, 26] == 1

def test_onehot_full_length_no_pad():
    assert AcrosticSpec.from_word("abcdefgh").onehot_block()[:, 26].sum() == 0

def test_onehot_rejects_bad_words():
    for bad in ["po3t", "", "abcdefghi"]:
        with pytest.raises(CorpusError):
            AcrosticSpec.from_word(bad).onehot_block()
