import gc
import weakref

import numpy as np
import pytest
from reference import knn_oracle

from acropoet import embed
from acropoet.corpus import (
    CorpusError, Poem, Vocabulary, acrostic_block, build_vocabulary,
)
from acropoet.embed import (
    EmbeddingError, EmbeddingTable, knn_with_initial, load_embeddings,
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


@pytest.mark.parametrize("width", [None, 2])
def test_load_width_from_the_first_vector_line(tmp_path, width):
    p = tmp_path / "emb.txt"
    p.write_text("\ncat 1 2\ndog 3 4\n")
    t = load_embeddings(p, width)
    assert t.dim == 2 and t.matrix.shape == (2, 2)
    p.write_text("\ncat 1 2\ndog 3 4 5\n")
    with pytest.raises(EmbeddingError,
                       match=r"emb\.txt:3: expected 2 values, got 3$"):
        load_embeddings(p, width)


def test_load_ends_lines_at_newline_only(tmp_path):
    """A lone carriage return is no line end; one before a newline is."""
    p = tmp_path / "emb.txt"
    p.write_bytes(b"cat 1 2\r\n\r\ndog 3 4\r\n")
    assert load_embeddings(p).matrix.tolist() == [[1, 2], [3, 4]]
    p.write_bytes(b"cat 1 2\rdog 3 4\remu 5 6\n")
    with pytest.raises(EmbeddingError, match=r"emb\.txt:1: bad float"):
        load_embeddings(p)


@pytest.mark.parametrize("width", [None, 2])
@pytest.mark.parametrize("text", ["", "\n\n"])
def test_load_file_without_vectors_names_path(tmp_path, width, text):
    p = tmp_path / "emb.txt"
    p.write_text(text)
    with pytest.raises(EmbeddingError, match=r"emb\.txt: no vectors$"):
        load_embeddings(p, width)


@pytest.mark.parametrize("width, problem", [
    (None, "no values"), (2, "expected 2 values, got 0")])
def test_load_first_line_without_values_names_it(tmp_path, width, problem):
    p = tmp_path / "emb.txt"
    p.write_text("cat\ndog 3 4\n")
    with pytest.raises(EmbeddingError, match=rf"emb\.txt:1: {problem}$"):
        load_embeddings(p, width)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_load_non_finite_value_names_path_and_line(tmp_path, value):
    p = tmp_path / "emb.txt"
    p.write_text(f"cat 1 2\ndog 3 4\nemu 5 {value}\neel 7 8\n")
    with pytest.raises(EmbeddingError, match=r"emb\.txt:3: non-finite "
                       r"value -?(nan|inf)$"):
        load_embeddings(p, expected_dim=2)


def test_load_non_finite_names_the_first_line_with_one(tmp_path):
    """A duplicate's row holds its later line's values, and is named by
    that line."""
    p = tmp_path / "emb.txt"
    p.write_text("cat 1 2\ndog inf 4\nemu 5 6\ncat nan 1\nemu 0 1\n")
    with pytest.raises(EmbeddingError, match=r"emb\.txt:2: non-finite "
                       r"value inf$"):
        load_embeddings(p, expected_dim=2)
    p.write_text("cat nan 2\ndog 3 4\ncat 1 2\nemu 5 -inf\n")
    with pytest.raises(EmbeddingError, match=r"emb\.txt:4: non-finite "
                       r"value -inf$"):
        load_embeddings(p, expected_dim=2)

def test_loaded_table_is_one_read_only_matrix(tmp_path, caplog):
    p = tmp_path / "emb.txt"
    p.write_text("Cat 1 2\n\ndog 3 4\ncat 5 6\nemu 0 0")
    with caplog.at_level("WARNING"):
        t = load_embeddings(p, expected_dim=2)
    assert "duplicate" in caplog.text
    assert len(t) == 3
    assert t.matrix.shape == (3, 2) and not t.matrix.flags.writeable
    assert np.array_equal(t.matrix, [[5, 6], [3, 4], [0, 0]])
    assert np.array_equal(t.norms, np.linalg.norm(t.matrix, axis=1))
    assert not t.norms.flags.writeable
    assert [t.row(tok) for tok in ("CAT", "dog", "emu", "eel")] == [
        0, 1, 2, None]
    assert np.shares_memory(t.vector("dog"), t.matrix)
    with pytest.raises(ValueError):
        t.vector("dog")[0] = 1.0

def test_table_from_a_mapping_copies_into_one_matrix():
    vecs = {"aa": np.array([1.0, 2.0]), "bb": np.array([3.0, 4.0])}
    t = EmbeddingTable(dim=2, vectors=vecs)
    vecs["aa"][0] = 9.0
    assert np.array_equal(t.vector("aa"), [1.0, 2.0])
    assert np.array_equal(t.matrix, [[1, 2], [3, 4]])
    assert "AA" in t and "cc" not in t and len(t) == 2


def test_table_from_a_mapping_lower_cases_its_keys():
    t = EmbeddingTable(dim=2, vectors={"Fire": np.array([1.0, 2.0]),
                                       "sea": np.array([3.0, 4.0])})
    assert len(t) == 2
    assert "Fire" in t and "fire" in t and "FIRE" in t
    assert t.row("fire") == 0 and t.row("SEA") == 1
    assert np.array_equal(t.vector("fire"), [1.0, 2.0])

def test_table_from_a_mapping_rejects_keys_equal_once_lower_cased():
    vecs = {"fire": np.zeros(2), "sea": np.ones(2), "Fire": np.ones(2)}
    with pytest.raises(EmbeddingError,
                       match="tokens 'fire' and 'Fire' are the same"):
        EmbeddingTable(dim=2, vectors=vecs)


@pytest.mark.parametrize("vec", [np.ones(1), np.ones(4), np.ones((1, 3)),
                                 np.float64(1.0)])
def test_table_from_a_mapping_rejects_a_vector_of_another_shape(vec):
    """A short vector would broadcast over its row, a long one fail with
    numpy's own error."""
    vecs = {"fire": np.ones(3), "sea": vec}
    with pytest.raises(EmbeddingError, match=r"token 'sea': vector shape "
                       r"\(.*\), expected \(3,\)"):
        EmbeddingTable(dim=3, vectors=vecs)


# --- kNN --------------------------------------------------------------------

def _vocab(tokens):
    return build_vocabulary([Poem(lines=[list(tokens)] * 4)],
                            max_size=len(tokens))

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

def test_knn_ranks_by_angle_to_the_topic():
    # same direction, then 45, 90, 135 and 180 degrees, whatever the
    # candidates' lengths and tokens
    t = table_from([("top", [1, 0]), ("ae", [0.1, 0]), ("ad", [2, 2]),
                    ("ac", [0, 5]), ("ab", [-1, 1]), ("aa", [-3, 0])], 2)
    v = _vocab(["aa", "ab", "ac", "ad", "ae"])
    want = ["ae", "ad", "ac", "ab", "aa"]
    for k in range(1, 6):
        assert knn_with_initial("top", "a", t, v, k=k) == want[:k]

@pytest.mark.parametrize("scale", [1e-3, 2.5, 1e3])
def test_knn_order_ignores_the_lengths_of_topic_and_candidates(scale):
    rng = np.random.default_rng(4)
    toks = [f"a{i:02d}" for i in range(20)]
    topic, vecs = rng.normal(size=4), rng.normal(size=(20, 4))
    lengths = rng.uniform(0.1, 10.0, size=(20, 1))
    plain = table_from([("topic", topic), *zip(toks, vecs)], 4)
    scaled = table_from([("topic", scale * topic),
                         *zip(toks, lengths * vecs)], 4)
    vocab = _vocab(toks)
    assert knn_with_initial("topic", "a", scaled, vocab, k=20) == \
        knn_with_initial("topic", "a", plain, vocab, k=20)

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
            # a repeated call gives the same answer
            assert knn_with_initial(topic, letter, table, vocab, k=k) == want
            assert knn_with_initial(topic, letter, table, vocab, k=k) == want

def test_knn_exact_ties_break_on_token():
    rng = np.random.default_rng(11)
    base = [rng.normal(size=4) for _ in range(4)]
    entries = [("topic", rng.normal(size=4))]
    toks = []
    for i, vec in enumerate(base):
        # duplicates tie exactly; a rescaling may move the score in its
        # last bits, and the oracle's formula must move it the same way
        for j, scale in enumerate([1.0, 1.0, 2.5, 1e-3, 1e3]):
            tok = f"a{i}{'zyxwv'[j]}"
            toks.append(tok)
            entries.append((tok, scale * vec))
    table = table_from(entries, 4)
    vocab = _vocab(toks)
    _assert_knn_matches_oracle("topic", table, vocab, "a", range(1, 12))

def test_knn_near_ties_keep_exact_order():
    # cosines that differ in the last few bits: the order is that of the
    # one matvec formula, bit for bit
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

def test_knn_index_released_with_its_vocabulary():
    t = table_from([("top", [1, 0]), ("aa", [1, 1]), ("ab", [0, 1])], 2)
    vocab = _vocab(["aa", "ab"])
    assert knn_with_initial("top", "a", t, vocab, k=1) == ["aa"]
    dead = weakref.ref(vocab)
    del vocab
    gc.collect()
    assert dead() is None
    assert knn_with_initial("top", "a", t, _vocab(["ab"]), k=1) == ["ab"]


def test_letter_candidates_are_in_table_nonzero_in_token_order():
    t = table_from([("top", [1, 0]), ("ab", [1, 1]), ("aa", [0, 0]),
                    ("ac", [2, 1]), ("b1", [1, 1])], 2)
    v = Vocabulary(["ac", "zz", "ad", "aa", "ab", "b1"])
    ids, rows = embed.letter_candidates(t, v, "a")
    assert v.decode(ids.tolist()) == ["ab", "ac"]
    assert rows.tolist() == [t.row(tok) for tok in v.decode(ids.tolist())]
    assert not any(a.flags.writeable for a in (ids, rows))
    none = embed.letter_candidates(t, v, "q")
    assert len(none.ids) == len(none.rows) == 0
    for letter in "abqz":
        cands = embed.letter_candidates(t, v, letter)
        for k in (1, 2, 5):
            assert knn_with_initial("top", letter, t, v, k=k,
                                    candidates=cands) == \
                knn_oracle("top", letter, t, v, k)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("odd,problem", [
    ([1e-200, 0.0], "underflows to 0"), ([1e-200, 1e-200], "underflows to 0"),
    ([1e200, 1e200], "is inf"), ([np.inf, 1.0], "is inf"),
    ([np.nan, 1.0], "is nan"),
], ids=["underflow", "underflow-both", "overflow", "inf", "nan"])
def test_table_rejects_a_vector_with_an_odd_norm(odd, problem):
    """A norm that underflows to zero or is not finite has no cosine, so
    the table refuses it, naming its token."""
    with pytest.raises(EmbeddingError,
                       match=rf"^token 'a9': vector norm {problem}$"):
        table_from([("top", [1.0, 0.5]), ("a1", [1.0, 2.0]), ("a9", odd)],
                   2)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value,problem", [("1e-200", "underflows to 0"),
                                           ("1e200", "is inf")])
def test_load_rejects_a_vector_with_an_odd_norm(tmp_path, value, problem):
    p = tmp_path / "emb.txt"
    p.write_text(f"aa 1 2\nab 0 0\nac {value} {value}\nad 3 4\n")
    with pytest.raises(EmbeddingError,
                       match=rf"emb\.txt:3: vector norm {problem}$"):
        load_embeddings(p, expected_dim=2)


def test_an_all_zero_vector_loads_and_is_no_candidate(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("top 1 0\naa 0 0\nab 1 1\nac 2e-100 1e-100\n")
    t = load_embeddings(p, expected_dim=2)
    v = _vocab(["aa", "ab", "ac"])
    cands = embed.letter_candidates(t, v, "a")
    assert v.decode(cands.ids.tolist()) == ["ab", "ac"]
    for k in (1, 3):
        assert knn_with_initial("top", "a", t, v, k=k) == \
            knn_oracle("top", "a", t, v, k) == ["ac", "ab"][:k]


# --- char one-hot -----------------------------------------------------------

def test_onehot_poet():
    block = acrostic_block("poet")
    for row, ch in enumerate("poet"):
        assert block[row, ord(ch) - ord("a")] == 1
    for row in range(4, 8):
        assert block[row, 26] == 1

def test_onehot_full_length_no_pad():
    assert acrostic_block("abcdefgh")[:, 26].sum() == 0

def test_onehot_rejects_bad_words():
    for bad in ["po3t", "", "abcdefghi"]:
        with pytest.raises(CorpusError):
            acrostic_block(bad)
