import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from acropoet import corpus
from acropoet.corpus import (
    Poem, RawDocument, acrostic_block, build_vocabulary, poem_initials,
    split_into_training_poems, tokenize,
)


# --- tokenize ---------------------------------------------------------------

def test_tokenize_presplit_possessive():
    assert tokenize("Earth 's heart,") == ["earth", "'s", "heart", ","]

def test_tokenize_empty():
    assert tokenize("") == []

def test_tokenize_contraction():
    assert tokenize("Don't stop.") == ["do", "n't", "stop", "."]

def test_tokenize_attached_possessive():
    assert tokenize("Earth's heart,") == ["earth", "'s", "heart", ","]

def test_tokenize_punct_isolated():
    assert tokenize("well...done!") == ["well", ".", ".", ".", "done", "!"]

@given(st.text(max_size=80))
def test_tokenize_idempotent(text):
    toks = tokenize(text)
    assert tokenize(" ".join(toks)) == toks


# --- splitting --------------------------------------------------------------

def _doc(lines, topic=None):
    tag = "known_topic" if topic else "unknown_topic"
    return RawDocument(lines=lines, source_tag=tag, topic=topic)

def test_split_in_bounds_stanza_kept():
    doc = _doc(["a b c"] * 5)
    poems = split_into_training_poems(doc)
    assert len(poems) == 1 and poems[0].n_lines == 5

def test_split_too_short_dropped():
    assert split_into_training_poems(_doc(["x y"] * 3)) == []

def test_split_long_stanza_prefixes():
    # "." ends lines 4, 6 and 10; only 4- and 6-line prefixes qualify
    lines = ["w w" for _ in range(12)]
    for i in (3, 5, 9):
        lines[i] = "w w ."
    poems = split_into_training_poems(_doc(lines))
    assert sorted(p.n_lines for p in poems) == [4, 6]

def test_split_on_empty_lines():
    doc = _doc(["a"] * 4 + [""] + ["b"] * 5)
    poems = split_into_training_poems(doc)
    assert [p.n_lines for p in poems] == [4, 5]


def split_oracle(doc):
    """Brute-force reimplementation: enumerate stanzas and all prefixes."""
    stanzas, cur = [], []
    for line in doc.lines:
        if line.strip():
            cur.append(line)
        else:
            if cur:
                stanzas.append(cur)
            cur = []
    if cur:
        stanzas.append(cur)
    out = []
    for stanza in stanzas:
        toks = [tokenize(l) for l in stanza]
        toks = [t for t in toks if t]
        if 4 <= len(toks) <= 8:
            out.append(toks)
        elif len(toks) > 8:
            for k in range(1, len(toks) + 1):
                if 4 <= k <= 8 and toks[k - 1][-1] == ".":
                    out.append(toks[:k])
    return out


@pytest.mark.parametrize("seed", range(20))
def test_split_matches_oracle_random(seed):
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(rng.integers(1, 20)):
        if rng.random() < 0.15:
            lines.append("")
        else:
            line = "tok " * rng.integers(1, 4)
            if rng.random() < 0.4:
                line += "."
            lines.append(line.strip())
    doc = _doc(lines)
    got = [p.lines for p in split_into_training_poems(doc)]
    assert got == split_oracle(doc)

def test_every_emitted_poem_in_bounds():
    rng = np.random.default_rng(7)
    for _ in range(30):
        lines = [("x ." if rng.random() < 0.5 else "x")
                 for _ in range(rng.integers(1, 25))]
        for p in split_into_training_poems(_doc(lines)):
            assert 4 <= p.n_lines <= 8


# --- vocabulary -------------------------------------------------------------

def _poem(tokens):
    return Poem(lines=[tokens] * 4)

def test_vocab_most_frequent():
    poems = [_poem(["a", "a", "a", "b"])]
    v = build_vocabulary(poems, max_size=1)
    assert v.non_special_tokens() == ["a"]

def test_vocab_empty_corpus():
    v = build_vocabulary([], max_size=10)
    assert v.non_special_tokens() == []
    assert len(v) == len(corpus.SPECIALS)

@pytest.mark.parametrize("attr,tok", [
    ("pad_id", corpus.PAD), ("bos_id", corpus.BOS), ("eos_id", corpus.EOS),
    ("eol_id", corpus.EOL), ("unk_id", corpus.UNK)])
def test_vocab_special_ids_are_class_constants(attr, tok):
    for tokens in ([], ["zeta", "alpha"], ["a", "<pads>", "b"]):
        v = corpus.Vocabulary(tokens)
        assert v.token_to_id[tok] == getattr(corpus.Vocabulary, attr)
        assert getattr(v, attr) == getattr(corpus.Vocabulary, attr)

def test_vocab_default_cap_is_max_vocab():
    tokens = [f"t{i}" for i in range(corpus.MAX_VOCAB + 1)]
    v = build_vocabulary([_poem(tokens)])
    assert len(v) == corpus.MAX_VOCAB + len(corpus.SPECIALS)
    assert max(tokens) == "t9999" and "t9999" not in v  # loses the tie

def test_vocab_tie_lexicographic():
    poems = [_poem(["zeta", "alpha"])]
    v = build_vocabulary(poems, max_size=1)
    assert v.non_special_tokens() == ["alpha"]

def test_vocab_roundtrip_and_unk():
    v = build_vocabulary([_poem(["a", "b"])], max_size=10)
    toks = ["a", "b", "a"]
    assert v.decode(v.encode(toks)) == toks
    assert v.encode(["zzz"]) == [v.unk_id]

@given(st.lists(st.sampled_from(["a", "b", "c", "dd"]), min_size=1))
def test_vocab_identity_property(toks):
    v = build_vocabulary([_poem(["a", "b", "c", "dd"])], max_size=10)
    assert v.decode(v.encode(toks)) == toks

def test_vocab_by_initial_equals_scan():
    v = corpus.Vocabulary(["sun", ",", "'s", "42", "rain", "n't", "sea",
                           "7", "river", ".", "'d", "ash", "stone"])
    assert v.by_initial is v.by_initial  # built once
    assert "z" not in v.by_initial
    for letter in "abcdefghijklmnopqrstuvwxyz":
        scan = [i for i, tok in enumerate(v.id_to_token)
                if tok not in corpus.SPECIALS and tok[0] == letter]
        assert v.by_initial.get(letter, np.empty(0)).tolist() == scan
    assert v.decode(v.by_initial["'"].tolist()) == ["'s", "'d"]
    assert sum(map(len, v.by_initial.values())) == len(v) - len(
        corpus.SPECIALS)
    with pytest.raises(TypeError):
        v.by_initial["q"] = np.empty(0)
    with pytest.raises(ValueError):
        v.by_initial["s"][0] = 0

def test_vocab_rejects_empty_token():
    with pytest.raises(corpus.CorpusError, match="empty token"):
        corpus.Vocabulary(["sun", ""])


# --- training conditions ----------------------------------------------------

def test_condition_alone():
    poem = Poem(lines=[[w] for w in ["alone", "less", "only", "not", "even"]])
    initials = poem_initials(poem)
    assert initials == list("alone")
    block = acrostic_block(initials)
    assert block[0, 0] == 1  # 'a'
    for row in range(5, 8):
        assert block[row, corpus.PAD_COL] == 1

def test_condition_digit_initial_pads():
    poem = Poem(lines=[["42", "x"], ["a"], ["b"], ["c"]])
    initials = poem_initials(poem)
    assert initials[0] is None
    assert acrostic_block(initials)[0, corpus.PAD_COL] == 1

def test_condition_eight_lines_no_pad():
    poem = Poem(lines=[[c] for c in "abcdefgh"])
    block = acrostic_block(poem_initials(poem))
    assert block[:, corpus.PAD_COL].sum() == 0

@pytest.mark.parametrize("n_lines", [3, 9])
def test_condition_of_a_poem_outside_4_to_8_lines_errors(n_lines):
    with pytest.raises(corpus.CorpusError,
                       match=f"poem has {n_lines} lines, need 4-8"):
        poem_initials(Poem(lines=[["ash"]] * n_lines))

@pytest.mark.parametrize("letters, problem", [
    (list("abcdefghi"), "need 1..8 letters, got 9"), ([], "got 0"),
    (["a", "7"], "bad acrostic letter '7'"),
    (["a", "B"], "bad acrostic letter 'B'"),
    (["a", "bc"], "bad acrostic letter 'bc'")])
def test_acrostic_block_takes_1_to_8_letters_a_to_z(letters, problem):
    """The block has eight rows of 26 letters and a pad column, so
    anything else would index past the block or into the wrong column."""
    with pytest.raises(corpus.CorpusError, match=problem):
        acrostic_block(letters)
    assert acrostic_block(["a", None, "z"]).sum() == 8

@given(st.from_regex(r"[a-z]{4,8}", fullmatch=True))
def test_acrostic_rows_sum_to_one(word):
    block = acrostic_block(word)
    assert block.shape == (8, 27)
    assert np.array_equal(block.sum(axis=1), np.ones(8))
    assert set(np.unique(block)) <= {0.0, 1.0}


# --- JSONL io ---------------------------------------------------------------

def test_jsonl_roundtrip(tmp_path):
    poems = [Poem(lines=[["a", "b"], ["c"], ["d"], ["e"]], topic="love")]
    path = tmp_path / "poems.jsonl"
    corpus.write_poems(path, poems)
    back = corpus.read_poems(path)
    assert back[0].lines == poems[0].lines
    assert back[0].topic == "love"

def test_jsonl_malformed_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"lines": ["ok ok ok ok"]}\n{oops\n')
    with pytest.raises(corpus.CorpusError, match="2"):
        corpus.read_documents(path)

BAD_DOCUMENT_LINES = [
    ("[1,2]", "not a JSON object"),
    ('"text"', "not a JSON object"),
    ('{"source": "plain_text"}', "'lines' must be a list of strings"),
    ('{"lines": "abc"}', "'lines' must be a list of strings"),
    ('{"lines": ["a", 5]}', "'lines' must be a list of strings"),
    ('{"lines": ["a"], "source": 3}', "'source' must be a string"),
    ('{"lines": ["a"], "source": "known_topic", "topic": ["x"]}',
     "'topic' must be a string"),
    ('{"lines": ["a"], "source": "novel"}', "unknown source tag"),
    ("[" * 100000, "malformed JSON"),
]


@pytest.mark.parametrize("line,message", BAD_DOCUMENT_LINES,
                         ids=[line[:24] for line, _ in BAD_DOCUMENT_LINES])
def test_read_documents_bad_record_names_path_and_line(tmp_path, line,
                                                       message):
    path = tmp_path / "docs.jsonl"
    path.write_text('{"lines": ["ok ok ok ok"]}\n\n' + line + "\n")
    with pytest.raises(corpus.CorpusError) as err:
        corpus.read_documents(path)
    assert str(err.value).startswith(f"{path}:3: ")
    assert message in str(err.value)


@pytest.mark.parametrize("line,message", [
    ("[1,2]", "not a JSON object"),
    ('{"topic": "love"}', "'lines' must be a list of token lists"),
    ('{"lines": ["a", "b"]}', "'lines' must be a list of token lists"),
    ('{"lines": [["a"]], "topic": 5}', "'topic' must be a string"),
    ('{"lines": [["a"]], "topic_confidence": "high"}',
     "'topic_confidence' must be a number"),
    ('{"lines": [["a", ""]]}', "'lines' holds an empty token"),
])
def test_read_poems_bad_record_names_path_and_line(tmp_path, line, message):
    path = tmp_path / "poems.jsonl"
    path.write_text('{"lines": [["a"]]}\n' + line + "\n")
    with pytest.raises(corpus.CorpusError) as err:
        corpus.read_poems(path)
    assert str(err.value).startswith(f"{path}:2: ")
    assert message in str(err.value)


def test_read_poems_number_of_too_many_digits_names_path_and_line(tmp_path):
    path = tmp_path / "poems.jsonl"
    path.write_text('{"lines": [["a"]]}\n'
                    '{"lines": [["a"]], "topic_confidence": 1' + "0" * 4400
                    + "}\n")
    with pytest.raises(corpus.CorpusError,
                       match=rf"^{path}:2: malformed JSON \(Exceeds"):
        corpus.read_poems(path)


@pytest.mark.parametrize("reader", [corpus.read_documents,
                                    corpus.read_poems])
def test_jsonl_non_utf8_names_path_and_line(tmp_path, reader):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b'{"lines": []}\n{"lines": ["caf\xe9"]}\n')
    with pytest.raises(corpus.CorpusError,
                       match=r"bad\.jsonl:2: not valid UTF-8"):
        reader(path)


def test_rawdoc_topic_invariant():
    with pytest.raises(corpus.CorpusError):
        RawDocument(lines=["x"], source_tag="known_topic", topic=None)
    with pytest.raises(corpus.CorpusError):
        RawDocument(lines=["x"], source_tag="sonnet", topic="love")
