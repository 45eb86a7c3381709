"""Byte fuzz of the file readers.  Whatever bytes a file holds, a reader
either loads it or raises one of the errors the CLI reports as one
`error:` line (`cli.PIPELINE_ERRORS`), never another exception.  The
inputs are desk artifacts with a few byte-level mutations, and random
bytes."""

import pytest
from helpers import (
    make_documents, make_plain_sentences, make_poems, make_sonnets, make_table,
)
from hypothesis import HealthCheck, given, settings, strategies as st
from test_cli import write_documents, write_table

from acropoet import cli, corpus, embed, net
from acropoet.cli import PIPELINE_ERRORS
from acropoet.poemlm import (
    LmConfig, LmVariant, PoemLM, TrainedLm, build_embedding_matrix, save_lm,
)

FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=150,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """The bytes of a desk LM checkpoint (untrained, 2 units wide), a
    4-wide embeddings file, a poem JSONL file, two raw document JSONL
    files (plain and sonnets) and a pretraining text file."""
    root = tmp_path_factory.mktemp("seeds")
    table = make_table(dim=4, seed=0)
    poems = make_poems(4, seed=1)
    vocab = corpus.build_vocabulary(poems)
    lm = PoemLM(vocab, LmConfig(n_layers=1, hidden=2, seed=0), table.dim,
                build_embedding_matrix(vocab, table),
                LmVariant.from_name("gold+"))
    save_lm(root / "lm.ckpt", TrainedLm(model=lm))
    write_table(root / "vectors.txt", table)
    corpus.write_poems(root / "poems.jsonl", poems)
    write_documents(root / "docs.jsonl", make_documents(3, seed=0))
    write_documents(root / "sonnets.jsonl", make_sonnets(2, seed=0))
    (root / "pre.txt").write_text(
        "".join(" ".join(s) + "\n" for s in make_plain_sentences(4, seed=0)),
        encoding="utf-8")
    return {name: (root / name).read_bytes()
            for name in ("lm.ckpt", "vectors.txt", "poems.jsonl",
                         "docs.jsonl", "sonnets.jsonl", "pre.txt")}


# bytes that break text formats more often than random ones do
SNIPPETS = [b"\r", b"\n", b" ", b"\xff", b"0, ", b"nan", b"1e999",
            b"9" * 4400, b"[" * 50]


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """data after 1-4 edits: a bit flipped, a cut, bytes inserted, a run
    deleted or every line ending changed; or bytes of no artifact at
    all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=64))
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(["flip", "cut", "insert", "delete",
                                     "line ends"]))
        if edit == "flip" and at < len(data):
            data[at] ^= 1 << draw(st.integers(0, 7))
        elif edit == "cut":
            del data[at:]
        elif edit == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=8)
                               | st.sampled_from(SNIPPETS))
        elif edit == "delete":
            del data[at:at + draw(st.integers(1, 16))]
        elif edit == "line ends":
            data = bytearray(data.replace(
                b"\n", draw(st.sampled_from([b"\r", b"\r\n"]))))
    return bytes(data)


READERS = {
    "checkpoint": ("lm.ckpt", net.load_checkpoint),
    "embeddings": ("vectors.txt", embed.load_embeddings),
    "embeddings-4-wide": ("vectors.txt",
                          lambda path: embed.load_embeddings(path, 4)),
    "poems": ("poems.jsonl", corpus.read_poems),
    "documents": ("docs.jsonl", corpus.read_documents),
    "rhyme-pairs": ("sonnets.jsonl", cli._rhyme_pairs),
    "pretrain": ("pre.txt", cli._read_pretrain),
}


@pytest.mark.parametrize("reader", READERS)
@FUZZ
@given(data=st.data())
def test_any_bytes_load_or_raise_a_pipeline_error(artifacts, tmp_path,
                                                  reader, data):
    name, read = READERS[reader]
    path = tmp_path / name
    path.write_bytes(data.draw(mutated(artifacts[name])))
    try:
        read(path)
    except PIPELINE_ERRORS:
        pass
