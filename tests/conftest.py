import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from helpers import make_poems, make_table  # noqa: E402

from acropoet.corpus import build_vocabulary  # noqa: E402
from acropoet.poemlm import (  # noqa: E402
    LmConfig, LmVariant, PoemLM, build_embedding_matrix, train_lm,
)
from acropoet.rhymer import (  # noqa: E402
    RhymeExample, RhymerConfig, RhymerModel, train_rhymer,
)


@pytest.fixture(scope="session")
def table():
    return make_table(dim=8, seed=0)


@pytest.fixture(scope="session")
def tiny_trained_lm(table):
    """A small LM trained on the synthetic two-topic corpus; shared by the
    generation-side tests so training cost is paid once."""
    train = make_poems(60, seed=1)
    dev = make_poems(12, seed=2)
    vocab = build_vocabulary(train, max_size=200)
    cfg = LmConfig(n_layers=2, hidden=48, dropout=0.0, lr=0.01,
                   batch_size=16, patience=8, max_epochs=25, seed=7)
    model = PoemLM(vocab, cfg, topic_dim=table.dim,
                   emb_matrix=build_embedding_matrix(vocab, table),
                   variant=LmVariant.from_name("gold+"))
    history = train_lm(model, train, dev, table)
    model._fixture_history = history
    return model


@pytest.fixture(scope="session")
def tiny_rhymer():
    """A small rhymer overfit on four rhyme pairs, so that its beam
    completes whole words; shared so that training is paid once."""
    examples = [
        RhymeExample(a="cat", b="sat on a", c="hat"),
        RhymeExample(a="cat", b="fly to your", c="bat"),
        RhymeExample(a="day", b="come what", c="may"),
        RhymeExample(a="sea", b="wild and", c="free"),
    ]
    cfg = RhymerConfig(word_hidden=12, poem_hidden=16, decoder_hidden=16,
                       char_dim=8, lr=0.01, batch_size=2, patience=1000,
                       max_epochs=1000, seed=5)
    model = RhymerModel(cfg)
    train_rhymer(model, examples, examples)
    return model, examples
