"""The names the traced benchmark run wraps must keep resolving.

`bench/layers.py` wraps callables in the modules that look them up; a
refactor that moves or renames one makes `bench/run.py --trace 1` fail its
span-coverage check.  These tests catch that in seconds.
"""

import importlib.util
import inspect
import math
from collections import Counter
from pathlib import Path

from helpers import make_poems

from acropoet import poemlm
from acropoet.corpus import build_vocabulary
from acropoet.poemlm import (
    LmConfig, LmVariant, PoemLM, build_embedding_matrix, train_lm,
)

LAYERS_PATH = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _bench_layers():
    spec = importlib.util.spec_from_file_location("bench_layers",
                                                  LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    layers = _bench_layers()
    for owner, attr, name, _ in layers.WRAPS:
        assert callable(getattr(owner, attr, None)), (owner, attr, name)
    for owner, attr, name in layers.GENERATOR_WRAPS:
        assert inspect.isgeneratorfunction(getattr(owner, attr, None)), (
            owner, attr, name)


def test_lm_training_calls_through_poemlm_globals(table, monkeypatch):
    calls = Counter()
    for name in ("adam_update", "clip_global_norm", "softmax_xent_batch"):
        def counted(*args, _real=getattr(poemlm, name), _name=name,
                    **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(poemlm, name, counted)
    train = make_poems(20, seed=1)
    vocab = build_vocabulary(train, max_size=200)
    cfg = LmConfig(n_layers=1, hidden=8, dropout=0.0, lr=0.01,
                   batch_size=8, patience=5, max_epochs=2, seed=0)
    model = PoemLM(vocab, cfg, topic_dim=table.dim,
                   emb_matrix=build_embedding_matrix(vocab, table),
                   variant=LmVariant.from_name("gold+"))
    history = train_lm(model, train, make_poems(4, seed=2), table)
    batches = (len(history) - 1) * math.ceil(len(train) / cfg.batch_size)
    assert batches == 6
    assert calls["adam_update"] == batches
    assert calls["clip_global_norm"] == batches
    assert calls["softmax_xent_batch"] >= batches
