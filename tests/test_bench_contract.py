"""The names the traced benchmark run wraps must keep resolving, and the
calls it counts must come from the paths it expects.

`bench/layers.py` wraps callables in the modules that look them up; a
refactor that moves or renames one, or routes another path through it,
makes `bench/run.py --trace 1` fail its span-coverage check or miscount.
These tests catch that in seconds.
"""

import importlib.util
import inspect
import math
import threading
from collections import Counter
from pathlib import Path

import numpy as np
from helpers import make_poems, one_blas_thread

from acropoet import decode, embed, net, poemlm, rhymer, topics
from acropoet.corpus import build_vocabulary
from acropoet.poemlm import (
    LmConfig, LmVariant, PoemLM, TrainedLm, build_embedding_matrix, train_lm,
)
from acropoet.rhymer import RhymerConfig, RhymerModel

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


def _count_calls(monkeypatch, owner, name, calls):
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[f"{owner.__name__}.{name}"] += 1
        return real(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)


def _tiny_lm(table, train, n_layers=1):
    vocab = build_vocabulary(train, max_size=200)
    cfg = LmConfig(n_layers=n_layers, hidden=8, dropout=0.0, lr=0.01,
                   batch_size=8, patience=5, max_epochs=2, seed=0)
    return PoemLM(vocab, cfg, topic_dim=table.dim,
                  emb_matrix=build_embedding_matrix(vocab, table),
                  variant=LmVariant.from_name("gold+"))


def test_lm_training_calls_through_poemlm_globals(table, monkeypatch):
    calls = Counter()
    for name in ("adam_update", "clip_global_norm", "softmax_xent_batch"):
        def counted(*args, _real=getattr(poemlm, name), _name=name,
                    **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(poemlm, name, counted)
    train = make_poems(20, seed=1)
    model = _tiny_lm(table, train)
    cfg = model.cfg
    history = train_lm(model, train, make_poems(4, seed=2), table)
    batches = (len(history) - 1) * math.ceil(len(train) / cfg.batch_size)
    assert batches == 6
    assert calls["adam_update"] == batches
    assert calls["clip_global_norm"] == batches
    assert calls["softmax_xent_batch"] >= batches


# `net.lstm_step_calls` and `rhymer.decoder_steps` count the public step
# functions, and the train-lm workload expects `net.lstm_step` to record
# nothing; the layer forward passes must use the cell directly.

def test_lm_training_and_perplexity_make_no_step_calls(table, monkeypatch):
    calls = Counter()
    _count_calls(monkeypatch, net, "lstm_step", calls)
    _count_calls(monkeypatch, rhymer, "lstm_step", calls)
    train = make_poems(20, seed=1)
    model = _tiny_lm(table, train, n_layers=2)
    train_lm(model, train, make_poems(4, seed=2), table, max_epochs=1)
    model.perplexity(make_poems(4, seed=3), table)
    assert calls == Counter()


# The train-lm workload expects spans from the LM's batch methods and from
# the layers they run; the target-position path must still go through them.

def test_lm_training_and_perplexity_run_the_traced_layer_methods(
        table, monkeypatch):
    calls = Counter()
    for owner, name in ((PoemLM, "forward_batch"),
                        (PoemLM, "backward_batch"),
                        (net.Linear, "forward"), (net.Linear, "backward"),
                        (net.LstmLayer, "forward")):
        _count_calls(monkeypatch, owner, name, calls)
    input_grads = Counter()
    real_backward = net.LstmLayer.backward

    def backward(layer, *args, **kwargs):
        dX, d_const = real_backward(layer, *args, **kwargs)
        input_grads[layer.name, dX is not None, d_const is not None] += 1
        return dX, d_const
    monkeypatch.setattr(net.LstmLayer, "backward", backward)
    train = make_poems(20, seed=1)
    model = _tiny_lm(table, train, n_layers=2)
    train_lm(model, train, make_poems(4, seed=2), table, max_epochs=1)
    model.perplexity(make_poems(4, seed=3), table)
    batches = 3  # 20 poems in batches of 8
    assert calls["PoemLM.backward_batch"] == batches
    assert calls["Linear.backward"] == batches
    assert calls["PoemLM.forward_batch"] == calls["Linear.forward"] > batches
    assert calls["LstmLayer.forward"] == 2 * calls["PoemLM.forward_batch"]
    # layer 0 reads fixed embeddings and conditions: no input gradient
    assert input_grads == Counter({("lm.lstm0", False, False): batches,
                                   ("lm.lstm1", True, False): batches})


def test_poemlm_step_makes_one_step_call_per_layer(table, monkeypatch):
    calls = Counter()
    _count_calls(monkeypatch, net, "lstm_step", calls)
    model = _tiny_lm(table, make_poems(20, seed=1), n_layers=3)
    state = model.init_state()
    cond = np.zeros(model.in_dim - model.embed_dim)
    for tid in (model.vocab.bos_id, model.vocab.token_to_id["ash"]):
        model.step(state, tid, cond)
    assert calls == Counter({"acropoet.net.lstm_step": 2 * 3})


def test_rhymer_decoder_steps_through_rhymer_lstm_step(monkeypatch):
    """Each beam step runs all live hypotheses as one batch: one
    `rhymer.lstm_step` per step, at most MAX_WORD_LEN + 1 steps a call."""
    calls = Counter()
    _count_calls(monkeypatch, net, "lstm_step", calls)
    rows = []
    real_step = rhymer.lstm_step

    def lstm_step(x, *args):
        calls["acropoet.rhymer.lstm_step"] += 1
        rows.append(len(x))
        return real_step(x, *args)

    monkeypatch.setattr(rhymer, "lstm_step", lstm_step)
    search = rhymer.beam_search_rows

    def counting_search(step_rows, *args, **kwargs):
        def step(*a):
            calls["step_rows"] += 1
            return step_rows(*a)
        return search(step, *args, **kwargs)

    monkeypatch.setattr(rhymer, "beam_search_rows", counting_search)
    model = RhymerModel(RhymerConfig.desk_scale(seed=1))
    model.rhyme_candidates("day", "the sea at night and the", width=3)
    assert 0 < calls["step_rows"] <= rhymer.MAX_WORD_LEN + 1
    assert calls == Counter({"acropoet.rhymer.lstm_step": calls["step_rows"],
                             "step_rows": calls["step_rows"]})
    assert rows[0] == 1 and max(rows) == 3


# `net.load_checkpoint` spans give `net.checkpoint_bytes` through the
# `_file_bytes` hook, which reads the file named by the first argument.

def test_each_loader_reads_its_file_with_one_load_checkpoint_call(
        table, tmp_path, monkeypatch):
    train = make_poems(20, seed=1)
    vocab = build_vocabulary(train, max_size=200)
    saved = {
        poemlm.load_lm: lambda p: poemlm.save_lm(
            p, TrainedLm(model=_tiny_lm(table, train))),
        rhymer.load_rhymer: lambda p: rhymer.save_rhymer(
            p, RhymerModel(RhymerConfig.desk_scale(seed=1)), []),
        topics.load_topics: lambda p: topics.save_topics(
            p, topics.TopicClassifier(
                vocab, ["fire", "water"], topics.TopicConfig.desk_scale(),
                build_embedding_matrix(vocab, table)), []),
    }
    calls = []
    real = net.load_checkpoint
    monkeypatch.setattr(net, "load_checkpoint",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    file_bytes = _bench_layers()._file_bytes
    for load, save in saved.items():
        path = tmp_path / f"{load.__name__}.ckpt"
        save(path)
        calls.clear()
        load(path)
        assert calls == [(path,)], load.__name__
        assert file_bytes(calls[0], None) == path.stat().st_size


# `rhymer.decoder_steps` counts `rhymer.lstm_step` spans inside
# `rhymer.candidates`, and `net.lstm_forward` times the rhymer's encoders:
# inside generation, a call steps the decoder once per beam step and reads
# the poem so far through `LstmLayer.forward`, whatever it reuses.

def _desk_models(table):
    model = _tiny_lm(table, make_poems(20, seed=1))
    return decode.ModelBundle(
        lm=model, table=table,
        rhymer=RhymerModel(RhymerConfig.desk_scale(seed=1)))


def test_generation_rhymer_calls_step_once_per_beam_step(table,
                                                         monkeypatch):
    calls, current = [], [None]  # a Counter per rhyme_candidates call
    real_candidates = RhymerModel.rhyme_candidates

    def candidates(*args, **kwargs):
        current[0] = Counter()
        calls.append(current[0])
        try:
            return real_candidates(*args, **kwargs)
        finally:
            current[0] = None
    monkeypatch.setattr(RhymerModel, "rhyme_candidates", candidates)

    def count(owner, name, key):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            if current[0] is not None:
                current[0][key(*args)] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    count(rhymer, "lstm_step", lambda *a: "rhymer.lstm_step")
    count(net, "lstm_step", lambda *a: "net.lstm_step")
    count(net.LstmLayer, "forward", lambda layer, *a: layer.name)
    search = rhymer.beam_search_rows

    def counting_search(step_rows, *args, **kwargs):
        def step(*a):
            current[0]["beam step"] += 1
            return step_rows(*a)
        return search(step, *args, **kwargs)
    monkeypatch.setattr(rhymer, "beam_search_rows", counting_search)

    models = _desk_models(table)
    slots = 0
    for seed, word in enumerate(["fire", "water", "ember", "harbor"]):
        result = decode.generate_poem(
            word, decode.GenerationConfig(rng_seed=seed), models)
        slots += len(result.scheme.substitution_slots)
    assert len(calls) == slots == 2 + 2 + 2 + 3
    for c in calls:
        assert 0 < c["beam step"] <= rhymer.MAX_WORD_LEN + 1
        assert c == Counter({"rhymer.lstm_step": c["beam step"],
                             "beam step": c["beam step"], "rh.poem": 1,
                             "rh.word.fwd": 1, "rh.word.bwd": 1})


def test_generation_reaches_knn_only_through_decode_knn_with_initial(
        table, monkeypatch):
    inside, calls, outside = [False], Counter(), Counter()
    real_knn = decode.knn_with_initial

    def knn(*args, **kwargs):
        inside[0] = True
        calls["decode.knn_with_initial"] += 1
        try:
            return real_knn(*args, **kwargs)
        finally:
            inside[0] = False
    monkeypatch.setattr(decode, "knn_with_initial", knn)
    for name in ("_shortlist", "cosine"):
        def watched(*args, _real=getattr(embed, name), _name=name,
                    **kwargs):
            if not inside[0]:
                outside[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(embed, name, watched)
    models = _desk_models(table)
    knn_lines = 0
    for seed, word in enumerate(["fire", "water", "ember", "harbor"]):
        result = decode.generate_poem(
            word, decode.GenerationConfig(rng_seed=seed, m1=1.0, m2=0.0),
            models)
        knn_lines += result.first_word_paths.count("knn")
    assert knn_lines > 0
    assert calls["decode.knn_with_initial"] == 4 + 5 + 5 + 6
    assert outside == Counter()


# The tracer keeps one span stack, read and written by the thread that
# calls a wrapped name; the row blocks must run only unwrapped numpy work
# on the pool's threads, or the traced run's span parents break.

def test_pooled_lm_training_calls_every_wrapped_name_on_the_main_thread(
        table, monkeypatch):
    layers = _bench_layers()
    off_main = Counter()

    def on_main():
        return threading.current_thread() is threading.main_thread()

    for owner, attr, name, _ in layers.WRAPS:
        def watched(*args, _real=getattr(owner, attr), _name=name,
                    **kwargs):
            if not on_main():
                off_main[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(owner, attr, watched)
    for owner, attr, name in layers.GENERATOR_WRAPS:
        def watched_gen(*args, _real=getattr(owner, attr), _name=name,
                        **kwargs):
            if not on_main():
                off_main[_name] += 1
            yield from _real(*args, **kwargs)
        monkeypatch.setattr(owner, attr, watched_gen)
    pooled_blocks = Counter()
    real_blocks = net.run_row_blocks

    def run_row_blocks(fn, rows, blocks):
        def block(lo, hi):
            pooled_blocks[on_main()] += 1
            return fn(lo, hi)
        return real_blocks(block, rows, blocks)
    monkeypatch.setattr(net, "run_row_blocks", run_row_blocks)
    monkeypatch.setattr(net, "max_row_blocks", lambda: 2)
    train = make_poems(32, seed=1)
    vocab = build_vocabulary(train, max_size=200)
    cfg = LmConfig(n_layers=2, hidden=256, dropout=0.0, lr=0.01,
                   batch_size=32, patience=1, max_epochs=1, seed=0)
    model = PoemLM(vocab, cfg, topic_dim=table.dim,
                   emb_matrix=build_embedding_matrix(vocab, table),
                   variant=LmVariant.from_name("gold+"))
    with one_blas_thread():
        train_lm(model, train, make_poems(4, seed=2), table, max_epochs=1)
        model.perplexity(make_poems(4, seed=3), table)
    assert pooled_blocks[False] > 0  # the pool did take blocks
    assert off_main == Counter()
