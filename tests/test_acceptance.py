"""Acceptance suite: one test per criterion, each announcing PASS/FAIL.

Criterion 5 (the pretraining direction) is a soft check: its result is
reported but a failure does not fail the build.
"""

import json
import statistics
import string
import time

import numpy as np
import pytest
from click.testing import CliRunner
from helpers import make_documents, make_plain_sentences, make_poems, \
    make_sonnets, make_table
from reference import beam_search, boundaries_oracle, knn_oracle, lm_forward
from test_cli import write_documents, write_table
from test_corpus import split_oracle
from test_decode import CountingRhymer, line_rule_stream, slots_oracle
from test_rhymer import make_toy_step, toy_oracle

from acropoet.cli import gradient_suite, main
from acropoet.corpus import (
    EOL, EOS, Poem, RawDocument, Vocabulary,
    build_vocabulary, split_into_training_poems, write_poems,
)
from acropoet.decode import (
    SCHEMES, GenerationConfig, ModelBundle, generate_poem, scheme_for,
)
from acropoet.embed import EmbeddingTable, knn_with_initial
from acropoet.poemlm import (
    LmConfig, LmVariant, PoemLM, build_embedding_matrix, pretrain_poems,
    train_lm,
)
from acropoet.rhymer import RhymerConfig, RhymerModel
from acropoet.topics import TopicConfig, train_topic_model


@pytest.fixture
def announce(capsys):
    def emit(index, name, ok, detail=""):
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        with capsys.disabled():
            print(f"[acceptance {index:02d}] {name}: {status}{suffix}")
    return emit


@pytest.fixture(scope="module")
def desk_lm(table):
    """Criterion 4's fixture LM, shared by the generation criteria."""
    train = make_poems(200, seed=21)
    dev = make_poems(40, seed=22)
    vocab = build_vocabulary(train, max_size=500)
    assert len(vocab) <= 500
    cfg = LmConfig.desk_scale(dropout=0.0, lr=0.01, patience=30, seed=13)
    model = PoemLM(vocab, cfg, topic_dim=table.dim,
                   emb_matrix=build_embedding_matrix(vocab, table),
                   variant=LmVariant.from_name("gold+"))
    t0 = time.perf_counter()
    history = train_lm(model, train, dev, table)
    return model, history, time.perf_counter() - t0


@pytest.fixture(scope="module")
def desk_bundle(desk_lm, table):
    model, _, _ = desk_lm
    rhymer = RhymerModel(RhymerConfig.desk_scale(seed=3))
    return ModelBundle(lm=model, table=table, rhymer=rhymer)


def random_word(rng):
    length = int(rng.integers(4, 9))
    return "".join(string.ascii_lowercase[i]
                   for i in rng.integers(0, 26, size=length))


def test_criterion_01_acrostic_invariant(desk_bundle, announce):
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    failures = 0
    for i in range(200):
        word = random_word(rng)
        result = generate_poem(word, GenerationConfig(rng_seed=i),
                               desk_bundle)
        poem = result.poem
        ok = (poem.n_lines == len(word)
              and [l[0][0] for l in poem.lines] == list(word))
        failures += not ok
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed <= 120
    announce(1, "acrostic invariant over 200 poems", ok,
             f"failures={failures}, {elapsed:.1f}s of 120s budget")
    assert failures == 0
    assert elapsed <= 120


def test_criterion_02_rhyme_scheme_plumbing(desk_bundle, announce):
    table_expected = {4: "ABAB", 5: "ABABC", 6: "ABABCC", 7: "ABABCDC",
                      8: "ABABCDCD"}
    words = {4: "mist", 5: "ember", 6: "harbor", 7: "kindled",
             8: "infernos"}
    problems = []
    counting = CountingRhymer(desk_bundle.rhymer)
    models = ModelBundle(lm=desk_bundle.lm, table=desk_bundle.table,
                         rhymer=counting)
    for n in range(4, 9):
        scheme = scheme_for(n)
        if scheme.letters != table_expected[n]:
            problems.append(f"letters({n})")
        if scheme.substitution_slots != slots_oracle(scheme.letters):
            problems.append(f"slots({n})")
        counting.calls = 0
        generate_poem(words[n], GenerationConfig(rng_seed=n), models)
        if counting.calls != len(scheme.substitution_slots):
            problems.append(f"calls({n})={counting.calls}")
    announce(2, "rhyme scheme table, slots, and rhymer call counts",
             not problems, ", ".join(problems) or "4-8 lines all exact")
    assert not problems


def test_criterion_03_gradient_correctness(announce):
    t0 = time.perf_counter()
    reports = gradient_suite(n_seeds=10, hidden=6, seq_len=5)
    worst = max(v["max_rel_error"] for r in reports
                for v in r.values() if isinstance(v, dict))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed <= 60
    announce(3, "finite-difference gradient checks, 10 seeds", ok,
             f"max_rel_error={worst:.2e}, {elapsed:.1f}s of 60s budget")
    assert worst <= 1e-4
    assert elapsed <= 60


def test_criterion_04_learning_sanity(desk_lm, announce):
    _, history, elapsed = desk_lm
    start = history[0]["dev_ppl"]
    best = min(h["dev_ppl"] for h in history)
    ok = best <= 0.6 * start and elapsed <= 600
    announce(4, "desk LM reaches 60% of initial dev perplexity", ok,
             f"epoch0={start:.1f}, best={best:.1f}, "
             f"{elapsed:.1f}s of 600s budget")
    assert best <= 0.6 * start
    assert elapsed <= 600


def test_criterion_05_pretraining_direction_soft(table, announce):
    # a small gold corpus and a larger shared-vocabulary plain-text corpus:
    # the setting where pretraining has room to help
    gold_pool = make_poems(40, seed=31)
    gold_train = gold_pool[:8]
    gold_dev = make_poems(10, seed=32)
    sentences = make_plain_sentences(300, seed=33)
    vocab = build_vocabulary(gold_pool, max_size=500)
    with_pre, without_pre = [], []
    for seed in range(5):
        results = {}
        for pretrain in (True, False):
            cfg = LmConfig(n_layers=1, hidden=24, dropout=0.0, lr=0.01,
                           batch_size=8, patience=10, max_epochs=2,
                           seed=seed)
            model = PoemLM(vocab, cfg, topic_dim=table.dim,
                           emb_matrix=build_embedding_matrix(vocab, table),
                           variant=LmVariant.from_name("gold+"))
            if pretrain:
                train_lm(model, *pretrain_poems(sentences), table,
                         seed_key="pretrain", zero_cond=True, max_epochs=8)
                model.store.reset_moments()
            history = train_lm(model, gold_train, gold_dev, table)
            results[pretrain] = min(h["dev_ppl"] for h in history)
        with_pre.append(results[True])
        without_pre.append(results[False])
    med_pre = statistics.median(with_pre)
    med_plain = statistics.median(without_pre)
    ok = med_pre <= med_plain
    status = "PASS" if ok else "SOFT-FAIL (reported, build still passes)"
    announce(5, "pretraining direction (soft check)", ok,
             f"median dev ppl pretrained={med_pre:.2f} vs "
             f"plain={med_plain:.2f}; {status}")


def test_criterion_06_topic_conditioning(desk_lm, table, announce):
    train = make_poems(40, seed=1)
    dev = make_poems(20, seed=2)
    classifier, _ = train_topic_model(train, dev, table,
                                      TopicConfig.desk_scale(seed=3))
    acc = classifier.accuracy(dev)

    model, _, _ = desk_lm
    prefix = [model.vocab.bos_id] + model.vocab.encode(["ash", "blaze"])
    dists = {}
    for topic in ("fire", "water"):
        cond = model.condition(topic, "mist", table)
        dists[topic] = lm_forward(model, prefix, cond)
    tv = 0.5 * float(np.abs(dists["fire"] - dists["water"]).sum())
    ok = acc >= 0.95 and tv >= 0.01
    announce(6, "topic classifier accuracy and LM topic sensitivity", ok,
             f"dev_acc={acc:.3f}, total_variation={tv:.3f}")
    assert acc >= 0.95
    assert tv >= 0.01


def test_criterion_07_knn_oracle(announce):
    rng = np.random.default_rng(7)
    mismatches = 0
    for _ in range(50):
        dim = int(rng.integers(2, 6))
        n_tokens = int(rng.integers(5, 30))
        letters = "abcde"
        vectors = {}
        tokens = set()
        while len(tokens) < n_tokens:
            word = "".join(letters[i] for i in
                           rng.integers(0, len(letters),
                                        size=int(rng.integers(1, 6))))
            tokens.add(word)
        for tok in tokens:
            vectors[tok] = rng.normal(size=dim)
        topic = sorted(tokens)[int(rng.integers(0, len(tokens)))]
        table = EmbeddingTable(dim=dim, vectors=vectors)
        vocab = Vocabulary(sorted(tokens))
        letter = letters[int(rng.integers(0, len(letters)))]
        k = int(rng.integers(1, 8))
        got = knn_with_initial(topic, letter, table, vocab, k=k)
        want = knn_oracle(topic, letter, table, vocab, k)
        mismatches += got != want
    announce(7, "letter-filtered kNN equals exhaustive oracle",
             mismatches == 0, f"mismatches={mismatches}/50")
    assert mismatches == 0


def test_criterion_08_beam_search_oracle(announce):
    mismatches = 0
    for salt in range(10):
        got = beam_search(make_toy_step(salt), eos_id=4, width=5,
                          max_len=4)[:5]
        want = toy_oracle(salt, max_len=4, top=5)
        if [ids for ids, _ in got] != [ids for ids, _ in want]:
            mismatches += 1
            continue
        if any(abs(s1 - s2) > 1e-12
               for (_, s1), (_, s2) in zip(got, want)):
            mismatches += 1
    announce(8, "width-5 beam equals exhaustive search", mismatches == 0,
             f"mismatches={mismatches}/10 toy models")
    assert mismatches == 0


def test_criterion_09_boundary_rules(announce):
    rng = np.random.default_rng(9)
    alphabet = ["w", "x", "y", ",", ";", ".", "!", EOL, EOS]
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(0, 50))
        stream = [alphabet[i]
                  for i in rng.integers(0, len(alphabet), size=n)]
        target = int(rng.integers(4, 9))
        cap = int(rng.integers(2, 10))
        got = line_rule_stream(stream, target, cap)
        want = boundaries_oracle(stream, target, cap)
        mismatches += got != want
    announce(9, "line boundary and terminal punctuation rules",
             mismatches == 0, f"mismatches={mismatches}/1000 streams")
    assert mismatches == 0


def test_criterion_10_splitting_oracle(announce):
    rng = np.random.default_rng(10)
    words = ["ash", "blaze", "coal", "mist", "wave", "tide"]
    mismatches = 0
    for _ in range(100):
        n_lines = int(rng.integers(1, 21))
        lines = []
        for _ in range(n_lines):
            if rng.random() < 0.12:
                lines.append("")
                continue
            picks = [words[i] for i in
                     rng.integers(0, len(words),
                                  size=int(rng.integers(1, 5)))]
            line = " ".join(picks)
            if rng.random() < 0.4:
                line += "."
            lines.append(line)
        doc = RawDocument(lines=lines, source_tag="plain_text")
        got = [p.lines for p in split_into_training_poems(doc)]
        mismatches += got != split_oracle(doc)
    announce(10, "document splitting equals brute-force oracle",
             mismatches == 0, f"mismatches={mismatches}/100 documents")
    assert mismatches == 0


def _run_pipeline(root):
    """One full desk-scale pipeline; returns {artifact name: bytes}."""
    root.mkdir(parents=True, exist_ok=True)
    table = make_table(dim=8, seed=0)
    write_table(root / "vectors.txt", table)
    write_documents(root / "docs.jsonl", make_documents(10, seed=0))
    write_documents(root / "sonnets_train.jsonl", make_sonnets(4, seed=0))
    write_documents(root / "sonnets_dev.jsonl", make_sonnets(2, seed=1))
    write_poems(root / "train.jsonl", make_poems(16, seed=1))
    write_poems(root / "dev.jsonl", make_poems(6, seed=2))
    write_poems(root / "unlabeled.jsonl",
                [Poem(lines=p.lines) for p in make_poems(6, seed=9)])
    config = {
        "lm": {"n_layers": 1, "hidden": 12, "dropout": 0.0, "lr": 0.01,
               "batch_size": 8, "patience": 2, "max_epochs": 3},
        "rhymer": {"word_hidden": 6, "poem_hidden": 8,
                   "decoder_hidden": 8, "char_dim": 4, "lr": 0.01,
                   "batch_size": 4, "patience": 2, "max_epochs": 2},
        "topics": {"hidden": 8, "lr": 0.01, "batch_size": 8,
                   "patience": 2, "max_epochs": 3},
    }
    (root / "config.json").write_text(json.dumps(config))
    runner = CliRunner()

    def run(*args):
        result = runner.invoke(
            main, ["--config", str(root / "config.json"), "--seed", "5",
                   *[str(a) for a in args]])
        assert result.exit_code == 0, result.output
        return result

    run("prepare", "--input", root / "docs.jsonl",
        "--output", root / "prepared.jsonl")
    run("train", "lm", "--variant", "gold+",
        "--train", root / "train.jsonl", "--dev", root / "dev.jsonl",
        "--embeddings", root / "vectors.txt",
        "--out", root / "lm.ckpt")
    run("train", "topics", "--train", root / "train.jsonl",
        "--dev", root / "dev.jsonl",
        "--embeddings", root / "vectors.txt",
        "--out", root / "topics.ckpt")
    run("label", "--checkpoint", root / "topics.ckpt",
        "--input", root / "unlabeled.jsonl",
        "--output", root / "silver.jsonl")
    run("train", "rhymer", "--train", root / "sonnets_train.jsonl",
        "--dev", root / "sonnets_dev.jsonl", "--out", root / "rhymer.ckpt")
    poem_out = run("generate", "mist", "--lm", root / "lm.ckpt",
                   "--rhymer", root / "rhymer.ckpt",
                   "--embeddings", root / "vectors.txt",
                   "--json", root / "poem.json")
    artifacts = {
        name: (root / name).read_bytes()
        for name in ["prepared.jsonl", "lm.ckpt", "topics.ckpt",
                     "silver.jsonl", "rhymer.ckpt", "poem.json"]
    }
    artifacts["poem.stdout"] = poem_out.output.encode()
    return artifacts


def test_criterion_11_pipeline_determinism(tmp_path, announce):
    run_a = _run_pipeline(tmp_path / "a")
    run_b = _run_pipeline(tmp_path / "b")
    differing = [name for name in run_a if run_a[name] != run_b[name]]
    announce(11, "full pipeline rerun is byte-identical",
             not differing, ", ".join(differing) or
             f"{len(run_a)} artifacts compared")
    assert not differing
