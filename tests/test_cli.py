import json
import logging
import math
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from helpers import (
    ALL_WORDS, make_documents, make_poems, make_sonnets, make_table,
)
from hypothesis import HealthCheck, given, settings, strategies as st

from acropoet import cli
from acropoet.cli import PIPELINE_ERRORS, gradient_suite, main
from acropoet.corpus import (
    Poem, RawDocument, read_poems, split_into_training_poems, write_poems,
)
from acropoet.decode import GenerationConfig
from acropoet.net import load_checkpoint, save_checkpoint
from acropoet.poemlm import PoemLM
from acropoet.rhymer import RhymerModel
from acropoet.topics import TopicClassifier

DIM = 8


def write_table(path, table):
    """A table of `helpers.make_table`, whose tokens are ALL_WORDS."""
    assert len(table) == len(ALL_WORDS)
    with open(path, "w", encoding="utf-8") as fh:
        for tok in ALL_WORDS:
            vec = " ".join(repr(float(x)) for x in table.vector(tok))
            fh.write(f"{tok} {vec}\n")


def write_documents(path, docs):
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            rec = {"lines": doc.lines, "source": doc.source_tag}
            if doc.topic is not None:
                rec["topic"] = doc.topic
            fh.write(json.dumps(rec) + "\n")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Shared corpus/embedding/config files plus trained checkpoints."""
    root = tmp_path_factory.mktemp("cli")
    table = make_table(dim=DIM, seed=0)
    write_table(root / "vectors.txt", table)
    write_documents(root / "docs.jsonl", make_documents(10, seed=0))
    write_documents(root / "sonnets_train.jsonl", make_sonnets(4, seed=0))
    write_documents(root / "sonnets_dev.jsonl", make_sonnets(2, seed=1))
    write_poems(root / "train.jsonl", make_poems(16, seed=1))
    write_poems(root / "dev.jsonl", make_poems(6, seed=2))
    config = {
        "lm": {"n_layers": 1, "hidden": 12, "dropout": 0.0, "lr": 0.01,
               "batch_size": 8, "patience": 2, "max_epochs": 3},
        "rhymer": {"word_hidden": 6, "poem_hidden": 8, "decoder_hidden": 8,
                   "char_dim": 4, "lr": 0.01, "batch_size": 4,
                   "patience": 2, "max_epochs": 2},
        "topics": {"hidden": 8, "lr": 0.01, "batch_size": 8,
                   "patience": 2, "max_epochs": 3},
    }
    (root / "config.json").write_text(json.dumps(config))
    runner = CliRunner()

    def run(*args):
        return runner.invoke(
            main, ["--config", str(root / "config.json"), "--seed", "0",
                   *[str(a) for a in args]])

    for kind in ("lm", "rhymer", "topics"):
        result = run(*_train_args(root, kind, root / f"{kind}.ckpt"))
        assert result.exit_code == 0, result.output
    return root, run


def _train_args(root, kind, out):
    """The `train` command line for a `kind` model on workdir's files."""
    if kind == "rhymer":
        return ["train", "rhymer", "--train", root / "sonnets_train.jsonl",
                "--dev", root / "sonnets_dev.jsonl", "--out", out]
    variant = ["--variant", "gold+"] if kind == "lm" else []
    return ["train", kind, *variant,
            "--train", root / "train.jsonl", "--dev", root / "dev.jsonl",
            "--embeddings", root / "vectors.txt", "--out", out]


# --- prepare ------------------------------------------------------------------

def test_prepare_histogram_matches_oracle(workdir):
    root, run = workdir
    result = run("prepare", "--input", root / "docs.jsonl",
                 "--output", root / "prepared.jsonl")
    assert result.exit_code == 0, result.output
    expected = []
    for doc in make_documents(10, seed=0):
        expected.extend(split_into_training_poems(doc))
    got = read_poems(root / "prepared.jsonl")
    assert [p.lines for p in got] == [p.lines for p in expected]
    for n in range(4, 9):
        count = sum(p.n_lines == n for p in expected)
        assert f"{n:>5}  {count:>5}" in result.output
    assert f"total  {len(expected):>5}" in result.output


def test_prepare_empty_input(workdir, tmp_path):
    root, run = workdir
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    result = run("prepare", "--input", empty,
                 "--output", tmp_path / "out.jsonl")
    assert result.exit_code == 0
    assert "total      0" in result.output
    assert read_poems(tmp_path / "out.jsonl") == []


def test_prepare_malformed_line(workdir, tmp_path):
    root, run = workdir
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"lines": ["ok ok ok ok."]}\n{not json\n')
    result = run("prepare", "--input", bad,
                 "--output", tmp_path / "out.jsonl")
    assert result.exit_code == 1
    assert ":2" in result.output


def test_prepare_missing_input(workdir, tmp_path):
    root, run = workdir
    result = run("prepare", "--input", tmp_path / "nope.jsonl",
                 "--output", tmp_path / "out.jsonl")
    assert result.exit_code == 1


# --- train --------------------------------------------------------------------

def test_train_writes_checkpoint_and_log(workdir):
    root, _ = workdir
    assert (root / "lm.ckpt").exists()
    log = json.loads((root / "lm.ckpt.json").read_text())
    assert log["model"] == "lm"
    assert log["variant"] == "gold+"
    assert log["seed"] == 0
    ppls = [h["dev_ppl"] for h in log["history"]]
    assert min(ppls) < ppls[0]


def test_train_rerun_byte_identical(workdir, tmp_path):
    root, run = workdir
    result = run("train", "lm", "--variant", "gold+",
                 "--train", root / "train.jsonl", "--dev", root / "dev.jsonl",
                 "--embeddings", root / "vectors.txt",
                 "--out", tmp_path / "lm2.ckpt")
    assert result.exit_code == 0, result.output
    assert (tmp_path / "lm2.ckpt").read_bytes() == \
        (root / "lm.ckpt").read_bytes()


def test_train_pred_gold_without_silver_fails(workdir, tmp_path):
    root, run = workdir
    result = run("train", "lm", "--variant", "pred/gold+",
                 "--train", root / "train.jsonl", "--dev", root / "dev.jsonl",
                 "--embeddings", root / "vectors.txt",
                 "--out", tmp_path / "x.ckpt")
    assert result.exit_code == 1
    assert "silver" in result.output


@pytest.mark.parametrize("variant,given,unread", [
    ("gold+", ["--silver"], "silver"), ("gold-", ["--pretrain"], "pretrain"),
    ("pred/gold+", ["--silver", "--pretrain"], "pretrain")])
def test_train_a_corpus_the_variant_does_not_read_fails(workdir, tmp_path,
                                                        variant, given,
                                                        unread):
    root, run = workdir
    (tmp_path / "pre.txt").write_text("ash blaze coal .\n", encoding="utf-8")
    files = {"--silver": root / "train.jsonl",
             "--pretrain": tmp_path / "pre.txt"}
    result = run("train", "lm", "--variant", variant,
                 "--train", root / "train.jsonl", "--dev", root / "dev.jsonl",
                 "--embeddings", root / "vectors.txt",
                 *[a for option in given for a in (option, files[option])],
                 "--out", tmp_path / "x.ckpt")
    line = _assert_one_error_line(result)
    assert f"variant {variant!r} reads no" in line and unread in line
    assert not (tmp_path / "x.ckpt").exists()


def test_train_bad_variant_is_usage_error(workdir, tmp_path):
    root, run = workdir
    result = run("train", "lm", "--variant", "platinum+",
                 "--train", root / "train.jsonl", "--dev", root / "dev.jsonl",
                 "--out", tmp_path / "x.ckpt")
    assert result.exit_code == 2


def test_train_lm_requires_embeddings(workdir, tmp_path):
    root, run = workdir
    result = run("train", "lm",
                 "--train", root / "train.jsonl", "--dev", root / "dev.jsonl",
                 "--out", tmp_path / "x.ckpt")
    assert result.exit_code == 2
    assert "Missing option '--embeddings'" in result.output


def test_train_topics_requires_embeddings(workdir, tmp_path):
    root, run = workdir
    result = run("train", "topics",
                 "--train", root / "train.jsonl", "--dev", root / "dev.jsonl",
                 "--out", tmp_path / "x.ckpt")
    assert result.exit_code == 2
    assert "Missing option '--embeddings'" in result.output


def test_train_empty_token_is_clean_error(workdir, tmp_path):
    root, run = workdir
    poems = make_poems(16, seed=1)
    poems[2].lines[1][0] = ""
    write_poems(tmp_path / "train.jsonl", poems)
    result = run("train", "lm", "--variant", "gold+",
                 "--train", tmp_path / "train.jsonl",
                 "--dev", root / "dev.jsonl",
                 "--embeddings", root / "vectors.txt",
                 "--out", tmp_path / "x.ckpt")
    line = _assert_one_error_line(result)
    assert "train.jsonl:3: 'lines' holds an empty token" in line
    assert not (tmp_path / "x.ckpt").exists()


# --- label ----------------------------------------------------------------------

def test_label_attaches_silver_topics(workdir, tmp_path):
    root, run = workdir
    unlabeled = [Poem(lines=p.lines) for p in make_poems(6, seed=9)]
    write_poems(tmp_path / "unlabeled.jsonl", unlabeled)
    result = run("label", "--checkpoint", root / "topics.ckpt",
                 "--input", tmp_path / "unlabeled.jsonl",
                 "--output", tmp_path / "silver.jsonl")
    assert result.exit_code == 0, result.output
    labeled = read_poems(tmp_path / "silver.jsonl")
    assert len(labeled) == 6
    for poem in labeled:
        assert poem.topic in ("fire", "water")
        assert poem.topic_confidence is not None


# --- eval-ppl -------------------------------------------------------------------

def test_eval_ppl_prints_and_writes_json(workdir, tmp_path):
    root, run = workdir
    args = ("eval-ppl", "--checkpoint", root / "lm.ckpt",
            "--test", root / "dev.jsonl",
            "--embeddings", root / "vectors.txt",
            "--json", tmp_path / "ppl.json")
    r1 = run(*args)
    assert r1.exit_code == 0, r1.output
    assert r1.output.startswith("gold+\t")
    payload = json.loads((tmp_path / "ppl.json").read_text())
    assert payload["variant"] == "gold+"
    assert payload["perplexity"] > 1.0
    r2 = run(*args)
    assert r2.output == r1.output


def test_eval_ppl_vocabulary_mismatch(workdir, tmp_path):
    root, run = workdir
    alien = [Poem(lines=[["qqq", "zzz", "xxx"]] * 4) for _ in range(3)]
    write_poems(tmp_path / "alien.jsonl", alien)
    result = run("eval-ppl", "--checkpoint", root / "lm.ckpt",
                 "--test", tmp_path / "alien.jsonl",
                 "--embeddings", root / "vectors.txt")
    assert result.exit_code == 1
    assert "vocabulary mismatch" in result.output


def test_eval_ppl_of_a_topic_channel_lm_needs_embeddings(workdir, tmp_path):
    root, run = workdir
    result = run("eval-ppl", "--checkpoint", root / "lm.ckpt",
                 "--test", root / "dev.jsonl",
                 "--json", tmp_path / "ppl.json")
    line = _assert_one_error_line(result)
    assert str(root / "lm.ckpt") in line and "--embeddings" in line
    assert not (tmp_path / "ppl.json").exists()


def test_eval_ppl_of_an_lm_without_topic_channel_needs_no_embeddings(
        workdir, tmp_path):
    root, run = workdir
    out = tmp_path / "gold-.ckpt"
    result = run("train", "lm", "--variant", "gold-",
                 "--train", root / "train.jsonl", "--dev", root / "dev.jsonl",
                 "--embeddings", root / "vectors.txt", "--out", out)
    assert result.exit_code == 0, result.output
    result = run("eval-ppl", "--checkpoint", out, "--test", root / "dev.jsonl")
    assert result.exit_code == 0, result.output
    assert result.output.startswith("gold-\t")
    ppl_json = (out.parent / "gold-.ckpt.ppl.json").read_bytes()
    # the LM reads no topic vectors, so a file of the wrong width is not
    # read and the perplexity is the same to the byte
    bad = tmp_path / "bad.txt"
    bad.write_text("fire 1.0 2.0\n")
    again = run("eval-ppl", "--checkpoint", out, "--test", root / "dev.jsonl",
                "--embeddings", bad)
    assert again.exit_code == 0, again.output
    assert again.output == result.output
    assert (out.parent / "gold-.ckpt.ppl.json").read_bytes() == ppl_json


@pytest.mark.parametrize("command", ["generate", "eval-ppl"])
def test_embeddings_narrower_than_the_lm_are_clean_error(workdir, tmp_path,
                                                          command):
    root, run = workdir
    narrow = tmp_path / "narrow.txt"
    write_table(narrow, make_table(dim=DIM - 2, seed=0))
    args = (["generate", "glow", "--lm", root / "lm.ckpt", "--no-rh"]
            if command == "generate" else
            ["eval-ppl", "--checkpoint", root / "lm.ckpt",
             "--test", root / "dev.jsonl"])
    result = run(*args, "--embeddings", narrow)
    assert _assert_one_error_line(result) == (
        f"error: {narrow}:1: expected {DIM} values, got {DIM - 2}")


@pytest.mark.parametrize("command", [
    "generate", "eval-ppl", "prepare", "train", "train lm", "train rhymer",
    "train topics", "label", "gradcheck"])
def test_embeddings_width_comes_from_the_lm_checkpoint(command):
    """No command takes a --dim: the embeddings' width is the LM
    checkpoint's, or in training the embeddings file's own."""
    result = CliRunner().invoke(main, [*command.split(), "--help"])
    assert result.exit_code == 0
    assert "--dim" not in result.output


# --- generate -------------------------------------------------------------------

def test_generate_prints_acrostic_and_json(workdir, tmp_path):
    root, run = workdir
    result = run("generate", "mist", "--lm", root / "lm.ckpt",
                 "--rhymer", root / "rhymer.ckpt",
                 "--embeddings", root / "vectors.txt",
                 "--json", tmp_path / "poem.json")
    assert result.exit_code == 0, result.output
    lines = result.output.strip().split("\n")
    assert len(lines) == 4
    assert [l[0].lower() for l in lines] == list("mist")
    record = json.loads((tmp_path / "poem.json").read_text())
    assert record["word"] == "mist"
    assert record["flags"] == {"st": True, "ac": True, "rh": True,
                               "tp": True}
    assert len(record["lines"]) == 4


def test_generate_deterministic_output(workdir):
    root, run = workdir
    args = ("generate", "wave", "--lm", root / "lm.ckpt",
            "--rhymer", root / "rhymer.ckpt",
            "--embeddings", root / "vectors.txt")
    assert run(*args).output == run(*args).output


def test_generate_no_rhyme_skips_rhymer(workdir, tmp_path):
    root, run = workdir
    result = run("generate", "glow", "--lm", root / "lm.ckpt",
                 "--no-rh", "--embeddings", root / "vectors.txt",
                 "--json", tmp_path / "poem.json")
    assert result.exit_code == 0, result.output
    record = json.loads((tmp_path / "poem.json").read_text())
    assert record["rhyme_slots_filled"] == []


@pytest.mark.parametrize("rh_off", ["flag", "config"])
def test_generate_rhyme_off_reads_no_rhymer(workdir, tmp_path, monkeypatch,
                                            rh_off):
    """With rhyme off a --rhymer is never read, so a damaged one changes
    nothing."""
    root, _ = workdir
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes((root / "rhymer.ckpt").read_bytes()[:100])
    config = {"generate": {"rh": False}} if rh_off == "config" else {}
    args = ["generate", "mist", "--lm", root / "lm.ckpt",
            "--embeddings", root / "vectors.txt",
            *(["--no-rh"] if rh_off == "flag" else [])]
    plain = _run_with_config(tmp_path, config, *args)
    assert plain.exit_code == 0, plain.output
    assert len(plain.output.splitlines()) == 4
    damaged = _run_with_config(tmp_path, config, *args, "--rhymer", cut)
    assert damaged.exit_code == 0, damaged.output
    assert damaged.output == plain.output

    def unreached(*args, **kwargs):
        raise AssertionError("the rhymer was read")
    monkeypatch.setattr(cli, "load_rhymer", unreached)
    result = _run_with_config(tmp_path, config, *args, "--rhymer", cut)
    assert result.exit_code == 0, result.output
    assert result.output == plain.output


def test_generate_rhyme_flag_has_one_spelling(workdir):
    root, run = workdir
    result = run("generate", "glow", "--lm", root / "lm.ckpt", "--no-rhyme",
                 "--embeddings", root / "vectors.txt")
    assert result.exit_code == 2
    assert "No such option" in result.output and "--no-rhyme" in result.output
    assert "rhyme/" not in CliRunner().invoke(main, ["generate",
                                                     "--help"]).output


def _assert_rhymer_usage_error(result):
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert result.output.count("Usage:") == 1
    errors = [l for l in result.output.splitlines() if l.startswith("Error:")]
    assert errors == ["Error: rhyme flag is on but no --rhymer was given; "
                      "give --rhymer or --no-rh"]


def test_generate_rhyme_without_rhymer_fails(workdir):
    root, run = workdir
    result = run("generate", "glow", "--lm", root / "lm.ckpt",
                 "--embeddings", root / "vectors.txt")
    _assert_rhymer_usage_error(result)


def test_generate_rhyme_without_rhymer_reads_no_file(workdir, tmp_path,
                                                     monkeypatch):
    """The missing --rhymer is reported before any model file is read,
    even when the LM file does not exist."""
    root, run = workdir

    def unreached(*args, **kwargs):
        raise AssertionError("a model file was read")
    for name in ("load_lm", "load_embeddings", "load_rhymer"):
        monkeypatch.setattr(cli, name, unreached)
    for lm in (root / "lm.ckpt", tmp_path / "missing.ckpt"):
        result = run("generate", "glow", "--lm", lm,
                     "--embeddings", root / "vectors.txt")
        _assert_rhymer_usage_error(result)


def _assert_one_error_line(result):
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    errors = [l for l in result.output.splitlines() if l.startswith("error:")]
    assert len(errors) == 1
    return errors[0]


def _boundary_cases(root, out):
    """command -> (module, name of its first library call, arguments)."""
    ckpt = ["--checkpoint", root / "lm.ckpt", "--test", root / "dev.jsonl"]
    models = ["--lm", root / "lm.ckpt", "--rhymer", root / "rhymer.ckpt",
              "--embeddings", root / "vectors.txt"]
    return {
        "prepare": (cli, "read_documents", ["prepare", "--input",
                    root / "docs.jsonl", "--output", out / "out.jsonl"]),
        "train lm": (cli, "load_embeddings",
                     _train_args(root, "lm", out / "m.ckpt")),
        "train rhymer": (cli, "read_documents",
                         _train_args(root, "rhymer", out / "m.ckpt")),
        "train topics": (cli, "load_embeddings",
                         _train_args(root, "topics", out / "m.ckpt")),
        "label": (cli, "load_topics", [
            "label", "--checkpoint", root / "topics.ckpt", "--input",
            root / "dev.jsonl", "--output", out / "out.jsonl"]),
        "eval-ppl": (cli, "load_lm", ["eval-ppl", *ckpt]),
        "generate": (cli, "load_lm", ["generate", "glow", *models]),
        "gradcheck": (cli.net, "child_rng", ["gradcheck", "--seeds", "1"]),
    }


@pytest.mark.parametrize("error", PIPELINE_ERRORS,
                         ids=lambda e: e.__name__)
@pytest.mark.parametrize("command", [
    "prepare", "train lm", "train rhymer", "train topics", "label",
    "eval-ppl", "generate", "gradcheck"])
def test_every_command_turns_a_pipeline_error_into_one_line(
        workdir, tmp_path, monkeypatch, command, error):
    root, run = workdir
    module, name, args = _boundary_cases(root, tmp_path)[command]
    message = f"{error.__name__} from {name}"

    def fail(*args, **kwargs):
        raise error(message)
    monkeypatch.setattr(module, name, fail)
    assert _assert_one_error_line(run(*args)) == f"error: {message}"


def test_generate_truncated_checkpoint_is_clean_error(workdir, tmp_path):
    root, run = workdir
    data = (root / "lm.ckpt").read_bytes()
    for cut in (10, 100, len(data) // 2, len(data) - 3):
        (tmp_path / "cut.ckpt").write_bytes(data[:cut])
        result = run("generate", "glow", "--lm", tmp_path / "cut.ckpt",
                     "--no-rh", "--embeddings", root / "vectors.txt")
        assert "cut.ckpt" in _assert_one_error_line(result)


def test_generate_non_utf8_embeddings_is_clean_error(workdir, tmp_path):
    root, run = workdir
    bad = tmp_path / "vectors.txt"
    bad.write_bytes((root / "vectors.txt").read_bytes() + b"\xff\xfe 1\n")
    result = run("generate", "glow", "--lm", root / "lm.ckpt", "--no-rh",
                 "--embeddings", bad)
    assert "not valid UTF-8" in _assert_one_error_line(result)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_embeddings_are_clean_errors(workdir, tmp_path, value):
    root, run = workdir
    bad = tmp_path / "vectors.txt"
    lines = (root / "vectors.txt").read_text(encoding="utf-8").splitlines()
    lines[2] = lines[2].rsplit(" ", 1)[0] + f" {value}"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = run("generate", "glow", "--lm", root / "lm.ckpt", "--no-rh",
                 "--embeddings", bad)
    assert f"vectors.txt:3: non-finite value {value}" in (
        _assert_one_error_line(result))
    result = run("train", "topics", "--train", root / "train.jsonl",
                 "--dev", root / "dev.jsonl", "--embeddings", bad,
                 "--out", tmp_path / "topics.ckpt")
    assert "vectors.txt:3: non-finite" in _assert_one_error_line(result)
    assert not (tmp_path / "topics.ckpt").exists()


@pytest.mark.parametrize("word", ["po3t", "cat", "abcdefghi"])
def test_generate_invalid_word_usage_error(workdir, word):
    root, run = workdir
    result = run("generate", word, "--lm", root / "lm.ckpt",
                 "--embeddings", root / "vectors.txt")
    assert result.exit_code == 2


# --- gradcheck / misc -----------------------------------------------------------

def test_gradcheck_command(workdir):
    root, run = workdir
    result = run("gradcheck", "--seeds", "2")
    assert result.exit_code == 0, result.output
    assert "max relative error" in result.output
    for check in ("lm", "rhymer", "topics"):
        assert f"{check}=" in result.output


def test_gradcheck_over_its_tolerance_fails(monkeypatch):
    def suite(n_seeds):
        return [{"seed": seed, "lm": {"max_rel_error": 2e-4},
                 "rhymer": {"max_rel_error": 1e-6}} for seed in range(n_seeds)]
    monkeypatch.setattr(cli, "gradient_suite", suite)
    result = CliRunner().invoke(main, ["gradcheck", "--seeds", "2"])
    assert _assert_one_error_line(result) == "error: gradient check failed"
    assert "seed 1: lm=2.00e-04  rhymer=1.00e-06" in result.output
    assert "max relative error 2.00e-04 (tolerance 1e-04)" in result.output
    result = CliRunner().invoke(main, ["gradcheck", "--seeds", "2",
                                       "--tolerance", "3e-4"])
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("args", [("--seeds", "0"), ("--seeds", "-3"),
                                  ("--tolerance", "nan"),
                                  ("--tolerance", "inf"),
                                  ("--tolerance", "0"),
                                  ("--tolerance", "-1e-4")])
def test_gradcheck_that_cannot_fail_is_usage_error(args):
    result = CliRunner().invoke(main, ["gradcheck", *args])
    assert result.exit_code == 2
    assert "max relative error" not in result.output


@pytest.mark.parametrize("owner,key,array", [
    (PoemLM, "lm", "lm.lstm0.Wh"), (RhymerModel, "rhymer", "rh.chars"),
    (TopicClassifier, "topics", "tp.enc.bwd.Wx")])
def test_gradient_suite_flags_a_corrupted_model(monkeypatch, owner, key,
                                                array):
    """The suite checks each model's own loss_and_grads: scaling one of
    its gradient arrays by 1.01 shows in that model's report only."""
    real = owner.loss_and_grads

    def corrupted(model, *args, **kwargs):
        loss, wsum, grads = real(model, *args, **kwargs)
        grads[array] *= 1.01
        return loss, wsum, grads
    monkeypatch.setattr(owner, "loss_and_grads", corrupted)
    report, = gradient_suite(n_seeds=1, hidden=3, seq_len=3)
    assert {k for k in ("lm", "rhymer", "topics")
            if report[k]["max_rel_error"] > 1e-4} == {key}


def test_non_utf8_pretrain_file_is_clean_error(workdir, tmp_path):
    root, run = workdir
    (tmp_path / "pre.txt").write_bytes(b"ash blaze coal .\nash \xff .\n")
    result = run("train", "lm", "--variant", "wiki+",
                 "--train", root / "train.jsonl", "--dev", root / "dev.jsonl",
                 "--silver", root / "train.jsonl",
                 "--pretrain", tmp_path / "pre.txt",
                 "--embeddings", root / "vectors.txt",
                 "--out", tmp_path / "lm.ckpt")
    assert "pre.txt:2: not valid UTF-8" in _assert_one_error_line(result)


def test_negative_seed_flag_is_usage_error(workdir):
    root, _ = workdir
    result = CliRunner().invoke(main, [
        "--seed", "-1", "prepare", "--input", str(root / "docs.jsonl"),
        "--output", str(root / "unused.jsonl")])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)


def test_unknown_command_is_usage_error():
    result = CliRunner().invoke(main, ["frobnicate"])
    assert result.exit_code == 2


def test_output_dir_env_override(workdir, tmp_path, monkeypatch):
    root, _ = workdir
    monkeypatch.setenv("ACROPOET_OUT", str(tmp_path))
    runner = CliRunner()
    result = runner.invoke(main, [
        "--seed", "0", "prepare", "--input", str(root / "docs.jsonl"),
        "--output", "sub/prepared.jsonl"])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "sub" / "prepared.jsonl").exists()


def test_generate_bad_checkpoint_header_is_clean_error(workdir, tmp_path):
    root, run = workdir
    data = (root / "lm.ckpt").read_bytes()
    hlen = int.from_bytes(data[6:14], "little")
    header = b"[1]" + b" " * (hlen - 3)
    (tmp_path / "bad.ckpt").write_bytes(data[:14] + header
                                        + data[14 + hlen:])
    result = run("generate", "glow", "--lm", tmp_path / "bad.ckpt",
                 "--no-rh", "--embeddings", root / "vectors.txt")
    assert "corrupt checkpoint header" in _assert_one_error_line(result)


@pytest.mark.parametrize("command", ["generate", "eval-ppl"])
def test_deeply_nested_checkpoint_header_is_clean_error(workdir, tmp_path,
                                                        command):
    root, run = workdir
    data = (root / "lm.ckpt").read_bytes()
    hlen = int.from_bytes(data[6:14], "little")
    header = b"[" * 200_000
    (tmp_path / "deep.ckpt").write_bytes(
        data[:6] + len(header).to_bytes(8, "little") + header
        + data[14 + hlen:])
    args = (["generate", "glow", "--lm", tmp_path / "deep.ckpt", "--no-rh",
             "--embeddings", root / "vectors.txt"]
            if command == "generate" else
            ["eval-ppl", "--checkpoint", tmp_path / "deep.ckpt",
             "--test", root / "dev.jsonl"])
    line = _assert_one_error_line(run(*args))
    assert "deep.ckpt: corrupt checkpoint header" in line


def _run_with_config(tmp_path, config, *args):
    (tmp_path / "config.json").write_text(json.dumps(config))
    return CliRunner().invoke(
        main, ["--config", str(tmp_path / "config.json"),
               *[str(a) for a in args]])


def test_unknown_training_config_key_is_usage_error(workdir, tmp_path):
    root, _ = workdir
    result = _run_with_config(
        tmp_path, {"rhymer": {"bogus": 1}}, "train", "rhymer",
        "--train", root / "sonnets_train.jsonl",
        "--dev", root / "sonnets_dev.jsonl", "--out", tmp_path / "r.ckpt")
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert "'bogus'" in result.output and "'rhymer'" in result.output
    assert not (tmp_path / "r.ckpt").exists()


def test_topics_config_has_no_vocab_size(workdir, tmp_path):
    """Every vocabulary keeps at most `corpus.MAX_VOCAB` tokens; no
    config sets the cap."""
    root, _ = workdir
    result = _run_with_config(tmp_path, {"topics": {"vocab_size": 10}},
                              *_train_topics_args(root, tmp_path))
    assert result.exit_code == 2
    assert "unknown key 'vocab_size'" in result.output
    assert not (tmp_path / "t.ckpt").exists()


def test_unknown_generate_config_key_is_usage_error(workdir, tmp_path):
    root, _ = workdir
    result = _run_with_config(
        tmp_path, {"generate": {"beam_width": 3, "bogus": 1}}, "generate",
        "glow", "--lm", root / "lm.ckpt", "--no-rh",
        "--embeddings", root / "vectors.txt")
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert "'bogus'" in result.output and "'generate'" in result.output


def test_generate_config_m2_is_usage_error(workdir, tmp_path):
    """The sampling branch's weight is 1 - m1; there is no m2 to set."""
    root, _ = workdir
    result = _run_with_config(
        tmp_path, {"generate": {"m1": 0.7, "m2": 0.3}}, "generate", "glow",
        "--lm", root / "lm.ckpt", "--no-rh",
        "--embeddings", root / "vectors.txt")
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert "'m2'" in result.output and "'generate'" in result.output


@pytest.mark.parametrize("section", [
    {"temperature": float("inf")}, {"m1": float("nan")}])
def test_non_finite_generate_config_is_clean_error(workdir, tmp_path,
                                                   section):
    """json reads Infinity and NaN; they are errors, not weights."""
    root, _ = workdir
    result = _run_with_config(
        tmp_path, {"generate": section}, "generate", "glow",
        "--lm", root / "lm.ckpt", "--no-rh",
        "--embeddings", root / "vectors.txt")
    assert result.exit_code == 1
    assert "Traceback" not in result.output
    assert result.output.startswith("error:")
    assert "must be a finite number" in result.output


@pytest.mark.parametrize("section, name", [
    ({"k": 0}, "k"), ({"beam_width": 0}, "beam_width")])
def test_out_of_range_generate_config_is_clean_error(workdir, tmp_path,
                                                     section, name):
    """k=0 would steer no line and beam_width=0 would fail only at the
    first rhyme slot; both are refused before any generation (a negative
    count is already a usage error)."""
    root, _ = workdir
    result = _run_with_config(
        tmp_path, {"generate": section}, "generate", "glow",
        "--lm", root / "lm.ckpt", "--no-rh",
        "--embeddings", root / "vectors.txt")
    assert result.exit_code == 1
    assert "Traceback" not in result.output
    assert result.output == f"error: {name} must be positive\n"


def _train_topics_args(root, tmp_path):
    return ["train", "topics", "--train", root / "train.jsonl",
            "--dev", root / "dev.jsonl", "--embeddings", root / "vectors.txt",
            "--out", tmp_path / "t.ckpt"]


@pytest.mark.parametrize("config", [
    [1], {"topics": 5}, {"topics": {"hidden": "big"}},
    {"topics": {"hidden": True}}, {"topics": {"lr": "0.1"}},
    {"topics": {"hidden": 8.0}}, {"seed": "x"}, {"profile": "huge"},
    b"\xff{}", {"topics": {"hidden": -1}}, {"seed": -1}, b"[" * 100000,
], ids=lambda c: repr(c)[:40])
def test_bad_config_file_is_usage_error(workdir, tmp_path, config):
    root, _ = workdir
    path = tmp_path / "config.json"
    path.write_bytes(config if isinstance(config, bytes)
                     else json.dumps(config).encode())
    result = CliRunner().invoke(main, ["--config", str(path), *[
        str(a) for a in _train_topics_args(root, tmp_path)]])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert not (tmp_path / "t.ckpt").exists()


@pytest.mark.parametrize("kind", ["lm", "rhymer", "topics"])
def test_section_seed_is_usage_error(workdir, tmp_path, kind):
    """A component's seed derives from the top-level one, so a section's
    own seed would be ignored; it is refused instead."""
    root, _ = workdir
    config = json.loads((root / "config.json").read_text())
    config[kind]["seed"] = 5
    out = tmp_path / "m.ckpt"
    result = _run_with_config(tmp_path, config, *_train_args(root, kind, out))
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert f"config section '{kind}' sets 'seed'" in result.output
    assert "top-level 'seed'" in result.output
    assert not out.exists()


def test_generate_section_rng_seed_is_usage_error(workdir, tmp_path):
    root, _ = workdir
    result = _run_with_config(
        tmp_path, {"generate": {"rng_seed": 5}}, "generate", "glow",
        "--lm", root / "lm.ckpt", "--no-rh",
        "--embeddings", root / "vectors.txt")
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert "config section 'generate' sets 'rng_seed'" in result.output
    assert "top-level 'seed'" in result.output


@pytest.mark.parametrize("flag", ["st", "ac", "rh", "tp"])
def test_generate_flag_from_config_yields_to_command_line(workdir, tmp_path,
                                                         flag):
    """Config section < command line: a section's `false` holds while
    the flag is unset, and the flag given on the command line wins."""
    root, _ = workdir
    args = ["generate", "glow", "--lm", root / "lm.ckpt",
            "--rhymer", root / "rhymer.ckpt",
            "--embeddings", root / "vectors.txt",
            "--json", tmp_path / "poem.json"]
    for given, want in (([], False), ([f"--{flag}"], True)):
        result = _run_with_config(tmp_path, {"generate": {flag: False}},
                                  *args, *given)
        assert result.exit_code == 0, result.output
        flags = json.loads((tmp_path / "poem.json").read_text())["flags"]
        assert flags == {**dict.fromkeys(flags, True), flag: want}


def test_generate_section_rh_false_needs_no_rhymer(workdir, tmp_path):
    root, _ = workdir
    args = ["generate", "glow", "--lm", root / "lm.ckpt",
            "--embeddings", root / "vectors.txt",
            "--json", tmp_path / "poem.json"]
    result = _run_with_config(tmp_path, {"generate": {"rh": False}}, *args)
    assert result.exit_code == 0, result.output
    record = json.loads((tmp_path / "poem.json").read_text())
    assert record["flags"]["rh"] is False
    result = _run_with_config(tmp_path, {"generate": {"rh": False}}, *args,
                              "--rh")
    _assert_rhymer_usage_error(result)


def test_int_config_value_accepted_for_float_field(workdir, tmp_path):
    root, _ = workdir
    result = _run_with_config(
        tmp_path, {"topics": {"hidden": 4, "lr": 1, "batch_size": 8,
                              "patience": 0, "max_epochs": 1}},
        *_train_topics_args(root, tmp_path))
    assert result.exit_code == 0, result.output
    log = json.loads((tmp_path / "t.ckpt.json").read_text())
    assert log["config"]["lr"] == 1


META_CASES = [
    ("lm", lambda m: m.pop("vocab"), "'vocab'"),
    ("lm", lambda m: m.update(vocab=5), "'vocab'"),
    ("lm", lambda m: m.update(vocab=[1, 2]), "'vocab'"),
    ("lm", lambda m: m.pop("topic_dim"), "'topic_dim'"),
    ("lm", lambda m: m.update(topic_dim=True), "'topic_dim'"),
    ("lm", lambda m: m.update(variant=3), "'variant'"),
    ("lm", lambda m: m.update(config=5), "'config'"),
    ("lm", lambda m: m["config"].update(bogus=1), "'bogus'"),
    ("lm", lambda m: m["config"].update(hidden="big"), "'hidden'"),
    ("lm", lambda m: m.update(kind="topics"), "not a poemlm"),
    ("rhymer", lambda m: m.pop("config"), "'config'"),
    ("rhymer", lambda m: m["config"].update(bogus=1), "'bogus'"),
    ("topics", lambda m: m.pop("labels"), "'labels'"),
    ("topics", lambda m: m.update(vocab="ash"), "'vocab'"),
    ("topics", lambda m: m["config"].update(bogus=1), "'bogus'"),
    ("lm", lambda m: m["vocab"].__setitem__(3, ""), "empty token"),
    ("topics", lambda m: m["vocab"].__setitem__(3, ""), "empty token"),
    ("lm", lambda m: m.update(variant="bogus"), "'bogus'"),
    ("rhymer", lambda m: m.update(kind="topics"), "not a rhymer"),
    ("topics", lambda m: m.update(kind="rhymer"), "not a topics"),
    ("topics", lambda m: m["labels"].reverse(), "must be sorted"),
    ("lm", lambda m: m["vocab"].__setitem__(1, m["vocab"][0]),
     "'vocab': duplicate token in vocabulary"),
    ("topics", lambda m: m.update(labels=["fire"]),
     "need at least two topics to classify"),
    # topics checkpoints once kept a size cap in their config
    ("topics", lambda m: m["config"].update(vocab_size=50000),
     "unknown key 'vocab_size'"),
]


@pytest.mark.parametrize("kind,change,named", META_CASES,
                         ids=[f"{k}-{i}" for i, (k, _, _) in
                              enumerate(META_CASES)])
def test_bad_checkpoint_meta_is_clean_error(workdir, tmp_path, kind,
                                            change, named):
    root, run = workdir
    store, meta = load_checkpoint(root / f"{kind}.ckpt")
    change(meta)
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, store, meta)
    results = [_load_model(run, root, tmp_path, kind, bad)]
    if kind == "lm":
        results.append(run("eval-ppl", "--checkpoint", bad, "--test",
                           root / "dev.jsonl", "--embeddings",
                           root / "vectors.txt", "--json",
                           tmp_path / "ppl.json"))
    for result in results:
        line = _assert_one_error_line(result)
        assert "bad.ckpt" in line and named in line


def _load_model(run, root, out, kind, path):
    """Run the command that loads a `kind` checkpoint from path."""
    if kind == "topics":
        return run("label", "--checkpoint", path, "--input",
                   root / "dev.jsonl", "--output", out / "out.jsonl")
    models = (["--lm", path, "--no-rh"] if kind == "lm" else
              ["--lm", root / "lm.ckpt", "--rhymer", path])
    return run("generate", "glow", *models,
               "--embeddings", root / "vectors.txt")


# --- checkpoints whose arrays are not the ones their meta implies -----------

def _extra(params, meta):
    params["bogus"] = np.zeros(2)


ARRAY_CASES = [
    ("lm", lambda p, m: m["config"].update(n_layers=5),
     "missing 'lm.lstm1.Wx'"),
    ("lm", lambda p, m: m["config"].update(hidden=13),
     "'lm.lstm0.Wh' has shape (12, 48), the model needs (13, 52)"),
    ("lm", lambda p, m: p.pop("embed.fixed"), "missing 'embed.fixed'"),
    ("lm", _extra, "extra 'bogus'"),
    ("lm", lambda p, m: m["vocab"].pop(), "'embed.fixed' has shape"),
    ("topics", lambda p, m: m["config"].update(hidden=9),
     "'tp.enc.fwd.Wh' has shape"),
    ("topics", lambda p, m: m.update(embed_dim=DIM + 1),
     "'embed.fixed' has shape"),
    ("topics", lambda p, m: p.pop("embed.fixed"), "missing 'embed.fixed'"),
    ("topics", _extra, "extra 'bogus'"),
    ("topics", lambda p, m: m["labels"].append("zzz"),
     "'tp.head.W' has shape"),
    ("rhymer", lambda p, m: m["config"].update(decoder_hidden=9),
     "'rh.dec.Wh' has shape"),
    ("rhymer", lambda p, m: p.pop("rh.chars"), "missing 'rh.chars'"),
    ("rhymer", _extra, "extra 'bogus'"),
]


@pytest.mark.parametrize("kind,change,named", ARRAY_CASES,
                         ids=[f"{k}-{i}" for i, (k, _, _) in
                              enumerate(ARRAY_CASES)])
def test_checkpoint_arrays_unlike_meta_are_clean_error(workdir, tmp_path,
                                                       kind, change, named):
    root, run = workdir
    params, meta = load_checkpoint(root / f"{kind}.ckpt")
    params = dict(params)
    change(params, meta)
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, params, meta)
    line = _assert_one_error_line(_load_model(run, root, tmp_path, kind,
                                              bad))
    assert "bad.ckpt: arrays do not match the model" in line
    assert named in line


def _traced_peak(action):
    """action() and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return action(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind,key", [("lm", "hidden"), ("topics", "hidden"),
                                      ("rhymer", "decoder_hidden")])
def test_meta_sizes_beyond_the_arrays_are_rejected_before_allocating(
        workdir, tmp_path, kind, key):
    """A small checkpoint whose meta names a large size fails with one
    error line, having allocated no more than an honest load does."""
    root, run = workdir
    params, meta = load_checkpoint(root / f"{kind}.ckpt")
    meta["config"][key] = 2000
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, params, meta)
    honest, honest_peak = _traced_peak(
        lambda: _load_model(run, root, tmp_path, kind, root / f"{kind}.ckpt"))
    assert honest.exit_code == 0, honest.output
    result, peak = _traced_peak(
        lambda: _load_model(run, root, tmp_path, kind, bad))
    line = _assert_one_error_line(result)
    assert "bad.ckpt: arrays do not match the model" in line
    assert "the model needs (2000, 8000)" in line
    assert peak < 3 * honest_peak, (peak, honest_peak)


def test_dev_topic_unseen_in_training_is_clean_error(workdir, tmp_path):
    root, run = workdir
    dev = make_poems(6, seed=2)
    dev[0] = Poem(lines=dev[0].lines, topic="earth")
    write_poems(tmp_path / "dev.jsonl", dev)
    result = run("train", "topics", "--train", root / "train.jsonl",
                 "--dev", tmp_path / "dev.jsonl",
                 "--embeddings", root / "vectors.txt",
                 "--out", tmp_path / "t.ckpt")
    assert "'earth'" in _assert_one_error_line(result)
    assert KeyError not in PIPELINE_ERRORS


# --- fuzzing: every failure is an exit code, never a traceback ---------------

FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=100,
                suppress_health_check=[HealthCheck.function_scoped_fixture])
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 8),
    st.sampled_from([0.0, 0.3, 0.7, 1.0, -1.0, 2.5]),
    st.sampled_from(["", "x", "desk_scale", "paper_scale"]))
JSON = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.dictionaries(st.text(max_size=6), inner, max_size=3)), max_leaves=8)


def _assert_clean_exit(result):
    assert result.exit_code in (0, 1, 2), result.output
    assert result.exception is None or isinstance(result.exception,
                                                  SystemExit)
    assert "Traceback" not in result.output


def _with_edited_header(data: bytes, edit) -> bytes:
    hlen = int.from_bytes(data[6:14], "little")
    header = json.loads(data[14:14 + hlen])
    edit(header)
    raw = json.dumps(header).encode()
    return data[:6] + len(raw).to_bytes(8, "little") + raw + data[14 + hlen:]


@FUZZ
@given(kind=st.sampled_from(["lm", "rhymer"]), data=st.data())
def test_fuzzed_checkpoint_header_exits_cleanly(workdir, tmp_path, kind,
                                                data):
    root, run = workdir

    def edit(header):
        entries = header["entries"]
        i = data.draw(st.integers(0, len(entries) - 1))
        op = data.draw(st.sampled_from(["drop", "rename", "reshape",
                                        "config"]))
        if op == "drop":
            del entries[i]
        elif op == "rename":
            entries[i]["name"] = data.draw(st.text("abz.", min_size=1,
                                                   max_size=6))
        elif op == "reshape":
            entries[i]["shape"] = data.draw(st.lists(st.integers(0, 40),
                                                     max_size=3))
        else:
            config = header["meta"]["config"]
            key = data.draw(st.sampled_from(sorted(
                k for k, v in config.items() if type(v) is int)))
            config[key] = data.draw(st.integers(-2, 40))

    path = tmp_path / "fuzz.ckpt"
    path.write_bytes(_with_edited_header(
        (root / f"{kind}.ckpt").read_bytes(), edit))
    _assert_clean_exit(_load_model(run, root, tmp_path, kind, path))


GENERATE_KEYS = [f.name for f in fields(GenerationConfig)] + ["bogus"]


@FUZZ
@given(config=st.one_of(
    JSON,
    st.binary(max_size=8),
    st.dictionaries(
        st.sampled_from(["profile", "seed", "generate", "lm", "bogus"]),
        st.one_of(SCALARS, st.dictionaries(st.sampled_from(GENERATE_KEYS),
                                           SCALARS, max_size=4)),
        max_size=3)))
def test_fuzzed_config_file_exits_cleanly(workdir, tmp_path, config):
    root, _ = workdir
    path = tmp_path / "fuzz.json"
    path.write_bytes(config if isinstance(config, bytes)
                     else json.dumps(config).encode())
    result = CliRunner().invoke(main, [
        "--config", str(path), "generate", "glow",
        "--lm", str(root / "lm.ckpt"), "--rhymer", str(root / "rhymer.ckpt"),
        "--embeddings", str(root / "vectors.txt")])
    _assert_clean_exit(result)


DOCUMENT_LINE = st.one_of(
    JSON.map(json.dumps),
    st.dictionaries(
        st.sampled_from(["lines", "source", "topic", "bogus"]),
        st.one_of(SCALARS, st.lists(st.one_of(st.text(max_size=20), SCALARS),
                                    max_size=6)),
        max_size=4).map(json.dumps),
    st.text(max_size=10))


@FUZZ
@given(lines=st.lists(st.one_of(DOCUMENT_LINE.map(str.encode),
                                st.binary(max_size=10)), max_size=4))
def test_fuzzed_jsonl_for_prepare_exits_cleanly(workdir, tmp_path, lines):
    root, run = workdir
    path = tmp_path / "fuzz.jsonl"
    path.write_bytes(b"\n".join(lines))
    _assert_clean_exit(run("prepare", "--input", path,
                           "--output", tmp_path / "out.jsonl"))


# --- config values out of range -----------------------------------------------

def test_rhymer_config_of_no_context_chars_is_clean_error(workdir, tmp_path):
    root, _ = workdir
    result = _run_with_config(
        tmp_path, {"rhymer": {"max_context_chars": 0}}, "train", "rhymer",
        "--train", root / "sonnets_train.jsonl",
        "--dev", root / "sonnets_dev.jsonl", "--out", tmp_path / "r.ckpt")
    assert "max_context_chars" in _assert_one_error_line(result)
    assert not (tmp_path / "r.ckpt").exists()


def test_rhymer_checkpoint_of_no_context_chars_fails_to_load(workdir,
                                                             tmp_path):
    root, run = workdir
    store, meta = load_checkpoint(root / "rhymer.ckpt")
    meta["config"]["max_context_chars"] = 0
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, store, meta)
    result = _load_model(run, root, tmp_path, "rhymer", bad)
    line = _assert_one_error_line(result)
    assert "bad.ckpt" in line and "max_context_chars" in line


OUT_OF_RANGE = [
    ("lm", "batch_size", 0), ("topics", "batch_size", 0),
    ("rhymer", "batch_size", 0), ("lm", "n_layers", 0), ("lm", "hidden", 0),
    ("topics", "hidden", 0), ("rhymer", "char_dim", 0),
    ("rhymer", "word_hidden", 0),
    ("lm", "dropout", 1.5), ("lm", "dropout", 1.0), ("lm", "dropout", -0.1),
    ("lm", "lr", 0.0), ("topics", "lr", -0.01), ("rhymer", "lr", math.nan),
    ("rhymer", "lr", math.inf),
]


@pytest.mark.parametrize("kind,key,value", OUT_OF_RANGE)
def test_config_value_out_of_range_is_clean_error(workdir, tmp_path, kind,
                                                  key, value):
    root, _ = workdir
    config = json.loads((root / "config.json").read_text())
    config[kind][key] = value
    out = tmp_path / "m.ckpt"
    result = _run_with_config(tmp_path, config,
                              *_train_args(root, kind, out))
    assert key in _assert_one_error_line(result)
    assert not out.exists()


@pytest.mark.parametrize("kind,key,value", OUT_OF_RANGE)
def test_checkpoint_config_out_of_range_fails_to_load(workdir, tmp_path,
                                                      kind, key, value):
    root, run = workdir
    store, meta = load_checkpoint(root / f"{kind}.ckpt")
    meta["config"][key] = value
    bad = tmp_path / "bad.ckpt"
    save_checkpoint(bad, store, meta)
    line = _assert_one_error_line(_load_model(run, root, tmp_path, kind, bad))
    assert line.startswith(f"error: {bad}: checkpoint meta 'config': {key}")


# --- the BLAS line of the train log -------------------------------------------

def test_train_logs_the_blas_threads_outside_its_artifacts(workdir, tmp_path,
                                                           caplog):
    """The INFO line names the thread count and the row blocks; neither
    the checkpoint nor the JSON train log changes with -v."""
    root, _ = workdir
    caplog.set_level(logging.INFO, logger="acropoet.cli")
    written = {}
    for flags in ([], ["-v"]):
        out = tmp_path / f"lm{len(flags)}.ckpt"
        caplog.clear()
        result = CliRunner().invoke(main, [
            "--config", str(root / "config.json"), "--seed", "0", *flags,
            "train", "lm", "--variant", "gold+",
            "--train", str(root / "train.jsonl"),
            "--dev", str(root / "dev.jsonl"),
            "--embeddings", str(root / "vectors.txt"),
            "--out", str(out)])
        assert result.exit_code == 0, result.output
        blas = [r.getMessage() for r in caplog.records
                if r.name == "acropoet.cli" and "BLAS" in r.getMessage()]
        assert len(blas) == 1 and "row block" in blas[0]
        written[len(flags)] = (out.read_bytes(),
                               Path(f"{out}.json").read_bytes())
    assert written[0] == written[1]
    assert b"BLAS" not in written[0][0] and b"BLAS" not in written[0][1]
