"""The CLI under file faults, and the options each command reads.

Every file argument of every command is replaced, one at a time, by a
file that is missing, a directory, empty, truncated, holding bytes that
are not UTF-8, or an artifact of another kind; every JSONL argument also
by one whose first record is valid JSON of the wrong shape; every LM
corpus by one holding a poem of 3 or 9 lines, and `label`'s input by one
holding a poem with no tokens.  Each run must exit 1 with exactly one
`error:` line that names the file (and, for a wrong-shape record or
poem, its line), and no traceback.  An option a command does not read
is a usage error (exit 2).
"""

import json
import re

import pytest
from click.testing import CliRunner
from test_cli import _assert_one_error_line, workdir  # noqa: F401

from acropoet import cli
from acropoet.cli import main

OUT = "<out>"

# Each command on valid files of the `workdir` fixture (named relative to
# its root); OUT is an output path.  `train lm` runs the wiki+ variant, the
# one that reads --silver and --pretrain.
COMMANDS = {
    "prepare": ["prepare", "--input", "docs.jsonl", "--output", OUT],
    "train lm": ["train", "lm", "--variant", "wiki+",
                 "--train", "train.jsonl", "--dev", "dev.jsonl",
                 "--embeddings", "vectors.txt", "--silver", "train.jsonl",
                 "--pretrain", "pre.txt", "--out", OUT],
    "train topics": ["train", "topics", "--train", "train.jsonl",
                     "--dev", "dev.jsonl", "--embeddings", "vectors.txt",
                     "--out", OUT],
    "train rhymer": ["train", "rhymer", "--train", "sonnets_train.jsonl",
                     "--dev", "sonnets_dev.jsonl", "--out", OUT],
    "label": ["label", "--checkpoint", "topics.ckpt", "--input", "dev.jsonl",
              "--output", OUT],
    "eval-ppl": ["eval-ppl", "--checkpoint", "lm.ckpt", "--test", "dev.jsonl",
                 "--embeddings", "vectors.txt", "--json", OUT],
    "generate": ["generate", "glow", "--lm", "lm.ckpt",
                 "--rhymer", "rhymer.ckpt", "--embeddings", "vectors.txt"],
}
FILE_SUFFIXES = (".jsonl", ".txt", ".ckpt")

FAULTS = ["missing", "directory", "empty", "truncated-0.3", "truncated-0.6",
          "truncated-0.95", "non-utf8", "other-kind"]
# An empty corpus is valid input where a command can do its work on none:
# `prepare` writes an empty corpus and `label` labels no poems.  A plain
# text file cut anywhere is still a whole plain text file.
NOT_FAULTS = {("prepare", "--input", "empty"), ("label", "--input", "empty"),
              *(("train lm", "--pretrain", f) for f in FAULTS
                if f.startswith("truncated"))}


def _other_kind(name: str) -> str:
    """A valid artifact of another kind than the file `name`."""
    if name.endswith(".jsonl"):
        return "vectors.txt"
    if name == "vectors.txt":
        return "train.jsonl"
    return "rhymer.ckpt" if name == "lm.ckpt" else "lm.ckpt"


def _faulty(root, name: str, fault: str, tmp_path):
    """A path holding the file `name` of root with `fault`."""
    path = tmp_path / f"faulty{name[name.rindex('.'):]}"
    if fault == "missing":
        return path
    if fault == "directory":
        path.mkdir()
        return path
    data = (root / name).read_bytes()
    if fault == "empty":
        data = b""
    elif fault.startswith("truncated"):
        # cut just before a value separator past the given share of the
        # file, so that the last line of a text file is short a value
        share = float(fault.split("-")[1])
        data = data[:data.rfind(b" ", 0, int(len(data) * share))]
    elif fault == "non-utf8":
        # two bytes of line 2, or of a checkpoint's JSON header
        at = 15 if name.endswith(".ckpt") else data.find(b"\n") + 1
        data = data[:at] + b"\xff\xfe" + data[at + 2:]
    else:
        data = (root / _other_kind(name)).read_bytes()
    path.write_bytes(data)
    return path


@pytest.fixture(scope="module")
def files(workdir):  # noqa: F811
    root, run = workdir
    (root / "pre.txt").write_text(
        "ash blaze coal drift ember .\nfire glow heat .\nwave water mist .\n"
        * 4, encoding="utf-8")
    return root, run


def _command_line(root, args, tmp_path):
    """args with each file name under root (a path stays as it is)."""
    return [tmp_path / "out" if a == OUT else
            root / a if str(a).endswith(FILE_SUFFIXES) else a for a in args]


MATRIX = [(command, option, fault)
          for command, args in COMMANDS.items()
          for option, value in zip(args, args[1:])
          if option.startswith("--") and value.endswith(FILE_SUFFIXES)
          for fault in FAULTS if (command, option, fault) not in NOT_FAULTS]


@pytest.mark.parametrize("command,option,fault", MATRIX,
                         ids=[" ".join(case) for case in MATRIX])
def test_a_faulty_file_is_one_error_line_naming_it(files, tmp_path, command,
                                                   option, fault):
    root, run = files
    args = list(COMMANDS[command])
    at = args.index(option) + 1
    args[at] = _faulty(root, args[at], fault, tmp_path)
    result = run(*_command_line(root, args, tmp_path))
    assert str(args[at]) in _assert_one_error_line(result)


# valid JSON where a JSONL file needs an object with a list of lines
WRONG_SHAPES = {"a list": '["ash", "blaze"]',
                "lines of numbers": '{"lines": [1, 2, 3, 4]}'}
JSONL_ARGS = [(command, option) for command, args in COMMANDS.items()
              for option, value in zip(args, args[1:])
              if option.startswith("--") and value.endswith(".jsonl")]


@pytest.mark.parametrize("shape", WRONG_SHAPES)
@pytest.mark.parametrize("command,option", JSONL_ARGS,
                         ids=[" ".join(case) for case in JSONL_ARGS])
def test_a_jsonl_record_of_the_wrong_shape_is_one_error_line_naming_it(
        files, tmp_path, command, option, shape):
    root, run = files
    args = list(COMMANDS[command])
    at = args.index(option) + 1
    rest = (root / args[at]).read_text(encoding="utf-8").split("\n", 1)[1]
    args[at] = tmp_path / "faulty.jsonl"
    args[at].write_text(WRONG_SHAPES[shape] + "\n" + rest, encoding="utf-8")
    result = run(*_command_line(root, args, tmp_path))
    assert f"{args[at]}:1: " in _assert_one_error_line(result)


# The LM's acrostic condition has one row per line, so every poem of an LM
# corpus has 4-8 lines; `label` and `train topics` take any count.
LM_CORPORA = [("train lm", "--train"), ("train lm", "--dev"),
              ("train lm", "--silver"), ("eval-ppl", "--test")]


def _never(*args, **kwargs):
    raise AssertionError("ran past the corpus check")


@pytest.mark.parametrize("n_lines", [3, 9])
@pytest.mark.parametrize("command,option", LM_CORPORA,
                         ids=[" ".join(case) for case in LM_CORPORA])
def test_an_lm_poem_outside_4_to_8_lines_is_one_error_line_naming_it(
        files, tmp_path, monkeypatch, command, option, n_lines):
    """The error names the poem's line (a blank line counts) and comes
    before any training or scoring."""
    root, run = files
    monkeypatch.setattr(cli, "train_variant", _never)
    monkeypatch.setattr(cli.PoemLM, "perplexity", _never)
    args = list(COMMANDS[command])
    at = args.index(option) + 1
    first = (root / args[at]).read_text(encoding="utf-8").split("\n")[0]
    poem = json.dumps({"lines": [["ash", "blaze"]] * n_lines,
                       "topic": "fire"})
    args[at] = tmp_path / "faulty.jsonl"
    args[at].write_text(f"{first}\n\n{poem}\n", encoding="utf-8")
    line = _assert_one_error_line(run(*_command_line(root, args, tmp_path)))
    assert line == (f"error: {args[at]}:3: poem has {n_lines} lines, "
                    f"need 4-8")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("lines", [[], [[]]], ids=["no lines",
                                                   "one empty line"])
def test_label_refuses_a_poem_with_no_tokens(files, tmp_path, lines):
    """A poem with no tokens has no topic to find; the error names its
    line (a blank line counts) and no labels are written."""
    root, run = files
    first = (root / "dev.jsonl").read_text(encoding="utf-8").split("\n")[0]
    path = tmp_path / "faulty.jsonl"
    path.write_text(f"{first}\n\n{json.dumps({'lines': lines})}\n",
                    encoding="utf-8")
    args = list(COMMANDS["label"])
    args[args.index("--input") + 1] = path
    line = _assert_one_error_line(run(*_command_line(root, args, tmp_path)))
    assert line == f"error: {path}:3: poem has no tokens"
    assert not (tmp_path / "out").exists()


UNREAD = [("train rhymer", "--embeddings", "vectors.txt"),
          ("train rhymer", "--pretrain", "pre.txt"),
          ("train topics", "--variant", "gold+"),
          ("train topics", "--silver", "train.jsonl"),
          *((command, "--dim", "8") for command in [*COMMANDS, "gradcheck"])]


@pytest.mark.parametrize("command,option,value", UNREAD,
                         ids=[f"{c} {o}" for c, o, _ in UNREAD])
def test_an_option_the_command_does_not_read_is_a_usage_error(
        files, tmp_path, command, option, value):
    root, run = files
    args = COMMANDS.get(command, ["gradcheck", "--seeds", "1"])
    result = run(*_command_line(root, [*args, option, value], tmp_path))
    assert result.exit_code == 2
    assert f"No such option '{option}'" in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("model,options", [
    ("lm", ["--variant", "--train", "--dev", "--embeddings", "--silver",
            "--pretrain", "--out"]),
    ("topics", ["--train", "--dev", "--embeddings", "--out"]),
    ("rhymer", ["--train", "--dev", "--out"])])
def test_each_train_command_lists_only_its_options(model, options):
    result = CliRunner().invoke(main, ["train", model, "--help"])
    assert result.exit_code == 0
    listed = re.findall(r"^  (--[a-z-]+)", result.output, re.MULTILINE)
    assert listed == [*options, "--help"]
