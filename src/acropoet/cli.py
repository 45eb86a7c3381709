"""Command-line pipeline harness.

Commands: `prepare` (raw documents -> training poems), `train`
(lm / rhymer / topics), `label` (silver topic annotation), `eval-ppl`,
`generate`, and `gradcheck`.  Exit codes: 0 success, 1 runtime failure,
2 usage error.
"""

from __future__ import annotations

import json
import logging
import math
import os
import sys
from dataclasses import asdict

import click
import numpy as np

from . import net
from .corpus import (
    CorpusError, Poem, bad_utf8_message, build_vocabulary, check_poems,
    line_count_histogram, line_count_problem, read_documents, read_poems,
    split_into_training_poems, tokenize, write_poems,
)
from .decode import (
    DecodeError, GenerationConfig, ModelBundle, acrostic_word, generate_poem,
    render_poem,
)
from .embed import EmbeddingError, EmbeddingTable, load_embeddings
from .net import NetError
from .poemlm import (
    LmConfig, LmVariant, PoemLM, PoemLmError, build_embedding_matrix,
    load_lm, save_lm, train_variant,
)
from .rhymer import (
    RhymeExample, RhymerConfig, RhymerError, RhymerModel,
    extract_rhyme_pairs, load_rhymer, save_rhymer, train_rhymer,
)
from .topics import (
    TopicClassifier, TopicConfig, TopicError, load_topics, save_topics,
    train_topic_model,
)

log = logging.getLogger(__name__)

PROFILES = ["paper_scale", "desk_scale"]
PIPELINE_ERRORS = (CorpusError, EmbeddingError, NetError, PoemLmError,
                   RhymerError, TopicError, DecodeError, OSError)


def _outpath(path: str) -> str:
    """Resolve an output path, honoring the output-dir override env var."""
    base = os.environ.get("ACROPOET_OUT")
    if base and not os.path.isabs(path):
        path = os.path.join(base, path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return path


def _write_json(path: str, payload: dict) -> None:
    with open(_outpath(path), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _component_config(obj: dict, name: str, cls, seed_field: str = "seed",
                      **given):
    """cls's settings: the profile's defaults (`cls.desk_scale()` for
    desk_scale where cls has one, else the dataclass defaults), then the
    config file's `name` section, then the values given on the command
    line (None: not given).  The seed is always the root one.

    Every key of the section must be a field of cls, other than
    seed_field, and every value of that field's type.
    """
    section = obj["file"].get(name, {})
    if not isinstance(section, dict):
        raise click.UsageError(f"config section {name!r} is not an object")
    problem = net.field_problem(section, cls)
    if problem:
        raise click.UsageError(f"{problem} in config section {name!r}")
    if seed_field in section:
        raise click.UsageError(
            f"config section {name!r} sets {seed_field!r}; every component "
            f"derives its seed from the top-level 'seed'")
    desk = obj["profile"] == "desk_scale" and hasattr(cls, "desk_scale")
    vals = asdict(cls.desk_scale() if desk else cls())
    vals.update(section)
    vals.update({k: v for k, v in given.items() if v is not None})
    vals[seed_field] = obj["seed"]
    return cls(**vals)


class _Pipeline(click.Group):
    """The command group: a pipeline error from any command ends the run
    with one `error:` line and exit 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except PIPELINE_ERRORS as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)


@click.group(cls=_Pipeline)
@click.option("--config", "config_path",
              type=click.Path(exists=True, dir_okay=False), default=None,
              help="JSON config file with profile/seed/per-component "
                   "hyperparameter sections.")
@click.option("--profile",
              type=click.Choice(PROFILES),
              default=None, help="Hyperparameter profile.")
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="Root seed; every component derives its own stream.")
@click.option("-v", "--verbose", is_flag=True)
@click.pass_context
def main(ctx, config_path, profile, seed, verbose):
    """Acrostic poem generation pipeline."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    file_cfg = {}
    if config_path:
        try:
            with open(config_path, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            # ValueError: bad JSON or UTF-8; RecursionError: nested too deep
            raise click.UsageError(f"bad config file: {exc}")
        if not isinstance(file_cfg, dict):
            raise click.UsageError("bad config file: not a JSON object")
    profile = profile or file_cfg.get("profile", "desk_scale")
    if profile not in PROFILES:
        raise click.UsageError(f"config profile must be one of {PROFILES}")
    seed = seed if seed is not None else file_cfg.get("seed", 0)
    if type(seed) is not int or seed < 0:
        raise click.UsageError("config seed must be a non-negative integer")
    ctx.obj = {"file": file_cfg, "profile": profile, "seed": seed}


@main.command()
@click.option("--input", "input_path", required=True)
@click.option("--output", "output_path", required=True)
def prepare(input_path, output_path):
    """Split raw documents (JSONL) into 4-8 line training poems."""
    poems: list[Poem] = []
    for doc in read_documents(input_path):
        poems.extend(split_into_training_poems(doc))
    write_poems(_outpath(output_path), poems)
    if not poems:
        log.warning("no usable poems in %s; wrote an empty corpus",
                    input_path)
    click.echo("lines  poems")
    for n, count in sorted(line_count_histogram(poems).items()):
        click.echo(f"{n:>5}  {count:>5}")
    click.echo(f"total  {len(poems):>5}")


def _read_some(read, path, what: str = "poems") -> list:
    """read(path), which must hold at least one item."""
    items = read(path)
    if not items:
        raise CorpusError(f"{path}: no {what}")
    return items


def _read_lm_poems(path) -> list[Poem]:
    """The poems of an LM corpus, each of 4-8 lines, since the LM's
    acrostic condition has one row per line."""
    poems = _read_some(read_poems, path)
    check_poems(path, poems, line_count_problem)
    return poems


def _read_pretrain(path: str) -> list[list[str]]:
    try:
        with open(path, encoding="utf-8") as fh:
            sentences = [tokenize(line) for line in fh if line.strip()]
    except UnicodeDecodeError as exc:
        raise CorpusError(bad_utf8_message(path, exc)) from None
    return [s for s in sentences if s]


def _rhyme_pairs(path: str) -> list[RhymeExample]:
    return extract_rhyme_pairs(read_documents(path))


def _log_blas() -> None:
    threads = net.blas_threads()
    log.info("BLAS reports %s thread(s); large products and softmaxes may "
             "use %d row block(s)", "unknown" if threads is None else threads,
             net.max_row_blocks())


def _save_trained(obj, out_path, name, cfg, history, save, variant=None):
    """save(out) writes the checkpoint; the JSON training log goes
    alongside it."""
    out = _outpath(out_path)
    save(out)
    _write_json(out + ".json", {
        "model": name,
        "variant": variant,
        "profile": obj["profile"],
        "seed": obj["seed"],
        "config": asdict(cfg),
        "history": history,
    })
    click.echo(f"wrote {out}")


@main.group()
def train():
    """Train one model and write its checkpoint plus a JSON log."""


_TRAIN = click.option("--train", "train_path", required=True)
_DEV = click.option("--dev", "dev_path", required=True)
_EMBEDDINGS = click.option("--embeddings", "emb_path", required=True,
                           help="Word-vector text file.")
_OUT = click.option("--out", "out_path", required=True,
                    help="Checkpoint path; a JSON training log is written "
                         "alongside.")


@train.command("lm")
@click.option("--variant", type=click.Choice(list(LmVariant.NAMES)),
              default="gold+", help="LM training regime.")
@_TRAIN
@_DEV
@_EMBEDDINGS
@click.option("--silver", "silver_path", default=None,
              help="Silver-labeled poems, read by the pred/gold and wiki "
                   "variants only.")
@click.option("--pretrain", "pretrain_path", default=None,
              help="Plain-text file (one sentence per line), read by the "
                   "wiki variants only.")
@_OUT
@click.pass_obj
def train_lm_command(obj, variant, train_path, dev_path, emb_path,
                     silver_path, pretrain_path, out_path):
    """Train the conditional poem LM on poem JSONL corpora."""
    _log_blas()
    table = load_embeddings(emb_path)
    gold_train = _read_lm_poems(train_path)
    gold_dev = _read_lm_poems(dev_path)
    silver = _read_lm_poems(silver_path) if silver_path else None
    pretrain = (_read_some(_read_pretrain, pretrain_path, "sentences")
                if pretrain_path else None)
    cfg = _component_config(obj, "lm", LmConfig)
    trained = train_variant(LmVariant.from_name(variant), gold_train,
                            gold_dev, silver, pretrain, table, cfg)
    _save_trained(obj, out_path, "lm", cfg, trained.history,
                  lambda out: save_lm(out, trained), variant)


@train.command("rhymer")
@_TRAIN
@_DEV
@_OUT
@click.pass_obj
def train_rhymer_command(obj, train_path, dev_path, out_path):
    """Train the rhymer on document JSONL corpora."""
    _log_blas()
    train_ex = _read_some(_rhyme_pairs, train_path, "rhyme pairs")
    dev_ex = _read_some(_rhyme_pairs, dev_path, "rhyme pairs")
    cfg = _component_config(obj, "rhymer", RhymerConfig)
    rhymer = RhymerModel(cfg)
    history = train_rhymer(rhymer, train_ex, dev_ex)
    _save_trained(obj, out_path, "rhymer", cfg, history,
                  lambda out: save_rhymer(out, rhymer, history))


@train.command("topics")
@_TRAIN
@_DEV
@_EMBEDDINGS
@_OUT
@click.pass_obj
def train_topics_command(obj, train_path, dev_path, emb_path, out_path):
    """Train the topic classifier on poem JSONL corpora."""
    _log_blas()
    table = load_embeddings(emb_path)
    cfg = _component_config(obj, "topics", TopicConfig)
    classifier, history = train_topic_model(
        _read_some(read_poems, train_path), _read_some(read_poems, dev_path),
        table, cfg)
    _save_trained(obj, out_path, "topics", cfg, history,
                  lambda out: save_topics(out, classifier, history))


@main.command()
@click.option("--checkpoint", "ckpt_path", required=True)
@click.option("--input", "input_path", required=True)
@click.option("--output", "output_path", required=True)
def label(ckpt_path, input_path, output_path):
    """Attach silver topic labels to an unlabeled poem corpus."""
    classifier = load_topics(ckpt_path)
    poems = read_poems(input_path)
    # a poem with no tokens has no topic to find
    check_poems(input_path, poems,
                lambda poem: None if poem.tokens() else "poem has no tokens")
    write_poems(_outpath(output_path), classifier.label_corpus(poems))
    click.echo(f"labeled {len(poems)} poems")


@main.command("eval-ppl")
@click.option("--checkpoint", "ckpt_path", required=True)
@click.option("--test", "test_path", required=True)
@click.option("--embeddings", "emb_path", default=None,
              help="Word-vector text file, as wide as the LM's topic "
                   "vectors; needed and read only when the LM has a "
                   "topic channel.")
@click.option("--json", "json_path", default=None)
def eval_ppl(ckpt_path, test_path, emb_path, json_path):
    """Report test-set perplexity for an LM checkpoint."""
    model = load_lm(ckpt_path).model
    if model.variant.topic_channel and emb_path is None:
        raise PoemLmError(f"{ckpt_path}: a {model.variant.name} LM reads "
                          f"topic vectors; give --embeddings")
    poems = _read_lm_poems(test_path)
    tokens = [t for p in poems for t in p.tokens()]
    if tokens:
        oov = sum(t not in model.vocab for t in tokens) / len(tokens)
        if oov > 0.5:
            raise PoemLmError(f"vocabulary mismatch: {oov:.0%} of corpus "
                              f"tokens are unknown to the checkpoint")
    # a topic-less LM's condition is zeros whatever the table holds
    table = (load_embeddings(emb_path, model.topic_dim)
             if model.variant.topic_channel else None)
    ppl = model.perplexity(poems, table)
    click.echo(f"{model.variant.name}\t{ppl:.3f}")
    payload = {"variant": model.variant.name, "perplexity": ppl,
               "n_poems": len(poems)}
    _write_json(json_path or ckpt_path + ".ppl.json", payload)


@main.command()
@click.argument("word")
@click.option("--lm", "lm_path", required=True)
@click.option("--rhymer", "rhymer_path", default=None,
              help="Rhymer checkpoint; needed and read only with rhyme "
                   "on.")
@click.option("--embeddings", "emb_path", required=True,
              help="Word-vector text file, as wide as the LM's topic "
                   "vectors.")
@click.option("--st/--no-st", default=None,
              help="First-word topic steering (default on).")
@click.option("--ac/--no-ac", default=None,
              help="Acrostic masking (default on).")
@click.option("--rh/--no-rh", default=None,
              help="Rhyme-scheme substitution (default on).")
@click.option("--tp/--no-tp", default=None,
              help="Topic conditioning (default on).")
@click.option("--json", "json_path", default=None)
@click.pass_obj
def generate(obj, word, lm_path, rhymer_path, emb_path, st, ac, rh, tp,
             json_path):
    """Generate an acrostic poem spelling WORD (4-8 letters).

    A flag left unset takes its value from the config file's `generate`
    section, else its default."""
    try:
        acrostic_word(word)
    except DecodeError as exc:
        raise click.BadParameter(str(exc), param_hint="WORD") from None
    cfg = _component_config(obj, "generate", GenerationConfig, "rng_seed",
                            st=st, ac=ac, rh=rh, tp=tp)
    if cfg.rh and not rhymer_path:
        raise click.UsageError("rhyme flag is on but no --rhymer was given; "
                               "give --rhymer or --no-rh")
    lm = load_lm(lm_path).model
    table = load_embeddings(emb_path, lm.topic_dim)
    rhymer = load_rhymer(rhymer_path) if cfg.rh else None
    result = generate_poem(word, cfg, ModelBundle(lm=lm, table=table,
                                                  rhymer=rhymer))
    click.echo(render_poem(result.poem))
    if json_path:
        _write_json(json_path, result.record(cfg))


# ---------------------------------------------------------------------------
# Gradient-check suite
# ---------------------------------------------------------------------------

def gradient_suite(n_seeds: int = 10, hidden: int = 4,
                   seq_len: int = 4) -> list[dict]:
    """Finite-difference checks of the three models' own `loss_and_grads`
    over every trainable array.

    Per seed: a two-layer LM, a rhymer and a topic classifier, each
    `hidden` wide, on seeded synthetic inputs: three 4-line poems of one
    or two tokens a line, under two topic labels, and three rhyme
    examples, all made of random lowercase strings up to seq_len letters
    long.  Returns one report per seed, keyed lm, rhymer and topics.
    """
    return [{"seed": seed, **_check_models(seed, hidden, seq_len)}
            for seed in range(n_seeds)]


def _check_models(seed, hidden, seq_len):
    rng = net.child_rng(seed, "gc", "data")
    dim = 3  # word vectors and the rhymer's char embeddings

    def word():
        return "".join(chr(97 + c) for c in rng.integers(
            0, 26, size=rng.integers(1, seq_len + 1)))

    pool = set()
    while len(pool) < 6:
        pool.add(word())
    pool = sorted(pool)
    labels = pool[:2]
    poems = [Poem(lines=[[pool[j] for j in rng.integers(len(pool), size=n)]
                         for n in rng.integers(1, 3, size=4)],
                  topic=labels[i % 2]) for i in range(3)]
    table = EmbeddingTable(dim, {w: rng.normal(size=dim) for w in pool})
    vocab = build_vocabulary(poems)
    emb = build_embedding_matrix(vocab, table)
    lm = PoemLM(vocab, LmConfig(n_layers=2, hidden=hidden, seed=seed), dim,
                emb, LmVariant.from_name("gold+"))
    rhymer = RhymerModel(RhymerConfig(
        word_hidden=hidden, poem_hidden=hidden, decoder_hidden=hidden,
        char_dim=dim, seed=seed))
    topics = TopicClassifier(vocab, labels,
                             TopicConfig(hidden=hidden, seed=seed), emb)
    return {
        "lm": _check_model(lm, next(lm.batches(poems, table, len(poems)))),
        "rhymer": _check_model(rhymer, [
            RhymeExample(a=word(), b=word(), c=word()) for _ in range(3)]),
        "topics": _check_model(topics, (poems, np.array(
            [topics.label_to_id[p.topic] for p in poems]))),
    }


def _check_model(model, batch):
    """`model.loss_and_grads(batch)` against finite differences of the
    mean loss of `model.target_loss(batch)`, the forward pass it runs."""
    def mean_loss():
        loss, wsum, _, _ = model.target_loss(batch)
        return loss / wsum

    _, _, grads = model.loss_and_grads(batch)
    return net.grad_check(mean_loss, model.store, grads,
                          max_entries_per_param=15)


def _finite_above_zero(ctx, param, value: float) -> float:
    if not (math.isfinite(value) and value > 0):
        raise click.BadParameter(f"must be a finite number above 0, "
                                 f"got {value}")
    return value


@main.command()
@click.option("--seeds", "n_seeds", type=click.IntRange(min=1), default=10)
@click.option("--tolerance", type=float, default=1e-4,
              callback=_finite_above_zero)
def gradcheck(n_seeds, tolerance):
    """Run the finite-difference gradient suite."""
    worst = 0.0
    for report in gradient_suite(n_seeds):
        errs = {k: v["max_rel_error"] for k, v in report.items()
                if isinstance(v, dict)}
        worst = max(worst, *errs.values())
        parts = "  ".join(f"{k}={v:.2e}" for k, v in errs.items())
        click.echo(f"seed {report['seed']}: {parts}")
    click.echo(f"max relative error {worst:.2e} "
               f"(tolerance {tolerance:.0e})")
    if worst > tolerance:
        raise NetError("gradient check failed")


if __name__ == "__main__":
    main()
