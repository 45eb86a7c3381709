"""Command-line pipeline harness.

Commands: `prepare` (raw documents -> training poems), `train`
(lm / rhymer / topics), `label` (silver topic annotation), `eval-ppl`,
`generate`, and `gradcheck`.  Exit codes: 0 success, 1 runtime failure,
2 usage error.
"""

from __future__ import annotations

import json
import logging
import os
import re
import sys
from dataclasses import asdict

import click
import numpy as np

from . import net
from .corpus import (
    CorpusError, Poem, bad_utf8_message, line_count_histogram,
    read_documents, read_poems, split_into_training_poems, tokenize,
    write_poems,
)
from .decode import (
    DecodeError, GenerationConfig, ModelBundle, generate_poem, render_poem,
)
from .embed import EmbeddingError, load_embeddings
from .net import NetError
from .poemlm import (
    LmConfig, LmVariant, PoemLmError, load_lm, save_lm, train_variant,
)
from .rhymer import (
    RhymerConfig, RhymerError, RhymerModel, extract_rhyme_pairs,
    load_rhymer, save_rhymer, train_rhymer,
)
from .topics import (
    TopicConfig, TopicError, load_topics, save_topics, train_topic_model,
)

log = logging.getLogger(__name__)

PROFILES = ["paper_scale", "desk_scale"]
PIPELINE_ERRORS = (CorpusError, EmbeddingError, NetError, PoemLmError,
                   RhymerError, TopicError, DecodeError, OSError)


def _fail(message) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


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


def _section(obj: dict, name: str, cls) -> dict:
    """The config file's `name` section; every key must be a field of cls
    and every value of that field's type."""
    section = obj["file"].get(name, {})
    if not isinstance(section, dict):
        raise click.UsageError(f"config section {name!r} is not an object")
    problem = net.field_problem(section, cls)
    if problem:
        raise click.UsageError(f"{problem} in config section {name!r}")
    return dict(section)


def _component_config(obj: dict, name: str, cls, flag_overrides=None):
    """Profile defaults < config-file section < CLI flags."""
    base = cls() if obj["profile"] == "paper_scale" else cls.desk_scale()
    vals = asdict(base)
    vals.update(_section(obj, name, cls))
    for key, value in (flag_overrides or {}).items():
        if value is not None:
            vals[key] = value
    vals["seed"] = obj["seed"]
    return cls(**vals)


@click.group()
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
@click.option("--input", "input_path", required=True,
              type=click.Path(dir_okay=False))
@click.option("--output", "output_path", required=True)
def prepare(input_path, output_path):
    """Split raw documents (JSONL) into 4-8 line training poems."""
    try:
        docs = read_documents(input_path)
        poems: list[Poem] = []
        for doc in docs:
            poems.extend(split_into_training_poems(doc))
        write_poems(_outpath(output_path), poems)
        if not poems:
            log.warning("no usable poems in %s; wrote an empty corpus",
                        input_path)
        click.echo("lines  poems")
        for n, count in sorted(line_count_histogram(poems).items()):
            click.echo(f"{n:>5}  {count:>5}")
        click.echo(f"total  {len(poems):>5}")
    except PIPELINE_ERRORS as exc:
        _fail(exc)


def _read_pretrain(path: str) -> list[list[str]]:
    try:
        with open(path, encoding="utf-8") as fh:
            sentences = [tokenize(line) for line in fh if line.strip()]
    except UnicodeDecodeError as exc:
        raise CorpusError(bad_utf8_message(path, exc)) from None
    return [s for s in sentences if s]


@main.command()
@click.argument("model", type=click.Choice(["lm", "rhymer", "topics"]))
@click.option("--variant", type=click.Choice(list(LmVariant.NAMES)),
              default="gold+",
              help="LM training regime (ignored for rhymer/topics).")
@click.option("--train", "train_path", required=True,
              help="Training corpus (poem JSONL; document JSONL for the "
                   "rhymer).")
@click.option("--dev", "dev_path", required=True)
@click.option("--embeddings", "emb_path", default=None,
              help="Word-vector text file (required for lm and topics).")
@click.option("--dim", type=int, default=100,
              help="Dimension of the embedding file.")
@click.option("--silver", "silver_path", default=None,
              help="Silver-labeled poems for the pred/gold variants.")
@click.option("--pretrain", "pretrain_path", default=None,
              help="Plain-text file (one sentence per line) for the wiki "
                   "variants.")
@click.option("--out", "out_path", required=True,
              help="Checkpoint path; a JSON training log is written "
                   "alongside.")
@click.pass_obj
def train(obj, model, variant, train_path, dev_path, emb_path, dim,
          silver_path, pretrain_path, out_path):
    """Train one model and write its checkpoint plus a JSON log."""
    threads = net.blas_threads()
    log.info("BLAS reports %s thread(s); large products and softmaxes may "
             "use %d row block(s)", "unknown" if threads is None else threads,
             net.max_row_blocks())
    try:
        out = _outpath(out_path)
        if model != "rhymer":
            if emb_path is None:
                _fail(f"training {model} needs --embeddings")
            table = load_embeddings(emb_path, dim)
        if model == "lm":
            lm_variant = LmVariant.from_name(variant)
            gold_train = read_poems(train_path)
            gold_dev = read_poems(dev_path)
            silver = read_poems(silver_path) if silver_path else []
            pretrain = (_read_pretrain(pretrain_path)
                        if pretrain_path else None)
            cfg = _component_config(obj, "lm", LmConfig)
            trained = train_variant(lm_variant, gold_train, gold_dev,
                                    silver, pretrain, table, cfg)
            save_lm(out, trained)
            history = trained.history
        elif model == "rhymer":
            train_ex = extract_rhyme_pairs(read_documents(train_path))
            dev_ex = extract_rhyme_pairs(read_documents(dev_path))
            cfg = _component_config(obj, "rhymer", RhymerConfig)
            rhymer = RhymerModel(cfg)
            history = train_rhymer(rhymer, train_ex, dev_ex)
            save_rhymer(out, rhymer, history)
        else:
            cfg = _component_config(obj, "topics", TopicConfig)
            classifier, history = train_topic_model(
                read_poems(train_path), read_poems(dev_path), table, cfg)
            save_topics(out, classifier, history)
        _write_json(out + ".json", {
            "model": model,
            "variant": variant if model == "lm" else None,
            "profile": obj["profile"],
            "seed": obj["seed"],
            "config": asdict(cfg),
            "history": history,
        })
        click.echo(f"wrote {out}")
    except PIPELINE_ERRORS as exc:
        _fail(exc)


@main.command()
@click.option("--checkpoint", "ckpt_path", required=True)
@click.option("--input", "input_path", required=True)
@click.option("--output", "output_path", required=True)
def label(ckpt_path, input_path, output_path):
    """Attach silver topic labels to an unlabeled poem corpus."""
    try:
        classifier = load_topics(ckpt_path)
        poems = read_poems(input_path)
        write_poems(_outpath(output_path), classifier.label_corpus(poems))
        click.echo(f"labeled {len(poems)} poems")
    except PIPELINE_ERRORS as exc:
        _fail(exc)


@main.command("eval-ppl")
@click.option("--checkpoint", "ckpt_path", required=True)
@click.option("--test", "test_path", required=True)
@click.option("--embeddings", "emb_path", default=None)
@click.option("--dim", type=int, default=100)
@click.option("--json", "json_path", default=None)
def eval_ppl(ckpt_path, test_path, emb_path, dim, json_path):
    """Report test-set perplexity for an LM checkpoint."""
    try:
        trained = load_lm(ckpt_path)
        model = trained.model
        poems = read_poems(test_path)
        tokens = [t for p in poems for t in p.tokens()]
        if tokens:
            oov = sum(t not in model.vocab for t in tokens) / len(tokens)
            if oov > 0.5:
                _fail(f"vocabulary mismatch: {oov:.0%} of corpus tokens "
                      f"are unknown to the checkpoint")
        table = load_embeddings(emb_path, dim) if emb_path else None
        ppl = model.perplexity(poems, table)
        click.echo(f"{model.variant.name}\t{ppl:.3f}")
        payload = {"variant": model.variant.name, "perplexity": ppl,
                   "n_poems": len(poems)}
        _write_json(json_path or ckpt_path + ".ppl.json", payload)
    except PIPELINE_ERRORS as exc:
        _fail(exc)


@main.command()
@click.argument("word")
@click.option("--lm", "lm_path", required=True)
@click.option("--rhymer", "rhymer_path", default=None)
@click.option("--embeddings", "emb_path", required=True)
@click.option("--dim", type=int, default=100)
@click.option("--st/--no-st", default=True, help="First-word topic steering.")
@click.option("--ac/--no-ac", default=True, help="Acrostic masking.")
@click.option("--rh/--no-rh", "--rhyme/--no-rhyme", default=True,
              help="Rhyme-scheme substitution.")
@click.option("--tp/--no-tp", default=True, help="Topic conditioning.")
@click.option("--json", "json_path", default=None)
@click.pass_obj
def generate(obj, word, lm_path, rhymer_path, emb_path, dim, st, ac, rh,
             tp, json_path):
    """Generate an acrostic poem spelling WORD (4-8 letters)."""
    if not re.fullmatch(r"[a-zA-Z]{4,8}", word):
        raise click.BadParameter(
            f"word must be 4-8 letters a-z, got {word!r}", param_hint="WORD")
    try:
        table = load_embeddings(emb_path, dim)
        trained = load_lm(lm_path)
        rhymer = load_rhymer(rhymer_path) if rhymer_path else None
        gen_section = _section(obj, "generate", GenerationConfig)
        gen_section.update({"st": st, "ac": ac, "rh": rh, "tp": tp,
                            "rng_seed": obj["seed"]})
        cfg = GenerationConfig(**gen_section)
        models = ModelBundle(lm=trained.model, table=table, rhymer=rhymer)
        result = generate_poem(word, cfg, models)
        click.echo(render_poem(result.poem))
        if json_path:
            _write_json(json_path, result.record(cfg))
    except PIPELINE_ERRORS as exc:
        _fail(exc)


# ---------------------------------------------------------------------------
# Gradient-check suite
# ---------------------------------------------------------------------------

def gradient_suite(n_seeds: int = 10, hidden: int = 4,
                   seq_len: int = 4) -> list[dict]:
    """Finite-difference checks over the recurrent building blocks.

    Per seed: a unidirectional LSTM chain with a linear head and weighted
    cross-entropy, a bidirectional encoder with variable lengths, and the
    masked-softmax cross-entropy head.  Returns one report per seed.
    """
    return [{
        "seed": seed,
        "lstm_chain": _check_lstm_chain(seed, hidden, seq_len),
        "bi_encoder": _check_bi_encoder(seed, hidden, seq_len),
        "masked_softmax": _check_masked_softmax(seed),
    } for seed in range(n_seeds)]


def _check_lstm_chain(seed, hidden, seq_len):
    rng = net.child_rng(seed, "gc", "uni")
    store = net.ParameterStore()
    in_dim, n_out, B = 3, 6, 2
    layer = net.LstmLayer(store, "l0", in_dim, hidden, rng)
    head = net.Linear(store, "out", hidden, n_out, rng)
    X = rng.normal(size=(seq_len, B, in_dim))
    targets = rng.integers(0, n_out, size=seq_len * B)
    weights = rng.random(seq_len * B)

    def loss_and_grads():
        Hs, cache = layer.forward(X)
        logits, head_cache = head.forward(Hs.reshape(-1, hidden))
        loss, dlogits, wsum = net.softmax_xent_batch(logits, targets,
                                                     weights)
        grads = store.zero_grads()
        dH = head.backward(dlogits / wsum, head_cache, grads)
        layer.backward(dH.reshape(seq_len, B, hidden), cache, grads)
        return loss / wsum, grads

    _, grads = loss_and_grads()
    return net.grad_check(lambda: loss_and_grads()[0], store, grads,
                          max_entries_per_param=15)


def _check_bi_encoder(seed, hidden, seq_len):
    rng = net.child_rng(seed, "gc", "bi")
    store = net.ParameterStore()
    in_dim, n_out, B = 3, 4, 3
    enc = net.BiLstmEncoder(store, "enc", in_dim, hidden, rng)
    head = net.Linear(store, "out", 2 * hidden, n_out, rng)
    X = rng.normal(size=(seq_len, B, in_dim))
    lengths = rng.integers(1, seq_len + 1, size=B)
    lengths[0] = seq_len
    targets = rng.integers(0, n_out, size=B)
    weights = np.ones(B)

    def loss_and_grads():
        encoded, cache = enc.forward(X, lengths)
        logits, head_cache = head.forward(encoded)
        loss, dlogits, wsum = net.softmax_xent_batch(logits, targets,
                                                     weights)
        grads = store.zero_grads()
        d_enc = head.backward(dlogits / wsum, head_cache, grads)
        enc.backward(d_enc, cache, grads)
        return loss / wsum, grads

    _, grads = loss_and_grads()
    return net.grad_check(lambda: loss_and_grads()[0], store, grads,
                          max_entries_per_param=15)


def _check_masked_softmax(seed):
    rng = net.child_rng(seed, "gc", "mask")
    store = net.ParameterStore()
    in_dim, n_out = 3, 7
    head = net.Linear(store, "out", in_dim, n_out, rng)
    x = rng.normal(size=(1, in_dim))
    mask = (rng.random(n_out) < 0.6).astype(float)
    mask[rng.integers(0, n_out)] = 1.0
    allowed = np.flatnonzero(mask)
    target = int(allowed[rng.integers(0, len(allowed))])

    def loss_and_grads():
        logits, cache = head.forward(x)
        probs = net.softmax_masked(logits[0], mask)
        loss = net.cross_entropy(probs, target)
        dlogits = probs.copy()
        dlogits[target] -= 1.0
        dlogits *= mask  # masked entries get no gradient
        grads = store.zero_grads()
        head.backward(dlogits[None, :], cache, grads)
        return loss, grads

    _, grads = loss_and_grads()
    return net.grad_check(lambda: loss_and_grads()[0], store, grads,
                          max_entries_per_param=15)


@main.command()
@click.option("--seeds", "n_seeds", type=int, default=10)
@click.option("--tolerance", type=float, default=1e-4)
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
        _fail("gradient check failed")


if __name__ == "__main__":
    main()
