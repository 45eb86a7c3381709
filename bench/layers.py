"""What the traced run wraps, and the per-layer metrics it derives.

Each wrapped callable becomes a span named `<layer>.<what>`.  Names bound
with `from x import y` are wrapped in the module that looks them up
(`decode.knn_with_initial`, `decode.choose_rhyme`, `rhymer.lstm_step`,
`poemlm.softmax_xent_batch`, `poemlm.adam_update`,
`poemlm.clip_global_norm`); wrapping them at home would record nothing.
Flops are computed from tensor shapes (matmuls only), not counted by
hardware.
"""

from __future__ import annotations

import os
import statistics

from acropoet import corpus, decode, embed, net, poemlm, rhymer


def _lstm_forward_flops(args, result):
    layer, X = args[0], args[1]
    T, B, D = X.shape
    return 8.0 * T * B * layer.hidden * (D + layer.hidden)


def _lstm_backward_flops(args, result):
    layer, dH = args[0], args[1]
    T, B, H = dH.shape
    return 16.0 * T * B * H * (layer.in_dim + H)


def _linear_forward_flops(args, result):
    return 2.0 * args[1].size * result[0].shape[-1]


def _linear_backward_flops(args, result):
    dY, X = args[1], args[2]
    return 4.0 * X.size * dY.shape[-1]


def _file_bytes(args, result):
    return os.path.getsize(args[0])


def _in_vocab(args, result):
    candidates, _, vocab = args
    hits = sum(vocab.token_to_id.get(word, vocab.unk_id) != vocab.unk_id
               for word, _ in candidates)
    return (hits, len(candidates))


# (owner, attribute, span name, hook computing the span's work value)
WRAPS = [
    (decode, "generate_poem", "decode.generate_poem", None),
    (decode, "knn_with_initial", "embed.knn", None),
    (decode, "choose_rhyme", "rhymer.choose", _in_vocab),
    (rhymer.RhymerModel, "rhyme_candidates", "rhymer.candidates", None),
    (rhymer, "lstm_step", "net.lstm_step", None),
    (net, "lstm_step", "net.lstm_step", None),
    (poemlm.PoemLM, "step", "poemlm.step", None),
    (poemlm.PoemLM, "forward_batch", "poemlm.forward_batch", None),
    (poemlm.PoemLM, "backward_batch", "poemlm.backward_batch", None),
    (poemlm.PoemLM, "perplexity", "poemlm.perplexity", None),
    (poemlm, "softmax_xent_batch", "net.softmax_xent", None),
    (poemlm, "adam_update", "net.adam", None),
    (poemlm, "clip_global_norm", "net.clip", None),
    (net.LstmLayer, "forward", "net.lstm_forward", _lstm_forward_flops),
    (net.LstmLayer, "backward", "net.lstm_backward", _lstm_backward_flops),
    (net.Linear, "forward", "net.linear_forward", _linear_forward_flops),
    (net.Linear, "backward", "net.linear_backward", _linear_backward_flops),
    (net.ParameterStore, "zero_grads", "net.zero_grads", None),
    (net.EarlyStopper, "update", "net.early_stop", None),
    (net.EarlyStopper, "restore_best", "net.early_stop", None),
    (net, "save_checkpoint", "net.save_checkpoint", None),
    (net, "load_checkpoint", "net.load_checkpoint", _file_bytes),
    (embed, "load_embeddings", "embed.load", None),
    (corpus, "read_poems", "corpus.read", None),
    (corpus, "build_vocabulary", "corpus.build_vocabulary", None),
]
GENERATOR_WRAPS = [(poemlm.PoemLM, "batches", "poemlm.batches")]
SPAN_NAMES = ({name for _, _, name, _ in WRAPS}
              | {name for _, _, name in GENERATOR_WRAPS})

_GENERATE_SPANS = {
    "decode.generate_poem", "poemlm.step", "net.lstm_step", "embed.knn",
    "poemlm.perplexity", "poemlm.batches", "poemlm.forward_batch",
    "net.lstm_forward", "net.linear_forward", "net.softmax_xent",
    "embed.load", "net.load_checkpoint",
}
# Spans each workload must record; every other span must record nothing.
EXPECTED_SPANS = {
    "generate-rhyme": _GENERATE_SPANS | {"rhymer.candidates",
                                         "rhymer.choose"},
    "generate-plain": _GENERATE_SPANS,
    "train-lm": {
        "poemlm.forward_batch", "poemlm.backward_batch", "poemlm.batches",
        "poemlm.perplexity", "net.lstm_forward", "net.lstm_backward",
        "net.linear_forward", "net.linear_backward", "net.softmax_xent",
        "net.adam", "net.clip", "net.zero_grads", "net.early_stop",
        "net.save_checkpoint", "net.load_checkpoint", "embed.load",
        "corpus.read", "corpus.build_vocabulary",
    },
}

# name -> (unit, better); the order is the order printed
PER_LAYER = {
    "decode.self_s": ("s/op", "lower"),
    "decode.replayed_steps": ("count/op", "lower"),
    "decode.first_words": ("count/op", "lower"),
    "decode.knn_path_share": ("share", "higher"),
    "decode.rhymer_calls": ("count/op", "lower"),
    "decode.substitutions_per_rhymer_call": ("share", "higher"),
    "decode.tokens_per_line": ("tokens", "higher"),
    "decode.lines_capped_share": ("share", "lower"),
    "decode.warnings": ("count", "lower"),
    "poemlm.step_calls": ("count/op", "lower"),
    "poemlm.step_us_p50": ("us", "lower"),
    "poemlm.forward_batch_s": ("s/op", "lower"),
    "poemlm.backward_batch_s": ("s/op", "lower"),
    "poemlm.batches_s": ("s/op", "lower"),
    "poemlm.perplexity_s": ("s/op", "lower"),
    "poemlm.warnings": ("count", "lower"),
    "net.lstm_forward_s": ("s/op", "lower"),
    "net.lstm_backward_s": ("s/op", "lower"),
    "net.linear_forward_s": ("s/op", "lower"),
    "net.linear_backward_s": ("s/op", "lower"),
    "net.softmax_xent_s": ("s/op", "lower"),
    "net.adam_s": ("s/op", "lower"),
    "net.clip_s": ("s/op", "lower"),
    "net.zero_grads_s": ("s/op", "lower"),
    "net.early_stop_s": ("s/op", "lower"),
    "net.lstm_gflop_per_s": ("GFLOP/s", "higher"),
    "net.linear_gflop_per_s": ("GFLOP/s", "higher"),
    "net.lstm_step_calls": ("count/op", "lower"),
    "net.lstm_step_s": ("s/op", "lower"),
    "net.save_checkpoint_s": ("s", "lower"),
    "net.load_checkpoint_s": ("s", "lower"),
    "net.checkpoint_bytes": ("bytes", "lower"),
    "net.warnings": ("count", "lower"),
    "rhymer.candidates_calls": ("count/op", "lower"),
    "rhymer.candidates_ms_p50": ("ms", "lower"),
    "rhymer.decoder_steps": ("count/op", "lower"),
    "rhymer.choose_s": ("s/op", "lower"),
    "rhymer.candidates_scored": ("count/op", "lower"),
    "rhymer.in_vocab_share": ("share", "higher"),
    "rhymer.warnings": ("count", "lower"),
    "embed.knn_calls": ("count/op", "lower"),
    "embed.knn_ms_p50": ("ms", "lower"),
    "embed.load_s": ("s", "lower"),
    "embed.warnings": ("count", "lower"),
    "corpus.read_s": ("s", "lower"),
    "corpus.build_vocabulary_s": ("s", "lower"),
    "corpus.warnings": ("count", "lower"),
    "trace.op_ms_p50": ("ms", "lower"),
    "trace.tok_per_s": ("tokens/s", "higher"),
    "trace.overhead_share": ("share", "lower"),
    "trace.spans_per_op": ("count/op", "lower"),
}


def install(tracer) -> None:
    for owner, attr, name, hook in WRAPS:
        tracer.wrap(owner, attr, name, hook)
    for owner, attr, name in GENERATOR_WRAPS:
        tracer.wrap_generator(owner, attr, name)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans, ops: set, n_setup: int, mix: dict,
                  warnings: dict) -> dict:
    """Per-layer values from the spans of one traced run.

    Times and counts of the measured loop are per op (`ops` holds the op
    ids measured); loader times and checkpoint bytes are per set-up; the
    save time is per save.  `mix` carries the decoder's work-mix counts
    summed over the measured ops.
    """
    n_ops = len(ops)
    in_ops: dict[str, list] = {name: [] for name in SPAN_NAMES}
    in_setup: dict[str, list] = {name: [] for name in SPAN_NAMES}
    for span in spans:
        if span[4] in ops:
            in_ops[span[0]].append(span)
        elif span[4] == "setup":
            in_setup[span[0]].append(span)

    def dur(span):
        return span[2] - span[1]

    def per_op(name):
        return _ratio(sum(map(dur, in_ops[name])), n_ops)

    def calls(name):
        return _ratio(len(in_ops[name]), n_ops)

    def p50(name, scale):
        return _median([dur(s) * scale for s in in_ops[name]])

    def per_setup(name):
        return _ratio(sum(map(dur, in_setup[name])), n_setup)

    def gflop_rate(*names):
        chosen = [s for n in names for s in in_ops[n]]
        return _ratio(sum(s[5] for s in chosen),
                      sum(map(dur, chosen))) / 1e9

    def indices(name):
        return {i for i, s in enumerate(spans) if s[0] == name and s[4] in ops}

    poem_index = indices("decode.generate_poem")
    child_time = sum(dur(s) for s in spans if s[3] in poem_index)
    rhymer_index = indices("rhymer.candidates")
    decoder_steps = sum(1 for s in in_ops["net.lstm_step"]
                        if s[3] in rhymer_index)
    scored = [s[5] for s in in_ops["rhymer.choose"]]
    saves = [dur(s) for s in spans if s[0] == "net.save_checkpoint"]
    replayed = len(in_ops["poemlm.step"]) - mix["fed_tokens"]

    out = {
        "decode.self_s": _ratio(
            sum(map(dur, in_ops["decode.generate_poem"])) - child_time,
            n_ops),
        "decode.replayed_steps": _ratio(replayed, n_ops),
        "decode.first_words": _ratio(mix["lines"], n_ops),
        "decode.knn_path_share": _ratio(mix["knn_lines"], mix["lines"]),
        "decode.rhymer_calls": _ratio(mix["rhymer_calls"], n_ops),
        "decode.substitutions_per_rhymer_call": _ratio(
            mix["substitutions"], mix["rhymer_calls"]),
        "decode.tokens_per_line": _ratio(mix["tokens"], mix["lines"]),
        "decode.lines_capped_share": _ratio(mix["capped_lines"],
                                            mix["lines"]),
        "poemlm.step_calls": calls("poemlm.step"),
        "poemlm.step_us_p50": p50("poemlm.step", 1e6),
        "poemlm.forward_batch_s": per_op("poemlm.forward_batch"),
        "poemlm.backward_batch_s": per_op("poemlm.backward_batch"),
        "poemlm.batches_s": per_op("poemlm.batches"),
        "poemlm.perplexity_s": per_op("poemlm.perplexity"),
        "net.lstm_forward_s": per_op("net.lstm_forward"),
        "net.lstm_backward_s": per_op("net.lstm_backward"),
        "net.linear_forward_s": per_op("net.linear_forward"),
        "net.linear_backward_s": per_op("net.linear_backward"),
        "net.softmax_xent_s": per_op("net.softmax_xent"),
        "net.adam_s": per_op("net.adam"),
        "net.clip_s": per_op("net.clip"),
        "net.zero_grads_s": per_op("net.zero_grads"),
        "net.early_stop_s": per_op("net.early_stop"),
        "net.lstm_gflop_per_s": gflop_rate("net.lstm_forward",
                                           "net.lstm_backward"),
        "net.linear_gflop_per_s": gflop_rate("net.linear_forward",
                                             "net.linear_backward"),
        "net.lstm_step_calls": calls("net.lstm_step"),
        "net.lstm_step_s": per_op("net.lstm_step"),
        "net.save_checkpoint_s": _median(saves),
        "net.load_checkpoint_s": per_setup("net.load_checkpoint"),
        "net.checkpoint_bytes": _ratio(
            sum(s[5] for s in in_setup["net.load_checkpoint"]), n_setup),
        "rhymer.candidates_calls": calls("rhymer.candidates"),
        "rhymer.candidates_ms_p50": p50("rhymer.candidates", 1e3),
        "rhymer.decoder_steps": _ratio(decoder_steps, n_ops),
        "rhymer.choose_s": per_op("rhymer.choose"),
        "rhymer.candidates_scored": _ratio(sum(t for _, t in scored),
                                           n_ops),
        "rhymer.in_vocab_share": _ratio(sum(h for h, _ in scored),
                                        sum(t for _, t in scored)),
        "embed.knn_calls": calls("embed.knn"),
        "embed.knn_ms_p50": p50("embed.knn", 1e3),
        "embed.load_s": per_setup("embed.load"),
        "corpus.read_s": per_setup("corpus.read"),
        "corpus.build_vocabulary_s": per_setup("corpus.build_vocabulary"),
        "trace.spans_per_op": _ratio(sum(len(v) for v in in_ops.values()),
                                     n_ops),
    }
    for layer in ("decode", "poemlm", "net", "rhymer", "embed", "corpus"):
        out[f"{layer}.warnings"] = warnings.get(f"acropoet.{layer}", 0)
    return out


def coverage_failures(workload: str, spans, metrics: dict) -> list[str]:
    """Spans expected on this workload that recorded nothing, and the
    reverse; an empty list means the traced run saw what it should."""
    seen = {span[0] for span in spans}
    expected = EXPECTED_SPANS[workload]
    problems = [f"span {n} recorded no calls"
                for n in sorted(expected - seen)]
    problems += [f"span {n} recorded calls on {workload}"
                 for n in sorted((seen & SPAN_NAMES) - expected)]
    if workload == "generate-plain" and metrics["decode.replayed_steps"]:
        problems.append("decoder replayed steps with rhyme off")
    return problems
