"""A slow reference decoder, written for clarity, and the oracles the tests
share.

`reference_poem` states what `decode.generate_poem` computes with none of
the generator's shortcuts:

- every next-token distribution comes from re-feeding the whole prefix,
  from <bos>, through `PoemLM.step` on a fresh state (no per-token
  snapshots, no replay of a changed line tail);
- every sampling mask is built from its definition when it is needed;
- a topic neighbour is found by scanning the whole vocabulary for its
  candidates at every query (`knn_oracle`), not from a per-letter cache;
- the rhymer takes one decoder step per hypothesis on the full,
  unprojected decoder input and runs its beam to `MAX_WORD_LEN` with no
  stop (`run_to_max_len`);
- the rhymer's poem context is encoded from scratch at every rhyme slot.

It shares with the library only what none of those shortcuts touches:
the settings, the rhyme scheme, the RNG streams, `PoemLM.condition`,
`decode._sample_id` and `rhymer.choose_rhyme`.
"""

import numpy as np

from acropoet import rhymer as rhymer_module
from acropoet.corpus import BOS, EOL, EOS, PAD, SPECIALS, UNK, Poem
from acropoet.decode import GenerationResult, _sample_id, scheme_for
from acropoet.embed import EmbeddingError
from acropoet.net import CE_EPS, child_rng, lstm_step, pad_ids, softmax
from acropoet.poemlm import PoemLmError
from acropoet.rhymer import (
    BOS_ID, EOS_ID, MAX_WORD_LEN, PAD_ID, WORD_RE, RhymerModel, choose_rhyme,
    decode_chars,
)


# --- the poem LM --------------------------------------------------------------

def lm_forward(lm, prefix_ids, cond):
    """Next-token distribution after a prefix that starts with <bos>, from
    one full forward pass over the prefix."""
    if not prefix_ids or prefix_ids[0] != lm.vocab.bos_id:
        raise PoemLmError("prefix must start with BOS")
    ids = np.asarray(prefix_ids)[:, None]
    logits, _ = lm.forward_batch(ids, cond[None, :],
                                 positions=np.array([len(ids) - 1]))
    return softmax(logits[0])


def state_from_bos(lm, token_ids, cond):
    """The LM state and next-token probs after feeding token_ids one step
    at a time from a fresh state."""
    state, step_cond = lm.init_state(), lm.project_condition(cond)
    probs = None
    for tid in token_ids:
        probs = lm.step(state, tid, step_cond)
    return state, probs


# --- line boundaries ----------------------------------------------------------

def boundaries_oracle(tokens, target, cap):
    """A sampled token stream cut into exactly `target` lines: a marker or
    the cap ends a line, the last line ends the poem (a terminal "," or
    ";" becomes "."), and the rest of the stream is dropped."""
    lines = [[]]
    ended = False
    for tok in tokens:
        if ended:
            break
        if tok in (EOL, EOS):
            if len(lines) < target:
                lines.append([])
            else:
                ended = True
        else:
            lines[-1].append(tok)
            if len(lines[-1]) == cap:
                if len(lines) < target:
                    lines.append([])
                else:
                    ended = True
    out = []
    for i, line in enumerate(lines):
        out.extend(line)
        if i < len(lines) - 1:
            out.append(EOL)
    if ended:
        if out and out[-1] in (",", ";"):
            out[-1] = "."
        out.append(EOS)
    return out


# --- kNN ----------------------------------------------------------------------

def knn_oracle(topic, letter, table, vocab, k):
    """The k vocabulary tokens starting with `letter` nearest the topic:
    every one with a nonzero vector, gathered in token order and scored
    by one matvec, (matrix[rows] @ topic) / (norms[rows] * |topic|); ties
    break on the token."""
    topic_row = table.row(topic)
    if topic_row is None:
        raise EmbeddingError(f"topic {topic!r} not in embedding table")
    toks = sorted(tok for tok in vocab.non_special_tokens()
                  if tok.startswith(letter) and tok in table
                  and np.any(table.vector(tok)))
    if not toks:
        return []
    if table.norms[topic_row] == 0:
        raise EmbeddingError(f"zero-norm vector for {topic!r}")
    rows = [table.row(tok) for tok in toks]
    scores = (table.matrix[rows] @ table.matrix[topic_row]) / (
        table.norms[rows] * table.norms[topic_row])
    scored = sorted((-float(score), tok) for score, tok in zip(scores, toks))
    return [tok for _, tok in scored[:k]]


# --- beam search --------------------------------------------------------------

def exhaustive_oracle(logp, n_syms, eos_id, max_len, top):
    """The `top` best of every string over the symbols range(n_syms) other
    than eos_id, up to max_len long, as (symbol tuple, score), best first.
    logp(history) gives the log probs of the symbol after `history`; a
    string shorter than max_len ends with eos_id, whose log prob counts."""
    results = []

    def rec(prefix, score):
        if len(prefix) < max_len:
            row = logp(prefix)
            results.append((prefix, score + row[eos_id]))
            for sym in range(n_syms):
                if sym != eos_id:
                    rec(prefix + (sym,), score + row[sym])
        else:
            results.append((prefix, score))
    rec((), 0.0)
    results.sort(key=lambda e: (-e[1], e[0]))
    return results[:top]


def _one_at_a_time(step_fn):
    """`beam_search_rows`'s (step_rows, take_rows, state) for a step of one
    hypothesis at a time: step_fn(prev_symbol_or_None, state_or_None) ->
    (log-prob vector, state)."""
    def step_rows(prev, states):
        outs = [step_fn(sym, st) for sym, st in zip(prev, states)]
        return np.array([logp for logp, _ in outs]), [st for _, st in outs]

    return step_rows, lambda states, rows: [states[r] for r in rows], [None]


def beam_search(step_fn, eos_id, width, max_len):
    """`rhymer.beam_search_rows`, its stop included, driven one hypothesis
    at a time."""
    return rhymer_module.beam_search_rows(*_one_at_a_time(step_fn), eos_id,
                                          width, max_len)


def run_to_max_len(step_rows, take_rows, state, eos_id, width, max_len):
    """`beam_search_rows` without its stop (its top cut's tie rule
    included): steps until no hypothesis is live.  The reference for the
    stop's exactness."""
    beams = [(0.0, ())]
    completed = []
    for _ in range(max_len + 1):
        logp, state = step_rows([ids[-1] if ids else None
                                 for _, ids in beams], state)
        tops = np.argsort(-logp, axis=1, kind="stable")[
            :, :max(width + 1, 8)]
        expansions = []
        for row, (score, ids) in enumerate(beams):
            top = list(tops[row])
            if eos_id not in top:
                top.append(eos_id)
            for sym in top:
                s = float(logp[row, sym])
                if s == -np.inf:
                    continue
                expansions.append((score + s, ids + (int(sym),), row))
        expansions.sort(key=lambda e: (-e[0], e[1]))
        beams, rows = [], []
        for score, ids, row in expansions:
            if ids[-1] == eos_id:
                completed.append((score, ids[:-1]))
            elif len(ids) >= max_len:
                completed.append((score, ids))
            elif len(beams) < width:
                beams.append((score, ids))
                rows.append(row)
        if not beams:
            break
        state = take_rows(state, rows)
    completed.sort(key=lambda e: (-e[0], e[1]))
    return [(ids, score) for score, ids in completed]


# --- the rhymer ---------------------------------------------------------------

def rhyme_candidates(model, a, b, width):
    """`RhymerModel.rhyme_candidates` with no context: both encoders run
    from scratch, the decoder takes one step per hypothesis on its full,
    unprojected input, and the beam runs to MAX_WORD_LEN with no stop.
    Its sums of log probs may differ from the batched beam's in the last
    bits (~1e-15)."""
    a_enc, b_enc = model._encode_inputs(a, b)
    (a_ids, a_len), (b_ids, b_len) = (pad_ids([a_enc], PAD_ID),
                                      pad_ids([b_enc], PAD_ID))
    enc_a, _, enc_b, _ = model._encoders_forward(a_ids, a_len, b_ids, b_len)
    cond = np.concatenate([enc_a[0], enc_b[0]])
    Wx, Wh, bias = model.decoder.step_weights()
    W_out, b_out = model.store["rh.out.W"], model.store["rh.out.b"]
    H = model.cfg.decoder_hidden

    def step_fn(prev, state):
        h, c = state if state is not None else (np.zeros(H), np.zeros(H))
        x = np.concatenate(
            [model.char_emb[BOS_ID if prev is None else prev], cond])
        h, c = lstm_step(x, h, c, Wx, Wh, bias)
        logp = np.log(np.clip(softmax(h @ W_out + b_out), CE_EPS, None))
        logp[[PAD_ID, BOS_ID]] = -np.inf
        return logp, (h, c)

    hyps = run_to_max_len(*_one_at_a_time(step_fn), EOS_ID, width,
                          MAX_WORD_LEN)
    words = [(decode_chars(ids), score) for ids, score in hyps]
    return [(word, score) for word, score in words if word][:width]


# --- the decoder --------------------------------------------------------------

def _mask(vocab, allowed):
    return np.array([1.0 if allowed(tok) else 0.0
                     for tok in vocab.id_to_token])


def _last_word(line):
    """Index of the line's last word token, or None."""
    return max((i for i, tok in enumerate(line) if WORD_RE.fullmatch(tok)),
               default=None)


def reference_poem(word, cfg, lm, table, rhymer=None):
    """What `decode.generate_poem(word, cfg, ModelBundle(lm, table,
    rhymer))` computes, stated plainly.  Returns its GenerationResult;
    for each rhymer call, (word to rhyme with, context, candidates); and
    the next-token distribution of every token sampled, in order.  A
    `RhymerModel` is run through `rhyme_candidates`; any other rhymer
    through its own `rhyme_candidates(a, b, width=...)`."""
    word = word.lower()
    v = lm.vocab
    n_lines = len(word)
    scheme = scheme_for(n_lines)
    result = GenerationResult(poem=None, word=word, scheme=scheme,
                              seed=cfg.rng_seed)
    cond = lm.condition(word if cfg.tp else None, word, table)
    coin_rng = child_rng(cfg.rng_seed, "generate", word, "coin")
    sample_rng = child_rng(cfg.rng_seed, "generate", word, "sample")
    # a sampled token is never <pad>, <bos> or <unk>, and a line's first
    # token never ends the line or the poem
    any_token = lambda tok: tok not in (PAD, BOS, UNK)
    not_an_end = lambda tok: any_token(tok) and tok not in (EOL, EOS)
    lines = []
    rhymer_calls = []
    sampled_from = []

    def sample(probs, allowed):
        sampled_from.append(probs)
        return _sample_id(probs, _mask(v, allowed), sample_rng,
                          cfg.temperature)

    def probs_after(line):
        """Next-token probs after the finished lines and `line`, fed from
        <bos>; an out-of-vocabulary word is fed as <unk>."""
        ids = [v.bos_id]
        for done in lines:
            ids += v.encode(done) + [v.eol_id]
        return state_from_bos(lm, ids + v.encode(line), cond)[1]

    for line_no, letter in enumerate(word, 1):
        line = []
        probs = probs_after(line)
        path = "sample"
        if cfg.st and coin_rng.random() < cfg.m1:
            try:
                near = knn_oracle(word, letter, table, v, cfg.k)
            except EmbeddingError:  # the topic has no usable vector
                near = []
            if near:
                tid = v.token_to_id[max(near, key=lambda t: probs[
                    v.token_to_id[t]])]
                path = "knn"
        if path == "sample":
            tid = sample(probs, (lambda tok: tok not in SPECIALS
                                 and tok.startswith(letter))
                         if cfg.ac else not_an_end)
        result.first_word_paths.append(path)
        last_word_probs = probs
        while True:
            tok = v.id_to_token[tid]
            if tok in (EOL, EOS):
                break
            line.append(tok)
            if len(line) == cfg.max_tokens_per_line:
                break
            probs = probs_after(line)
            # a nearest-neighbour first word may not end the line alone
            tid = sample(probs, not_an_end if path == "knn"
                         and len(line) == 1 else any_token)
            if WORD_RE.fullmatch(v.id_to_token[tid]):
                last_word_probs = probs
        if line_no == n_lines and line[-1] in (",", ";"):
            line[-1] = "."
        lines.append(line)
        if not (cfg.rh and line_no in scheme.substitution_slots):
            continue

        partner = lines[scheme.partner(line_no) - 1]
        p, idx = _last_word(partner), _last_word(line)
        head = line if idx is None else line[:idx] + [""]
        text = "\n".join(" ".join(l) for l in lines[:-1] + [head])
        a = "" if p is None else partner[p]
        if isinstance(rhymer, RhymerModel):
            cands = rhyme_candidates(rhymer, a, text, cfg.beam_width)
        else:
            cands = rhymer.rhyme_candidates(a, text, width=cfg.beam_width)
        rhymer_calls.append((a, text, cands))
        result.rhymer_calls += 1
        cands = [c for c in cands if WORD_RE.fullmatch(c[0])]
        if idx is None or not cands:
            continue
        chosen = choose_rhyme(cands, last_word_probs, v)
        if chosen == line[idx] or (idx == 0 and cfg.ac
                                   and chosen[0] != letter):
            continue
        result.substitutions.append({"slot": line_no, "original": line[idx],
                                     "replacement": chosen})
        line[idx] = chosen

    result.poem = Poem(lines=lines, topic=word)
    return result, rhymer_calls, sampled_from
