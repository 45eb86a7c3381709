"""Character-level rhyming-word generator.

The word to rhyme with is encoded by a bidirectional char LSTM (the two
final states concatenated), the poem so far by a unidirectional char LSTM;
a char decoder conditioned on both produces the rhyming word, decoded with
beam search.  Training data comes from 14-line sonnets via the fixed
Shakespearean scheme ABAB CDCD EFEF GG.
"""

from __future__ import annotations

import heapq
import logging
import re
import string
from dataclasses import dataclass, field

import numpy as np

from . import net
from .corpus import RawDocument, Vocabulary
from .net import (
    BiLstmEncoder, Linear, LstmLayer, ParameterStore, adam_update,
    clip_global_norm, final_steps, init_uniform, length_mask, lstm_step,
    pad_ids, softmax, softmax_xent_batch, xent_grad,
)

log = logging.getLogger(__name__)

PAD_CH = "\x00"
BOS_CH = "\x02"
EOS_CH = "\x03"
CHARSET = ([PAD_CH, BOS_CH, EOS_CH]
           + list(string.ascii_lowercase) + list(string.digits)
           + list(string.punctuation) + [" ", "\n"])
CHAR_TO_ID = {c: i for i, c in enumerate(CHARSET)}
PAD_ID, BOS_ID, EOS_ID = 0, 1, 2

SONNET_LINES = 14
SONNET_SCHEME = "ABABCDCDEFEFGG"
MAX_WORD_LEN = 20

WORD_RE = re.compile(r"[a-z]+(?:'[a-z]+)*")
_CHUNK_RE = re.compile(r"\S+")


class RhymerError(ValueError):
    pass


def encode_chars(text: str) -> list[int]:
    """Lowercase and map to char ids, dropping anything outside the charset."""
    return [CHAR_TO_ID[c] for c in text.lower() if c in CHAR_TO_ID]


def decode_chars(ids) -> str:
    return "".join(CHARSET[i] for i in ids if i > EOS_ID)


@dataclass
class RhymeExample:
    a: str  # word to rhyme with
    b: str  # poem text up to the slot
    c: str  # target rhyming word

    def __post_init__(self):
        if not self.a or not self.c:
            raise RhymerError("rhyme words must be non-empty")


def _last_word(line: str):
    """Last alphabetic word of a line with its start offset, or None.

    Surrounding punctuation is stripped; chunks that are not purely
    alphabetic (apostrophes allowed) do not count as rhyme words.
    """
    for chunk in reversed(list(_CHUNK_RE.finditer(line.lower()))):
        text = chunk.group()
        core = text.strip(string.punctuation.replace("'", "") + "'")
        if core and WORD_RE.fullmatch(core):
            return core, chunk.start() + text.index(core)
    return None


def extract_rhyme_pairs(sonnets: list[RawDocument]) -> list[RhymeExample]:
    """One example per rhyme pair of the Shakespearean scheme (7 per sonnet)."""
    pairs_by_letter: dict[str, list[int]] = {}
    for idx, letter in enumerate(SONNET_SCHEME):
        pairs_by_letter.setdefault(letter, []).append(idx)
    examples = []
    for doc in sonnets:
        lines = [l.lower() for l in doc.lines if l.strip()]
        if len(lines) != SONNET_LINES:
            log.warning("skipping document with %d lines (need %d)",
                        len(lines), SONNET_LINES)
            continue
        for letter in sorted(pairs_by_letter):
            i, j = pairs_by_letter[letter]
            wi, wj = _last_word(lines[i]), _last_word(lines[j])
            if wi is None or wj is None:
                log.warning("no rhyme word on line %d or %d, skipping pair",
                            i + 1, j + 1)
                continue
            prefix = "\n".join(lines[:j + 1])
            # offset of line j's last word within the joined text
            offset = sum(len(l) + 1 for l in lines[:j]) + wj[1]
            examples.append(RhymeExample(a=wi[0], b=prefix[:offset],
                                         c=wj[0]))
    return examples


@dataclass
class RhymerConfig:
    word_hidden: int = 256
    poem_hidden: int = 512
    decoder_hidden: int = 512
    char_dim: int = 32
    lr: float = 0.0005
    batch_size: int = 64
    patience: int = 25
    max_epochs: int = 100
    max_context_chars: int = 400
    seed: int = 0

    def __post_init__(self):
        # max_context_chars: a cut of [-0:] would keep the whole poem, not
        # none of it
        problem = net.config_problem(self, (
            "word_hidden", "poem_hidden", "decoder_hidden", "char_dim",
            "batch_size", "max_context_chars"))
        if problem:
            raise RhymerError(problem)

    @classmethod
    def desk_scale(cls, **overrides) -> "RhymerConfig":
        base = dict(word_hidden=16, poem_hidden=24, decoder_hidden=24,
                    char_dim=8, lr=0.005, batch_size=16, patience=10,
                    max_epochs=60)
        base.update(overrides)
        return cls(**base)


@dataclass
class PoemContext:
    """One poem's rhymer context between its rhyme slots: the char ids
    the poem encoder has read and its final (h, c) after them.  Made per
    poem and per model; it keeps no reference to the model."""

    ids: list[int] = field(default_factory=list)
    state: tuple[np.ndarray, np.ndarray] | None = None


class RhymerModel:
    """`params`, if given, are the arrays to build from (a checkpoint's)."""

    def __init__(self, cfg: RhymerConfig,
                 params: dict[str, np.ndarray] | None = None):
        self.cfg = cfg
        self.store = ParameterStore(params)
        rng = net.child_rng(cfg.seed, "rhymer", "init")
        C = len(CHARSET)
        self.char_emb = self.store.new(
            "rh.chars", (C, cfg.char_dim), lambda shape: init_uniform(
                rng, shape))
        self.word_enc = BiLstmEncoder(self.store, "rh.word", cfg.char_dim,
                                      cfg.word_hidden, rng)
        self.poem_enc = LstmLayer(self.store, "rh.poem", cfg.char_dim,
                                  cfg.poem_hidden, rng)
        self.cond_dim = 2 * cfg.word_hidden + cfg.poem_hidden
        self.decoder = LstmLayer(self.store, "rh.dec",
                                 cfg.char_dim + self.cond_dim,
                                 cfg.decoder_hidden, rng)
        self.out = Linear(self.store, "rh.out", cfg.decoder_hidden, C, rng)

    # -- batching ------------------------------------------------------------

    def _encode_inputs(self, a: str, b: str):
        """Char ids of the word to rhyme with and of the last
        max_context_chars of the poem so far; [EOS_ID] for an empty one."""
        return (encode_chars(a) or [EOS_ID],
                encode_chars(b)[-self.cfg.max_context_chars:] or [EOS_ID])

    def _encode_batch(self, examples: list[RhymeExample]):
        a_seqs, b_seqs = zip(*(self._encode_inputs(ex.a, ex.b)
                               for ex in examples))
        dec_in = [[BOS_ID] + encode_chars(ex.c) for ex in examples]
        dec_tgt = [encode_chars(ex.c) + [EOS_ID] for ex in examples]
        return (pad_ids(a_seqs, PAD_ID), pad_ids(b_seqs, PAD_ID),
                pad_ids(dec_in, PAD_ID), pad_ids(dec_tgt, PAD_ID))

    # -- forward / backward ---------------------------------------------------

    def _encoders_forward(self, a_ids, a_len, b_ids, b_len):
        Xa = self.char_emb[a_ids]
        enc_a, cache_a = self.word_enc.forward(Xa, a_len)
        Hb, cache_b = self.poem_enc.forward(self.char_emb[b_ids])
        return enc_a, cache_a, Hb[final_steps(b_len)], cache_b

    def forward_batch(self, batch):
        (a_ids, a_len), (b_ids, b_len), (in_ids, in_len), _ = batch
        enc_a, cache_a, enc_b, cache_b = self._encoders_forward(
            a_ids, a_len, b_ids, b_len)
        Hd, cache_d = self.decoder.forward(
            self.char_emb[in_ids], const=np.concatenate([enc_a, enc_b], 1))
        logits, cache_o = self.out.forward(Hd)
        return logits, (cache_a, cache_b, cache_d, cache_o, a_ids,
                        (b_ids, b_len), in_ids)

    def backward_batch(self, dlogits, caches, grads):
        (cache_a, cache_b, cache_d, cache_o, a_ids, (b_ids, b_len),
         in_ids) = caches
        E = self.cfg.char_dim
        Hw2 = 2 * self.cfg.word_hidden
        dHd = self.out.backward(dlogits, cache_o, grads)
        dX, d_cond = self.decoder.backward(dHd, cache_d, grads)
        np.add.at(grads["rh.chars"], in_ids.reshape(-1), dX.reshape(-1, E))
        d_enc_a, d_enc_b = d_cond[:, :Hw2], d_cond[:, Hw2:]
        dXa = self.word_enc.backward(d_enc_a, cache_a, grads)
        np.add.at(grads["rh.chars"], a_ids.reshape(-1),
                  dXa.reshape(-1, E))
        Tb, B = b_ids.shape
        dHb = np.zeros((Tb, B, self.cfg.poem_hidden))
        dHb[final_steps(b_len)] = d_enc_b
        dXb, _ = self.poem_enc.backward(dHb, cache_b, grads)
        np.add.at(grads["rh.chars"], b_ids.reshape(-1),
                  dXb.reshape(-1, E))

    def target_loss(self, examples: list[RhymeExample]):
        """Decoder forward pass and its summed cross-entropy.

        Returns (loss, target count, caches for backward_batch, xent):
        xent is the softmax shaped like the logits, and the targets and
        weights flattened, which `xent_grad(*xent, count)` turns into the
        mean loss's dlogits.
        """
        batch = self._encode_batch(examples)
        logits, caches = self.forward_batch(batch)
        (_, _), (_, _), (in_ids, in_len), (tgt_ids, _) = batch
        weights = length_mask(in_len, len(in_ids)).reshape(-1)
        targets = tgt_ids.reshape(-1)
        loss, probs, wsum = softmax_xent_batch(
            logits.reshape(-1, logits.shape[-1]), targets, weights)
        return loss, wsum, caches, (probs.reshape(logits.shape), targets,
                                    weights)

    def loss_and_grads(self, examples: list[RhymeExample]):
        """(summed loss, target count, gradients of the mean loss)."""
        loss, wsum, caches, xent = self.target_loss(examples)
        grads = self.store.zero_grads()
        self.backward_batch(xent_grad(*xent, wsum), caches, grads)
        return loss, wsum, grads

    def per_char_nll(self, examples: list[RhymeExample]) -> float:
        total, count = 0.0, 0.0
        for i in range(0, len(examples), self.cfg.batch_size):
            loss, wsum, _, _ = self.target_loss(
                examples[i:i + self.cfg.batch_size])
            total += loss
            count += wsum
        return total / max(count, 1.0)

    # -- beam search ----------------------------------------------------------

    def _encode_context(self, ids: list[int], context: PoemContext):
        """The poem encoder's final h over `ids`, run only over what
        follows the ids `context` encoded last when those are a prefix;
        `context` then holds `ids` and the final state."""
        n = len(context.ids)
        if 0 < n <= len(ids) and ids[:n] == context.ids:
            ids_new, state = ids[n:], context.state
        else:
            ids_new, state = ids, None
        X = self.char_emb[np.array(ids_new, dtype=int)[:, None]]
        _, (_, _, Hs, Cs, _) = self.poem_enc.forward(X, state=state)
        context.ids, context.state = ids, (Hs[-1].copy(), Cs[-1].copy())
        return Hs[-1, 0]

    def rhyme_candidates(self, a: str, b: str, width: int = 5,
                         context: PoemContext | None = None
                         ) -> list[tuple[str, float]]:
        """Beam-search the decoder; candidates sorted by log prob descending.

        `context` (None: a fresh one) carries the poem encoder's run over
        `b` to the poem's next call, which reads only the chars that
        follow when its `b` extends this one.
        The encodings are the decoder's constant input, so they are
        projected into its bias once per call; each beam step then runs
        all live hypotheses as one batch.
        """
        a_enc, b_enc = self._encode_inputs(a, b)
        a_ids, a_len = pad_ids([a_enc], PAD_ID)
        enc_a, _ = self.word_enc.forward(self.char_emb[a_ids], a_len)
        enc_b = self._encode_context(
            b_enc, PoemContext() if context is None else context)
        Wx, Wh, bias = self.decoder.step_weights(
            np.concatenate([enc_a[0], enc_b]))
        W_out = self.store["rh.out.W"]
        b_out = self.store["rh.out.b"]
        H = self.cfg.decoder_hidden

        def step_rows(prev, state):
            syms = [BOS_ID if sym is None else sym for sym in prev]
            h, c = lstm_step(self.char_emb[syms], *state, Wx, Wh, bias)
            logp = np.log(np.clip(softmax(h @ W_out + b_out),
                                  net.CE_EPS, None))
            logp[:, [PAD_ID, BOS_ID]] = -np.inf
            return logp, (h, c)

        hyps = beam_search_rows(
            step_rows, lambda state, rows: (state[0][rows], state[1][rows]),
            (np.zeros((1, H)), np.zeros((1, H))), eos_id=EOS_ID,
            width=width, max_len=MAX_WORD_LEN)
        # completed id tuples are distinct and hold no PAD, BOS or EOS, so
        # their words are distinct too; and since PAD and BOS are the only
        # -inf symbols, some non-empty hypothesis always completes
        out = []
        for ids, score in hyps:
            word = decode_chars(ids)
            if word:
                out.append((word, float(score)))
            if len(out) == width:
                break
        return out


def beam_search_rows(step_rows, take_rows, state, eos_id: int, width: int,
                     max_len: int) -> list[tuple[tuple, float]]:
    """Length-completed beam search that steps all live hypotheses at once.

    step_rows(prev_symbols, state) -> ((n, S) log-prob rows, new state)
    advances the n live hypotheses, whose last symbols are prev_symbols
    (None for the empty one); `state` starts as the one empty
    hypothesis's, and take_rows(new_state, rows) keeps the given rows of
    a step's state for the hypotheses that extend them.  Each hypothesis
    is expanded by its top max(width + 1, 8) symbols plus eos_id, ties at
    the cut going to the smaller symbol; -inf expansions are skipped.  A
    hypothesis completes when it emits eos_id (eos log prob included in
    its score) or when it reaches max_len symbols.

    The search stops once `width` completed non-empty hypotheses each
    score strictly above the best live one.  The rows must be log
    probabilities (every entry <= 0), so a score never rises as a
    hypothesis grows: no later completion can reach those `width`, and
    the stop is exact (Huang, Zhao & Ma 2017, arXiv 1709.07122).

    Returns the hypotheses completed by then as (symbol tuple, score),
    best first; score ties break on the symbol tuple for determinism.
    Its first `width` entries, and its first `width` non-empty ones, are
    those of a search run until no hypothesis is live.
    """
    if width < 1:
        raise RhymerError("beam width must be >= 1")
    if max_len < 1:
        raise RhymerError("beam max_len must be >= 1")
    beams: list[tuple[float, tuple]] = [(0.0, ())]
    completed: list[tuple[float, tuple]] = []
    # min-heap of the `width` best scores of completed non-empty hypotheses
    best_done: list[float] = []
    for _ in range(max_len):
        logp, state = step_rows([ids[-1] if ids else None
                                 for _, ids in beams], state)
        tops = np.argsort(-logp, axis=1, kind="stable")[
            :, :max(width + 1, 8)]
        expansions = []
        for row, (score, ids) in enumerate(beams):
            top = list(tops[row])
            if eos_id not in top:
                top.append(eos_id)  # a completion must always be considered
            for sym in top:
                s = float(logp[row, sym])
                if s == -np.inf:
                    continue
                expansions.append((score + s, ids + (int(sym),), row))
        expansions.sort(key=lambda e: (-e[0], e[1]))
        beams, rows = [], []
        for score, ids, row in expansions:
            if ids[-1] == eos_id:
                ids = ids[:-1]
            elif len(ids) < max_len:
                if len(beams) < width:
                    beams.append((score, ids))
                    rows.append(row)
                continue
            completed.append((score, ids))
            if ids and len(best_done) < width:
                heapq.heappush(best_done, score)
            elif ids:
                heapq.heappushpop(best_done, score)
        if not beams or (len(best_done) == width
                         and best_done[0] > beams[0][0]):
            break
        state = take_rows(state, rows)
    completed.sort(key=lambda e: (-e[0], e[1]))
    return [(ids, score) for score, ids in completed]


def choose_rhyme(candidates: list[tuple[str, float]], lm_dist: np.ndarray,
                 vocab: Vocabulary) -> str:
    """Pick the candidate the language model likes best at the slot.

    Candidates are (word, rhymer log score) in rhymer order; ties on LM
    probability fall back to that order.  If no candidate is in the LM
    vocabulary, the rhymer's top candidate wins.
    """
    if not candidates:
        raise RhymerError("no rhyme candidates")
    best_word, best_p = None, -1.0
    for word, _score in candidates:
        tid = vocab.token_to_id.get(word)
        if tid is None or tid == vocab.unk_id:
            continue
        p = float(lm_dist[tid])
        if p > best_p:
            best_word, best_p = word, p
    if best_word is None:
        log.warning("all rhyme candidates out of LM vocabulary; "
                    "keeping rhymer top choice %r", candidates[0][0])
        return candidates[0][0]
    return best_word


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def train_rhymer(model: RhymerModel, train_ex: list[RhymeExample],
                 dev_ex: list[RhymeExample]) -> list[dict]:
    if not train_ex or not dev_ex:
        raise RhymerError("empty rhymer training or dev set")
    cfg = model.cfg
    rng = net.child_rng(cfg.seed, "rhymer", "train")
    order = np.arange(len(train_ex))  # shuffled in place every epoch

    def run_epoch():
        rng.shuffle(order)
        total, count = 0.0, 0.0
        for i in range(0, len(order), cfg.batch_size):
            chunk = [train_ex[j] for j in order[i:i + cfg.batch_size]]
            loss, wsum, grads = model.loss_and_grads(chunk)
            clip_global_norm(grads)
            adam_update(model.store, grads, lr=cfg.lr)
            total += loss
            count += wsum
        return {"train_nll": total / max(count, 1.0)}

    def evaluate():
        dev = model.per_char_nll(dev_ex)
        return dev, {"dev_nll": dev}

    return net.fit(model.store, run_epoch, evaluate, cfg.patience,
                   cfg.max_epochs, "rhymer")


def save_rhymer(path, model: RhymerModel, history: list[dict]) -> None:
    net.save_model(path, "rhymer", model, history=history)


def load_rhymer(path) -> RhymerModel:
    return net.load_model(
        path, "rhymer", RhymerConfig,
        lambda cfg, meta, arrays: RhymerModel(cfg, params=arrays))[0]
