"""Constrained acrostic generation.

Drives the poem language model token by token while enforcing the
acrostic initials, the target line count (end-of-sentence and end-of-line
markers are interconverted so the poem always has exactly as many lines
as the word has letters), first-word topic steering, and rhyme-scheme
substitution through the character-level rhyming model.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass, field

import numpy as np

from . import net
from .corpus import EOL, EOS, AcrosticSpec, Poem, Vocabulary, detokenize
from .embed import EmbeddingError, EmbeddingTable, knn_with_initial
from .poemlm import PoemLM
from .rhymer import WORD_RE, RhymerModel, choose_rhyme

log = logging.getLogger(__name__)

SCHEMES = {4: "ABAB", 5: "ABABC", 6: "ABABCC", 7: "ABABCDC", 8: "ABABCDCD"}


class DecodeError(ValueError):
    pass


@dataclass(frozen=True)
class RhymeScheme:
    letters: str

    @property
    def substitution_slots(self) -> set[int]:
        """1-indexed lines holding the second occurrence of their letter."""
        slots = set()
        for i, ch in enumerate(self.letters):
            if self.letters.index(ch) == i and ch in self.letters[i + 1:]:
                slots.add(self.letters.index(ch, i + 1) + 1)
        return slots

    def partner(self, slot: int) -> int:
        """1-indexed line of the first occurrence of the slot's letter."""
        return self.letters.index(self.letters[slot - 1]) + 1


def scheme_for(n_lines: int) -> RhymeScheme:
    if n_lines not in SCHEMES:
        raise DecodeError(f"no rhyme scheme for {n_lines} lines "
                          f"(supported: 4-8)")
    return RhymeScheme(SCHEMES[n_lines])


def _is_finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


@dataclass
class GenerationConfig:
    k: int = 5
    m1: float = 0.7
    m2: float = 0.3
    beam_width: int = 5
    st: bool = True
    ac: bool = True
    rh: bool = True
    tp: bool = True
    rng_seed: int = 0
    max_tokens_per_line: int = 15
    temperature: float = 1.0

    def __post_init__(self):
        for name in ("m1", "m2", "temperature"):
            if not _is_finite(getattr(self, name)):
                raise DecodeError(f"{name} must be a finite number")
        if abs(self.m1 + self.m2 - 1.0) > 1e-9:
            raise DecodeError("m1 + m2 must equal 1")
        if not self.st:
            # the no-steering ablation is defined as m1=0, m2=1
            self.m1, self.m2 = 0.0, 1.0
        if self.max_tokens_per_line < 1:
            raise DecodeError("max_tokens_per_line must be positive")
        if not self.temperature > 0:
            raise DecodeError("temperature must be positive")


@dataclass
class ModelBundle:
    lm: PoemLM
    table: EmbeddingTable
    rhymer: RhymerModel | None = None


@dataclass
class GenerationResult:
    poem: Poem
    word: str
    scheme: RhymeScheme
    seed: int
    rhymer_calls: int = 0
    first_word_paths: list[str] = field(default_factory=list)
    substitutions: list[dict] = field(default_factory=list)

    def record(self, cfg: GenerationConfig) -> dict:
        return {
            "word": self.word,
            "flags": {"st": cfg.st, "ac": cfg.ac, "rh": cfg.rh,
                      "tp": cfg.tp},
            "seed": self.seed,
            "scheme": self.scheme.letters,
            "lines": self.poem.lines,
            "first_word_paths": self.first_word_paths,
            "rhyme_slots_filled": self.substitutions,
        }


# ---------------------------------------------------------------------------
# Boundary forcing
# ---------------------------------------------------------------------------

class _LineRule:
    """Closes the lines of a token stream fed one token at a time: at a
    marker or at the token cap, and the poem after `target_lines` lines."""

    def __init__(self, target_lines: int, max_tokens_per_line: int):
        self.lines_left = target_lines
        self.cap = max_tokens_per_line
        self.in_line = 0

    def push(self, tok: str, out: list[str]) -> str | None:
        """Append tok to out unless it is a marker; return the marker that
        closes the line (EOL, or EOS at the poem's end, which turns a
        terminal "," or ";" of out into "."), or None."""
        if tok not in (EOL, EOS):
            out.append(tok)
            self.in_line += 1
            if self.in_line < self.cap:
                return None
        self.in_line = 0
        self.lines_left -= 1
        if self.lines_left > 0:
            return EOL
        if out and out[-1] in (",", ";"):
            out[-1] = "."
        return EOS


def force_line_boundaries(tokens: list[str], target_lines: int,
                          max_tokens_per_line: int = 15) -> list[str]:
    """Rewrite a sampled token stream so it has exactly `target_lines` lines.

    An end-of-poem marker before the last line becomes end-of-line; an
    end-of-line marker on the last line becomes end-of-poem and truncates
    the stream.  Lines hitting the token cap get a forced boundary.  A
    terminal "," or ";" is rewritten to ".".
    """
    rule = _LineRule(target_lines, max_tokens_per_line)
    out: list[str] = []
    for tok in tokens:
        end = rule.push(tok, out)
        if end is not None:
            out.append(end)
        if end == EOS:
            break
    return out


# ---------------------------------------------------------------------------
# First-word policy
# ---------------------------------------------------------------------------

def _sampling_masks(vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray]:
    """(base, first): every token but <pad>, <bos> and <unk>; and base
    without the line and poem boundaries, which never start a line."""
    base = np.ones(len(vocab))
    base[[vocab.pad_id, vocab.bos_id, vocab.unk_id]] = 0.0
    first = base.copy()
    first[[vocab.eol_id, vocab.eos_id]] = 0.0
    return base, first


def _initial_mask(vocab: Vocabulary, letter: str) -> np.ndarray:
    """Mask of the tokens that start with `letter`; DecodeError when none
    does or the letter is not alphabetic."""
    ids = vocab.by_initial.get(letter) if letter.isalpha() else None
    if ids is None:
        raise DecodeError(f"no vocabulary token starts with {letter!r}")
    mask = np.zeros(len(vocab))
    mask[ids] = 1.0
    return mask


def _sample_id(probs: np.ndarray, mask: np.ndarray,
               rng: np.random.Generator, temperature: float) -> int:
    p = probs * mask
    if temperature != 1.0:
        # in log space, relative to the most likely allowed token, so that
        # a low temperature cannot underflow every allowed token to zero
        with np.errstate(divide="ignore"):
            logp = np.log(p)
        top = logp.max()
        if top > -np.inf:
            p = np.exp((logp - top) / temperature)
    total = p.sum()
    if total <= 0:
        raise DecodeError("sampling mask excludes every token")
    cdf = np.cumsum(p / total)
    return int(min(np.searchsorted(cdf, rng.random(), side="right"),
                   len(p) - 1))


def first_word(letter: str, topic: str, probs: np.ndarray,
               cfg: GenerationConfig, lm: PoemLM, table: EmbeddingTable,
               coin_rng: np.random.Generator,
               sample_rng: np.random.Generator) -> tuple[int, str]:
    """Pick a line's first token; returns (token id, "knn" or "sample").

    With probability m1 the token is the topic's nearest in-vocabulary
    neighbor with the right initial that the LM likes best; otherwise it
    is sampled from the LM restricted to tokens with that initial (or the
    full vocabulary when the acrostic constraint is off).
    """
    v = lm.vocab
    use_knn = cfg.st and coin_rng.random() < cfg.m1
    if use_knn:
        try:
            cands = knn_with_initial(topic, letter, table, v, k=cfg.k)
        except EmbeddingError:
            cands = []
        if cands:
            best = max(cands, key=lambda c: probs[v.token_to_id[c]])
            return v.token_to_id[best], "knn"
    mask = _initial_mask(v, letter) if cfg.ac else _sampling_masks(v)[1]
    return _sample_id(probs, mask, sample_rng, cfg.temperature), "sample"


# ---------------------------------------------------------------------------
# Poem generation
# ---------------------------------------------------------------------------

class _LmCursor:
    """The LM state over the poem fed so far, with the next-token probs.

    Keeps the state from before each token of the current line, so that
    a rhyme substitution re-feeds the tail of its own line only.  The
    poem's condition is projected once, when the cursor is made.
    """

    def __init__(self, lm: PoemLM, cond: np.ndarray):
        self.lm, self.cond = lm, lm.project_condition(cond)
        self.state = lm.init_state()
        self.before: list[list] = []
        self.probs = lm.step(self.state, lm.vocab.bos_id, self.cond)

    def feed(self, tid: int) -> None:
        # step replaces the per-layer (h, c) tuples and never writes into
        # them, so a shallow copy of the state list is a full snapshot
        self.before.append(list(self.state))
        self.probs = self.lm.step(self.state, tid, self.cond)

    def end_line(self, line: list[str], changed_from: int | None) -> None:
        """Feed <eol> after `line`; when line[changed_from:] differs from
        what was fed, first re-feed it from the snapshot before it."""
        v = self.lm.vocab
        if changed_from is not None:
            self.state = self.before[changed_from]
            # an out-of-vocabulary replacement is fed as <unk>
            for tid in v.encode(line[changed_from:]):
                self.probs = self.lm.step(self.state, tid, self.cond)
        self.before = []
        self.probs = self.lm.step(self.state, v.eol_id, self.cond)


def _last_word_index(line: list[str]) -> int | None:
    """Index of the line's last word token (rhymer.WORD_RE), or None."""
    return next((i for i in range(len(line) - 1, -1, -1)
                 if WORD_RE.fullmatch(line[i])), None)


def _apply_rhyme(models: ModelBundle, result: GenerationResult,
                 lines: list[list[str]], slot: int,
                 last_word_dist: np.ndarray | None,
                 cfg: GenerationConfig) -> int | None:
    """Substitute the slot line's last word; returns its index in the
    line if it changed, else None."""
    partner = lines[result.scheme.partner(slot) - 1]
    p = _last_word_index(partner)
    line = lines[slot - 1]
    idx = _last_word_index(line)
    # context: the poem so far, up to right before the word being replaced
    head = " ".join(line) if idx is None else " ".join(line[:idx] + [""])
    text = "\n".join([" ".join(l) for l in lines[:slot - 1]] + [head])
    cands = models.rhymer.rhyme_candidates(
        "" if p is None else partner[p], text, width=cfg.beam_width)
    result.rhymer_calls += 1
    cands = [cand for cand in cands if WORD_RE.fullmatch(cand[0])]
    if idx is None or not cands:
        return None
    original = line[idx]
    if last_word_dist is not None:
        chosen = choose_rhyme(cands, last_word_dist, models.lm.vocab)
    else:
        chosen = cands[0][0]
    if chosen == original:
        return None
    if idx == 0 and cfg.ac and chosen[:1] != result.word[slot - 1]:
        # never let a rhyme swap break the acrostic initial
        return None
    line[idx] = chosen
    result.substitutions.append({"slot": slot, "original": original,
                                 "replacement": chosen})
    return idx


def generate_poem(word: str, cfg: GenerationConfig,
                  models: ModelBundle) -> GenerationResult:
    word = word.lower()
    if not re.fullmatch(r"[a-z]{4,8}", word):
        raise DecodeError(
            f"acrostic word must be 4-8 letters a-z, got {word!r}")
    if models.lm is None or models.table is None:
        raise DecodeError("generation needs a language model and embeddings")
    if cfg.rh and models.rhymer is None:
        raise DecodeError("rhyme flag is on but no rhymer model was given")
    lm, table = models.lm, models.table
    v = lm.vocab
    n_lines = len(word)
    result = GenerationResult(poem=None, word=word,
                              scheme=scheme_for(n_lines), seed=cfg.rng_seed)
    slots = result.scheme.substitution_slots

    topic_vec = lm.topic_vector(word if cfg.tp else None, table)
    if cfg.tp and lm.variant.topic_channel and not topic_vec.any():
        log.warning("topic word %r has no embedding; topic channel zeroed",
                    word)
    # the acrostic block is fed as conditioning even when masking is off
    cond = lm.condition_vector(topic_vec, AcrosticSpec.from_word(word)
                               .onehot_block(), n_lines)

    coin_rng = net.child_rng(cfg.rng_seed, "generate", word, "coin")
    sample_rng = net.child_rng(cfg.rng_seed, "generate", word, "sample")

    lm_cursor = _LmCursor(lm, cond)
    base, first = _sampling_masks(v)
    rule = _LineRule(n_lines, cfg.max_tokens_per_line)
    lines: list[list[str]] = []

    for line_no in range(1, n_lines + 1):
        line: list[str] = []
        probs = lm_cursor.probs
        tid, path = first_word(word[line_no - 1], word, probs, cfg, lm,
                               table, coin_rng, sample_rng)
        result.first_word_paths.append(path)
        last_word_dist = probs.copy()
        # a nearest-neighbor first word may not end the line alone
        mask = first if path == "knn" else base
        while True:
            end = rule.push(v.id_to_token[tid], line)
            if tid not in (v.eol_id, v.eos_id):
                lm_cursor.feed(tid)
            if end is not None:
                break
            probs = lm_cursor.probs
            tid = _sample_id(probs, mask, sample_rng, cfg.temperature)
            mask = base
            if WORD_RE.fullmatch(v.id_to_token[tid]):
                last_word_dist = probs.copy()

        lines.append(line)
        changed_from = None
        if cfg.rh and line_no in slots:
            changed_from = _apply_rhyme(models, result, lines, line_no,
                                        last_word_dist, cfg)
        if end == EOL:
            lm_cursor.end_line(line, changed_from)

    result.poem = Poem(lines=lines, topic=word)
    return result


def render_poem(poem: Poem) -> str:
    """Display form: detokenized lines, initials uppercased."""
    shown = []
    for line in poem.lines:
        text = detokenize(line)
        shown.append(text[:1].upper() + text[1:])
    return "\n".join(shown)
