"""Corpus ingestion: tokenization, poem splitting, vocabulary, acrostic blocks.

Raw documents come in as JSONL, one document per line:
    {"lines": ["...", ...], "topic": "love", "source": "known_topic"}
Tokenized poems are written back out as JSONL with token lists per line.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

SOURCE_TAGS = ("known_topic", "unknown_topic", "sonnet", "plain_text")

MIN_LINES = 4
MAX_LINES = 8

PAD = "<pad>"
BOS = "<bos>"
EOS = "<eos>"
EOL = "<eol>"
UNK = "<unk>"
SPECIALS = (PAD, BOS, EOS, EOL, UNK)

# One-hot letter block geometry: 26 letters + 1 pad column, 8 rows.
N_LETTER_ROWS = 8
N_LETTER_COLS = 27
PAD_COL = 26


class CorpusError(ValueError):
    pass


@dataclass
class RawDocument:
    lines: list[str]
    source_tag: str = "plain_text"
    topic: Optional[str] = None

    def __post_init__(self):
        if self.source_tag not in SOURCE_TAGS:
            raise CorpusError(f"unknown source tag {self.source_tag!r}")
        if (self.topic is not None) != (self.source_tag == "known_topic"):
            raise CorpusError(
                "topic must be present exactly for known_topic documents"
            )


@dataclass
class Poem:
    lines: list[list[str]]
    topic: Optional[str] = None
    topic_confidence: Optional[float] = None

    @property
    def n_lines(self) -> int:
        return len(self.lines)

    def tokens(self) -> list[str]:
        out = []
        for line in self.lines:
            out.extend(line)
        return out


# ---------------------------------------------------------------------------
# Tokenization
# ---------------------------------------------------------------------------

# Treebank-style subset: lowercase, split "n't" and common apostrophe
# contractions off the preceding word, isolate punctuation characters.
_CONTR_NT = re.compile(r"(?<=[a-z])n't\b")
_CONTR_SUFFIX = re.compile(r"(?<=[a-z])'(s|ll|re|ve|d|m)\b")
_CHUNK = re.compile(r"n't|'(?:s|ll|re|ve|d|m)\b|[a-z0-9]+|[^a-z0-9\s]")


def tokenize(text: str) -> list[str]:
    """Split a line of raw text into lowercase Treebank-style tokens."""
    text = text.lower()
    text = _CONTR_NT.sub(" n't", text)
    text = _CONTR_SUFFIX.sub(r" '\1", text)
    return _CHUNK.findall(text)


def detokenize(tokens: Iterable[str]) -> str:
    """Join tokens back into display text, re-attaching punctuation."""
    out = ""
    for tok in tokens:
        if not out:
            out = tok
        elif re.fullmatch(r"[^a-z0-9]+", tok) and tok not in ("(", "[", "‘"):
            out += tok
        elif tok in ("n't", "'s", "'ll", "'re", "'ve", "'d", "'m"):
            out += tok
        else:
            out += " " + tok
    return out


# ---------------------------------------------------------------------------
# Splitting long documents into 4-8 line training poems
# ---------------------------------------------------------------------------

def _stanzas(lines: list[str]) -> list[list[str]]:
    """Split raw lines on empty (whitespace-only) lines."""
    groups: list[list[str]] = []
    cur: list[str] = []
    for line in lines:
        if line.strip():
            cur.append(line)
        elif cur:
            groups.append(cur)
            cur = []
    if cur:
        groups.append(cur)
    return groups


def split_into_training_poems(doc: RawDocument) -> list[Poem]:
    """Break a document into 4-8 line poems.

    Stanzas (empty-line separated) within bounds are kept whole.  Over-long
    stanzas contribute every prefix that ends on a line ending in "." and
    falls within bounds; under-long stanzas are dropped.
    """
    poems: list[Poem] = []
    for stanza in _stanzas(doc.lines):
        tok_lines = [t for t in (tokenize(l) for l in stanza) if t]
        n = len(tok_lines)
        if n < MIN_LINES:
            continue
        if n <= MAX_LINES:
            poems.append(Poem(lines=tok_lines, topic=doc.topic))
            continue
        for k in range(MIN_LINES, MAX_LINES + 1):
            if tok_lines[k - 1][-1] == ".":
                poems.append(Poem(lines=tok_lines[:k], topic=doc.topic))
    return poems


# ---------------------------------------------------------------------------
# Vocabulary
# ---------------------------------------------------------------------------

class Vocabulary:
    """Dense token<->id map with reserved special tokens."""

    def __init__(self, tokens: Iterable[str]):
        self.id_to_token: list[str] = list(SPECIALS) + list(tokens)
        self.token_to_id: dict[str, int] = {
            t: i for i, t in enumerate(self.id_to_token)
        }
        if len(self.token_to_id) != len(self.id_to_token):
            raise CorpusError("duplicate token in vocabulary")
        if "" in self.token_to_id:
            raise CorpusError("empty token in vocabulary")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    @property
    def pad_id(self) -> int:
        return self.token_to_id[PAD]

    @property
    def bos_id(self) -> int:
        return self.token_to_id[BOS]

    @property
    def eos_id(self) -> int:
        return self.token_to_id[EOS]

    @property
    def eol_id(self) -> int:
        return self.token_to_id[EOL]

    @property
    def unk_id(self) -> int:
        return self.token_to_id[UNK]

    def encode(self, tokens: Iterable[str]) -> list[int]:
        unk = self.unk_id
        return [self.token_to_id.get(t, unk) for t in tokens]

    def encode_poem(self, poem: Poem) -> list[int]:
        """<bos> line <eol> line ... <eol> line <eos>, as ids."""
        ids = [self.bos_id]
        for i, line in enumerate(poem.lines):
            ids.extend(self.encode(line))
            if i < poem.n_lines - 1:
                ids.append(self.eol_id)
        ids.append(self.eos_id)
        return ids

    def decode(self, ids: Iterable[int]) -> list[str]:
        return [self.id_to_token[i] for i in ids]

    def non_special_tokens(self) -> list[str]:
        return self.id_to_token[len(SPECIALS):]

    @functools.cached_property
    def by_initial(self) -> Mapping[str, np.ndarray]:
        """The non-special token ids by first character, each part in
        vocabulary order; read-only, built on first use."""
        parts: dict[str, list[int]] = {}
        for tid, tok in enumerate(self.non_special_tokens(), len(SPECIALS)):
            parts.setdefault(tok[0], []).append(tid)
        arrays = {ch: np.array(ids) for ch, ids in parts.items()}
        for ids in arrays.values():
            ids.setflags(write=False)
        return MappingProxyType(arrays)


def build_vocabulary(poems: Iterable[Poem], max_size: int = 50000) -> Vocabulary:
    """Keep the max_size most frequent tokens; ties go to the smaller token."""
    counts: Counter[str] = Counter()
    for poem in poems:
        counts.update(poem.tokens())
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return Vocabulary(tok for tok, _ in ranked[:max_size])


# ---------------------------------------------------------------------------
# Acrostic conditioning targets
# ---------------------------------------------------------------------------

def acrostic_block(initials: Sequence[Optional[str]]) -> np.ndarray:
    """The 8x27 one-hot block of per-line required initials: row i marks
    initials[i]'s letter, or the pad column where it is None and past the
    last line."""
    if not 1 <= len(initials) <= N_LETTER_ROWS:
        raise CorpusError(f"need 1..{N_LETTER_ROWS} letters, "
                          f"got {len(initials)}")
    block = np.zeros((N_LETTER_ROWS, N_LETTER_COLS))
    block[len(initials):, PAD_COL] = 1.0
    for i, l in enumerate(initials):
        if l is None:
            block[i, PAD_COL] = 1.0
        elif re.fullmatch(r"[a-z]", l):
            block[i, ord(l) - ord("a")] = 1.0
        else:
            raise CorpusError(f"bad acrostic letter {l!r}")
    return block


def line_count_problem(poem: Poem) -> Optional[str]:
    """Why the LM cannot take `poem`, whose acrostic condition has one row
    per line, or None when it has 4-8 lines."""
    if not MIN_LINES <= poem.n_lines <= MAX_LINES:
        return f"poem has {poem.n_lines} lines, need {MIN_LINES}-{MAX_LINES}"
    return None


def poem_initials(poem: Poem) -> list[Optional[str]]:
    """The acrostic a poem's lines spell, its training target: each line's
    a-z initial, or None where the first token has none."""
    problem = line_count_problem(poem)
    if problem:
        raise CorpusError(problem)
    letters: list[Optional[str]] = []
    for line in poem.lines:
        first = line[0][0] if line and line[0] else ""
        letters.append(first if "a" <= first <= "z" else None)
    return letters


# ---------------------------------------------------------------------------
# JSONL I/O
# ---------------------------------------------------------------------------

def bad_utf8_message(path, exc: UnicodeDecodeError) -> str:
    """"path:line: not valid UTF-8 (reason)" for a text file whose reading
    raised exc, with the line of the first byte that is not UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
        line = 0
    except UnicodeDecodeError as first:
        line = data.count(b"\n", 0, first.start) + 1
    return f"{path}:{line}: not valid UTF-8 ({exc.reason})"


def _records(path):
    """("path:line", object) for each non-blank line of a JSONL file;
    CorpusError for bytes that are not UTF-8, malformed JSON, or a line
    that is not a JSON object."""
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                if not raw.strip():
                    continue
                where = f"{path}:{lineno}"
                try:
                    rec = json.loads(raw)
                except (ValueError, RecursionError) as exc:
                    # ValueError: bad JSON or an int of too many digits
                    raise CorpusError(f"{where}: malformed JSON ({exc})")
                if not isinstance(rec, dict):
                    raise CorpusError(f"{where}: not a JSON object")
                yield where, rec
    except UnicodeDecodeError as exc:
        raise CorpusError(bad_utf8_message(path, exc)) from None


def _field(rec: dict, key: str, ok, want: str, where: str, default=None):
    """rec[key] (default when absent); CorpusError unless ok(value)."""
    value = rec.get(key, default)
    if not ok(value):
        raise CorpusError(f"{where}: {key!r} must be {want}")
    return value


def _is_strs(value) -> bool:
    return type(value) is list and all(type(s) is str for s in value)


def _is_opt_str(value) -> bool:
    return value is None or type(value) is str


def read_documents(path) -> list[RawDocument]:
    docs = []
    for where, rec in _records(path):
        lines = _field(rec, "lines", _is_strs, "a list of strings", where)
        tag = _field(rec, "source", lambda v: type(v) is str, "a string",
                     where, "plain_text")
        topic = _field(rec, "topic", _is_opt_str, "a string", where)
        try:
            docs.append(RawDocument(lines=lines, source_tag=tag,
                                    topic=topic))
        except CorpusError as exc:
            raise CorpusError(f"{where}: {exc}") from None
    return docs


def write_poems(path, poems: Iterable[Poem]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for poem in poems:
            rec: dict = {"lines": poem.lines}
            if poem.topic is not None:
                rec["topic"] = poem.topic
            if poem.topic_confidence is not None:
                rec["topic_confidence"] = poem.topic_confidence
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def read_poems(path) -> list[Poem]:
    poems = []
    for where, rec in _records(path):
        lines = _field(rec, "lines",
                       lambda v: type(v) is list and all(map(_is_strs, v)),
                       "a list of token lists", where)
        if any("" in line for line in lines):
            raise CorpusError(f"{where}: 'lines' holds an empty token")
        poems.append(Poem(
            lines=lines,
            topic=_field(rec, "topic", _is_opt_str, "a string", where),
            topic_confidence=_field(
                rec, "topic_confidence",
                lambda v: v is None or type(v) in (int, float), "a number",
                where)))
    return poems


def check_poems(path, poems: list[Poem],
                problem: Callable[[Poem], Optional[str]]) -> None:
    """CorpusError "path:line: message" for the first of `poems`, as
    `read_poems(path)` returned them, for which problem(poem) gives a
    message rather than None."""
    for i, poem in enumerate(poems):
        message = problem(poem)
        if message:
            where, _ = next(itertools.islice(_records(path), i, None))
            raise CorpusError(f"{where}: {message}")


def line_count_histogram(poems: Iterable[Poem]) -> dict[int, int]:
    hist = {n: 0 for n in range(MIN_LINES, MAX_LINES + 1)}
    for poem in poems:
        hist[poem.n_lines] = hist.get(poem.n_lines, 0) + 1
    return hist
