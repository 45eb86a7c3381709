"""Pretrained word vectors: loading, cosine similarity, letter-filtered kNN.

The on-disk format is the common text release format: one entry per line,
token followed by `dim` decimals, single-space separated.
"""

from __future__ import annotations

import logging
import weakref

import numpy as np

from .corpus import Vocabulary, bad_utf8_message

log = logging.getLogger(__name__)


class EmbeddingError(ValueError):
    pass


class EmbeddingTable:
    """Read-only token -> vector map with cosine kNN queries."""

    def __init__(self, dim: int, vectors: dict[str, np.ndarray]):
        self.dim = dim
        self._vectors = vectors
        # vocabulary -> letter -> _LetterIndex, filled by knn_with_initial
        self._knn_index = weakref.WeakKeyDictionary()

    def __len__(self) -> int:
        return len(self._vectors)

    def __contains__(self, token: str) -> bool:
        return token.lower() in self._vectors

    def vector(self, token: str) -> np.ndarray:
        try:
            return self._vectors[token.lower()]
        except KeyError:
            raise EmbeddingError(f"token {token!r} not in embedding table")

    def tokens(self):
        return self._vectors.keys()


def load_embeddings(path, expected_dim: int) -> EmbeddingTable:
    """Parse a word-vector text file, failing hard on any malformed line."""
    vectors: dict[str, np.ndarray] = {}
    try:
        _read_vectors(path, expected_dim, vectors)
    except UnicodeDecodeError as exc:
        raise EmbeddingError(bad_utf8_message(path, exc)) from None
    log.info("loaded %d embeddings of dim %d from %s",
             len(vectors), expected_dim, path)
    return EmbeddingTable(dim=expected_dim, vectors=vectors)


def _read_vectors(path, expected_dim: int,
                  vectors: dict[str, np.ndarray]) -> None:
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(" ")
            if len(parts) != expected_dim + 1:
                raise EmbeddingError(
                    f"{path}:{lineno}: expected {expected_dim} values, "
                    f"got {len(parts) - 1}"
                )
            token = parts[0].lower()
            try:
                vec = np.array([float(x) for x in parts[1:]])
            except ValueError as exc:
                raise EmbeddingError(f"{path}:{lineno}: bad float ({exc})")
            if token in vectors:
                log.warning("duplicate embedding for %r at line %d, "
                            "keeping the later one", token, lineno)
            vec.setflags(write=False)
            vectors[token] = vec


def cosine(x: str, u: str, table: EmbeddingTable) -> float:
    """Cosine similarity between two tokens' vectors."""
    vx, vu = table.vector(x), table.vector(u)
    nx, nu = np.linalg.norm(vx), np.linalg.norm(vu)
    if nx == 0.0 or nu == 0.0:
        raise EmbeddingError(
            f"zero-norm vector for {x!r}" if nx == 0.0 else
            f"zero-norm vector for {u!r}"
        )
    return float(np.dot(vx, vu) / (nx * nu))


# The matvec and `cosine` differ by ~1e-15; any slack far above that keeps
# every exact top-k token in the shortlist.
SHORTLIST_SLACK = 1e-9


class _LetterIndex:
    """kNN candidates for one (table, vocabulary, letter).

    `tokens` are the vocabulary tokens with that initial and a nonzero
    vector, in vocabulary order; `unit` holds their row-normalised vectors,
    or is None when some row has no finite nonzero norm, so that only the
    exact scan reproduces what `cosine` does with it.
    """

    def __init__(self, table: EmbeddingTable, vocab: Vocabulary,
                 letter: str):
        self.tokens = [
            tok for tok in vocab.non_special_tokens()
            if tok.startswith(letter) and tok in table
            and np.any(table.vector(tok))
        ]
        self.unit = None
        if self.tokens:
            rows = np.array([table.vector(tok) for tok in self.tokens],
                            dtype=float)
            norms = np.linalg.norm(rows, axis=1)
            if np.all(np.isfinite(norms) & (norms > 0)):
                self.unit = rows / norms[:, None]

    def shortlist(self, topic_vec: np.ndarray, k: int) -> list[str]:
        """Candidates that can be in the exact top k: every token whose
        approximate cosine is within SHORTLIST_SLACK of the k-th best."""
        if self.unit is None or not 0 < k < len(self.tokens):
            return self.tokens
        norm = np.linalg.norm(topic_vec)
        if not (np.isfinite(norm) and norm > 0):
            return self.tokens
        approx = self.unit @ (topic_vec / norm)
        kth = np.partition(approx, -k)[-k]
        keep = np.flatnonzero(approx >= kth - SHORTLIST_SLACK)
        return [self.tokens[i] for i in keep]


def knn_with_initial(
    topic: str,
    letter: str,
    table: EmbeddingTable,
    restrict_to: Vocabulary,
    k: int = 5,
) -> list[str]:
    """Top-k vocabulary tokens starting with `letter`, by cosine to `topic`.

    Candidates are vocabulary tokens that also have an embedding (tokens
    without a vector cannot be scored).  Ties break lexicographically.
    A matvec over the letter's cached, row-normalised candidates picks a
    shortlist; `cosine` ranks it, so the order is exactly that of scoring
    every candidate with `cosine`.
    """
    if topic not in table:
        raise EmbeddingError(f"topic {topic!r} not in embedding table")
    by_letter = table._knn_index.setdefault(restrict_to, {})
    index = by_letter.get(letter)
    if index is None:
        index = by_letter[letter] = _LetterIndex(table, restrict_to, letter)
    scored = sorted((-cosine(tok, topic, table), tok)
                    for tok in index.shortlist(table.vector(topic), k))
    return [tok for _, tok in scored[:k]]
