"""Pretrained word vectors: loading, cosine similarity, letter-filtered kNN.

The on-disk format is the common text release format: one entry per line,
token followed by `dim` decimals, single-space separated.
"""

from __future__ import annotations

import logging

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


def _shortlist(tokens: list[str], rows: np.ndarray, topic_vec: np.ndarray,
               k: int) -> list[str]:
    """The tokens that can be in the exact top k by cosine to topic_vec,
    given their vectors as rows: every one whose matvec cosine is within
    SHORTLIST_SLACK of the k-th best.  All of them when some norm is zero
    or not finite, so that only the exact scan reproduces what `cosine`
    does with it."""
    if not 0 < k < len(tokens):
        return tokens
    norm = np.linalg.norm(topic_vec)
    norms = np.linalg.norm(rows, axis=1)
    if not (np.isfinite(norm) and norm > 0
            and np.all(np.isfinite(norms) & (norms > 0))):
        return tokens
    approx = (rows @ (topic_vec / norm)) / norms
    kth = np.partition(approx, -k)[-k]
    keep = np.flatnonzero(approx >= kth - SHORTLIST_SLACK)
    return [tokens[i] for i in keep]


def knn_with_initial(
    topic: str,
    letter: str,
    table: EmbeddingTable,
    restrict_to: Vocabulary,
    k: int = 5,
) -> list[str]:
    """Top-k vocabulary tokens starting with `letter`, by cosine to `topic`.

    Candidates are the vocabulary's tokens with that initial that have a
    nonzero vector in the table (tokens without one cannot be scored).
    Ties break lexicographically.  One matvec over the candidates picks a
    shortlist; `cosine` ranks it, so the order is exactly that of scoring
    every candidate with `cosine`.
    """
    if topic not in table:
        raise EmbeddingError(f"topic {topic!r} not in embedding table")
    ids = restrict_to.by_initial.get(letter)
    found = [] if ids is None else [
        (tok, vec) for tok in restrict_to.decode(ids.tolist())
        if (vec := table._vectors.get(tok.lower())) is not None]
    if not found:
        return []
    tokens, vecs = zip(*found)
    rows = np.array(vecs, dtype=float)
    nonzero = rows.any(axis=1)
    tokens = [tok for tok, keep in zip(tokens, nonzero) if keep]
    scored = sorted((-cosine(tok, topic, table), tok)
                    for tok in _shortlist(tokens, rows[nonzero],
                                          table.vector(topic), k))
    return [tok for _, tok in scored[:k]]
