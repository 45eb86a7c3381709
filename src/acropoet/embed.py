"""Pretrained word vectors: loading, cosine similarity, letter-filtered kNN.

The on-disk format is the common text release format: one entry per line,
token followed by `dim` decimals, single-space separated.
"""

from __future__ import annotations

import logging
from collections.abc import Mapping
from typing import NamedTuple

import numpy as np

from .corpus import Vocabulary, bad_utf8_message

log = logging.getLogger(__name__)


class EmbeddingError(ValueError):
    pass


class EmbeddingTable:
    """Read-only token -> vector map with cosine kNN queries: one (N, dim)
    matrix, its row norms and the row of each token."""

    def __init__(self, dim: int, vectors: Mapping[str, np.ndarray]):
        matrix = np.zeros((len(vectors), dim))
        for row, vec in zip(matrix, vectors.values()):
            row[:] = vec
        self._init(matrix, dict(zip(vectors, range(len(vectors)))))

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, rows: dict[str, int],
                    where=None) -> EmbeddingTable:
        """The table over `matrix` (kept, not copied) whose token t is
        row rows[t]; `where` is `_init`'s."""
        table = cls.__new__(cls)
        table._init(matrix, rows, where)
        return table

    def _init(self, matrix: np.ndarray, rows: dict[str, int],
              where=None) -> None:
        """Raises on the first row whose norm is not finite, or is 0
        while the row is not all zeros: cosines with it cannot be
        computed.  where(row) names that row in the error; by default it
        names its token."""
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(matrix, axis=1)
        bad = np.flatnonzero(~np.isfinite(norms)
                             | ((norms == 0) & matrix.any(axis=1)))
        if len(bad):
            row = bad[0]
            name = (where(row) if where else "token " + repr(
                next(tok for tok, r in rows.items() if r == row)))
            problem = ("underflows to 0" if norms[row] == 0
                       else f"is {norms[row]}")
            raise EmbeddingError(f"{name}: vector norm {problem}")
        self.dim = matrix.shape[1]
        self.matrix = matrix
        self.norms = norms
        for array in (self.matrix, self.norms):
            array.setflags(write=False)
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, token: str) -> bool:
        return token.lower() in self._rows

    def row(self, token: str) -> int | None:
        """The matrix row of the token's vector, or None."""
        return self._rows.get(token.lower())

    def vector(self, token: str) -> np.ndarray:
        row = self.row(token)
        if row is None:
            raise EmbeddingError(f"token {token!r} not in embedding table")
        return self.matrix[row]

    def tokens(self):
        return self._rows.keys()


def load_embeddings(path, expected_dim: int) -> EmbeddingTable:
    """Parse a word-vector text file, failing hard on any malformed line."""
    try:
        table = _read_vectors(path, expected_dim)
    except UnicodeDecodeError as exc:
        raise EmbeddingError(bad_utf8_message(path, exc)) from None
    log.info("loaded %d embeddings of dim %d from %s",
             len(table), expected_dim, path)
    return table


def _read_vectors(path, expected_dim: int) -> EmbeddingTable:
    """Each line's values go straight into a row of a matrix sized by a
    first pass that counts the lines; a duplicate token overwrites the
    row of its first occurrence.  One check after the read rejects a
    non-finite value (nan, inf), naming the first line that holds one;
    the table then rejects a vector whose norm is not usable, naming its
    line."""
    with open(path, "rb") as fh:
        n_lines = 1 + sum(chunk.count(b"\n")
                          for chunk in iter(lambda: fh.read(1 << 20), b""))
    matrix = np.empty((n_lines, expected_dim))
    rows: dict[str, int] = {}
    line_of = [0] * n_lines  # the line each row was read from
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
            row = rows.get(token)
            if row is not None:
                log.warning("duplicate embedding for %r at line %d, "
                            "keeping the later one", token, lineno)
            else:
                row = len(rows)
            try:
                matrix[row] = parts[1:]  # each parsed as float() does
            except ValueError as exc:
                raise EmbeddingError(f"{path}:{lineno}: bad float ({exc})")
            rows[token] = row
            line_of[row] = lineno
    matrix = matrix[:len(rows)]
    finite = np.isfinite(matrix)
    if not finite.all():
        row = min(np.flatnonzero(~finite.all(axis=1)),
                  key=line_of.__getitem__)
        value = matrix[row, np.argmin(finite[row])]
        raise EmbeddingError(f"{path}:{line_of[row]}: non-finite value "
                             f"{value}")
    return EmbeddingTable.from_matrix(
        matrix, rows, where=lambda row: f"{path}:{line_of[row]}")


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


class LetterCandidates(NamedTuple):
    """A letter's kNN candidates in one vocabulary and table, read-only:
    their vocabulary ids, their table rows and the rows' norms."""

    ids: np.ndarray
    rows: np.ndarray
    norms: np.ndarray


def letter_candidates(table: EmbeddingTable, vocab: Vocabulary,
                      letter: str) -> LetterCandidates:
    """The vocabulary's tokens that start with `letter` and have a nonzero
    vector in the table (tokens without one cannot be scored), in
    `Vocabulary.by_initial` order."""
    ids = vocab.by_initial.get(letter)
    tids = [] if ids is None else ids.tolist()
    found = [(tid, row) for tid, tok in zip(tids, vocab.decode(tids))
             if (row := table.row(tok)) is not None]
    ids, rows = np.array(found, dtype=int).reshape(-1, 2).T
    keep = table.matrix[rows].any(axis=1)
    ids, rows = ids[keep], rows[keep]
    norms = table.norms[rows]
    for array in (ids, rows, norms):
        array.setflags(write=False)
    return LetterCandidates(ids, rows, norms)


def _shortlist(table: EmbeddingTable, candidates: LetterCandidates,
               topic: str, k: int):
    """Positions in `candidates` of those that can be in the exact top k
    by cosine to the topic: every one whose matvec cosine is within
    SHORTLIST_SLACK of the k-th best.  All of them when the topic's
    vector is zero, so that the exact scan raises as `cosine` does."""
    _, rows, norms = candidates
    norm = float(table.norms[table.row(topic)])
    if not (0 < k < len(rows) and norm > 0):
        return slice(None)
    approx = (table.matrix[rows] @ table.vector(topic)) / (norms * norm)
    kth = np.partition(approx, -k)[-k]
    return np.flatnonzero(approx >= kth - SHORTLIST_SLACK)


def knn_with_initial(
    topic: str,
    letter: str,
    table: EmbeddingTable,
    restrict_to: Vocabulary,
    k: int = 5,
    candidates: LetterCandidates | None = None,
) -> list[str]:
    """Top-k vocabulary tokens starting with `letter`, by cosine to `topic`.

    Candidates are those of `letter_candidates`; pass them as
    `candidates` to reuse them across queries, or leave it None to make
    them here.  Ties break lexicographically.  One matvec over the
    candidates picks a shortlist; `cosine` ranks it, so the order is
    exactly that of scoring every candidate with `cosine`.
    """
    if topic not in table:
        raise EmbeddingError(f"topic {topic!r} not in embedding table")
    if candidates is None:
        candidates = letter_candidates(table, restrict_to, letter)
    keep = _shortlist(table, candidates, topic, k)
    scored = sorted((-cosine(tok, topic, table), tok) for tok in
                    restrict_to.decode(candidates.ids[keep].tolist()))
    return [tok for _, tok in scored[:k]]
