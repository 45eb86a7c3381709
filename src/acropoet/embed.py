"""Pretrained word vectors: loading and letter-filtered kNN by cosine.

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
        """Keys are lower-cased, as lookups are; two keys that are then
        equal are an error."""
        rows: dict[str, int] = {}
        for key in vectors:
            token = key.lower()
            if token in rows:
                first = next(k for k in vectors if k.lower() == token)
                raise EmbeddingError(f"tokens {first!r} and {key!r} are "
                                     f"the same once lower-cased")
            rows[token] = len(rows)
        matrix = np.zeros((len(vectors), dim))
        for row, vec in zip(matrix, vectors.values()):
            row[:] = vec
        self._init(matrix, rows)

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


def load_embeddings(path, expected_dim: int | None = None) -> EmbeddingTable:
    """Parse a word-vector text file, failing hard on any malformed line.
    Every vector has expected_dim values; by default, as many as the
    first vector line has."""
    try:
        table = _read_vectors(path, expected_dim)
    except UnicodeDecodeError as exc:
        raise EmbeddingError(bad_utf8_message(path, exc)) from None
    log.info("loaded %d embeddings of dim %d from %s",
             len(table), table.dim, path)
    return table


def _read_vectors(path, dim: int | None) -> EmbeddingTable:
    """Each line's values go straight into a row of a matrix sized by a
    first pass that counts the lines; a duplicate token overwrites the
    row of its first occurrence.  One check after the read rejects a
    non-finite value (nan, inf), naming the first line that holds one;
    the table then rejects a vector whose norm is not usable, naming its
    line.  A file with no vector line, or whose first one has no values
    when dim is None, is an error."""
    with open(path, "rb") as fh:
        n_lines = 1 + sum(chunk.count(b"\n")
                          for chunk in iter(lambda: fh.read(1 << 20), b""))
    matrix = None
    rows: dict[str, int] = {}
    line_of = [0] * n_lines  # the line each row was read from
    # lines end at "\n" alone, as in the count
    with open(path, encoding="utf-8", newline="\n") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\r\n")
            if not line:
                continue
            parts = line.split(" ")
            if matrix is None:
                if dim is None:
                    dim = len(parts) - 1
                    if dim < 1:
                        raise EmbeddingError(f"{path}:{lineno}: no values")
                matrix = np.empty((n_lines, dim))
            if len(parts) != dim + 1:
                raise EmbeddingError(
                    f"{path}:{lineno}: expected {dim} values, "
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
    if matrix is None:
        raise EmbeddingError(f"{path}: no vectors")
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


class LetterCandidates(NamedTuple):
    """A letter's kNN candidates in one vocabulary and table, read-only:
    their vocabulary ids and their table rows."""

    ids: np.ndarray
    rows: np.ndarray


def letter_candidates(table: EmbeddingTable, vocab: Vocabulary,
                      letter: str) -> LetterCandidates:
    """The vocabulary's tokens that start with `letter` and have a nonzero
    vector in the table (tokens without one cannot be scored), sorted by
    token."""
    ids = vocab.by_initial.get(letter)
    tids = [] if ids is None else sorted(
        ids.tolist(), key=vocab.id_to_token.__getitem__)
    found = [(tid, row) for tid, tok in zip(tids, vocab.decode(tids))
             if (row := table.row(tok)) is not None]
    ids, rows = np.array(found, dtype=int).reshape(-1, 2).T
    keep = table.matrix[rows].any(axis=1)
    ids, rows = ids[keep], rows[keep]
    for array in (ids, rows):
        array.setflags(write=False)
    return LetterCandidates(ids, rows)


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
    them here.  One matvec scores them all,
    (matrix[rows] @ topic) / (norms[rows] * |topic|), and a stable sort
    over the token-ordered candidates breaks ties on the token.
    """
    row = table.row(topic)
    if row is None:
        raise EmbeddingError(f"topic {topic!r} not in embedding table")
    if candidates is None:
        candidates = letter_candidates(table, restrict_to, letter)
    ids, rows = candidates
    if not len(rows):
        return []
    norm = table.norms[row]
    if norm == 0:
        raise EmbeddingError(f"zero-norm vector for {topic!r}")
    scores = ((table.matrix[rows] @ table.matrix[row])
              / (table.norms[rows] * norm))
    best = np.argsort(-scores, kind="stable")[:k]
    return restrict_to.decode(ids[best].tolist())
