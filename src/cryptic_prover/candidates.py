"""Pick the close decoy answer: nearest pattern-fitting word to a definition.

The decoy used by the experiment is the wordlist entry that fits the
clue's letter pattern, is not the ground-truth answer, and sits closest
to the definition span under a pre-computed word embedding table.  The
table loads from the common text vector format (header ``<count>
<dimension>``, then ``word v1 ... vd`` per line), so published vector
exports work unmodified.

No embeddings are trained here.  For deterministic offline work the
module can also write a pseudo-embedding table whose vectors are pure
functions of the word (sha256-seeded), which is what the packaged
16-dimension fixture was generated from.
"""

from __future__ import annotations

import hashlib
import logging
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

from cryptic_prover import lexfiles
from cryptic_prover.core import Pattern, normalize_letters

log = logging.getLogger(__name__)

_TOKEN = re.compile(r"[a-z]+")


class FormatError(lexfiles.InputError):
    """An embedding file line that cannot be read."""


class DimensionMismatch(ValueError):
    """Vectors of different lengths where equal lengths are required."""


class _VectorLengthError(FormatError, DimensionMismatch):
    """An embedding file line whose vector length is not the header's dimension."""


class EmptyCandidateSet(LookupError):
    """No wordlist entry survives the pattern and exclusion filters."""


@dataclass(frozen=True)
class EmbeddingTable:
    """Case-folded word vectors, all of one dimension."""

    dimension: int
    vectors: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        for word, vec in self.vectors.items():
            if vec.shape != (self.dimension,):
                raise DimensionMismatch(
                    f"vector for {word!r} has {vec.shape[0]} values, "
                    f"table dimension is {self.dimension}"
                )
        # The decoy search's index for the last word list it saw.
        object.__setattr__(self, "_word_index", None)

    def embed_phrase(self, phrase: str) -> np.ndarray:
        """Mean of the in-vocabulary token vectors; zero when none are."""
        found = [
            self.vectors[token]
            for token in _TOKEN.findall(phrase.casefold())
            if token in self.vectors
        ]
        if not found:
            return np.zeros(self.dimension)
        return np.mean(found, axis=0)


def load_embeddings(path: Union[str, Path]) -> EmbeddingTable:
    """Read a text vector file; duplicate words keep the first occurrence.

    A malformed vector line is reported at its line.  Then the header's
    count must equal the number of non-blank vector lines, duplicates
    included, so a truncated file is an error, not a smaller table.
    """
    lines = lexfiles.read_lines(path)
    if not lines or not lines[0].strip():
        raise FormatError(path, 1, "missing '<count> <dimension>' header")
    header = lines[0].split()
    if len(header) != 2 or not all(part.isdigit() for part in header):
        raise FormatError(path, 1, "header must be '<count> <dimension>'")
    count, dimension = int(header[0]), int(header[1])
    if dimension < 1:
        raise FormatError(path, 1, "dimension must be at least 1")

    vectors: dict[str, np.ndarray] = {}
    vector_lines = 0
    for number, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        vector_lines += 1
        parts = line.split()
        word = parts[0].casefold()
        if len(parts) - 1 != dimension:
            raise _VectorLengthError(
                path, number, f"expected {dimension} values for {word!r}, got {len(parts) - 1}"
            )
        try:
            values = np.array([float(v) for v in parts[1:]])
        except ValueError:
            raise FormatError(path, number, f"non-numeric value for {word!r}") from None
        if word in vectors:
            log.warning("duplicate embedding for %r at line %d kept first", word, number)
            continue
        vectors[word] = values
    if vector_lines != count:
        raise FormatError(
            path, 1, f"header says {count} vectors, the file has {vector_lines} vector lines"
        )
    return EmbeddingTable(dimension=dimension, vectors=vectors)


def cosine(u, v) -> float:
    """Cosine similarity in [-1, 1]; a zero vector scores 0 by convention."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise DimensionMismatch(f"cannot compare {u.shape[0]}-d with {v.shape[0]}-d")
    norm = np.linalg.norm(u) * np.linalg.norm(v)
    if norm == 0.0:
        return 0.0
    return float(np.clip(np.dot(u, v) / norm, -1.0, 1.0))


# The scores only pick a shortlist; each word on it is rescored with
# ``cosine``, so any word within this margin of the k-th best stays in.
_SHORTLIST_MARGIN = 1e-9


@dataclass(frozen=True)
class _LengthGroup:
    """The normalised words of one letter count, sorted, with their vectors."""

    words: tuple[str, ...]
    rows: np.ndarray
    norms: np.ndarray


def _word_index(
    table: EmbeddingTable, wordlist: Iterable[str]
) -> dict[int, _LengthGroup]:
    """The table's index of ``wordlist``, rebuilt when the word list changes.

    The index is kept with the tuple it was built from.  The same tuple
    again (``tuple`` returns a tuple itself) reuses it at once; any other
    iterable is compared with it by contents.
    """
    words = tuple(wordlist)
    cached = table._word_index
    if cached is not None and (cached[0] is words or cached[0] == words):
        return cached[1]
    by_length: dict[int, set[str]] = {}
    for word in words:
        letters = normalize_letters(word)
        by_length.setdefault(len(letters), set()).add(letters)
    zero = np.zeros(table.dimension)
    groups = {}
    for length, members in by_length.items():
        ordered = tuple(sorted(members))
        # A normalised word is one token, so its embed_phrase is its own vector.
        rows = np.array(
            [table.vectors.get(word.lower(), zero) for word in ordered], dtype=float
        ).reshape(len(ordered), table.dimension)
        groups[length] = _LengthGroup(ordered, rows, np.linalg.norm(rows, axis=1))
    object.__setattr__(table, "_word_index", (words, groups))
    return groups


def closest_candidates(
    definition_span: str,
    pattern: Pattern,
    exclude: str,
    table: EmbeddingTable,
    wordlist: Iterable[str],
    k: int = 1,
) -> list[tuple[str, float]]:
    """The k pattern-fitting words nearest the span, best first.

    The excluded word (the ground truth) never appears.  Ties are broken
    lexicographically, so rankings are reproducible.

    The first search for a word list builds an index on the table: the
    normalised words grouped by letter count, each group sorted and
    stacked with its vectors and their norms.  Later searches with the
    same word list score a whole group with one matrix-vector product; a
    different word list replaces the index.  The word list is keyed first
    by identity, so passing the tuple ``lexfiles.load_wordlist`` returns
    costs nothing per search, and then by contents.  The shortlist within
    ``_SHORTLIST_MARGIN`` of the k-th best score is rescored with
    ``cosine``, so results equal a word-by-word scan.  A span whose vector
    is zero scores 0 against every word, so its ranking is the group's
    alphabetical order and no word is scored.  Do not mutate
    ``table.vectors`` after the first search.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    banned = normalize_letters(exclude)
    group = _word_index(table, wordlist).get(pattern.total)
    if group is None:
        raise EmptyCandidateSet(
            f"no wordlist entry fits the pattern {pattern.render()!r}"
        )
    words = group.words
    position = bisect_left(words, banned)
    has_banned = position < len(words) and words[position] == banned
    if len(words) == has_banned:
        raise EmptyCandidateSet(
            f"only the excluded word {banned!r} fits the pattern {pattern.render()!r}"
        )
    span_vec = table.embed_phrase(definition_span)
    span_norm = np.linalg.norm(span_vec)
    if span_norm == 0.0:
        allowed = (word for word in words if word != banned)
        return [(word, 0.0) for word in islice(allowed, k)]
    norms = group.norms * span_norm
    scores = np.divide(
        group.rows @ span_vec, norms, out=np.zeros(len(words)), where=norms != 0.0
    )
    if has_banned:
        scores[position] = -np.inf
    # Ascending position of the k-th best score among the allowed words.
    kth = len(words) - min(k, len(words) - has_banned)
    floor = np.partition(scores, kth)[kth] - _SHORTLIST_MARGIN
    ranked = sorted(
        (
            (words[i], cosine(span_vec, table.embed_phrase(words[i])))
            for i in np.flatnonzero(scores >= floor)
        ),
        key=lambda pair: (-pair[1], pair[0]),
    )
    return ranked[:k]


# -- deterministic pseudo-embeddings -------------------------------------------


def pseudo_embedding(word: str, dimension: int = 16) -> np.ndarray:
    """A reproducible vector in [-1, 1]^dimension, a pure function of the word.

    Each component hashes the folded word with its index, so values are
    stable across platforms, processes, and hash seeds.
    """
    folded = word.casefold()
    values = []
    for index in range(dimension):
        digest = hashlib.sha256(f"{folded}:{index}".encode("utf-8")).digest()
        raw = int.from_bytes(digest[:8], "big")
        values.append(raw / float(2**64 - 1) * 2.0 - 1.0)
    return np.array(values)


def write_pseudo_embeddings(
    words: Sequence[str], path: Union[str, Path], dimension: int = 16
) -> EmbeddingTable:
    """Write (and return) a pseudo-embedding table for the given words.

    Words are folded, deduplicated, and sorted, so the output file is
    byte-identical for any ordering of the same vocabulary.
    """
    vocabulary = sorted({word.casefold() for word in words if word.strip()})
    lines = [f"{len(vocabulary)} {dimension}"]
    for word in vocabulary:
        vec = pseudo_embedding(word, dimension)
        lines.append(word + " " + " ".join(f"{v:.6f}" for v in vec))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return load_embeddings(path)
