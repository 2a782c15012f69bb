"""Deterministic inputs for the benchmark workloads.

``build(workload, seed, directory)`` writes every file the experiment
reads, through the same formats the package's public loaders parse:

* ``thesaurus.tsv``, ``abbreviations.tsv``, ``indicators.tsv``,
  ``indicators_extra.tsv``, ``homophones.tsv`` and ``wordlist.txt``;
* ``embeddings.txt``, text vectors (``pseudo_embedding`` for the
  synthetic workloads);
* ``slice.yaml``, the few clues the correctness gate and the CLI
  cross-check run, and ``clues.yaml``, the clues the timed passes draw
  from (disjoint from the slice on the synthetic workloads);
* ``cli.yaml``, a ``cryptic-prover --config`` file naming the files above.

The same (workload, seed) gives byte-identical files.  Synthetic clues
use only seed indicators, because ``CompilerBackedMock`` parses
annotations with the packaged tables whatever lexicon is configured.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass
from pathlib import Path

import yaml

from cryptic_prover import lexfiles
from cryptic_prover.candidates import pseudo_embedding

EMBEDDING_DIMENSION = 16

# Copied unchanged into every workload directory.
_SEED_LEXICON = {
    "abbreviations.tsv": "lexicon/abbreviations.tsv",
    "indicators.tsv": "lexicon/indicators.tsv",
    "indicators_extra.tsv": "lexicon/indicators_extra.tsv",
    "homophones.tsv": "lexicon/homophones.tsv",
}

_ANAGRAM_INDICATORS = ("shredded", "broadcast", "becoming", "crazy", "worked", "mad")
_REVERSAL_INDICATORS = ("returned", "back")

_VOWELS = "aeiou"
_CONSONANTS = "bcdfghklmnprstvz"

# Words a generated gloss or fodder must never be: any seed signifier or
# abbreviation phrase would change how an annotation parses.
_RESERVED = frozenset({"a", "an", "the", "of", "in", "on", "up", "say", "some", "son"})


@dataclass(frozen=True)
class Workload:
    """One named input set and how a timed pass runs it.

    Passes are sized so that each does about the same work: the fixture
    pass is all ten clues, a ``unique-io`` pass holds two clues of each
    kind (kinds cycle in corpus order), and on ``vocab20k`` the decoy
    search costs every clue alike.  ``exercise_io`` turns on the results I/O
    path: transcripts are written, and each pass is interrupted after
    half its clues and resumed from its own results file.
    ``reuse_clues`` lets passes cycle through the clues under fresh clue
    ids; without it every timed clue is new to the run.
    """

    name: str
    samples: int
    clues_per_pass: int
    slice_clues: int
    exercise_io: bool = False
    reuse_clues: bool = True
    kinds: tuple[str, ...] = ()
    corpus_clues: int = 0
    wordlist_size: int = 0


# Why each workload exists is recorded beside its name in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fixture",
            samples=5,
            clues_per_pass=10,
            slice_clues=10,
        ),
        Workload(
            name="vocab20k",
            samples=1,
            clues_per_pass=1,
            slice_clues=3,
            kinds=("anagram", "charade"),
            corpus_clues=150,
            wordlist_size=20_000,
        ),
        Workload(
            name="unique-io",
            samples=5,
            clues_per_pass=6,
            slice_clues=6,
            exercise_io=True,
            reuse_clues=False,
            kinds=("anagram", "charade", "reversal"),
            corpus_clues=1_500,
            wordlist_size=500,
        ),
    )
}


def build(workload: Workload, seed: int, directory: Path) -> None:
    """Write the workload's input files for this seed into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    for name, source in _SEED_LEXICON.items():
        shutil.copyfile(lexfiles.seed_path(source), directory / name)
    if workload.kinds:
        _build_synthetic(workload, seed, directory)
    else:
        _build_fixture(directory)
    config = {
        "thesaurus": "thesaurus.tsv",
        "abbreviations": "abbreviations.tsv",
        "indicators": ["indicators.tsv", "indicators_extra.tsv"],
        "homophones": "homophones.tsv",
        "wordlist": "wordlist.txt",
        "embeddings": "embeddings.txt",
        "samples": workload.samples,
    }
    (directory / "cli.yaml").write_text(
        yaml.safe_dump(config, sort_keys=False), encoding="utf-8"
    )


def _build_fixture(directory: Path) -> None:
    """The packaged corpus, whatever the seed."""
    for name, source in (
        ("thesaurus.tsv", "lexicon/thesaurus.tsv"),
        ("wordlist.txt", "lexicon/wordlist.txt"),
        ("embeddings.txt", "fixtures/embeddings_16d.txt"),
        ("slice.yaml", "fixtures/worked_examples.yaml"),
        ("clues.yaml", "fixtures/worked_examples.yaml"),
    ):
        shutil.copyfile(lexfiles.seed_path(source), directory / name)


class _Words:
    """Fresh pronounceable pseudo-words; no word is handed out twice."""

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._used = set(_RESERVED)
        indicators = lexfiles.load_indicators(
            [lexfiles.seed_path("lexicon/" + name) for name in ("indicators.tsv", "indicators_extra.tsv")]
        )
        abbreviations = lexfiles.load_abbreviations(lexfiles.seed_path("lexicon/abbreviations.tsv"))
        for phrase in [*indicators, *abbreviations, *(p for ps in abbreviations.values() for p in ps)]:
            self._used.update(phrase.casefold().split())

    def fresh(self, low: int, high: int) -> str:
        rng = self._rng
        while True:
            length = rng.randint(low, high)
            offset = rng.randrange(2)
            word = "".join(
                rng.choice(_CONSONANTS if (i + offset) % 2 == 0 else _VOWELS)
                for i in range(length)
            )
            if self.claim(word):
                return word

    def claim(self, word: str) -> bool:
        if word in self._used:
            return False
        self._used.add(word)
        return True

    def shuffled(self, word: str) -> str:
        """An unused rearrangement of ``word``'s letters, never ``word`` itself."""
        letters = list(word)
        while True:
            self._rng.shuffle(letters)
            candidate = "".join(letters)
            if candidate != word and self.claim(candidate):
                return candidate


def _place(rng: random.Random, definition: str, wordplay: list[str]) -> str:
    """A clue surface with the braced definition at one end."""
    body = " ".join(wordplay)
    return f"{{{definition}}} {body}" if rng.randrange(2) else f"{body} {{{definition}}}"


def _synthetic_clue(kind: str, rng: random.Random, words: _Words, thesaurus: list):
    definition = words.fresh(4, 7)
    if kind == "anagram":
        answer = words.fresh(5, 8)
        fodder = words.shuffled(answer)
        indicator = rng.choice(_ANAGRAM_INDICATORS)
        surface = _place(rng, definition, [fodder, indicator])
        wordplay = f"({fodder})* (*{indicator})"
    elif kind == "charade":
        while True:
            first, second = words.fresh(3, 4), words.fresh(3, 4)
            if words.claim(first + second):
                break
        answer = first + second
        gloss_first, gloss_second = words.fresh(4, 7), words.fresh(4, 7)
        thesaurus += [(gloss_first, first), (gloss_second, second)]
        surface = _place(rng, definition, [gloss_first, gloss_second])
        wordplay = f"{first.upper()} ({gloss_first}) + {second.upper()} ({gloss_second})"
    elif kind == "reversal":
        while True:
            answer = words.fresh(4, 7)
            if answer != answer[::-1] and words.claim(answer[::-1]):
                break
        gloss = words.fresh(4, 7)
        indicator = rng.choice(_REVERSAL_INDICATORS)
        thesaurus.append((gloss, answer[::-1]))
        surface = _place(rng, definition, [gloss, indicator])
        wordplay = f"({answer[::-1].upper()})< ({gloss}, <{indicator})"
    else:
        raise ValueError(f"unknown clue kind {kind!r}")
    thesaurus.append((definition, answer))
    return {
        "clue": surface,
        "pattern": str(len(answer)),
        "ad": "A",
        "answer": answer.upper(),
        "wordplay": wordplay,
    }, definition


def _build_synthetic(workload: Workload, seed: int, directory: Path) -> None:
    rng = random.Random(f"{workload.name}:{seed}")
    words = _Words(rng)
    thesaurus: list[tuple[str, str]] = []
    entries, definitions = [], []
    for index in range(workload.slice_clues + workload.corpus_clues):
        kind = workload.kinds[index % len(workload.kinds)]
        entry, definition = _synthetic_clue(kind, rng, words, thesaurus)
        entries.append(entry)
        definitions.append(definition)
    # Decoys come only from this list; it spans every answer length.
    wordlist = [words.fresh(4, 10) for _ in range(workload.wordlist_size)]

    _write_puzzles(directory / "slice.yaml", workload.name + "-slice", entries[: workload.slice_clues])
    _write_puzzles(directory / "clues.yaml", workload.name, entries[workload.slice_clues :])
    (directory / "thesaurus.tsv").write_text(
        "".join(f"{phrase}\t{candidate}\n" for phrase, candidate in thesaurus),
        encoding="utf-8",
    )
    (directory / "wordlist.txt").write_text(
        "".join(word + "\n" for word in wordlist), encoding="utf-8"
    )
    vocabulary = wordlist + definitions
    lines = [f"{len(vocabulary)} {EMBEDDING_DIMENSION}\n"]
    for word in vocabulary:
        vector = pseudo_embedding(word, EMBEDDING_DIMENSION)
        lines.append(word + " " + " ".join(f"{v:.6f}" for v in vector) + "\n")
    (directory / "embeddings.txt").write_text("".join(lines), encoding="utf-8")


def _write_puzzles(path: Path, slug: str, entries: list[dict]) -> None:
    document = {
        "title": f"benchmark {slug}",
        "url": f"https://example.org/benchmark/{slug}",
        "author": "perfbench",
        "clues": entries,
    }
    path.write_text(
        yaml.safe_dump(document, sort_keys=False, allow_unicode=True), encoding="utf-8"
    )
