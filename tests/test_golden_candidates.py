"""The decoy search reproduces its committed rankings bit for bit.

``golden/candidates/<name>.json`` is the stdout of ``cryptic-prover
candidates --json -k 5`` for each query below, run on the packaged
embeddings and word list: the definition span of each of the 10 fixture
clues with its gold answer excluded, one span with no word in the table
(every score is 0) and one span whose words are all in it.  The words and
the similarity floats must not change.

Regenerate them with ``PYTHONPATH=src python tests/test_golden_candidates.py``
and review the diff.
"""

import contextlib
import io
import os
from pathlib import Path

import pytest
from cryptic_prover import dataset, lexfiles
from cryptic_prover.cli import main
from cryptic_prover.evalharness import definition_span_text

GOLDEN = Path(__file__).parent / "golden" / "candidates"

# name -> (span, pattern, excluded answer)
FIXTURE_QUERIES = {
    "wordplay-styles-0": ("Chaperone", "6", "ESCORT"),
    "wordplay-styles-1": ("managing money", "7", "BANKING"),
    "wordplay-styles-2": ("Utter", "5", "VOICE"),
    "wordplay-styles-3": ("Bird", "5", "RAVEN"),
    "wordplay-styles-4": ("Not seeing", "5", "BLIND"),
    "wordplay-styles-5": ("damaged", "10", "UNDERMINED"),
    "wordplay-styles-6": ("shave", "4", "PARE"),
    "wordplay-styles-7": ("fit for a king", "5", "REGAL"),
    "charade-walkthroughs-0": ("Research", "5", "DELVE"),
    "charade-walkthroughs-1": ("optical device", "6", "CAMERA"),
}
QUERIES = {
    **FIXTURE_QUERIES,
    "out-of-vocabulary": ("xylophone quartet", "6", ""),
    "in-vocabulary": ("lending", "7", "BANKING"),
}


def ranking(span: str, pattern: str, exclude: str) -> str:
    out = io.StringIO()
    argv = ["candidates", "--json", "-k", "5", "--span", span, "--pattern", pattern]
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--exclude", exclude])
    assert code == 0
    return out.getvalue()


@pytest.fixture
def default_config(monkeypatch):
    """No ``CRYPTIC_PROVER_*`` variable changes the embeddings or the word list."""
    for name in [name for name in os.environ if name.startswith("CRYPTIC_PROVER_")]:
        monkeypatch.delenv(name)


def test_the_fixture_queries_are_the_fixture_clues():
    documents = dataset.load_puzzles(lexfiles.seed_path("fixtures/worked_examples.yaml"))
    clues = [clue for document in documents for clue in document.clues]
    assert list(FIXTURE_QUERIES.values()) == [
        (definition_span_text(clue), clue.pattern.render(), clue.gold_answer)
        for clue in clues
    ]


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_ranking_matches_the_golden_file(default_config, name):
    golden = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert ranking(*QUERIES[name]) == golden


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, query in QUERIES.items():
        (GOLDEN / f"{name}.json").write_text(ranking(*query), encoding="utf-8")
