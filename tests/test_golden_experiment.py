"""The packaged fixture experiment reproduces its committed outputs byte for byte.

``golden/experiment/results.jsonl`` is the ``results.jsonl`` of
``cryptic-prover experiment --clues worked_examples.yaml --transcripts tr``
with the mock generator and the default 5 samples.  The 10 transcripts,
one per clue (91 KB; no decoy is defined at a clue edge, so each file holds
its gold answer's attempts only), are pinned by
``golden/experiment/transcripts.sha256``, one ``sha256  file name`` line
each, in the format ``sha256sum`` writes.

CI runs this file under two ``PYTHONHASHSEED`` values, so output that
depends on set or dict-of-set iteration order fails here.
"""

import hashlib
import os
from pathlib import Path

from cryptic_prover import dataset, evalharness, lexfiles
from cryptic_prover.candidates import load_embeddings
from cryptic_prover.cli import CliConfig, main
from cryptic_prover.formalize import ScriptedReplayMock, load_transcript_responses

GOLDEN = Path(__file__).parent / "golden" / "experiment"


def first_difference(out: Path) -> str | None:
    """The first output file that differs from the golden copy, or None."""
    if (out / "results.jsonl").read_bytes() != (GOLDEN / "results.jsonl").read_bytes():
        return "results.jsonl"
    expected = {}
    for line in (GOLDEN / "transcripts.sha256").read_text(encoding="utf-8").splitlines():
        digest, name = line.split("  ", 1)
        expected[name] = digest
    produced = {path.name: path for path in (out / "tr").iterdir()}
    for name in sorted(expected.keys() | produced.keys()):
        if name not in produced:
            return f"tr/{name} (missing)"
        if name not in expected:
            return f"tr/{name} (unexpected)"
        if hashlib.sha256(produced[name].read_bytes()).hexdigest() != expected[name]:
            return f"tr/{name}"
    return None


def test_fixture_experiment_matches_the_golden_outputs(tmp_path, monkeypatch):
    for name in [name for name in os.environ if name.startswith("CRYPTIC_PROVER_")]:
        monkeypatch.delenv(name)
    code = main([
        "--output-dir", str(tmp_path),
        "experiment",
        "--clues", str(lexfiles.seed_path("fixtures/worked_examples.yaml")),
        "--transcripts", "tr",
    ])
    assert code == 0
    assert first_difference(tmp_path) is None


def test_four_workers_reproduce_the_golden_outputs(tmp_path, monkeypatch):
    # Clues run on four threads that share the mock and its request memo.
    for name in [name for name in os.environ if name.startswith("CRYPTIC_PROVER_")]:
        monkeypatch.delenv(name)
    code = main([
        "--output-dir", str(tmp_path),
        "experiment",
        "--clues", str(lexfiles.seed_path("fixtures/worked_examples.yaml")),
        "--transcripts", "tr",
        "--workers", "4",
    ])
    assert code == 0
    assert first_difference(tmp_path) is None


def test_first_difference_names_a_missing_transcript(tmp_path):
    (tmp_path / "tr").mkdir()
    (tmp_path / "results.jsonl").write_bytes((GOLDEN / "results.jsonl").read_bytes())
    assert first_difference(tmp_path) == "tr/charade-walkthroughs-0.jsonl (missing)"


def test_each_clue_transcript_replays_to_its_golden_records(tmp_path, monkeypatch):
    for name in [name for name in os.environ if name.startswith("CRYPTIC_PROVER_")]:
        monkeypatch.delenv(name)
    worked = lexfiles.seed_path("fixtures/worked_examples.yaml")
    assert main(["--output-dir", str(tmp_path), "experiment", "--clues", str(worked),
                 "--transcripts", "tr"]) == 0
    golden = evalharness.load_records(GOLDEN / "results.jsonl")
    config = CliConfig()
    lexicon = config.lexicon()
    table, wordlist = load_embeddings(config.embeddings), lexfiles.load_wordlist(config.wordlist)
    clues = [clue for document in dataset.load_puzzles(worked) for clue in document.clues]
    for clue in clues:
        path = tmp_path / "tr" / f"{evalharness._slug(clue.clue_id)}.jsonl"
        replay = ScriptedReplayMock.from_transcript(path)
        records = evalharness.run_experiment(
            [clue], generator=replay, lexicon=lexicon, table=table, wordlist=wordlist
        )
        assert records == [r for r in golden if r.clue_id == clue.clue_id]
        assert replay.calls == len(load_transcript_responses(path))
