"""The wordplay layer reproduces its committed outputs line for line.

``golden/notation/annotations.txt`` lists one annotation per line: every
device-table example of the README, every ``wordplay:`` of the packaged
fixtures, and every node kind and deletion position, with multi-word
hidden answers and split containers.  Two outputs of that list are pinned:

* ``parse.jsonl``: ``cryptic-prover parse --json --file annotations.txt``;
* ``proofs.txt``: for each annotation, ``render_proof(compile_wordplay(...))``
  with the annotation's own letters as the candidate answer.

``broken.txt`` holds near misses of those annotations: each one cut before
each space and with each space-separated word dropped, without repeats or
annotations of the list.  Some still parse and most do not; the stdout and
stderr of ``cryptic-prover parse --json --file broken.txt`` (exit 2) are
pinned as ``broken.jsonl`` and ``broken.err``.

Regenerate all of these with ``PYTHONPATH=src python tests/test_golden_notation.py``
and review the diff.  CI runs this file under two ``PYTHONHASHSEED`` values.
"""

import contextlib
import io
import os
from itertools import zip_longest
from pathlib import Path
from typing import Optional

import pytest
from cryptic_prover.cli import main
from cryptic_prover.core import Clue, Pattern
from cryptic_prover.formalize import ProofRequest, UnsupportedNode, compile_wordplay
from cryptic_prover.notation import parse_wordplay, surface_letters
from cryptic_prover.oracles import seed_lexicon
from cryptic_prover.verifier import render_proof

GOLDEN = Path(__file__).parent / "golden" / "notation"
ANNOTATIONS = GOLDEN / "annotations.txt"
BROKEN = GOLDEN / "broken.txt"


def annotations() -> list[str]:
    return [line for line in ANNOTATIONS.read_text(encoding="utf-8").split("\n") if line]


def broken_annotations() -> str:
    """Every annotation cut before each space and with each word dropped, once each."""
    golden = annotations()
    broken: dict[str, None] = {}
    for annotation in golden:
        words = annotation.split(" ")
        cuts = [annotation[:i] for i, ch in enumerate(annotation) if ch == " "]
        drops = [" ".join(words[:i] + words[i + 1 :]) for i in range(len(words))]
        broken.update(dict.fromkeys(cuts + drops))
    return "".join(f"{line}\n" for line in broken if line and line not in golden)


def parse_output() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["parse", "--json", "--file", str(ANNOTATIONS)])
    assert code == 0
    return out.getvalue()


def broken_output() -> tuple[str, str]:
    """The stdout and stderr of ``parse --json`` on ``broken.txt``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["parse", "--json", "--file", str(BROKEN)])
    assert code == 2
    return out.getvalue(), err.getvalue()


def proof_output() -> str:
    """Each annotation after a ``== `` line, then its compiled proof."""
    lexicon = seed_lexicon()
    blocks = []
    for annotation in annotations():
        blocks.append(f"== {annotation}")
        node = parse_wordplay(annotation, lexicon)
        letters = surface_letters(node)
        if not letters:
            blocks.append("(no letters to compile)")
            continue
        request = ProofRequest(
            clue=Clue(surface=annotation, pattern=Pattern.parse(str(len(letters)))),
            candidate_answer=letters,
            definition=annotation,
            wordplay=annotation,
        )
        try:
            blocks.append(render_proof(compile_wordplay(node, request)).rstrip("\n"))
        except UnsupportedNode as error:
            blocks.append(f"UnsupportedNode: {error}")
    return "\n".join(blocks) + "\n"


# broken.txt comes first: the two outputs after it are made from it.
OUTPUTS = {
    "parse.jsonl": parse_output,
    "proofs.txt": proof_output,
    "broken.txt": broken_annotations,
    "broken.jsonl": lambda: broken_output()[0],
    "broken.err": lambda: broken_output()[1],
}


def first_difference(produced: str, golden: Path) -> Optional[str]:
    """The first line of ``produced`` that differs from the golden file, or None."""
    expected = golden.read_text(encoding="utf-8").split("\n")
    for number, (got, want) in enumerate(zip_longest(produced.split("\n"), expected), 1):
        if got != want:
            return f"{golden.name} line {number}: expected {want!r}, got {got!r}"
    return None


@pytest.fixture
def default_config(monkeypatch):
    """No ``CRYPTIC_PROVER_*`` variable changes what ``parse`` prints."""
    for name in [name for name in os.environ if name.startswith("CRYPTIC_PROVER_")]:
        monkeypatch.delenv(name)


def test_parse_output_matches_the_golden_file(default_config):
    assert first_difference(parse_output(), GOLDEN / "parse.jsonl") is None


def test_broken_annotations_are_the_near_misses_of_the_golden_list():
    assert first_difference(broken_annotations(), BROKEN) is None


def test_malformed_annotations_match_the_golden_files(default_config):
    stdout, stderr = broken_output()
    assert first_difference(stdout, GOLDEN / "broken.jsonl") is None
    assert first_difference(stderr, GOLDEN / "broken.err") is None


def test_compiled_proofs_match_the_golden_file():
    assert first_difference(proof_output(), GOLDEN / "proofs.txt") is None


def test_first_difference_names_the_line(tmp_path):
    golden = tmp_path / "golden.txt"
    golden.write_text("a\nb\nc\n", encoding="utf-8")
    assert first_difference("a\nb\nc\n", golden) is None
    assert first_difference("a\nB\nc\n", golden) == "golden.txt line 2: expected 'b', got 'B'"
    assert first_difference("a\nb\n", golden) == "golden.txt line 3: expected 'c', got ''"


if __name__ == "__main__":
    for file_name, produce in OUTPUTS.items():
        (GOLDEN / file_name).write_text(produce(), encoding="utf-8")
