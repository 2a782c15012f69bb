"""The wordplay layer reproduces its committed outputs line for line.

``golden/notation/annotations.txt`` lists one annotation per line: every
device-table example of the README, every ``wordplay:`` of the packaged
fixtures, and every node kind and deletion position, with multi-word
hidden answers and split containers.  Two outputs of that list are pinned:

* ``parse.jsonl``: ``cryptic-prover parse --json --file annotations.txt``;
* ``proofs.txt``: for each annotation, ``render_proof(compile_wordplay(...))``
  with the annotation's own letters as the candidate answer.

Regenerate both with ``PYTHONPATH=src python tests/test_golden_notation.py``
and review the diff.  CI runs this file under two ``PYTHONHASHSEED`` values.
"""

import contextlib
import io
import os
from itertools import zip_longest
from pathlib import Path
from typing import Optional

from cryptic_prover.cli import main
from cryptic_prover.core import Clue, Pattern
from cryptic_prover.formalize import ProofRequest, UnsupportedNode, compile_wordplay
from cryptic_prover.notation import parse_wordplay, surface_letters
from cryptic_prover.oracles import seed_lexicon
from cryptic_prover.verifier import render_proof

GOLDEN = Path(__file__).parent / "golden" / "notation"
ANNOTATIONS = GOLDEN / "annotations.txt"


def annotations() -> list[str]:
    return [line for line in ANNOTATIONS.read_text(encoding="utf-8").split("\n") if line]


def parse_output() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["parse", "--json", "--file", str(ANNOTATIONS)])
    assert code == 0
    return out.getvalue()


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


OUTPUTS = {"parse.jsonl": parse_output, "proofs.txt": proof_output}


def first_difference(produced: str, golden: Path) -> Optional[str]:
    """The first line of ``produced`` that differs from the golden file, or None."""
    expected = golden.read_text(encoding="utf-8").split("\n")
    for number, (got, want) in enumerate(zip_longest(produced.split("\n"), expected), 1):
        if got != want:
            return f"{golden.name} line {number}: expected {want!r}, got {got!r}"
    return None


def test_parse_output_matches_the_golden_file(monkeypatch):
    for name in [name for name in os.environ if name.startswith("CRYPTIC_PROVER_")]:
        monkeypatch.delenv(name)
    assert first_difference(parse_output(), GOLDEN / "parse.jsonl") is None


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
