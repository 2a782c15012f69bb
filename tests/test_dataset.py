from __future__ import annotations

import pytest

from cryptic_prover.core import Direction
from cryptic_prover.dataset import (
    PuzzleDocument,
    SchemaError,
    UnbalancedBraces,
    extract_definition,
    load_puzzles,
)

SAMPLE = """\
title: Financial Times 16,479 by FALCON
url: https://www.fifteensquared.net/2020/05/13/financial-times-16479-by-falcon/
author: teacow
clues:
- clue: '{Offer} of support also broadcast'
  pattern: '8'
  ad: D
  answer: PROPOSAL
  wordplay: PROP (support) + (ALSO)* (*broadcast)
- clue: 'rudeness about son’s {computer language}'
  pattern: '4'
  answer: LISP
"""


@pytest.fixture
def sample_path(tmp_path):
    path = tmp_path / "sample.yaml"
    path.write_text(SAMPLE, encoding="utf-8")
    return path


class TestExtractDefinition:
    def test_single_span(self):
        spans, plain = extract_definition("{Offer} of support also broadcast")
        assert plain == "Offer of support also broadcast"
        assert len(spans) == 1
        assert (spans[0].start, spans[0].end, spans[0].text) == (0, 5, "Offer")

    def test_two_spans(self):
        spans, plain = extract_definition("{Not seeing} {window covering}")
        assert plain == "Not seeing window covering"
        assert [s.text for s in spans] == ["Not seeing", "window covering"]

    def test_reinsertion_is_inverse(self):
        annotated = "{Found} ermine, deer hides {damaged}"
        spans, plain = extract_definition(annotated)
        for span in reversed(spans):
            plain = plain[: span.start] + "{" + span.text + "}" + plain[span.end :]
        assert plain == annotated

    @pytest.mark.parametrize(
        "bad", ["{open", "close}", "{a{b}}", "two} {prefix"]
    )
    def test_unbalanced(self, bad):
        with pytest.raises(UnbalancedBraces):
            extract_definition(bad)


class TestLoadPuzzles:
    def test_loads_sample(self, sample_path):
        docs = load_puzzles(sample_path)
        assert len(docs) == 1
        doc = docs[0]
        assert doc.title == "Financial Times 16,479 by FALCON"
        first = doc.clues[0]
        assert first.surface == "Offer of support also broadcast"
        assert first.gold_answer == "PROPOSAL"
        assert first.direction is Direction.DOWN
        assert first.pattern.render() == "8"
        assert first.clue_id == "financial-times-16479-by-falcon#0"

    def test_unicode_survives(self, sample_path):
        docs = load_puzzles(sample_path)
        assert "son’s" in docs[0].clues[1].surface

    def test_ad_defaults_to_across(self, sample_path):
        docs = load_puzzles(sample_path)
        assert docs[0].clues[1].direction is Direction.ACROSS

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(
            "title: t\nurl: u\nauthor: a\nclues:\n- clue: 'x {y}'\n",
            encoding="utf-8",
        )
        with pytest.raises(SchemaError, match=r"clue 0 .*missing key 'pattern'"):
            load_puzzles(path)

    def test_bad_ad_value(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(
            "title: t\nurl: u\nauthor: a\nclues:\n"
            "- clue: '{x} y'\n  pattern: '1'\n  ad: B\n",
            encoding="utf-8",
        )
        with pytest.raises(SchemaError, match="clue 0"):
            load_puzzles(path)

    def test_unknown_document_key(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(
            "title: t\nurl: u\nauthor: a\neditor: nobody\nclues: []\n",
            encoding="utf-8",
        )
        with pytest.raises(SchemaError, match="extra key 'editor'"):
            load_puzzles(path)

    def test_answer_must_fit_pattern(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(
            "title: t\nurl: u\nauthor: a\nclues:\n"
            "- clue: '{x} y'\n  pattern: '3'\n  answer: TOOLONG\n",
            encoding="utf-8",
        )
        with pytest.raises(SchemaError, match="clue 0"):
            load_puzzles(path)

    def test_unknown_clue_keys_are_ignored(self, tmp_path):
        entry = "title: t\nurl: u\nauthor: a\nclues:\n- clue: '{x} y'\n  pattern: '1'\n"
        plain, noted = tmp_path / "plain.yaml", tmp_path / "noted.yaml"
        plain.write_text(entry, encoding="utf-8")
        noted.write_text(entry + "  setter_note: tricky\n", encoding="utf-8")
        assert load_puzzles(noted) == load_puzzles(plain)

    def test_multi_document_stream(self, sample_path, tmp_path):
        path = tmp_path / "two.yaml"
        path.write_text(SAMPLE + "---\n" + SAMPLE, encoding="utf-8")
        docs = load_puzzles(path)
        assert len(docs) == 2
        assert docs[0] == docs[1] == load_puzzles(sample_path)[0]
