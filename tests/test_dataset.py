from __future__ import annotations

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cryptic_prover import dataset, lexfiles
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

    def test_empty_definition_span(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(
            "title: t\nurl: u\nauthor: a\nclues:\n- clue: '{} y'\n  pattern: '1'\n",
            encoding="utf-8",
        )
        with pytest.raises(SchemaError) as raised:
            load_puzzles(path)
        assert str(raised.value).startswith(f"{path}: clue 0 ")
        assert "bad span offsets" in str(raised.value)

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


def load_with_both_loaders(path):
    """``load_puzzles`` of ``path`` under the pure-Python loader, then under libyaml's."""
    loaded = []
    for loader in (yaml.SafeLoader, yaml.CSafeLoader):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataset, "YAML_LOADER", loader)
            loaded.append(load_puzzles(path))
    return loaded


# Pieces that make the dumper quote, escape or fold a scalar, or that YAML
# reads as a line break (U+0085, U+2028), beside arbitrary characters.
# Braces mark definitions in clue text, so only the other fields get them.
_AWKWARD = ["'", '"', "#", ": ", "\t", "\n", "\x85", "\u2028", "\U0001f600", " "]
_LEADING = ["", "*", "&", "!", "- ", "? ", "%", "@", "|", ">", "'", "#"]
_piece = st.sampled_from(_AWKWARD) | st.characters(
    blacklist_categories=("Cs",), blacklist_characters="{}"
)
_text = st.lists(_piece, max_size=12).map("".join)
_field = st.builds(
    lambda lead, pieces: lead + "".join(pieces),
    st.sampled_from(_LEADING),
    st.lists(_piece | st.sampled_from("{}"), max_size=12),
)


@st.composite
def _puzzle_documents(draw):
    documents = []
    for _ in range(draw(st.integers(1, 2))):
        clues = []
        for _ in range(draw(st.integers(1, 3))):
            answer = draw(st.text("ABCDEFGHIJKLMNOPQRSTUVWXYZ", min_size=1, max_size=8))
            lead = draw(st.sampled_from(_LEADING))
            clue = lead + draw(_text) + "{" + draw(_text.filter(bool)) + "}" + draw(_text)
            clues.append(
                {"clue": clue, "pattern": str(len(answer)), "answer": answer,
                 "ad": draw(st.sampled_from("AD")), "wordplay": draw(_field)}
            )
        documents.append(
            {"title": draw(_field), "url": draw(_field), "author": draw(_field),
             "clues": clues}
        )
    return documents


@pytest.mark.skipif(
    not yaml.__with_libyaml__, reason="PyYAML was built without libyaml: one loader only"
)
class TestLoadersAgree:
    """libyaml's loader and the pure-Python one read puzzle files to equal documents."""

    @settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(documents=_puzzle_documents(), allow_unicode=st.booleans())
    def test_on_dumped_documents(self, tmp_path, documents, allow_unicode):
        path = tmp_path / "puzzles.yaml"
        path.write_text(
            yaml.safe_dump_all(documents, allow_unicode=allow_unicode), encoding="utf-8"
        )
        pure, libyaml = load_with_both_loaders(path)
        assert pure == libyaml

    def test_on_the_worked_examples(self):
        pure, libyaml = load_with_both_loaders(
            lexfiles.seed_path("fixtures/worked_examples.yaml")
        )
        assert pure == libyaml
        assert sum(len(doc.clues) for doc in pure) == 10
