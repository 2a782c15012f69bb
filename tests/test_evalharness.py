"""Scoring, classification, tabulation, and the desk-scale experiment."""

import json
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from unittest.mock import Mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptic_prover import dataset, evalharness, formalize, lexfiles, verifier
from cryptic_prover.candidates import load_embeddings
from cryptic_prover.core import Clue, Pattern
from cryptic_prover.evalharness import (
    FAIL,
    FileAnnotationSource,
    GoldAnnotationSource,
    Method,
    MissingCandidate,
    Outcome,
    QuestionComparison,
    SolveRecord,
    classify,
    compare_records,
    decoy_wordplay,
    definition_span_text,
    load_records,
    render_table,
    run_experiment,
    score_completed,
    score_fastest,
    score_mean,
    tabulate,
)
from cryptic_prover.formalize import MAX_GENERATOR_CALLS, CompilerBackedMock
from cryptic_prover.oracles import seed_lexicon
from cryptic_prover.verifier import definable

rewrites_values = st.one_of(st.integers(0, 5), st.just(FAIL))

# Ids and reasons as a results line must carry them: non-ASCII, line and
# paragraph separators, quotes, backslashes and control characters.  A
# lone surrogate has no UTF-8 form, so no results file can hold one.
record_text = st.text(
    alphabet=st.one_of(
        st.characters(blacklist_categories=("Cs",)),
        st.sampled_from('"\\\u2028\u2029\x00\n\x1f\x7fé€𝄞'),
    ),
    max_size=20,
)


@pytest.fixture(scope="module")
def lexicon():
    return seed_lexicon()


@pytest.fixture(scope="module")
def table():
    return load_embeddings(lexfiles.seed_path("fixtures/embeddings_16d.txt"))


@pytest.fixture(scope="module")
def wordlist():
    return lexfiles.load_wordlist(lexfiles.seed_path("lexicon/wordlist.txt"))


@pytest.fixture(scope="module")
def worked_clues():
    docs = dataset.load_puzzles(lexfiles.seed_path("fixtures/worked_examples.yaml"))
    return [clue for doc in docs for clue in doc.clues]


# A clue-edge span of each fixture clue glossing its decoy, other than the
# braced definition the decoy's own wordplay glosses it with: each decoy
# then passes the definition pre-check and spends all its calls failing.
DECOY_GLOSSES = (
    ("corset", "camera"),
    ("outlaw", "curtain"),
    ("about", "blind"),
    ("away", "blind"),
    ("window covering", "bonce"),
    ("found", "sabotaging"),
    ("we hear", "clip"),
    ("returned", "royal"),
    ("beings", "blind"),
    ("arrived", "corset"),
)


@pytest.fixture(scope="module")
def decoy_lexicon(seed_lexicon_with):
    return seed_lexicon_with(*DECOY_GLOSSES)


@pytest.fixture(scope="module")
def eight_clues():
    docs = dataset.load_puzzles(lexfiles.seed_path("fixtures/worked_examples.yaml"))
    return docs[0].clues


def record(clue_id="q#1", candidate="CAMERA", truth=True, sample=0, rewrites=0, reason=""):
    return SolveRecord(
        clue_id=clue_id,
        candidate=candidate,
        is_ground_truth=truth,
        sample_index=sample,
        rewrites=rewrites,
        reason=reason,
    )


def records_for(clue_id, truth_rewrites, decoy_rewrites):
    records = []
    for i, value in enumerate(truth_rewrites):
        records.append(record(clue_id, "CAMERA", True, i, value))
    for i, value in enumerate(decoy_rewrites):
        records.append(record(clue_id, "CINEMA", False, i, value))
    return records


class TestScoring:
    def test_completed_counts_non_fail_runs(self):
        assert score_completed([0, 2, FAIL, 5, 1]) == 4
        assert score_completed([FAIL, FAIL]) == 0
        assert score_completed([0, 1, 2]) == 3

    def test_fastest_is_the_minimum_solved(self):
        assert score_fastest([3, 1, FAIL]) == 1
        assert score_fastest([FAIL, FAIL]) == 6
        assert score_fastest([0]) == 0

    def test_mean_maps_fail_to_six(self):
        assert score_mean([1, FAIL, 2]) == 3.0
        assert score_mean([FAIL] * 5) == 6.0
        assert score_mean([0] * 5) == 0.0

    def test_scorers_take_rewrite_values_not_records(self):
        # classify passes each record's rewrites; a record itself is no count.
        for scorer in (score_completed, score_fastest, score_mean):
            with pytest.raises(ValueError, match="rewrites out of range"):
                scorer([record(rewrites=1)])

    @pytest.mark.parametrize("scorer", [score_completed, score_fastest, score_mean])
    def test_empty_record_sets_are_rejected(self, scorer):
        with pytest.raises(ValueError, match="no records"):
            scorer([])

    @pytest.mark.parametrize("bad", [6, -1, 3.5, "fail", True])
    def test_out_of_range_rewrites_are_rejected(self, bad):
        with pytest.raises(ValueError, match="rewrites"):
            score_mean([bad])

    @given(st.lists(rewrites_values, min_size=1, max_size=10))
    def test_fastest_never_exceeds_mean_never_exceeds_six(self, values):
        assert score_fastest(values) <= score_mean(values) <= 6


class TestClassify:
    def test_more_completed_proofs_is_a_true_positive(self):
        records = records_for("q#1", [0, 1, 2], [4, FAIL, FAIL])
        result = classify(records, Method.COMPLETED_PROOFS)
        assert result.outcome is Outcome.TRUE_POS
        assert result.clue_id == "q#1"

    def test_equal_fastest_solves_draw(self):
        records = records_for("q#1", [2, 4], [2, 5])
        assert classify(records, Method.FASTEST_SOLVE).outcome is Outcome.DRAW

    def test_slower_mean_is_a_false_negative(self):
        records = records_for("q#1", [4, 4], [2, 2])
        assert classify(records, Method.MEAN_SOLVE_TIME).outcome is Outcome.FALSE_NEG

    def test_lower_is_better_for_rewrite_methods(self):
        records = records_for("q#1", [0], [3])
        assert classify(records, Method.FASTEST_SOLVE).outcome is Outcome.TRUE_POS
        assert classify(records, Method.MEAN_SOLVE_TIME).outcome is Outcome.TRUE_POS

    def test_missing_candidate_is_an_error(self):
        records = [record(truth=True)]
        with pytest.raises(MissingCandidate):
            classify(records, Method.COMPLETED_PROOFS)

    def test_mixed_clues_are_rejected(self):
        records = records_for("q#1", [0], [1]) + records_for("q#2", [0], [1])
        with pytest.raises(ValueError, match="expected one clue"):
            classify(records, Method.COMPLETED_PROOFS)

    @given(
        st.lists(rewrites_values, min_size=1, max_size=5),
        st.lists(rewrites_values, min_size=1, max_size=5),
        st.sampled_from(list(Method)),
    )
    def test_swapping_the_labels_flips_the_outcome(self, truth, decoy, method):
        straight = classify(records_for("q#1", truth, decoy), method).outcome
        swapped = classify(records_for("q#1", decoy, truth), method).outcome
        flips = {
            Outcome.TRUE_POS: Outcome.FALSE_NEG,
            Outcome.DRAW: Outcome.DRAW,
            Outcome.FALSE_NEG: Outcome.TRUE_POS,
        }
        assert swapped is flips[straight]


class TestTabulate:
    @staticmethod
    def comparisons(true_pos, draw, false_neg, method=Method.COMPLETED_PROOFS):
        out = []
        counts = [
            (Outcome.TRUE_POS, true_pos),
            (Outcome.DRAW, draw),
            (Outcome.FALSE_NEG, false_neg),
        ]
        for outcome, count in counts:
            for i in range(count):
                out.append(QuestionComparison(f"q#{len(out)}", method, outcome))
        return out

    def test_the_reference_row(self):
        rows = tabulate(self.comparisons(38, 59, 3))
        assert len(rows) == 1
        assert (rows[0].true_pos, rows[0].draw, rows[0].false_neg) == (38, 59, 3)
        assert rows[0].comparisons == 100

    def test_a_single_comparison_is_all_one_bucket(self):
        rows = tabulate(self.comparisons(1, 0, 0))
        assert (rows[0].true_pos, rows[0].draw, rows[0].false_neg) == (100, 0, 0)

    def test_hand_tallied_mixed_set(self):
        # 6 wins, 3 draws, 1 loss of 10: 60% / 30% / 10%.
        rows = tabulate(self.comparisons(6, 3, 1))
        assert (rows[0].true_pos, rows[0].draw, rows[0].false_neg) == (60, 30, 10)

    def test_methods_tabulate_independently(self):
        mixed = self.comparisons(2, 0, 0) + self.comparisons(
            0, 0, 2, method=Method.FASTEST_SOLVE
        )
        rows = tabulate(mixed)
        by_method = {row.method: row for row in rows}
        assert by_method[Method.COMPLETED_PROOFS].true_pos == 100
        assert by_method[Method.FASTEST_SOLVE].false_neg == 100

    def test_empty_input_is_rejected(self):
        with pytest.raises(ValueError, match="no comparisons"):
            tabulate([])

    @given(st.lists(st.sampled_from(list(Outcome)), min_size=1, max_size=200))
    def test_rows_sum_to_one_hundred_within_rounding(self, outcomes):
        comparisons = [
            QuestionComparison(f"q#{i}", Method.COMPLETED_PROOFS, outcome)
            for i, outcome in enumerate(outcomes)
        ]
        row = tabulate(comparisons)[0]
        assert 99 <= row.true_pos + row.draw + row.false_neg <= 101

    def test_rendered_table_shows_percent_cells(self):
        text = render_table(tabulate(self.comparisons(38, 59, 3)))
        assert "COMPLETED_PROOFS" in text
        assert "38%" in text and "59%" in text and "3%" in text

    def test_rows_are_machine_readable(self):
        row = tabulate(self.comparisons(1, 0, 0))[0]
        assert row.as_dict() == {
            "method": "COMPLETED_PROOFS",
            "true_pos": 100,
            "draw": 0,
            "false_neg": 0,
            "comparisons": 1,
        }


class TestSolveRecord:
    def test_round_trips_through_json(self, tmp_path):
        first = record(rewrites=FAIL, reason="generator down")
        second = record(sample=1, rewrites=4)
        path = tmp_path / "records.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for item in (first, second):
                fh.write(json.dumps(item.to_dict()) + "\n")
        assert load_records(path) == [first, second]

    def test_a_partial_last_line_is_dropped_with_a_warning(self, tmp_path, caplog):
        first = record(rewrites=FAIL, reason="café closed")
        line = json.dumps(first.to_dict(), ensure_ascii=False) + "\n"
        data = line.encode("utf-8")
        path = tmp_path / "records.jsonl"
        cut = data.index("é".encode("utf-8")) + 1  # inside the character
        for tail in (data[:cut], data[:-1], b"{", b"  "):
            path.write_bytes(data + tail)
            caplog.clear()
            assert load_records(path) == [first]
            assert "partial last line" in caplog.text
            assert path.read_bytes() == data + tail

    def test_only_newline_ends_a_record(self, tmp_path):
        # ensure_ascii=False writes U+2028 raw; str.splitlines would split there.
        first = record(rewrites=FAIL, reason="one\u2028two\x1cthree")
        path = tmp_path / "records.jsonl"
        line = json.dumps(first.to_dict(), ensure_ascii=False) + "\n"
        path.write_text(line, encoding="utf-8")
        assert load_records(path) == [first]

    @settings(max_examples=50, deadline=None)
    @given(
        fields=st.lists(st.tuples(record_text, record_text), max_size=4),
        earlier=st.binary(max_size=40),
    )
    def test_appended_records_are_the_json_dumps_lines(self, tmp_path_factory, fields, earlier):
        records = [
            record(clue_id, "CAMERA", bool(i % 2), i, FAIL, reason)
            for i, (clue_id, reason) in enumerate(fields)
        ]
        path = tmp_path_factory.mktemp("append") / "records.jsonl"
        path.write_bytes(earlier)
        evalharness._append_records(path, records)
        lines = "".join(
            json.dumps(item.to_dict(), ensure_ascii=False, sort_keys=True) + "\n"
            for item in records
        )
        assert path.read_bytes() == earlier + lines.encode("utf-8")

    @pytest.mark.parametrize(
        "bad", [b"not json", b'["a list"]', b'{"clue_id": "q"}', b"\xff\xfe"]
    )
    def test_a_malformed_line_names_its_number(self, tmp_path, bad):
        good = json.dumps(record().to_dict()).encode("utf-8") + b"\n"
        path = tmp_path / "records.jsonl"
        path.write_bytes(good + b"\n" + bad + b"\n" + good)
        with pytest.raises(ValueError, match="line 3: malformed record"):
            load_records(path)

    def test_rejects_out_of_band_rewrites(self):
        with pytest.raises(ValueError, match="rewrites"):
            record(rewrites=6)

    def test_rejects_unnormalized_candidates(self):
        with pytest.raises(ValueError, match="normalized"):
            record(candidate="camera")

    def test_rejects_negative_samples(self):
        with pytest.raises(ValueError, match="sample_index"):
            record(sample=-1)

    def test_solved_records_carry_no_reason(self):
        with pytest.raises(ValueError, match="reason"):
            record(rewrites=0, reason="but it worked")


class TestAnnotationSources:
    def test_gold_source_reuses_the_clue_annotation(self, eight_clues):
        clue = eight_clues[0]
        definition, wordplay = GoldAnnotationSource().annotate(clue, clue.gold_answer, 0)
        assert definition == clue.gold_definition
        assert wordplay == clue.gold_wordplay

    def test_gold_source_synthesizes_decoy_wordplay(self, eight_clues):
        clue = eight_clues[0]  # {Chaperone} shredded corset
        _, wordplay = GoldAnnotationSource().annotate(clue, "CAMERA", 2)
        assert wordplay == "CAMERA (Chaperone)"

    def test_gold_source_requires_a_gold_wordplay(self):
        clue = Clue(surface="plain", pattern=Pattern.parse("5"), gold_answer="PLAIN")
        with pytest.raises(LookupError, match="gold wordplay"):
            GoldAnnotationSource().annotate(clue, "PLAIN", 0)

    def test_span_text_falls_back_to_the_surface(self):
        clue = Clue(surface="no braces here", pattern=Pattern.parse("5"))
        assert definition_span_text(clue) == "no braces here"

    def test_decoy_wordplay_normalizes_the_candidate(self, eight_clues):
        assert decoy_wordplay(eight_clues[0], "camera") == "CAMERA (Chaperone)"

    def test_file_source_looks_up_by_key(self, tmp_path, eight_clues):
        clue = eight_clues[0]
        path = tmp_path / "annotations.jsonl"
        entry = {
            "clue_id": clue.clue_id,
            "candidate": "ESCORT",
            "sample_index": 1,
            "definition": clue.gold_definition,
            "wordplay": clue.gold_wordplay,
        }
        path.write_text(json.dumps(entry) + "\n", encoding="utf-8")
        source = FileAnnotationSource.load(path)
        assert source.annotate(clue, "escort", 1) == (
            clue.gold_definition,
            clue.gold_wordplay,
        )
        with pytest.raises(LookupError, match="no annotation"):
            source.annotate(clue, "ESCORT", 2)

    def test_file_source_keeps_a_line_separator_in_a_value(self, tmp_path, eight_clues):
        clue = eight_clues[0]
        path = tmp_path / "annotations.jsonl"
        wordplay = "(corset)* (*shredded\u2028torn)"
        entry = {
            "clue_id": clue.clue_id,
            "candidate": "ESCORT",
            "sample_index": 0,
            "definition": clue.gold_definition,
            "wordplay": wordplay,
        }
        path.write_text(json.dumps(entry, ensure_ascii=False) + "\n", encoding="utf-8")
        source = FileAnnotationSource.load(path)
        assert source.annotate(clue, "ESCORT", 0) == (clue.gold_definition, wordplay)

    @pytest.mark.parametrize("bad", [b"not json", b"\xff\xfe"])
    def test_a_malformed_annotation_line_names_its_number(self, tmp_path, bad):
        path = tmp_path / "annotations.jsonl"
        path.write_bytes(b"\n" + bad + b"\n")
        with pytest.raises(ValueError, match="annotations.jsonl: line 2: malformed record"):
            FileAnnotationSource.load(path)


class TestRunExperiment:
    def run(self, clues, lexicon, table, wordlist, **kwargs):
        kwargs.setdefault("generator", CompilerBackedMock())
        return run_experiment(
            clues, lexicon=lexicon, table=table, wordlist=wordlist, **kwargs
        )

    def test_eight_clue_fixture_yields_eighty_records(
        self, eight_clues, lexicon, table, wordlist
    ):
        records = self.run(eight_clues, lexicon, table, wordlist)
        assert len(records) == 80
        truth = [r for r in records if r.is_ground_truth]
        decoys = [r for r in records if not r.is_ground_truth]
        assert len(truth) == len(decoys) == 40
        assert all(r.rewrites == 0 for r in truth)
        assert all(r.rewrites == FAIL for r in decoys)

    def test_the_mock_experiment_wins_every_method(
        self, eight_clues, lexicon, table, wordlist
    ):
        records = self.run(eight_clues, lexicon, table, wordlist)
        for row in tabulate(compare_records(records)):
            assert (row.true_pos, row.draw, row.false_neg) == (100, 0, 0)

    def test_single_clue_single_sample(self, eight_clues, lexicon, table, wordlist):
        records = self.run(
            eight_clues[:1], lexicon, table, wordlist, samples_per_candidate=1
        )
        assert len(records) == 2
        assert records[0].is_ground_truth and records[0].rewrites == 0

    def test_records_persist_incrementally(
        self, tmp_path, eight_clues, lexicon, table, wordlist
    ):
        path = tmp_path / "results.jsonl"
        records = self.run(
            eight_clues[:3], lexicon, table, wordlist, results_path=path
        )
        assert load_records(path) == records

    def test_resume_skips_finished_work(
        self, tmp_path, eight_clues, lexicon, table, wordlist
    ):
        path = tmp_path / "results.jsonl"
        first = self.run(eight_clues[:2], lexicon, table, wordlist, results_path=path)
        generator = CompilerBackedMock()
        again = self.run(
            eight_clues[:2],
            lexicon,
            table,
            wordlist,
            generator=generator,
            results_path=path,
            resume=True,
        )
        assert generator.calls == 0
        assert again == first

    def test_resume_finishes_a_truncated_run(
        self, tmp_path, eight_clues, lexicon, table, wordlist
    ):
        path = tmp_path / "results.jsonl"
        full = self.run(eight_clues[:2], lexicon, table, wordlist, results_path=path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:7]) + "\n", encoding="utf-8")
        resumed = self.run(
            eight_clues[:2], lexicon, table, wordlist, results_path=path, resume=True
        )
        assert len(resumed) == len(full) == 20
        assert sorted(r.to_dict().items() for r in resumed) == sorted(
            r.to_dict().items() for r in full
        )
        assert len(load_records(path)) == 20

    def test_resume_after_a_cut_at_every_record_boundary(
        self, tmp_path, worked_clues, lexicon, table, wordlist
    ):
        path = tmp_path / "results.jsonl"
        self.run(
            worked_clues, lexicon, table, wordlist, results_path=path, samples_per_candidate=2
        )
        full = path.read_bytes()
        ends = [index + 1 for index, byte in enumerate(full) if byte == ord("\n")]
        assert len(ends) == 40
        for end in [0] + ends:
            path.write_bytes(full[:end])
            self.run(
                worked_clues,
                lexicon,
                table,
                wordlist,
                results_path=path,
                samples_per_candidate=2,
                resume=True,
            )
            assert path.read_bytes() == full, f"cut at byte {end}"

    @settings(max_examples=20, deadline=None)
    @given(cut=st.floats(0, 1, exclude_max=True))
    def test_resume_after_a_cut_inside_a_record(
        self, tmp_path_factory, worked_clues, lexicon, table, wordlist, cut
    ):
        path = tmp_path_factory.mktemp("cut") / "results.jsonl"
        self.run(
            worked_clues, lexicon, table, wordlist, results_path=path, samples_per_candidate=2
        )
        full = path.read_bytes()
        end = int(cut * len(full))
        if full[end - 1 : end] == b"\n":
            end -= 1  # always inside a record; boundaries are tested above
        path.write_bytes(full[:end])
        self.run(
            worked_clues,
            lexicon,
            table,
            wordlist,
            results_path=path,
            samples_per_candidate=2,
            resume=True,
        )
        assert path.read_bytes() == full

    def test_two_runs_on_one_loaded_wordlist_build_the_index_once(
        self, eight_clues, lexicon, wordlist
    ):
        table = load_embeddings(lexfiles.seed_path("fixtures/embeddings_16d.txt"))
        self.run(eight_clues[:2], lexicon, table, wordlist, samples_per_candidate=1)
        index = table._word_index
        assert index[0] is wordlist
        self.run(eight_clues[2:4], lexicon, table, wordlist, samples_per_candidate=1)
        assert table._word_index is index

    @pytest.fixture
    def searches(self, monkeypatch):
        """Counts the decoy searches run_experiment makes."""
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return closest_candidates(*args, **kwargs)

        closest_candidates = evalharness.closest_candidates
        monkeypatch.setattr(evalharness, "closest_candidates", counting)
        return calls

    def test_resuming_a_complete_run_searches_no_decoys(
        self, tmp_path, eight_clues, lexicon, table, wordlist, searches
    ):
        path = tmp_path / "results.jsonl"
        self.run(eight_clues[:3], lexicon, table, wordlist, results_path=path)
        assert len(searches) == 3
        before = path.read_bytes()
        searches.clear()
        self.run(
            eight_clues[:3], lexicon, table, wordlist, results_path=path, resume=True
        )
        assert searches == []
        assert path.read_bytes() == before

    def test_resume_searches_only_the_unfinished_clues(
        self, tmp_path, eight_clues, lexicon, table, wordlist, searches
    ):
        path = tmp_path / "results.jsonl"
        self.run(eight_clues[:3], lexicon, table, wordlist, results_path=path)
        lines = path.read_text().splitlines()
        # The first clue keeps all ten records; the second loses its last decoy.
        path.write_text("\n".join(lines[:19]) + "\n", encoding="utf-8")
        searches.clear()
        resumed = self.run(
            eight_clues[:3], lexicon, table, wordlist, results_path=path, resume=True
        )
        assert len(searches) == 2
        assert len(resumed) == 30

    def test_a_recorded_decoy_failure_counts_as_finished(
        self, tmp_path, eight_clues, lexicon, table, searches
    ):
        clue = next(c for c in eight_clues if c.gold_answer == "UNDERMINED")
        path = tmp_path / "results.jsonl"
        self.run([clue], lexicon, table, ["UNDERMINED"], results_path=path)
        searches.clear()
        again = self.run(
            [clue], lexicon, table, ["UNDERMINED"], results_path=path, resume=True
        )
        assert searches == []
        assert len(again) == 10

    def test_resume_with_a_changed_decoy_fills_only_the_empty_slots(
        self, tmp_path, worked_clues, lexicon, table, wordlist, searches
    ):
        clue = next(c for c in worked_clues if c.gold_answer == "ESCORT")
        path = tmp_path / "results.jsonl"
        self.run([clue], lexicon, table, wordlist, results_path=path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:9]) + "\n", encoding="utf-8")
        searches.clear()
        without_camera = [word for word in wordlist if word != "CAMERA"]
        resumed = self.run(
            [clue], lexicon, table, without_camera, results_path=path, resume=True
        )
        assert len(searches) == 1
        assert load_records(path) == resumed
        assert [(r.candidate, r.sample_index) for r in resumed if not r.is_ground_truth] == [
            ("CAMERA", 0), ("CAMERA", 1), ("CAMERA", 2), ("CAMERA", 3), ("CORSET", 4)
        ]
        assert len(resumed) == 10

    def test_without_resume_the_results_file_is_fresh(
        self, tmp_path, eight_clues, lexicon, table, wordlist
    ):
        path = tmp_path / "results.jsonl"
        path.write_text("not json\n", encoding="utf-8")
        self.run(eight_clues[:1], lexicon, table, wordlist, results_path=path)
        assert len(load_records(path)) == 10

    def test_two_runs_write_byte_identical_results(
        self, tmp_path, eight_clues, lexicon, table, wordlist
    ):
        outputs = []
        for name in ("a.jsonl", "b.jsonl"):
            path = tmp_path / name
            self.run(eight_clues, lexicon, table, wordlist, results_path=path)
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_decoy_generation_failure_becomes_reasoned_fail_records(
        self, eight_clues, lexicon, table
    ):
        clue = next(c for c in eight_clues if c.gold_answer == "UNDERMINED")
        records = self.run(
            [clue], lexicon, table, ["UNDERMINED"], samples_per_candidate=2
        )
        assert len(records) == 4
        decoys = [r for r in records if not r.is_ground_truth]
        assert all(r.rewrites == FAIL for r in decoys)
        assert all("decoy generation failed" in r.reason for r in decoys)
        assert all(r.candidate == "" for r in decoys)

    def test_annotation_errors_become_reasoned_fail_records(
        self, eight_clues, lexicon, table, wordlist
    ):
        records = self.run(
            eight_clues[:1],
            lexicon,
            table,
            wordlist,
            samples_per_candidate=1,
            annotations=FileAnnotationSource([]),
        )
        assert len(records) == 2
        assert all(r.rewrites == FAIL for r in records)
        assert all("no annotation" in r.reason for r in records)

    def test_a_generator_error_propagates(self, eight_clues, lexicon, table, wordlist):
        class BrokenGenerator:
            def generate(self, prompt):
                raise RuntimeError("generator bug")

        with pytest.raises(RuntimeError, match="generator bug"):
            self.run(
                eight_clues[:1], lexicon, table, wordlist, generator=BrokenGenerator()
            )

    def test_a_candidate_no_clue_edge_defines_costs_no_generator_call(
        self, tmp_path, monkeypatch, eight_clues, lexicon, table, wordlist
    ):
        asked = []

        def counting_definable(surface, candidate, lex):
            asked.append((surface, candidate))
            return definable(surface, candidate, lex)

        monkeypatch.setattr(evalharness, "definable", counting_definable)
        generator = CompilerBackedMock()
        clues = eight_clues[:2]
        records = self.run(
            clues,
            lexicon,
            table,
            wordlist,
            generator=generator,
            samples_per_candidate=3,
            transcripts_dir=tmp_path / "tr",
        )
        # Asked once per (clue, candidate), not once per sample.
        by_id = {clue.clue_id: clue.surface for clue in clues}
        assert sorted(asked) == sorted({(by_id[r.clue_id], r.candidate) for r in records})
        decoys = [r for r in records if not r.is_ground_truth]
        assert len(decoys) == 6
        assert all(r.rewrites == FAIL and r.reason == "" for r in decoys)
        assert generator.calls == 6  # the gold samples' first drafts only
        for clue in clues:
            path = tmp_path / "tr" / f"{evalharness._slug(clue.clue_id)}.jsonl"
            _, *lines = map(json.loads, path.read_bytes().splitlines())
            assert [line["candidate"] for line in lines] == [clue.gold_answer] * 3

    def test_transcripts_are_saved_per_clue(
        self, tmp_path, eight_clues, decoy_lexicon, table, wordlist
    ):
        outdir = tmp_path / "transcripts"
        records = self.run(
            eight_clues[:2],
            decoy_lexicon,
            table,
            wordlist,
            samples_per_candidate=2,
            transcripts_dir=outdir,
        )
        for clue in eight_clues[:2]:
            path = outdir / f"{evalharness._slug(clue.clue_id)}.jsonl"
            header, *lines = map(json.loads, path.read_bytes().splitlines())
            assert header == {"prefix": formalize._prompt_prefix()}
            # Each solve's attempts, in the order the clue's slots ran.
            solves = [(line["candidate"], line["sample_index"]) for line in lines]
            assert list(dict.fromkeys(solves)) == [
                (r.candidate, r.sample_index) for r in records if r.clue_id == clue.clue_id
            ]
        assert len(list(outdir.iterdir())) == 2

    def test_a_resume_appends_to_each_clue_transcript(
        self, tmp_path, eight_clues, decoy_lexicon, table, wordlist
    ):
        outdir = tmp_path / "transcripts"

        def run(samples, resume):
            return self.run(
                eight_clues[:2],
                decoy_lexicon,
                table,
                wordlist,
                samples_per_candidate=samples,
                results_path=tmp_path / "results.jsonl",
                transcripts_dir=outdir,
                resume=resume,
            )

        run(2, False)
        first = {path.name: path.read_bytes() for path in outdir.iterdir()}
        run(3, True)
        assert sorted(path.name for path in outdir.iterdir()) == sorted(first)
        for name, before in first.items():
            data = (outdir / name).read_bytes()
            assert data.startswith(before)
            header, *lines = map(json.loads, data.splitlines())
            assert set(header) == {"prefix"}
            assert all("prefix" not in line for line in lines)
            assert len({(line["candidate"], line["sample_index"]) for line in lines}) == 2 * 3

    def test_a_transcript_left_by_a_crash_before_any_record_is_rewritten(
        self, tmp_path, eight_clues, lexicon, table, wordlist
    ):
        clue, other = eight_clues[:2]
        fresh, outdir = tmp_path / "fresh", tmp_path / "transcripts"
        self.run([clue], lexicon, table, wordlist, samples_per_candidate=1, transcripts_dir=fresh)
        # The other clue finished; the crash came after the clue's
        # transcript was written and before its records were.
        results = tmp_path / "results.jsonl"
        self.run([other], lexicon, table, wordlist, samples_per_candidate=1, results_path=results)
        name = f"{evalharness._slug(clue.clue_id)}.jsonl"
        outdir.mkdir()
        (outdir / name).write_bytes((fresh / name).read_bytes() + b'{"response": "cut')
        self.run(
            [clue, other],
            lexicon,
            table,
            wordlist,
            samples_per_candidate=1,
            results_path=results,
            transcripts_dir=outdir,
            resume=True,
        )
        assert (outdir / name).read_bytes() == (fresh / name).read_bytes()
        assert [path.name for path in outdir.iterdir()] == [name]

    def test_a_crash_before_a_resumed_clues_records_leaves_no_stray_attempts(
        self, tmp_path, monkeypatch, eight_clues, decoy_lexicon, table, wordlist
    ):
        clue = eight_clues[0]
        name = f"{evalharness._slug(clue.clue_id)}.jsonl"

        def run(directory, samples, resume):
            return self.run(
                [clue],
                decoy_lexicon,
                table,
                wordlist,
                samples_per_candidate=samples,
                results_path=directory / "results.jsonl",
                transcripts_dir=directory / "tr",
                resume=resume,
            )

        clean, crashed = tmp_path / "clean", tmp_path / "crashed"
        for directory in (clean, crashed):
            directory.mkdir()
            run(directory, 1, False)
        run(clean, 2, True)

        append_records = evalharness._append_records
        calls = []

        def crash_once(path, records):
            calls.append(path)
            if len(calls) == 1:
                raise OSError("disk full")
            append_records(path, records)

        monkeypatch.setattr(evalharness, "_append_records", crash_once)
        with pytest.raises(OSError, match="disk full"):
            run(crashed, 2, True)
        records = run(crashed, 2, True)

        assert len(records) == 4
        data = (crashed / "tr" / name).read_bytes()
        header, *lines = map(json.loads, data.splitlines())
        attempts = Counter((line["candidate"], line["sample_index"]) for line in lines)
        # Each recorded slot's attempts once: one per generator call it made.
        assert attempts == {
            (r.candidate, r.sample_index): MAX_GENERATOR_CALLS if r.rewrites == FAIL else r.rewrites + 1
            for r in records
        }
        assert data == (clean / "tr" / name).read_bytes()

    def test_a_crash_while_cutting_a_transcript_keeps_its_recorded_attempts(
        self, tmp_path, monkeypatch, eight_clues, lexicon, table, wordlist
    ):
        clue = eight_clues[0]
        tr = tmp_path / "tr"
        path = tr / f"{evalharness._slug(clue.clue_id)}.jsonl"

        def run(samples, resume):
            return self.run(
                [clue],
                lexicon,
                table,
                wordlist,
                samples_per_candidate=samples,
                results_path=tmp_path / "results.jsonl",
                transcripts_dir=tr,
                resume=resume,
            )

        run(1, False)
        recorded = path.read_bytes()  # the header and the attempts of every record
        # A resume that crashes before its records leaves stray attempts to cut.
        monkeypatch.setattr(evalharness, "_append_records", Mock(side_effect=OSError("disk full")))
        with pytest.raises(OSError, match="disk full"):
            run(2, True)
        monkeypatch.undo()

        write_bytes = Path.write_bytes

        def write_half_then_crash(self, data):
            if self.parent != tr:
                return write_bytes(self, data)
            write_bytes(self, data[: len(data) // 2])
            raise OSError("power cut")

        monkeypatch.setattr(Path, "write_bytes", write_half_then_crash)
        with pytest.raises(OSError, match="power cut"):
            run(2, True)
        monkeypatch.undo()
        assert path.read_bytes().startswith(recorded)

        records = run(2, True)
        assert len(records) == 4
        assert [p.name for p in tr.iterdir()] == [path.name]

    def test_a_reply_holding_a_lone_surrogate_is_saved_and_replays(
        self, tmp_path, eight_clues, decoy_lexicon, table, wordlist
    ):
        # json.loads makes a lone surrogate of a "\\ud800" escape in a reply.
        reply = "assert x\n# \ud800\n"

        class SurrogateReplies:
            def generate(self, prompt):
                return reply

        outdir = tmp_path / "transcripts"
        results = tmp_path / "results.jsonl"
        records = self.run(
            eight_clues[:2],
            decoy_lexicon,
            table,
            wordlist,
            generator=SurrogateReplies(),
            samples_per_candidate=1,
            results_path=results,
            transcripts_dir=outdir,
        )
        assert load_records(results) == records
        assert len(records) == 4
        for clue in eight_clues[:2]:
            path = outdir / f"{evalharness._slug(clue.clue_id)}.jsonl"
            responses = formalize.load_transcript_responses(path)
            assert responses == [reply] * 2 * MAX_GENERATOR_CALLS
            replay = formalize.ScriptedReplayMock.from_transcript(path)
            again = self.run([clue], decoy_lexicon, table, wordlist, generator=replay,
                             samples_per_candidate=1)
            assert again == [r for r in records if r.clue_id == clue.clue_id]

    def test_clue_ids_sharing_transcript_names_are_refused_before_any_solve(
        self, tmp_path, eight_clues, lexicon, table, wordlist
    ):
        dotted = replace(eight_clues[0], clue_id="p.q#0")
        dashed = replace(eight_clues[0], clue_id="p-q#0")
        generator = CompilerBackedMock()
        with pytest.raises(evalharness.ClueSetError, match="'p.q#0' and 'p-q#0'"):
            self.run(
                [dotted, dashed],
                lexicon,
                table,
                wordlist,
                generator=generator,
                results_path=tmp_path / "results.jsonl",
                transcripts_dir=tmp_path / "transcripts",
            )
        assert generator.calls == 0
        assert not (tmp_path / "results.jsonl").exists()
        # Without transcripts nothing is written under the ids' slugs.
        records = self.run([dotted, dashed], lexicon, table, wordlist, samples_per_candidate=1)
        assert len(records) == 4

    @pytest.fixture
    def verifications(self, monkeypatch):
        """The replies verify_reply checked and the outcomes reported, in order."""
        verified, reported = [], []
        verify_reply, render_failure_report = formalize.verify_reply, formalize.render_failure_report

        def counting_verify(script, lex):
            verified.append(script)
            return verify_reply(script, lex)

        def counting_report(outcome):
            reported.append(outcome)
            return render_failure_report(outcome)

        monkeypatch.setattr(formalize, "verify_reply", counting_verify)
        monkeypatch.setattr(formalize, "render_failure_report", counting_report)
        return verified, reported

    def test_a_clue_verifies_each_distinct_reply_once(
        self, verifications, worked_clues, decoy_lexicon, table, wordlist
    ):
        verified, reported = verifications
        records = self.run(worked_clues, decoy_lexicon, table, wordlist, samples_per_candidate=5)
        assert len(records) == 100
        # Each clue's gold reply proves and its decoy reply fails, five
        # samples each: one verification per reply and one report per decoy.
        assert len(verified) == len(set(verified)) == 20
        assert len(reported) == 10

    def test_verdicts_are_not_shared_between_clues(
        self, verifications, eight_clues, decoy_lexicon, table, wordlist
    ):
        verified, _ = verifications
        twin = replace(eight_clues[0], clue_id=eight_clues[0].clue_id + "-twin")
        self.run([eight_clues[0], twin], decoy_lexicon, table, wordlist, samples_per_candidate=3)
        assert len(verified) == 4
        assert len(set(verified)) == 2

    def test_a_clue_computes_its_definition_span_and_clue_edge_spans_once(
        self, monkeypatch, worked_clues, lexicon, table, wordlist
    ):
        extract_definition = dataset.extract_definition
        from_harness = []

        def counting(annotated):
            # The mock's compiler reads the braces too; count the harness's reads.
            if sys._getframe(1).f_globals["__name__"] == evalharness.__name__:
                from_harness.append(annotated)
            return extract_definition(annotated)

        monkeypatch.setattr(dataset, "extract_definition", counting)
        evalharness._first_span_text.cache_clear()
        verifier.definition_spans.cache_clear()
        records = self.run(worked_clues, lexicon, table, wordlist, samples_per_candidate=5)
        assert len(records) == 100
        # Unmemoised, each clue reads its braces six times (the decoy search
        # and five decoy annotations) and its spans three (two pre-checks
        # and the lint of the gold's one verified proof).
        assert len(from_harness) == len(set(from_harness)) == 10
        assert verifier.definition_spans.cache_info().misses == 10

    def test_worker_pool_matches_the_serial_run(
        self, eight_clues, lexicon, table, wordlist
    ):
        serial = self.run(eight_clues, lexicon, table, wordlist)
        pooled = self.run(eight_clues, lexicon, table, wordlist, max_workers=4)
        assert pooled == serial

    def test_preconditions_are_validated(self, eight_clues, lexicon, table, wordlist):
        with pytest.raises(ValueError, match="at least 1"):
            self.run(eight_clues, lexicon, table, wordlist, samples_per_candidate=0)
        with pytest.raises(ValueError, match="unique"):
            self.run(eight_clues + eight_clues[:1], lexicon, table, wordlist)
        unnamed = Clue(surface="x y z", pattern=Pattern.parse("3"), gold_answer="XYZ")
        with pytest.raises(ValueError, match="clue_id"):
            self.run([unnamed], lexicon, table, wordlist)
        missing_answer = Clue(
            surface="x y z", pattern=Pattern.parse("3"), clue_id="q#9"
        )
        with pytest.raises(ValueError, match="gold answer"):
            self.run([missing_answer], lexicon, table, wordlist)
