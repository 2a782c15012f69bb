"""Compiling annotations into proofs and the generate/verify/rewrite loop."""

import json
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import requests

from cryptic_prover import dataset, formalize, lexfiles, notation
from cryptic_prover.core import Clue, Pattern
from cryptic_prover.formalize import (
    FAIL,
    MAX_GENERATOR_CALLS,
    Attempt,
    CompilerBackedMock,
    GeneratorTranscript,
    GeneratorUnavailable,
    HttpChatGenerator,
    ProofRequest,
    ScriptedReplayMock,
    UnsupportedNode,
    build_prompt,
    compile_wordplay,
    prove_with_rewrites,
    save_transcript,
)
from cryptic_prover.oracles import Lexicon, seed_lexicon
from cryptic_prover.verifier import (
    AssertEquality,
    ProofScript,
    ProofStatus,
    Severity,
    StringLit,
    VerificationOutcome,
    parse_proof,
    render_failure_report,
    render_proof,
    verify,
    verify_reply,
    verify_text,
)


@pytest.fixture(scope="module")
def lexicon():
    return seed_lexicon()


def worked_clues():
    docs = dataset.load_puzzles(lexfiles.seed_path("fixtures/worked_examples.yaml"))
    return [clue for doc in docs for clue in doc.clues]


def request_for(clue: Clue) -> ProofRequest:
    return ProofRequest(
        clue=clue,
        candidate_answer=clue.gold_answer,
        definition=clue.gold_definition,
        wordplay=clue.gold_wordplay,
    )


def compile_clue(clue: Clue):
    node = notation.parse_wordplay(clue.gold_wordplay)
    return compile_wordplay(node, request_for(clue))


CAMERA = Clue(
    surface="arrived with an artist, to get optical device",
    pattern=Pattern.parse("6"),
    gold_answer="CAMERA",
    gold_definition="arrived with an artist, to get {optical device}",
    gold_wordplay="CAME (arrived) + RA (artist, short form)",
)


# -- deterministic compilation ---------------------------------------------


class TestCompile:
    def test_camera_emits_the_expected_four_statements(self):
        proof = compile_clue(CAMERA)
        lines = render_proof(proof).splitlines()
        assert lines[3:] == [
            "assert is_synonym('arrived', 'CAME')",
            "assert is_abbreviation('artist', 'RA')",
            "assert 'CAME' + 'RA' == 'CAMERA'",
            "assert is_synonym('optical device', 'CAMERA', pattern='6')",
        ]

    def test_header_carries_the_clue_fields(self):
        proof = compile_clue(CAMERA)
        assert proof.answer == "CAMERA"
        assert proof.clue == CAMERA.surface
        assert proof.pattern == CAMERA.pattern
        assert proof.definition == CAMERA.gold_definition
        assert proof.wordplay == CAMERA.gold_wordplay

    @pytest.mark.parametrize("clue", worked_clues(), ids=lambda c: c.gold_answer)
    def test_every_worked_example_compiles_and_proves(self, clue, lexicon):
        outcome = verify(compile_clue(clue), lexicon)
        assert outcome.status is ProofStatus.PROVED
        assert not any(lint.severity is Severity.FATAL for lint in outcome.lints)

    @pytest.mark.parametrize("clue", worked_clues(), ids=lambda c: c.gold_answer)
    def test_compiled_proofs_round_trip_through_the_grammar(self, clue):
        proof = compile_clue(clue)
        assert parse_proof(render_proof(proof)) == proof

    def test_anagram_asserts_the_indicator_and_the_letters(self):
        clue = next(c for c in worked_clues() if c.gold_answer == "ESCORT")
        text = render_proof(compile_clue(clue))
        assert "assert action_type('shredded', Action.ANAGRAM)" in text
        assert "assert is_anagram('CORSET', 'ESCORT')" in text

    def test_container_asserts_the_split_concatenation(self):
        clue = next(c for c in worked_clues() if c.gold_answer == "VOICE")
        text = render_proof(compile_clue(clue))
        assert "assert 'V' + 'O' + 'ICE' == 'VOICE'" in text
        assert "assert action_type('about', Action.GOES_OUTSIDE)" in text

    def test_hidden_asserts_span_and_word_decomposition(self):
        clue = next(c for c in worked_clues() if c.gold_answer == "UNDERMINED")
        text = render_proof(compile_clue(clue))
        assert "hidden_span('found ermine deer', 'UNDERMINED') == 'UNDERMINED'" in text
        assert "assert 'UND' + 'ERMINE' + 'D' == 'UNDERMINED'" in text

    def test_hidden_splits_at_the_bracketed_occurrence(self, seed_lexicon_with):
        # The first ANA in "ANANAX" lies inside "anan"; the brackets mark
        # the one that runs into "ax".
        annotation = "[an]AN A[x] (hides)"
        request = ProofRequest(
            clue=Clue(surface="Banana axe hides answer", pattern=Pattern.parse("3")),
            candidate_answer="ANA",
            definition="Banana axe hides {answer}",
            wordplay=annotation,
        )
        proof = compile_wordplay(notation.parse_wordplay(annotation), request)
        assert "assert 'AN' + 'A' == 'ANA'" in render_proof(proof).splitlines()
        lexicon = seed_lexicon_with(("answer", "ana"))
        assert verify(proof, lexicon).status is ProofStatus.PROVED

    def test_reversal_reverses_the_letters_its_operand_resolved_to(self, seed_lexicon_with):
        # The anagram resolves to ESCORT; reversing its unpermuted CORSET
        # would not give the answer.
        annotation = "((corset)* (*shredded))< (<back)"
        request = ProofRequest(
            clue=Clue(surface="Shredded corset back, gibberish", pattern=Pattern.parse("6")),
            candidate_answer="TROCSE",
            definition="Shredded corset back, {gibberish}",
            wordplay=annotation,
        )
        proof = compile_wordplay(notation.parse_wordplay(annotation), request)
        assert "assert reverse('ESCORT') == 'TROCSE'" in render_proof(proof).splitlines()
        lexicon = seed_lexicon_with(("gibberish", "trocse"))
        assert verify(proof, lexicon).status is ProofStatus.PROVED

    def test_homophone_asserts_origin_indicator_and_sound(self):
        clue = next(c for c in worked_clues() if c.gold_answer == "PARE")
        text = render_proof(compile_clue(clue))
        assert "assert is_synonym('twins', 'PAIR')" in text
        assert "assert action_type('we hear', Action.HOMOPHONE)" in text
        assert "assert is_homophone('pair', 'PARE')" in text

    def test_deletion_nests_one_drop_per_removed_letter(self):
        clue = next(c for c in worked_clues() if c.gold_answer == "DELVE")
        text = render_proof(compile_clue(clue))
        assert "assert initials('done') == 'D'" in text
        assert "assert drop_last('ELVES') == 'ELVE'" in text
        assert "assert 'D' + 'ELVE' == 'DELVE'" in text

    def test_double_definition_checks_each_span_against_the_pattern(self):
        clue = next(c for c in worked_clues() if c.gold_answer == "BLIND")
        proof = compile_clue(clue)
        assert [render_proof(proof).splitlines()[-2], render_proof(proof).splitlines()[-1]] == [
            "assert is_synonym('Not seeing', 'BLIND', pattern='5')",
            "assert is_synonym('window covering', 'BLIND', pattern='5')",
        ]
        assert len(proof.statements) == 2

    def test_reversal_uses_the_reverse_builtin(self):
        clue = next(c for c in worked_clues() if c.gold_answer == "REGAL")
        text = render_proof(compile_clue(clue))
        assert "assert reverse('LAGER') == 'REGAL'" in text

    def test_decoy_wordplay_compiles_to_an_honestly_failing_proof(self, lexicon):
        request = ProofRequest(
            clue=CAMERA,
            candidate_answer="CINEMA",
            definition=CAMERA.gold_definition,
            wordplay="DECOY (optical device)",
        )
        proof = compile_wordplay(notation.parse_wordplay(request.wordplay), request)
        text = render_proof(proof)
        assert "assert 'DECOY' == 'CINEMA'" in text
        outcome = verify(proof, lexicon)
        assert outcome.status is ProofStatus.FAILED
        assert len(outcome.failures) >= 2

    def test_wrong_candidate_still_compiles_but_fails(self, lexicon):
        clue = next(c for c in worked_clues() if c.gold_answer == "BANKING")
        request = ProofRequest(
            clue=clue,
            candidate_answer="BANKERS",
            definition=clue.gold_definition,
            wordplay=clue.gold_wordplay,
        )
        proof = compile_wordplay(notation.parse_wordplay(request.wordplay), request)
        assert "assert 'BAN' + 'KING' == 'BANKERS'" in render_proof(proof)
        assert verify(proof, lexicon).status is ProofStatus.FAILED

    def test_inner_deletion_is_not_expressible(self):
        node = notation.parse_wordplay("CO[a]T (jacket)")
        request = ProofRequest(
            clue=Clue(surface="jacket cot", pattern=Pattern.parse("3")),
            candidate_answer="COT",
            definition="{jacket} cot",
            wordplay="CO[a]T (jacket)",
        )
        with pytest.raises(UnsupportedNode):
            compile_wordplay(node, request)

    def test_request_rejects_a_candidate_that_cannot_fit(self):
        with pytest.raises(ValueError, match="does not fit"):
            ProofRequest(
                clue=CAMERA,
                candidate_answer="LENS",
                definition=CAMERA.gold_definition,
                wordplay=CAMERA.gold_wordplay,
            )


# -- prompt assembly ---------------------------------------------------------


class TestPrompts:
    def test_sections_appear_in_order(self):
        prompt = build_prompt(request_for(CAMERA))
        sections = [
            lexfiles.seed_path("prompts/preamble.txt").read_text().strip()[:40],
            lexfiles.seed_path("prompts/wordplay_examples.txt").read_text().strip()[:40],
            lexfiles.seed_path("prompts/functions.txt").read_text().strip()[:40],
            lexfiles.seed_path("prompts/fewshot.txt").read_text().strip()[:40],
            lexfiles.seed_path("prompts/instruction.txt").read_text().strip()[:40],
        ]
        positions = [prompt.index(section) for section in sections]
        assert positions == sorted(positions)
        assert prompt.rstrip("\n").endswith(request_for(CAMERA).block)

    def test_request_block_is_a_header_with_docstring_lines(self):
        block = request_for(CAMERA).block
        lines = block.splitlines()
        assert lines[0].startswith("proof answer='CAMERA' ")
        assert lines[1] == f"definition: {CAMERA.gold_definition}"
        assert lines[2] == f"wordplay: {CAMERA.gold_wordplay}"

    def test_initial_prompt_omits_the_rewrite_machinery(self):
        prompt = build_prompt(request_for(CAMERA))
        assert "re-implement the SOLUTION" not in prompt
        assert "AssertionError" not in prompt

    def test_rewrite_prompt_appends_script_then_report(self):
        bad_script = 'proof answer="CAMERA" clue="x" pattern="6"\nassert \'A\' == \'B\'\n'
        report = "AssertionError: something went wrong\n\n# fix it:\n"
        prompt = build_prompt(
            request_for(CAMERA), failure_report=report, previous_script=bad_script
        )
        assert prompt.endswith(
            request_for(CAMERA).block
            + "\n\n"
            + bad_script.rstrip("\n")
            + "\n\n"
            + report.rstrip("\n")
            + "\n"
        )

    def test_empty_report_means_no_rewrite_sections(self):
        assert build_prompt(request_for(CAMERA), failure_report="") == build_prompt(
            request_for(CAMERA)
        )

    def test_prompts_are_byte_stable(self):
        assert build_prompt(request_for(CAMERA)) == build_prompt(request_for(CAMERA))

    def test_prompts_equal_the_section_by_section_join(self, lexicon):
        def joined(request, failure_report=None, previous_script=None):
            names = ["preamble", "wordplay_examples", "functions", "fewshot", "instruction"]
            sections = [
                lexfiles.seed_path(f"prompts/{name}.txt").read_text(encoding="utf-8").rstrip("\n")
                for name in names
            ]
            header = ProofScript(
                answer=request.candidate_answer,
                clue=request.clue.surface,
                pattern=request.clue.pattern,
                definition=request.definition,
                wordplay=request.wordplay,
            )
            sections.append(render_proof(header).rstrip("\n"))
            if failure_report:
                if previous_script:
                    sections.append(previous_script.rstrip("\n"))
                sections.append(failure_report.rstrip("\n"))
            return "\n\n".join(sections) + "\n"

        prompts = 0
        for clue in worked_clues():
            request = request_for(clue)
            spoiled = render_proof(compile_clue(clue)) + "assert 'QQ' == 'ZZ'\n"
            report = render_failure_report(verify_text(spoiled, lexicon))
            assert build_prompt(request) == joined(request)
            assert build_prompt(request, report, spoiled) == joined(request, report, spoiled)
            prompts += 2
        assert prompts == 20

    def test_a_request_renders_its_block_once(self, lexicon, monkeypatch):
        request = request_for(CAMERA)
        report = render_failure_report(verify_text("garbage\n", lexicon))
        # Each prompt as rendered from a fresh copy of the request.
        expected = [build_prompt(replace(request))] + [
            build_prompt(replace(request), report, "garbage\n")
        ] * (MAX_GENERATOR_CALLS - 1)
        rendered = []

        def counting_render(script):
            rendered.append(script)
            return render_proof(script)

        monkeypatch.setattr(formalize, "render_proof", counting_render)
        replay = ScriptedReplayMock(["garbage\n"] * MAX_GENERATOR_CALLS)
        transcript = prove_with_rewrites(request, replay, lexicon)
        assert [attempt.prompt for attempt in transcript.attempts] == expected
        assert len(rendered) == 1


# -- the rewrite loop --------------------------------------------------------


class TestRewriteLoop:
    def test_clean_generator_succeeds_without_rewrites(self, lexicon):
        transcript = prove_with_rewrites(request_for(CAMERA), CompilerBackedMock(), lexicon)
        assert transcript.rewrites_used == 0
        assert transcript.solved
        assert len(transcript.attempts) == 1
        assert transcript.attempts[0].outcome.status is ProofStatus.PROVED

    def test_three_spoiled_drafts_cost_three_rewrites(self, lexicon):
        generator = CompilerBackedMock(fail_first=3)
        transcript = prove_with_rewrites(request_for(CAMERA), generator, lexicon)
        assert transcript.rewrites_used == 3
        assert len(transcript.attempts) == 4
        statuses = [a.outcome.status for a in transcript.attempts]
        assert statuses == [ProofStatus.FAILED] * 3 + [ProofStatus.PROVED]

    def test_rewrite_prompts_carry_the_previous_failure(self, lexicon):
        generator = CompilerBackedMock(fail_first=1)
        transcript = prove_with_rewrites(request_for(CAMERA), generator, lexicon)
        second = transcript.attempts[1].prompt
        assert "assert 'QQ' == 'ZZ'" in second
        assert "left side evaluates to 'QQ', right side to 'ZZ'" in second
        assert second.rstrip("\n").endswith("return the whole proof:")

    def test_never_succeeding_generator_stops_after_six_calls(self, lexicon):
        generator = CompilerBackedMock(fail_first=100)
        transcript = prove_with_rewrites(request_for(CAMERA), generator, lexicon)
        assert transcript.rewrites_used == "FAIL"
        assert not transcript.solved
        assert len(transcript.attempts) == MAX_GENERATOR_CALLS
        assert generator.calls == MAX_GENERATOR_CALLS

    def test_unavailable_generator_fails_with_a_reason(self, lexicon):
        transcript = prove_with_rewrites(
            request_for(CAMERA), ScriptedReplayMock([]), lexicon
        )
        assert transcript.rewrites_used == "FAIL"
        assert transcript.attempts == ()
        assert "exhausted" in transcript.failure_reason

    def test_scripted_mock_replays_to_success_on_the_chosen_lap(self, lexicon):
        good = render_proof(compile_clue(CAMERA))
        bad = good + "assert 'QQ' == 'ZZ'\n"
        transcript = prove_with_rewrites(
            request_for(CAMERA), ScriptedReplayMock([bad, bad, bad, good]), lexicon
        )
        assert transcript.rewrites_used == 3
        assert len(transcript.attempts) == 4

    def test_mock_answers_garbage_prompts_with_a_failing_stub(self, lexicon):
        response = CompilerBackedMock().generate("no request here at all")
        assert verify_text(response, lexicon).status is not ProofStatus.PROVED

    def test_a_repeated_reply_is_verified_once(self, lexicon, monkeypatch):
        good = render_proof(compile_clue(CAMERA))
        a = good + "assert 'QQ' == 'ZZ'\n"
        b = good + "assert 'AB' == 'CD'\n"
        replies = [a, a, b, a, b, b]
        verified, reported = [], []

        def counting_verify(script, lex):
            verified.append(script)
            return verify_reply(script, lex)

        def counting_report(outcome):
            reported.append(outcome)
            return render_failure_report(outcome)

        monkeypatch.setattr(formalize, "verify_reply", counting_verify)
        monkeypatch.setattr(formalize, "render_failure_report", counting_report)
        request = request_for(CAMERA)
        transcript = prove_with_rewrites(request, ScriptedReplayMock(replies), lexicon)

        assert verified == [a, b]
        assert len(reported) == 2
        assert transcript.rewrites_used == "FAIL"
        # What the loop gave before it kept verdicts: every reply verified
        # afresh, every rewrite prompt carrying that reply's report.
        outcomes = [verify_text(reply, lexicon) for reply in replies]
        assert [attempt.outcome for attempt in transcript.attempts] == outcomes
        assert [attempt.response for attempt in transcript.attempts] == replies
        prompts = [build_prompt(request)] + [
            build_prompt(request, render_failure_report(outcome), reply)
            for reply, outcome in zip(replies, outcomes)
        ]
        assert [attempt.prompt for attempt in transcript.attempts] == prompts[:-1]

    def test_a_shared_verdict_memo_verifies_a_repeated_reply_once(
        self, lexicon, monkeypatch
    ):
        verified = []

        def counting_verify(script, lex):
            verified.append(script)
            return verify_reply(script, lex)

        monkeypatch.setattr(formalize, "verify_reply", counting_verify)
        verdicts = {}
        request = request_for(CAMERA)
        first = prove_with_rewrites(request, CompilerBackedMock(), lexicon, verdicts=verdicts)
        again = prove_with_rewrites(request, CompilerBackedMock(), lexicon, verdicts=verdicts)
        alone = prove_with_rewrites(request, CompilerBackedMock(), lexicon)
        reply = render_proof(compile_clue(CAMERA))
        assert verified == [reply, reply]
        assert list(verdicts) == [reply]
        assert first == again == alone

    def test_a_gold_proof_replayed_for_the_decoy_fails_in_a_shared_memo(self, lexicon):
        escort = next(clue for clue in worked_clues() if clue.gold_answer == "ESCORT")
        gold = request_for(escort)
        decoy = ProofRequest(escort, "CAMERA", escort.gold_definition, "CAMERA (Chaperone)")
        reply = render_proof(compile_clue(escort))
        for order in ((gold, decoy), (decoy, gold)):
            verdicts = {}
            transcripts = {
                request.candidate_answer: prove_with_rewrites(
                    request, ScriptedReplayMock([reply] * 6), lexicon, verdicts=verdicts
                )
                for request in order
            }
            assert list(verdicts) == [reply]  # verified once, for both requests
            assert transcripts["ESCORT"].rewrites_used == 0
            assert transcripts["CAMERA"].rewrites_used == FAIL
            for attempt in transcripts["CAMERA"].attempts:
                assert attempt.outcome.status is ProofStatus.FAILED
                assert attempt.failure_report.startswith(
                    "AssertionError: assert the proof header matches the request : "
                    "the reply has answer='ESCORT', the request answer='CAMERA'\n"
                )

    def test_a_reply_for_another_clue_or_pattern_fails(self, lexicon):
        reply = render_proof(compile_clue(CAMERA))
        moved = replace(CAMERA, surface=CAMERA.surface + "!", gold_definition=None)
        longer = replace(CAMERA, pattern=Pattern.parse("3,3"), gold_definition=None)
        for clue, field in ((moved, "clue"), (longer, "pattern")):
            transcript = prove_with_rewrites(
                request_for(clue), ScriptedReplayMock([reply] * 6), lexicon
            )
            assert transcript.rewrites_used == FAIL
            first = transcript.attempts[0].failure_report.splitlines()[0]
            assert first.startswith("AssertionError: assert the proof header matches the request")
            assert f"the reply has {field}=" in first and "answer=" not in first

    def test_mock_spoils_exactly_fail_first_replies_across_threads(self):
        generator = CompilerBackedMock(fail_first=40)
        prompt = build_prompt(request_for(CAMERA))
        replies = []

        def work():
            for _ in range(25):
                replies.append(generator.generate(prompt))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(replies) == generator.calls == 200
        assert sum("'QQ' == 'ZZ'" in reply for reply in replies) == 40

    @pytest.mark.parametrize("clue", worked_clues(), ids=lambda c: c.gold_answer)
    def test_mock_reads_the_request_from_draft_and_rewrite_prompts(self, clue, lexicon):
        expected = render_proof(compile_clue(clue))
        spoiled = expected + "assert 'QQ' == 'ZZ'\n"
        report = render_failure_report(verify_text(spoiled, lexicon))
        draft = build_prompt(request_for(clue))
        rewrite = build_prompt(request_for(clue), failure_report=report, previous_script=spoiled)
        assert CompilerBackedMock().generate(draft) == expected
        assert CompilerBackedMock().generate(rewrite) == expected

    def test_mock_reads_a_clue_holding_an_apostrophe(self):
        clue = next(clue for clue in worked_clues() if "'" in clue.surface)
        reply = CompilerBackedMock().generate(build_prompt(request_for(clue)))
        assert parse_proof(reply).clue == clue.surface
        assert reply == render_proof(compile_clue(clue))


def fresh_seed_lexicon() -> Lexicon:
    """The packaged tables in a new Lexicon, which no memo has seen yet."""
    return Lexicon.from_files(**lexfiles.seed_lexicon_files())


def mock_prompts(lexicon):
    """Draft and rewrite prompts for every worked clue, then malformed ones."""
    prompts = []
    for clue in worked_clues():
        spoiled = render_proof(compile_clue(clue)) + "assert 'QQ' == 'ZZ'\n"
        report = render_failure_report(verify_text(spoiled, lexicon))
        prompts.append(build_prompt(request_for(clue)))
        prompts.append(build_prompt(request_for(clue), report, spoiled))
    unparseable = request_for(CAMERA)
    prompts.append("no request here at all")
    prompts.append(build_prompt(replace(unparseable, wordplay="CAME (arrived")))
    return prompts


def unmemoised_reply(prompt: str, lexicon, spoil: bool) -> str:
    """The mock's reply as it was before the request memo: every call reads,
    compiles and renders its request afresh."""
    header, *below = prompt[prompt.rfind("\nproof") + 1 :].split("\n")
    fields = [
        line for line in below if line.lstrip().startswith(("definition:", "wordplay:"))
    ]
    try:
        asked = parse_proof("\n".join([header, *fields]))
        request = ProofRequest(
            clue=Clue(surface=asked.clue, pattern=asked.pattern),
            candidate_answer=asked.answer,
            definition=asked.definition or asked.clue,
            wordplay=asked.wordplay,
        )
        script = compile_wordplay(notation.parse_wordplay(asked.wordplay, lexicon), request)
    except ValueError as error:
        return (
            f'proof answer="X" clue="unparseable request" pattern="1"\n'
            f"# {type(error).__name__}\n"
        )
    if spoil:
        spoiler = AssertEquality(StringLit("QQ"), StringLit("ZZ"))
        script = replace(script, statements=script.statements + (spoiler,))
    return render_proof(script)


class TestMockMemo:
    def test_each_distinct_request_is_parsed_and_compiled_once(self, monkeypatch):
        lexicon = fresh_seed_lexicon()
        prompts = mock_prompts(lexicon)
        parsed, compiled = [], []
        parse_wordplay, compile_ = notation.parse_wordplay, formalize.compile_wordplay

        def counting_parse(text, lex=None):
            parsed.append(text)
            return parse_wordplay(text, lex)

        def counting_compile(node, request):
            compiled.append(request)
            return compile_(node, request)

        monkeypatch.setattr(notation, "parse_wordplay", counting_parse)
        monkeypatch.setattr(formalize, "compile_wordplay", counting_compile)
        first, second = CompilerBackedMock(lexicon=lexicon), CompilerBackedMock(lexicon=lexicon)
        replies = [mock.generate(prompt) for mock in (first, second, first) for prompt in prompts]

        # A clue's draft and rewrite prompts carry one request; the unparseable
        # wordplay is parsed once, and "no request" never reaches the parser.
        assert len(parsed) == len(worked_clues()) + 1
        assert len(compiled) == len(worked_clues())
        assert replies == [unmemoised_reply(p, lexicon, False) for p in prompts] * 3
        assert first.calls == 2 * len(prompts) and second.calls == len(prompts)

    @pytest.mark.parametrize("fail_first", [0, 3, 25, 100])
    def test_replies_match_the_unmemoised_mock_call_for_call(self, fail_first):
        lexicon = fresh_seed_lexicon()
        prompts = mock_prompts(lexicon) * 3
        mock = CompilerBackedMock(fail_first=fail_first, lexicon=lexicon)
        for call, prompt in enumerate(prompts):
            expected = unmemoised_reply(prompt, lexicon, call < fail_first)
            assert mock.generate(prompt) == expected, f"call {call}"
        assert mock.calls == len(prompts)


class TestTranscript:
    def test_solved_transcript_counts_attempts(self):
        with pytest.raises(ValueError, match="one attempt per call"):
            GeneratorTranscript(attempts=(), rewrites_used=0)

    def test_rewrites_used_is_bounded(self):
        with pytest.raises(ValueError, match="out of range"):
            GeneratorTranscript(attempts=(), rewrites_used=MAX_GENERATOR_CALLS)

    def test_rewrites_used_rejects_other_strings(self):
        with pytest.raises(ValueError, match="0..5 or 'FAIL'"):
            GeneratorTranscript(attempts=(), rewrites_used="NOPE")

    def test_exhausted_transcript_needs_all_attempts_or_a_reason(self):
        with pytest.raises(ValueError, match="all six"):
            GeneratorTranscript(attempts=(), rewrites_used="FAIL")
        GeneratorTranscript(attempts=(), rewrites_used="FAIL", failure_reason="down")

    def test_save_and_replay_round_trip(self, tmp_path, lexicon):
        generator = CompilerBackedMock(fail_first=2)
        transcript = prove_with_rewrites(request_for(CAMERA), generator, lexicon)
        path = tmp_path / "camera.jsonl"
        save_transcript([(request_for(CAMERA), transcript)], path)

        header, *records = [json.loads(line) for line in path.read_text().splitlines()]
        assert header == {"prefix": formalize._prompt_prefix()}
        assert [r["status"] for r in records] == ["FAILED", "FAILED", "PROVED"]
        assert records[0]["failure_report"]
        assert records[-1]["failure_report"] == ""

        replay = ScriptedReplayMock.from_transcript(path)
        again = prove_with_rewrites(request_for(CAMERA), replay, lexicon)
        assert again.rewrites_used == transcript.rewrites_used

    def test_saved_transcript_renders_each_attempt_report(self, tmp_path, lexicon):
        good = render_proof(compile_clue(CAMERA))
        bad = good + "assert 'QQ' == 'ZZ'\n"
        replay = ScriptedReplayMock([bad, bad, "garbage\n", bad, good])
        transcript = prove_with_rewrites(request_for(CAMERA), replay, lexicon)
        path = tmp_path / "camera.jsonl"
        save_transcript([(request_for(CAMERA), transcript)], path)
        # A header holding the prefix, then one report rendered per attempt.
        prefix = formalize._prompt_prefix()
        expected = [json.dumps({"prefix": prefix}, ensure_ascii=False)]
        for attempt in transcript.attempts:
            proved = attempt.outcome.status is ProofStatus.PROVED
            record = {
                "candidate": "CAMERA",
                "sample_index": 0,
                "prompt_tail": attempt.prompt.removeprefix(prefix),
                "response": attempt.response,
                "status": attempt.outcome.status.name,
                "failure_report": "" if proved else render_failure_report(attempt.outcome),
            }
            expected.append(json.dumps(record, ensure_ascii=False, sort_keys=True))
        assert path.read_text(encoding="utf-8") == "\n".join(expected) + "\n"

    def test_a_reply_holding_a_line_separator_replays(self, tmp_path, lexicon):
        # save_transcript writes U+2028 raw; str.splitlines would split there.
        good = render_proof(compile_clue(CAMERA)) + "# one\u2028two\x1cthree\n"
        bad = good + "assert 'QQ' == 'ZZ'\n"
        transcript = prove_with_rewrites(
            request_for(CAMERA), ScriptedReplayMock([bad, good]), lexicon
        )
        path = tmp_path / "camera.jsonl"
        save_transcript([(request_for(CAMERA), transcript)], path)
        assert formalize.load_transcript_responses(path) == [bad, good]
        replay = ScriptedReplayMock.from_transcript(path)
        assert prove_with_rewrites(request_for(CAMERA), replay, lexicon).rewrites_used == 1

    def test_a_malformed_transcript_line_names_its_number(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_bytes(b'{"prefix": "p"}\n\n{"response": \n')
        with pytest.raises(ValueError, match="broken.jsonl: line 3: malformed record"):
            ScriptedReplayMock.from_transcript(path)

    @pytest.mark.parametrize(
        "data, line, key",
        [
            (b"", 1, "prefix"),
            (b'{"response": "a"}\n', 1, "prefix"),
            (b'{"prefix": "p"}\n{"response": "a"}\n{"prompt_tail": "t"}\n', 3, "response"),
        ],
    )
    def test_a_transcript_needs_its_header_and_each_response(self, tmp_path, data, line, key):
        path = tmp_path / "broken.jsonl"
        path.write_bytes(data)
        with pytest.raises(
            lexfiles.RecordError, match=f"broken.jsonl: line {line}: .*missing key '{key}'"
        ):
            formalize.load_transcript_responses(path)

    def test_appending_adds_attempt_lines_but_no_second_header(self, tmp_path, lexicon):
        requests = [replace(request_for(CAMERA), sample_index=i) for i in range(2)]
        solves = [
            (request, prove_with_rewrites(request, CompilerBackedMock(fail_first=1), lexicon))
            for request in requests
        ]
        path = tmp_path / "camera.jsonl"
        save_transcript(solves[:1], path)
        save_transcript(solves[1:], path, append=True)
        both = path.read_bytes()
        save_transcript(solves, path)
        assert path.read_bytes() == both
        lines = [json.loads(line) for line in both.decode("utf-8").splitlines()]
        assert [line.get("sample_index") for line in lines] == [None, 0, 0, 1, 1]

    def test_saved_transcripts_are_byte_identical_across_runs(self, tmp_path, lexicon):
        paths = []
        for name in ("one.jsonl", "two.jsonl"):
            transcript = prove_with_rewrites(
                request_for(CAMERA), CompilerBackedMock(fail_first=1), lexicon
            )
            path = tmp_path / name
            save_transcript([(request_for(CAMERA), transcript)], path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]


# Text that JSON must escape, or that a careless writer might: quotes,
# backslashes, control characters, U+2028 and non-ASCII.  Surrogates are
# left out: UTF-8 cannot hold them, so json.dumps output is not the reference.
_TRICKY_TEXT = st.text(
    alphabet=st.one_of(
        st.characters(exclude_categories=("Cs",)),
        st.sampled_from('"\\/\x00\x1f\x7f\n\r\t\u2028\u2029\u00e9\U0001f600'),
    ),
    max_size=40,
)

# An attempt's fields: prompt tail, response, status and failure report.
_ATTEMPT_FIELDS = st.tuples(_TRICKY_TEXT, _TRICKY_TEXT, st.sampled_from(ProofStatus), _TRICKY_TEXT)


def _exhausted(attempts) -> GeneratorTranscript:
    return GeneratorTranscript(tuple(attempts), "FAIL", failure_reason="generated")


class TestTranscriptWriter:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 9), st.lists(_ATTEMPT_FIELDS, max_size=MAX_GENERATOR_CALLS)),
            max_size=3,
        )
    )
    def test_lines_are_json_dumps_of_each_record(self, tmp_path_factory, solves):
        prefix = formalize._prompt_prefix()
        saved = [
            (
                replace(request_for(CAMERA), sample_index=sample),
                _exhausted(
                    Attempt(prefix + tail, response, VerificationOutcome(status), report)
                    for tail, response, status, report in fields
                ),
            )
            for sample, fields in solves
        ]
        path = tmp_path_factory.getbasetemp() / "writer.jsonl"
        save_transcript(saved, path)
        attempts = [
            (request, attempt) for request, transcript in saved for attempt in transcript.attempts
        ]
        expected = [json.dumps({"prefix": prefix}, ensure_ascii=False)] + [
            json.dumps(
                {
                    "candidate": request.candidate_answer,
                    "sample_index": request.sample_index,
                    "prompt_tail": attempt.prompt[len(prefix) :],
                    "response": attempt.response,
                    "status": attempt.outcome.status.name,
                    "failure_report": attempt.failure_report,
                },
                ensure_ascii=False,
                sort_keys=True,
            )
            for request, attempt in attempts
        ]
        data = path.read_bytes()
        assert data == ("\n".join(expected) + "\n").encode("utf-8")
        # Every attempt can be rebuilt from the file, its prompt included.
        header, *lines = (json.loads(line) for line in data.split(b"\n")[:-1])
        rebuilt = [
            (line["sample_index"], header["prefix"] + line["prompt_tail"], line["response"],
             line["status"], line["failure_report"])
            for line in lines
        ]
        assert rebuilt == [
            (request.sample_index, attempt.prompt, attempt.response,
             attempt.outcome.status.name, attempt.failure_report)
            for request, attempt in attempts
        ]
        assert formalize.load_transcript_responses(path) == [
            attempt.response for _, attempt in attempts
        ]

    @settings(max_examples=50, deadline=None)
    @given(
        st.one_of(
            _TRICKY_TEXT,
            st.integers(0, len(formalize._prompt_prefix()) - 1).map(
                lambda end: formalize._prompt_prefix()[:end]
            ),
        ).filter(lambda prompt: not prompt.startswith(formalize._prompt_prefix()))
    )
    def test_a_prompt_without_the_prefix_is_refused(self, tmp_path_factory, prompt):
        attempt = Attempt(prompt, "reply", VerificationOutcome(ProofStatus.FAILED), "report")
        path = tmp_path_factory.getbasetemp() / "refused.jsonl"
        path.unlink(missing_ok=True)
        with pytest.raises(ValueError, match="static prompt prefix"):
            save_transcript([(request_for(CAMERA), _exhausted([attempt]))], path)
        assert not path.exists()

    def test_a_lone_surrogate_is_written_as_its_json_escape(self, tmp_path, lexicon):
        reply = "assert x\n# \ud800\n"
        transcript = prove_with_rewrites(
            request_for(CAMERA), ScriptedReplayMock([reply] * MAX_GENERATOR_CALLS), lexicon
        )
        path = tmp_path / "camera.jsonl"
        save_transcript([(request_for(CAMERA), transcript)], path)
        text = path.read_bytes().decode("utf-8")
        assert "\ud800" not in text
        assert '# \\ud800' in text
        assert formalize.load_transcript_responses(path) == [reply] * MAX_GENERATOR_CALLS
        replay = ScriptedReplayMock.from_transcript(path)
        again = prove_with_rewrites(request_for(CAMERA), replay, lexicon)
        assert [a.response for a in again.attempts] == [reply] * MAX_GENERATOR_CALLS


class TestHttpGenerator:
    def test_importing_the_cli_leaves_requests_unloaded(self):
        src = str(Path(formalize.__file__).parents[1])
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import cryptic_prover.cli; "
            "assert 'requests' not in sys.modules, 'requests was imported'"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr

    def test_missing_api_key_is_unavailable_not_an_error(self, monkeypatch):
        monkeypatch.delenv("CRYPTIC_PROVER_API_KEY", raising=False)
        generator = HttpChatGenerator("https://example.invalid/v1", "tiny")
        with pytest.raises(GeneratorUnavailable, match="CRYPTIC_PROVER_API_KEY"):
            generator.generate("hello")

    def test_posts_chat_payload_and_returns_content(self, monkeypatch):
        monkeypatch.setenv("CRYPTIC_PROVER_API_KEY", "k-123")
        seen = {}

        class FakeResponse:
            def raise_for_status(self):
                pass

            def json(self):
                return {"choices": [{"message": {"content": "proof text"}}]}

        def fake_post(url, json=None, headers=None, timeout=None):
            seen.update(url=url, payload=json, headers=headers, timeout=timeout)
            return FakeResponse()

        monkeypatch.setattr(requests, "post", fake_post)
        generator = HttpChatGenerator(
            "https://example.invalid/v1", "tiny", temperature=0.2, timeout=9.0
        )
        assert generator.generate("hello") == "proof text"
        assert seen["url"] == "https://example.invalid/v1"
        assert seen["payload"]["model"] == "tiny"
        assert seen["payload"]["temperature"] == 0.2
        assert seen["payload"]["messages"] == [{"role": "user", "content": "hello"}]
        assert seen["headers"]["Authorization"] == "Bearer k-123"
        assert seen["timeout"] == 9.0

    def test_the_static_prefix_goes_as_a_system_message(self, monkeypatch):
        monkeypatch.setenv("CRYPTIC_PROVER_API_KEY", "k-123")
        payloads = []

        class FakeResponse:
            def raise_for_status(self):
                pass

            def json(self):
                return {"choices": [{"message": {"content": "proof text"}}]}

        def fake_post(url, json=None, headers=None, timeout=None):
            payloads.append(json)
            return FakeResponse()

        monkeypatch.setattr(requests, "post", fake_post)
        generator = HttpChatGenerator("https://example.invalid/v1", "tiny")
        draft = build_prompt(request_for(CAMERA))
        rewrite = build_prompt(request_for(CAMERA), "AssertionError: x\n", "proof answer=...")
        for prompt in (draft, rewrite):
            assert generator.generate(prompt) == "proof text"
        prefix = formalize._prompt_prefix()
        for payload, prompt in zip(payloads, (draft, rewrite)):
            system, user = payload["messages"]
            assert system == {"role": "system", "content": prefix}
            assert user["role"] == "user"
            assert system["content"] + user["content"] == prompt
        assert user["content"].startswith(request_for(CAMERA).block)

    def test_transport_errors_become_unavailable(self, monkeypatch):
        monkeypatch.setenv("CRYPTIC_PROVER_API_KEY", "k-123")

        def fake_post(*args, **kwargs):
            raise requests.ConnectionError("no route to host")

        monkeypatch.setattr(requests, "post", fake_post)
        generator = HttpChatGenerator("https://example.invalid/v1", "tiny")
        with pytest.raises(GeneratorUnavailable, match="no route"):
            generator.generate("hello")

    def test_malformed_payload_becomes_unavailable(self, monkeypatch):
        monkeypatch.setenv("CRYPTIC_PROVER_API_KEY", "k-123")
        payloads = [
            {"unexpected": True},
            {"choices": [{"message": {"content": None}}]},
            {"choices": [{"message": {"content": [{"type": "text", "text": "proof"}]}}]},
        ]
        for payload in payloads:

            class FakeResponse:
                def raise_for_status(self):
                    pass

                def json(self):
                    return payload

            monkeypatch.setattr(requests, "post", lambda *a, **k: FakeResponse())
            generator = HttpChatGenerator("https://example.invalid/v1", "tiny")
            with pytest.raises(GeneratorUnavailable, match="malformed"):
                generator.generate("hello")
