"""Proof grammar, evaluation, lints and the frozen failure report."""

import dataclasses
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cryptic_prover import dataset, formalize, lexfiles, notation, verifier
from cryptic_prover.core import ActionKind, Pattern, normalize_letters
from cryptic_prover.oracles import Lexicon, seed_lexicon
from cryptic_prover.verifier import (
    AssertEquality,
    AssertNegation,
    AssertPredicate,
    Call,
    Concat,
    EmptyOperand,
    LintKind,
    ParseError,
    ProofStatus,
    Severity,
    StringLit,
    ProofScript,
    VerificationOutcome,
    definable,
    definition_spans,
    eval_expr,
    parse_proof,
    render_failure_report,
    render_statement,
    verify,
    verify_text,
)

GOLDEN = Path(__file__).parent / "golden"
CHEATS = GOLDEN / "cheats"

ONCE_PROOF = """\
proof answer="ONCE" clue="head decapitated long ago" pattern="4"
definition: head decapitated {long ago}
wordplay: [b]ONCE (head decapitated = remove first letter of BONCE)
assert is_synonym("head", "BONCE")
assert action_type("decapitated", Action.REMOVE_FIRST)
assert drop_first("BONCE") == "ONCE"
assert is_synonym("long ago", "ONCE", pattern="4")
"""

DECIMAL_PROOF = """\
proof answer="DECIMAL" clue="the point of medical treatment" pattern="7"
definition: {the point} of medical treatment
wordplay: (MEDICAL)* (*treatment = anagram)
assert is_synonym("the point", "DECIMAL", pattern="7")
assert action_type("treatment", Action.ANAGRAM)
assert is_anagram("MEDICAL", "DECIMAL")
"""

SUPERMARKET_PROOF = """\
proof answer="SUPERMARKET" clue="fat bags for every brand that's a big seller" pattern="11"
definition: fat bags for every brand that's {a big seller}
wordplay: SUET (fat) (bags = goes outside) of (PER (for every) + MARK (brand))
assert is_synonym("fat", "SUET")
assert action_type("bags", Action.GOES_OUTSIDE)
assert "SUET" == "SU" + "ET"
assert is_abbreviation("for every", "PER")
assert is_synonym("brand", "MARK")
assert "SU" + "PER" + "MARK" + "ET" == "SUPERMARKET"
assert is_synonym("a big seller", "SUPERMARKET", pattern="11")
"""

REGAL_PROOF = """\
proof answer="REGAL" clue="beer returned, fit for a king" pattern="5"
definition: beer returned, {fit for a king}
wordplay: (LAGER)< (beer, <returned)
assert is_synonym("beer", "LAGER")
assert action_type("returned", Action.REVERSE)
assert reverse("LAGER") == "REGAL"
assert is_synonym("fit for a king", "REGAL", pattern="5")
"""

UNDERMINED_PROOF = """\
proof answer="UNDERMINED" clue="found ermine deer hides damaged" pattern="10"
wordplay: [fo]UND ERMINE D[eer] (hides)
assert action_type("hides", Action.SUBSTRING)
assert hidden_span("found ermine deer", "UNDERMINED") == "UNDERMINED"
assert is_synonym("damaged", "UNDERMINED", pattern="10")
"""


def camera_proof_text() -> str:
    return lexfiles.seed_path("fixtures/proofs/camera.proof").read_text(encoding="utf-8")


def rude_proof_text() -> str:
    return lexfiles.seed_path("fixtures/proofs/rude.proof").read_text(encoding="utf-8")


PROVED_PROOF_TEXTS = [
    ONCE_PROOF,
    DECIMAL_PROOF,
    SUPERMARKET_PROOF,
    REGAL_PROOF,
    UNDERMINED_PROOF,
]


@pytest.fixture(scope="module")
def lex():
    return seed_lexicon()


class TestParse:
    def test_camera_proof_has_four_statements(self):
        proof = parse_proof(camera_proof_text())
        assert len(proof.statements) == 4
        assert proof.answer == "CAMERA"
        assert proof.pattern.render() == "6"
        assert proof.definition.endswith("{optical device}")
        assert proof.wordplay.startswith("CAME")

    def test_statement_shapes(self):
        proof = parse_proof(camera_proof_text())
        first, second, third, fourth = proof.statements
        assert first == AssertPredicate("is_synonym", ("arrived", "CAME"))
        assert second == AssertPredicate("is_abbreviation", ("artist", "RA"))
        assert third == AssertEquality(
            Concat((StringLit("CAME"), StringLit("RA"))), StringLit("CAMERA")
        )
        assert fourth == AssertPredicate(
            "is_synonym", ("optical device", "CAMERA"), pattern="6"
        )

    def test_action_tokens_and_alias(self):
        proof = parse_proof(
            'proof answer="X" clue="c" pattern="1"\n'
            'assert action_type("about", Action.IS_OUTSIDE)\n'
        )
        assert proof.statements[0].args[1] is ActionKind.GOES_OUTSIDE

    def test_trailing_comments_and_blank_lines(self):
        proof = parse_proof(rude_proof_text())
        assert len(proof.statements) == 4

    def test_single_quoted_strings(self):
        proof = parse_proof(
            "proof answer='ONCE' clue='c' pattern='4'\n"
            "assert is_synonym('long ago', 'ONCE', pattern='4')\n"
        )
        assert proof.statements[0].pattern == "4"

    def test_negation_parses(self):
        proof = parse_proof(
            'proof answer="AB" clue="c" pattern="2"\nassert not "A" == "B"\n'
        )
        statement = proof.statements[0]
        assert isinstance(statement, AssertNegation)
        assert isinstance(statement.inner, AssertEquality)

    def test_empty_body_is_zero_statements(self):
        proof = parse_proof('proof answer="AB" clue="c" pattern="2"\n')
        assert proof.statements == ()

    def test_header_only_fields(self):
        proof = parse_proof('proof pattern="3,2" clue="c" answer="ABCDE"\n')
        assert proof.pattern.total == 5


class TestParseErrors:
    def assert_error(self, script, fragment, line=None):
        with pytest.raises(ParseError) as info:
            parse_proof(script)
        assert fragment in str(info.value)
        if line is not None:
            assert info.value.line == line

    def test_misspelled_predicate_gets_did_you_mean(self):
        self.assert_error(
            'proof answer="A" clue="c" pattern="1"\nassert is_synomym("a", "B")\n',
            "did you mean 'is_synonym'?",
            line=2,
        )

    def test_error_carries_line_and_column(self):
        with pytest.raises(ParseError) as info:
            parse_proof('proof answer="A" clue="c" pattern="1"\nassert "A" %\n')
        assert info.value.line == 2
        assert info.value.column == 12

    def test_missing_header(self):
        self.assert_error('assert is_anagram("A", "B")\n', "proof header first")

    def test_empty_script(self):
        self.assert_error("", "a proof header is required")

    def test_duplicate_header(self):
        self.assert_error(
            'proof answer="A" clue="c" pattern="1"\nproof answer="B" clue="c" pattern="1"\n',
            "duplicate proof header",
        )

    def test_unknown_header_field(self):
        self.assert_error('proof answer="A" clue="c" glyph="1"\n', "unknown header field")

    def test_missing_header_field(self):
        self.assert_error('proof answer="A" clue="c"\n', 'missing pattern="..."')

    def test_invalid_header_pattern(self):
        self.assert_error('proof answer="A" clue="c" pattern="x"\n', "invalid pattern")

    def test_bare_expression_is_rejected(self):
        self.assert_error(
            'proof answer="A" clue="c" pattern="1"\nassert "A" + "B"\n',
            "a bare expression is not an assertion",
        )

    def test_unterminated_string(self):
        self.assert_error(
            'proof answer="A" clue="c" pattern="1"\nassert is_anagram("A, "B")\n',
            "unterminated string",
        )

    def test_unknown_action(self):
        self.assert_error(
            'proof answer="A" clue="c" pattern="1"\n'
            'assert action_type("x", Action.SIDEWAYS)\n',
            "unknown action",
        )

    def test_pattern_kw_restricted_to_is_synonym(self):
        self.assert_error(
            'proof answer="A" clue="c" pattern="1"\n'
            'assert is_anagram("A", "B", pattern="1")\n',
            "does not accept pattern=",
        )

    def test_predicate_arity(self):
        self.assert_error(
            'proof answer="A" clue="c" pattern="1"\nassert is_anagram("A")\n',
            "expects 2 arguments, got 1",
        )

    def test_builtin_arity(self):
        self.assert_error(
            'proof answer="A" clue="c" pattern="1"\nassert reverse("A", "B") == "AB"\n',
            "expects 1 argument(s), got 2",
        )

    def test_predicate_inside_expression(self):
        self.assert_error(
            'proof answer="A" clue="c" pattern="1"\nassert is_anagram("A", "B") == "X"\n',
            "end of line after a predicate assertion",
        )
        self.assert_error(
            'proof answer="A" clue="c" pattern="1"\nassert "X" == is_anagram("A", "B")\n',
            "cannot be used inside an expression",
        )

    def test_action_outside_predicate(self):
        self.assert_error(
            'proof answer="A" clue="c" pattern="1"\nassert Action.ANAGRAM == "X"\n',
            "only valid as predicate arguments",
        )

    def test_unknown_line_shape(self):
        self.assert_error(
            'proof answer="A" clue="c" pattern="1"\nlemma: interesting\n',
            "expected an assert line",
        )

    def test_duplicate_docstring_line(self):
        self.assert_error(
            'proof answer="A" clue="c" pattern="1"\ndefinition: x\ndefinition: y\n',
            "duplicate definition",
        )


class TestEvalExpr:
    def test_concat(self):
        expr = Concat((StringLit("BAN"), StringLit("KING")))
        assert eval_expr(expr) == "BANKING"

    def test_reverse(self):
        assert eval_expr(Call("reverse", (StringLit("LAGER"),))) == "REGAL"

    def test_drop_first(self):
        assert eval_expr(Call("drop_first", (StringLit("BONCE"),))) == "ONCE"

    def test_drop_last_first_last(self):
        assert eval_expr(Call("drop_last", (StringLit("ELVES"),))) == "ELVE"
        assert eval_expr(Call("first", (StringLit("done"),))) == "D"
        assert eval_expr(Call("last", (StringLit("done"),))) == "E"

    def test_initials_takes_each_word(self):
        assert eval_expr(Call("initials", (StringLit("magical beings"),))) == "MB"

    def test_odd_even_letters_are_one_indexed(self):
        assert eval_expr(Call("odd_letters", (StringLit("ABCDEF"),))) == "ACE"
        assert eval_expr(Call("even_letters", (StringLit("ABCDEF"),))) == "BDF"

    def test_hidden_span(self):
        found = Call("hidden_span", (StringLit("found ermine deer"), StringLit("UNDERMINED")))
        assert eval_expr(found) == "UNDERMINED"
        missing = Call("hidden_span", (StringLit("found ermine deer"), StringLit("RAVEN")))
        assert eval_expr(missing) == ""

    def test_nested_calls(self):
        expr = Call("reverse", (Call("drop_first", (StringLit("BONCE"),)),))
        assert eval_expr(expr) == "ECNO"

    def test_empty_operand(self):
        for builtin in ("drop_first", "drop_last", "first", "last"):
            with pytest.raises(EmptyOperand):
                eval_expr(Call(builtin, (StringLit(""),)))

    def test_normalizes_inputs(self):
        assert eval_expr(Call("reverse", (StringLit("lager"),))) == "REGAL"

    @given(st.text(alphabet="ABCDEFGHIJ", max_size=12))
    def test_reverse_twice_is_identity(self, s):
        expr = Call("reverse", (Call("reverse", (StringLit(s),)),))
        assert eval_expr(expr) == normalize_letters(s)

    @given(st.text(alphabet="ABCDEFGHIJ", max_size=12))
    def test_odd_and_even_partition(self, s):
        odd = eval_expr(Call("odd_letters", (StringLit(s),)))
        even = eval_expr(Call("even_letters", (StringLit(s),)))
        assert sorted(odd + even) == sorted(normalize_letters(s))
        assert len(odd) - len(even) in (0, 1)


class TestVerify:
    def test_camera_proof_proves(self, lex):
        outcome = verify(parse_proof(camera_proof_text()), lex)
        assert outcome.status is ProofStatus.PROVED
        assert outcome.failures == ()

    @pytest.mark.parametrize("text", PROVED_PROOF_TEXTS)
    def test_known_good_proofs_prove(self, lex, text):
        outcome = verify(parse_proof(text), lex)
        assert outcome.status is ProofStatus.PROVED, outcome.failures

    def test_rude_proof_fails_with_both_marked_failures(self, lex):
        outcome = verify(parse_proof(rude_proof_text()), lex)
        assert outcome.status is ProofStatus.FAILED
        assert [failure.index for failure in outcome.failures] == [2, 3]
        assert outcome.failures[0].message == "assert is_synonym('assistant', 'ASS')"
        assert outcome.failures[1].message == "assert 'RUD' + 'ASS' == 'RUDE'"

    def test_all_failures_collected_no_early_stop(self, lex):
        script = (
            'proof answer="CAMERA" clue="c" pattern="6"\n'
            'assert is_synonym("quasar", "CAMERA")\n'
            'assert "A" == "B"\n'
            'assert "CAM" + "ERA" == "CAMERA"\n'
        )
        outcome = verify(parse_proof(script), lex)
        assert [failure.index for failure in outcome.failures] == [0, 1]

    def test_header_answer_must_fit_pattern(self, lex):
        script = (
            'proof answer="RUDE" clue="c" pattern="5"\n'
            'assert is_synonym("rudeness", "RUDE")\n'
        )
        outcome = verify(parse_proof(script), lex)
        assert outcome.status is ProofStatus.FAILED
        failure = outcome.failures[0]
        assert failure.index == -1
        assert failure.message == "assert answer 'RUDE' fits the pattern '5'"
        assert failure.hint == "'RUDE' has 4 letters, the pattern needs 5"

    def test_empty_operand_becomes_failure_not_crash(self, lex):
        script = 'proof answer="A" clue="c" pattern="1"\nassert drop_first("") == "A"\n'
        outcome = verify(parse_proof(script), lex)
        assert outcome.status is ProofStatus.FAILED
        assert "empty string" in outcome.failures[0].hint

    def test_negated_empty_operand_still_fails(self, lex):
        script = 'proof answer="A" clue="c" pattern="1"\nassert not drop_first("") == "A"\n'
        outcome = verify(parse_proof(script), lex)
        assert outcome.status is ProofStatus.FAILED

    def test_is_abbreviation_failure_keeps_colon_quirk(self, lex):
        script = (
            'proof answer="CAMERA" clue="c" pattern="6"\n'
            'assert is_abbreviation("an Artist", "RA")\n'
            'assert "CAM" + "ERA" == "CAMERA"\n'
        )
        outcome = verify(parse_proof(script), lex)
        assert outcome.failures[0].message == "assert: is_abbreviation('an Artist', 'RA')"

    def test_deterministic(self, lex):
        proof = parse_proof(rude_proof_text())
        assert verify(proof, lex) == verify(proof, lex)


class TestLints:
    def test_no_assertions_is_fatal(self, lex):
        outcome = verify(parse_proof('proof answer="A" clue="c" pattern="1"\n'), lex)
        assert outcome.status is ProofStatus.FAILED
        assert outcome.lints[0].kind is LintKind.NO_ASSERTIONS
        assert outcome.lints[0].severity is Severity.FATAL

    def test_negated_predicate_is_cheating(self, lex):
        script = (
            'proof answer="ESCORT" clue="c" pattern="6"\n'
            'assert not is_synonym("quasar", "ESCORT")\n'
        )
        outcome = verify(parse_proof(script), lex)
        assert outcome.status is ProofStatus.FAILED
        kinds = [flag.kind for flag in outcome.lints]
        assert LintKind.NEGATED_ASSERT_CHEAT in kinds
        assert outcome.failures == ()  # the negation held; the lint alone sinks it

    def test_double_negation_is_still_cheating(self, lex):
        script = (
            'proof answer="ESCORT" clue="c" pattern="6"\n'
            'assert not not is_anagram("corset", "ESCORT")\n'
        )
        outcome = verify(parse_proof(script), lex)
        kinds = [flag.kind for flag in outcome.lints]
        assert LintKind.NEGATED_ASSERT_CHEAT in kinds

    def test_negated_equality_is_allowed(self, lex):
        script = (
            'proof answer="ESCORT" clue="Chaperone shredded corset" pattern="6"\n'
            'assert not "A" == "B"\n'
            'assert is_anagram("corset", "ESCORT")\n'
            'assert is_synonym("Chaperone", "ESCORT")\n'
        )
        outcome = verify(parse_proof(script), lex)
        assert outcome.status is ProofStatus.PROVED
        kinds = [flag.kind for flag in outcome.lints]
        assert LintKind.NEGATED_ASSERT_CHEAT not in kinds

    def test_disconnected_chain_warns_but_proves(self, lex):
        # Only the definition check reaches the answer; no wordplay does.
        script = (
            'proof answer="CAMERA" clue="arrived with an artist, to get optical device" '
            'pattern="6"\n'
            'assert is_synonym("arrived", "CAME")\n'
            'assert is_synonym("optical device", "CAMERA")\n'
        )
        outcome = verify(parse_proof(script), lex)
        assert outcome.status is ProofStatus.PROVED
        flags = {flag.kind: flag for flag in outcome.lints}
        assert LintKind.DISCONNECTED_CHAIN in flags
        assert flags[LintKind.DISCONNECTED_CHAIN].severity is Severity.WARN

    def test_a_double_definition_needs_two_phrases(self, lex):
        header = 'proof answer="BLIND" clue="Not seeing window covering" pattern="5"\n'
        both = header + (
            'assert is_synonym("Not seeing", "BLIND")\n'
            'assert is_synonym("window covering", "BLIND", pattern="5")\n'
        )
        twice = header + (
            'assert is_synonym("Not seeing", "BLIND")\n'
            'assert is_synonym("not seeing", "BLIND", pattern="5")\n'
        )
        for script, disconnected in ((both, False), (twice, True)):
            outcome = verify(parse_proof(script), lex)
            assert outcome.status is ProofStatus.PROVED
            kinds = [flag.kind for flag in outcome.lints]
            assert (LintKind.DISCONNECTED_CHAIN in kinds) is disconnected

    def test_connected_proof_has_no_chain_warning(self, lex):
        outcome = verify(parse_proof(camera_proof_text()), lex)
        kinds = [flag.kind for flag in outcome.lints]
        assert LintKind.DISCONNECTED_CHAIN not in kinds

    def test_unused_clue_tokens_warn(self, lex):
        outcome = verify(parse_proof(rude_proof_text()), lex)
        flags = {flag.kind: flag for flag in outcome.lints}
        assert LintKind.UNUSED_CLUE_TOKENS in flags
        detail = flags[LintKind.UNUSED_CLUE_TOKENS].detail
        assert "computer" in detail and "language" in detail
        assert "son" not in detail.split(" : ")[1].split(", ")

    def test_fully_used_clue_has_no_warning(self, lex):
        outcome = verify(parse_proof(camera_proof_text()), lex)
        kinds = [flag.kind for flag in outcome.lints]
        assert LintKind.UNUSED_CLUE_TOKENS not in kinds

    def test_outcome_invariant_enforced(self):
        with pytest.raises(ValueError):
            VerificationOutcome(
                ProofStatus.PROVED,
                failures=(),
                lints=(
                    dataclasses.replace(
                        verify(
                            parse_proof('proof answer="A" clue="c" pattern="1"\n'),
                            seed_lexicon(),
                        ).lints[0]
                    ),
                ),
            )


class TestVerifyText:
    def test_parse_error_folds_into_outcome(self, lex):
        script = 'proof answer="A" clue="c" pattern="1"\nassert is_synomym("a", "B")\n'
        outcome = verify_text(script, lex)
        assert outcome.status is ProofStatus.PARSE_ERROR
        assert outcome.failures[0].index == -1
        assert "did you mean 'is_synonym'?" in outcome.failures[0].message

    def test_good_text_verifies(self, lex):
        assert verify_text(camera_proof_text(), lex).status is ProofStatus.PROVED

    def test_fenced_proof_proves(self, lex):
        for opener in ("```python", "```", "  ```proof"):
            fenced = f"\n{opener}\n{camera_proof_text()}```\n\n"
            assert verify_text(fenced, lex).status is ProofStatus.PROVED

    def test_fenced_bad_proof_reports_as_unfenced(self, lex):
        text = rude_proof_text()
        fenced = verify_text(f"```python\n{text}```\n", lex)
        assert fenced.status is ProofStatus.FAILED
        assert render_failure_report(fenced) == render_failure_report(verify_text(text, lex))

    def test_fenced_parse_error_counts_lines_from_the_fence(self, lex):
        script = 'proof answer="A" clue="c" pattern="1"\nassert "A" %\n'
        plain = render_failure_report(verify_text(script, lex))
        fenced = render_failure_report(verify_text(f"```\n{script}```", lex))
        assert "at line 2, column 12" in plain
        assert fenced == plain.replace("at line 2,", "at line 3,")

    def test_unclosed_fence_is_a_parse_error(self, lex):
        for script in (
            f"```python\n{camera_proof_text()}",
            f"{camera_proof_text()}```\n",
            "```\n",
        ):
            assert verify_text(script, lex).status is ProofStatus.PARSE_ERROR


class TestFailureReport:
    def test_rude_report_matches_golden(self, lex):
        outcome = verify(parse_proof(rude_proof_text()), lex)
        expected = (GOLDEN / "rude_failure_report.txt").read_text(encoding="utf-8")
        assert render_failure_report(outcome) == expected

    def test_hint_showcase_matches_golden(self, lex):
        script = (
            'proof answer="CAMERA" clue="arrived with an artist, to get optical device" '
            'pattern="6"\n'
            'assert is_abbreviation("an Artist", "RA")\n'
            'assert action_type("goes crazy", Action.ANAGRAM)\n'
            'assert action_type("worked", Action.HOMOPHONE)\n'
            'assert "CAME" + "RA" == "CAMERA"\n'
        )
        outcome = verify(parse_proof(script), lex)
        expected = (GOLDEN / "hint_showcase_report.txt").read_text(encoding="utf-8")
        assert render_failure_report(outcome) == expected

    def test_no_assertions_report_matches_golden(self, lex):
        outcome = verify(parse_proof('proof answer="A" clue="c" pattern="1"\n'), lex)
        expected = (GOLDEN / "no_assertions_report.txt").read_text(encoding="utf-8")
        assert render_failure_report(outcome) == expected

    def test_parse_error_report(self, lex):
        outcome = verify_text(
            'proof answer="A" clue="c" pattern="1"\nassert is_synomym("a", "B")\n', lex
        )
        report = render_failure_report(outcome)
        assert report.startswith("ParseError: unknown function 'is_synomym'")
        assert report.rstrip().endswith("return the whole proof:")

    def test_proved_outcome_has_nothing_to_report(self, lex):
        outcome = verify(parse_proof(camera_proof_text()), lex)
        with pytest.raises(ValueError):
            render_failure_report(outcome)

    def test_report_is_byte_stable(self, lex):
        outcome = verify(parse_proof(rude_proof_text()), lex)
        assert render_failure_report(outcome) == render_failure_report(outcome)


class TestStatementRoundTrip:
    def test_rendered_statements_reparse(self, lex):
        texts = PROVED_PROOF_TEXTS + [camera_proof_text(), rude_proof_text()]
        for text in texts:
            proof = parse_proof(text)
            for statement in proof.statements:
                line = "assert " + render_statement(statement)
                reparsed = parse_proof(
                    'proof answer="A" clue="c" pattern="1"\n' + line + "\n"
                )
                assert reparsed.statements[0] == statement


def _mutate_letter(ch: str) -> str:
    if ch.lower() == "q":
        return "Z" if ch.isupper() else "z"
    return "Q" if ch.isupper() else "q"


def _mutate_string(value: str) -> str:
    positions = [i for i, ch in enumerate(value) if ch.isalpha()]
    middle = positions[len(positions) // 2]
    return value[:middle] + _mutate_letter(value[middle]) + value[middle + 1 :]


def _literal_mutants(statement):
    """Each way of changing one letter the rest of the proof pins down.

    Builtin call arguments are excluded: only some of their letters are
    load-bearing (changing the dropped letter of a drop_first operand,
    for instance, leaves the computed value intact).
    """
    if isinstance(statement, AssertPredicate):
        for index, arg in enumerate(statement.args):
            if isinstance(arg, str) and any(ch.isalpha() for ch in arg):
                args = list(statement.args)
                args[index] = _mutate_string(arg)
                yield dataclasses.replace(statement, args=tuple(args))
    elif isinstance(statement, AssertEquality):
        for side_name in ("lhs", "rhs"):
            side = getattr(statement, side_name)
            for mutated in _expr_mutants(side):
                yield dataclasses.replace(statement, **{side_name: mutated})


def _expr_mutants(expr):
    if isinstance(expr, StringLit):
        if any(ch.isalpha() for ch in expr.value):
            yield StringLit(_mutate_string(expr.value))
    elif isinstance(expr, Concat):
        for index, part in enumerate(expr.parts):
            for mutated in _expr_mutants(part):
                parts = list(expr.parts)
                parts[index] = mutated
                yield Concat(tuple(parts))
    # Call arguments are deliberately not mutated.


def test_single_letter_mutations_break_proofs(lex):
    texts = PROVED_PROOF_TEXTS + [camera_proof_text()]
    total = 0
    for text in texts:
        proof = parse_proof(text)
        assert verify(proof, lex).status is ProofStatus.PROVED
        for index, statement in enumerate(proof.statements):
            for mutant in _literal_mutants(statement):
                statements = list(proof.statements)
                statements[index] = mutant
                mutated = dataclasses.replace(proof, statements=tuple(statements))
                outcome = verify(mutated, lex)
                assert outcome.status is ProofStatus.FAILED, render_statement(mutant)
                total += 1
    assert total > 40


# -- the tokenizer against its character-by-character reference --------------


def _reference_tokenize(text: str, line_no: int) -> list[tuple]:
    """The tokenizer as first written: one character at a time."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        if ch == "#":
            break
        col = i + 1
        if ch in "\"'":
            end = text.find(ch, i + 1)
            if end < 0:
                raise ParseError("unterminated string literal", line_no, col)
            tokens.append(("STRING", text[i + 1 : end], line_no, col))
            i = end + 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("NAME", text[i:j], line_no, col))
            i = j
            continue
        if ch == "=":
            if text[i : i + 2] == "==":
                tokens.append(("EQEQ", "==", line_no, col))
                i += 2
            else:
                tokens.append(("ASSIGN", "=", line_no, col))
                i += 1
            continue
        simple = {"(": "LPAREN", ")": "RPAREN", ",": "COMMA", "+": "PLUS", ".": "DOT"}
        if ch in simple:
            tokens.append((simple[ch], ch, line_no, col))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line_no, col)
    return tokens


def _tokens_or_error(tokenize, text: str):
    try:
        return [tuple(token) for token in tokenize(text, 7)]
    except ParseError as error:
        return (str(error), error.line, error.column)


# ², ½ and ٣ are \w characters for which str.isalpha() is false.
TOKEN_ALPHABET = "ab_Z09 \t\"'#()+,.=é½²٣-!"


@given(st.text(alphabet=TOKEN_ALPHABET, max_size=40))
def test_tokenizer_matches_the_reference(text):
    assert _tokens_or_error(verifier._tokenize, text) == _tokens_or_error(
        _reference_tokenize, text
    )


@pytest.mark.parametrize(
    "text",
    [
        'assert is_synonym("a b", \'C\', pattern="6") == x.Y # note "',
        "²x",
        "x² ½",
        "٣a",
        "_a٣",
        "\"open",
        "a == = ==== b",
        "tab\there\r",
        "",
    ],
)
def test_tokenizer_matches_the_reference_on_edge_cases(text):
    assert _tokens_or_error(verifier._tokenize, text) == _tokens_or_error(
        _reference_tokenize, text
    )


class TestDefinitionCheck:
    """NO_DEFINITION_CHECK, and the pre-check ``definable`` that it makes sound."""

    def test_spans_are_the_clue_edges_in_normal_form_and_as_written(self):
        assert definition_spans("Bird is cowardly, about") == (
            "bird",
            "about",
            "bird is",
            "cowardly about",
            "cowardly, about",
            "bird is cowardly",
            "bird is cowardly,",
            "is cowardly about",
            "is cowardly, about",
            "bird is cowardly about",
            "bird is cowardly, about",
        )
        assert definition_spans("there's") == ("there", "there's")

    def test_the_cheat_corpus_holds_each_cheat(self):
        assert sorted(path.stem for path in CHEATS.glob("*.proof")) == [
            "identity_definition",
            "identity_edge_span",
            "no_definition",
            "swapped_answer",
        ]

    @pytest.mark.parametrize("path", sorted(CHEATS.glob("*.proof")), ids=lambda path: path.stem)
    def test_each_cheat_fails_on_the_definition_lint_alone(self, path, lex):
        # Every assertion holds: without the lint each cheat would prove.
        outcome = verify_text(path.read_text(encoding="utf-8"), lex)
        assert outcome.status is ProofStatus.FAILED
        assert outcome.failures == ()
        fatal = [flag.kind for flag in outcome.lints if flag.severity is Severity.FATAL]
        assert fatal == [LintKind.NO_DEFINITION_CHECK]

    def test_worked_golds_and_the_packaged_proof_still_prove(self, lex):
        documents = dataset.load_puzzles(lexfiles.seed_path("fixtures/worked_examples.yaml"))
        clues = [clue for document in documents for clue in document.clues]
        assert len(clues) == 10
        for clue in clues:
            request = formalize.ProofRequest(
                clue, clue.gold_answer, clue.gold_definition, clue.gold_wordplay
            )
            node = notation.parse_wordplay(clue.gold_wordplay)
            proof = formalize.compile_wordplay(node, request)
            assert verify(proof, lex).status is ProofStatus.PROVED, clue.gold_answer
            assert definable(clue.surface, clue.gold_answer, lex)
        assert verify_text(camera_proof_text(), lex).status is ProofStatus.PROVED

    def test_definable_needs_a_clue_edge_synonym_other_than_the_answer(self, lex):
        assert definable("Chaperone shredded corset", "ESCORT", lex)
        assert not definable("Chaperone shredded corset", "CAMERA", lex)
        assert not definable("shredded corset, Chaperone?", "CAMERA", lex)
        assert not definable("Escort, shredded corset", "ESCORT", lex)
        # A synonym inside the clue is no definition.
        assert not definable("Shredded chaperone corset", "ESCORT", lex)

    def test_a_definition_may_be_written_as_the_clue_writes_it(self):
        lexicon = Lexicon(synonyms={"there's": ["THERE"], "fit, for a king": ["REGAL"]})
        for clue, phrase, answer in [
            ("Well there's", "There's", "THERE"),
            ("Beer, fit, for a king", "fit, for a king", "REGAL"),
        ]:
            proof = ProofScript(
                answer=answer,
                clue=clue,
                pattern=Pattern.parse(str(len(answer))),
                statements=(AssertPredicate("is_synonym", (phrase, answer)),),
            )
            kinds = [flag.kind for flag in verify(proof, lexicon).lints]
            assert LintKind.NO_DEFINITION_CHECK not in kinds
            assert definable(clue, answer, lexicon)


# Clue words mixing case, apostrophes, edge punctuation and letters that
# casefolding changes ('ẞ' and 'ß' fold to 'ss').
_CLUE_WORD = st.text(alphabet="abSsẞß'’,.(-", min_size=1, max_size=3)


def quadratic_definition_spans(surface: str) -> tuple[str, ...]:
    """The reference ``definition_spans``: each word read once per prefix or suffix holding it."""
    written = surface.casefold().split()
    spans: dict[str, None] = {}
    for width in range(1, len(written) + 1):
        for words in (written[:width], written[-width:]):
            spans[" ".join(filter(None, map(verifier._clue_word, words)))] = None
            spans[" ".join(words)] = None
    spans.pop("", None)
    return tuple(spans)


# Whole clue words: plain, possessive, punctuation alone, or drawn freely.
_SURFACE_WORD = st.one_of(
    st.sampled_from(["bird", "Bird's", "bird’s", "(bird),", "—", "'", "...", "STRAẞE", "straße"]),
    _CLUE_WORD,
)


class TestDefinitionSpansProperty:
    @given(
        words=st.lists(_SURFACE_WORD, max_size=7),
        spaces=st.lists(st.sampled_from([" ", "  ", "\t"]), min_size=7, max_size=7),
    )
    @example(words=["bird's", "bird's", "’", "bird's"], spaces=[" "] * 7)
    @example(words=["ẞ", "ss", "'s", "ß"], spaces=[" "] * 7)
    def test_equals_the_quadratic_definition(self, words, spaces):
        surface = "".join(space + word for space, word in zip(spaces, words))
        assert definition_spans(surface) == quadratic_definition_spans(surface)


@st.composite
def proofs_with_thesauri(draw):
    """A proof of is_synonym assertions, and a thesaurus holding some of them."""
    words = draw(st.lists(_CLUE_WORD, min_size=1, max_size=4))
    answer = draw(st.text(alphabet="ABS", min_size=1, max_size=3))

    def phrase() -> str:
        width = draw(st.integers(1, len(words)))
        part = draw(st.sampled_from([words[:width], words[-width:], words[1:width]]))
        written = " ".join(part)
        normal = " ".join(filter(None, map(verifier._clue_word, part)))
        other = draw(st.text(alphabet="abSsẞ '’,", min_size=1, max_size=5))
        return draw(st.sampled_from([written, written.upper(), normal, other]))

    statements, thesaurus = [], {}
    for _ in range(draw(st.integers(1, 3))):
        text = phrase()
        candidate = draw(st.sampled_from([answer, answer.lower(), "SS", "AB"]))
        pattern = draw(st.sampled_from([None, str(len(answer)), "9"]))
        statements.append(AssertPredicate("is_synonym", (text, candidate), pattern))
        if draw(st.booleans()):
            thesaurus.setdefault(text.strip(), []).append(candidate)
    proof = ProofScript(
        answer=answer,
        clue=" ".join(words),
        pattern=Pattern.parse(str(len(answer))),
        statements=tuple(statements),
    )
    return proof, Lexicon(synonyms=thesaurus)


@given(proofs_with_thesauri())
# 'ẞ' has no letters, but the thesaurus and the spans see it casefolded
# as 'ss', which spells the answer: no definition either way.
@example(
    (
        ProofScript(
            answer="SS",
            clue="ẞ x",
            pattern=Pattern.parse("2"),
            statements=(AssertPredicate("is_synonym", ("ẞ", "SS")),),
        ),
        Lexicon(synonyms={"ẞ": ["SS"]}),
    )
)
def test_a_proved_proof_passes_the_definition_pre_check(case):
    proof, lexicon = case
    if verify(proof, lexicon).status is ProofStatus.PROVED:
        assert definable(proof.clue, proof.answer, lexicon)
