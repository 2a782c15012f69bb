"""Parse and check proof scripts for cryptic crossword solutions.

A proof script is a small UTF-8 text file (conventionally ``*.proof``)
that justifies an answer step by step.  The grammar is deliberately
closed: there are no conditionals, no loops and no user-defined names,
so a proof cannot route around its own assertions.  Example::

    proof answer="CAMERA" clue="arrived with an artist, to get optical device" pattern="6"
    definition: arrived with an artist, to get {optical device}
    wordplay: CAME (arrived) + RA (artist, short form)
    assert is_synonym("arrived", "CAME")
    assert is_abbreviation("artist", "RA")
    assert "CAME" + "RA" == "CAMERA"
    assert is_synonym("optical device", "CAMERA", pattern="6")

Line by line:

* the header names the answer, the clue text and the length pattern;
* ``definition:`` and ``wordplay:`` carry the informal reading (kept,
  shown in reports, but not themselves checked);
* each ``assert`` line is either a call to one of the five lexicon
  predicates (``is_synonym``, ``is_abbreviation``, ``action_type``,
  ``is_anagram``, ``is_homophone``), an equality between letter
  expressions, or ``not`` applied to either;
* letter expressions combine string literals with ``+`` and the
  builtins ``reverse``, ``drop_first``, ``drop_last``, ``first``,
  ``last``, ``initials``, ``odd_letters``, ``even_letters`` (both
  1-indexed) and ``hidden_span``;
* ``#`` starts a comment; blank lines are ignored; ``Action.<NAME>``
  names a wordplay action (``IS_OUTSIDE`` is accepted for
  ``GOES_OUTSIDE``).

``verify_text`` takes a model reply as sent.  When its first non-blank
line opens a Markdown code fence (```` ```python ````) and its last
non-blank line closes it, both fence lines are read as blank lines, so
a fenced proof is checked as its body and error line numbers still
count from the top of the reply.  Verification is a pure function of
the script and the lexicon, so the experiment checks a reply the
generator repeats within one clue only once (``verdicts`` in
``formalize.prove_with_rewrites``).

Verification never raises on a well-formed proof: every false
assertion becomes a failure entry carrying a near-miss hint, and the
whole list is collected before judgement so one rewrite can fix
several problems at once.  Five lint checks catch degenerate proofs:
``NO_ASSERTIONS``, ``NEGATED_ASSERT_CHEAT`` and ``NO_DEFINITION_CHECK``
are fatal, ``DISCONNECTED_CHAIN`` and ``UNUSED_CLUE_TOKENS`` only warn.
``NO_DEFINITION_CHECK`` demands ``is_synonym(phrase, answer)`` with a
phrase from ``definition_spans`` of the clue that is not the answer's
own letters, so ``definable`` (the same lookups, made before any proof
exists) tells whether any proof of an answer can prove.  The failure
report format is frozen byte for byte (golden files in the test suite),
because generators consume it verbatim when rewriting.
"""

from __future__ import annotations

import difflib
import re
from dataclasses import dataclass
from enum import Enum, auto
from functools import lru_cache
from typing import NamedTuple, Optional, Union

from cryptic_prover import lexfiles
from cryptic_prover.core import (
    ActionKind,
    Pattern,
    PatternError,
    normalize_letters,
)
from cryptic_prover.oracles import Lexicon


class ParseError(ValueError):
    """A proof script that does not fit the grammar."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


class EmptyOperand(ValueError):
    """A letter builtin was applied to an empty string."""


# -- expression and statement trees ------------------------------------------


@dataclass(frozen=True)
class StringLit:
    value: str


@dataclass(frozen=True)
class Call:
    builtin: str
    args: "tuple[Expr, ...]"


@dataclass(frozen=True)
class Concat:
    parts: "tuple[Expr, ...]"


Expr = Union[StringLit, Call, Concat]


@dataclass(frozen=True)
class AssertPredicate:
    name: str
    args: tuple  # strings, plus an ActionKind for action_type
    pattern: Optional[str] = None


@dataclass(frozen=True)
class AssertEquality:
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class AssertNegation:
    inner: "Statement"


Statement = Union[AssertPredicate, AssertEquality, AssertNegation]


@dataclass(frozen=True)
class ProofScript:
    answer: str
    clue: str
    pattern: Pattern
    definition: str = ""
    wordplay: str = ""
    statements: tuple[Statement, ...] = ()


# -- verification outcome -----------------------------------------------------


class ProofStatus(Enum):
    PROVED = auto()
    FAILED = auto()
    PARSE_ERROR = auto()


class LintKind(Enum):
    NO_ASSERTIONS = auto()
    NEGATED_ASSERT_CHEAT = auto()
    DISCONNECTED_CHAIN = auto()
    UNUSED_CLUE_TOKENS = auto()
    NO_DEFINITION_CHECK = auto()


class Severity(Enum):
    FATAL = auto()
    WARN = auto()


_FATAL_KINDS = frozenset(
    {LintKind.NO_ASSERTIONS, LintKind.NEGATED_ASSERT_CHEAT, LintKind.NO_DEFINITION_CHECK}
)


@dataclass(frozen=True)
class LintFlag:
    kind: LintKind
    detail: str

    @property
    def severity(self) -> Severity:
        return Severity.FATAL if self.kind in _FATAL_KINDS else Severity.WARN


@dataclass(frozen=True)
class Failure:
    """One false assertion: where, what was asserted, and the hint."""

    index: int  # statement index; -1 is the header answer/pattern check
    message: str
    hint: str


@dataclass(frozen=True)
class VerificationOutcome:
    status: ProofStatus
    failures: tuple[Failure, ...] = ()
    lints: tuple[LintFlag, ...] = ()

    def __post_init__(self):
        fatal = any(flag.severity is Severity.FATAL for flag in self.lints)
        if self.status is ProofStatus.PROVED and (self.failures or fatal):
            raise ValueError("a proved outcome cannot carry failures or fatal lints")


# -- tokenizer ----------------------------------------------------------------

_PREDICATES = {
    "is_synonym": 2,
    "is_abbreviation": 2,
    "action_type": 2,
    "is_anagram": 2,
    "is_homophone": 2,
}

_BUILTIN_ARITY = {
    "reverse": 1,
    "drop_first": 1,
    "drop_last": 1,
    "first": 1,
    "last": 1,
    "initials": 1,
    "odd_letters": 1,
    "even_letters": 1,
    "hidden_span": 2,
}

_KNOWN_NAMES = sorted(_PREDICATES) + sorted(_BUILTIN_ARITY)


class _Token(NamedTuple):
    kind: str  # NAME STRING LPAREN RPAREN COMMA PLUS EQEQ ASSIGN DOT
    text: str
    line: int
    column: int


# One token per match, after any blanks.  NAME is \w+ because \w is
# exactly str.isalnum() or "_"; a name must also start with a letter or
# "_", which _tokenize checks.  END is a comment or the end of the line.
_TOKEN = re.compile(
    r"""[ \t]*(?:
        (?P<STRING>"[^"]*"|'[^']*')
      | (?P<NAME>\w+)
      | (?P<EQEQ>==) | (?P<ASSIGN>=)
      | (?P<LPAREN>\() | (?P<RPAREN>\)) | (?P<COMMA>,) | (?P<PLUS>\+) | (?P<DOT>\.)
      | (?P<END>\#|\Z)
      | (?P<OTHER>.)
    )""",
    re.VERBOSE | re.DOTALL,
)


def _tokenize(text: str, line_no: int) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while True:
        match = _TOKEN.match(text, pos)
        kind = match.lastgroup
        if kind == "END":
            return tokens
        value = match.group(kind)
        column = match.start(kind) + 1
        if kind == "STRING":
            value = value[1:-1]
        elif kind == "OTHER":
            if value in "\"'":
                raise ParseError("unterminated string literal", line_no, column)
            raise ParseError(f"unexpected character {value!r}", line_no, column)
        elif kind == "NAME" and not (value[0].isalpha() or value[0] == "_"):
            raise ParseError(f"unexpected character {value[0]!r}", line_no, column)
        tokens.append(_Token(kind, value, line_no, column))
        pos = match.end()


class _LineParser:
    def __init__(self, tokens: list[_Token], line_no: int, line_len: int):
        self.tokens = tokens
        self.line_no = line_no
        self.line_len = line_len
        self.pos = 0

    def peek(self, ahead: int = 0) -> Optional[_Token]:
        index = self.pos + ahead
        return self.tokens[index] if index < len(self.tokens) else None

    def take(self) -> _Token:
        token = self.peek()
        if token is None:
            self.fail("unexpected end of line")
        self.pos += 1
        return token

    def expect(self, kind: str, what: str) -> _Token:
        token = self.peek()
        if token is None or token.kind != kind:
            self.fail(f"expected {what}")
        return self.take()

    def expect_end(self, what: str = "end of line"):
        token = self.peek()
        if token is not None:
            raise ParseError(f"expected {what}, found {token.text!r}", token.line, token.column)

    def fail(self, message: str):
        token = self.peek()
        if token is not None:
            raise ParseError(message, token.line, token.column)
        raise ParseError(message, self.line_no, self.line_len + 1)


# -- parser -------------------------------------------------------------------


def parse_proof(script: str) -> ProofScript:
    """Parse a proof script, raising ParseError on any grammar breach."""
    answer = clue = None
    pattern: Optional[Pattern] = None
    definition: Optional[str] = None
    wordplay: Optional[str] = None
    statements: list[Statement] = []
    saw_header = False

    for line_no, line in enumerate(lexfiles.split_lines(script), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        column = line.index(stripped[0]) + 1
        if not saw_header:
            if not stripped.startswith("proof"):
                raise ParseError("expected the proof header first", line_no, column)
            answer, clue, pattern = _parse_header(line, line_no)
            saw_header = True
            continue
        if stripped.startswith("definition:"):
            if definition is not None:
                raise ParseError("duplicate definition: line", line_no, column)
            definition = stripped[len("definition:") :].strip()
            continue
        if stripped.startswith("wordplay:"):
            if wordplay is not None:
                raise ParseError("duplicate wordplay: line", line_no, column)
            wordplay = stripped[len("wordplay:") :].strip()
            continue
        first_word = stripped.split(None, 1)[0]
        if first_word == "proof":
            raise ParseError("duplicate proof header", line_no, column)
        if first_word != "assert":
            raise ParseError(
                "expected an assert line, 'definition:' or 'wordplay:'", line_no, column
            )
        parser = _LineParser(_tokenize(line, line_no), line_no, len(line))
        parser.take()  # the assert keyword
        statement = _parse_assert_body(parser)
        parser.expect_end()
        statements.append(statement)

    if not saw_header:
        raise ParseError("empty script: a proof header is required", 1, 1)
    assert answer is not None and clue is not None and pattern is not None
    return ProofScript(
        answer=answer,
        clue=clue,
        pattern=pattern,
        definition=definition or "",
        wordplay=wordplay or "",
        statements=tuple(statements),
    )


def _parse_header(line: str, line_no: int) -> tuple[str, str, Pattern]:
    parser = _LineParser(_tokenize(line, line_no), line_no, len(line))
    opener = parser.expect("NAME", "the word 'proof'")
    if opener.text != "proof":
        raise ParseError("expected the word 'proof'", opener.line, opener.column)
    fields: dict[str, str] = {}
    while parser.peek() is not None:
        key_token = parser.expect("NAME", "a header field name")
        if key_token.text not in ("answer", "clue", "pattern"):
            raise ParseError(
                f"unknown header field {key_token.text!r}", key_token.line, key_token.column
            )
        if key_token.text in fields:
            raise ParseError(
                f"duplicate header field {key_token.text!r}", key_token.line, key_token.column
            )
        parser.expect("ASSIGN", "'=' after the field name")
        value = parser.expect("STRING", "a quoted value")
        fields[key_token.text] = value.text
    for needed in ("answer", "clue", "pattern"):
        if needed not in fields:
            raise ParseError(f"header is missing {needed}=\"...\"", line_no, len(line) + 1)
    try:
        pattern = Pattern.parse(fields["pattern"])
    except PatternError as error:
        raise ParseError(f"invalid pattern: {error}", line_no, 1) from None
    return fields["answer"], fields["clue"], pattern


def _parse_assert_body(parser: _LineParser) -> Statement:
    head = parser.peek()
    if head is not None and head.kind == "NAME" and head.text == "not":
        parser.take()
        return AssertNegation(_parse_assert_body(parser))
    following = parser.peek(1)
    if (
        head is not None
        and head.kind == "NAME"
        and head.text in _PREDICATES
        and following is not None
        and following.kind == "LPAREN"
    ):
        predicate = _parse_predicate(parser)
        parser.expect_end("end of line after a predicate assertion")
        return predicate
    lhs = _parse_expr(parser)
    token = parser.peek()
    if token is None or token.kind != "EQEQ":
        parser.fail("expected '==' (a bare expression is not an assertion)")
    parser.take()
    rhs = _parse_expr(parser)
    return AssertEquality(lhs, rhs)


def _parse_action(parser: _LineParser) -> ActionKind:
    parser.take()  # the Action token
    parser.expect("DOT", "'.' after Action")
    variant = parser.expect("NAME", "an action name after 'Action.'")
    try:
        return ActionKind.from_name(variant.text)
    except ValueError as error:
        raise ParseError(str(error), variant.line, variant.column) from None


def _parse_predicate(parser: _LineParser) -> AssertPredicate:
    name_token = parser.take()
    name = name_token.text
    parser.expect("LPAREN", "'('")
    args: list = []
    pattern: Optional[str] = None
    while True:
        token = parser.peek()
        if token is None:
            parser.fail("unclosed predicate call")
        if token.kind == "RPAREN":
            parser.take()
            break
        if pattern is not None:
            raise ParseError("pattern= must be the last argument", token.line, token.column)
        if token.kind == "NAME" and token.text == "pattern":
            parser.take()
            parser.expect("ASSIGN", "'=' after pattern")
            pattern = parser.expect("STRING", "a quoted pattern").text
        elif token.kind == "STRING":
            args.append(parser.take().text)
        elif token.kind == "NAME" and token.text == "Action":
            args.append(_parse_action(parser))
        else:
            parser.fail("expected a string literal or Action.<NAME>")
        separator = parser.peek()
        if separator is not None and separator.kind == "COMMA":
            parser.take()
    _check_predicate_shape(name, args, pattern, name_token)
    return AssertPredicate(name, tuple(args), pattern)


def _check_predicate_shape(name: str, args: list, pattern: Optional[str], token: _Token):
    def fail(message: str):
        raise ParseError(message, token.line, token.column)

    if pattern is not None and name != "is_synonym":
        fail(f"{name}() does not accept pattern=")
    if len(args) != _PREDICATES[name]:
        fail(f"{name}() expects {_PREDICATES[name]} arguments, got {len(args)}")
    if name == "action_type":
        if not isinstance(args[0], str) or not isinstance(args[1], ActionKind):
            fail("action_type() expects a string then Action.<NAME>")
    elif not all(isinstance(arg, str) for arg in args):
        fail(f"{name}() expects string arguments")


def _parse_expr(parser: _LineParser) -> Expr:
    parts = [_parse_term(parser)]
    while True:
        token = parser.peek()
        if token is None or token.kind != "PLUS":
            break
        parser.take()
        parts.append(_parse_term(parser))
    return parts[0] if len(parts) == 1 else Concat(tuple(parts))


def _parse_term(parser: _LineParser) -> Expr:
    token = parser.peek()
    if token is None:
        parser.fail("expected a string literal or function call")
    if token.kind == "STRING":
        return StringLit(parser.take().text)
    if token.kind == "NAME":
        name = token.text
        if name in _PREDICATES:
            raise ParseError(
                f"oracle predicate {name!r} cannot be used inside an expression",
                token.line,
                token.column,
            )
        if name == "Action":
            raise ParseError(
                "Action values are only valid as predicate arguments",
                token.line,
                token.column,
            )
        if name in _BUILTIN_ARITY:
            parser.take()
            parser.expect("LPAREN", "'(' after a builtin name")
            args: list[Expr] = []
            while True:
                closer = parser.peek()
                if closer is None:
                    parser.fail("unclosed call")
                if closer.kind == "RPAREN":
                    parser.take()
                    break
                args.append(_parse_expr(parser))
                separator = parser.peek()
                if separator is not None and separator.kind == "COMMA":
                    parser.take()
            if len(args) != _BUILTIN_ARITY[name]:
                raise ParseError(
                    f"{name}() expects {_BUILTIN_ARITY[name]} argument(s), got {len(args)}",
                    token.line,
                    token.column,
                )
            return Call(name, tuple(args))
        close = difflib.get_close_matches(name, _KNOWN_NAMES, n=1, cutoff=0.6)
        hint = f" (did you mean {close[0]!r}?)" if close else ""
        raise ParseError(f"unknown function {name!r}{hint}", token.line, token.column)
    parser.fail("expected a string literal or function call")
    raise AssertionError("unreachable")


# -- evaluation ---------------------------------------------------------------


def eval_expr(expr: Expr) -> str:
    """Evaluate a letter expression to a caps string.

    Builtins work on the normalized letters of their arguments;
    ``hidden_span`` and ``initials`` treat their phrase argument
    word by word.  String literals evaluate to themselves.
    """
    if isinstance(expr, StringLit):
        return expr.value
    if isinstance(expr, Concat):
        return "".join(eval_expr(part) for part in expr.parts)
    return _apply_builtin(expr.builtin, [eval_expr(arg) for arg in expr.args])


def _apply_builtin(name: str, values: list[str]) -> str:
    if name == "hidden_span":
        host, letters = normalize_letters(values[0]), normalize_letters(values[1])
        return letters if letters and letters in host else ""
    if name == "initials":
        words = values[0].split()
        return "".join(normalize_letters(w)[:1] for w in words)
    s = normalize_letters(values[0])
    if name == "reverse":
        return s[::-1]
    if name == "odd_letters":
        return s[0::2]
    if name == "even_letters":
        return s[1::2]
    if not s:
        raise EmptyOperand(f"{name}() applied to an empty string")
    if name == "drop_first":
        return s[1:]
    if name == "drop_last":
        return s[:-1]
    if name == "first":
        return s[0]
    if name == "last":
        return s[-1]
    raise AssertionError(f"unhandled builtin {name}")


def _quote(value: str) -> str:
    """Single quotes by convention, double when the text needs them."""
    return f"'{value}'" if "'" not in value else f'"{value}"'


def render_statement(statement: Statement) -> str:
    """Canonical single-quoted text of a statement, used in reports."""
    if isinstance(statement, AssertPredicate):
        parts = []
        for arg in statement.args:
            parts.append(f"Action.{arg.name}" if isinstance(arg, ActionKind) else _quote(arg))
        if statement.pattern is not None:
            parts.append(f"pattern={_quote(statement.pattern)}")
        return f"{statement.name}({', '.join(parts)})"
    if isinstance(statement, AssertEquality):
        return f"{_render_expr(statement.lhs)} == {_render_expr(statement.rhs)}"
    return f"not {render_statement(statement.inner)}"


def _render_expr(expr: Expr) -> str:
    if isinstance(expr, StringLit):
        return _quote(expr.value)
    if isinstance(expr, Concat):
        return " + ".join(_render_expr(part) for part in expr.parts)
    return f"{expr.builtin}({', '.join(_render_expr(arg) for arg in expr.args)})"


def render_proof(proof: ProofScript) -> str:
    """Write a ProofScript back out as script text (parse_proof inverts)."""
    header = (
        f"proof answer={_quote(proof.answer)} "
        f"clue={_quote(proof.clue)} "
        f"pattern={_quote(proof.pattern.render())}"
    )
    lines = [header]
    if proof.definition:
        lines.append(f"definition: {proof.definition}")
    if proof.wordplay:
        lines.append(f"wordplay: {proof.wordplay}")
    lines.extend("assert " + render_statement(s) for s in proof.statements)
    return "\n".join(lines) + "\n"


# -- verification -------------------------------------------------------------

# Connective words that carry no wordplay duty; they never count as
# unused clue tokens.
_LINK_WORDS = frozenset(
    """a an the of to in on at by for with and or but is are was it its as be
    been from that this these those when then get gets got give gives giving
    make makes making made see seen has have had will when while who whose
    s re ll ve d t m""".split()
)


def verify(proof: ProofScript, lexicon: Lexicon) -> VerificationOutcome:
    """Check every statement, collecting all failures and lint flags."""
    failures: list[Failure] = []
    lints: list[LintFlag] = []

    answer_letters = normalize_letters(proof.answer)
    if len(answer_letters) != proof.pattern.total:
        failures.append(
            Failure(
                index=-1,
                message=(
                    f"assert answer '{proof.answer}' fits the pattern "
                    f"'{proof.pattern.render()}'"
                ),
                hint=(
                    f"'{proof.answer}' has {len(answer_letters)} letters, "
                    f"the pattern needs {proof.pattern.total}"
                ),
            )
        )

    for index, statement in enumerate(proof.statements):
        try:
            held, hint = _evaluate(statement, lexicon)
        except EmptyOperand as error:
            held, hint = False, str(error)
        if not held:
            failures.append(Failure(index, _statement_message(statement), hint))
        cheat = _negated_predicate(statement)
        if cheat is not None:
            lints.append(
                LintFlag(LintKind.NEGATED_ASSERT_CHEAT, f"assert {render_statement(cheat)}")
            )

    if not proof.statements:
        lints.append(LintFlag(LintKind.NO_ASSERTIONS, "proof contains no assert statements"))
    else:
        spans = set(definition_spans(proof.clue))
        defined_by = [_defining_phrase(s, spans, answer_letters) for s in proof.statements]
        # Every definition check names the answer; the chain is connected
        # only when a second phrase (a double definition) or a wordplay step does.
        connected = len(set(filter(None, defined_by))) >= 2 or any(
            _mentions(statement, answer_letters)
            for statement, phrase in zip(proof.statements, defined_by)
            if phrase is None
        )
        if answer_letters and not connected:
            lints.append(
                LintFlag(
                    LintKind.DISCONNECTED_CHAIN,
                    "no assertion other than a definition check mentions the answer "
                    f"'{proof.answer}'",
                )
            )
        if not any(defined_by):
            lints.append(
                LintFlag(
                    LintKind.NO_DEFINITION_CHECK,
                    "no is_synonym assertion ties a phrase at the start or end of "
                    f"the clue to '{proof.answer}'",
                )
            )
        unused = _unused_clue_words(proof)
        if unused:
            lints.append(
                LintFlag(
                    LintKind.UNUSED_CLUE_TOKENS,
                    f"clue words never referenced : {', '.join(unused)}",
                )
            )

    fatal = any(flag.severity is Severity.FATAL for flag in lints)
    status = ProofStatus.FAILED if failures or fatal else ProofStatus.PROVED
    return VerificationOutcome(status, tuple(failures), tuple(lints))


def verify_text(script: str, lexicon: Lexicon) -> VerificationOutcome:
    """Parse then verify, folding grammar breaches into the outcome.

    A script wrapped in one Markdown code fence is checked as its body.
    """
    return verify_reply(script, lexicon)[1]


def verify_reply(
    script: str, lexicon: Lexicon
) -> tuple[Optional[ProofScript], VerificationOutcome]:
    """``verify_text``'s outcome, after the proof it parsed (None when it did not)."""
    try:
        proof = parse_proof(_unfence(script))
    except ParseError as error:
        failure = Failure(index=-1, message=str(error), hint="")
        return None, VerificationOutcome(ProofStatus.PARSE_ERROR, (failure,), ())
    return proof, verify(proof, lexicon)


def _unfence(script: str) -> str:
    """Blank the fence lines when one code fence wraps the whole script.

    The fence lines become blank rather than go, so the line numbers in
    a ParseError still match the script as sent.
    """
    if "```" not in script:
        return script
    lines = script.split("\n")
    body = [index for index, line in enumerate(lines) if line.strip()]
    first, last = body[0], body[-1]
    opens = lines[first].lstrip().startswith("```")
    if first < last and opens and lines[last].strip() == "```":
        lines[first] = lines[last] = ""
        return "\n".join(lines)
    return script


def _statement_message(statement: Statement) -> str:
    # Abbreviation failures are traditionally printed with a colon right
    # after 'assert'; the report format preserves that quirk.
    if isinstance(statement, AssertPredicate) and statement.name == "is_abbreviation":
        return f"assert: {render_statement(statement)}"
    return f"assert {render_statement(statement)}"


def _evaluate(statement: Statement, lexicon: Lexicon) -> tuple[bool, str]:
    if isinstance(statement, AssertPredicate):
        method = getattr(lexicon, statement.name)
        if statement.pattern is not None:
            verdict = method(*statement.args, pattern=statement.pattern)
        else:
            verdict = method(*statement.args)
        return verdict.ok, "; ".join(verdict.near_misses)
    if isinstance(statement, AssertEquality):
        lhs = eval_expr(statement.lhs)
        rhs = eval_expr(statement.rhs)
        if lhs == rhs:
            return True, ""
        return False, f"left side evaluates to '{lhs}', right side to '{rhs}'"
    held, _ = _evaluate(statement.inner, lexicon)
    return (not held), "the negated statement holds"


def _negated_predicate(statement: Statement) -> Optional[Statement]:
    """The innermost statement when a negation wraps an oracle predicate."""
    if not isinstance(statement, AssertNegation):
        return None
    inner = statement.inner
    while isinstance(inner, AssertNegation):
        inner = inner.inner
    return statement if isinstance(inner, AssertPredicate) else None


def _expr_literals(expr: Expr) -> list[str]:
    if isinstance(expr, StringLit):
        return [expr.value]
    if isinstance(expr, Concat):
        return [lit for part in expr.parts for lit in _expr_literals(part)]
    return [lit for arg in expr.args for lit in _expr_literals(arg)]


def _mentions(statement: Statement, answer_letters: str) -> bool:
    if isinstance(statement, AssertNegation):
        return _mentions(statement.inner, answer_letters)
    if isinstance(statement, AssertPredicate):
        return any(
            isinstance(arg, str) and normalize_letters(arg) == answer_letters
            for arg in statement.args
        )
    for side in (statement.lhs, statement.rhs):
        if any(normalize_letters(lit) == answer_letters for lit in _expr_literals(side)):
            return True
        try:
            if normalize_letters(eval_expr(side)) == answer_letters:
                return True
        except EmptyOperand:
            pass
    return False


def _statement_words(statement: Statement) -> set[str]:
    if isinstance(statement, AssertNegation):
        return _statement_words(statement.inner)
    words: set[str] = set()
    if isinstance(statement, AssertPredicate):
        for arg in statement.args:
            if isinstance(arg, str):
                words.update(arg.casefold().split())
    else:
        for side in (statement.lhs, statement.rhs):
            for literal in _expr_literals(side):
                words.update(literal.casefold().split())
    return words


def _clue_word(raw: str) -> str:
    """A clue word as the lints read it: casefolded, without edge
    punctuation, a possessive ``'s`` or apostrophes; may be empty."""
    word = raw.replace("’", "'").casefold().strip("\"'.,;:!?()[]{}-")
    if word.endswith("'s"):
        word = word[:-2]
    return word.replace("'", "")


@lru_cache(maxsize=256)
def definition_spans(surface: str) -> tuple[str, ...]:
    """The phrases a definition check may put to the answer, without repeats.

    Each word-aligned prefix and suffix of the clue surface, shortest
    first, is given casefolded twice: with its words as ``_clue_word``
    reads them, and as the clue writes them.  A phrase qualifies when its
    ``strip().casefold()`` is one of these, which is the very key
    ``Lexicon.is_synonym`` looks up, so ``definable`` asks the lexicon
    about every phrase a proof could use.

    A pure function of the surface, memoised (the last 256 surfaces), so
    a clue's pre-checks and the lint of each of its proofs compute the
    spans once; the result is a tuple, which no caller can change.
    """
    written = surface.casefold().split()
    read = [_clue_word(word) for word in written]
    spans: dict[str, None] = {}
    for width in range(1, len(written) + 1):
        for edge in (slice(width), slice(-width, None)):
            spans[" ".join(filter(None, read[edge]))] = None
            spans[" ".join(written[edge])] = None
    spans.pop("", None)
    return tuple(spans)


def definable(surface: str, answer: str, lexicon: Lexicon) -> bool:
    """Whether some proof of ``answer`` for this clue could pass ``NO_DEFINITION_CHECK``.

    True when a clue-edge span that is not the answer's own letters is a
    recorded synonym of it.  A proved proof asserts exactly such a lookup
    (``is_synonym`` with a pattern only adds a condition), so when this
    is false no proof of ``answer`` for this clue can prove.
    """
    letters = normalize_letters(answer)
    return any(
        normalize_letters(span) != letters and lexicon.is_synonym(span, answer).ok
        for span in definition_spans(surface)
    )


def _defining_phrase(
    statement: Statement, spans: set[str], answer_letters: str
) -> Optional[str]:
    """The clue-edge span a definition check puts to the answer, else None.

    A definition check is ``is_synonym`` of a span and the answer, the
    span not being the answer itself.
    """
    if not (isinstance(statement, AssertPredicate) and statement.name == "is_synonym"):
        return None
    phrase, candidate = statement.args
    key = phrase.strip().casefold()
    # Casefolding can change letters ('ẞ' has none, 'ss' two), so the
    # phrase must spell the answer neither as written nor as looked up.
    if (
        key in spans
        and normalize_letters(candidate) == answer_letters
        and answer_letters not in (normalize_letters(phrase), normalize_letters(key))
    ):
        return key
    return None


def _unused_clue_words(proof: ProofScript) -> list[str]:
    used: set[str] = set()
    for statement in proof.statements:
        used.update(_statement_words(statement))
    unused: list[str] = []
    for raw in proof.clue.split():
        word = _clue_word(raw)
        if len(word) < 2 or word in _LINK_WORDS:
            continue
        if word not in used and word not in unused:
            unused.append(word)
    return unused


# -- reporting ----------------------------------------------------------------


@lru_cache(maxsize=1)
def _rewrite_instruction() -> str:
    path = lexfiles.seed_path("prompts/rewrite_instruction.txt")
    return path.read_text(encoding="utf-8").strip()


def render_failure_report(outcome: VerificationOutcome) -> str:
    """Frozen text a generator reads to repair its proof.

    One line per failure (assertion text, then the near-miss hints),
    one line per fatal lint, a blank line, then the rewrite
    instruction.  Byte-stable for a fixed outcome.
    """
    if outcome.status is ProofStatus.PROVED:
        raise ValueError("a proved outcome has nothing to report")
    lines: list[str] = []
    if outcome.status is ProofStatus.PARSE_ERROR:
        lines.extend(f"ParseError: {failure.message}" for failure in outcome.failures)
    else:
        for failure in outcome.failures:
            if failure.hint:
                lines.append(f"AssertionError: {failure.message} : {failure.hint}")
            else:
                lines.append(f"AssertionError: {failure.message}")
        lines.extend(
            f"LintError: {flag.kind.name} : {flag.detail}"
            for flag in outcome.lints
            if flag.severity is Severity.FATAL
        )
    return "\n".join(lines) + "\n\n" + _rewrite_instruction() + "\n"
