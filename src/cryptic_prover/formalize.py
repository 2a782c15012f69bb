"""Turn annotated clues into proof scripts and drive the rewrite loop.

Two routes produce a proof for a (clue, candidate answer) pair:

* ``compile_wordplay`` walks a parsed wordplay tree and emits the
  corresponding assertions directly; it is deterministic and needs no
  model.  When the annotation's letters cannot account for the answer,
  it still emits the honest script, whose final equality then fails
  under verification.  The node rules come from ``notation`` (the
  action from ``indicator_action``, a hidden answer's pieces from
  ``hidden_pieces``) and each operand's letters from the resolved tree;
  this module only maps them onto the proof grammar's functions.
* ``prove_with_rewrites`` asks a proof generator (anything with a
  ``generate(prompt) -> str`` method) to write the script, verifies the
  result, and on failure feeds the failure report back for another try.
  An initial draft plus at most five rewrites are allowed; after that
  the request is recorded as a failure.  A reply proves only the answer,
  clue and pattern its header names, so a reply naming others fails.

Prompts are assembled from data files in a fixed order: rubric
preamble, annotated wordplay examples, the declarations of the checking
functions, worked formalisation examples, the completion instruction,
and finally the request itself (a proof header with its definition and
wordplay lines, to be completed, rendered once per request).  A rewrite
prompt appends the previous script and the failure report, which itself
ends with the rewrite instruction.

``save_transcript`` writes a transcript file: a header line holding
the static prompt prefix once, then one line per attempt holding its
prompt's tail, its response, status and failure report.

Three generators ship with the package: ``CompilerBackedMock`` (reads
the request back out of the prompt with the verifier's proof parser and
compiles it, once per distinct request while that reply stays in its
memo; optionally spoils its first few answers, which exercises the
loop), ``ScriptedReplayMock`` (plays back canned responses, e.g.
from a saved transcript), and ``HttpChatGenerator`` (a chat-completion
HTTP client, enabled only when its API key environment variable is
set, which sends the static prompt prefix as a separate, cacheable
system message).
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Iterable, MutableMapping, Optional, Sequence, Union

from cryptic_prover import dataset, lexfiles, notation
from cryptic_prover.core import (
    ActionKind,
    Clue,
    Pattern,
    normalize_letters,
    pattern_matches,
)
from cryptic_prover.notation import (
    AbbrevOf,
    Anagram,
    Container,
    Deletion,
    DoubleDefinition,
    Hidden,
    Homophone,
    Initials,
    Literal,
    Resolved,
    Reversal,
    SynonymOf,
    WordplayNode,
    resolve,
    surface_letters,
)
from cryptic_prover.oracles import Lexicon
from cryptic_prover.verifier import (
    AssertEquality,
    AssertPredicate,
    Call,
    Concat,
    Expr,
    Failure,
    ProofScript,
    ProofStatus,
    Statement,
    StringLit,
    VerificationOutcome,
    parse_proof,
    render_failure_report,
    render_proof,
    render_statement,
    verify_reply,
)


class UnsupportedNode(ValueError):
    """A wordplay construct with no proof-grammar counterpart."""


class GeneratorUnavailable(RuntimeError):
    """The proof generator cannot be reached (transport or config)."""


MAX_GENERATOR_CALLS = 6  # one draft plus five rewrites
FAIL = "FAIL"
_COUNT_WORDS = "zero one two three four five six seven eight nine ten".split()

# Rewrites a proof needed, 0..MAX_GENERATOR_CALLS - 1, or FAIL.
Rewrites = Union[int, str]

# The answer (as normalised letters), clue and pattern a proof header names.
Header = tuple[str, str, str]

# Reply text -> (the header it names, None when it does not parse; its
# outcome; its failure report, empty when proved).  No part depends on the
# request, so the requests for a clue's candidates can share one memo.
Verdicts = MutableMapping[str, tuple[Optional[Header], VerificationOutcome, str]]


def check_rewrites(value: Rewrites) -> None:
    """Reject anything but a rewrite count within the budget or ``FAIL``."""
    if value == FAIL:
        return
    in_budget = isinstance(value, int) and 0 <= value < MAX_GENERATOR_CALLS
    if isinstance(value, bool) or not in_budget:
        raise ValueError(
            f"rewrites out of range: expected 0..{MAX_GENERATOR_CALLS - 1} "
            f"or {FAIL!r}, got {value!r}"
        )


@dataclass(frozen=True)
class ProofRequest:
    """Everything a generator needs to formalise one candidate answer."""

    clue: Clue
    candidate_answer: str
    definition: str
    wordplay: str
    sample_index: int = 0

    def __post_init__(self):
        if not pattern_matches(self.candidate_answer, self.clue.pattern):
            raise ValueError(
                f"candidate {self.candidate_answer!r} does not fit "
                f"pattern {self.clue.pattern.render()!r}"
            )

    @cached_property
    def block(self) -> str:
        """The proof stub the generator is asked to complete.

        Rendered on first use and kept, so all of a request's prompts
        share one rendering.
        """
        header = ProofScript(
            answer=self.candidate_answer,
            clue=self.clue.surface,
            pattern=self.clue.pattern,
            definition=self.definition,
            wordplay=self.wordplay,
        )
        return render_proof(header).rstrip("\n")

    @cached_property
    def header(self) -> Header:
        """What a reply's proof header must name to answer this request."""
        return _header(self.candidate_answer, self.clue.surface, self.clue.pattern)


def _header(answer: str, clue: str, pattern: Pattern) -> Header:
    return normalize_letters(answer), clue, pattern.render()


def _unanswered(named: Header, asked: Header) -> Failure:
    """The failure of a reply whose header names another answer, clue or pattern."""
    differences = [
        f"the reply has {field}={got!r}, the request {field}={want!r}"
        for field, got, want in zip(("answer", "clue", "pattern"), named, asked)
        if got != want
    ]
    return Failure(-1, "assert the proof header matches the request", "; ".join(differences))


@dataclass(frozen=True)
class Attempt:
    prompt: str
    response: str
    outcome: VerificationOutcome
    # Rendered once per distinct reply, or once per attempt for a reply
    # whose header names another request; empty when proved.
    failure_report: str


@dataclass(frozen=True)
class GeneratorTranscript:
    """Every attempt for one request, ending proved or failed.

    ``rewrites_used`` is the index of the proved attempt (0 means the
    first draft passed), or the string ``"FAIL"``.  A transcript may
    fail short of six attempts only when the generator itself became
    unavailable, or holds none when no reply could prove the candidate
    (``cryptic-prover formalize``'s definition pre-check), in which case
    ``failure_reason`` says why.
    """

    attempts: tuple[Attempt, ...]
    rewrites_used: Rewrites
    failure_reason: str = ""

    def __post_init__(self):
        check_rewrites(self.rewrites_used)
        if self.solved:
            if len(self.attempts) != self.rewrites_used + 1:
                raise ValueError("a solved transcript holds one attempt per call")
        elif not self.failure_reason and len(self.attempts) != MAX_GENERATOR_CALLS:
            raise ValueError(
                f"an exhausted transcript holds all {_COUNT_WORDS[MAX_GENERATOR_CALLS]} attempts"
            )

    @property
    def solved(self) -> bool:
        return self.rewrites_used != FAIL


# -- deterministic compilation --------------------------------------------------


def compile_wordplay(node: WordplayNode, request: ProofRequest) -> ProofScript:
    """Emit the proof a careful solver would write for this tree.

    Statements come out in reading order: the synonym and abbreviation
    facts behind each fragment, then each action with its letter-level
    consequence, then (for multi-part wordplay) the concatenation that
    forms the answer, and finally the definition check against the
    answer and its pattern.
    """
    answer = normalize_letters(request.candidate_answer)
    pattern_text = request.clue.pattern.render()
    spans, _ = dataset.extract_definition(request.definition)
    span_texts = [span.text for span in spans]

    statements: list[Statement] = []
    if isinstance(node, DoubleDefinition):
        for text in span_texts:
            statements.append(
                AssertPredicate("is_synonym", (text, answer), pattern=pattern_text)
            )
    else:
        resolved = resolve(node, answer)
        if resolved is None:
            # The letters cannot form the answer; prove what the
            # annotation does say and let the final equality fail.
            resolved = resolve(node, surface_letters(node))
        if resolved is None:
            raise UnsupportedNode("wordplay letters cannot be resolved at all")
        leaves: list[Statement] = []
        actions: list[Statement] = []
        _emit(resolved, leaves, actions)
        statements.extend(leaves)
        statements.extend(actions)
        if isinstance(node, notation.Sequence):
            parts = Concat(tuple(StringLit(part.letters) for part in resolved.parts))
            statements.append(AssertEquality(parts, StringLit(answer)))
        elif resolved.letters != answer:
            statements.append(AssertEquality(StringLit(resolved.letters), StringLit(answer)))
        if span_texts:
            statements.append(
                AssertPredicate(
                    "is_synonym", (span_texts[0], answer), pattern=pattern_text
                )
            )

    return ProofScript(
        answer=request.candidate_answer,
        clue=request.clue.surface,
        pattern=request.clue.pattern,
        definition=request.definition,
        wordplay=request.wordplay,
        statements=tuple(statements),
    )


# The proof-grammar letter function each deletion action applies per letter.
_DROP = {ActionKind.REMOVE_FIRST: "drop_first", ActionKind.REMOVE_LAST: "drop_last"}


def _emit(resolved: Resolved, leaves: list[Statement], actions: list[Statement]) -> None:
    """Append a node's statements after those of the operands it resolved.

    The action comes from ``notation.indicator_action``, each operand's
    letters from ``resolved.parts``; each branch below only says what the
    action does to those letters in the proof grammar.
    """
    node = resolved.node
    if isinstance(node, Literal):
        return
    if isinstance(node, SynonymOf):
        leaves.append(AssertPredicate("is_synonym", (node.phrase, node.letters)))
        return
    if isinstance(node, AbbrevOf):
        leaves.append(AssertPredicate("is_abbreviation", (node.phrase, node.letters)))
        return
    for part in resolved.parts:
        _emit(part, leaves, actions)
    if isinstance(node, notation.Sequence):
        return
    action = notation.indicator_action(node)
    if action is not None and node.indicator:
        actions.append(AssertPredicate("action_type", (node.indicator, action)))
    letters = StringLit(resolved.letters)
    if isinstance(node, Anagram):
        operand = resolved.parts[0].letters
        actions.append(AssertPredicate("is_anagram", (operand, resolved.letters)))
    elif isinstance(node, Reversal):
        operand = StringLit(resolved.parts[0].letters)
        actions.append(AssertEquality(Call("reverse", (operand,)), letters))
    elif isinstance(node, Deletion):
        if action not in _DROP:
            raise UnsupportedNode("inner deletions have no proof-grammar mapping")
        expr: Expr = StringLit(resolved.parts[0].letters)
        for _ in node.removed:
            expr = Call(_DROP[action], (expr,))
        actions.append(AssertEquality(expr, letters))
    elif isinstance(node, Initials):
        phrases = StringLit(" ".join(node.phrases))
        actions.append(AssertEquality(Call("initials", (phrases,)), letters))
    elif isinstance(node, Hidden):
        span = Call("hidden_span", (StringLit(node.host_text), StringLit(node.letters)))
        actions.append(AssertEquality(span, letters))
        taken = [StringLit(piece) for _, piece, _ in notation.hidden_pieces(node) if piece]
        if len(taken) >= 2:
            actions.append(AssertEquality(Concat(tuple(taken)), letters))
    elif isinstance(node, Container):
        outer, inner = (part.letters for part in resolved.parts)
        pieces = (outer[: resolved.split], inner, outer[resolved.split :])
        actions.append(AssertEquality(Concat(tuple(map(StringLit, pieces))), letters))
    elif isinstance(node, Homophone):
        if node.origin:
            origin_letters = normalize_letters(node.sounds_like)
            leaves.append(AssertPredicate("is_synonym", (node.origin, origin_letters)))
        actions.append(AssertPredicate("is_homophone", (node.sounds_like, resolved.letters)))
    else:
        raise UnsupportedNode(f"no proof mapping for {type(node).__name__}")


# -- prompt assembly -------------------------------------------------------------


# The static sections, in prompt order, ahead of the request block.
_PROMPT_SECTIONS = (
    "preamble.txt",
    "wordplay_examples.txt",
    "functions.txt",
    "fewshot.txt",
    "instruction.txt",
)


@lru_cache(maxsize=None)
def _prompt_prefix() -> str:
    """The static sections joined once, each followed by a blank line."""
    sections = (
        lexfiles.seed_path(f"prompts/{name}").read_text(encoding="utf-8").rstrip("\n")
        for name in _PROMPT_SECTIONS
    )
    return "".join(section + "\n\n" for section in sections)


def build_prompt(
    request: ProofRequest,
    failure_report: Optional[str] = None,
    previous_script: Optional[str] = None,
) -> str:
    """Assemble the generator prompt; fixed section order, data-file text.

    The static prefix is the same for every prompt; the request block
    and, on a rewrite, the previous script and the failure report follow
    it, separated by blank lines.
    """
    tail = [request.block]
    if failure_report:
        if previous_script:
            tail.append(previous_script.rstrip("\n"))
        tail.append(failure_report.rstrip("\n"))
    return _prompt_prefix() + "\n\n".join(tail) + "\n"


# -- the rewrite loop ------------------------------------------------------------


def prove_with_rewrites(
    request: ProofRequest,
    generator,
    lexicon: Lexicon,
    max_calls: int = MAX_GENERATOR_CALLS,
    *,
    verdicts: Optional[Verdicts] = None,
) -> GeneratorTranscript:
    """Draft, verify, and rewrite until proved or out of attempts.

    ``max_calls`` may be lowered (a tighter rewrite cap) but never
    raised past the published budget of six.  A reply whose proof header
    names another answer, clue or pattern than the request fails, its
    report saying so first, whatever the proof itself proves.  A reply
    already in ``verdicts`` is not verified again: its header, outcome
    and failure report are reused, which is exact because verification
    is a pure function of the script and the lexicon; only the header
    check is made per request.  Each new verdict is added to it.
    ``None`` gives this request a memo of its own; a caller that passes
    one mapping to several requests (``run_experiment`` passes one per
    clue) must verify all of them against the same ``lexicon``.
    """
    if not 1 <= max_calls <= MAX_GENERATOR_CALLS:
        raise ValueError(f"max_calls must be 1..{MAX_GENERATOR_CALLS}, got {max_calls}")
    attempts: list[Attempt] = []
    if verdicts is None:
        verdicts = {}
    report: Optional[str] = None
    previous: Optional[str] = None
    for index in range(max_calls):
        prompt = build_prompt(request, failure_report=report, previous_script=previous)
        try:
            response = generator.generate(prompt)
        except GeneratorUnavailable as error:
            return GeneratorTranscript(tuple(attempts), FAIL, failure_reason=str(error))
        if response not in verdicts:
            proof, outcome = verify_reply(response, lexicon)
            named = None if proof is None else _header(proof.answer, proof.clue, proof.pattern)
            proved = outcome.status is ProofStatus.PROVED
            verdicts[response] = (named, outcome, "" if proved else render_failure_report(outcome))
        named, outcome, report = verdicts[response]
        if named is not None and named != request.header:
            failures = (_unanswered(named, request.header),) + outcome.failures
            outcome = VerificationOutcome(ProofStatus.FAILED, failures, outcome.lints)
            report = render_failure_report(outcome)
        attempt = Attempt(prompt, response, outcome, report)
        attempts.append(attempt)
        if attempt.outcome.status is ProofStatus.PROVED:
            return GeneratorTranscript(tuple(attempts), index)
        previous, report = response, attempt.failure_report
    if max_calls < MAX_GENERATOR_CALLS:
        return GeneratorTranscript(
            tuple(attempts),
            FAIL,
            failure_reason=f"rewrite cap reached after {max_calls} call(s)",
        )
    return GeneratorTranscript(tuple(attempts), FAIL)


def save_transcript(
    solves: Iterable[tuple[ProofRequest, GeneratorTranscript]],
    path: Union[str, Path],
    append: bool = False,
) -> None:
    """Write the attempts of ``solves`` to ``path`` as JSON lines, header first.

    The header is ``{"prefix": <static prompt prefix>}``; ``append`` adds
    the attempt lines to an existing file instead.  Each attempt line
    holds ``candidate``, ``sample_index``, ``prompt_tail`` (the prompt
    after the prefix; a prompt without it is a ValueError), ``response``,
    ``status`` and ``failure_report``.  A lone surrogate (which
    ``json.loads`` makes of a ``\\ud800`` escape in a reply) cannot be
    UTF-8, so it is written as that JSON escape again.
    """
    prefix = _prompt_prefix()
    lines = [] if append else [{"prefix": prefix}]
    for request, transcript in solves:
        for attempt in transcript.attempts:
            if not attempt.prompt.startswith(prefix):
                raise ValueError("a transcript prompt must start with the static prompt prefix")
            lines.append(
                {
                    "candidate": request.candidate_answer,
                    "sample_index": request.sample_index,
                    "prompt_tail": attempt.prompt[len(prefix) :],
                    "response": attempt.response,
                    "status": attempt.outcome.status.name,
                    "failure_report": attempt.failure_report,
                }
            )
    text = "".join(json.dumps(line, ensure_ascii=False, sort_keys=True) + "\n" for line in lines)
    with open(path, "ab" if append else "wb") as fh:
        fh.write(text.encode("utf-8", "backslashreplace"))


def load_transcript_responses(path: Union[str, Path]) -> list[str]:
    """Every response in a transcript written by ``save_transcript``, in file order.

    A first line without ``prefix``, or a later one without ``response``,
    is a RecordError naming its line.
    """
    keys = iter(["prefix"])  # the header's key; every later line's is "response"
    data = Path(path).read_bytes()
    values = list(lexfiles.json_lines(data, path, lambda value: value[next(keys, "response")]))
    if not values:
        raise lexfiles.RecordError(path, 1, "malformed record: missing key 'prefix'")
    return values[1:]


# -- generators ------------------------------------------------------------------


# Distinct requests the mock remembers.  A clue's solves ask two (its
# gold answer and its decoy), so this holds many clues' worth per worker.
_MOCK_MEMO_SIZE = 256

# What spoiling appends to a compiled reply: one false equality, rendered
# as render_proof renders a final statement.
_SPOILER = f"assert {render_statement(AssertEquality(StringLit('QQ'), StringLit('ZZ')))}\n"


@lru_cache(maxsize=_MOCK_MEMO_SIZE)
def _mock_reply(asked_text: str, lexicon: Optional[Lexicon]) -> tuple[str, bool]:
    """The mock's unspoiled reply to a request, and whether it compiled.

    ``asked_text`` is the request's header with its ``definition:`` and
    ``wordplay:`` lines; the reply is a pure function of it and the
    lexicon, so each distinct request is parsed, compiled and rendered
    once while it stays in the memo.
    """
    try:
        asked = parse_proof(asked_text)
        request = ProofRequest(
            clue=Clue(surface=asked.clue, pattern=asked.pattern),
            candidate_answer=asked.answer,
            definition=asked.definition or asked.clue,
            wordplay=asked.wordplay,
        )
        node = notation.parse_wordplay(asked.wordplay, lexicon)
        script = compile_wordplay(node, request)
    except ValueError as error:
        # Nothing compilable: answer with an honest stub that the
        # verifier will reject, mirroring a lost generator.
        stub = (
            f'proof answer="X" clue="unparseable request" pattern="1"\n'
            f"# {type(error).__name__}\n"
        )
        return stub, False
    return render_proof(script), True


class CompilerBackedMock:
    """Answers prompts by recompiling the request they contain.

    The request (or, on a rewrite, the previous script) is the last line
    starting with ``proof`` in the prompt, with the ``definition:`` and
    ``wordplay:`` lines below it; ``verifier.parse_proof`` reads the
    three, so the verifier's grammar is the only reading of a header.
    The reply is a pure function of those lines and the lexicon, so a
    bounded, thread-safe memo shared by every mock keeps the rendered
    reply of each recent distinct request, and a repeated request is
    not parsed or compiled again.  ``fail_first`` spoils that many
    responses with a false equality, which makes the rewrite loop take
    measurable laps before succeeding; calls are counted and spoiled
    whether or not the memo held the reply.  The wordplay is parsed with
    ``lexicon`` (``None`` means ``seed_lexicon()``), which should be the
    lexicon the replies are verified against.
    """

    def __init__(self, fail_first: int = 0, lexicon: Optional[Lexicon] = None):
        self.fail_first = fail_first
        self.lexicon = lexicon
        self.calls = 0
        self._calls_lock = threading.Lock()

    def generate(self, prompt: str) -> str:
        # Count and decide together: under --workers, a spoiled reply
        # belongs to one of the first fail_first calls, whichever thread.
        with self._calls_lock:
            self.calls += 1
            spoil = self.calls <= self.fail_first
        # With no line starting "proof", rfind gives -1 and the prompt's
        # first line fails parse_proof's header check.
        header, *below = prompt[prompt.rfind("\nproof") + 1 :].split("\n")
        fields = [
            line for line in below if line.lstrip().startswith(("definition:", "wordplay:"))
        ]
        reply, compiled = _mock_reply("\n".join([header, *fields]), self.lexicon)
        return reply + _SPOILER if spoil and compiled else reply


class ScriptedReplayMock:
    """Plays back a fixed response list, one per generate() call."""

    def __init__(self, responses: Sequence[str]):
        self._responses = list(responses)
        self.calls = 0

    @classmethod
    def from_transcript(cls, path: Union[str, Path]) -> "ScriptedReplayMock":
        return cls(load_transcript_responses(path))

    def generate(self, prompt: str) -> str:
        if self.calls >= len(self._responses):
            raise GeneratorUnavailable("replay script exhausted")
        response = self._responses[self.calls]
        self.calls += 1
        return response


class HttpChatGenerator:
    """Chat-completion HTTP client, gated on an API key variable.

    A prompt that starts with the static prompt prefix is sent as two
    messages: the prefix as a ``system`` message, the same bytes on every
    call so a provider can cache it, and the rest as the ``user`` message.
    Any other prompt is sent whole as the ``user`` message.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key_env: str = "CRYPTIC_PROVER_API_KEY",
        timeout: float = 120.0,
        max_concurrent: int = 4,
        temperature: Optional[float] = None,
    ):
        self.endpoint = endpoint
        self.model = model
        self.api_key_env = api_key_env
        self.timeout = timeout
        self.temperature = temperature
        self._slots = threading.BoundedSemaphore(max_concurrent)

    def generate(self, prompt: str) -> str:
        api_key = os.environ.get(self.api_key_env, "")
        if not api_key:
            raise GeneratorUnavailable(
                f"no API key: set {self.api_key_env} to use the HTTP generator"
            )
        prefix = _prompt_prefix()
        if prompt.startswith(prefix):
            messages = [
                {"role": "system", "content": prefix},
                {"role": "user", "content": prompt[len(prefix) :]},
            ]
        else:
            messages = [{"role": "user", "content": prompt}]
        payload = {"model": self.model, "messages": messages}
        if self.temperature is not None:
            payload["temperature"] = self.temperature
        import requests  # only a live run pays for importing the HTTP stack

        with self._slots:
            try:
                response = requests.post(
                    self.endpoint,
                    json=payload,
                    headers={"Authorization": f"Bearer {api_key}"},
                    timeout=self.timeout,
                )
                response.raise_for_status()
                data = response.json()
            except requests.RequestException as error:
                raise GeneratorUnavailable(str(error)) from None
        try:
            content = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            content = None
        if not isinstance(content, str):  # a null or list content is no reply either
            raise GeneratorUnavailable("malformed completion payload")
        return content
