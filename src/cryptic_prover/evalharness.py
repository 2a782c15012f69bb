"""The provability experiment: gold answers vs close decoys, scored three ways.

Each clue is tried with two candidate answers (its gold answer and the
nearest pattern-fitting decoy from the embedding table), each for a
number of samples, through the generate/verify/rewrite loop.  Every run
becomes one SolveRecord whose ``rewrites`` is the number of rewrites a
successful proof needed (0..5) or ``"FAIL"``.  A clue's runs share one
verdict memo, so a reply any of them already had verified is not
verified again; verdicts are never shared between clues.  A candidate
that no clue-edge span defines (``verifier.definable``, asked once per
clue and candidate) cannot be proved by any reply, so its runs are
recorded as ``"FAIL"`` without a generator call or a transcript line.

Records aggregate per candidate three ways: number of completed proofs
(higher is better), fewest rewrites of any solve (lower is better, 6
when nothing solved), and mean rewrites with FAIL counted as 6 rather
than infinity.  ``classify`` compares the two candidates under one of
those methods; ``tabulate`` turns many comparisons into the win/draw/
loss percentage table.

Records persist as JSON lines, appended as each clue finishes.  The unit
of work, and of resume, is the slot ``(clue_id, is_ground_truth,
sample_index)``: a clue has 2 x samples slots, and each record fills one.
A resumed run keeps the records already written and runs only the empty
slots, searching for a decoy only when a decoy slot is empty; a last line
the interruption left half written is dropped and its slot run again.
"""

from __future__ import annotations

import json
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from enum import Enum, auto
from pathlib import Path
from statistics import fmean
from typing import Iterable, Optional, Sequence, Union

from cryptic_prover import dataset
from cryptic_prover.candidates import EmbeddingTable, EmptyCandidateSet, closest_candidates
from cryptic_prover.core import Clue, normalize_letters
from cryptic_prover.formalize import (
    FAIL,
    MAX_GENERATOR_CALLS,
    ProofRequest,
    Rewrites,
    Verdicts,
    check_rewrites,
    prove_with_rewrites,
    save_transcript,
)
from cryptic_prover.lexfiles import RecordError, json_lines
from cryptic_prover.oracles import Lexicon
from cryptic_prover.verifier import definable

log = logging.getLogger(__name__)


class Method(Enum):
    COMPLETED_PROOFS = auto()
    FASTEST_SOLVE = auto()
    MEAN_SOLVE_TIME = auto()


class Outcome(Enum):
    TRUE_POS = auto()
    DRAW = auto()
    FALSE_NEG = auto()


class MissingCandidate(LookupError):
    """classify() needs records for both the gold answer and the decoy."""


class ClueSetError(ValueError):
    """Clues that cannot be run together; raised before any solve or write."""


@dataclass(frozen=True, slots=True)
class SolveRecord:
    """One (clue, candidate, sample) trip through the rewrite loop.

    Slotted, because a run returns, and a resume reads, every record.
    """

    clue_id: str
    candidate: str
    is_ground_truth: bool
    sample_index: int
    rewrites: Rewrites
    reason: str = ""

    def __post_init__(self):
        check_rewrites(self.rewrites)
        if self.candidate != normalize_letters(self.candidate):
            raise ValueError(f"candidate must be normalized caps: {self.candidate!r}")
        if self.sample_index < 0:
            raise ValueError(f"sample_index must be >= 0, got {self.sample_index}")
        if self.reason and self.rewrites != FAIL:
            raise ValueError("only FAIL records carry a reason")

    def to_dict(self) -> dict:
        return {
            "clue_id": self.clue_id,
            "candidate": self.candidate,
            "is_ground_truth": self.is_ground_truth,
            "sample_index": self.sample_index,
            "rewrites": self.rewrites,
            "reason": self.reason,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "SolveRecord":
        return cls(
            clue_id=raw["clue_id"],
            candidate=raw["candidate"],
            is_ground_truth=raw["is_ground_truth"],
            sample_index=raw["sample_index"],
            rewrites=raw["rewrites"],
            reason=raw.get("reason", ""),
        )


@dataclass(frozen=True)
class QuestionComparison:
    clue_id: str
    method: Method
    outcome: Outcome


def _checked(values: Sequence[Rewrites]) -> Sequence[Rewrites]:
    """``values`` after ``check_rewrites`` on each; never empty."""
    if not values:
        raise ValueError("no records to score")
    for value in values:
        check_rewrites(value)
    return values


# -- scoring ---------------------------------------------------------------


def score_completed(values: Sequence[Rewrites]) -> int:
    """How many of the runs produced a verified proof."""
    return sum(1 for v in _checked(values) if v != FAIL)


def score_fastest(values: Sequence[Rewrites]) -> int:
    """Fewest rewrites of any solved run; MAX_GENERATOR_CALLS (6) when nothing solved."""
    solved = [v for v in _checked(values) if v != FAIL]
    return min(solved) if solved else MAX_GENERATOR_CALLS


def score_mean(values: Sequence[Rewrites]) -> float:
    """Mean rewrites with FAIL counted as MAX_GENERATOR_CALLS (6), not infinity."""
    return fmean(MAX_GENERATOR_CALLS if v == FAIL else v for v in _checked(values))


# Each method's scorer, and whether a higher score is better: completed
# proofs count up; the other two count rewrites, so down.
_SCORING = {
    Method.COMPLETED_PROOFS: (score_completed, True),
    Method.FASTEST_SOLVE: (score_fastest, False),
    Method.MEAN_SOLVE_TIME: (score_mean, False),
}


def classify(records: Sequence[SolveRecord], method: Method) -> QuestionComparison:
    """Did the gold answer beat the decoy on this clue, under this method?"""
    clue_ids = {r.clue_id for r in records}
    if len(clue_ids) != 1:
        raise ValueError(f"records span {sorted(clue_ids)!r}, expected one clue")
    truth = [r.rewrites for r in records if r.is_ground_truth]
    decoy = [r.rewrites for r in records if not r.is_ground_truth]
    if not truth or not decoy:
        raise MissingCandidate(
            f"clue {next(iter(clue_ids))!r} needs records for both candidates"
        )
    scorer, higher_is_better = _SCORING[method]
    gold_score, decoy_score = scorer(truth), scorer(decoy)
    if not higher_is_better:
        gold_score, decoy_score = -gold_score, -decoy_score
    if gold_score > decoy_score:
        outcome = Outcome.TRUE_POS
    elif gold_score == decoy_score:
        outcome = Outcome.DRAW
    else:
        outcome = Outcome.FALSE_NEG
    return QuestionComparison(next(iter(clue_ids)), method, outcome)


def compare_records(records: Sequence[SolveRecord]) -> list[QuestionComparison]:
    """All (clue, method) comparisons, sorted by clue id then method."""
    by_clue: dict[str, list[SolveRecord]] = {}
    for record in records:
        by_clue.setdefault(record.clue_id, []).append(record)
    comparisons = []
    for clue_id in sorted(by_clue):
        for method in Method:
            comparisons.append(classify(by_clue[clue_id], method))
    return comparisons


@dataclass(frozen=True)
class TableRow:
    method: Method
    true_pos: int
    draw: int
    false_neg: int
    comparisons: int

    def as_dict(self) -> dict:
        return {
            "method": self.method.name,
            "true_pos": self.true_pos,
            "draw": self.draw,
            "false_neg": self.false_neg,
            "comparisons": self.comparisons,
        }


def tabulate(comparisons: Sequence[QuestionComparison]) -> list[TableRow]:
    """Whole-number win/draw/loss percentages per method, rows sum 100 +/- 1."""
    if not comparisons:
        raise ValueError("no comparisons to tabulate")
    rows = []
    for method in Method:
        mine = [c for c in comparisons if c.method is method]
        if not mine:
            continue
        tally = {outcome: 0 for outcome in Outcome}
        for comparison in mine:
            tally[comparison.outcome] += 1
        total = len(mine)
        rows.append(
            TableRow(
                method=method,
                true_pos=round(100 * tally[Outcome.TRUE_POS] / total),
                draw=round(100 * tally[Outcome.DRAW] / total),
                false_neg=round(100 * tally[Outcome.FALSE_NEG] / total),
                comparisons=total,
            )
        )
    return rows


def render_table(rows: Sequence[TableRow]) -> str:
    width = max(len(row.method.name) for row in rows)
    lines = [f"{'method':<{width}}  true_pos  draw  false_neg"]
    for row in rows:
        lines.append(
            f"{row.method.name:<{width}}  {row.true_pos:>7}%  {row.draw:>3}%  "
            f"{row.false_neg:>8}%"
        )
    return "\n".join(lines) + "\n"


# -- annotation sources -----------------------------------------------------


def definition_span_text(clue: Clue) -> str:
    """The first marked definition span, or the whole surface when unmarked."""
    spans, plain = dataset.extract_definition(clue.gold_definition or clue.surface)
    return spans[0].text if spans else plain


def decoy_wordplay(clue: Clue, candidate: str) -> str:
    """The decoy's synthesized annotation: its letters glossed by the definition."""
    return f"{normalize_letters(candidate)} ({definition_span_text(clue)})"


class GoldAnnotationSource:
    """Reuse each clue's own annotation; synthesize one for decoys.

    Samples are identical by construction, which keeps the desk-scale
    experiment fully offline and deterministic.
    """

    def annotate(self, clue: Clue, candidate: str, sample_index: int) -> tuple[str, str]:
        definition = clue.gold_definition or clue.surface
        if normalize_letters(candidate) == normalize_letters(clue.gold_answer or ""):
            if not clue.gold_wordplay:
                raise LookupError(f"clue {clue.clue_id!r} has no gold wordplay")
            return definition, clue.gold_wordplay
        return definition, decoy_wordplay(clue, candidate)


AnnotationKey = tuple[str, str, int]  # (clue_id, candidate, sample_index)


def _keyed_annotation(entry: dict) -> tuple[AnnotationKey, tuple[str, str]]:
    key = (entry["clue_id"], normalize_letters(entry["candidate"]), entry["sample_index"])
    return key, (entry["definition"], entry["wordplay"])


class FileAnnotationSource:
    """Pre-generated (definition, wordplay) pairs keyed by (clue_id, candidate, sample)."""

    def __init__(self, entries: Iterable[tuple[AnnotationKey, tuple[str, str]]]):
        self._entries = dict(entries)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FileAnnotationSource":
        """One JSON object per line with ``clue_id``, ``candidate``,
        ``sample_index``, ``definition`` and ``wordplay``."""
        return cls(json_lines(Path(path).read_bytes(), path, _keyed_annotation))

    def annotate(self, clue: Clue, candidate: str, sample_index: int) -> tuple[str, str]:
        key = (clue.clue_id, normalize_letters(candidate), sample_index)
        try:
            return self._entries[key]
        except KeyError:
            raise LookupError(f"no annotation for {key!r}") from None


# -- persistence ------------------------------------------------------------


def load_records(path: Union[str, Path]) -> list[SolveRecord]:
    """The records of a results file, one JSON object per line.

    A last line with no newline is a write that was cut short: it is
    dropped with a warning.  Any other malformed line raises RecordError
    naming its line number.  The file itself is left as it is.
    """
    # Split off the tail before decoding: a cut can fall inside a character.
    complete, _, partial = Path(path).read_bytes().rpartition(b"\n")
    if partial:
        log.warning(
            "%s: dropping a partial last line (%d bytes): an interrupted write",
            path,
            len(partial),
        )
    return list(json_lines(complete, path, SolveRecord.from_dict))


def _cut_partial_line(path: Path) -> None:
    """Truncate the file after its last newline, as load_records reads it."""
    with open(path, "rb+") as fh:
        size = fh.seek(0, os.SEEK_END)
        if size == 0:
            return
        fh.seek(size - 1)
        if fh.read(1) == b"\n":
            return
        fh.seek(0)
        fh.truncate(fh.read().rfind(b"\n") + 1)


def _keep_recorded_attempts(path: Path, recorded: set[tuple[str, int]]) -> None:
    """Cut a clue's transcript to its header and the attempts of its records.

    ``recorded`` holds the ``(candidate, sample_index)`` of each record.
    A crash after a resumed clue's attempts were appended and before its
    records were leaves attempts of slots the next resume runs again, and
    maybe a partial last line; both go, so the file replays the recorded
    slots once each.  A file with nothing to cut is left as it is.  The cut
    is written beside the file and renamed over it, so a crash during the
    write keeps the header and every recorded attempt.
    """
    data = path.read_bytes()
    lines = data[: data.rfind(b"\n") + 1].split(b"\n")[:-1]
    kept = lines[:1]
    for number, line in enumerate(lines[1:], start=2):
        try:
            value = json.loads(line)
            slot = (value["candidate"], value["sample_index"])
        except (KeyError, TypeError, ValueError) as error:
            raise RecordError(path, number, f"malformed record: {error}") from None
        if slot in recorded:
            kept.append(line)
    if len(kept) < len(lines) or not data.endswith(b"\n"):
        partial = path.with_name(path.name + ".tmp")
        partial.write_bytes(b"".join(line + b"\n" for line in kept))
        os.replace(partial, path)


def _append_records(path: Union[str, Path], records: Iterable[SolveRecord]) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record.to_dict(), ensure_ascii=False, sort_keys=True))
            fh.write("\n")


# -- the experiment ---------------------------------------------------------


def run_experiment(
    clues: Sequence[Clue],
    *,
    generator,
    lexicon: Lexicon,
    table: EmbeddingTable,
    wordlist: Iterable[str],
    samples_per_candidate: int = 5,
    annotations=None,
    results_path: Optional[Union[str, Path]] = None,
    transcripts_dir: Optional[Union[str, Path]] = None,
    resume: bool = False,
    max_workers: int = 1,
    max_generator_calls: int = MAX_GENERATOR_CALLS,
) -> list[SolveRecord]:
    """Run every (clue, candidate, sample) and return all SolveRecords.

    Emits exactly 2 x samples_per_candidate records per clue, one per
    slot ``(clue_id, is_ground_truth, sample_index)``.  No decoy
    available, an annotation or request that cannot be made (LookupError
    or ValueError) and a generator outage become FAIL records carrying
    the reason; any other error propagates.  A candidate for which
    ``verifier.definable`` is false, asked once per clue and candidate
    after its first request is made, gets FAIL records with an empty
    reason and no generator call: the verifier's NO_DEFINITION_CHECK
    lint fails every proof of it.  With ``resume``, records
    already in ``results_path`` are kept and only the slots they leave
    empty are run; the decoy search runs only for a clue with an empty
    decoy slot, so a changed word list or table can give a resumed
    clue's decoy slots different candidates.  Ordering is deterministic
    for a deterministic generator; leave ``max_workers`` at 1 when
    byte-stable results files matter.  With ``transcripts_dir``, a clue's
    attempts go to ``<slug of its id>.jsonl``, written afresh when none of
    its slots were filled and appended to when a resumed clue fills more,
    after cutting the attempts of slots without a record; a slot the
    pre-check skipped has a record and no attempt lines.  Two ids with
    one slug would share that file, so such a pair is a ClueSetError
    before any solve.
    """
    if samples_per_candidate < 1:
        raise ValueError("samples_per_candidate must be at least 1")
    ids = [clue.clue_id for clue in clues]
    if len(set(ids)) != len(ids) or "" in ids:
        raise ClueSetError("every clue needs a unique non-empty clue_id")
    if transcripts_dir is not None:
        # Two ids with one slug would write to the same transcript file.
        slugs: dict[str, str] = {}
        for clue_id in ids:
            other = slugs.setdefault(_slug(clue_id), clue_id)
            if other != clue_id:
                raise ClueSetError(
                    f"clue ids {other!r} and {clue_id!r} give the same transcript file name"
                )
    for clue in clues:
        if not clue.gold_answer:
            raise ClueSetError(f"clue {clue.clue_id!r} has no gold answer")
    if annotations is None:
        annotations = GoldAnnotationSource()

    existing: list[SolveRecord] = []
    if results_path is not None:
        path = Path(results_path)
        if resume and path.exists():
            existing = load_records(path)
            _cut_partial_line(path)
        else:
            path.write_text("", encoding="utf-8")
    if transcripts_dir is not None:
        Path(transcripts_dir).mkdir(parents=True, exist_ok=True)
    filled = {(r.clue_id, r.is_ground_truth, r.sample_index) for r in existing}
    recorded: dict[str, set[tuple[str, int]]] = {}
    for r in existing:
        recorded.setdefault(r.clue_id, set()).add((r.candidate, r.sample_index))
    # tuple() returns a tuple as it is, so the loader's word list keeps the
    # identity its decoy index is keyed by.
    wordlist = tuple(wordlist)

    def solve_clue(clue: Clue) -> list[SolveRecord]:
        empty = [
            (is_truth, sample)
            for is_truth in (True, False)
            for sample in range(samples_per_candidate)
            if (clue.clue_id, is_truth, sample) not in filled
        ]
        gold = normalize_letters(clue.gold_answer)
        decoy, decoy_error = "", ""
        if any(not is_truth for is_truth, _ in empty):
            try:
                decoy = closest_candidates(
                    definition_span_text(clue), clue.pattern, gold, table, wordlist, k=1
                )[0][0]
            except EmptyCandidateSet as error:
                decoy_error = f"decoy generation failed: {error}"
                log.warning("clue %s: %s", clue.clue_id, decoy_error)
        # One verdict memo per clue, used only by the thread solving it.
        verdicts: Verdicts = {}
        solves = []  # (request, transcript) of each solve, for the transcript file
        provable: dict[str, bool] = {}  # candidate -> definable(), asked once each

        def solve(candidate: str, is_truth: bool, sample: int) -> SolveRecord:
            try:
                definition, wordplay = annotations.annotate(clue, candidate, sample)
                request = ProofRequest(
                    clue=clue,
                    candidate_answer=candidate,
                    definition=definition,
                    wordplay=wordplay,
                    sample_index=sample,
                )
            except (LookupError, ValueError) as error:
                reason = f"{type(error).__name__}: {error}"
                return SolveRecord(clue.clue_id, candidate, is_truth, sample, FAIL, reason)
            if candidate not in provable:
                provable[candidate] = definable(clue.surface, candidate, lexicon)
            if not provable[candidate]:
                # No reply can prove it, so no generator call is spent on it.
                return SolveRecord(clue.clue_id, candidate, is_truth, sample, FAIL)
            transcript = prove_with_rewrites(
                request, generator, lexicon, max_calls=max_generator_calls, verdicts=verdicts
            )
            solves.append((request, transcript))
            rewrites, reason = transcript.rewrites_used, transcript.failure_reason
            return SolveRecord(clue.clue_id, candidate, is_truth, sample, rewrites, reason)

        batch = []
        for is_truth, sample in empty:
            if is_truth:
                batch.append(solve(gold, True, sample))
            elif decoy_error:
                batch.append(SolveRecord(clue.clue_id, "", False, sample, FAIL, decoy_error))
            else:
                batch.append(solve(decoy, False, sample))
        if transcripts_dir is not None and empty:
            # Written before the clue's records, so no record lacks its attempts.
            path = Path(transcripts_dir, f"{_slug(clue.clue_id)}.jsonl")
            resumed = len(empty) < 2 * samples_per_candidate and path.exists()
            if resumed:
                _keep_recorded_attempts(path, recorded[clue.clue_id])
            save_transcript(solves, path, append=resumed)
        return batch

    records = list(existing)
    with ThreadPoolExecutor(max_workers) if max_workers > 1 else nullcontext() as pool:
        for batch in (pool.map if pool else map)(solve_clue, clues):
            records.extend(batch)
            if results_path is not None:
                _append_records(results_path, batch)
    return records


def _slug(text: str) -> str:
    return "".join(ch if ch.isalnum() else "-" for ch in text).strip("-")
