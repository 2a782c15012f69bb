"""The calls a timed pass makes, the same ones ``cli.cmd_experiment`` makes.

Set-up goes through the public loaders; a pass is
``evalharness.run_experiment`` with ``max_workers=1`` driving
``CompilerBackedMock`` behind a counting wrapper.  Every package call
goes through a module attribute (``dataset.load_puzzles``, not a name
imported from it), so the traced run's rebinding reaches it.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from cryptic_prover import candidates, dataset, evalharness, formalize, lexfiles, oracles
from cryptic_prover.core import Clue

from perfbench.calibration import calibration_ms
from perfbench.corpus import Workload


@dataclass(frozen=True)
class Inputs:
    workload: Workload
    slice_clues: tuple[Clue, ...]
    clues: tuple[Clue, ...]
    lexicon: oracles.Lexicon
    table: candidates.EmbeddingTable
    wordlist: list[str]


def load_inputs(workload: Workload, directory: Path) -> Inputs:
    """Read a workload directory through the package's public loaders."""

    def puzzle_clues(name: str) -> tuple[Clue, ...]:
        documents = dataset.load_puzzles(directory / name)
        return tuple(clue for document in documents for clue in document.clues)

    return Inputs(
        workload=workload,
        slice_clues=puzzle_clues("slice.yaml"),
        clues=puzzle_clues("clues.yaml"),
        lexicon=oracles.Lexicon.from_files(
            abbreviations=directory / "abbreviations.tsv",
            thesaurus=directory / "thesaurus.tsv",
            indicators=[directory / "indicators.tsv", directory / "indicators_extra.tsv"],
            homophones=directory / "homophones.tsv",
            wordlist=directory / "wordlist.txt",
        ),
        table=candidates.load_embeddings(directory / "embeddings.txt"),
        wordlist=lexfiles.load_wordlist(directory / "wordlist.txt"),
    )


class CountingGenerator:
    """Counts calls and prompt bytes through the ``generate(prompt)`` seam.

    It also tracks the longest prefix every prompt so far shares: the
    static part of the prompt, which a provider could cache.
    """

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.prompt_bytes = 0
        self._prefix: str | None = None

    def generate(self, prompt: str) -> str:
        self.calls += 1
        self.prompt_bytes += len(prompt.encode("utf-8"))
        if self._prefix is None:
            self._prefix = prompt
        elif not prompt.startswith(self._prefix):
            self._prefix = os.path.commonprefix([self._prefix, prompt])
        return self.inner.generate(prompt)

    def static_prefix_bytes(self) -> int:
        """Bytes of the shared prefix, cut back to its last section break."""
        prefix = self._prefix or ""
        return len(prefix[: prefix.rfind("\n\n") + 2].encode("utf-8"))


@dataclass(frozen=True)
class PassOutcome:
    clues: int
    seconds: float
    records: tuple[evalharness.SolveRecord, ...]
    generator_calls: int
    prompt_bytes: int
    results_bytes: int
    transcript_bytes: int
    calibration_ms: float  # the calibration loop, run just before and after


def run_pass(
    inputs: Inputs,
    clues: Sequence[Clue],
    out_dir: Path,
    generator: CountingGenerator,
) -> PassOutcome:
    """One timed pass over ``clues``, writing ``out_dir/results.jsonl``.

    With ``exercise_io`` the pass stops after half its clues and resumes,
    so the second call reads the results file the first one wrote.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    results = out_dir / "results.jsonl"
    transcripts = out_dir / "transcripts" if inputs.workload.exercise_io else None
    calls, prompt_bytes = generator.calls, generator.prompt_bytes

    before = calibration_ms()
    start = time.perf_counter()
    if inputs.workload.exercise_io:
        _experiment(inputs, clues[: len(clues) // 2], generator, results, transcripts, False)
        records = _experiment(inputs, clues, generator, results, transcripts, True)
    else:
        records = _experiment(inputs, clues, generator, results, None, False)
    seconds = time.perf_counter() - start
    calibration = (before + calibration_ms()) / 2

    transcript_bytes = (
        sum(entry.stat().st_size for entry in transcripts.iterdir()) if transcripts else 0
    )
    return PassOutcome(
        clues=len(clues),
        seconds=seconds,
        records=tuple(records),
        generator_calls=generator.calls - calls,
        prompt_bytes=generator.prompt_bytes - prompt_bytes,
        results_bytes=results.stat().st_size,
        transcript_bytes=transcript_bytes,
        calibration_ms=calibration,
    )


def _experiment(inputs, clues, generator, results, transcripts, resume):
    return evalharness.run_experiment(
        clues,
        generator=generator,
        lexicon=inputs.lexicon,
        table=inputs.table,
        wordlist=inputs.wordlist,
        samples_per_candidate=inputs.workload.samples,
        annotations=evalharness.GoldAnnotationSource(),
        results_path=results,
        transcripts_dir=transcripts,
        resume=resume,
        max_workers=1,
        max_generator_calls=formalize.MAX_GENERATOR_CALLS,
    )
