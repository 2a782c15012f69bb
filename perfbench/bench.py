"""One benchmark run: build inputs, measure, check, report.

See ``run.py`` for the command line.  Set-up is timed in fresh
processes (``probe.py``); timed passes run in this process.
"""

from __future__ import annotations

import contextlib
import gc
import io
import itertools
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

from cryptic_prover import cli, formalize

from perfbench import corpus, gate, harness, tracing
from perfbench.calibration import REFERENCE_MS

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 5
# Printed with the end-to-end metrics but left out of BENCHMARK.json: both
# must read 0, and a bound relative to a median of 0 means nothing.
PRINTED_ONLY = {"failed_share": "ratio", "verdict_error_share": "ratio"}


class Run:
    """One workload at one seed: its inputs, work directory, records and problems."""

    def __init__(self, workload, seed: int, seconds: float):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.directory = WORK / workload.name
        shutil.rmtree(self.directory, ignore_errors=True)
        self.inputs_dir = self.directory / "inputs"
        corpus.build(workload, seed, self.inputs_dir)
        self.generator = harness.CountingGenerator(formalize.CompilerBackedMock())
        self.problems: list[str] = []
        self.records = []

    # -- measuring ----------------------------------------------------------

    def setup_probes(self, count: int) -> list[tuple[float, float]]:
        """(set-up seconds, calibration ms) per fresh process.

        Keeps each probe's results file for ``check``.
        """
        times, self.probe_results = [], []
        for number in range(count):
            out = self.directory / f"probe{number}"
            done = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "probe.py"),
                 self.workload.name, str(self.inputs_dir), str(out)],
                capture_output=True, text=True, timeout=150, check=False,
            )
            if done.returncode != 0:
                raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
            probe = json.loads(done.stdout.splitlines()[-1])
            times.append((probe["setup_s"], probe["calibration_ms"]))
            self.probe_results.append((out / "results.jsonl").read_bytes())
        return times

    def clue_stream(self, clues):
        """Timed clues in corpus order; fresh ids each cycle when reuse is allowed."""
        if not self.workload.reuse_clues:
            yield from clues
            return
        for cycle in itertools.count():
            for clue in clues:
                yield replace(clue, clue_id=f"{clue.clue_id}@{cycle}")

    def timed_passes(self, stream, seconds: float):
        size = self.workload.clues_per_pass
        outcomes = []
        deadline = time.perf_counter() + seconds
        while len(outcomes) < 2 or time.perf_counter() < deadline:
            clues = list(itertools.islice(stream, size))
            if len(clues) < size:
                break  # every unique clue has been timed once
            gc.collect()
            outcome = harness.run_pass(self.inputs, clues, self.directory / "pass", self.generator)
            outcomes.append(outcome)
            self.records.extend(outcome.records)
        if len(outcomes) < 2:
            raise RuntimeError("fewer than two timed passes: too few unique clues")
        return outcomes

    def reference(self) -> bytes:
        out = self.directory / "reference"
        outcome = harness.run_pass(self.inputs, self.inputs.slice_clues, out, self.generator)
        self.records.extend(outcome.records)
        return (out / "results.jsonl").read_bytes()

    # -- checking -----------------------------------------------------------

    def check(self, expected: bytes) -> None:
        """Byte-identical reference results, then the known-answer verdicts."""
        samples = self.workload.samples
        head = b"".join(expected.splitlines(keepends=True)[: 2 * samples])
        for number, result in enumerate(self.probe_results):
            self._same(f"fresh-process probe {number} vs library run", head, result)
        self._same("second library run", expected, self.reference())

        out = self.directory / "cli"
        argv = ["--config", str(self.inputs_dir / "cli.yaml"), "--output-dir", str(out),
                "experiment", "--clues", str(self.inputs_dir / "slice.yaml"),
                "--results", "results.jsonl"]
        if self.workload.exercise_io:
            argv += ["--transcripts", "transcripts"]
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(argv)
        if status != 0:
            self.problems.append(f"cryptic-prover experiment exited {status}")
        else:
            self._same("cryptic-prover experiment", expected, (out / "results.jsonl").read_bytes())
        self.problems.extend(gate.verdict_problems(self.records))

    def _same(self, label: str, expected: bytes, actual: bytes) -> None:
        difference = gate.first_difference(label, expected, actual)
        if difference:
            self.problems.append(difference)

    # -- the two kinds of run -----------------------------------------------

    def execute(self, declared: dict, trace: bool) -> int:
        if trace:
            self.setup_probes(1)
            setup_tracer = tracing.Tracer()
            with tracing.instrumented(setup_tracer):
                self.inputs = harness.load_inputs(self.workload, self.inputs_dir)
            expected = self.reference()
            stream = self.clue_stream(self.inputs.clues)
            untraced = self.timed_passes(stream, self.seconds / 2)
            tracer = tracing.Tracer()
            with tracing.instrumented(tracer):
                traced = self.timed_passes(stream, self.seconds / 2)
            tracing.write_spans(setup_tracer, self.directory / "setup_spans.jsonl")
            tracing.write_spans(tracer, self.directory / "spans.jsonl")
            metrics, notes = layer_metrics(
                self, tracing.summarize(setup_tracer),
                tracing.summarize(tracer, root="evalharness.run_experiment"),
                tracer.counters, untraced, traced,
            )
            section = "per_layer"
        else:
            setup = self.setup_probes(SETUP_PROBES)
            self.inputs = harness.load_inputs(self.workload, self.inputs_dir)
            expected = self.reference()
            passes = self.timed_passes(self.clue_stream(self.inputs.clues), self.seconds)
            metrics, notes = end_to_end_metrics(passes, setup)
            section = "end_to_end"

        self.check(expected)
        units = {entry["name"]: entry["unit"] for entry in declared[section]}
        reported = [name for name in metrics if name not in PRINTED_ONLY]
        if set(units) != set(reported):
            raise RuntimeError(f"metrics differ from BENCHMARK.json {section}: "
                               f"{sorted(set(units) ^ set(reported))}")
        units.update(PRINTED_ONLY)
        failed = sum(1 for r in self.records if gate.failed(r) or gate.wrong_verdict(r))
        print(f"workload {self.workload.name}  seed {self.seed}  trace {int(trace)}  "
              f"{notes['passes']}")
        for name, value in metrics.items():
            detail = notes.get(name, "")
            print(f"  {name:<48} {value:>14.6f} {units[name]:<6} {detail}")
        for problem in self.problems:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
        correct = not self.problems
        print(json.dumps({
            "correct": correct,
            "attempted": len(self.records),
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in reported},
        }))
        return 0 if correct else 1


def _quantile(values, q: int) -> float:
    """The q-th percentile (q in 1..99) of at least two values."""
    return statistics.quantiles(values, n=100)[q - 1]


def _rescaled_ms_per_clue(passes) -> list[float]:
    """Each pass's ms per clue at the calibration loop's reference speed."""
    return [1000 * p.seconds / p.clues * REFERENCE_MS / p.calibration_ms for p in passes]


def end_to_end_metrics(passes, setup):
    records = [r for p in passes for r in p.records]
    per_clue = _rescaled_ms_per_clue(passes)
    raw = [1000 * p.seconds / p.clues for p in passes]
    metrics = {
        "ms_per_clue": statistics.median(per_clue),
        "ms_per_clue_p90": _quantile(per_clue, 90),
        "setup_s": statistics.median(seconds * REFERENCE_MS / cal for seconds, cal in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "generator_calls_per_candidate": sum(p.generator_calls for p in passes) / len(records),
        "prompt_kb_per_candidate": sum(p.prompt_bytes for p in passes) / 1024 / len(records),
        "failed_share": sum(map(gate.failed, records)) / len(records),
        "verdict_error_share": sum(map(gate.wrong_verdict, records)) / len(records),
    }
    clues = sum(p.clues for p in passes)
    notes = {
        "passes": f"{len(passes)} timed passes, {clues} clues, {len(records)} records; "
        f"calibration median {statistics.median(p.calibration_ms for p in passes):.3f} ms",
        "ms_per_clue": f"median of {len(passes)} rescaled passes; raw median "
        f"{statistics.median(raw):.3f}",
        "ms_per_clue_p90": f"90th percentile of {len(passes)} rescaled passes; raw "
        f"{_quantile(raw, 90):.3f}",
        "setup_s": f"median of {len(setup)} rescaled fresh processes; raw "
        f"{statistics.median(seconds for seconds, _ in setup):.3f}",
    }
    return metrics, notes


def layer_metrics(run, setup_summary, summary, counters, untraced, traced):
    """Per-layer numbers from the traced passes, per clue unless named otherwise."""
    clues = sum(p.clues for p in traced)
    records = [r for p in traced for r in p.records]
    calls = sum(p.generator_calls for p in traced)
    prompt_bytes = sum(p.prompt_bytes for p in traced)
    static_bytes = calls * run.generator.static_prefix_bytes()

    def count(name):
        return summary[name].calls if name in summary else 0

    def self_ms(name):
        return summary[name].self_ns / 1e6 if name in summary else 0.0

    def mean_ms(table, name):
        durations = table[name].durations_ns if name in table else ()
        return statistics.fmean(durations) / 1e6 if durations else 0.0

    oracles = [f"oracles.{p}" for p in tracing.PREDICATES]
    searches = count("candidates.closest_candidates")
    proving = [d / 1e6 for d in summary["formalize.prove_with_rewrites"].durations_ns]
    metrics = {}
    for name in ["core.normalize_letters", "notation.parse_wordplay",
                 "verifier.render_failure_report", "candidates.closest_candidates", *oracles]:
        metrics[f"{name}.calls_per_clue"] = count(name) / clues
    for name in ["core.normalize_letters", "notation.parse_wordplay",
                 "formalize.compile_wordplay", "formalize.build_prompt",
                 "formalize.save_transcript", "verifier.parse_proof", "verifier.verify",
                 "verifier.render_failure_report", *oracles, "candidates.closest_candidates",
                 "evalharness.run_experiment", "evalharness.results_write"]:
        metrics[f"{name}.self_ms_per_clue"] = self_ms(name) / clues
    for name in ["candidates.load_embeddings", "lexfiles.load_wordlist",
                 "oracles.Lexicon.from_files", "dataset.load_puzzles"]:
        metrics[f"{name}.ms"] = mean_ms(setup_summary, name)
    untraced_ms = statistics.median(_rescaled_ms_per_clue(untraced))
    traced_ms = statistics.median(_rescaled_ms_per_clue(traced))
    metrics.update({
        "formalize.generate.self_ms_per_call": self_ms("formalize.generate") / count("formalize.generate"),
        "formalize.prompt_static_share": static_bytes / prompt_bytes,
        "formalize.prompt_tail_kb_per_candidate": (prompt_bytes - static_bytes) / 1024 / len(records),
        "formalize.prove_with_rewrites.ms_p50": statistics.median(proving),
        "formalize.prove_with_rewrites.ms_p90": _quantile(proving, 90),
        "formalize.proved_per_call": sum(r.rewrites != "FAIL" for r in records) / calls,
        "formalize.save_transcript.kb_per_clue": sum(p.transcript_bytes for p in traced) / 1024 / clues,
        "oracles.held_share": counters["oracles.held"] / sum(map(count, oracles)),
        "candidates.words_scored_per_call": counters["candidates.words_scored"] / searches,
        "evalharness.load_records.ms": mean_ms(summary, "evalharness.load_records"),
        "evalharness.written_kb_per_clue":
            sum(p.results_bytes + p.transcript_bytes for p in traced) / 1024 / clues,
        "evalharness.decoy_searches_per_solved_clue": searches / clues,
        "trace.overhead_share": traced_ms / untraced_ms - 1,
    })
    notes = {
        "passes": f"{len(untraced)} untraced and {len(traced)} traced passes, "
        f"{clues} traced clues, {len(records)} traced records",
        "formalize.prove_with_rewrites.ms_p50": f"of {len(proving)} solves",
        "formalize.prove_with_rewrites.ms_p90": f"of {len(proving)} solves",
        "trace.overhead_share": f"{traced_ms:.3f} vs {untraced_ms:.3f} ms per clue",
    }
    return metrics, notes
