"""Tests for the benchmark's own code: inputs, span arithmetic, the gate."""

from pathlib import Path

from cryptic_prover import core, formalize, oracles
from cryptic_prover.evalharness import FAIL, SolveRecord

from perfbench import corpus, gate, harness, tracing


def _files(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def test_corpus_is_byte_identical_per_seed(tmp_path):
    for name in ("fixture", "unique-io"):
        workload = corpus.WORKLOADS[name]
        corpus.build(workload, 7, tmp_path / f"{name}-a")
        corpus.build(workload, 7, tmp_path / f"{name}-b")
        assert _files(tmp_path / f"{name}-a") == _files(tmp_path / f"{name}-b")
    corpus.build(corpus.WORKLOADS["unique-io"], 8, tmp_path / "unique-io-c")
    other = _files(tmp_path / "unique-io-c")
    assert other["clues.yaml"] != _files(tmp_path / "unique-io-a")["clues.yaml"]


def test_synthetic_clues_have_their_known_answers(tmp_path):
    workload = corpus.WORKLOADS["unique-io"]
    corpus.build(workload, 3, tmp_path / "inputs")
    inputs = harness.load_inputs(workload, tmp_path / "inputs")
    generator = harness.CountingGenerator(formalize.CompilerBackedMock())
    outcome = harness.run_pass(inputs, inputs.slice_clues, tmp_path / "out", generator)
    assert len(outcome.records) == 2 * workload.samples * len(inputs.slice_clues)
    assert gate.verdict_problems(outcome.records) == []
    assert outcome.transcript_bytes > 0
    answers = [clue.gold_answer for clue in inputs.slice_clues + inputs.clues]
    assert len(set(answers)) == len(answers)


def test_self_times_of_a_span_tree_add_up_to_the_root():
    # root [0, 100) holds a [10, 40) and b [50, 90); a holds c [20, 30).
    start = [0, 10, 20, 50]
    end = [100, 40, 30, 90]
    parent = [-1, 0, 1, 0]
    own = tracing.self_times(start, end, parent)
    assert own == [30, 20, 10, 40]
    assert sum(own) == end[0] - start[0]


def test_wrapped_calls_nest_and_carry_their_solve_id():
    tracer = tracing.Tracer()

    def leaf():
        return 1

    inner = tracer.wrap("leaf", leaf)

    def solve(request):
        return inner() + inner()

    outer = tracer.wrap("solve", solve, solve_of=lambda t, args, kwargs: t.solve_id(args[0]))
    assert outer(("clue#0", "ANSWER", 2)) == 2
    assert list(tracer.parent) == [-1, 0, 0]
    assert tracer.solves == [("clue#0", "ANSWER", 2)]
    assert list(tracer.solve) == [0, 0, 0]
    own = tracer.self_times()
    assert sum(own) == tracer.end[0] - tracer.start[0]


def test_instrumentation_is_undone_on_exit():
    original = core.normalize_letters
    predicate = oracles.Lexicon.__dict__["is_synonym"]
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        assert oracles.normalize_letters is not original
        assert oracles.Lexicon.__dict__["is_synonym"] is not predicate
        oracles.seed_lexicon().is_synonym("arrived", "CAME")
    assert oracles.normalize_letters is original
    assert oracles.Lexicon.__dict__["is_synonym"] is predicate
    summary = tracing.summarize(tracer)
    assert summary["oracles.is_synonym"].calls == 1
    assert tracer.counters["oracles.held"] == 1


def _record(clue_id, candidate, gold, rewrites, reason=""):
    return SolveRecord(clue_id, candidate, gold, 0, rewrites, reason)


def test_gate_fails_on_an_injected_wrong_verdict():
    good = [_record("c#0", "ESCORT", True, 0), _record("c#0", "CAMERA", False, FAIL)]
    assert gate.verdict_problems(good) == []
    gold_failed = [_record("c#0", "ESCORT", True, FAIL), good[1]]
    decoy_proved = [good[0], _record("c#0", "CAMERA", False, 3)]
    broken = [good[0], _record("c#0", "CAMERA", False, FAIL, "GeneratorUnavailable: down")]
    for records in (gold_failed, decoy_proved, broken):
        problems = gate.verdict_problems(records)
        assert len(problems) == 1 and problems[0].startswith("c#0")


def test_first_difference_names_the_record():
    expected = b'{"a": 1}\n{"b": 2}\n'
    assert gate.first_difference("run", expected, expected) is None
    message = gate.first_difference("run", expected, b'{"a": 1}\n{"b": 3}\n')
    assert "record 2 differs" in message and '{"b": 3}' in message
    assert "expected 2 records, got 1" in gate.first_difference("run", expected, b'{"a": 1}\n')
