"""Spans around the public calls into each layer, recorded from outside.

``instrumented(tracer)`` rebinds the package's module and class
attributes to timing wrappers for the duration of a ``with`` block, in
the traced process only.  A function imported by name into other
modules (``normalize_letters`` is imported almost everywhere) is
rebound at every binding.  Each span records its name, start, end and
parent, and carries the ``(clue_id, candidate, sample)`` id of the
solve it belongs to.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from cryptic_prover import (
    candidates,
    core,
    dataset,
    evalharness,
    formalize,
    lexfiles,
    notation,
    oracles,
    verifier,
)

PREDICATES = ("is_synonym", "is_abbreviation", "is_anagram", "is_homophone", "action_type")

NO_SOLVE = -1


class Tracer:
    """An in-memory span log plus the counters recorded at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.solves: list[tuple] = []
        self._solve_ids: dict[tuple, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.solve = array("i")
        self.counters: dict[str, int] = defaultdict(int)
        self.memo: dict = {}
        self.last_solve = NO_SOLVE
        self._stack: list[int] = []
        self._paused = False

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def solve_id(self, key: tuple) -> int:
        if key not in self._solve_ids:
            self._solve_ids[key] = len(self.solves)
            self.solves.append(key)
        return self._solve_ids[key]

    def wrap(self, name: str, fn, *, solve_of=None, after=None):
        """A wrapper that records one span per call of ``fn``.

        ``solve_of(tracer, args, kwargs)`` names the solve a call starts;
        other spans inherit their parent's.  ``after(tracer, args,
        kwargs, result)`` records counts once the span has closed, with
        recording paused so its own calls leave no spans.
        """
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            stack = self._stack
            if solve_of is not None:
                solve = solve_of(self, args, kwargs)
            else:
                solve = self.solve[stack[-1]] if stack else NO_SOLVE
            index = len(self.name)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.solve.append(solve)
            self.end.append(0)
            stack.append(index)
            self.start.append(time.perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = time.perf_counter_ns()
                stack.pop()
            if after is not None:
                self._paused = True
                try:
                    after(self, args, kwargs, result)
                finally:
                    self._paused = False
            return result

        return wrapper

    def self_times(self) -> list[int]:
        return self_times(self.start, self.end, self.parent)


def self_times(start, end, parent) -> list[int]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for index, up in enumerate(parent):
        if up >= 0:
            children[up].append(index)
    result = []
    for index in range(len(start)):
        covered, cursor, stop = 0, start[index], end[index]
        for child in sorted(children.get(index, ()), key=start.__getitem__):
            low, high = max(start[child], cursor), min(end[child], stop)
            if high > low:
                covered += high - low
                cursor = high
        result.append(stop - start[index] - covered)
    return result


@dataclass
class NameSummary:
    calls: int = 0
    self_ns: int = 0
    durations_ns: list[int] = field(default_factory=list)


def summarize(tracer: Tracer, root: str | None = None) -> dict[str, NameSummary]:
    """Calls, total self time and every duration, per span name.

    With ``root``, only spans inside a span of that name count.
    """
    names = tracer.names
    tops = []
    for index, up in enumerate(tracer.parent):
        tops.append(index if up < 0 else tops[up])
    summary = {name: NameSummary() for name in names}
    for index, own in enumerate(tracer.self_times()):
        if root is not None and names[tracer.name[tops[index]]] != root:
            continue
        entry = summary[names[tracer.name[index]]]
        entry.calls += 1
        entry.self_ns += own
        entry.durations_ns.append(tracer.end[index] - tracer.start[index])
    return summary


def write_spans(tracer: Tracer, path: Path) -> None:
    """A header line (span names, solve ids), then one JSON array per span."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"names": tracer.names, "solves": tracer.solves}) + "\n")
        fh.write("# name, start_ns, end_ns, parent, solve\n")
        for row in zip(tracer.name, tracer.start, tracer.end, tracer.parent, tracer.solve):
            fh.write(json.dumps(row) + "\n")


# -- what gets wrapped -----------------------------------------------------------


def _solve_of_request(tracer, args, kwargs):
    request = args[0] if args else kwargs["request"]
    key = (request.clue.clue_id, request.candidate_answer, request.sample_index)
    tracer.last_solve = tracer.solve_id(key)
    return tracer.last_solve


def _solve_just_finished(tracer, args, kwargs):
    # evalharness saves a transcript right after the solve that made it.
    return tracer.last_solve


def _count_held(tracer, args, kwargs, verdict):
    tracer.counters["oracles.held"] += bool(verdict.ok)


def _count_words_scored(tracer, args, kwargs, result):
    bound = inspect.signature(candidates.closest_candidates).bind(*args, **kwargs)
    pattern, exclude = bound.arguments["pattern"], bound.arguments["exclude"]
    words = tuple(bound.arguments["wordlist"])
    key = (pattern.total, len(words), hash(words))
    pool = tracer.memo.get(key)
    if pool is None:
        pool = {core.normalize_letters(w) for w in words if core.pattern_matches(w, pattern)}
        tracer.memo[key] = pool
    tracer.counters["candidates.words_scored"] += len(pool) - (core.normalize_letters(exclude) in pool)


def _targets():
    """(owner, attribute, span name, solve_of, after) for every wrapped call."""
    functions = [
        (core, "normalize_letters", None, None),
        (notation, "parse_wordplay", None, None),
        (formalize, "compile_wordplay", None, None),
        (formalize, "build_prompt", None, None),
        (formalize, "prove_with_rewrites", _solve_of_request, None),
        (formalize, "save_transcript", _solve_just_finished, None),
        (verifier, "parse_proof", None, None),
        (verifier, "verify", None, None),
        (verifier, "render_failure_report", None, None),
        (candidates, "closest_candidates", None, _count_words_scored),
        (candidates, "load_embeddings", None, None),
        (lexfiles, "load_wordlist", None, None),
        (dataset, "load_puzzles", None, None),
        (evalharness, "run_experiment", None, None),
        (evalharness, "load_records", None, None),
    ]
    targets = [
        (module, attr, f"{module.__name__.rsplit('.', 1)[1]}.{attr}", solve_of, after)
        for module, attr, solve_of, after in functions
    ]
    # No public function writes results; the span keeps a stable name.
    targets.append((evalharness, "_append_records", "evalharness.results_write", None, None))
    targets.append((formalize.CompilerBackedMock, "generate", "formalize.generate", None, None))
    targets.append((oracles.Lexicon, "from_files", "oracles.Lexicon.from_files", None, None))
    targets += [
        (oracles.Lexicon, name, f"oracles.{name}", None, _count_held) for name in PREDICATES
    ]
    return targets


@contextmanager
def instrumented(tracer: Tracer):
    """Rebind every target to a span-recording wrapper; restore on exit."""
    patches = []
    modules = [
        module
        for name, module in sorted(sys.modules.items())
        if name == "cryptic_prover" or name.startswith("cryptic_prover.")
    ]
    try:
        for owner, attr, name, solve_of, after in _targets():
            original = owner.__dict__[attr]
            if isinstance(owner, type):
                if isinstance(original, classmethod):
                    replacement = classmethod(tracer.wrap(name, original.__func__))
                else:
                    replacement = tracer.wrap(name, original, solve_of=solve_of, after=after)
                patches.append((owner, attr, original))
                setattr(owner, attr, replacement)
                continue
            replacement = tracer.wrap(name, original, solve_of=solve_of, after=after)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, binding, original))
                        setattr(module, binding, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
