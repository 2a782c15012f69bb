"""The benchmark's correctness gate.

Every clue is built so that its gold answer proves and its decoy does
not; a record that says otherwise, or that carries a ``reason`` (an
exception or an unavailable generator, not an exhausted budget), fails
the run.  Results files that must be byte-identical are compared line
by line so a mismatch names the record that differed.
"""

from __future__ import annotations

from typing import Iterable, Optional

from cryptic_prover.evalharness import FAIL, SolveRecord


def failed(record: SolveRecord) -> bool:
    """The run itself broke: an exception or an unavailable generator."""
    return bool(record.reason)


def wrong_verdict(record: SolveRecord) -> bool:
    """Gold not proved, or decoy proved."""
    proved = record.rewrites != FAIL
    return proved != record.is_ground_truth


def verdict_problems(records: Iterable[SolveRecord]) -> list[str]:
    """One line per record that failed or disagrees with the known answer."""
    problems = []
    for record in records:
        if failed(record) or wrong_verdict(record):
            role = "gold" if record.is_ground_truth else "decoy"
            problems.append(
                f"{record.clue_id} {role} {record.candidate!r} sample "
                f"{record.sample_index}: rewrites={record.rewrites!r} "
                f"reason={record.reason!r}"
            )
    return problems


def first_difference(label: str, expected: bytes, actual: bytes) -> Optional[str]:
    """None when equal; otherwise which line (record) differs, and how."""
    if expected == actual:
        return None
    want, got = expected.splitlines(), actual.splitlines()
    for number, (left, right) in enumerate(zip(want, got), start=1):
        if left != right:
            return (
                f"{label}: record {number} differs\n"
                f"  expected {left.decode('utf-8', 'replace')}\n"
                f"  actual   {right.decode('utf-8', 'replace')}"
            )
    return (
        f"{label}: expected {len(want)} records, got {len(got)} "
        "(or the files differ in line endings)"
    )
