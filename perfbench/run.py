"""The repository benchmark: the offline ``experiment`` pipeline, timed.

    python3 perfbench/run.py --workload fixture --seed 1 --seconds 10 --trace 0

One run builds the workload's inputs from ``--seed`` (untimed), measures
set-up in fresh processes, then times passes of
``evalharness.run_experiment`` (``max_workers=1``, ``CompilerBackedMock``;
a closed loop with one client) for ``--seconds``.  It then checks every
verdict against the known answer and that the reference slice's
``results.jsonl`` is byte-identical across two library runs, a fresh
process and the ``cryptic-prover experiment`` command.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1``
it spends half the time untraced and half with every layer's public
calls wrapped in spans, and prints the per-layer metrics and the
tracing overhead.  Every timing is rescaled to the speed at which a
fixed calibration loop takes ``calibration.REFERENCE_MS``, measured
right before and after it, so busy stretches on a shared host cancel
out; the raw figures are printed beside them.  Metric names and units
come from ``BENCHMARK.json``.
Each metric is printed by name with its unit; the last line is one JSON
object.  Exit status: 0 correct, 1 a correctness check failed, 2 the
checkout or the arguments are unusable.  Work files go under
``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cryptic_prover" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import bench, corpus

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {entry["name"] for entry in declared["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    run = bench.Run(corpus.WORKLOADS[args.workload], args.seed, args.seconds)
    return run.execute(declared, trace=bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
