"""One set-up measurement, run in a fresh process by ``run.py``.

Times the package import, the public loaders and the first pass over
the reference slice's first clue, so lazily built state (prompt
sections, seed parser tables) lands in set-up, not in the timed passes.
Prints ``{"setup_s": ..., "calibration_ms": ...}``, the latter from
the calibration loop run before and after; the first clue's results
file stays in the output directory for the cross-process determinism
check.

    python3 perfbench/probe.py WORKLOAD WORKLOAD_DIR OUT_DIR
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.calibration import calibration_ms

    before = calibration_ms()
    start = time.perf_counter()
    from cryptic_prover import formalize

    from perfbench import corpus, harness

    workload, directory, out_dir = corpus.WORKLOADS[argv[0]], Path(argv[1]), Path(argv[2])
    inputs = harness.load_inputs(workload, directory)
    generator = harness.CountingGenerator(formalize.CompilerBackedMock())
    harness.run_pass(inputs, inputs.slice_clues[:1], out_dir, generator)
    setup_s = time.perf_counter() - start
    calibration = (before + calibration_ms()) / 2
    print(json.dumps({"setup_s": setup_s, "calibration_ms": calibration}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
