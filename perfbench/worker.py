"""One benchmark process; prints its result as one JSON line.

    python3 perfbench/worker.py setup WORKLOAD SEED
    python3 perfbench/worker.py rep WORKLOAD SEED CYCLE INDEX TRACE

``setup`` times, from inside a fresh interpreter, the import of srbetti and
the generation of the first cycle of the workload's inputs (the candidate
pool, then the picked inputs).  ``rep`` rebuilds candidate INDEX of cycle
CYCLE, runs the operations on it and checks them; with TRACE 1 it wraps the
package's layers first and adds their summary.  ``run.py`` starts a fresh worker for
every repetition (see there for why).
"""

from __future__ import annotations

import json
import sys
import time

import speed


def main(argv: list[str]) -> int:
    mode, name, seed = argv[1], argv[2], int(argv[3])
    before = speed.calibrate()
    t0 = time.perf_counter()
    import workloads  # imports srbetti: part of the timed set-up

    workload = workloads.WORKLOADS[name]
    if mode == "setup":
        for i in workloads.cycle_picks(workload, seed, 0):
            workloads.candidate(workload, seed, 0, i)
        raw = time.perf_counter() - t0
        setup_s = speed.scaled(raw, before, speed.calibrate())
        print(json.dumps({"setup_s": setup_s, "raw_s": raw}))
        return 0
    cycle, index, trace = int(argv[4]), int(argv[5]), argv[6] == "1"
    K = workloads.candidate(workload, seed, cycle, index)
    props = workloads.input_properties(K)
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    result = workloads.run_repetition(workload, K)
    result["props"] = props
    result["digest"] = workloads.input_digest(K)
    if tracer is not None:
        result["trace"] = tracer.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
