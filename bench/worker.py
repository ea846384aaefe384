"""One repeat in a fresh process: ``python3 bench/worker.py --workload W --seed N``.

Run as a script by ``bench.runner`` (never imported by it), so that set-up is
paid and measured the way a user pays it: ``setup_s`` is the time from this
file's first statement — before ``repro`` is imported — to ``materialize()``
returning.  Prints one JSON object on the last line of stdout.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT), str(_ROOT / "src")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-out", default=None, help="trace this repeat; write spans here")
    args = parser.parse_args()

    from bench.measure import run_once
    from bench.trace import Tracer
    from bench.workloads import BY_NAME

    tracer = Tracer() if args.trace_out else None
    outcome = run_once(BY_NAME[args.workload], args.seed, tracer)
    outcome["end_to_end"]["setup_s"] = outcome.pop("materialized_at") - _PROCESS_START
    outcome["end_to_end"]["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    if tracer is not None:
        Path(args.trace_out).write_text(json.dumps(tracer.to_dict()))
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
