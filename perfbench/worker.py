"""One round of a workload, in a fresh interpreter started by run.py.

    python3 perfbench/worker.py JOB.json

Imports rank3 from the checkout's src and prints "ready", so the parent
can time the cold start; then plays the round the job file describes
(see workloads.py) and prints its result as one JSON line.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import rank3  # noqa: E402

print("ready", flush=True)

import json  # noqa: E402

import workloads  # noqa: E402


def main(path) -> int:
    with open(path) as fh:
        job = json.load(fh)
    reference = workloads.load_reference(ROOT)
    print(json.dumps(workloads.play(rank3, reference, job)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
