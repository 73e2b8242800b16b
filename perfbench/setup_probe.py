"""One set-up, timed in a fresh process: `import probkit` through the first
completed ``value_and_gradient``, including input generation and
``compile_model``. Prints {"setup_s": ...}; the parent reads this
process's peak memory from its own RUSAGE_CHILDREN.

    python3 perfbench/setup_probe.py <workload> <seed> <sizes as JSON>
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import checkout  # noqa: E402

checkout.use_source_tree()

import workloads  # noqa: E402


def main(name: str, seed: int, sizes: dict) -> None:
    checkout.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=checkout.OUT) as workdir:
        inputs = workloads.prepare(name, seed, sizes, workdir)
        workloads.first_evaluation(workloads.build(inputs))
        setup_s = time.perf_counter() - T0
    print(json.dumps({"setup_s": setup_s}))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), json.loads(sys.argv[3]))
