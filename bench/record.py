"""Record the default-seed output digests that bench/run.py compares against.

Usage (from the repository root): python3 bench/record.py

Runs each workload once at the default seed, requires its outputs to pass
the oracle checks, and writes bench/expected.json. Re-record only when a
change alters the outputs on purpose, and say so.
"""

import json
import os
import shutil

import run
import workloads


def main():
    os.makedirs(run.WORK, exist_ok=True)
    expected = {}
    try:
        for workload in workloads.WORKLOADS.values():
            inputs = workload.inputs(workloads.DEFAULT_SEED)
            report, problems = run.invoke(workload, workload.argv(inputs), False, inputs,
                                          workload.reference(inputs), None)
            if problems:
                raise SystemExit(f"{workload.name}: {'; '.join(problems)}")
            expected[workload.name] = workload.read(os.path.join(run.WORK, "out"))
            print(f"{workload.name}: recorded {sum(map(len, expected[workload.name].values()))} values")
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    with open(os.path.join(run.BENCH, "expected.json"), "w") as handle:
        json.dump(expected, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
