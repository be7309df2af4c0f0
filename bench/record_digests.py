"""Record the output digest of every pooled input at the default seed.

    python3 bench/record_digests.py [workload ...]

Runs each input of each named workload (default: all of them) once, requires
every op to pass its check, and rewrites ``bench/digests.json``.  Re-record
only when a change is meant to alter corelect's outputs, and say so.
"""

import json
import sys

import run


def record(name):
    digests = []
    with run.Pool(name, run.DEFAULT_SEED) as pool:
        pool.expected = {}
        for idx in range(len(pool.inputs)):
            _, problems, digest = run.attempt(pool, idx)
            if problems:
                raise SystemExit(f"{name} input {idx} fails its check: {problems}")
            digests.append(digest)
    return digests


def main(names):
    run.use_checkout()
    data = {"seed": run.DEFAULT_SEED, "workloads": {}}
    if run.DIGESTS.is_file():
        data = json.loads(run.DIGESTS.read_text())
    for name in names or run.WORKLOAD_NAMES:
        data["workloads"][name] = record(name)
        print(f"{name}: {len(data['workloads'][name])} digests", flush=True)
    run.DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
