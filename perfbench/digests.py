"""Write the reference output digests that ``deep_reduce`` checks against.

    python3 perfbench/digests.py --seeds 0-100

Run from the repository root.  For every seed it generates the deep_reduce
inputs exactly as ``run.py`` does, runs each once through the CLI, checks the
answer's structure and records the SHA-256 prefixes of its stdout and DOT
output, keyed by the digest of the input graph, in
``perfbench/baseline/deep_reduce_digests.json``.  Runs of those seeds then
fail any op whose output differs from the recorded bytes.  Regenerate only
when an output change is intended, and say so where the change is made.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import tempfile
from pathlib import Path

import run
import workloads
from sweep import parse_seeds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 0-100")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))

    workload = workloads.WORKLOADS["deep_reduce"]
    lib = run.load_library()
    outputs = {}
    run.OUT.mkdir(exist_ok=True)
    for seed in args.seeds:
        with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
            for item in workload.setup(lib, random.Random(seed), workdir, workload.size):
                answer = workload.op(lib, item)
                workloads.cli_check(item, answer)
                _, stdout, dot = answer
                outputs[item.digest] = [workloads.digest(stdout), workloads.digest(dot)]
        print(f"seed {seed}: {len(outputs)} inputs", file=sys.stderr)
    workloads.REFERENCE.write_text(json.dumps(
        {"seeds": ",".join(map(str, args.seeds)), "outputs": outputs}, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
