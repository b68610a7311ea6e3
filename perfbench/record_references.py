"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/record_references.py 1 2 3

runs one pass of every workload for each seed given and writes the
output key of every operation (``RunReport.digest()``, exit code plus
sha256 of stdout, or the canonical JSON of a returned value) into
``perfbench/references.json``, keeping the entries of other seeds.
Record only from a commit whose outputs are known to be right: a run
that finds a mismatch counts the operation as failed.  Nothing is
written if any operation fails its invariant.
"""

from __future__ import annotations

import json
import os
import sys

from run import REFERENCES, Judge, git_rev, run_pass
from workloads import WORKLOADS, build, load_evshape


def main(argv: list[str]) -> int:
    os.environ.pop("EVSHAPE_WORKERS", None)
    seeds = [int(s) for s in argv] or [1]
    ev = load_evshape()
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {"seeds": {}}
    for seed in seeds:
        entry = {}
        for workload in WORKLOADS:
            judge = Judge(None)
            keys = run_pass(build(ev, workload, seed), judge).keys
            if judge.failed:
                print("\n".join(judge.problems), file=sys.stderr)
                return 1
            entry[workload] = keys
            print(f"seed {seed} {workload}: {len(keys)} outputs", flush=True)
        refs["seeds"][str(seed)] = entry
    refs["recorded_at"] = git_rev()
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
