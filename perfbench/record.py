"""Record the report hashes that the benchmark checks runs against.

    python3 perfbench/record.py [--seeds 1-10] [--workloads certify,fan]

Writes ``perfbench/hashes.json``: the sha256 of every corpus report, and
for each workload and seed one digest per block of generated operations
(exit code plus report sha256 of each op; exit 2 by code only).  Every
speedup must keep reports byte-identical, so re-record only for a change
that means to alter report text, and say so in that change.  An operation
that fails the other checks is never recorded.
"""

from __future__ import annotations

import argparse
import json
import sys

import run as R
import workloads as W

# operations recorded per seed (the pool, which every timed run goes
# through at least once) and operations per digest block
RECORD = {"certify": (11, 1), "fan": (90, 10), "quick": (200, 50)}


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--workloads", default=",".join(W.WORKLOADS))
    args = p.parse_args(argv)
    cli = R.import_dfan()
    path = R.HERE / "hashes.json"
    hashes = json.loads(path.read_text()) if path.exists() else {
        "corpus": {}, "generated": {}}
    for workload in args.workloads.split(","):
        count, block = RECORD[workload]
        spec = hashes["generated"].setdefault(workload, {"block": block, "seeds": {}})
        if spec["block"] != block:
            spec.update(block=block, seeds={})
        for seed in seed_range(args.seeds):
            checker = R.Checker(workload, seed, recorded=False)
            work = R.Workdir(workload, seed, count)
            try:
                tally, wall = R.run_pass(cli, checker, work)
            finally:
                work.close()
            bad = checker.failures(tally)
            if bad:
                _, op, why = bad[0]
                print(f"{workload} seed {seed}: op {op.oid} fails ({why}); "
                      "not recorded", file=sys.stderr)
                return 1
            digests = [digest for _, digest in tally.first]
            for op, digest in tally.first:
                if op.corpus:
                    hashes["corpus"][" ".join(op.argv)] = digest.split(":")[1]
            spec["seeds"][str(seed)] = [
                R.block_digest(digests[lo:lo + block])
                for lo in range(0, count - block + 1, block)
            ]
            print(f"{workload} seed {seed}: {count} ops in {wall:.1f} s")
            path.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
