"""Write the committed output fingerprints of the given seeds.

Run from the repository root, only when an answer is meant to change:

    python3 perfbench/record.py 7 8 9

Each seed runs one pass of every workload and stores the fingerprint of
every operation in ``expected.json``, replacing that seed's entry.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import EXPECTED_FILE, WORKLOADS, Session  # noqa: E402


def fingerprints(seed):
    merged = {}
    for workload in WORKLOADS.values():
        with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:
            session = Session(workload, seed, workdir)
            session.setup()
            session.run_pass()
        if session.failed:
            raise SystemExit(f"{workload.name} at seed {seed}: {session.failed} operations failed")
        for key, value in session.fingerprints.items():
            if merged.setdefault(key, value) != value:
                raise SystemExit(f"{key} differs between workloads at seed {seed}")
    return merged


def main(seeds):
    with open(EXPECTED_FILE, encoding="utf-8") as fh:
        expected = json.load(fh)
    for seed in seeds:
        expected[str(seed)] = fingerprints(seed)
        print(f"seed {seed}: {len(expected[str(seed)])} fingerprints", flush=True)
    with open(EXPECTED_FILE, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main([int(s) for s in sys.argv[1:]])
