"""Write expected.json: the sha256 of every case's output on the current program.

Run from the repository root, only when outputs are meant to change:

    python3 perfbench/record.py

Each case runs once in a fresh process and must exit 0 before anything is
written.
"""

import json
import os
import sys
import time

import cases
import run


def main():
    deadline = time.monotonic() + 600
    expected = {"cli": {}}
    for argv in cases.DEMAZURE_CLI + cases.SYMPLECTIC_CLI:
        proc = run.spawn(run.minaff_cmd(argv), deadline)
        if proc.code != 0:
            sys.exit(f"{cases.cli_key(argv)} exited {proc.code}")
        expected["cli"][cases.cli_key(argv)] = cases.digest(proc.out)
    with open(cases.EXPECTED_PATH, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(expected['cli'])} digests to {os.path.relpath(cases.EXPECTED_PATH)}")


if __name__ == "__main__":
    main()
