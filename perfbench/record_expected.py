"""Record the outputs the benchmark checks against into expected.json.

    python3 perfbench/record_expected.py

For every input seed: the report digest and final metrics of `desk-run` and
`served-run`. Run it only when a change to the program is meant to change
its outputs; the benchmark counts any other difference as a failure.
`gateway-rpc` needs no table: its responses are compared with the
in-process model at run time.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import program


def main() -> None:
    program.load()
    import workloads

    path = workloads.EXPECTED_PATH
    table = {}
    for name in ("desk-run", "served-run"):
        for seed in range(workloads.SEED_SLOTS):
            workdir = Path(tempfile.mkdtemp(prefix="record-", dir=path.parent))
            try:
                wl = workloads.make(name, seed, workdir)
                state = wl.setup()
                try:
                    out = wl.job(state)
                finally:
                    wl.teardown(state)
            finally:
                shutil.rmtree(workdir)
            wl.expected = wl.outcome(out)
            if wl.check(out) != (1, 0):
                raise SystemExit(f"{name} seed {seed} fails its own checks; not recorded")
            table.setdefault(name, {})[str(seed)] = wl.expected
            print(name, seed, "recorded", flush=True)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
