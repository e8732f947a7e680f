"""Write the reference outputs that the benchmark's check inputs are compared with.

    python3 bench/make_reference.py

Run it only at a commit whose outputs are trusted: the references pin the
program's behaviour, and a later change that moves them fails the benchmark.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from workloads import REFERENCE_DIR, WORKLOADS  # noqa: E402


def main() -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    refs = {}
    for name, wl in WORKLOADS.items():
        st = wl.setup()
        outs = [wl.op(st, item) for item in wl.check_inputs()]
        refs[name] = wl.reference_outputs(outs)
    with open(REFERENCE_DIR / "check.json", "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
