"""Re-record the expected outputs in perfbench/record.json.

Usage, from the root of the repository: python3 perfbench/record.py

Run it only in a change that alters an output on purpose, and make that
change touch nothing but the benchmark, so that the new record is reviewed
on its own. The seeded random text is not recorded: oracle.py checks it.
"""

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import workloads  # noqa: E402


def main() -> None:
    record = {}
    for name in workloads.WORKLOADS:
        workload = workloads.build(name, seed=0)
        _, outputs = workloads.run_pass(workload, random.Random(0))
        outputs.pop("random", None)
        if any(value is None for value in outputs.values()):
            raise SystemExit(f"an operation of {name} raised; nothing recorded")
        record[name] = dict(sorted(outputs.items()))
    workloads.RECORD.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
