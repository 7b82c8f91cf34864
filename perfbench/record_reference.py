"""Record the default-seed reference outputs the benchmark checks against.

Usage (from the repository root): ``python3 perfbench/record_reference.py``

Run this only at a commit whose outputs are trusted; the files in
reference/ pin a fixed sample of rows (and the pass summaries) for each
workload at ``inputs.DEFAULT_SEED``.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import inputs
import run


def main() -> int:
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    run.WORK_DIR.mkdir(exist_ok=True)
    for name in sorted(inputs.GENERATORS):
        workload = inputs.generate(name, inputs.DEFAULT_SEED)
        work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=run.WORK_DIR))
        try:
            inputs.write_inputs(workload, work)
            op, text = run.run_operation(workload, work, traced=False)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if not op.ok:
            print(f"{name}: {'; '.join(op.errors)}", file=sys.stderr)
            return 1
        reference = checks.make_reference(name, inputs.DEFAULT_SEED, checks.CsvOutput(text))
        with open(checks.REFERENCE_DIR / f"{name}.json", "w", encoding="utf-8") as handle:
            json.dump(reference, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"{name}: {reference['row_count']} rows, {len(reference['rows'])} sampled")
    return 0


if __name__ == "__main__":
    sys.exit(main())
