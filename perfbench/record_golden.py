"""Record golden.json: the canonical stdout digest of every op template.

    python3 perfbench/record_golden.py

Runs one untraced pass of each workload with seed 0 and stores each op's
digest under its key. Record only from a commit whose output is known to be
right: ops that fail their exit-code or known-verdict checks are refused.
"""

from __future__ import annotations

import json
import shutil
import sys

import gen
import run


def main() -> int:
    golden: dict[str, str] = {}
    bad = []
    for workload in gen.WORKLOADS:
        work = run.OUT / workload
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        ops, files = gen.generate(workload, 0, str(work.relative_to(run.ROOT)))
        for path, text in files.items():
            (run.ROOT / path).write_text(text)
        for op, result in zip(ops, run.run_pass(workload, ops, work, None)):
            found = run.problems(op, result, None)
            if found:
                bad.append(f"{op.key}: {'; '.join(found)}")
            golden[op.key] = gen.canonical_digest(op, result.stdout)
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} digests in {run.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
