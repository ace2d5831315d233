"""End-to-end and per-layer benchmark of the l1ax command line.

    python3 perfbench/run.py --workload regress|pool5|queries \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it runs the program from `src/` and
needs nothing else. The seed drives the generated inputs (see gen.py).
Every op is one closed-loop call of `l1ax.cli.main(argv)` by a single
client: `regress` and `pool5` start a fresh interpreter per op, as a CLI
user does; `queries` runs all of its requests in one interpreter, clearing
the library's caches before each.

Each op is checked three ways: its exit code, the known verdicts of
known.py, and the sha256 of its stdout (canonicalized, see gen.py) against
golden.json. Any mismatch counts as a failed op and the run exits 1.

End-to-end times are in reference seconds: the worker probes the
machine's speed with a fixed loop, in the same process, next to and during
each timed call (see worker.machine_speed), and multiplies the measured
time by that speed. On a shared machine whose speed changes by a factor of
1.6 from one minute to the next, this keeps the figures of one program
steady. The median measured pass is printed beside them, and every measured
time and speed is written to out/<workload>/latencies.json. Per-layer
times are measured seconds.

With --trace 0 it makes at least two passes over the op list, and more
while they fit in --seconds, timing set-up in fresh interpreters between
the processes that run ops:
  setup_s      median time, in a fresh interpreter, from just before
               `import l1ax.cli` until the bundled corpus is loaded
  wall_s       one pass: the sum over the ops of each op's median latency
  op_p50_ms,   median and 90th percentile, over the ops, of each op's
  op_p90_ms    median latency (per-process ops: process start to exit)
  peak_rss_mb  peak resident set of any process that ran ops
With --trace 1 it alternates untraced and traced passes the same way and
reports, for each layer of tracer.py, calls, self time and total time of
the last traced pass, its work counts, and trace_overhead = traced wall_s /
untraced wall_s - 1. Traced stdout must equal untraced stdout byte for byte.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; fail_ratio = failed / attempted is printed
above it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import gen
import known
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
WORKER = str(HERE / "worker.py")

SETUPS_PER_PASS = 8  # set-ups timed per pass, spread over its processes
MIN_PASSES = 2
PER_PROCESS = ("regress", "pool5")
OP_TIMEOUT_S = 150
UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB"}


@dataclass
class Result:
    code: int
    seconds: float
    stdout: str
    speed: float = 1.0  # the worker's speed probe around the call (worker.py)

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.speed


def _child_env() -> dict[str, str]:
    paths = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def _spawn(args: list[str]) -> tuple[Result, str]:
    """Run the worker to completion: its result and its stderr."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args], cwd=ROOT, env=_child_env(),
            capture_output=True, text=True, timeout=OP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return Result(-1, time.perf_counter() - start, ""), f"timed out after {OP_TIMEOUT_S} s"
    return Result(proc.returncode, time.perf_counter() - start, proc.stdout), proc.stderr


def run_pass(workload: str, ops: list[gen.Op], work: Path, trace_dir: Path | None, before=None) -> list[Result]:
    """One pass over the op list; results in op order. before(), if given,
    runs before each process that runs ops."""
    trace = str(trace_dir) if trace_dir else "-"
    before = before or (lambda: None)
    if workload in PER_PROCESS:
        results = []
        for i, op in enumerate(ops):
            before()
            result, err = _spawn(["run", trace, str(i), *op.argv])
            probe = err.rstrip("\n").rsplit("\n", 1)[-1]
            if result.code != 0 or not probe.startswith("speed "):
                print(f"op {op.key!r} stderr:\n{err}", file=sys.stderr)
            else:
                # the worker's probes run in the process but are no part of the op
                speed, probe_seconds = map(float, probe.split()[1:])
                result.seconds -= probe_seconds
                result.speed = speed
            results.append(result)
        return results
    requests, replies = work / "requests.json", work / "results.json"
    requests.write_text(json.dumps([op.argv for op in ops]))
    before()
    batch, err = _spawn(["batch", trace, str(requests), str(replies)])
    if batch.code != 0:
        print(f"batch worker failed:\n{err}", file=sys.stderr)
        return [Result(-1, 0.0, "") for _ in ops]
    return [Result(**r) for r in json.loads(replies.read_text())]


def problems(op: gen.Op, result: Result, golden: dict[str, str] | None) -> list[str]:
    """Everything wrong with one op's result (empty when it is correct); no
    digest check when golden is None."""
    if result.code != 0:
        return [f"exit code {result.code}"]
    try:
        found = known.check(op.kind, op.names, op.as_json, result.stdout)
        digest = gen.canonical_digest(op, result.stdout)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    if golden is not None and golden.get(op.key) != digest:
        found.append(f"stdout sha256 {digest[:16]}... does not match the golden digest")
    return found


def check_pass(ops, results, golden, failures: list[str], untraced=None) -> None:
    """Record one failure line for each op whose result is wrong; with
    untraced results given, stdout must also equal theirs byte for byte."""
    for i, (op, result) in enumerate(zip(ops, results)):
        found = problems(op, result, golden)
        if untraced is not None and result.stdout != untraced[i].stdout:
            found.append("stdout differs from the untraced pass")
        if found:
            failures.append(f"{op.key}: {'; '.join(found)}")


def repeat(seconds: float, once) -> None:
    """Call once() MIN_PASSES times, then again while one more call as long
    as the last would still end within `seconds` of the start."""
    start = time.perf_counter()
    calls = 0
    while True:
        began = time.perf_counter()
        once()
        calls += 1
        now = time.perf_counter()
        if calls >= MIN_PASSES and now - start + (now - began) > seconds:
            return


def typical(passes: list[list[float]]) -> list[float]:
    """Each op's median latency over the passes."""
    return [statistics.median(column) for column in zip(*passes)]


def time_setups(count: int) -> list[float]:
    """Reference seconds of set-up in each of count fresh interpreters."""
    times = []
    for _ in range(count):
        result, err = _spawn(["setup"])
        if result.code != 0:
            raise SystemExit(f"set-up failed:\n{err}")
        seconds, speed = map(float, result.stdout.split())
        times.append(seconds * speed)
    return times


def measure(workload, ops, work, seconds, golden, failures) -> tuple[dict, int]:
    time_setups(1)  # fills the bytecode cache, as an installed package has one
    # set-ups are spread over the run, so that their median does not hang
    # on how loaded the machine was during one short stretch
    setup, passes, raw = [], [], []
    per_step = -(-SETUPS_PER_PASS // (len(ops) if workload in PER_PROCESS else 1))

    def once():
        results = run_pass(workload, ops, work, None, lambda: setup.extend(time_setups(per_step)))
        check_pass(ops, results, golden, failures)
        passes.append([r.ref_seconds for r in results])
        raw.append([[r.seconds, r.speed] for r in results])

    repeat(seconds, once)
    (work / "latencies.json").write_text(json.dumps({"ops": [op.key for op in ops], "seconds_and_speed": raw}))
    per_op_ms = [x * 1e3 for x in typical(passes)]
    deciles = statistics.quantiles(per_op_ms, n=10)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(per_op_ms) / 1e3,
        "op_p50_ms": deciles[4],
        "op_p90_ms": deciles[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    speeds = [speed for p in raw for _, speed in p]
    print(
        f"{workload}: {len(passes)} passes of {len(ops)} ops, {len(setup)} set-ups; "
        f"latency quantiles over {len(per_op_ms)} per-op medians, "
        f"{sum(x > deciles[8] for x in per_op_ms)} beyond p90; machine speed "
        f"{min(speeds):.3f} to {max(speeds):.3f}, median measured pass "
        f"{statistics.median(sum(x for x, _ in p) for p in raw):.3f} s"
    )
    return {name: (values[name], unit) for name, unit in UNITS.items()}, len(passes) * len(ops)


def trace(workload, ops, work, seconds, golden, failures) -> tuple[dict, int]:
    trace_dir = work / "trace"
    trace_dir.mkdir()
    plain, traced = [], []

    def once():
        untraced = run_pass(workload, ops, work, None)
        results = run_pass(workload, ops, work, trace_dir)
        check_pass(ops, untraced, golden, failures)
        check_pass(ops, results, golden, failures, untraced)
        plain.append([r.ref_seconds for r in untraced])
        traced.append([r.ref_seconds for r in results])

    repeat(seconds, once)
    # each traced pass overwrites the files of the one before
    summaries = [json.loads(p.read_text()) for p in sorted(trace_dir.glob("summary-*.json"))]
    metrics = tracer.metrics(summaries)
    plain_wall, traced_wall = sum(typical(plain)), sum(typical(traced))
    metrics["trace_overhead"] = (traced_wall / plain_wall - 1, "ratio")
    print(
        f"{workload}: {len(plain)} untraced and traced passes, {plain_wall:.3f} s and "
        f"{traced_wall:.3f} s; spans of the last traced pass in {trace_dir}"
    )
    return metrics, 2 * len(plain) * len(ops)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "l1ax" / "cli.py").is_file():
        print(f"error: no l1ax sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text())
    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops, files = gen.generate(args.workload, args.seed, str(work.relative_to(ROOT)))
    for path, text in files.items():
        (ROOT / path).write_text(text)
    failures: list[str] = []
    mode = trace if args.trace else measure
    metrics, attempted = mode(args.workload, ops, work, args.seconds, golden, failures)
    failed = len(failures)
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} ops)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
