"""Child process of the benchmark; runs l1ax's CLI entry point.

    worker.py setup
        print the seconds from just before `import l1ax.cli` until the
        bundled corpus is loaded, and the machine's speed just after
    worker.py run TRACE OP ARGV...
        one `l1ax.cli.main(ARGV)` call writing to the real stdout, exit code
        passed through, like the installed `l1ax` script; the last line of
        stderr is `speed S P`: the mean speed probed around and during the
        call, and the P seconds those probes took
    worker.py batch TRACE REQUESTS RESULTS
        every argv in the JSON file REQUESTS in this one process, with
        `l1ax.clear_caches()` before each; writes each call's exit code,
        latency, stdout and the speed probed around it to RESULTS

TRACE is `-` for an untraced run, else a directory: the functions listed
in tracer.py are wrapped first, and after the calls the worker writes
TRACE/summary-OP.json (per-layer totals) and TRACE/spans-OP.tsv.gz (every
span). A batch is op 0, its requests numbered from 0 in the spans.
"""

import signal
import sys
import time

CAL_REF_S = 0.008  # the probe's time on a quiet machine (2 vCPUs, Python 3.11)
PROBE_EVERY = 4  # requests of a batch between two probes
PROBE_INTERVAL_S = 0.2  # between probes during one long call


def machine_speed(work: int = 8) -> float:
    """How fast this process runs right now: CAL_REF_S over the time of a
    fixed loop that does not touch the program (dict and tuple work, and
    bit operations on megabit integers, the kinds of work l1ax does).

    Other tenants of a shared machine change its speed: a fixed loop ran at
    two speeds about 1.6 times apart, each for seconds to minutes. A time
    multiplied by the speed probed around it, in the same process, is in
    reference seconds, which stay put when the program does.
    """
    start = time.perf_counter()
    table, acc = {}, 0
    for i in range(2000 * work):
        k = (i * 7919) % 1013
        table[k] = table.get(k, 0) + i
        acc ^= hash((k, i)) & 0xFFFF
    ones = (1 << (1 << 20)) - 1
    x = ones
    for j in range(4 * work):
        x = (x ^ (ones >> j)) | (x & (ones << (j + 1)))
    return CAL_REF_S * work / 8 / (time.perf_counter() - start)


class SpeedSamples:
    """Probes the speed before, during and after a long call: a timer
    signal runs a short probe every PROBE_INTERVAL_S, so the probes see
    the machine as the call saw it."""

    def __init__(self) -> None:
        self.speeds: list[float] = []
        self.seconds = 0.0  # spent probing, to take out of the call's time

    def probe(self, *_signal) -> None:
        start = time.perf_counter()
        self.speeds.append(machine_speed(work=1))
        self.seconds += time.perf_counter() - start

    def __enter__(self) -> "SpeedSamples":
        self.probe()
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.probe()

    @property
    def speed(self) -> float:
        return sum(self.speeds) / len(self.speeds)


def _setup() -> None:
    start = time.perf_counter()
    import l1ax.cli  # noqa: F401 - importing is part of what is timed
    from l1ax.corpus import load_corpus

    load_corpus()
    seconds = time.perf_counter() - start
    print(repr(seconds), repr(machine_speed()))


def _start_trace():
    import tracer

    t = tracer.Tracer()
    t.install()
    return t


def _finish_trace(t, trace_dir: str, op: int) -> None:
    import json

    with open(f"{trace_dir}/summary-{op}.json", "w") as out:
        json.dump(t.summary(), out)
    t.write_spans(f"{trace_dir}/spans-{op}.tsv.gz")


def _run(trace_dir: str, op: int, argv: list[str]) -> int:
    import l1ax.cli

    t = _start_trace() if trace_dir != "-" else None
    if t is not None:
        t.op = op
    with SpeedSamples() as samples:
        code = l1ax.cli.main(argv)
        sys.stdout.flush()
    if t is not None:
        t.end_op()
        _finish_trace(t, trace_dir, op)
    print(f"speed {samples.speed!r} {samples.seconds!r}", file=sys.stderr)
    return code


def _batch(trace_dir: str, requests_path: str, results_path: str) -> None:
    import contextlib
    import io
    import json
    import traceback

    import l1ax
    import l1ax.cli

    with open(requests_path) as f:
        requests = json.load(f)
    t = _start_trace() if trace_dir != "-" else None
    results = []
    probes = []
    for i, argv in enumerate(requests):
        if i % PROBE_EVERY == 0:
            probes.append(machine_speed())
        l1ax.clear_caches()
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = l1ax.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an internal fault fails this request, not the batch
            traceback.print_exc()
            code = -1
        seconds = time.perf_counter() - start
        if t is not None:
            t.end_op()
        results.append({"code": code, "seconds": seconds, "stdout": out.getvalue()})
    probes.append(machine_speed())
    for i, result in enumerate(results):
        result["speed"] = (probes[i // PROBE_EVERY] + probes[i // PROBE_EVERY + 1]) / 2
    with open(results_path, "w") as f:
        json.dump(results, f)
    if t is not None:
        _finish_trace(t, trace_dir, 0)


def main() -> int:
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        _setup()
        return 0
    if mode == "run":
        return _run(rest[0], int(rest[1]), rest[2:])
    if mode == "batch":
        _batch(*rest)
        return 0
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
