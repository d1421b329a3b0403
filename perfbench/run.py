"""Benchmark command for revoca: seeded workloads driving the four roles.

Run from the root of a revoca checkout:

    python3 perfbench/run.py --workload pairing-check --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the workload with tracing off and prints the end-to-end
metrics. ``--trace 1`` runs it with tracing on for every operation but every
other honest check, and prints the per-layer metrics plus the tracing
overhead: the median, over adjacent traced and untraced checks of one cost
mode, of their time difference. ``--seconds`` sets the number of simulated
days, so a run is a fixed operation count; the same seed and seconds repeat
every operation, verdict and byte count. Human-readable lines come first;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when every
operation succeeded and every verdict matched the ground-truth ledger.

Outputs (a JSON report per run, spans of traced runs) go to ``.perfbench/``
at the checkout root.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
TAIL_BEYOND = 10


def _import_program() -> None:
    """Put the checkout's own src/ first on the path; refuse any other revoca."""
    package = SRC / "revoca"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no revoca sources at {package}; run from a revoca checkout")
    sys.path.insert(0, str(SRC))
    import revoca

    if Path(revoca.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported revoca from {revoca.__file__}, not from {package}")


# host diagnostics: recorded beside the metrics, never as metrics


def _cpu_times():
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return [int(x) for x in fields[1:9]]  # user..steal; guest time is inside user


def _steal_share(before, after):
    if before is None or after is None:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def reference_kernel_ms() -> float:
    """Median of three runs of a fixed pure-integer loop."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0
        for i in range(1_000_000):
            x = (x * 31 + i) & 0xFFFFFFFF
        times.append((time.perf_counter() - t0) * 1e3)
    return sorted(times)[1]


def _versions() -> dict:
    try:
        from importlib.metadata import version

        cryptography = version("cryptography")
    except Exception:  # noqa: BLE001 - metadata only
        cryptography = "unknown"
    return {"python": platform.python_version(), "cryptography": cryptography, "nproc": os.cpu_count()}


# statistics


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: list):
    """The highest rank with TAIL_BEYOND samples beyond it: (value, percentile, rank)."""
    ordered = sorted(values)
    rank = max(len(ordered) - TAIL_BEYOND, 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered), rank


def _label(check_class) -> str:
    return " ".join(f"{feature}={value}" for feature, value in check_class)


def rank_classes(spec, samples, ranks) -> list:
    """For each rank (1-based, in time order), the cost mode there and the
    distance in ranks to the nearest sample of another cost mode."""
    modes = [_label(spec.cost_mode(cls)) for cls in samples.check_class]
    ordered = [mode for _, mode in sorted(zip(samples.check_ms, modes))]
    out = []
    for rank in ranks:
        mode = ordered[rank - 1]
        margin = min((abs(j - rank + 1) for j, m in enumerate(ordered) if m != mode), default=len(ordered))
        out.append((rank, mode, margin))
    return out


def tracing_overhead(spec, samples):
    """Median of traced minus untraced time over adjacent check pairs (a traced
    check and the untraced one after it) of one cost mode: (ms, pairs)."""
    rows = list(zip(samples.check_ms, samples.check_traced, samples.check_class))
    diffs = [
        a_ms - b_ms
        for (a_ms, a_on, a_cls), (b_ms, b_on, b_cls) in zip(rows, rows[1:])
        if a_on and not b_on and spec.cost_mode(a_cls) == spec.cost_mode(b_cls)
    ]
    return median(diffs), len(diffs)


# passes


def run_pass(workloads, tracing, name, seed, days, traced, setups=1):
    """Set up `setups` times (keeping the last world), then run `days` days."""
    spec, schedule = workloads.SPECS[name]
    recorder = tracing.Recorder()
    setup_s, world = [], None
    try:
        tracing.install_cache_counters(recorder)
        if traced:
            tracing.install_spans(recorder)
        for _ in range(setups):
            if world is not None:
                world.close()
                world = None
            gc.unfreeze()
            gc.collect()
            recorder.begin("setup")
            t0 = time.perf_counter()
            try:
                world = workloads.World(spec, seed, OUT, recorder)
            finally:
                recorder.end()
            setup_s.append(time.perf_counter() - t0)
        world.samples.attempted += setups
        world.freeze_heap()
        try:
            workloads.run_days(world, schedule, days)
        except workloads.ScheduleError as exc:
            world.samples.fail(str(exc))
        return world.samples, setup_s, recorder
    finally:
        recorder.restore()
        if world is not None:
            world.close()
        gc.unfreeze()


def end_to_end(samples, setup_s) -> dict:
    checks = max(len(samples.check_ms), 1)
    return {
        "setup_s": (median(setup_s), "s"),
        "check_ms_p50": (median(samples.check_ms), "ms"),
        "check_ms_tail": (tail(samples.check_ms)[0] if samples.check_ms else 0.0, "ms"),
        "present_ms_p50": (median(samples.present_ms), "ms"),
        "revoke_visible_ms_p50": (median(samples.revoke_visible_ms), "ms"),
        "rollover_ms_per_revocation": (median(samples.rollover_document_ms), "ms"),
        "segment_bytes_per_check": (samples.segment_bytes / checks, "B"),
        "table_bytes_per_check": (samples.table_bytes / checks, "B"),
        "presentation_bytes": (samples.presentation_bytes / max(samples.presentations, 1), "B"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def describe(name, spec, samples, setup_s) -> list:
    """Human-readable lines: counts, class shares and where the quantiles fall."""
    lines = [
        f"workload {name}: {len(samples.check_ms)} honest checks, {len(samples.present_ms)} presents,"
        f" {len(samples.revoke_visible_ms)} revoke+publish, {samples.rollover_documents} documents re-encrypted"
        f" over the rollovers; setup times {[round(s, 3) for s in setup_s]} s",
        f"op_fail_ratio {samples.failed}/{samples.attempted} = {samples.failed / max(samples.attempted, 1):.4f}"
        f"  false verdicts {samples.false_verdicts}",
    ]
    lines += [f"  failure: {f}" for f in samples.failures]
    if samples.check_ms:
        n = len(samples.check_ms)
        by_class = {}
        for ms, cls in zip(samples.check_ms, samples.check_class):
            by_class.setdefault(cls, []).append(ms)
        lines.append("check classes (count, share of honest checks, median [min-max] ms):")
        lines += [
            f"  {_label(cls):<50} {len(times):>5} {len(times) / n:7.1%}"
            f"  {statistics.median(times):9.2f} [{min(times):.2f}-{max(times):.2f}]"
            for cls, times in sorted(by_class.items())
        ]
        value, percentile, rank = tail(samples.check_ms)
        lines.append(f"check_ms_tail is p{percentile:.1f}: rank {rank} of n={n}, {n - rank} samples beyond")
        ranks = rank_classes(spec, samples, (math.ceil(n / 2), rank))
        for label, (r, mode, margin) in zip(("p50", "tail"), ranks):
            lines.append(f"  {label} rank {r} falls in cost mode [{mode}], {margin} ranks from another mode")
    lines.append(
        f"rollover_ms_per_revocation is the median of {len(samples.rollover_document_ms)} per-document times;"
        f" base: {samples.rollover_ms:.1f} ms over {samples.rollover_documents} documents"
    )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    # One CPU for the whole process: the client and the HTTP server thread
    # then hand off without cross-CPU wake-ups. On a VM whose vCPUs are
    # descheduled independently, such a wake-up can wait for the other vCPU,
    # which doubled the warm-check median whenever steal was high.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    _import_program()
    import tracing
    import workloads

    try:
        return measure(args, tracing, workloads)
    except tracing.HookError as exc:
        # a renamed or removed layer boundary: the benchmark needs updating
        sys.exit(f"perfbench: {exc}")


def measure(args, tracing, workloads) -> int:
    if args.workload not in workloads.SPECS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(workloads.SPECS)}")
    spec = workloads.SPECS[args.workload][0]
    OUT.mkdir(exist_ok=True)
    host = _versions()
    host["reference_kernel_ms_before"] = reference_kernel_ms()
    cpu_before = _cpu_times()

    days = spec.days(args.seconds)
    lines = []
    if args.trace:
        samples, setup_s, recorder = run_pass(workloads, tracing, args.workload, args.seed, days, traced=True)
        table = tracing.SpanTable(recorder)
        overhead, pairs = tracing_overhead(spec, samples)
        metrics = tracing.per_layer_metrics(table, overhead)
        missing = tracing.missing_spans(table, pairing=spec.scheme == "standard")
        for name in missing:
            samples.fail(f"declared span {name} recorded zero calls")
        attempted, failed, false_verdicts = samples.attempted, samples.failed, samples.false_verdicts
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        recorder.write(spans_path)
        lines += describe(args.workload + " (traced pass)", spec, samples, setup_s)
        lines.append(f"tracing overhead: {overhead:.3f} ms per check, the median traced minus untraced"
                     f" time over {pairs} adjacent check pairs of one cost mode")
        lines.append(f"spans written to {spans_path.relative_to(ROOT)} ({len(recorder.spans)} spans)")
    else:
        run = (workloads, tracing, args.workload, args.seed, days)
        samples, setup_s, _ = run_pass(*run, traced=False, setups=SETUP_REPEATS)
        metrics = end_to_end(samples, setup_s)
        attempted, failed, false_verdicts = samples.attempted, samples.failed, samples.false_verdicts
        lines += describe(args.workload, spec, samples, setup_s)

    host["steal_share"] = _steal_share(cpu_before, _cpu_times())
    host["reference_kernel_ms_after"] = reference_kernel_ms()
    lines.append("host: " + json.dumps(host, sort_keys=True))
    for line in lines:
        print(line)
    correct = failed == 0 and false_verdicts == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "host": host, "lines": lines, "result": result}
    (OUT / f"report-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
