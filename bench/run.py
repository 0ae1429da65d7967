"""Benchmark of degcensus: run a workload's command mix and print its metrics.

    python3 bench/run.py --workload validate-grid --seed 1 --seconds 20 --trace 0

The program is imported from the `src/` directory beside this one, and
`degcensus.cli.main` is called in this process, with stdout captured, once
per operation.  A run repeats whole passes of the workload's fixed command
list until the time spent inside `cli.main` reaches --seconds, checks every
output (see workloads.py), and prints a report whose last line is one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (ops_per_s, op_p50_ms, peak_rss_mb,
setup_s); --trace 1 alternates untraced passes with passes in which every
public function of degcensus is wrapped in spans (spans.py), and reports the
per-layer metrics plus the tracing overhead.  --workload all runs each
workload in its own process, one after the other.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# setup_s is the median of this many fresh interpreters, started between
# passes so that they fall in different moments of the run
SETUP_PROBES = 7

# The speed of one process on a small shared host swings by up to 1.9x, both
# within seconds and from one run to the next, and the two cores do not swing
# together.  Every command is therefore timed between two runs of a fixed
# pure-Python kernel that never touches degcensus, and its time is scaled by
# REFERENCE_KERNEL_S over the kernel's mean time around it: the end-to-end
# times read as on a host where the kernel takes REFERENCE_KERNEL_S.  The
# report prints the unscaled wall-clock figures as well.
REFERENCE_KERNEL_S = 0.01

sys.path.insert(0, str(BENCH))
import reference  # noqa: E402
import workloads  # noqa: E402
from spans import PER_LAYER, Tracer  # noqa: E402


def kernel_seconds() -> float:
    """Time of the calibration kernel: integer and dict work plus a small
    memoised count, the kind of work the interpreter does for degcensus."""
    start = time.perf_counter()
    for _ in range(4):
        total, table = 0, {}
        for i in range(20000):
            total += i * i
            table[i & 255] = total
        reference.strata((2, 2, 1, 1, 2), (1, 2, 2, 2, 1), ((0, 1), (2, 2), (3, 4)))
    return time.perf_counter() - start


END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def load_cli():
    """Import degcensus.cli from this checkout's src/, and nowhere else."""
    package = SRC / "degcensus"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no degcensus sources at {package}")
    sys.path.insert(0, str(SRC))
    import degcensus.cli as cli

    if Path(cli.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported degcensus from {cli.__file__}, not {package}")
    return cli


def workdir(workload: str, seed: int) -> Path:
    return OUT / "inputs" / f"{workload}-{seed}"


@dataclass
class Tally:
    passes: int = 0
    seconds: float = 0.0  # wall-clock time inside cli.main
    latencies: list[float] = field(default_factory=list)  # wall clock
    scaled: list[float] = field(default_factory=list)  # at reference speed
    kernel: float = 0.0  # the latest kernel time
    failed: int = 0
    wrong: int = 0  # exit 0 but the output failed its check
    notes: list[str] = field(default_factory=list)


def run_op(cli, op: workloads.Op, tally: Tally) -> None:
    if not tally.kernel:
        tally.kernel = kernel_seconds()
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
        problem = None if code == 0 else f"exit code {code}: {err.getvalue().strip()[-300:]}"
    except Exception as exc:  # an operation that raises fails; the run goes on
        problem = f"raised {exc!r}"
    elapsed = time.perf_counter() - start
    after = kernel_seconds()
    tally.seconds += elapsed
    tally.latencies.append(elapsed)
    tally.scaled.append(elapsed * REFERENCE_KERNEL_S / ((tally.kernel + after) / 2))
    tally.kernel = after
    if problem is None:
        try:
            op.check(out.getvalue())
        except Exception as exc:  # CheckError, or output the check cannot parse
            tally.wrong += 1
            problem = f"wrong output: {exc!r}"
    if problem is not None:
        tally.failed += 1
        if len(tally.notes) < 10:
            tally.notes.append(f"{op.label}: {problem}")


def run_pass(cli, ops, tally: Tally) -> None:
    for op in ops:
        run_op(cli, op, tally)
    tally.passes += 1


def command_p50(latencies: list[float], commands: int) -> float:
    """Median over the pass's commands of each command's median latency.

    Every command runs once a pass, so this is the median latency of one
    command, with each command's own median taken first so that one slow
    moment of the host cannot pick the middle command.
    """
    return statistics.median(statistics.median(latencies[k::commands]) for k in range(commands))


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Seconds for a fresh interpreter to import degcensus and build the
    inputs, as measured and scaled by the kernel times the child reports."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True)
    kernels = json.loads(proc.stdout)
    wall = time.perf_counter() - start - sum(kernels)
    return wall, wall * REFERENCE_KERNEL_S / statistics.mean(kernels)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cli = load_cli()
    ops = workloads.build(workload, seed, workdir(workload, seed))
    if trace:
        # traced and untraced passes alternate, so that both see the same
        # swings of host speed and their ratio is the tracing overhead
        plain, traced, tracer = Tally(), Tally(), Tracer()
        while plain.passes == 0 or plain.seconds + traced.seconds < seconds:
            run_pass(cli, ops, plain)
            tracer.install()
            try:
                run_pass(cli, ops, traced)
            finally:
                tracer.uninstall()
        metrics = tracer.summary(traced.passes, len(traced.latencies))
        metrics["trace.overhead_pct"] = 100 * (sum(traced.scaled) / sum(plain.scaled) - 1)
        tracer.write(OUT / f"trace-{workload}-{seed}.jsonl")
        units = dict(PER_LAYER)
        metrics = {name: metrics[name] for name in units}
        tallies = [plain, traced]
    else:
        probes: list[tuple[float, float]] = []
        tally = Tally()
        while tally.passes == 0 or tally.seconds < seconds:
            run_pass(cli, ops, tally)
            if len(probes) < SETUP_PROBES:
                probes.append(setup_probe(workload, seed))
        while len(probes) < SETUP_PROBES:
            probes.append(setup_probe(workload, seed))
        metrics = {
            "ops_per_s": len(tally.scaled) / sum(tally.scaled),
            "op_p50_ms": command_p50(tally.scaled, len(ops)) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(scaled for _, scaled in probes),
        }
        print(
            f"wall clock, unscaled: ops_per_s {len(tally.latencies) / tally.seconds:.6g}, "
            f"op_p50_ms {command_p50(tally.latencies, len(ops)) * 1e3:.6g}, "
            f"setup_s {statistics.median(wall for wall, _ in probes):.6g}"
        )
        units = dict(END_TO_END)
        tallies = [tally]

    attempted = sum(len(t.latencies) for t in tallies)
    failed = sum(t.failed for t in tallies)
    print(
        f"workload {workload} seed {seed}: {sum(t.passes for t in tallies)} passes of {len(ops)} commands, "
        f"{attempted} operations attempted, {failed} failed"
    )
    for t in tallies:
        for note in t.notes:
            print(f"  FAILED {note}")
    for name, value in metrics.items():
        print(f"  {name:<52} {value:14.6g} {units[name]}")
    return {
        "correct": not any(t.wrong for t in tallies),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in a process of its own, so each has its own peak RSS."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    return merged


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        before = kernel_seconds()
        load_cli()
        workloads.build(args.workload, args.seed, workdir(args.workload, args.seed))
        print(json.dumps([before, kernel_seconds()]))
        return
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
