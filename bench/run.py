"""Benchmark of the noisycal CLI.

Usage, from the root of a source checkout (no install needed)::

    python3 bench/run.py --workload calibrate-asy --seed 1 --seconds 20 --trace 0

One operation is one invocation of the ``noisycal`` CLI in a fresh child
process, timed from spawn until the child is reaped.  The load is a closed
loop with one client: one child at a time.  BLAS threading stays at its
default and ``NOISYCAL_THREADS`` is removed from the child's environment.

The benchmark first generates the workload's inputs from ``--seed`` (three
times; ``setup_s`` is the median), then runs operations until ``--seconds``
have passed.  Every operation's outputs are checked (see ``workloads.py``);
an operation that exits non-zero or fails a check counts as failed and is not
timed.  With ``--trace 1`` it alternates untraced operations with traced
ones (``tracing.py``) and reports per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
records the environment.  A fuller record, with every operation and every
span, is written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
# Hard limit on one run, so that it always ends within 180 s.
RUN_LIMIT_S = 165.0


@dataclass
class Op:
    """One child process: how it ended, what it cost, what its checks found."""

    code: int
    wall_s: float
    rss_mb: float
    cpu_s: float
    problems: list[str] = field(default_factory=list)
    spans: dict | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return not self.problems


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("NOISYCAL_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd: list[str], env: dict, log_path: Path, timeout: float) -> Op:
    """Run one child to completion; wall time is spawn to reap."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT
        )
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Op(
        code=proc.returncode,
        wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        cpu_s=usage.ru_utime + usage.ru_stime,
    )


def run_operation(cmd, outdir: Path, check, env, log_path: Path, timeout: float) -> Op:
    """One operation: a fresh child, then its output checks."""
    if outdir.exists():
        shutil.rmtree(outdir)
    op = run_child(cmd, env, log_path, timeout)
    if op.code != 0:
        op.problems = [f"exit code {op.code} (log: {log_path.name})"]
    else:
        op.problems = check(outdir)
    return op


def cli_command(argv: list[str]) -> list[str]:
    # Equivalent to the installed ``noisycal`` entry point.
    return [
        sys.executable, "-c",
        "import sys; from noisycal.cli import main; sys.exit(main())",
        *argv,
    ]


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(args) -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "thread_env": {
            v: os.environ.get(v)
            for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "noisycal_threads": None,  # removed from every child's environment
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def setup(workload, seed: int, workdir: Path, env, deadline: float):
    """Generate inputs SETUP_REPEATS times; returns inputs, times, phase means.

    Each repetition ends with a fresh-process ``import noisycal``, which warms
    the page cache and the bytecode cache before the first operation.
    """
    rec = tracing.Recorder()
    times = []
    inputs = None
    for i in range(SETUP_REPEATS):
        target = workdir / f"inputs{i}"
        start = time.perf_counter()
        inputs = workloads.prepare(workload, seed, target, rec.span)
        with rec.span("setup.import"):
            child = run_child(
                [sys.executable, "-c", "import noisycal"],
                env, workdir / "import.log", deadline - time.perf_counter(),
            )
        if child.code != 0:
            raise RuntimeError("import noisycal failed in a child process")
        times.append(time.perf_counter() - start)
    totals = tracing.summarize(rec.spans, 0.0)["total"]
    phases = {name: total / SETUP_REPEATS for name, total in totals.items()}
    return inputs, times, phases


def measure(inputs, env, workdir: Path, seconds: float, deadline: float, trace: bool):
    """Closed loop: start another operation while time is left."""
    ops: list[Op] = []
    traced: list[Op] = []
    start = time.perf_counter()
    while True:
        i = len(ops) + len(traced)
        ops.append(
            run_operation(
                cli_command(inputs.argv), inputs.outdir, inputs.check, env,
                workdir / f"op{i}.log", deadline - time.perf_counter(),
            )
        )
        if trace:
            spans_path = workdir / f"spans{i}.json"
            op = run_operation(
                tracing.command(spans_path, inputs.argv), inputs.outdir,
                inputs.check, env, workdir / f"traced{i}.log",
                deadline - time.perf_counter(),
            )
            if op.ok:
                op.spans = json.loads(spans_path.read_text())
            traced.append(op)
        if time.perf_counter() - start >= seconds or time.perf_counter() >= deadline:
            return ops, traced


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def end_to_end(ops: list[Op], setup_times: list[float]) -> dict:
    """Medians over the operations that passed their checks; failed ones are not timed."""
    ok = [o for o in ops if o.ok]
    return {
        "op_s": {"value": _median([o.wall_s for o in ok]), "unit": "s"},
        "peak_rss_mb": {"value": _median([o.rss_mb for o in ok]), "unit": "MiB"},
        "setup_s": {"value": _median(setup_times), "unit": "s"},
    }


def tally(ops: list[Op], metrics: dict) -> dict:
    """The result line: every attempted operation, with the failed ones counted."""
    failed = sum(not o.ok for o in ops)
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    deadline = time.perf_counter() + RUN_LIMIT_S
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "noisycal" / "__init__.py").is_file():
        print(f"error: no noisycal sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import noisycal

    if Path(noisycal.__file__).resolve().parent != SRC / "noisycal":
        print(f"error: imported noisycal from {noisycal.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"valid: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    env = child_env()
    workdir = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    try:
        inputs, setup_times, phases = setup(workload, args.seed, workdir, env, deadline)
        ops, traced = measure(
            inputs, env, workdir, args.seconds, deadline, bool(args.trace)
        )
    finally:
        logs = {p.name: p.read_text(errors="replace")[-2000:]
                for p in workdir.glob("*.log")}
        shutil.rmtree(workdir, ignore_errors=True)

    for op in ops + traced:
        for problem in op.problems:
            print(f"failed operation: {problem}", file=sys.stderr)
    traced_ok = [o for o in traced if o.ok]
    if not any(o.ok for o in ops) or (args.trace and not traced_ok):
        print("error: no operation passed its checks", file=sys.stderr)
        return 1
    absent = []
    if args.trace:
        metrics = tracing.per_layer([o for o in ops if o.ok], traced_ok, phases)
        absent = tracing.absent(traced_ok)
        for name in absent:
            print(f"absent from the trace (metric reads 0): {name}", file=sys.stderr)
    else:
        metrics = end_to_end(ops, setup_times)
    result = tally(ops + traced, metrics)
    env_record = environment(args)
    record = {
        "environment": env_record,
        "result": result,
        "setup_s": setup_times,
        "setup_phases_s": phases,
        "absent": absent,
        "operations": [
            {"traced": traced_op, "wall_s": o.wall_s, "rss_mb": o.rss_mb,
             "cpu_s": o.cpu_s, "problems": o.problems, "spans": o.spans}
            for traced_op, group in ((False, ops), (True, traced)) for o in group
        ],
        "logs": logs if result["failed"] else {},
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"environment": env_record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
