"""Self-test of the benchmark: bad operations are failed, not timed.

    python3 bench/selftest.py

Runs ``run.run_operation`` with stand-in children in place of the
``noisycal`` CLI.  Each stand-in writes the files a workload expects, either
well-formed or with one defect (corrupted JSON, out-of-range tau, negative
correction, coverage below the guarantee, a missing row or file, a non-zero
exit).  The test passes when every defective operation is counted as failed,
every good one passes, and only the good ones enter ``op_s``.  It needs no
noisycal sources and exits 0 on success, 1 otherwise.
"""

from __future__ import annotations

import functools
import statistics
import sys
import tempfile
import types
from pathlib import Path

import run
import tracing
import workloads

# A stand-in child: writes calibrate or synth-experiment outputs into argv[2]
# with the defect named by argv[1].
FAKE = r'''
import json, os, sys
mode, out, kind, n_test = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
os.makedirs(out)
header = "method,n,K,alpha,delta_method,delta_value,tau_hat,coverage,avg_size,seed\n"
def row(method, tau=0.8, delta=0.01, cov=0.93):
    return f"{method},5000,4,0.1,fs,{delta!r},{tau!r},{cov!r},1.4,0\n"
if kind == "calibrate":
    tau = 1.5 if mode == "tau" else 0.8
    delta = -0.01 if mode == "delta" else 0.01
    cov = 0.5 if mode == "coverage" else 0.93
    text = json.dumps({"tau": tau, "correction": {"value": delta}})
    with open(os.path.join(out, "threshold.json"), "w") as f:
        f.write(text[:-7] if mode == "corrupt" else text)
    if mode != "missing":
        with open(os.path.join(out, "results.csv"), "w") as f:
            f.write(header + row("adaptive-asy", tau, delta, cov))
    with open(os.path.join(out, "prediction_sets.csv"), "w") as f:
        rows = n_test - 1 if mode == "rows" else n_test
        f.write("row,tau,set_size,labels\n" + "".join(f"{i},0.8,1,1\n" for i in range(rows)))
else:
    methods = ["standard", "adaptive-fs", "adaptive-fs-simplified"]
    with open(os.path.join(out, "results.csv"), "w") as f:
        f.write(header)
        for rep in range(8):
            for m in methods:
                low = (mode == "coverage" and m == "adaptive-fs") or (
                    mode == "standard-low" and m == "standard")
                f.write(row(m, cov=0.5 if low else 0.93))
    with open(os.path.join(out, "summary.csv"), "w") as f:
        f.write("method,repetitions,mean_coverage,se_coverage,mean_size,se_size\n")
        for m in methods[: 2 if mode == "summary" else 3]:
            low = (mode == "coverage" and m == "adaptive-fs") or (
                mode == "standard-low" and m == "standard")
            f.write(f"{m},8,{0.5 if low else 0.93},0.01,1.4,0.01\n")
sys.exit(3 if mode == "exit" else 0)
'''

CASES = (
    # (workload, defect, expected to pass)
    ("calibrate-asy", "good", True),
    ("calibrate-asy", "exit", False),
    ("calibrate-asy", "corrupt", False),
    ("calibrate-asy", "tau", False),
    ("calibrate-asy", "delta", False),
    ("calibrate-asy", "coverage", False),
    ("calibrate-asy", "missing", False),
    ("calibrate-asy", "rows", False),
    ("synth-fs", "good", True),
    ("synth-fs", "standard-low", True),  # the standard rule has no guarantee
    ("synth-fs", "coverage", False),
    ("synth-fs", "summary", False),
    ("synth-fs", "exit", False),
)


def main() -> int:
    env = run.child_env()
    ops, errors = [], []
    scratch = run.ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for i, (name, mode, expect_ok) in enumerate(CASES):
            workload = workloads.WORKLOADS[name]
            kind = "calibrate" if workload.command == "calibrate" else "synth"
            outdir = Path(tmp) / f"out{i}"
            cmd = [sys.executable, "-c", FAKE, mode, str(outdir), kind,
                   str(workload.problem.n_test)]
            op = run.run_operation(
                cmd, outdir, functools.partial(workloads.check, workload), env,
                Path(tmp) / f"case{i}.log", timeout=60,
            )
            ops.append(op)
            verdict = "passed" if op.ok else "failed"
            print(f"{name:14s} {mode:13s} {verdict}: {'; '.join(op.problems) or 'ok'}")
            if op.ok != expect_ok:
                errors.append(f"{name}/{mode}: expected {'pass' if expect_ok else 'failure'}")
    result = run.tally(ops, run.end_to_end(ops, [1.0]))
    good = [o.wall_s for o, (_, _, expect_ok) in zip(ops, CASES) if expect_ok]
    expect_failed = sum(not expect_ok for _, _, expect_ok in CASES)
    if result["failed"] != expect_failed or result["attempted"] != len(CASES):
        errors.append(f"result counts {result['failed']} of {result['attempted']} failed")
    if result["correct"]:
        errors.append("a run with failed operations reports correct")
    if result["metrics"]["op_s"]["value"] != statistics.median(good):
        errors.append("op_s is not the median of the passing operations alone")
    errors += _check_missing_functions()
    for error in errors:
        print(f"SELF-TEST FAILURE: {error}", file=sys.stderr)
    print(f"self-test: {result['attempted']} operations, {result['failed']} failed, "
          f"{'OK' if not errors else 'FAILED'}")
    return 0 if not errors else 1


def _check_missing_functions() -> list[str]:
    """Span wrappers skip a renamed or removed function instead of crashing."""
    fake = types.ModuleType("selftest_fake_layer")
    fake.present = lambda rows: list(rows)
    sys.modules[fake.__name__] = fake
    rec = tracing.Recorder()
    rec.install(
        wraps=(
            (fake.__name__, "present", "fake.present", tracing._sets_rows),
            (fake.__name__, "renamed_away", "fake.renamed", None),
            ("selftest_no_such_module", "f", "fake.module", None),
            (fake.__name__, "present", "fake.bad_counter", tracing._train_iters),
        ),
        fileio_module="selftest_no_such_fileio",
    )
    fake.present([1, 2, 3])
    expected_absent = [
        f"{fake.__name__}.renamed_away",
        "selftest_no_such_module.f",
        "fake.bad_counter counter",
        "selftest_no_such_fileio",
    ]
    errors = []
    if sorted(rec.absent) != sorted(expected_absent):
        errors.append(f"absent functions recorded as {rec.absent}")
    if [span[0] for span in rec.spans] != ["fake.bad_counter", "fake.present"]:
        errors.append(f"spans recorded as {[span[0] for span in rec.spans]}")
    if rec.counts != {"calibrate.sets_rows": 3}:
        errors.append(f"counters recorded as {rec.counts}")
    print(f"missing functions: absent {sorted(rec.absent)}")
    return errors


if __name__ == "__main__":
    sys.exit(main())
