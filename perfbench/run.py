"""qpiplab benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 it starts SETUP_RUNS fresh worker processes one after
another, times each from launch until its tables are built (setup_s is
their median), and lets the last one run the workload for S seconds.
With --trace 1 one worker traces every public function of the qpiplab
modules and reports the per-layer metrics instead.  Every run checks the
outputs; the last line of standard output is the JSON result, and the
exit code is 0 only when all checks passed.  Details, the environment and
the spans go to .perfbench-out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
WORKER = Path(__file__).resolve().parent / "worker.py"
# A whole run must end within 180 s; leave room to report.
DEADLINE_S = 170
# Fresh processes timed for setup_s.  A protocol workload's set-up is an
# import of about 0.4 s, so ten cost little.  audit-suite's set-up also
# enumerates C_2, 7-10 s a process: ten would cost 85 s of each run, and
# 22 runs of each workload must fit in 57 minutes together.
SETUP_RUNS = {"clifford-e2": 10, "zeno-e2": 10, "frames-toffoli2": 10,
              "audit-suite": 3}
# Single-threaded BLAS: every run measures one core, whatever the host.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond.

    With ten samples or fewer this is the maximum (0 with none); the
    worker fails such a run.
    """
    xs = sorted(latencies) or [0.0]
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"),
                               "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


class Worker:
    """A worker process and the time it took to become ready."""

    def __init__(self, args, deadline: float):
        self.deadline = deadline
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env={**os.environ, **CHILD_ENV}, cwd=ROOT)
        for line in self.proc.stdout:
            if line.strip() == "READY":
                break
        else:
            self.finish("exit")
            raise RuntimeError("worker failed during set-up")
        self.setup_s = time.perf_counter() - t0

    def finish(self, command: str) -> str:
        """Send `command`, wait for the exit and return the RESULT text."""
        try:
            out, _ = self.proc.communicate(
                command + "\n",
                timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise RuntimeError("worker overran the run deadline")
        results = [ln for ln in out.splitlines() if ln.startswith("RESULT ")]
        if self.proc.returncode != 0 or (command == "go" and not results):
            raise RuntimeError(f"worker exited with {self.proc.returncode}")
        return results[-1][len("RESULT "):] if results else ""

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.communicate()


def measure(args) -> tuple[dict, list[float]]:
    """Run the workers; return the measuring worker's result and set-ups."""
    deadline = time.perf_counter() + DEADLINE_S
    runs = 1 if args.trace else SETUP_RUNS[args.workload]
    setups = []
    for i in range(runs):
        worker = Worker(args, deadline)
        setups.append(worker.setup_s)
        try:
            result = worker.finish("go" if i == runs - 1 else "exit")
        finally:
            worker.kill()
    return json.loads(result), setups


def end_to_end(result: dict, setups: list[float]) -> dict:
    lat = result["latency_ms"]
    attempted = result["attempted"]
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": result["timed_ops"] / result["timed_s"],
        "op_ms_p50": statistics.median(lat) if lat else 0.0,
        "op_ms_tail": tail(lat)[0],
        "peak_rss_mb": result["peak_rss_mb"],
        "correct_share": (attempted - result["failed"]) / attempted,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "qpiplab" / "__init__.py").is_file():
        print(f"error: no qpiplab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        result, setups = measure(args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        values = result["per_layer"]
        units = {k: u for k, (u, _) in spec.per_layer().items()}
    else:
        values = end_to_end(result, setups)
        units = {k: u for k, (u, _) in spec.END_TO_END.items()}
    correct = result["failed"] == 0 and not result["problems"]
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "git_sha": git_sha(), "setup_samples_s": setups,
              "metrics": values, "correct": correct, **result}
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    env = result["env"]
    print(f"workload {args.workload}, seed {args.seed}, "
          f"sha {record['git_sha']}, python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, blas threads {env['blas_threads']}")
    if args.trace:
        print(f"tracing overhead {values['trace.overhead']:.3f} "
              f"({result['untraced_ops_per_s']:.3f} untraced vs "
              f"{result['traced_ops_per_s']:.3f} traced ops/s), "
              f"{result['spans']} spans in {result['spans_file']}")
    else:
        lat = result["latency_ms"]
        print(f"{len(lat)} operations timed; op_ms_tail is "
              f"p{tail(lat)[1]:.1f}; warm-up pass "
              f"{result['warmup_s']:.3f} s; setup samples "
              + ", ".join(f"{s:.3f}" for s in setups) + " s")
    print("no waits or retries to report: one thread, no queues")
    for problem in result["problems"]:
        print("CHECK FAILED: " + problem.rstrip())
    print(json.dumps({
        "correct": correct, "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
