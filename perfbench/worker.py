"""One benchmark process: set up a workload, then measure it on request.

Started by run.py.  After importing qpiplab from the checkout's `src` and
building the workload's tables it prints a READY line and waits on
standard input: `go` runs the warm-up and the timed phase and prints a
RESULT line; anything else exits, so a process can serve as a set-up
sample only.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
# The tail percentile needs ten samples beyond it; with 21 it is at least
# the 52nd percentile.
MIN_OPS = 21

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import qpiplab  # noqa: E402
from qpiplab import (audit, cliffauth, pcalg, polyauth, polycode,  # noqa: E402
                     qcore, qpip, qpipcli)

import spec  # noqa: E402
import workloads  # noqa: E402
from tracer import Patch, Tracer  # noqa: E402

MODULES = {"qcore": qcore, "pcalg": pcalg, "cliffauth": cliffauth,
           "polycode": polycode, "polyauth": polyauth, "qpip": qpip,
           "audit": audit, "qpipcli": qpipcli}


class OpTimer:
    """Times each call of the workload's operation functions.

    It rebinds those module attributes on top of any tracer wrapper, so
    the operation id is set before the traced span of the call opens.
    """

    def __init__(self, targets, tracer: Tracer | None = None):
        self.targets = targets
        self.tracer = tracer
        self.latency_ns: list[int] = []
        self._patch = Patch()

    def install(self) -> None:
        for module, name in self.targets:
            self._patch.rebind(module, name, self._wrap(getattr(module,
                                                                name)))

    def uninstall(self) -> None:
        self._patch.undo()

    def _wrap(self, fn):
        clock, lat = time.perf_counter_ns, self.latency_ns

        def timed(*args, **kwargs):
            if self.tracer is not None:
                self.tracer.op_id = len(lat) + 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                lat.append(clock() - t0)

        return timed


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports, from the library numpy loaded."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def attempt(step, ops: int) -> workloads.Outcome:
    """Run one workload step; an exception fails its `ops` operations."""
    try:
        return step()
    except Exception:  # a failing operation is measured, not fatal
        return workloads.Outcome(ops=ops, failed=ops,
                                 problems=[traceback.format_exc(limit=-3)])


def run_phase(wl, seconds: float, min_ops: int) -> dict:
    """Whole batches until the next one would overrun `seconds`.

    A workload whose batch_count gives a number runs that many instead.
    """
    total = workloads.Outcome()
    count = wl.batch_count(seconds)
    batches = 0
    start = time.perf_counter()
    while True:
        total.add(attempt(wl.batch, wl.batch_ops))
        batches += 1
        elapsed = time.perf_counter() - start
        if count is not None:
            if batches == count:
                break
        elif total.ops >= min_ops and \
                elapsed * (1 + 1 / batches) > seconds:
            break
    total.add(attempt(wl.finish, 0))
    return {"outcome": total, "wall_s": time.perf_counter() - start}


def layer_metrics(tracer: Tracer, setup_spans: int, setup_amounts: dict,
                  setup_wall: float, warmup_s: float, lo: int, phase: dict,
                  ops: int, amounts: dict) -> dict:
    setup = tracer.summary(0, setup_spans)
    timed = tracer.summary(lo, len(tracer))
    none = {"calls": 0, "self_s": 0.0, "incl_s": 0.0}
    out = {}
    for mod, fns in spec.TRACED_FIELDS.items():
        for fn, fields in fns.items():
            name = f"{mod}.{fn}"
            got = timed.get(name, none)
            for fld in fields:
                value = amounts.get(name, 0) if fld == "amps" else got[fld]
                out[f"{name}.{fld}"] = value / ops
    enum = setup.get("pcalg.enumerate_clifford", none)
    elements = setup_amounts.get("pcalg.enumerate_clifford", 0)
    out["pcalg.enumerate_clifford.self_s"] = enum["self_s"]
    out["pcalg.enum.keys_per_element"] = \
        setup.get("pcalg.conjugation_key", none)["calls"] / elements \
        if elements else 0.0
    out["setup.enumerate_share"] = enum["incl_s"] / setup_wall
    out["setup.warmup_s"] = warmup_s
    out["qpip.rounds"] = (amounts.get("qpip.run_clifford_qpip", 0)
                          + amounts.get("qpip.run_poly_qpip", 0)) / ops
    out["qpipcli.replay_mismatch.count"] = \
        phase["outcome"].mismatches / ops
    wall = phase["wall_s"]
    for mod in spec.MODULES:
        out[f"{mod}.self_share"] = sum(
            s["self_s"] for n, s in timed.items()
            if n.split(".", 1)[0] == mod) / wall
    out["trace.coverage"] = sum(s["self_s"] for s in timed.values()) / wall
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not Path(qpiplab.__file__).resolve().is_relative_to(SRC):
        print(f"qpiplab imported from {qpiplab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    wl = workloads.FACTORIES[args.workload](args.seed)
    tracer = None
    if args.trace:
        tracer = Tracer(MODULES, workloads.amount_functions())
        tracer.install()
    wl.tables()
    setup_wall = time.perf_counter() - START
    if tracer is not None:
        tracer.uninstall()
        setup_spans, setup_amounts = len(tracer), dict(tracer.amount_sum)
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    # Caches that only private functions fill (the embedded group stacks,
    # audit._c2_stack, polycode's lru_caches) fill in this first pass.
    w0 = time.perf_counter()
    outcome = attempt(wl.warmup, wl.batch_ops)
    warmup_s = time.perf_counter() - w0
    result = {"env": environment(), "warmup_s": warmup_s}
    if tracer is None:
        timer = OpTimer(wl.op_targets)
        timer.install()
        phase = run_phase(wl, args.seconds, MIN_OPS)
        timer.uninstall()
        outcome.add(phase["outcome"])
        if len(timer.latency_ns) < MIN_OPS:
            outcome.problems.append(
                f"only {len(timer.latency_ns)} operations reached the "
                f"timed entry point; the tail needs {MIN_OPS}")
        result.update(latency_ms=[t * 1e-6 for t in timer.latency_ns],
                      timed_ops=phase["outcome"].ops,
                      timed_s=phase["wall_s"])
    else:
        # An untraced phase, then a traced one of the same length: the gap
        # in throughput between them is the tracing overhead.
        plain = run_phase(wl, args.seconds, MIN_OPS)
        timer = OpTimer(wl.op_targets, tracer)
        tracer.amount_sum.clear()
        lo = len(tracer)
        tracer.install()
        timer.install()
        phase = run_phase(wl, args.seconds, MIN_OPS)
        timer.uninstall()
        tracer.uninstall()
        plain_rate = plain["outcome"].ops / plain["wall_s"]
        traced_rate = phase["outcome"].ops / phase["wall_s"]
        layers = layer_metrics(tracer, setup_spans, setup_amounts,
                               setup_wall, warmup_s, lo, phase,
                               max(1, len(timer.latency_ns)),
                               dict(tracer.amount_sum))
        layers["trace.overhead"] = plain_rate / traced_rate - 1
        outcome.add(plain["outcome"])
        outcome.add(phase["outcome"])
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}.npz"
        tracer.save(spans_path)
        result.update(per_layer=layers, spans=len(tracer),
                      spans_file=str(spans_path.relative_to(ROOT)),
                      traced_ops_per_s=traced_rate,
                      untraced_ops_per_s=plain_rate)
    result.update(attempted=outcome.ops, failed=outcome.failed,
                  mismatches=outcome.mismatches, problems=outcome.problems,
                  peak_rss_mb=resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
