"""Smoke test of the benchmark itself; not part of the library's test suite.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload at a tiny size, traced and untraced, compares the
metric names it prints with BENCHMARK.json, and shows that each
correctness check trips on a deliberately corrupted result.  Takes about
five minutes.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import spec

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from qpiplab import audit, pcalg, qcore, qpipcli  # noqa: E402


def run_bench(root: Path, workload: str, trace: int,
              seconds: str = "1") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", seconds, "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=180)


def declared(section: str) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["unit"], m["better"]) for m in bench[section]}


def test_benchmark_json_matches_spec():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(spec.WORKLOADS)
    assert declared("end_to_end") == spec.END_TO_END
    assert declared("per_layer") == spec.per_layer()


@pytest.mark.parametrize("workload", spec.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_workload_emits_declared_metrics(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {k: unit for k, (unit, _) in declared(section).items()}
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] > 0.9
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "clifford-e2", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def copy_tree(tmp_path: Path) -> Path:
    """A copy of the tree whose engine module a test may corrupt."""
    for name in ("BENCHMARK.json", "src"):
        src = ROOT / name
        (shutil.copytree if src.is_dir() else shutil.copy)(
            src, tmp_path / name)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / "src" / "qpiplab" / "qpip.py"


def failed_result(root: Path) -> dict:
    proc = run_bench(root, "clifford-e2", 0)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {k: unit for k, (unit, _) in declared("end_to_end").items()}
    return result


def test_wrong_protocol_output_fails_the_run(tmp_path):
    """A verifier that flips the output bit makes honest trials fail."""
    engine = copy_tree(tmp_path)
    text = engine.read_text()
    honest = 'VerdictRecord("accept", (int(bit[0]),)'
    assert honest in text
    engine.write_text(text.replace(
        honest, 'VerdictRecord("accept", (1 - int(bit[0]),)'))
    failed_result(tmp_path)


def test_raising_engine_fails_the_run(tmp_path):
    """An engine that raises on every trial still yields metrics."""
    engine = copy_tree(tmp_path)
    engine.write_text(engine.read_text() + """

def run_clifford_qpip(*args, **kwargs):
    raise RuntimeError("injected fault")
""")
    result = failed_result(tmp_path)
    assert result["metrics"]["correct_share"]["value"] == 0


# --------------------------------------------- checks on corrupted results


@pytest.fixture(scope="module")
def honest_report() -> dict:
    config = audit.ProtocolConfig(mode="clifford",
                                  circuit=audit.clifford_demo_circuit(),
                                  inputs=(1, 0), e=1)
    return audit.estimate_completeness(config, 4, qcore.make_rng(3)).to_dict()


def _set_counts(report: dict, **counts) -> dict:
    bad = copy.deepcopy(report)
    (name, c), = bad["per_policy"].items()
    c.update(counts)
    return bad


def test_honest_check_trips(honest_report):
    assert checks.protocol_batch(checks.HONEST, honest_report) == (0, [])
    bad = _set_counts(honest_report, accept=3, wrong_accept=1)
    failed, problems = checks.protocol_batch(checks.HONEST, bad)
    assert failed == 1 and problems


def test_count_consistency_check_trips(honest_report):
    bad = _set_counts(honest_report, accept=5)
    assert checks.protocol_batch(checks.NEGATIVE_CONTROL, bad)[1]


def test_always_abort_check_trips(honest_report):
    aborted = _set_counts(honest_report, accept=0, abort=4)
    assert checks.protocol_batch(checks.ALWAYS_ABORT, aborted) == (0, [])
    failed, problems = checks.protocol_batch(checks.ALWAYS_ABORT,
                                             honest_report)
    assert failed == 4 and problems


def test_soundness_gate_trips():
    assert not checks.soundness_gate("p", 200, 20, 0.25)
    assert checks.soundness_gate("p", 200, 80, 0.25)


def _run(sub: str, **kwargs) -> tuple[int, dict]:
    cfg = qpipcli.ExperimentConfig(subcommand=sub, **kwargs)
    envelope, code, _ = qpipcli.run_config(cfg, 5)
    return code, envelope.payload


@pytest.mark.parametrize("sub, kwargs", [
    ("lemmas", {"scope": "logical-x"}),
    ("blindness", {"mode": "clifford"}),
    ("confidence", {"mode": "poly"}),
])
def test_audit_check_trips(sub, kwargs):
    pcalg.enumerate_clifford(1)
    code, payload = _run(sub, **kwargs)
    assert checks.audit_result(sub, code, payload) == []
    assert checks.audit_result(sub, 1, payload)


def test_scan_check_trips():
    code, payload = _run("scan-signkey")
    assert checks.audit_result("scan-signkey", code, payload) == []
    assert checks.audit_result("scan-signkey", 0, payload)
    assert checks.audit_result("scan-signkey", code,
                               dict(payload, max_mass=0.25))


def test_replay_check_trips():
    assert checks.replay("blindness", "a", "a") == (False, [])
    mismatch, problems = checks.replay("blindness", "a", "b")
    assert mismatch and problems
    assert checks.replay("lemmas", "a", "b") == (True, [])
