"""Names of the benchmark's workloads and metrics.

This module imports nothing from qpiplab, so run.py stays light
and the smoke test can compare these names with BENCHMARK.json.
"""

WORKLOADS = ("clifford-e2", "zeno-e2", "frames-toffoli2", "audit-suite")

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_ms_p50": ("ms", "lower"),
    "op_ms_tail": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    # The complement of the failed share: a metric that is 0 on a healthy
    # run has no median to compare against.
    "correct_share": ("share", "higher"),
}

# Public functions whose spans feed named per-layer metrics, and which of
# calls / self time / amplitudes each reports.  Every other public function
# of the modules is traced too and counts towards the module shares.
TRACED_FIELDS = {
    "qcore": {
        "apply_on_wires": ("calls", "self_s", "amps"),
        "measure_wires": ("calls", "self_s", "amps"),
        "measurement_probabilities": ("self_s",),
        "project_wires": ("self_s",),
        "tensor": ("calls", "self_s", "amps"),
        "partial_trace": ("calls", "self_s"),
        "is_prime": ("calls",),
    },
    "pcalg": {
        "sample_clifford": ("calls", "self_s"),
        "conjugation_key": ("calls", "self_s"),
        "gate_matrix": ("calls", "self_s"),
        "pauli_matrix": ("calls", "self_s"),
        "group_average_channel": ("calls", "self_s"),
        "group_conjugate_average": ("calls", "self_s"),
        "pauli_decompose": ("calls", "self_s"),
    },
    "cliffauth": {
        "random_clifford_key": ("calls",),
        "cqas_encode": ("self_s",),
    },
    "polycode": {
        "decode_measurement": ("calls", "self_s"),
        "random_pauli_key": ("calls",),
    },
    "polyauth": {
        "sign_key_security_scan": ("self_s",),
    },
    "qpip": {
        "run_clifford_qpip": ("self_s",),
        "run_poly_qpip": ("self_s",),
        "pauli_key_update": ("calls", "self_s"),
        "compile_to_logical": ("self_s",),
    },
    "audit": {
        "lemma_suite": ("self_s",),
        "blindness_audit": ("self_s",),
        "confidence_audit": ("self_s",),
        "estimate_soundness": ("self_s",),
    },
    "qpipcli": {
        "run_config": ("self_s",),
    },
}

MODULES = tuple(TRACED_FIELDS)

# Timed-phase values are normalised per operation, so that a faster program
# doing more operations in the same seconds does not look like more work.
FIELD_UNITS = {"calls": "count/op", "self_s": "s/op", "amps": "amp/op"}

# name -> (unit, better) for metrics not derived from one span name.
DERIVED_PER_LAYER = {
    # set-up phase of a fresh process
    "pcalg.enumerate_clifford.self_s": ("s", "lower"),
    "pcalg.enum.keys_per_element": ("ratio", "lower"),
    "setup.enumerate_share": ("share", "lower"),
    # first pass of the workload, untimed in the end-to-end metrics: it
    # fills the caches that only private functions build
    "setup.warmup_s": ("s", "lower"),
    # timed phase
    "qpip.rounds": ("count/op", "lower"),
    "qpipcli.replay_mismatch.count": ("count/op", "lower"),
    **{f"{mod}.self_share": ("share", "lower") for mod in MODULES},
    "trace.coverage": ("share", "higher"),
    "trace.overhead": ("share", "lower"),
}


def per_layer() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better), in report order."""
    out = {}
    for mod, fns in TRACED_FIELDS.items():
        for fn, fields in fns.items():
            for fld in fields:
                out[f"{mod}.{fn}.{fld}"] = (FIELD_UNITS[fld], "lower")
    out.update(DERIVED_PER_LAYER)
    return out
