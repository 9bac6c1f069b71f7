"""Fast self-test of the benchmark at tiny sizes.

    python3 -m pytest -q bench

Checks that every workload emits every metric named in BENCHMARK.json with
its unit, that failed checks count toward `failed` and `error_rate`, and
that tracing survives a traced kernel being removed from the library.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import tracing  # noqa: E402
from spanse import cli, ldgm, qcalg, scheme, serial  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TINY = harness.Sizes(p101_n0=4, p101_k0=2, messages=2, mc_trials=4, setup_repeats=1)
SECONDS = 0.01  # one cycle per phase


def units(result) -> dict:
    return {k: v["unit"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("name", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(name):
    result, report = harness.run(name, 1, SECONDS, trace=False, sizes=TINY)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert report["e2e"]["error_rate"]["value"] == 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(name):
    original = qcalg.qc_mat_inv
    result, _ = harness.run(name, 2, SECONDS, trace=True, sizes=TINY)
    assert result["correct"]
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    m = {k: v["value"] for k, v in result["metrics"].items()}
    if name == "analysis-128":
        assert m["qcalg.qc_mat_inv.calls"] == 0
        assert m["analysis.simulate_batch.trials"] == 2 * TINY.mc_trials
    else:
        assert m["qcalg.qc_mat_inv.calls"] > 0
        assert m["scheme.verify.reject.syndrome-mismatch"] == 1
        assert m["serial.deserialize_private.bytes"] > 0
    assert 0 <= m["trace.unattributed_share"] < 1
    assert scheme.qc_mat_inv is ldgm.qc_mat_inv is serial.qc_mat_inv is original


def test_tampered_signature_counts_as_failure(monkeypatch):
    real_main = cli.main

    def main(argv):
        # corrupt the genuine signature just before it is verified
        if argv[0] == "verify" and argv[-1].endswith("sig.bin"):
            harness._tamper(argv[-1], argv[-1], np.random.default_rng(0))
        return real_main(argv)

    monkeypatch.setattr(cli, "main", main)
    result, report = harness.run("desk-lifecycle", 3, SECONDS, trace=False, sizes=TINY)
    assert not result["correct"] and result["failed"] >= 1
    assert report["failures"] == {"verify": result["failed"]}
    assert report["e2e"]["error_rate"]["value"] == result["failed"] / result["attempted"]


def test_install_wraps_every_binding_and_skips_missing_kernels(monkeypatch):
    monkeypatch.delattr(qcalg, "_qc_inv_dense_fallback")
    original = qcalg.qc_mat_inv
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert qcalg.qc_mat_inv is not original
        assert scheme.qc_mat_inv is ldgm.qc_mat_inv is serial.qc_mat_inv is qcalg.qc_mat_inv
        tracer.active = True
        assert qcalg.qc_mat_inv(qcalg.QCMatrix.identity(2, 5, 7)) is not None
        tracer.active = False
    finally:
        tracer.uninstall()
    assert scheme.qc_mat_inv is ldgm.qc_mat_inv is serial.qc_mat_inv is original
    m = tracing.layer_metrics(tracer, 1, 1.0)
    assert m["qcalg.qc_mat_inv.calls"] == 1 and m["qcalg.dense_fallback.calls"] == 0
