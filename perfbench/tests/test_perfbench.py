"""Tests of the benchmark itself: metric names and units, the metrics each
workload emits, the fingerprint check and the span coverage guard."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for p in (str(ROOT / "src"), str(BENCH)):
    if p not in sys.path:
        sys.path.insert(0, p)

import checks  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Sizes  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
# R >= 8 keeps the adaptive-contrast moment draws off, as at study size
TINY = Sizes(n_respondents=40, n_items=6, n_factors=2, categories=3, batch_size=16, R=8,
             iwae_steps=3, iwavb_steps=3, vae_steps=4, replications=2, setup_fit_steps=2,
             r_eval=50, heldout_respondents=5, pipeline_factors=2)


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_match_pattern():
    doc = declared()
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    names += list(harness.END_TO_END) + list(harness.PER_LAYER) + list(harness.REPORT_UNITS)
    for name in names:
        assert NAME.fullmatch(name), name


def test_declared_metrics_are_the_emitted_sets():
    doc = declared()
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == harness.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    predictions = json.loads((BENCH / "predictions.json").read_text())
    assert set(predictions["per_layer"]) == set(harness.PER_LAYER)


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_emits_each_declared_metric(tmp_path, name, traced):
    record = harness.run_workload(name, seed=7, seconds=0, traced=traced, out_dir=tmp_path,
                                  sizes=TINY, run_checks=False)
    result = record["result"]
    assert result["correct"], record["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = harness.PER_LAYER if traced else harness.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for key, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), key
    if not traced:
        assert all(result["metrics"][k]["value"] > 0 for k in units)
    assert not (tmp_path / "work").exists() or not any((tmp_path / "work").iterdir())


def test_fingerprints_hold_and_a_perturbed_one_fails(tmp_path):
    measured, quad_s = checks.measure(tmp_path / "checks")
    reference = checks.load_reference()
    assert [msg for _, msg in checks.compare(measured, reference) if msg] == []
    assert quad_s > 0

    bumped = json.loads(json.dumps(reference))
    bumped["iw_elbo_after_20_steps"]["values"]["IWAVB"] += 1e-3
    failures = [name for name, msg in checks.compare(measured, bumped) if msg]
    assert failures == ["iw_elbo_after_20_steps.IWAVB"]

    over = json.loads(json.dumps(reference))
    over["heldout_minus_quadrature"]["max_value"] = -1.0
    failures = [name for name, msg in checks.compare(measured, over) if msg]
    assert failures == ["heldout_minus_quadrature.P1", "heldout_minus_quadrature.P2"]


def test_failed_check_makes_the_run_incorrect(tmp_path, monkeypatch):
    reference = checks.load_reference()
    reference["heldout_minus_quadrature"]["values"]["P2"] += 0.5
    monkeypatch.setattr(checks, "load_reference", lambda: reference)
    record = harness.run_workload("vae-pipeline", seed=1, seconds=0, traced=False,
                                  out_dir=tmp_path, sizes=TINY)
    result = record["result"]
    assert not result["correct"]
    assert result["failed"] == 1
    assert any("heldout_minus_quadrature.P2" in e for e in record["errors"])


def test_coverage_guard_flags_missing_and_unexpected_spans():
    present = set(spans.COVERAGE["iwae-study"]["present"])
    assert spans.coverage_errors("iwae-study", present) == []
    errors = spans.coverage_errors(
        "iwae-study", (present - {"grm.joint_logprob"}) | {"nets.Discriminator.forward"})
    assert len(errors) == 2
    assert "grm.joint_logprob" in errors[0] and "nets.Discriminator.forward" in errors[1]


def test_span_metrics_cover_the_per_layer_set():
    names = set(spans.span_metrics(spans.Tracer(), 1))
    names |= {"diffkernel.gelu_fwd_bwd_ms", "grm.decoder_fwd_bwd_ms",
              "nets.encoder_fwd_bwd_ms", "nets.disc_fwd_bwd_ms",
              "estimators.quadrature_ms", "trace.overhead_s"}
    assert names == set(harness.PER_LAYER)


def test_self_time_subtracts_direct_children():
    # parent 0..10 with children 1..3 and 5..6; grandchild 1.5..2 is not direct
    recorded = [("a", 0.0, 10.0, -1, 0), ("b", 1.0, 3.0, 0, 0), ("c", 1.5, 2.0, 1, 0),
                ("b", 5.0, 6.0, 0, 0)]
    children = spans._children(recorded)
    assert spans.self_time(recorded, children, ["a"]) == pytest.approx(7.0)
    assert spans.group_time(recorded, ["b", "c"]) == pytest.approx(3.0)


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "iwae-study", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
