"""Runs one workload: set-up, correctness checks, warm-up, the timed closed
loop, and the result record.

Untraced runs (--trace 0) report the end-to-end metrics.  Traced runs
(--trace 1) alternate traced and untraced tasks and report the per-layer
metrics, the tracing overhead and the span coverage verdict.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import scipy

import checks
import spans
from workloads import WORKLOADS, Sizes, Tally

ROOT = Path(__file__).resolve().parent.parent

SETUP_REPEATS = 5
# A set-up cheaper than this (a study set-up takes about 15 ms, a heldout one
# about 0.7 s) is also repeated before every task.  The machine's speed
# shifts every few seconds and is most erratic in a process's first second,
# so set-ups spread over the whole run give a steadier median.
INTERLEAVE_SETUP_BELOW_S = 0.1
# fewest tasks a run times, whatever --seconds says: untraced runs need three
# for a median; traced runs need two of each kind
MIN_TASKS = {False: {False: 3}, True: {True: 2, False: 2}}

# name -> unit; BENCHMARK.json declares the same sets
END_TO_END = {"setup_s": "s", "task_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "diffkernel.tape_nodes_per_step": "count", "diffkernel.backward_ms": "ms",
    "diffkernel.gelu_fwd_bwd_ms": "ms",
    "grm.joint_logprob_ms": "ms", "grm.decoder_fwd_bwd_ms": "ms", "grm.effective_ms": "ms",
    "grm.response_selectors_ms": "ms", "grm.rows_per_respondent": "count",
    "grm.values_ms": "ms",
    "nets.encoder_ms": "ms", "nets.encoder_fwd_bwd_ms": "ms", "nets.disc_ms": "ms",
    "nets.disc_fwd_bwd_ms": "ms", "nets.encoder_rows_per_distinct": "ratio",
    "nets.disc_rows_per_distinct": "ratio", "nets.values_ms": "ms",
    "estimators.log_weights_ms": "ms", "estimators.log_weights_self_ms": "ms",
    "estimators.disc_loss_ms": "ms", "estimators.heldout_self_ms": "ms",
    "estimators.quadrature_ms": "ms",
    "optim.adamw_step_ms": "ms",
    "fitting.training_step_ms": "ms", "fitting.training_step_self_ms": "ms",
    "fitting.loop_overhead_ms": "ms",
    "simlab.simulate_ms": "ms", "simlab.csv_io_ms": "ms",
    "align.align_ms": "ms",
    "cli.fit_io_ms": "ms", "cli.manifest_ms": "ms", "cli.eval_ms": "ms",
    "trace.overhead_s": "s",
}
# issue-level names printed beside the gated metrics, with their units
REPORT_UNITS = {"setup_s": "s", "import_s": "s", "task_s": "s", "fit_s": "s",
                "step_ms.p50": "ms", "step_ms.p90": "ms",
                "heldout_gaussian_s": "s", "heldout_surrogate_s": "s",
                "pipeline_s": "s", "peak_rss_mb": "MB", "error_rate": "1"}


def git_sha(root: Path) -> str:
    """HEAD commit read from .git without running git; "unknown" outside a
    repository."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "gradedvi").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(argv: list[str], workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"command": argv, "git_sha": git_sha(ROOT), "source_sha256": source_digest(ROOT),
            "workload": workload, "seed": seed,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
            "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
            "nproc": len(os.sched_getaffinity(0))}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tally_check(tally: Tally, what: str, errors: list[str]) -> None:
    if not errors:
        tally.ok()
    for err in errors:
        tally.fail(f"{what}: {err}")


def run_workload(name: str, seed: int, seconds: float, traced: bool, out_dir: Path,
                 sizes: Sizes = Sizes(), import_s: float = 0.0,
                 run_checks: bool = True, argv: list[str] | None = None) -> dict:
    """One benchmark run; returns the full record, result line included."""
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](sizes, seed, out_dir / "work" / f"{name}-{seed}-{os.getpid()}")
    tally = Tally()
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)

        quadrature_s = 0.0
        if run_checks:
            measured, quadrature_s = checks.measure(out_dir / "work" / f"checks-{os.getpid()}")
            for check, msg in checks.compare(measured, checks.load_reference()):
                _tally_check(tally, f"check {check}", [msg] if msg else [])

        workload.warm_up()
        interleave_setup = statistics.median(setup_times) < INTERLEAVE_SETUP_BELOW_S
        tracer = spans.Tracer() if traced else None
        results: list[tuple[bool, dict | None]] = []   # (traced, task outcome)
        start = time.perf_counter()
        last = 0.0
        while True:
            kinds = [t for t, _ in results]
            enough = all(kinds.count(k) >= n for k, n in MIN_TASKS[traced].items())
            if enough and time.perf_counter() - start + last > seconds:
                break
            if interleave_setup:
                t0 = time.perf_counter()
                workload.setup()
                setup_times.append(time.perf_counter() - t0)
            trace_this = traced and len(results) % 2 == 0
            t0 = time.perf_counter()
            with tracer.recording() if trace_this else nullcontext():
                results.append((trace_this, workload.task(tally)))
            last = time.perf_counter() - t0

        # repeated seeded tasks, traced or not, must agree
        _tally_check(tally, "workload check", workload.check([o for _, o in results]))
        done = {kind: [o for t, o in results if t == kind and o is not None]
                for kind in (False, True)}
        task_s = {kind: [o["seconds"] for o in done[kind]] for kind in (False, True)}
        record = {"environment": environment(argv or [], name, seed),
                  "setup_s_samples": setup_times,
                  "task_s_samples": task_s[False], "traced_task_s_samples": task_s[True]}
        report = {"setup_s": statistics.median(setup_times),
                  "import_s": import_s,
                  "task_s": statistics.median(task_s[False]) if task_s[False] else 0.0,
                  **(workload.report(done[False]) if done[False] else {}),
                  "peak_rss_mb": peak_rss_mb()}
        if traced:
            _tally_check(tally, "span coverage", spans.coverage_errors(name, tracer.names()))
            metrics = spans.span_metrics(tracer, len(task_s[True]))
            metrics.update(workload.microbench())
            metrics["estimators.quadrature_ms"] = quadrature_s * 1000.0
            metrics["trace.overhead_s"] = (
                statistics.median(task_s[True]) - statistics.median(task_s[False])
                if task_s[True] and task_s[False] else 0.0)
            tracer.write(out_dir / f"spans-{name}-seed{seed}.jsonl")
            units = PER_LAYER
        else:
            metrics = {k: report[k] for k in END_TO_END}
            units = END_TO_END
    finally:
        workload.close()

    report["error_rate"] = tally.failed / max(tally.attempted, 1)
    record["report"] = report
    record["errors"] = tally.errors
    record["result"] = {
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }
    path = out_dir / f"result-{name}-seed{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    return record
