"""Span tracing of the gradedvi layers from outside the package.

The tracer wraps the public functions and methods listed in TARGETS.  A
module-level function is rebound on its own module and on every gradedvi
module that holds the same object under some name (``from .grm import
response_selectors`` style imports); a method is rebound on its class.  The
originals are restored when recording stops, so untraced work runs the
unmodified code.

Each span records (name, start, end, parent index, step id).  Spans stay in
memory and are written out once, when the run ends.  ``Tape.record`` gets a
counting wrapper instead of a span: it runs for every tape node.
"""

from __future__ import annotations

import functools
from collections import Counter
import importlib
import json
import time
from contextlib import contextmanager

import numpy as np

from gradedvi.diffkernel import Tensor2

# The layers are the gradedvi modules; per module, the wrapped functions and
# methods.  A span is named "<module>.<attribute path>".
TARGETS = {
    "diffkernel": ["Tape.backward"],
    "grm": ["GrmParams.effective", "response_selectors", "conditional_loglik",
            "prior_logpdf", "joint_logprob", "category_probs", "category_logprob",
            "conditional_loglik_values", "prior_logpdf_values", "joint_logprob_values"],
    "nets": ["GaussianEncoder.encode", "GaussianEncoder.heads_values",
             "BlackBoxEncoder.encode", "BlackBoxEncoder.encode_values",
             "Discriminator.forward", "Discriminator.forward_values",
             "encode_responses"],
    "estimators": ["gaussian_log_weights", "elbo_gaussian", "avb_log_weights",
                   "avb_discriminator_loss", "dreg_phi_surrogate",
                   "iw_elbo_from_log_w", "moment_estimates", "heldout_loglik"],
    "optim": ["AdamW.step"],
    "fitting": ["fit", "init_state", "training_step"],
    "simlab": ["simulate", "write_responses_csv", "read_responses_csv",
               "write_truth_json", "read_truth_json", "mse_bias"],
    "align": ["align_to_reference"],
    "cli": ["cmd_simulate", "cmd_fit", "cmd_eval", "run_fit", "write_manifest"],
}

# Spans each workload must record at least once, and spans it must never
# record.  A wrapper bound to a name its caller never looks up shows up as a
# missing span here.
COVERAGE = {
    "iwae-study": {
        "present": ["fitting.fit", "fitting.init_state", "fitting.training_step",
                    "estimators.gaussian_log_weights", "estimators.dreg_phi_surrogate",
                    "estimators.iw_elbo_from_log_w", "grm.joint_logprob",
                    "grm.conditional_loglik", "grm.GrmParams.effective",
                    "grm.response_selectors", "nets.GaussianEncoder.encode",
                    "nets.encode_responses", "optim.AdamW.step",
                    "diffkernel.Tape.backward"],
        "absent": ["nets.Discriminator.forward", "nets.BlackBoxEncoder.encode",
                   "estimators.avb_log_weights", "estimators.avb_discriminator_loss",
                   "estimators.elbo_gaussian", "estimators.heldout_loglik",
                   "grm.joint_logprob_values", "simlab.simulate",
                   "align.align_to_reference", "cli.run_fit"],
    },
    "iwavb-study": {
        "present": ["fitting.fit", "fitting.init_state", "fitting.training_step",
                    "estimators.avb_log_weights", "estimators.avb_discriminator_loss",
                    "estimators.dreg_phi_surrogate", "estimators.iw_elbo_from_log_w",
                    "estimators.moment_estimates", "grm.joint_logprob",
                    "grm.GrmParams.effective", "grm.response_selectors",
                    "nets.BlackBoxEncoder.encode", "nets.Discriminator.forward",
                    "optim.AdamW.step", "diffkernel.Tape.backward"],
        "absent": ["nets.GaussianEncoder.encode", "nets.BlackBoxEncoder.encode_values",
                   "estimators.gaussian_log_weights", "estimators.heldout_loglik",
                   "grm.joint_logprob_values", "simlab.simulate",
                   "align.align_to_reference", "cli.run_fit"],
    },
    "heldout-r5000": {
        "present": ["estimators.heldout_loglik", "estimators.moment_estimates",
                    "nets.GaussianEncoder.heads_values", "nets.BlackBoxEncoder.encode_values",
                    "nets.Discriminator.forward_values", "nets.encode_responses",
                    "grm.joint_logprob_values", "grm.conditional_loglik_values",
                    "grm.prior_logpdf_values", "grm.category_probs"],
        "absent": ["fitting.training_step", "diffkernel.Tape.backward",
                   "optim.AdamW.step", "grm.joint_logprob", "grm.conditional_loglik",
                   "nets.GaussianEncoder.encode", "nets.Discriminator.forward",
                   "cli.run_fit", "simlab.simulate"],
    },
    "vae-pipeline": {
        "present": ["cli.cmd_simulate", "cli.cmd_fit", "cli.cmd_eval", "cli.run_fit",
                    "cli.write_manifest", "simlab.simulate", "simlab.write_responses_csv",
                    "simlab.read_responses_csv", "simlab.write_truth_json",
                    "simlab.read_truth_json", "simlab.mse_bias", "align.align_to_reference",
                    "fitting.fit", "fitting.training_step", "estimators.elbo_gaussian",
                    "grm.conditional_loglik", "grm.category_probs",
                    "nets.GaussianEncoder.encode", "optim.AdamW.step",
                    "diffkernel.Tape.backward"],
        "absent": ["nets.Discriminator.forward", "nets.BlackBoxEncoder.encode",
                   "estimators.gaussian_log_weights", "estimators.avb_log_weights",
                   "estimators.heldout_loglik", "grm.joint_logprob",
                   "grm.joint_logprob_values"],
    },
}


def distinct_runs(rows) -> int:
    """Number of runs of identical consecutive rows.  Tiled inputs repeat each
    respondent's row back to back, so this counts distinct respondents."""
    if rows.shape[0] == 0:
        return 0
    return int(np.any(rows[1:] != rows[:-1], axis=1).sum()) + 1


def _array(value):
    return value.data if isinstance(value, Tensor2) else value


def _rows_probe(kind, x_pos, rows_pos):
    """Counter hook: rows fed to a layer and the distinct respondents among
    them.  Positions index the positional arguments (self included)."""
    def probe(tracer, args):
        x = _array(args[x_pos])
        rows = _array(args[rows_pos])
        if x is None:
            distinct = rows.shape[0]
        elif isinstance(x, dict):           # grm selectors: one row per respondent
            distinct = x["missing"].shape[0]
        else:
            distinct = distinct_runs(x)
        tracer.counts[kind + ".rows"] += rows.shape[0]
        tracer.counts[kind + ".distinct"] += distinct
    return probe


PROBES = {
    "grm.conditional_loglik": _rows_probe("grm", 3, 2),
    "grm.conditional_loglik_values": _rows_probe("grm", 0, 1),
    "nets.GaussianEncoder.encode": _rows_probe("encoder", 2, 2),
    "nets.GaussianEncoder.heads_values": _rows_probe("encoder", 1, 1),
    "nets.BlackBoxEncoder.encode": _rows_probe("encoder", 2, 2),
    "nets.BlackBoxEncoder.encode_values": _rows_probe("encoder", 1, 1),
    "nets.Discriminator.forward": _rows_probe("disc", 2, 3),
    "nets.Discriminator.forward_values": _rows_probe("disc", 1, 2),
}


class Tracer:
    """Collects spans and counts while `recording()` is active."""

    def __init__(self):
        self.spans: list[tuple] = []    # (name, start, end, parent, step)
        self.counts = Counter()
        self._stack: list[int] = []
        self._step = -1

    def _wrap(self, name, fn):
        probe = PROBES.get(name)
        spans = self.spans
        stack = self._stack
        is_step = name == "fitting.training_step"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_step:
                self._step += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self._step)
                if probe is not None:
                    probe(self, args)
        return wrapper

    def _count_nodes(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def record(*args, **kwargs):
            counts["tape_nodes"] += 1
            return fn(*args, **kwargs)
        return record

    @contextmanager
    def recording(self):
        """Install the wrappers, yield, and restore every original binding."""
        restore = []

        def rebind(owner, attr, new):
            restore.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        modules = [importlib.import_module(f"gradedvi.{m}") for m in TARGETS]
        try:
            for layer, attrs in TARGETS.items():
                mod = importlib.import_module(f"gradedvi.{layer}")
                for path in attrs:
                    name = f"{layer}.{path}"
                    if "." in path:
                        cls_name, meth = path.split(".")
                        cls = getattr(mod, cls_name)
                        rebind(cls, meth, self._wrap(name, cls.__dict__[meth]))
                        continue
                    original = getattr(mod, path)
                    wrapped = self._wrap(name, original)
                    for other in modules:
                        for attr, value in list(vars(other).items()):
                            if value is original:
                                rebind(other, attr, wrapped)
            tape_cls = importlib.import_module("gradedvi.diffkernel").Tape
            rebind(tape_cls, "record", self._count_nodes(tape_cls.__dict__["record"]))
            yield self
        finally:
            for owner, attr, value in reversed(restore):
                setattr(owner, attr, value)

    def names(self) -> set[str]:
        return {s[0] for s in self.spans}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, step in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "step": step}) + "\n")


def coverage_errors(workload: str, names: set[str]) -> list[str]:
    table = COVERAGE[workload]
    errors = [f"span {n} predicted on {workload} recorded no calls"
              for n in table["present"] if n not in names]
    errors += [f"span {n} predicted absent on {workload} fired"
               for n in table["absent"] if n in names]
    return errors


# ---------------------------------------------------------------------------
# per-layer metrics


def _children(spans):
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        children.setdefault(s[3], []).append(i)
    return children


def group_time(spans, names) -> float:
    """Seconds inside spans named in `names`, counting only the outermost
    span of the group when such spans nest."""
    names = set(names)
    total = 0.0
    for s in spans:
        if s[0] not in names:
            continue
        p = s[3]
        nested = False
        while p != -1:
            if spans[p][0] in names:
                nested = True
                break
            p = spans[p][3]
        if not nested:
            total += s[2] - s[1]
    return total


def self_time(spans, children, names, child_filter=lambda name: True) -> float:
    """Seconds in spans named in `names` minus the time their direct child
    spans (those accepted by child_filter) cover.  Calls are sequential, so
    children never overlap."""
    names = set(names)
    total = 0.0
    for i, s in enumerate(spans):
        if s[0] not in names:
            continue
        covered = sum(spans[c][2] - spans[c][1] for c in children.get(i, ())
                      if child_filter(spans[c][0]))
        total += (s[2] - s[1]) - covered
    return total


GRM_TAPE = ["grm.joint_logprob", "grm.conditional_loglik", "grm.prior_logpdf"]
GRM_VALUES = ["grm.category_probs", "grm.category_logprob", "grm.conditional_loglik_values",
              "grm.prior_logpdf_values", "grm.joint_logprob_values"]
NETS_VALUES = ["nets.GaussianEncoder.heads_values", "nets.BlackBoxEncoder.encode_values",
               "nets.Discriminator.forward_values"]
LOG_WEIGHTS = ["estimators.gaussian_log_weights", "estimators.avb_log_weights"]
CSV_IO = ["simlab.write_responses_csv", "simlab.read_responses_csv",
          "simlab.write_truth_json", "simlab.read_truth_json"]


def span_metrics(tracer: Tracer, tasks: int) -> dict[str, float]:
    """Span-derived per-layer metrics.  Times are milliseconds per task (one
    unit of the workload's task_s); counts are exact ratios."""
    spans = tracer.spans
    children = _children(spans)
    per_task = 1000.0 / max(tasks, 1)
    counts = tracer.counts

    def ms(names):
        return group_time(spans, names) * per_task

    def ratio(kind):
        d = counts[kind + ".distinct"]
        return counts[kind + ".rows"] / d if d else 0.0

    steps = sum(1 for s in spans if s[0] == "fitting.training_step")

    def minus_named(parent_names, child_names):
        child_names = set(child_names)
        return self_time(spans, children, parent_names,
                         lambda n: n in child_names) * per_task

    return {
        "diffkernel.tape_nodes_per_step": counts["tape_nodes"] / steps if steps else 0.0,
        "diffkernel.backward_ms": ms(["diffkernel.Tape.backward"]),
        "grm.joint_logprob_ms": ms(GRM_TAPE),
        "grm.effective_ms": ms(["grm.GrmParams.effective"]),
        "grm.response_selectors_ms": ms(["grm.response_selectors"]),
        "grm.rows_per_respondent": ratio("grm"),
        "grm.values_ms": ms(GRM_VALUES),
        "nets.encoder_ms": ms(["nets.GaussianEncoder.encode", "nets.BlackBoxEncoder.encode"]),
        "nets.disc_ms": ms(["nets.Discriminator.forward"]),
        "nets.encoder_rows_per_distinct": ratio("encoder"),
        "nets.disc_rows_per_distinct": ratio("disc"),
        "nets.values_ms": ms(NETS_VALUES),
        "estimators.log_weights_ms": ms(LOG_WEIGHTS),
        "estimators.log_weights_self_ms": self_time(
            spans, children, LOG_WEIGHTS,
            lambda n: n.startswith(("grm.", "nets."))) * per_task,
        "estimators.disc_loss_ms": ms(["estimators.avb_discriminator_loss"]),
        "estimators.heldout_self_ms": self_time(
            spans, children, ["estimators.heldout_loglik"]) * per_task,
        "optim.adamw_step_ms": ms(["optim.AdamW.step"]),
        "fitting.training_step_ms": ms(["fitting.training_step"]),
        "fitting.training_step_self_ms": self_time(
            spans, children, ["fitting.training_step"]) * per_task,
        "fitting.loop_overhead_ms": minus_named(["fitting.fit"], ["fitting.training_step"]),
        "simlab.simulate_ms": ms(["simlab.simulate"]),
        "simlab.csv_io_ms": ms(CSV_IO),
        "align.align_ms": ms(["align.align_to_reference"]),
        "cli.fit_io_ms": minus_named(["cli.run_fit"], ["fitting.fit"]),
        "cli.manifest_ms": ms(["cli.write_manifest"]),
        "cli.eval_ms": ms(["cli.cmd_eval"]),
    }
