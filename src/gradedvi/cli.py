"""Command-line front door: simulate datasets, fit estimators, evaluate
recovery, compute heldout likelihood, and run scree analyses.

All commands are driven by JSON config files whose flat keys are mirrored as
flags (flags win).  The output directories of simulate, fit and scree get
a manifest recording the config hash, seeds, input digests, artifact paths
and the software environment, and for a fit its convergence status and
iteration count.  Commands raise, and `main` alone maps an error to the
exit code, the same for every command: 0 success, 2 an input, config or
file error (`INPUT_ERRORS`, an unwritable output too), 3 a numerical failure
(`NUMERICAL_ERRORS`).  scree skips a factor count whose fit or heldout
evaluation raises either class, and exits 3 when no factor count succeeds.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import sys
import time
import types
import typing
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import scipy

from .align import align_correlations, align_to_reference, geomin_rotate
from .diffkernel import DomainError
from .estimators import DegeneratePosteriorError, heldout_loglik
from .fitting import FitConfig, FitResult, fit, split_holdout
from .grm import DataError, GrmParams, GrmValues
from .nets import BlackBoxEncoder, Discriminator, GaussianEncoder
from .optim import NumericalError
from .rngutil import substream
from .simlab import (
    SimDesign,
    mse_bias,
    read_responses_csv,
    read_truth_json,
    simulate,
    write_responses_csv,
    write_truth_json,
)

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3

# Checked before INPUT_ERRORS: DomainError is a ValueError.
NUMERICAL_ERRORS = (NumericalError, DomainError, DegeneratePosteriorError)
# ConfigError, DesignError, DataError, ShapeError, json.JSONDecodeError and
# numpy's LinAlgError are ValueErrors.
INPUT_ERRORS = (OSError, ValueError)


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _read_json_object(path) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path} holds a JSON {type(doc).__name__}, not an object")
    return doc


def _dump_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


@functools.cache
def _environment() -> dict:
    """The software and machine a run used, under the key names of the
    benchmark's run records; computed once per process."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "0")
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
            "blas_threads": int(threads) if threads.isdigit() else threads,
            "nproc": (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                      else os.cpu_count())}


def write_manifest(out_dir: Path, command: str, config_doc: dict,
                   seeds: dict, inputs: list[Path], artifacts: list[Path],
                   run: dict) -> Path:
    """Write manifest.json: config and its hash, seeds, input digests,
    artifact paths, the `run` entries ("wall_time_seconds", and for a fit
    its "convergence" status and iteration count) and the environment."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config_hash": _sha256_text(json.dumps(config_doc, sort_keys=True)),
        "config": config_doc,
        "seeds": seeds,
        "input_digests": {str(p): _sha256_file(Path(p)) for p in inputs},
        "artifacts": [str(p) for p in artifacts],
        **run,
        "environment": dict(_environment()),
    }
    path = out_dir / "manifest.json"
    _dump_json(path, doc)
    return path


def _fit_model(doc: dict) -> tuple[GrmParams, FitConfig]:
    """A fit file's GRM parameters and its config, which must pass `FitConfig.validate`."""
    params = GrmParams.from_dict(doc["params"])
    config = FitConfig.from_dict(doc["config"])
    config.validate()
    return params, config


def _typed(label: str, parse, *args):
    """parse(*args) on a JSON document, where the TypeError that a value of
    the wrong type raises (a number for a network, say) is a ValueError
    whose message starts with label."""
    try:
        return parse(*args)
    except TypeError as err:
        raise ValueError(f"{label}wrong JSON type: {err}") from None


def load_fit_bundle(path: Path):
    """FitResult JSON -> (params, encoder, disc, config).  VAE and IWAE fits
    hold a gaussian encoder and no discriminator, AVB and IWAVB fits a
    blackbox encoder and a discriminator; other networks, like a missing
    key or a value of the wrong JSON type, are a ValueError naming the
    file."""
    doc = _read_json_object(path)
    try:
        params, config = _fit_model(doc)
        enc_doc, disc_doc = doc["networks"]["encoder"], doc["networks"]["discriminator"]
        gaussian = config.estimator in ("VAE", "IWAE")
        kind = enc_doc.get("kind") if isinstance(enc_doc, dict) else None
        no_disc = disc_doc is None
        if (kind, no_disc) != (("gaussian", True) if gaussian else ("blackbox", False)):
            raise ValueError(f"malformed fit file {path}: encoder kind {kind!r} and "
                             f"{'no' if no_disc else 'a'} discriminator for {config.estimator}")
        encoder = (GaussianEncoder if gaussian else BlackBoxEncoder).from_dict(enc_doc)
        disc = None if gaussian else Discriminator.from_dict(disc_doc)
    except KeyError as err:
        raise ValueError(f"malformed fit file {path}: no key {err}") from None
    except TypeError as err:
        raise ValueError(f"malformed fit file {path}: wrong JSON type: {err}") from None
    return params, encoder, disc, config


def _run_jobs(fn, jobs: list, workers: int) -> list:
    """fn over jobs, in order: in this process when workers is 1, else in a pool."""
    if workers == 1:
        return list(map(fn, jobs))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


# ---------------------------------------------------------------------------
# simulate


def _simulate_one(args):
    design_doc, rep, out_dir = args
    truth = simulate(SimDesign.from_dict(design_doc), replication=rep)
    resp_path = Path(out_dir) / f"responses_rep{rep:03d}.csv"
    truth_path = Path(out_dir) / f"truth_rep{rep:03d}.json"
    write_responses_csv(resp_path, truth.responses)
    write_truth_json(truth_path, truth)
    return [str(resp_path), str(truth_path)]


def cmd_simulate(args) -> int:
    t0 = time.perf_counter()
    try:
        doc = _read_json_object(args.design)
        n_reps = doc.pop("n_replications", 1)
        if type(n_reps) is not int or n_reps < 1:
            raise ValueError(f"n_replications must be an integer >= 1, got {n_reps!r}")
        design = SimDesign.from_dict(doc)
        design.validate()
    except (OSError, TypeError, ValueError) as err:
        raise ValueError(f"invalid design: {err}") from err
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = [(doc | {"seed": design.seed}, rep, str(out_dir)) for rep in range(n_reps)]
    artifacts = [p for pair in _run_jobs(_simulate_one, jobs, args.jobs) for p in pair]
    write_manifest(out_dir, "simulate", doc | {"n_replications": n_reps},
                   {"master": design.seed}, [Path(args.design)],
                   [Path(p) for p in artifacts],
                   {"wall_time_seconds": time.perf_counter() - t0})
    print(f"wrote {n_reps} replication(s) to {out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit


def _load_config_with_overrides(args) -> FitConfig:
    doc = {}
    if args.config:
        doc = _read_json_object(args.config)
    for field_name in FitConfig.__dataclass_fields__:
        value = getattr(args, field_name, None)
        if value is not None:
            doc[field_name] = value
    config = FitConfig.from_dict(doc)
    config.validate()
    return config


_BOOL_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse_bool(text: str) -> bool:
    try:
        return _BOOL_WORDS[text.lower()]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"expected one of {'/'.join(_BOOL_WORDS)}, got {text!r}") from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """Mirror every flat FitConfig key as an optional override flag, parsed
    by the field's type (`int | None` parses as int)."""
    for name, hint in typing.get_type_hints(FitConfig).items():
        flag = "--" + name.replace("_", "-")
        if isinstance(hint, types.UnionType):
            hint = next(h for h in typing.get_args(hint) if h is not type(None))
        if hint is bool:
            parser.add_argument(flag, type=_parse_bool, default=None, metavar="BOOL")
        elif typing.get_origin(hint) is list:
            parser.add_argument(flag, type=lambda s: [int(v) for v in s.split(",")],
                                default=None, metavar="N,N,...")
        else:
            parser.add_argument(flag, type=hint, default=None)


def run_fit(responses_path: Path, config: FitConfig, out_dir: Path) -> tuple[Path, FitResult]:
    responses = read_responses_csv(responses_path)
    result = fit(responses, config)
    out_dir.mkdir(parents=True, exist_ok=True)
    fit_path = out_dir / "fit.json"
    _dump_json(fit_path, result.to_json_dict())
    diag_path = out_dir / "diagnostics.csv"
    with open(diag_path, "w") as fh:
        fh.write(",".join(result.trace) + "\n")
        for row in zip(*result.trace.values()):
            fh.write(",".join(map(repr, row)) + "\n")
    write_manifest(out_dir, "fit", config.to_dict(),
                   {"master": config.seed,
                    "substreams": ["grm-init", "net-init", "noise", "batches", "holdout"]},
                   [responses_path], [fit_path, diag_path],
                   {"wall_time_seconds": result.wall_time,
                    "convergence": {"status": result.status, "iterations": result.iterations}})
    return fit_path, result


def cmd_fit(args) -> int:
    config = _load_config_with_overrides(args)
    fit_path, result = run_fit(Path(args.responses), config, Path(args.out))
    print(f"{config.estimator}: {result.status} after {result.iterations} iterations "
          f"({result.wall_time:.1f}s); wrote {fit_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval


def _fit_values(params: GrmParams) -> GrmValues:
    values = params.values()
    if not all(np.isfinite(a).all()
               for a in (values.loadings, values.factor_corr, *values.intercepts)):
        raise ValueError("fit holds non-finite parameters")
    return values


def _same_values(a: GrmValues, b: GrmValues) -> bool:
    return (np.array_equal(a.loadings, b.loadings)
            and np.array_equal(a.factor_corr, b.factor_corr)
            and len(a.intercepts) == len(b.intercepts)
            and all(np.array_equal(x, y) for x, y in zip(a.intercepts, b.intercepts)))


def cmd_eval(args) -> int:
    """MSE and bias of the fits against the one truth their replications
    share; exits 2 when the truth files disagree on the parameters.  An
    exploratory fit is geomin-rotated in its orthogonal form L chol(Sigma),
    and each rotation is recorded under "rotations", with the fit's path
    relative to --fits so that the report does not depend on the working
    directory.  A non-finite fit or a factor correlation that is not
    positive definite exits 2, and so does a fit whose category count for
    some item differs from the truth's, or whose loading structure differs
    from the first fit's: rotated and unrotated estimates do not average."""
    fit_files = sorted(Path(args.fits).glob("**/fit*.json"))
    truth_files = sorted(Path(args.truths).glob("**/truth*.json"))
    if not fit_files or len(fit_files) != len(truth_files):
        raise ValueError(f"cannot pair {len(fit_files)} fit file(s) with "
                         f"{len(truth_files)} truth file(s)")
    estimates = []
    rotations = []
    truth_values = None
    structure = None
    for fit_path, truth_path in zip(fit_files, truth_files):
        # LinAlgError, from a factor_corr that is not positive definite, is a ValueError
        try:
            params, config = _typed("", _fit_model, _read_json_object(fit_path))
            values = _fit_values(params)
            t_values, _ = _typed(f"{truth_path}: ", read_truth_json, truth_path)
            if truth_values is None:
                truth_values = t_values
            elif not _same_values(t_values, truth_values):
                raise ValueError(f"{truth_path} holds other true parameters than "
                                 f"{truth_files[0]}; replications must share one truth")
            if values.loadings.shape != truth_values.loadings.shape:
                raise ValueError(f"shape mismatch: fit {values.loadings.shape} vs "
                                 f"truth {truth_values.loadings.shape}")
            for j, (a, t) in enumerate(zip(values.intercepts, truth_values.intercepts)):
                if len(a) != len(t):
                    raise ValueError(f"item {j + 1} has {len(a) + 1} categories in the "
                                     f"fit but {len(t) + 1} in {truth_path}")
            if structure is None:
                structure = config.loading_structure
            elif config.loading_structure != structure:
                raise ValueError(f"loading structure {config.loading_structure!r} differs "
                                 f"from {structure!r} of {fit_files[0]}")
            if structure == "exploratory" and values.n_factors >= 2:
                rot = geomin_rotate(values.loadings @ np.linalg.cholesky(values.factor_corr),
                                    seed=config.seed)
                rep = align_to_reference(rot.loadings, truth_values.loadings)
                if not rot.converged:
                    print(f"warning: {fit_path}: geomin rotation did not converge",
                          file=sys.stderr)
                rotations.append({"fit": fit_path.relative_to(args.fits).as_posix(),
                                  "criterion": rot.criterion,
                                  "converged": rot.converged, "start": rot.start})
                values = GrmValues(loadings=rep.aligned_loadings, intercepts=values.intercepts,
                                   factor_corr=align_correlations(rot.factor_corr, rep.amap))
        except (KeyError, ValueError) as err:
            missing = "no key " if isinstance(err, KeyError) else ""
            raise ValueError(f"{fit_path}: {missing}{err}") from err
        estimates.append(values)
    report = mse_bias(estimates, truth_values)
    out_doc = {"schema_version": SCHEMA_VERSION,
               "n_replications": len(estimates),
               "aligned": structure == "exploratory",
               "blocks": {k: v.to_dict() for k, v in report.items()},
               "rotations": rotations}
    _dump_json(Path(args.out), out_doc)
    print(f"{'block':<14}{'MSE':>12}{'bias':>12}")
    for name, block in report.items():
        print(f"{name:<14}{block.mse:>12.5f}{block.bias:>12.5f}")
    print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# heldout


def _read_ids(path: Path, n: int) -> np.ndarray:
    """Holdout ids from a whitespace-separated file: distinct, in [0, n)."""
    try:
        ids = np.asarray([int(v) for v in path.read_text().split()], dtype=np.int64)
    except (OSError, ValueError) as err:
        raise ValueError(f"bad ids file: {err}") from err
    if ids.size == 0:
        raise ValueError(f"bad ids file: {path} lists no ids")
    if np.unique(ids).size != ids.size:
        raise ValueError(f"bad ids file: {path} repeats an id")
    outside = ids[(ids < 0) | (ids >= n)]
    if outside.size:
        raise ValueError(f"bad ids file: id {outside[0]} outside 0..{n - 1}")
    return ids


def _holdout_ids(args, config: FitConfig, n: int) -> np.ndarray:
    if args.ids:
        return _read_ids(Path(args.ids), n)
    fraction = args.fraction if args.fraction is not None else config.holdout_fraction
    _, ids = split_holdout(n, fraction, config.seed)
    if ids.size == 0:
        raise ValueError(f"fraction {fraction} of {n} respondents holds out no one")
    return ids


def cmd_heldout(args) -> int:
    params, encoder, disc, config = load_fit_bundle(Path(args.fit))
    responses = read_responses_csv(Path(args.responses))
    cats, fit_cats = responses.categories, params.categories
    if cats.size != fit_cats.size:
        raise DataError(f"{args.responses} has {cats.size} items, the fit {fit_cats.size}")
    over = np.flatnonzero(cats > fit_cats)
    if over.size:
        j = over[0]
        raise DataError(f"item {j + 1} has {cats[j]} categories in {args.responses} "
                        f"but {fit_cats[j]} in the fit")
    ids = _holdout_ids(args, config, responses.n_respondents)
    r_eval = args.r_eval if args.r_eval is not None else config.r_eval
    if r_eval < 1:
        raise ValueError(f"r-eval must be >= 1, got {r_eval}")
    report = heldout_loglik(responses.subset(ids), params, encoder,
                            substream(config.seed, "heldout-eval"), R_eval=r_eval, disc=disc,
                            adaptive_contrast=config.estimator == "IWAVB")
    out_doc = {"schema_version": SCHEMA_VERSION,
               "estimator": config.estimator,
               "n_holdout": report.n_respondents,
               "holdout_ids": ids.tolist(),
               "r_eval": report.r_eval,
               "total_loglik": report.total,
               "per_respondent_mean": report.per_respondent_mean,
               "surrogate_density": report.surrogate_density,
               "ess_min": float(report.ess.min()),
               "ess_median": float(np.median(report.ess)),
               "high_variance": report.r_eval < 64}
    if args.out:
        _dump_json(Path(args.out), out_doc)
    flag = " [density surrogate]" if report.surrogate_density else ""
    hv = " [high-variance: tiny R_eval]" if out_doc["high_variance"] else ""
    print(f"heldout |Omega|={report.n_respondents} R={report.r_eval}: "
          f"total={report.total:.2f} mean/respondent={report.per_respondent_mean:.4f}{flag}{hv}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# scree


def _scree_one(packed):
    """(P, heldout total, None), or (P, None, message) on an error scree skips."""
    responses_path, config_doc, p, out_dir = packed
    try:
        config = FitConfig.from_dict(config_doc | {"n_factors": p})
        responses = read_responses_csv(Path(responses_path))
        train_idx, hold_idx = split_holdout(responses.n_respondents,
                                            config.holdout_fraction, config.seed)
        result = fit(responses.subset(train_idx), config)
        rng = substream(config.seed, "heldout-eval")
        report = heldout_loglik(
            responses.subset(hold_idx), result.params, result.encoder, rng,
            R_eval=config.r_eval, disc=result.disc,
            adaptive_contrast=config.estimator == "IWAVB")
        fit_dir = Path(out_dir) / f"P{p}"
        fit_dir.mkdir(parents=True, exist_ok=True)
        _dump_json(fit_dir / "fit.json", result.to_json_dict())
    except NUMERICAL_ERRORS + INPUT_ERRORS as err:  # any other is a bug
        return p, None, str(err)
    return p, report.total, None


def cmd_scree(args) -> int:
    p_list = [int(v) for v in args.factors.split(",") if v]
    if not p_list:
        raise ValueError("empty factor list")
    if len(set(p_list)) != len(p_list):
        raise ValueError(f"factor list {args.factors} repeats a value")
    config_doc = _read_json_object(args.config)
    n_items = read_responses_csv(Path(args.responses)).n_items
    for p in p_list:
        config = FitConfig.from_dict(config_doc | {"n_factors": p})
        config.validate()
        if config.loading_structure == "simple" and n_items % p:
            raise ValueError(f"simple structure needs P | M, got M={n_items}, P={p}")
        if config.estimator == "IWAVB" and config.r_eval < 2:
            raise ValueError(f"r_eval = {config.r_eval}: IWAVB's adaptive contrast needs "
                             f"R_eval >= 2 draws per respondent")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    jobs = [(args.responses, config_doc, p, str(out_dir)) for p in p_list]
    results = _run_jobs(_scree_one, jobs, args.jobs)
    for p, _, error in results:
        if error is not None:
            print(f"warning: P={p} failed: {error}", file=sys.stderr)
    rows = sorted((p, total) for p, total, error in results if error is None)
    if not rows:
        print(f"error: none of the {len(p_list)} fits succeeded", file=sys.stderr)
        return EXIT_NUMERICAL
    csv_path = out_dir / "scree.csv"
    with open(csv_path, "w") as fh:
        fh.write("P,heldout_loglik\n")
        for p, ll in rows:
            fh.write(f"{p},{ll!r}\n")
    write_manifest(out_dir, "scree", {"config": config_doc, "factors": p_list},
                   {"master": config_doc.get("seed", 0)},
                   [Path(args.responses), Path(args.config)],
                   [csv_path], {"wall_time_seconds": time.perf_counter() - t0})
    print(f"wrote {csv_path} ({len(rows)}/{len(p_list)} fits succeeded)")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradedvi",
        description="Amortized variational estimation for graded response models")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate datasets from a design JSON")
    p_sim.add_argument("--design", required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--jobs", type=_positive_int, default=1)
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit one estimator to a responses CSV")
    p_fit.add_argument("--config", default=None)
    p_fit.add_argument("--responses", required=True)
    p_fit.add_argument("--out", required=True)
    _add_config_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_eval = sub.add_parser("eval", help="recovery metrics for fits vs truths")
    p_eval.add_argument("--fits", required=True)
    p_eval.add_argument("--truths", required=True)
    p_eval.add_argument("--out", required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_held = sub.add_parser("heldout", help="importance-sampled heldout log-likelihood")
    p_held.add_argument("--fit", required=True)
    p_held.add_argument("--responses", required=True)
    p_held.add_argument("--fraction", type=float, default=None)
    p_held.add_argument("--ids", default=None)
    p_held.add_argument("--r-eval", dest="r_eval", type=int, default=None)
    p_held.add_argument("--out", default=None)
    p_held.set_defaults(func=cmd_heldout)

    p_scree = sub.add_parser("scree", help="heldout log-likelihood across factor counts")
    p_scree.add_argument("--responses", required=True)
    p_scree.add_argument("--config", required=True)
    p_scree.add_argument("--factors", required=True, help="comma-separated P values")
    p_scree.add_argument("--out", required=True)
    p_scree.add_argument("--jobs", type=_positive_int, default=1)
    p_scree.set_defaults(func=cmd_scree)
    return parser


def main(argv=None) -> int:
    """Run one command; the one place where an error becomes an exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NUMERICAL_ERRORS as err:
        print(f"error: numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except INPUT_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
