"""CLI contract: artifact schemas, determinism, holdout splitting, scree
output, manifests, the 0/2/3 exit-code contract, and the modules a command
loads."""

import dataclasses
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from gradedvi import BLAS_THREAD_VARIABLES, cli
from gradedvi import diffkernel as dk
from gradedvi.cli import main
from gradedvi.estimators import DegeneratePosteriorError
from gradedvi.fitting import ConfigError, FitConfig, init_state
from gradedvi.grm import MISSING, GrmParams, GrmValues, ResponseMatrix, softplus_inv
from gradedvi.optim import NumericalError
from gradedvi.simlab import (
    SimDesign,
    read_responses_csv,
    read_truth_json,
    simulate,
    write_responses_csv,
    write_truth_json,
)


PARENT_FIT = Path(__file__).parent / "data" / "parent_fit"


def write_design(path, **kw):
    doc = {"n_respondents": 60, "n_items": 6, "n_factors": 2, "categories": 3,
           "structure": "simple", "seed": 5}
    doc.update(kw)
    path.write_text(json.dumps(doc))
    return doc


def write_config(path, **kw):
    doc = {"estimator": "IWAE", "n_factors": 2, "R": 3, "S": 1, "batch_size": 30,
           "max_iterations": 40, "window": 10, "patience": 2,
           "encoder_hidden": [8], "disc_hidden": [8], "clr_step_size": 20,
           "seed": 3}
    doc.update(kw)
    path.write_text(json.dumps(doc))
    return doc


# legacy adaptive_contrast keys that disagree with the estimator, which
# FitConfig.from_dict rejects: only IWAVB uses adaptive contrast
CONTRAST_MISMATCHES = pytest.mark.parametrize("mismatch", [
    {"estimator": "IWAE", "adaptive_contrast": True},
    {"estimator": "IWAVB", "adaptive_contrast": False},
    {"estimator": "AVB", "adaptive_contrast": True},
], ids=["iwae-with-contrast", "iwavb-without-contrast", "avb-with-contrast"])


def params_from_values(values: GrmValues, mask, categories) -> GrmParams:
    """Raw parameters whose reconstruction equals the given effective values."""
    alpha = np.array(values.intercepts)  # (M, C-1): equal category counts
    intercept_raw = alpha.copy()
    intercept_raw[:, 1:] = softplus_inv(alpha[:, :-1] - alpha[:, 1:] - 1e-6)
    chol = np.linalg.cholesky(values.factor_corr)
    chol_raw = np.tril(chol, -1) + np.diag(softplus_inv(np.diag(chol)))
    return GrmParams(
        loadings_raw=dk.parameter(values.loadings),
        intercept_raw=dk.parameter(intercept_raw),
        chol_raw=dk.parameter(chol_raw),
        loading_mask=np.asarray(mask, dtype=float),
        categories=np.asarray(categories),
        loading_positivity=False,
    )


class TestSimulate:
    def test_full_design_shapes_and_range(self, tmp_path):
        design = tmp_path / "design.json"
        write_design(design, n_respondents=500, n_items=50, n_factors=5,
                     categories=5)
        out = tmp_path / "sims"
        assert main(["simulate", "--design", str(design), "--out", str(out)]) == 0
        resp = read_responses_csv(out / "responses_rep000.csv")
        assert resp.data.shape == (500, 50)
        assert resp.data.min() >= 0 and resp.data.max() <= 4
        assert (out / "truth_rep000.json").exists()
        assert (out / "manifest.json").exists()

    def test_single_respondent_edge(self, tmp_path):
        design = tmp_path / "design.json"
        write_design(design, n_respondents=1)
        out = tmp_path / "sims"
        assert main(["simulate", "--design", str(design), "--out", str(out)]) == 0
        resp = read_responses_csv(out / "responses_rep000.csv",
                                  categories=np.full(6, 3))
        assert resp.data.shape == (1, 6)

    def test_rerun_byte_identical(self, tmp_path):
        design = tmp_path / "design.json"
        write_design(design)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--design", str(design), "--out", str(out1)])
        main(["simulate", "--design", str(design), "--out", str(out2)])
        assert ((out1 / "responses_rep000.csv").read_bytes()
                == (out2 / "responses_rep000.csv").read_bytes())
        assert ((out1 / "truth_rep000.json").read_bytes()
                == (out2 / "truth_rep000.json").read_bytes())

    def test_replications_get_distinct_seeds(self, tmp_path):
        design = tmp_path / "design.json"
        write_design(design, n_replications=2)
        out = tmp_path / "sims"
        main(["simulate", "--design", str(design), "--out", str(out)])
        a = (out / "responses_rep000.csv").read_bytes()
        b = (out / "responses_rep001.csv").read_bytes()
        assert a != b

    def test_invalid_design_exits_2(self, tmp_path, capsys):
        design = tmp_path / "design.json"
        write_design(design, n_items=7, n_factors=2)  # simple needs P | M
        code = main(["simulate", "--design", str(design), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "P | M" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("n_respondents", 20.7), ("n_items", 6.0), ("n_factors", True), ("categories", 3.5),
        ("categories", [3, 3, 3, 3, 3, 3.5]), ("categories", True), ("seed", 1.5),
        ("seed", "5"),
    ])
    def test_non_integer_count_or_seed_exits_2(self, key, value, tmp_path, capsys):
        design = tmp_path / "design.json"
        write_design(design, **{key: value})
        out = tmp_path / "o"
        code = main(["simulate", "--design", str(design), "--out", str(out)])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n_reps", [0, -3, 2.7, True, "2"])
    def test_bad_replication_count_exits_2(self, n_reps, tmp_path, capsys):
        design = tmp_path / "design.json"
        write_design(design, n_replications=n_reps)
        out = tmp_path / "o"
        code = main(["simulate", "--design", str(design), "--out", str(out)])
        assert code == 2
        assert "n_replications" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    truth = simulate(SimDesign(n_respondents=60, n_items=6, n_factors=2,
                               categories=3, structure="simple", seed=5))
    path = root / "responses.csv"
    write_responses_csv(path, truth.responses)
    return path, truth


class TestFit:
    def test_smoke_and_artifacts(self, dataset, tmp_path):
        resp_path, _ = dataset
        cfg = tmp_path / "config.json"
        write_config(cfg)
        out = tmp_path / "fit"
        assert main(["fit", "--config", str(cfg), "--responses", str(resp_path),
                     "--out", str(out)]) == 0
        doc = json.loads((out / "fit.json").read_text())
        assert doc["schema_version"] == 1
        assert doc["convergence"]["status"] in ("converged", "max_iterations")
        assert (out / "diagnostics.csv").read_text().splitlines()[0] == \
            "iteration,batch_iw_elbo,disc_loss,lr_encoder,lr_disc"
        assert (out / "manifest.json").exists()

    def test_manifests_record_environment_and_convergence(self, tmp_path, monkeypatch):
        """simulate and fit manifests carry the environment block under the
        benchmark's key names, and a fit's its convergence from fit.json."""
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        cli._environment.cache_clear()
        design = tmp_path / "design.json"
        write_design(design)
        sims = tmp_path / "sims"
        assert main(["simulate", "--design", str(design), "--out", str(sims)]) == 0
        cfg = tmp_path / "config.json"
        write_config(cfg, max_iterations=25)
        out = tmp_path / "fit"
        assert main(["fit", "--config", str(cfg), "--responses",
                     str(sims / "responses_rep000.csv"), "--out", str(out)]) == 0
        fit_manifest = json.loads((out / "manifest.json").read_text())
        sim_manifest = json.loads((sims / "manifest.json").read_text())
        env = fit_manifest["environment"]
        assert set(env) == {"python", "numpy", "scipy", "blas", "blas_threads", "nproc"}
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__ and env["scipy"] == scipy.__version__
        assert env["blas_threads"] == 1 and env["nproc"] >= 1 and env["blas"]
        assert sim_manifest["environment"] == env
        assert "convergence" not in sim_manifest
        doc = json.loads((out / "fit.json").read_text())
        assert fit_manifest["convergence"] == doc["convergence"]
        assert fit_manifest["convergence"] == {"status": "max_iterations", "iterations": 25}
        assert fit_manifest["wall_time_seconds"] > 0
        cli._environment.cache_clear()

    @pytest.mark.parametrize("estimator", ["VAE", "IWAVB"])
    def test_diagnostics_csv_matches_column_writer(self, estimator, dataset, tmp_path):
        # the writer that named each column, kept as an oracle
        resp_path, _ = dataset
        config = FitConfig.from_dict({"estimator": estimator, "n_factors": 2,
                                      "R": 1 if estimator == "VAE" else 3, "batch_size": 30,
                                      "max_iterations": 12, "encoder_hidden": [8],
                                      "disc_hidden": [8], "seed": 3})
        _, result = cli.run_fit(resp_path, config, tmp_path / "fit")
        tr = result.trace
        expected = "iteration,batch_iw_elbo,disc_loss,lr_encoder,lr_disc\n" + "".join(
            f'{tr["iteration"][k]},{tr["batch_iw_elbo"][k]!r},'
            f'{tr["disc_loss"][k]!r},{tr["lr_encoder"][k]!r},{tr["lr_disc"][k]!r}\n'
            for k in range(len(tr["iteration"])))
        assert (tmp_path / "fit" / "diagnostics.csv").read_bytes() == expected.encode()

    def test_determinism_byte_identical(self, dataset, tmp_path):
        resp_path, _ = dataset
        cfg = tmp_path / "config.json"
        write_config(cfg)
        out1, out2 = tmp_path / "f1", tmp_path / "f2"
        main(["fit", "--config", str(cfg), "--responses", str(resp_path), "--out", str(out1)])
        main(["fit", "--config", str(cfg), "--responses", str(resp_path), "--out", str(out2)])
        assert (out1 / "fit.json").read_bytes() == (out2 / "fit.json").read_bytes()

    def test_flag_overrides_win(self, dataset, tmp_path):
        resp_path, _ = dataset
        cfg = tmp_path / "config.json"
        write_config(cfg, max_iterations=40)
        out = tmp_path / "fit"
        main(["fit", "--config", str(cfg), "--responses", str(resp_path),
              "--out", str(out), "--max-iterations", "7"])
        doc = json.loads((out / "fit.json").read_text())
        assert doc["convergence"]["iterations"] == 7
        assert doc["config"]["max_iterations"] == 7

    def test_zero_learning_rate_moves_nothing(self, dataset, tmp_path):
        resp_path, _ = dataset
        cfg = tmp_path / "config.json"
        doc = write_config(cfg, base_lr=0.0, disc_base_lr=0.0, max_iterations=15)
        out = tmp_path / "fit"
        assert main(["fit", "--config", str(cfg), "--responses", str(resp_path),
                     "--out", str(out)]) == 0
        fit_doc = json.loads((out / "fit.json").read_text())
        assert fit_doc["convergence"]["status"] in ("max_iterations", "converged")
        config = FitConfig.from_dict(doc)
        state, _, _ = init_state(read_responses_csv(resp_path), config)
        init_raw = state.params.loadings_raw.data
        np.testing.assert_array_equal(
            np.asarray(fit_doc["params"]["raw"]["loadings_raw"]), init_raw)

    def test_int_and_float_spellings_share_config_hash(self, dataset, tmp_path):
        resp_path, _ = dataset
        hashes = []
        for name, config, flags in (("int", {"base_lr": 1}, []),
                                    ("float", {"base_lr": 1.0}, []),
                                    ("flag", {}, ["--base-lr", "1"])):
            cfg = tmp_path / f"{name}.json"
            write_config(cfg, max_iterations=2, **config)
            out = tmp_path / name
            assert main(["fit", "--config", str(cfg), "--responses", str(resp_path),
                         "--out", str(out), *flags]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["config"]["base_lr"] == 1.0
            assert isinstance(manifest["config"]["base_lr"], float)
            hashes.append(manifest["config_hash"])
        assert hashes[0] == hashes[1] == hashes[2]

    def test_unreadable_csv_exits_2(self, tmp_path, capsys):
        """A malformed responses file exits 2, and stderr names the file and
        the line, and the column for a bad cell."""
        cfg = tmp_path / "config.json"
        write_config(cfg)
        cases = {"not_an_int": ("item_1,item_2\n0,not_an_int\n", "line 2, column 2"),
                 "fraction": ("item_1,item_2\n0,1\n1.5,0\n", "line 3, column 1"),
                 "ragged": ("item_1,item_2\n0,1\n1\n", "line 3: 1 cells"),
                 "empty": ("", "line 1: no header"),
                 "header_only": ("item_1,item_2\n", "no rows")}
        for name, (text, where) in cases.items():
            bad = tmp_path / f"{name}.csv"
            bad.write_text(text)
            code = main(["fit", "--config", str(cfg), "--responses", str(bad),
                         "--out", str(tmp_path / "o")])
            assert code == 2, name
            err = capsys.readouterr().err
            assert f"malformed responses CSV {bad}" in err and where in err, name

    def test_missing_csv_exits_2(self, tmp_path):
        cfg = tmp_path / "config.json"
        write_config(cfg)
        code = main(["fit", "--config", str(cfg), "--responses",
                     str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_invalid_config_exits_2(self, dataset, tmp_path):
        resp_path, _ = dataset
        cfg = tmp_path / "config.json"
        write_config(cfg, estimator="VAE", R=9)
        code = main(["fit", "--config", str(cfg), "--responses", str(resp_path),
                     "--out", str(tmp_path / "o")])
        assert code == 2

    @CONTRAST_MISMATCHES
    def test_contrast_mismatch_exits_2(self, mismatch, dataset, tmp_path, capsys):
        resp_path, _ = dataset
        cfg = tmp_path / "config.json"
        write_config(cfg, **mismatch)
        code = main(["fit", "--config", str(cfg), "--responses", str(resp_path),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: adaptive_contrast: ") and "only IWAVB" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config, flags, message", [
        ({}, ["--beta1", "1.5"], "beta1"),
        ({}, ["--beta2", "1.0"], "beta2"),
        ({}, ["--beta1", "-0.1"], "beta1"),
        ({}, ["--eps-stab", "-1"], "eps_stab"),
        ({}, ["--eps-stab", "0"], "eps_stab"),
        ({}, ["--weight-decay", "-0.01"], "weight_decay"),
        ({"estimator": "IWAVB"}, ["--noise-dim", "0"], "noise_dim"),
        ({"S": "2"}, [], "S: expected"),
        ({"dreg": 1}, [], "dreg: 1 is not what"),
        ({"dreg": False}, [], "dreg: False is not what estimator 'IWAE' runs"),
        ({"encoder_hidden": [8.5]}, [], "encoder_hidden: expected"),
        ({}, ["--base-lr", "nan"], "base_lr: must be finite"),
        ({}, ["--disc-base-lr", "inf"], "disc_base_lr: must be finite"),
        ({}, ["--max-lr-factor", "nan"], "max_lr_factor: must be finite"),
        ({}, ["--min-delta", "nan"], "min_delta: must be finite"),
        ({}, ["--weight-decay", "inf"], "weight_decay: must be finite"),
        ({}, ["--eps-stab", "inf"], "eps_stab: must be finite"),
        ({}, ["--encoder-hidden", "0"], "encoder_hidden: every width must be >= 1, got [0]"),
        ({}, ["--encoder-hidden=-3"], "encoder_hidden: every width must be >= 1, got [-3]"),
        ({"estimator": "IWAVB"}, ["--disc-hidden", "8,0"],
         "disc_hidden: every width must be >= 1, got [8, 0]"),
    ], ids=["beta1-high", "beta2-one", "beta1-negative", "eps-negative", "eps-zero",
            "decay-negative", "noise-dim-zero", "S-string", "dreg-int", "dreg-false",
            "hidden-float", "lr-nan", "disc-lr-inf", "lr-factor-nan", "min-delta-nan",
            "decay-inf", "eps-inf", "encoder-hidden-zero", "encoder-hidden-negative",
            "disc-hidden-zero"])
    def test_bad_setting_exits_2(self, config, flags, message, dataset, tmp_path, capsys):
        resp_path, _ = dataset
        cfg = tmp_path / "config.json"
        write_config(cfg, **config)
        code = main(["fit", "--config", str(cfg), "--responses", str(resp_path),
                     "--out", str(tmp_path / "o"), *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err and "numerical" not in err
        assert not (tmp_path / "o").exists()


class TestFitConfig:
    def test_flags_parse_by_field_type(self):
        parser = cli.build_parser()
        args = parser.parse_args(["fit", "--responses", "r.csv", "--out", "o",
                                  "--noise-dim", "3", "--beta1", "0.5",
                                  "--loading-positivity", "false",
                                  "--encoder-hidden", "8,4", "--estimator", "AVB"])
        assert args.noise_dim == 3 and isinstance(args.noise_dim, int)
        assert args.beta1 == 0.5 and isinstance(args.beta1, float)
        assert args.loading_positivity is False
        assert args.encoder_hidden == [8, 4]
        assert args.estimator == "AVB"
        bare = parser.parse_args(["fit", "--responses", "r.csv", "--out", "o"])
        assert all(getattr(bare, name) is None for name in FitConfig.__dataclass_fields__)

    @pytest.mark.parametrize("text, value", [
        ("1", True), ("0", False), ("true", True), ("FALSE", False), ("Yes", True), ("no", False),
    ])
    def test_bool_flag_spellings(self, text, value):
        args = cli.build_parser().parse_args(["fit", "--responses", "r.csv", "--out", "o",
                                              "--loading-positivity", text])
        assert args.loading_positivity is value

    # --dreg and --adaptive-contrast are gone, so every value of them is
    # refused the same way
    @pytest.mark.parametrize("flag", ["--dreg", "--loading-positivity", "--adaptive-contrast"])
    @pytest.mark.parametrize("text", ["banana", "on", "off", "y", "2", ""])
    def test_bad_bool_flag_exits_2(self, flag, text, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--responses", str(tmp_path / "r.csv"), "--out", str(tmp_path / "o"),
                  flag, text])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_adaptive_contrast_flag_is_gone(self, tmp_path, capsys):
        # the estimator decides adaptive contrast; IWAVB is the way to ask for it
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--responses", str(tmp_path / "r.csv"), "--out", str(tmp_path / "o"),
                  "--estimator", "AVB", "--adaptive-contrast", "yes"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --adaptive-contrast" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_dreg_flag_is_gone(self, tmp_path, capsys):
        # every importance-weighted estimator trains with DReG
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--responses", str(tmp_path / "r.csv"), "--out", str(tmp_path / "o"),
                  "--dreg", "true"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --dreg" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_from_dict_makes_ints_in_float_fields_floats(self):
        config = FitConfig.from_dict({"base_lr": 1, "weight_decay": 0, "R": 4})
        assert type(config.base_lr) is float and type(config.weight_decay) is float
        assert type(config.R) is int
        assert config.to_dict() == FitConfig.from_dict({"base_lr": 1.0, "weight_decay": 0.0,
                                                        "R": 4}).to_dict()

    def test_from_dict_accepts_every_declared_type(self):
        doc = {"R": 4, "base_lr": 1, "noise_dim": None, "encoder_hidden": [8, 4],
               "loading_positivity": False, "estimator": "IWAE", "min_delta": 0.5}
        config = FitConfig.from_dict(doc)
        config.validate()
        assert config.base_lr == 1 and config.encoder_hidden == [8, 4]
        assert FitConfig.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize("key, value", [
        ("R", 2.0), ("R", True), ("base_lr", "0.1"), ("noise_dim", 1.5),
        ("encoder_hidden", [True]), ("encoder_hidden", 8), ("estimator", 3),
        ("adaptive_contrast", "yes"),
    ])
    def test_from_dict_rejects_wrong_type(self, key, value):
        with pytest.raises(ConfigError, match=key):
            FitConfig.from_dict({key: value})

    @pytest.mark.parametrize("key, value", [
        ("beta1", 1.0), ("beta1", -1e-9), ("beta2", 1.0), ("beta2", float("nan")),
        ("eps_stab", 0.0), ("weight_decay", -1e-3), ("noise_dim", 0),
        ("base_lr", float("nan")), ("disc_base_lr", float("inf")),
        ("max_lr_factor", float("nan")), ("min_delta", float("nan")),
        ("min_delta", float("-inf")), ("weight_decay", float("inf")),
        ("eps_stab", float("inf")),
    ])
    def test_validate_rejects_out_of_range(self, key, value):
        with pytest.raises(ConfigError, match=key):
            FitConfig(**{key: value}).validate()

    @pytest.mark.parametrize("key, value", [
        ("beta1", 0.0), ("beta2", 0.0), ("weight_decay", 0.0), ("noise_dim", 1),
        ("eps_stab", 1e-300),
    ])
    def test_validate_accepts_edges(self, key, value):
        FitConfig(**{key: value}).validate()


# the failure classes training and evaluation can raise on bad numerics;
# DomainError is a ValueError and DegeneratePosteriorError a RuntimeError
NUMERICAL_FAILURES = [NumericalError, dk.DomainError, DegeneratePosteriorError]


class _NetworkOf:
    """An edit's value: the same network, taken from another estimator's fit."""

    def __init__(self, estimator):
        self.estimator = estimator


def _raise(cls):
    def fail(*args, **kwargs):
        raise cls("injected")
    return fail


@pytest.mark.parametrize("cls", NUMERICAL_FAILURES, ids=lambda c: c.__name__)
def test_fit_numerical_failure_exits_3(cls, dataset, tmp_path, monkeypatch, capsys):
    resp_path, _ = dataset
    cfg = tmp_path / "config.json"
    write_config(cfg)
    monkeypatch.setattr(cli, "fit", _raise(cls))
    code = main(["fit", "--config", str(cfg), "--responses", str(resp_path),
                 "--out", str(tmp_path / "fit")])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: numerical failure: injected")
    assert "Traceback" not in err


class TestEval:
    def _fake_fit_doc(self, values, mask, categories, structure="simple"):
        params = params_from_values(values, mask, categories)
        return {"schema_version": 1, "estimator": "IWAE",
                "config": {"estimator": "IWAE", "n_factors": values.n_factors,
                           "loading_structure": structure, "seed": 0},
                "params": params.to_dict(),
                "networks": {"encoder": None, "discriminator": None,
                             "feature_missing_block": False},
                "trace": {}, "convergence": {"status": "converged", "iterations": 1}}

    def test_perfect_fit_zero_mse(self, dataset, tmp_path):
        _, truth = dataset
        fits = tmp_path / "fits"
        truths = tmp_path / "truths"
        fits.mkdir()
        truths.mkdir()
        doc = self._fake_fit_doc(truth.values, truth.loading_mask,
                                 truth.responses.categories)
        (fits / "fit_rep000.json").write_text(json.dumps(doc))
        from gradedvi.simlab import write_truth_json
        write_truth_json(truths / "truth_rep000.json", truth)
        out = tmp_path / "report.json"
        assert main(["eval", "--fits", str(fits), "--truths", str(truths),
                     "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["blocks"]["loadings"]["mse"] < 1e-12
        assert rep["blocks"]["intercepts"]["mse"] < 1e-12
        assert set(rep["blocks"]) == {"loadings", "intercepts", "correlations"}

    def test_bias_matches_injected_shift(self, dataset, tmp_path):
        _, truth = dataset
        shifted = GrmValues(
            loadings=truth.values.loadings + 0.1 * truth.loading_mask,
            intercepts=[a + 0.1 for a in truth.values.intercepts],
            factor_corr=truth.values.factor_corr)
        fits = tmp_path / "fits"
        truths = tmp_path / "truths"
        fits.mkdir()
        truths.mkdir()
        doc = self._fake_fit_doc(shifted, truth.loading_mask,
                                 truth.responses.categories)
        (fits / "fit_rep000.json").write_text(json.dumps(doc))
        from gradedvi.simlab import write_truth_json
        write_truth_json(truths / "truth_rep000.json", truth)
        out = tmp_path / "report.json"
        main(["eval", "--fits", str(fits), "--truths", str(truths), "--out", str(out)])
        rep = json.loads(out.read_text())
        assert rep["blocks"]["intercepts"]["bias"] == pytest.approx(0.1, abs=1e-9)
        # loadings bias averaged over the whole (masked) matrix
        frac_on = truth.loading_mask.mean()
        assert rep["blocks"]["loadings"]["bias"] == pytest.approx(0.1 * frac_on, abs=1e-9)

    @pytest.mark.parametrize("P", [2, 3])
    def test_exploratory_equivalent_fit_scores_zero(self, P, tmp_path):
        """The truth re-expressed through an oblique T (loadings L chol(Sigma)
        (T')^-1, factor correlation T'T) is the same model, so eval must
        score it as exact up to the rotation's convergence.  So must it when
        the truth's first factor is negated: its loading column sums
        negative and its correlations change sign, and eval scores the fit
        in the truth's own orientation."""
        simulated = simulate(SimDesign(n_items=30, n_factors=P, categories=3, seed=5))
        signs = np.ones(P)
        signs[0] = -1.0
        flipped = dataclasses.replace(simulated, values=GrmValues(
            loadings=simulated.values.loadings * signs, intercepts=simulated.values.intercepts,
            factor_corr=simulated.values.factor_corr * np.outer(signs, signs)))
        assert flipped.values.loadings[:, 0].sum() < 0
        for case, truth in (("simulated", simulated), ("flipped", flipped)):
            rng = np.random.default_rng(9)
            T = rng.standard_normal((P, P))
            T /= np.sqrt((T ** 2).sum(axis=0))
            orth = truth.values.loadings @ np.linalg.cholesky(truth.values.factor_corr)
            equivalent = GrmValues(loadings=orth @ np.linalg.inv(T).T,
                                   intercepts=truth.values.intercepts, factor_corr=T.T @ T)
            fits = tmp_path / case / "fits"
            truths = tmp_path / case / "truths"
            fits.mkdir(parents=True)
            truths.mkdir()
            doc = self._fake_fit_doc(equivalent, np.ones((30, P)), truth.responses.categories,
                                     structure="exploratory")
            (fits / "fit_rep000.json").write_text(json.dumps(doc))
            write_truth_json(truths / "truth_rep000.json", truth)
            out = tmp_path / case / "report.json"
            assert main(["eval", "--fits", str(fits), "--truths", str(truths),
                         "--out", str(out)]) == 0
            rep = json.loads(out.read_text())
            assert rep["aligned"], case
            assert rep["blocks"]["loadings"]["mse"] < 1e-4, case
            assert rep["blocks"]["correlations"]["mse"] < 1e-4, case
            [rot] = rep["rotations"]
            assert rot["fit"] == "fit_rep000.json"
            assert rot["converged"] is True
            assert 0 <= rot["start"] < 30
            assert rot["criterion"] > 0

    def test_eval_json_bytes_do_not_depend_on_the_working_directory(self, tmp_path,
                                                                     monkeypatch):
        """One seeded exploratory simulate -> fit -> eval pipeline, run from
        the directory above its outputs and from inside them, writes the
        same eval.json bytes."""
        write_design(tmp_path / "design.json")
        write_config(tmp_path / "config.json", max_iterations=10)
        reports = []
        for cwd, root in ((tmp_path, "a/"), (tmp_path / "b", "")):
            cwd.mkdir(exist_ok=True)
            monkeypatch.chdir(cwd)
            design, config = str(tmp_path / "design.json"), str(tmp_path / "config.json")
            assert main(["simulate", "--design", design, "--out", root + "sims"]) == 0
            assert main(["fit", "--config", config, "--responses",
                         root + "sims/responses_rep000.csv", "--out", root + "fits/rep000"]) == 0
            assert main(["eval", "--fits", root + "fits", "--truths", root + "sims",
                         "--out", root + "eval.json"]) == 0
            reports.append((cwd / root / "eval.json").read_bytes())
        assert json.loads(reports[0])["rotations"][0]["fit"] == "rep000/fit.json"
        assert reports[0] == reports[1]

    def _eval_one(self, tmp_path, structure="exploratory", edit=lambda doc: None,
                  edit_truth=lambda doc: None):
        """eval of one P=2 fit equal to the truth, after `edit` has changed
        its fit document and `edit_truth` the truth document."""
        truth = simulate(SimDesign(n_items=12, n_factors=2, categories=3, seed=5))
        fits = tmp_path / "fits"
        truths = tmp_path / "truths"
        fits.mkdir()
        truths.mkdir()
        doc = self._fake_fit_doc(truth.values, truth.loading_mask, truth.responses.categories,
                                 structure=structure)
        edit(doc)
        fit_path = fits / "fit_rep000.json"
        fit_path.write_text(json.dumps(doc))
        truth_path = truths / "truth_rep000.json"
        write_truth_json(truth_path, truth)
        truth_doc = json.loads(truth_path.read_text())
        edit_truth(truth_doc)
        truth_path.write_text(json.dumps(truth_doc))
        out = tmp_path / "report.json"
        code = main(["eval", "--fits", str(fits), "--truths", str(truths), "--out", str(out)])
        return code, fit_path, out

    def test_confirmatory_fits_record_no_rotations(self, tmp_path):
        code, _, out = self._eval_one(tmp_path, structure="simple")
        assert code == 0
        assert json.loads(out.read_text())["rotations"] == []

    def test_unconverged_rotation_warns_and_is_recorded(self, tmp_path, capsys, monkeypatch):
        real = cli.geomin_rotate
        monkeypatch.setattr(cli, "geomin_rotate",
                            lambda loadings, seed: real(loadings, seed=seed, max_iter=1))
        code, fit_path, out = self._eval_one(tmp_path)
        assert code == 0
        assert f"warning: {fit_path}: geomin rotation did not converge" in capsys.readouterr().err
        [rot] = json.loads(out.read_text())["rotations"]
        assert rot["converged"] is False

    @pytest.mark.parametrize("structure", ["exploratory", "simple"])
    def test_non_finite_fit_exits_2(self, structure, tmp_path, capsys):
        def poison(doc):
            doc["params"]["raw"]["loadings_raw"][3][1] = float("nan")
        code, fit_path, out = self._eval_one(tmp_path, structure, poison)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {fit_path}: ")
        assert "finite" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("document, found", [
        ("fit", "wrong JSON type: 'int' object is not subscriptable"),
        ("truth", "{truths}: wrong JSON type: 'int' object is not iterable"),
    ], ids=["fit", "truth"])
    def test_wrong_json_type_exits_2(self, document, found, tmp_path, capsys):
        def edit(doc):
            doc["params"]["raw"] = 4

        def edit_truth(doc):
            doc["intercepts"] = 5
        code, fit_path, out = self._eval_one(
            tmp_path, **({"edit": edit} if document == "fit" else {"edit_truth": edit_truth}))
        err = capsys.readouterr().err
        assert code == 2
        truth_path = tmp_path / "truths" / "truth_rep000.json"
        assert err == f"error: {fit_path}: {found.format(truths=truth_path)}\n"
        assert not out.exists()

    def test_singular_factor_corr_exits_2(self, tmp_path, capsys):
        def collapse(doc):
            # the second Cholesky row (5, softplus(-700) ~ 1e-304) normalizes
            # to (1, 2e-305), so the factor correlation rounds to all ones
            doc["params"]["raw"]["chol_raw"] = [[0.0, 0.0], [5.0, -700.0]]
        code, fit_path, out = self._eval_one(tmp_path, edit=collapse)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {fit_path}: ")
        assert "positive definite" in err
        assert not out.exists()

    def _write_fits(self, fits, truth_values, mask, shifts):
        fits.mkdir()
        for rep, shift in enumerate(shifts):
            values = GrmValues(loadings=truth_values.loadings,
                               intercepts=[a + shift for a in truth_values.intercepts],
                               factor_corr=truth_values.factor_corr)
            doc = self._fake_fit_doc(values, mask, np.full(values.n_items, 3))
            (fits / f"fit_rep{rep:03d}.json").write_text(json.dumps(doc))

    @pytest.mark.parametrize("structures", [("exploratory", "simple"),
                                            ("simple", "exploratory")])
    def test_mixed_loading_structures_exit_2(self, structures, tmp_path, capsys):
        """Rotated and unrotated estimates do not average: eval names the
        first fit whose structure differs from the first fit's."""
        truth = simulate(SimDesign(n_items=12, n_factors=2, categories=3, seed=5))
        fits, truths = tmp_path / "fits", tmp_path / "truths"
        fits.mkdir()
        truths.mkdir()
        for rep, structure in enumerate(structures + structures[1:]):
            doc = self._fake_fit_doc(truth.values, truth.loading_mask,
                                     truth.responses.categories, structure=structure)
            (fits / f"fit_rep{rep:03d}.json").write_text(json.dumps(doc))
            write_truth_json(truths / f"truth_rep{rep:03d}.json", truth)
        out = tmp_path / "report.json"
        code = main(["eval", "--fits", str(fits), "--truths", str(truths), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: {fits / 'fit_rep001.json'}: loading structure {structures[1]!r} differs "
            f"from {structures[0]!r} of {fits / 'fit_rep000.json'}")
        assert not out.exists()

    def test_replications_share_one_truth(self, tmp_path):
        design = tmp_path / "design.json"
        write_design(design, n_replications=2)
        sims = tmp_path / "sims"
        assert main(["simulate", "--design", str(design), "--out", str(sims)]) == 0
        (v0, mask), (v1, _) = (read_truth_json(sims / f"truth_rep{r:03d}.json") for r in (0, 1))
        np.testing.assert_array_equal(v0.loadings, v1.loadings)
        np.testing.assert_array_equal(v0.factor_corr, v1.factor_corr)
        for a, b in zip(v0.intercepts, v1.intercepts, strict=True):
            np.testing.assert_array_equal(a, b)
        assert ((sims / "responses_rep000.csv").read_bytes()
                != (sims / "responses_rep001.csv").read_bytes())
        # replication 1 is off by 0.2 in every intercept, replication 0 exact
        self._write_fits(tmp_path / "fits", v0, mask, [0.0, 0.2])
        out = tmp_path / "report.json"
        assert main(["eval", "--fits", str(tmp_path / "fits"), "--truths", str(sims),
                     "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["n_replications"] == 2
        assert rep["blocks"]["intercepts"]["bias"] == pytest.approx(0.1, abs=1e-9)
        assert rep["blocks"]["intercepts"]["mse"] == pytest.approx(0.02, abs=1e-9)
        assert rep["blocks"]["loadings"]["mse"] < 1e-12

    def test_mismatched_truths_exit_2(self, dataset, tmp_path, capsys):
        _, truth = dataset
        other = simulate(SimDesign(n_respondents=60, n_items=6, n_factors=2,
                                   categories=3, structure="simple", seed=6))
        truths = tmp_path / "truths"
        truths.mkdir()
        write_truth_json(truths / "truth_rep000.json", truth)
        write_truth_json(truths / "truth_rep001.json", other)
        self._write_fits(tmp_path / "fits", truth.values, truth.loading_mask, [0.0, 0.0])
        code = main(["eval", "--fits", str(tmp_path / "fits"), "--truths", str(truths),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "share one truth" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_shape_mismatch_exits_2(self, dataset, tmp_path):
        _, truth = dataset
        other = simulate(SimDesign(n_respondents=10, n_items=4, n_factors=2,
                                   categories=3, structure="simple", seed=1))
        fits = tmp_path / "fits"
        truths = tmp_path / "truths"
        fits.mkdir()
        truths.mkdir()
        doc = self._fake_fit_doc(other.values, other.loading_mask,
                                 other.responses.categories)
        (fits / "fit_rep000.json").write_text(json.dumps(doc))
        from gradedvi.simlab import write_truth_json
        write_truth_json(truths / "truth_rep000.json", truth)
        code = main(["eval", "--fits", str(fits), "--truths", str(truths),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2

    def test_category_count_mismatch_exits_2(self, tmp_path, capsys):
        """fit counts each item's categories from its responses, so a
        replication that never reaches an item's top category gets fewer
        intercepts than the truth; eval must name the fit, the item and
        both counts instead of failing inside mse_bias."""
        design = tmp_path / "design.json"
        design.write_text(json.dumps({"n_respondents": 12, "n_items": 6, "n_factors": 1,
                                      "categories": 5, "seed": 3, "n_replications": 2}))
        sims = tmp_path / "sims"
        assert main(["simulate", "--design", str(design), "--out", str(sims)]) == 0
        assert read_responses_csv(sims / "responses_rep000.csv").data[:, 5].max() == 2
        cfg = tmp_path / "vae.json"
        write_config(cfg, estimator="VAE", n_factors=1, R=1, batch_size=12, max_iterations=5,
                     window=5)
        for rep in range(2):
            assert main(["fit", "--config", str(cfg),
                         "--responses", str(sims / f"responses_rep{rep:03d}.csv"),
                         "--out", str(tmp_path / "fits" / f"rep{rep:03d}")]) == 0
        capsys.readouterr()
        code = main(["eval", "--fits", str(tmp_path / "fits"), "--truths", str(sims),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "rep000/fit.json: item 6 has 3 categories in the fit but 5 in" in err
        assert not (tmp_path / "r.json").exists()


@pytest.fixture(scope="module")
def big_fit(tmp_path_factory):
    root = tmp_path_factory.mktemp("big")
    truth = simulate(SimDesign(n_respondents=500, n_items=8, n_factors=1,
                               categories=3, structure="none", seed=6))
    resp_path = root / "responses.csv"
    write_responses_csv(resp_path, truth.responses)
    cfg = root / "config.json"
    cfg.write_text(json.dumps({"estimator": "IWAE", "n_factors": 1, "R": 2,
                               "batch_size": 100, "max_iterations": 5,
                               "window": 5, "patience": 2,
                               "encoder_hidden": [8], "seed": 11}))
    out = root / "fit"
    assert main(["fit", "--config", str(cfg), "--responses", str(resp_path),
                 "--out", str(out)]) == 0
    return resp_path, out / "fit.json"


class TestHeldout:
    def test_quarter_fraction_gives_125_of_500(self, big_fit, tmp_path, capsys):
        resp_path, fit_path = big_fit
        out = tmp_path / "heldout.json"
        assert main(["heldout", "--fit", str(fit_path), "--responses", str(resp_path),
                     "--fraction", "0.25", "--r-eval", "8", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["n_holdout"] == 125
        assert len(doc["holdout_ids"]) == 125
        assert 1.0 - 1e-9 <= doc["ess_min"] <= doc["ess_median"] <= 8.0 + 1e-9

    def test_r_eval_one_flagged_high_variance(self, big_fit, tmp_path):
        resp_path, fit_path = big_fit
        out = tmp_path / "heldout.json"
        assert main(["heldout", "--fit", str(fit_path), "--responses", str(resp_path),
                     "--fraction", "0.25", "--r-eval", "1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["high_variance"]

    def test_iwavb_r_eval_one_exits_2(self, dataset, tmp_path, capsys):
        """Adaptive contrast standardises each respondent's draws by their
        own moments, so a single draw per respondent is an input error, not
        a numerical failure."""
        resp_path, _ = dataset
        cfg = tmp_path / "config.json"
        write_config(cfg, estimator="IWAVB", max_iterations=5)
        fit_dir = tmp_path / "fit"
        assert main(["fit", "--config", str(cfg), "--responses", str(resp_path),
                     "--out", str(fit_dir)]) == 0
        capsys.readouterr()
        out = tmp_path / "heldout.json"
        code = main(["heldout", "--fit", str(fit_dir / "fit.json"), "--responses",
                     str(resp_path), "--fraction", "0.25", "--r-eval", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: R_eval = 1: adaptive contrast") and "Traceback" not in err
        assert not out.exists()

    def test_same_seed_shares_split(self, big_fit, tmp_path):
        resp_path, fit_path = big_fit
        out1, out2 = tmp_path / "h1.json", tmp_path / "h2.json"
        main(["heldout", "--fit", str(fit_path), "--responses", str(resp_path),
              "--fraction", "0.25", "--r-eval", "4", "--out", str(out1)])
        main(["heldout", "--fit", str(fit_path), "--responses", str(resp_path),
              "--fraction", "0.25", "--r-eval", "16", "--out", str(out2)])
        a = json.loads(out1.read_text())["holdout_ids"]
        b = json.loads(out2.read_text())["holdout_ids"]
        assert a == b

    @pytest.mark.parametrize("cls", NUMERICAL_FAILURES, ids=lambda c: c.__name__)
    def test_numerical_failure_exits_3(self, cls, big_fit, monkeypatch, capsys):
        resp_path, fit_path = big_fit
        monkeypatch.setattr(cli, "heldout_loglik", _raise(cls))
        code = main(["heldout", "--fit", str(fit_path), "--responses", str(resp_path),
                     "--fraction", "0.25", "--r-eval", "4"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: numerical failure: injected")
        assert "Traceback" not in err

    def test_bad_fraction_exits_2(self, big_fit, tmp_path, capsys):
        resp_path, fit_path = big_fit
        code = main(["heldout", "--fit", str(fit_path), "--responses", str(resp_path),
                     "--fraction", "1.5", "--r-eval", "4"])
        assert code == 2
        assert capsys.readouterr().err == ("error: holdout fraction must be in (0, 1), "
                                           "got 1.5\n")

    @pytest.mark.parametrize("estimator, edits, found", [
        ("iwavb", {"networks.discriminator": None},
         "encoder kind 'blackbox' and no discriminator for IWAVB"),
        ("iwae", {"networks.encoder": None}, "encoder kind None and no discriminator for IWAE"),
        ("iwae", {"networks.encoder": _NetworkOf("iwavb")},
         "encoder kind 'blackbox' and no discriminator for IWAE"),
        ("iwavb", {"networks.encoder": _NetworkOf("iwae")},
         "encoder kind 'gaussian' and a discriminator for IWAVB"),
        ("iwae", {"networks.discriminator": _NetworkOf("iwavb")},
         "encoder kind 'gaussian' and a discriminator for IWAE"),
        ("iwae", {"networks.encoder": {"kind": "flow"}},
         "encoder kind 'flow' and no discriminator for IWAE"),
        ("iwavb", {"networks.discriminator": 5},
         "wrong JSON type: 'int' object is not subscriptable"),
        ("iwavb", {"networks.encoder.net.layers": 7},
         "wrong JSON type: 'int' object is not iterable"),
        ("iwavb", {"networks.discriminator.net.layers.0": "layer"},
         "wrong JSON type: string indices must be integers"
         + (", not 'str'" if sys.version_info >= (3, 11) else "")),
        ("iwavb", {"params": []}, "wrong JSON type: list indices must be integers or "
                                  "slices, not str"),
        ("iwavb", {"config": 3}, "wrong JSON type: 'int' object is not iterable"),
    ], ids=["iwavb-null-disc", "iwae-null-encoder", "iwae-blackbox-encoder",
            "iwavb-gaussian-encoder", "iwae-with-disc", "unknown-kind", "number-disc",
            "number-layers", "string-layer", "list-params", "number-config"])
    def test_networks_that_are_not_the_estimators_exit_2(self, estimator, edits, found,
                                                         tmp_path, capsys):
        # copies of an older fit file whose networks do not match its estimator,
        # or whose values have the wrong JSON type; each edit sets a dotted path
        doc = json.loads((PARENT_FIT / f"fit_{estimator}.json").read_text())
        for path, value in edits.items():
            *parents, last = (int(k) if k.isdigit() else k for k in path.split("."))
            if isinstance(value, _NetworkOf):
                value = json.loads((PARENT_FIT / f"fit_{value.estimator}.json").read_text())[
                    "networks"][last]
            target = doc
            for key in parents:
                target = target[key]
            target[last] = value
        bad = tmp_path / "fit.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "heldout.json"
        code = main(["heldout", "--fit", str(bad), "--responses",
                     str(PARENT_FIT / "responses.csv"), "--r-eval", "4", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: malformed fit file {bad}: {found}\n"
        assert not out.exists()

    @pytest.mark.parametrize("ids, flags, message", [
        ("-1 -2", [], "id -1 outside 0..499"),
        ("3 500", [], "id 500 outside 0..499"),
        ("", [], "lists no ids"),
        ("4 7 4", [], "repeats an id"),
        ("1 x", [], "bad ids file"),
        (None, ["--fraction", "0.001"], "holds out no one"),
        (None, ["--fraction", "0.25", "--r-eval", "0"], "r-eval must be >= 1"),
        ("0 1", ["--r-eval", "-3"], "r-eval must be >= 1"),
    ], ids=["negative", "past-end", "empty", "duplicate", "not-int", "empty-split",
            "r-eval-zero", "r-eval-negative"])
    def test_bad_holdout_input_exits_2(self, ids, flags, message, big_fit, tmp_path,
                                       capsys):
        resp_path, fit_path = big_fit
        argv = ["heldout", "--fit", str(fit_path), "--responses", str(resp_path), *flags]
        if ids is not None:
            (tmp_path / "ids.txt").write_text(ids)
            argv += ["--ids", str(tmp_path / "ids.txt")]
        out = tmp_path / "heldout.json"
        code = main(argv + ["--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_ids_file_selects_those_respondents(self, big_fit, tmp_path):
        resp_path, fit_path = big_fit
        (tmp_path / "ids.txt").write_text("499 0\n17")
        out = tmp_path / "heldout.json"
        assert main(["heldout", "--fit", str(fit_path), "--responses", str(resp_path),
                     "--ids", str(tmp_path / "ids.txt"), "--r-eval", "4",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["holdout_ids"] == [499, 0, 17]

    @CONTRAST_MISMATCHES
    def test_invalid_stored_config_exits_2(self, mismatch, big_fit, tmp_path, capsys):
        resp_path, fit_path = big_fit
        doc = json.loads(fit_path.read_text())
        doc["config"].update(mismatch)
        bad = tmp_path / "fit.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="adaptive_contrast"):
            cli.load_fit_bundle(bad)
        out = tmp_path / "heldout.json"
        code = main(["heldout", "--fit", str(bad), "--responses", str(resp_path),
                     "--r-eval", "4", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: adaptive_contrast: ") and "only IWAVB" in err
        assert not out.exists()


class TestScree:
    def test_two_factor_list_gives_two_rows(self, dataset, tmp_path):
        resp_path, _ = dataset
        cfg = tmp_path / "config.json"
        write_config(cfg, max_iterations=20, r_eval=8, holdout_fraction=0.25)
        out = tmp_path / "scree"
        assert main(["scree", "--responses", str(resp_path), "--config", str(cfg),
                     "--factors", "1,2", "--out", str(out)]) == 0
        lines = (out / "scree.csv").read_text().splitlines()
        assert lines[0] == "P,heldout_loglik"
        assert len(lines) == 3
        assert [int(l.split(",")[0]) for l in lines[1:]] == [1, 2]
        assert (out / "manifest.json").exists()

    def test_empty_factor_list_exits_2(self, dataset, tmp_path):
        resp_path, _ = dataset
        cfg = tmp_path / "config.json"
        write_config(cfg)
        assert main(["scree", "--responses", str(resp_path), "--config", str(cfg),
                     "--factors", "", "--out", str(tmp_path / "s")]) == 2

    def _scree_exits_2_before_any_fit(self, resp_path, tmp_path, capsys, factors, message,
                                      **config):
        cfg = tmp_path / "config.json"
        write_config(cfg, **config)
        out = tmp_path / "s"
        code = main(["scree", "--responses", str(resp_path), "--config", str(cfg),
                     "--factors", factors, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    @CONTRAST_MISMATCHES
    def test_contrast_mismatch_exits_2(self, mismatch, dataset, tmp_path, capsys):
        self._scree_exits_2_before_any_fit(dataset[0], tmp_path, capsys, "1,2",
                                           "adaptive_contrast", **mismatch)

    @pytest.mark.parametrize("factors, message", [
        ("0", "n_factors"), ("1,0", "n_factors"), ("1,1", "repeats"),
    ], ids=["zero", "zero-after-one", "repeated"])
    def test_bad_factor_list_exits_2(self, factors, message, dataset, tmp_path, capsys):
        self._scree_exits_2_before_any_fit(dataset[0], tmp_path, capsys, factors, message)

    def test_simple_structure_needs_p_dividing_m_exits_2(self, dataset, tmp_path, capsys):
        # the dataset has 6 items: P=2 divides them, P=4 does not
        self._scree_exits_2_before_any_fit(dataset[0], tmp_path, capsys, "2,4", "P | M",
                                           loading_structure="simple")

    def test_iwavb_r_eval_one_exits_2(self, dataset, tmp_path, capsys):
        # adaptive contrast needs two draws per respondent to standardise them
        self._scree_exits_2_before_any_fit(dataset[0], tmp_path, capsys, "1,2",
                                           "R_eval >= 2", estimator="IWAVB", r_eval=1)

    def test_two_workers_write_the_serial_bytes(self, dataset, tmp_path):
        resp_path, _ = dataset
        cfg = tmp_path / "config.json"
        write_config(cfg, max_iterations=20, r_eval=8)
        found = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert main(["scree", "--responses", str(resp_path), "--config", str(cfg),
                         "--factors", "2,1", "--out", str(out), "--jobs", jobs]) == 0
            found.append((out / "scree.csv").read_bytes())
        assert found[0] == found[1]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("blocked, code", [(["P2"], 0), (["P1", "P2"], 3)],
                             ids=["one-fails", "all-fail"])
    def test_failed_factor_count_is_skipped(self, blocked, code, jobs, dataset, tmp_path,
                                            capsys):
        # a file where a factor count's fit directory goes makes its write
        # fail with an OSError, in this process or in a worker
        resp_path, _ = dataset
        cfg = tmp_path / "config.json"
        write_config(cfg, max_iterations=20, r_eval=8)
        out = tmp_path / "s"
        out.mkdir()
        for name in blocked:
            (out / name).write_text("")
        assert main(["scree", "--responses", str(resp_path), "--config", str(cfg),
                     "--factors", "1,2", "--out", str(out), "--jobs", jobs]) == code
        err = capsys.readouterr().err
        assert [line.split(" failed:")[0] for line in err.splitlines()
                if line.startswith("warning:")] == [f"warning: P={n[1:]}" for n in blocked]
        assert "Traceback" not in err
        if code:
            assert "error: none of the 2 fits succeeded" in err
            assert not (out / "scree.csv").exists()
        else:
            lines = (out / "scree.csv").read_text().splitlines()
            assert len(lines) == 2 and lines[1].startswith("1,")

    def test_no_successful_fit_exits_3(self, dataset, tmp_path, monkeypatch, capsys):
        resp_path, _ = dataset
        cfg = tmp_path / "config.json"
        write_config(cfg)
        monkeypatch.setattr(cli, "fit", _raise(NumericalError))
        code = main(["scree", "--responses", str(resp_path), "--config", str(cfg),
                     "--factors", "1,2", "--out", str(tmp_path / "s")])
        err = capsys.readouterr().err
        assert code == 3
        assert "error: none of the 2 fits succeeded" in err
        assert not (tmp_path / "s" / "scree.csv").exists()


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """design.json, config.json, one simulated replication in sims/ and its
    fit in fits/rep000/."""
    root = tmp_path_factory.mktemp("pipeline")
    write_design(root / "design.json")
    write_config(root / "config.json", max_iterations=10, r_eval=8)
    assert main(["simulate", "--design", str(root / "design.json"),
                 "--out", str(root / "sims")]) == 0
    assert main(["fit", "--config", str(root / "config.json"),
                 "--responses", str(root / "sims" / "responses_rep000.csv"),
                 "--out", str(root / "fits" / "rep000")]) == 0
    return root


def _argv_without_out(command: str, root: Path) -> list[str]:
    responses = str(root / "sims" / "responses_rep000.csv")
    return {
        "simulate": ["simulate", "--design", str(root / "design.json")],
        "fit": ["fit", "--config", str(root / "config.json"), "--responses", responses],
        "eval": ["eval", "--fits", str(root / "fits"), "--truths", str(root / "sims")],
        "heldout": ["heldout", "--fit", str(root / "fits" / "rep000" / "fit.json"),
                    "--responses", responses, "--r-eval", "4"],
        "scree": ["scree", "--responses", responses, "--config", str(root / "config.json"),
                  "--factors", "1"],
    }[command]


class TestExitCodes:
    @pytest.mark.parametrize("command", ["simulate", "fit", "eval", "heldout", "scree"])
    def test_unwritable_out_exits_2(self, command, pipeline, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")  # a file where the output needs a directory
        code = main(_argv_without_out(command, pipeline) + ["--out", str(blocker / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and str(blocker) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, flag", [
        ("simulate", "--design"), ("fit", "--config"), ("heldout", "--fit"),
        ("scree", "--config"),
    ])
    def test_json_that_is_not_an_object_exits_2(self, command, flag, pipeline, tmp_path,
                                                capsys):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        argv = _argv_without_out(command, pipeline)
        argv[argv.index(flag) + 1] = str(bad)
        code = main(argv + ["--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{bad} holds a JSON list, not an object" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["simulate", "scree"])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2(self, command, jobs, pipeline, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(_argv_without_out(command, pipeline) + ["--out", str(out), "--jobs", jobs])
        assert exc.value.code == 2
        assert f"--jobs: must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    def test_heldout_malformed_fit_names_the_file(self, pipeline, tmp_path, capsys):
        doc = json.loads((pipeline / "fits" / "rep000" / "fit.json").read_text())
        del doc["params"]
        bad = tmp_path / "fit.json"
        bad.write_text(json.dumps(doc))
        code = main(["heldout", "--fit", str(bad), "--responses",
                     str(pipeline / "sims" / "responses_rep000.csv"), "--r-eval", "4"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: malformed fit file {bad}: no key 'params'")

    @pytest.mark.parametrize("edit, message", [
        (lambda data: np.hstack([data, data[:, :2]]), "has 10 items, the fit 8"),
        (lambda data: np.where(np.arange(8) == 2, np.maximum(data, 4), data),
         "item 3 has 5 categories in"),
    ], ids=["more-items", "unknown-category"])
    def test_heldout_responses_that_do_not_match_the_fit_exit_2(self, edit, message, big_fit,
                                                                 tmp_path, capsys):
        resp_path, fit_path = big_fit
        data = edit(read_responses_csv(resp_path).data)
        bad = tmp_path / "responses.csv"
        write_responses_csv(bad, ResponseMatrix(data, data.max(axis=0) + 1))
        code = main(["heldout", "--fit", str(fit_path), "--responses", str(bad),
                     "--r-eval", "4"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err


@pytest.fixture(scope="module")
def one_blank_cell(tmp_path_factory):
    """A 60 x 8 responses file with one blank cell, and an IWAE fit to all of
    it, whose networks therefore take the 16-wide missingness features."""
    root = tmp_path_factory.mktemp("blank")
    data = simulate(SimDesign(n_respondents=60, n_items=8, n_factors=1, categories=3,
                              structure="none", seed=9)).responses.data.copy()
    data[0, 0] = MISSING
    resp_path = root / "responses.csv"
    write_responses_csv(resp_path, ResponseMatrix(data, 3))
    cfg = root / "config.json"
    write_config(cfg, n_factors=1, max_iterations=10, r_eval=8)
    out = root / "fit"
    assert main(["fit", "--config", str(cfg), "--responses", str(resp_path),
                 "--out", str(out)]) == 0
    assert json.loads((out / "fit.json").read_text())["networks"]["feature_missing_block"]
    return resp_path, cfg, out / "fit.json"


class TestMissingIndicatorWidth:
    """The missingness indicator block follows the fit's networks, not the
    rows being scored."""

    def test_heldout_on_complete_rows_of_a_fit_with_missingness(self, one_blank_cell,
                                                                tmp_path):
        resp_path, _, fit_path = one_blank_cell
        (tmp_path / "ids.txt").write_text("1 2 3")
        out = tmp_path / "heldout.json"
        assert main(["heldout", "--fit", str(fit_path), "--responses", str(resp_path),
                     "--ids", str(tmp_path / "ids.txt"), "--r-eval", "4",
                     "--out", str(out)]) == 0
        assert np.isfinite(json.loads(out.read_text())["total_loglik"])

    def test_scree_with_missingness_on_one_side_of_the_split(self, one_blank_cell,
                                                            tmp_path, capsys):
        resp_path, cfg, _ = one_blank_cell
        out = tmp_path / "scree"
        assert main(["scree", "--responses", str(resp_path), "--config", str(cfg),
                     "--factors", "1,2", "--out", str(out)]) == 0
        assert "warning" not in capsys.readouterr().err
        assert len((out / "scree.csv").read_text().splitlines()) == 3


# Imports the CLI, runs `cli.main` on each (name, argv) of argv[1] in turn and
# prints, as its last line, whether scipy.optimize was loaded after the
# import, and each command's exit code and whether it was loaded after it.
_IMPORT_FLOOR_CHILD = """
import json, sys
from gradedvi import cli
loaded = {"import": "scipy.optimize" in sys.modules}
for name, argv in json.loads(sys.argv[1]):
    loaded[name] = [cli.main(argv), "scipy.optimize" in sys.modules]
print(json.dumps(loaded))
"""


def test_only_eval_loads_scipy_optimize(tmp_path):
    """scipy.optimize (about 16 MB resident) stays out of a process until an
    exploratory P=2 eval matches columns.  A fresh interpreter runs the
    commands, since this one has loaded the module already."""
    write_design(tmp_path / "design.json")
    write_config(tmp_path / "config.json", max_iterations=10, r_eval=8)
    sims, fit_dir = tmp_path / "sims", tmp_path / "fits" / "rep000"
    responses = str(sims / "responses_rep000.csv")
    commands = [
        ("simulate", ["simulate", "--design", str(tmp_path / "design.json"),
                      "--out", str(sims)]),
        ("fit", ["fit", "--config", str(tmp_path / "config.json"), "--responses", responses,
                 "--out", str(fit_dir)]),
        ("heldout", ["heldout", "--fit", str(fit_dir / "fit.json"), "--responses", responses,
                     "--r-eval", "4", "--out", str(tmp_path / "heldout.json")]),
        ("eval", ["eval", "--fits", str(tmp_path / "fits"), "--truths", str(sims),
                  "--out", str(tmp_path / "eval.json")]),
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _IMPORT_FLOOR_CHILD, json.dumps(commands)],
                          env=env, capture_output=True, text=True, timeout=300, check=True)
    assert json.loads(done.stdout.splitlines()[-1]) == {
        "import": False, "simulate": [0, False], "fit": [0, False],
        "heldout": [0, False], "eval": [0, True]}
    assert json.loads((tmp_path / "eval.json").read_text())["aligned"] is True


# The `gradedvi` console command: `[project.scripts]` runs gradedvi.main
_CONSOLE_CHILD = "import sys; from gradedvi import main; sys.exit(main())"


def test_console_fit_bytes_do_not_depend_on_blas_threads(tmp_path):
    """The console command pins BLAS to one thread before numpy loads, so a
    seeded P=5 VAE fit writes the same fit.json with OPENBLAS_NUM_THREADS
    unset as set to 1.  Unpinned, on two CPUs, the encoder's weight
    gradients (100 x 100, over 128 rows) ran on BLAS threads, and the two
    digests differed."""
    write_design(tmp_path / "design.json", n_respondents=128, n_items=20, n_factors=5,
                 categories=5, seed=11)
    write_config(tmp_path / "config.json", estimator="VAE", n_factors=5, R=1, batch_size=128,
                 max_iterations=2, encoder_hidden=[100, 100], seed=11)
    assert main(["simulate", "--design", str(tmp_path / "design.json"),
                 "--out", str(tmp_path / "sims")]) == 0
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    env["PYTHONPATH"] = src
    digests, manifests = [], []
    for name, extra in (("unset", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
        out = tmp_path / name
        subprocess.run([sys.executable, "-c", _CONSOLE_CHILD, "fit",
                        "--config", str(tmp_path / "config.json"),
                        "--responses", str(tmp_path / "sims" / "responses_rep000.csv"),
                        "--out", str(out)],
                       env={**env, **extra}, capture_output=True, text=True, timeout=300,
                       check=True)
        digests.append(hashlib.sha256((out / "fit.json").read_bytes()).hexdigest())
        manifests.append(json.loads((out / "manifest.json").read_text()))
    assert digests[0] == digests[1]
    assert [m["environment"]["blas_threads"] for m in manifests] == [1, 1]


def test_importing_the_cli_leaves_the_blas_variables_alone():
    code = ("import json, os, gradedvi.cli; "
            "print(json.dumps([os.environ.get(k) for k in gradedvi.BLAS_THREAD_VARIABLES]))")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    done = subprocess.run([sys.executable, "-c", code], env={**env, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=300, check=True)
    assert json.loads(done.stdout) == [None, None, None]
