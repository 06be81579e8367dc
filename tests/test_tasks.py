import inspect
import warnings

import numpy as np
import pytest

from apobench import numkit, tasks
from apobench.diffnet import ParamSet, check_dataset, forward, init_params
from apobench.errors import ConfigError, ContractError, IngestionError

from helpers import write_dataset_csv


def test_illcond_condition_number_exact():
    task = tasks.illcond_linear_task(d=16, kappa=1e10, seed=1)
    s = np.linalg.svd(task.extras["a"], compute_uv=False)
    measured = s.max() / s.min()
    assert abs(measured - 1e10) / 1e10 < 0.01


def test_illcond_perfect_conditioning_realizable():
    task = tasks.illcond_linear_task(d=6, kappa=1.0, seed=2)
    a = task.extras["a"]
    # kappa = 1 makes A orthogonal
    assert np.abs(a.T @ a - np.eye(6)).max() < 1e-10
    # the factorized solution W1 W2 = A^T zeroes the population loss
    theta = ParamSet.from_layers([(a.T.copy(), None), (np.eye(6), None)])
    assert task.eval_loss(theta) < 1e-24


def test_illcond_population_loss_matches_batch_estimate():
    task = tasks.illcond_linear_task(d=8, kappa=100.0, seed=3, batch_size=4096)
    theta = task.init_theta(numkit.make_rng(4))
    batch = task.sample_batch(numkit.make_rng(5))
    outputs, _ = forward(task.model, theta, batch.inputs)
    from apobench.diffnet import loss_eval
    empirical = loss_eval(task.model.head, outputs, batch.targets)
    exact = task.eval_loss(theta)
    assert abs(empirical - exact) / exact < 0.2


def test_synth_regression_standardization():
    task = tasks.synth_regression_task(n=256, d=5, noise=0.3, seed=6)
    batch = task.sample_batch(numkit.make_rng(0))
    assert batch.inputs.shape == (32, 5)
    big = tasks.synth_regression_task(n=256, d=5, noise=0.3, seed=6,
                                      batch_size=256).sample_batch(numkit.make_rng(1))
    assert np.abs(big.inputs.mean(axis=0)).max() < 1e-10
    assert np.abs(big.inputs.std(axis=0) - 1.0).max() < 1e-8
    assert abs(float(big.targets.mean())) < 1e-10
    assert abs(float(big.targets.std()) - 1.0) < 1e-8


def test_synth_regression_overflowing_noise_fails_at_build():
    """noise 1e308 overflows the targets to inf and standardizing them to
    nan; the task refuses them when built instead of diverging at step 1."""
    with np.errstate(all="ignore"), pytest.raises(ContractError, match="non-finite"):
        tasks.synth_regression_task(noise=1e308)


def test_synth_regression_noise_free_is_realizable():
    """The standardizations are affine, so a student with the teacher's
    architecture absorbs them into its first/last layers exactly."""
    task = tasks.synth_regression_task(n=128, d=4, noise=0.0, seed=7, batch_size=16)
    w1, w2 = task.extras["teacher_theta"].weights
    b1, b2 = task.extras["teacher_theta"].biases
    mx, sx = task.extras["feature_affine"]
    t_mean, t_std = task.extras["target_affine"]
    student = ParamSet.from_layers([(sx[:, None] * w1, mx @ w1 + b1),
                                    (w2 / t_std, (b2 - t_mean) / t_std)])
    assert task.eval_loss(student) < 1e-20


def test_synth_classification_linear_rule_accuracy():
    task = tasks.synth_classification_task(n=512, d=2, classes=2, seed=8,
                                           separation=3.0, batch_size=512)
    batch = task.sample_batch(numkit.make_rng(0))
    means = task.extras["means"]
    cov_scale = task.extras["cov_scale"]  # per-feature 1/sigma after standardizing
    # Bayes rule for equal isotropic raw covariance: linear in x
    sigma_inv = np.diag(1.0 / cov_scale ** 2)
    w = np.linalg.solve(sigma_inv, means[1] - means[0])
    mid = 0.5 * (means[0] + means[1])
    pred = ((batch.inputs - mid) @ w > 0).astype(int)
    acc = float((pred == np.asarray(batch.targets)).mean())
    assert acc > 0.95


def test_synth_classification_standardized():
    task = tasks.synth_classification_task(n=300, d=4, classes=3, seed=9,
                                           batch_size=300)
    batch = task.sample_batch(numkit.make_rng(0))
    assert np.abs(batch.inputs.mean(axis=0)).max() < 1e-10
    assert np.abs(batch.inputs.std(axis=0) - 1.0).max() < 1e-8
    assert set(np.unique(batch.targets)) <= {0, 1, 2}


def test_autoencoder_zero_weights_closed_form():
    task = tasks.bottleneck_autoencoder_task(n=64, seed=10)
    theta = init_params(task.model, numkit.make_rng(0)).map(np.zeros_like)
    out, _ = forward(task.model, theta, np.zeros((1, 16)))
    assert np.abs(out - 0.5).max() < 1e-15
    from apobench.diffnet import loss_eval
    # reconstructing the zero input through zero weights: 16 * 0.25
    assert loss_eval(task.model.head, out, np.zeros((1, 16))) == pytest.approx(4.0)


def test_autoencoder_data_full_rank():
    task = tasks.bottleneck_autoencoder_task(n=256, seed=11, batch_size=256)
    batch = task.sample_batch(numkit.make_rng(0))
    x = batch.inputs - batch.inputs.mean(axis=0)
    evals = np.linalg.eigvalsh(x.T @ x / x.shape[0])[::-1]
    residual = evals[2:].sum()  # variance unexplained by the best 2 components
    assert residual > 0.05 * evals.sum()
    assert task.extras["latent_dim"] == 2


def test_autoencoder_bottleneck_loss_floor():
    """A 2-unit bottleneck cannot reconstruct full-rank 16-dim data; after a
    short training run the loss stays bounded away from zero, at the scale of
    the rank-2 PCA residual."""
    from apobench.apo import ProximalConfig, apo_train
    from apobench.baseopt import BaseOptKind
    task = tasks.bottleneck_autoencoder_task(n=128, seed=12, batch_size=32)
    full = tasks.bottleneck_autoencoder_task(n=128, seed=12, batch_size=128)
    batch = full.sample_batch(numkit.make_rng(0))
    x = batch.inputs - batch.inputs.mean(axis=0)
    evals = np.linalg.eigvalsh(x.T @ x / x.shape[0])[::-1]
    pca_residual = evals[2:].sum()  # best linear rank-2 reconstruction error
    theta0 = task.init_theta(numkit.make_rng(1))
    rows = []
    apo_train(task, theta0, ProximalConfig(), 400, numkit.make_rng(2), rows.append,
              mode="none", base_kind=BaseOptKind("adam"), init_lr=3e-3, eval_every=400)
    final = rows[-1].eval_loss
    assert final >= 0.25 * pca_residual
    assert final >= 0.0


def test_sampler_determinism():
    for build in (lambda: tasks.synth_regression_task(n=64, d=3, seed=13),
                  lambda: tasks.synth_classification_task(n=64, d=3, seed=13),
                  lambda: tasks.illcond_linear_task(d=4, seed=13, batch_size=8)):
        t1, t2 = build(), build()
        b1 = t1.sample_batch(numkit.make_rng(99))
        b2 = t2.sample_batch(numkit.make_rng(99))
        assert np.array_equal(b1.inputs, b2.inputs)
        assert np.array_equal(b1.targets, b2.targets)


def test_batch_larger_than_dataset_rejected():
    """The rows are known only once the task is built; the error names the
    batch size the config set."""
    with pytest.raises(ConfigError, match="batch_size 32 exceeds the task's 16 rows") as err:
        tasks.synth_regression_task(n=16, d=2, batch_size=32)
    assert str(err.value).startswith("/task/batch_size: ")


def test_uci_two_row_standardization(tmp_path):
    p = tmp_path / "tiny.csv"
    p.write_text("1,2\n3,4\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no constant column
        features, targets = tasks.uci_csv_load(p)
    assert np.allclose(features, [[-1.0], [1.0]])
    assert np.allclose(targets, [[-1.0], [1.0]])


def test_uci_header_detection(tmp_path):
    p = tmp_path / "with_header.csv"
    p.write_text("alpha,beta,target\n1,2,3\n2,4,5\n3,6,7\n")
    features, targets = tasks.uci_csv_load(p)
    assert features.shape == (3, 2) and targets.shape == (3, 1)


def test_uci_constant_column_warns_and_zeroes(tmp_path):
    p = tmp_path / "const.csv"
    p.write_text("5,1,0\n5,2,1\n5,3,2\n")
    with pytest.warns(UserWarning, match=r"^constant columns \[0\] of .* standardized to zeros$"):
        features, targets = tasks.uci_csv_load(p)
    assert np.all(features[:, 0] == 0.0)


def test_uci_unparseable_cell_reports_position(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1,2,3\n4,oops,6\n")
    with pytest.raises(IngestionError) as err:
        tasks.uci_csv_load(p)
    assert str(err.value).startswith("cell (1, 1) ")


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_uci_non_finite_cell_reports_position(tmp_path, cell):
    p = tmp_path / "bad.csv"
    p.write_text(f"1,2,3\n4,5,6\n7,8,{cell}\n")
    with pytest.raises(IngestionError, match="is not a finite number") as err:
        tasks.uci_csv_load(p)
    assert str(err.value).startswith("cell (2, 2) ")


def test_uci_empty_file_rejected(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(ContractError):
        tasks.uci_csv_load(p)


def test_uci_reload_identical(tmp_path):
    p = tmp_path / "data.csv"
    rng = numkit.make_rng(14)
    write_dataset_csv(rng.standard_normal((10, 3)), rng.standard_normal(10), p)
    f1, t1 = tasks.uci_csv_load(p)
    f2, t2 = tasks.uci_csv_load(p)
    assert np.array_equal(f1, f2) and np.array_equal(t1, t2)


def test_save_then_load_roundtrip(tmp_path):
    p = tmp_path / "rt.csv"
    rng = numkit.make_rng(15)
    x = rng.standard_normal((20, 4))
    y = rng.standard_normal(20)
    write_dataset_csv(x, y, p)
    features, targets = tasks.uci_csv_load(p)
    assert features.shape == (20, 4) and targets.shape == (20, 1)
    # loading standardizes; undo it against the originals
    assert np.allclose(features * x.std(axis=0) + x.mean(axis=0), x)


def test_uci_task_trains(tmp_path):
    p = tmp_path / "train.csv"
    rng = numkit.make_rng(16)
    x = rng.standard_normal((64, 3))
    y = x @ np.array([1.0, -2.0, 0.5]) + 0.1 * rng.standard_normal(64)
    write_dataset_csv(x, y, p)
    task = tasks.uci_task(p, batch_size=16)
    assert task.extras["dataset"][0].shape == (64, 3)
    theta = task.init_theta(numkit.make_rng(0))
    assert np.isfinite(task.eval_loss(theta))


def test_task_params_name_every_builder_keyword():
    """TASK_PARAMS declares each builder keyword that a config sets; seed and
    batch_size come from the task object itself."""
    assert tuple(tasks.BUILDERS) == tasks.TASK_KINDS
    for kind, build in tasks.BUILDERS.items():
        keywords = set(inspect.signature(build).parameters) - {"seed", "batch_size"}
        assert set(tasks.TASK_PARAMS[kind]) == keywords, kind


def test_build_task_dispatch(tmp_path):
    p = tmp_path / "d.csv"
    write_dataset_csv(np.eye(4), np.arange(4.0), p)
    specs = [
        tasks.TaskSpec("illcond-linear", batch_size=4, params={"d": 4, "kappa": 10.0}),
        tasks.TaskSpec("synth-regression", batch_size=8, params={"n": 32}),
        tasks.TaskSpec("synth-classification", batch_size=8, params={"n": 32, "classes": 3}),
        tasks.TaskSpec("bottleneck-autoencoder", batch_size=8, params={"n": 32}),
        tasks.TaskSpec("uci-csv", batch_size=2, params={"path": str(p)}),
    ]
    for spec in specs:
        task = tasks.build_task(spec)
        batch = task.sample_batch(numkit.make_rng(0))
        assert len(batch.inputs) >= 1
        check_dataset(task.model, batch.inputs, batch.targets)
        assert np.isfinite(task.eval_loss(task.init_theta(numkit.make_rng(1))))


def test_uci_unreadable_path_is_ingestion_error(tmp_path):
    with pytest.raises(IngestionError):
        tasks.uci_csv_load(str(tmp_path))
