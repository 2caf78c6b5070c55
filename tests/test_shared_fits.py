"""Grid rows that select the same columns share one SVM fit.

Within a preprocessing group, SVM rows with the same n-gram spec, the same
number of selected columns (min(K, V) of the spec) and the same kernel and
solver settings train one model. These tests check that each such row still
gets what fitting it alone gives, that the grid trains once per fit key,
that warnings and errors stay per row, and that nothing the rows of a task
share outlives the task. Each runs in-process and on two worker processes
(runner._usable_cpus fixed to 1 and 2).
"""

import os
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

from urdufake import runner
from urdufake.corpus import generate_synthetic
from urdufake.runner import (
    ExperimentConfig,
    fit_pipeline,
    parse_config_file,
    render_results_tsv,
    run_grid,
    save_model,
)

from conftest import FAKE_POOL, REAL_POOL, run_alone

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = parse_config_file(ROOT / "configs" / "shared_task_grid.cfg")
#: Settings under which SMO stops before it converges on the corpus below.
UNCONVERGED = dict(svm_max_passes=1, svm_tol=1e-9, svm_gamma=100.0, svm_degree=2)


@pytest.fixture()
def train():
    return generate_synthetic(3, 20, (FAKE_POOL, REAL_POOL), (2, 3), split="train")


@pytest.fixture()
def test():
    return generate_synthetic(4, 8, (FAKE_POOL, REAL_POOL), (2, 3), split="test")


def clamped_grid() -> list[ExperimentConfig]:
    """The shipped grid, whose every K exceeds this corpus' features, plus
    a row of row 1's spec with another C (its own key), two rows of one
    spec at one K below V (one key) and a third at another K."""
    first = SHIPPED[0]
    return SHIPPED + [
        replace(first, name="w12_c23456_c2", svm_c=2.0),
        replace(first, name="w12_c23456_k40_a", k_best=40),
        replace(first, name="w12_c23456_k40_b", k_best=40),
        replace(first, name="w12_c23456_k41", k_best=41),
    ]


def fit_keys(configs, rows) -> set:
    """The distinct fit keys of a grid's rows, V taken from each row's
    v_total."""
    return {runner._fit_key(c, min(c.k_best, r.v_total)) for c, r in zip(configs, rows)}


def counting_train_svm(monkeypatch, log: Path) -> None:
    """Log one line per runner.train_svm call, from any process."""
    train_svm = runner.train_svm

    def spy(*args, **kwargs):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return train_svm(*args, **kwargs)

    monkeypatch.setattr(runner, "train_svm", spy)


def train_calls(log: Path) -> int:
    return len(log.read_text(encoding="utf-8").splitlines()) if log.exists() else 0


def run_recorded(monkeypatch, cpus, train, test, configs, resources, tmp_path):
    """(rows, {sn: saved model bytes}, {sn: test decision value bytes},
    [warning texts]) of the grid run on at most cpus processes."""
    monkeypatch.setattr(runner, "_usable_cpus", lambda: cpus)
    models, values = {}, {}

    def keep(row, fitted):
        path = tmp_path / f"grid-{cpus}-{row.sn:02d}.ufnd"
        save_model(path, fitted)
        models[row.sn] = path.read_bytes()
        values[row.sn] = fitted.decision_values(test, resources).tobytes()

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = run_grid(train, test, configs, resources, on_fitted=keep)
    return rows, models, values, [str(w.message) for w in caught]


@pytest.mark.parametrize("cpus", [1, 2])
def test_rows_sharing_a_fit_equal_each_row_fitted_alone(resources, monkeypatch, tmp_path,
                                                        train, test, cpus):
    configs = clamped_grid()
    rows, models, values, _ = run_recorded(monkeypatch, cpus, train, test, configs,
                                           resources, tmp_path)
    assert all(r.ok for r in rows)
    assert len(fit_keys(configs, rows)) < len(configs)
    lines = render_results_tsv(rows).splitlines()
    for sn, config in enumerate(configs, start=1):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            alone = run_alone(train, test, config, resources, sn=sn)
            fitted = fit_pipeline(train, config, resources)
        assert render_results_tsv([alone]).splitlines()[1] == lines[sn], config.name
        path = tmp_path / f"alone-{sn:02d}.ufnd"
        save_model(path, fitted)
        assert path.read_bytes() == models[sn], config.name
        assert fitted.decision_values(test, resources).tobytes() == values[sn], config.name


@pytest.mark.parametrize("cpus", [1, 2])
def test_one_svm_fit_per_distinct_key(resources, monkeypatch, tmp_path, train, test, cpus):
    """Clamped rows train once per key; rows whose K all cut at distinct
    values train once each."""
    log = tmp_path / "train_svm.log"
    counting_train_svm(monkeypatch, log)
    configs = clamped_grid()
    rows = run_recorded(monkeypatch, cpus, train, test, configs, resources, tmp_path)[0]
    keys = fit_keys(configs, rows)
    assert train_calls(log) == len(keys) == 7 and len(configs) == 13

    log.unlink()
    cutting = [replace(c, k_best=10 + sn) for sn, c in enumerate(SHIPPED)]
    rows = run_recorded(monkeypatch, cpus, train, test, cutting, resources, tmp_path)[0]
    assert all(r.ok and r.k_selected < r.v_total for r in rows)
    assert train_calls(log) == len(fit_keys(cutting, rows)) == len(cutting)


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_shared_fit_that_does_not_converge_warns_on_every_row(resources, monkeypatch,
                                                                tmp_path, train, test, cpus):
    log = tmp_path / "train_svm.log"
    counting_train_svm(monkeypatch, log)
    configs = [replace(c, **UNCONVERGED) for c in SHIPPED[3:8]]  # one spec, all clamp
    rows, _, _, texts = run_recorded(monkeypatch, cpus, train, test, configs, resources,
                                     tmp_path)
    assert all(r.ok for r in rows) and train_calls(log) == 1
    expected = []
    for sn, config in enumerate(configs, start=1):
        with warnings.catch_warnings(record=True) as alone:
            warnings.simplefilter("always")
            run_alone(train, test, config, resources)
        assert any("SMO did not converge" in str(w.message) for w in alone)
        assert all(str(w.message).startswith(f"row 1 {config.name}: ") for w in alone)
        expected += [f"row {sn} " + str(w.message).removeprefix("row 1 ") for w in alone]
    assert texts == expected


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_shared_fit_that_raises_fails_each_row_with_its_own_error(resources, monkeypatch,
                                                                    tmp_path, train, test,
                                                                    cpus):
    log = tmp_path / "train_svm.log"
    counting_train_svm(monkeypatch, log)
    spy = runner.train_svm

    def failing(*args, **kwargs):
        spy(*args, **kwargs)
        raise ValueError("no model")

    monkeypatch.setattr(runner, "train_svm", failing)
    configs = SHIPPED[3:8]
    rows = run_recorded(monkeypatch, cpus, train, test, configs, resources, tmp_path)[0]
    assert [r.error for r in rows] == ["stage 'train_svm': no model"] * len(configs)
    assert train_calls(log) == len(configs)


@pytest.mark.parametrize("cpus", [1, 2])
def test_nothing_a_task_memoises_outlives_its_task(resources, monkeypatch, train, test, cpus):
    """Before each row, the models and spec feature matrices alive are
    those the earlier rows of its task made: the task's memo holds them to
    the task's end, so before the first row of a task none from an earlier
    task is alive. A row that finds otherwise raises: in-process out of
    run_grid, in a worker process by ending the worker, which makes its
    task's rows error rows. After the grid none is alive."""
    configs = clamped_grid()
    first_rows = {sns[0] for sns in runner._grid_tasks(configs)}
    made: list[tuple[int, weakref.ref]] = []  # (the row that made it, a model or matrix)
    task_rows: set[int] = set()  # the rows of the running task so far
    current = [0]
    train_svm, features = runner.train_svm, runner._SharedWork.features
    grid_row = runner._grid_row

    def recording_train_svm(*args, **kwargs):
        model = train_svm(*args, **kwargs)
        made.append((current[0], weakref.ref(model)))
        return model

    def recording_features(work, spec):
        vocab, X, X_test, *rest = features(work, spec)
        made.extend((current[0], weakref.ref(matrix)) for matrix in (X, X_test))
        return vocab, X, X_test, *rest

    def checked(work, config, sn, memo, keep):
        if sn in first_rows:
            task_rows.clear()
        alive = {t for t, ref in made if ref() is not None}
        expected = {t for t, _ in made if t in task_rows}
        if alive != expected:
            raise AssertionError(f"before row {sn} what rows {sorted(alive)} made is alive, "
                                 f"not what rows {sorted(expected)} made")
        task_rows.add(sn)
        current[0] = sn
        return grid_row(work, config, sn, memo, keep)

    monkeypatch.setattr(runner, "train_svm", recording_train_svm)
    monkeypatch.setattr(runner._SharedWork, "features", recording_features)
    monkeypatch.setattr(runner, "_grid_row", checked)
    monkeypatch.setattr(runner, "_usable_cpus", lambda: cpus)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rows = run_grid(train, test, configs, resources)
    assert [r.error for r in rows] == [None] * len(configs)
    assert all(ref() is None for _, ref in made)
    if cpus == 1:  # 7 fit keys, 4 specs of two matrices each
        assert len(made) == 7 + 4 * 2
