"""run_grid on worker processes against run_grid in-process.

A grid of several tasks runs on min(usable CPUs, tasks) processes. These
tests fix the CPU count through runner._usable_cpus: 2 forks workers on any
machine, 1 runs the grid in-process, and the two must give the same
results.tsv, the same saved models and the same warnings.
"""

import os
import signal
import time
import warnings
import weakref
from collections import Counter
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
from test_grid_equivalence import mixed_grid

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def time_limit():
    """A grid that waits forever on its workers fails the test instead."""
    def expire(signum, frame):
        raise TimeoutError("the test ran for more than 120 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def grid_outputs(monkeypatch, tmp_path, cpus, train, test, configs, resources):
    """(results.tsv, {sn: saved model bytes}, [(category, text, filename)])
    of the grid run on at most cpus processes."""
    monkeypatch.setattr(runner, "_usable_cpus", lambda: cpus)
    models = {}

    def keep(row, fitted):
        path = tmp_path / f"{cpus}-{row.sn:02d}.ufnd"
        save_model(path, fitted)
        models[row.sn] = path.read_bytes()

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = run_grid(train, test, configs, resources, on_fitted=keep)
    assert_no_child_left()
    return (render_results_tsv(rows), models,
            [(w.category, str(w.message), w.filename) for w in caught])


@pytest.mark.parametrize("grid", ["shipped", "mixed"])
def test_two_workers_give_the_in_process_grid(resources, monkeypatch, tmp_path, grid):
    """The shipped grid warns on every row (each K exceeds the features of
    this small corpus). The mixed grid has SVM and CNN rows, two
    preprocessing groups and a row that fails inside its worker."""
    train = generate_synthetic(3, 20, (FAKE_POOL, REAL_POOL), (2, 3), split="train")
    test = generate_synthetic(4, 8, (FAKE_POOL, REAL_POOL), (2, 3), split="test")
    configs = (parse_config_file(ROOT / "configs" / "shared_task_grid.cfg") if grid == "shipped"
               else mixed_grid())
    assert len(runner._grid_tasks(configs)) >= 4
    serial = grid_outputs(monkeypatch, tmp_path, 1, train, test, configs, resources)
    forked = grid_outputs(monkeypatch, tmp_path, 2, train, test, configs, resources)
    assert forked == serial
    tsv, models, caught = forked
    status = [line.split("\t")[14] for line in tsv.splitlines()[1:]]
    if grid == "shipped":
        assert status == ["ok"] * 9 and sorted(models) == list(range(1, 10))
        assert [text.split(":")[0] for _, text, _ in caught] == \
            [f"row {sn} {c.name}" for sn, c in enumerate(configs, start=1)]
        assert all(filename == __file__ for _, _, filename in caught)
    else:
        assert status.count("error") == 1 and len(models) == len(configs) - 1


def test_a_row_that_raises_in_a_worker_is_an_error_row(resources, monkeypatch, tmp_path,
                                                      small_train, small_test):
    good = ExperimentConfig(name="good", k_best=20, word_orders=(1,), char_orders=())
    bad = replace(good, name="bad", k_best=0)
    other = replace(good, name="other", word_orders=(1, 2))
    configs = [good, bad, other, replace(good, name="last")]
    outputs = [grid_outputs(monkeypatch, tmp_path, cpus, small_train, small_test, configs,
                            resources) for cpus in (1, 2)]
    assert outputs[0] == outputs[1]
    lines = outputs[1][0].splitlines()
    assert [line.split("\t")[14] for line in lines[1:]] == ["ok", "error", "ok", "ok"]
    assert "stage 'select_k_best'" in lines[2]


@pytest.mark.parametrize("dying", [("w12",), ("w12", "c2")])
def test_a_dead_worker_fails_its_rows_and_the_grid_goes_on(resources, monkeypatch,
                                                           small_train, small_test, dying):
    """A row named dies_<spec> ends its worker. With one worker dead, the
    other runs the remaining tasks; with both dead (each took one of the
    two largest tasks first), the remaining tasks run in-process."""
    parent = os.getpid()
    grid_row = runner._grid_row

    def dies_in_a_worker(work, config, sn, memo, keep):
        if config.name.startswith("dies") and os.getpid() != parent:
            os._exit(3)
        return grid_row(work, config, sn, memo, keep)

    monkeypatch.setattr(runner, "_grid_row", dies_in_a_worker)
    monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
    base = ExperimentConfig(name="w1", k_best=20, word_orders=(1,), char_orders=())
    specs = {"w1": ((1,), ()), "w12": ((1, 2), ()), "c2": ((), (2,)), "w1c2": ((1,), (2,)),
             "w2": ((2,), ())}
    configs = []
    for name, (words, chars) in specs.items():
        if name in dying:
            configs.append(replace(base, name=f"dies_{name}", word_orders=words,
                                   char_orders=chars))
        configs.append(replace(base, name=name, word_orders=words, char_orders=chars))
    rows = run_grid(small_train, small_test, configs, resources)
    assert_no_child_left()
    lost = [c.name.startswith("dies") or c.name.replace("dies_", "") in dying for c in configs]
    assert [r.ok for r in rows] == [not x for x in lost]
    died = "the worker process running this row exited with status 3 before the row finished"
    assert all(r.error == died for r, x in zip(rows, lost) if x)
    monkeypatch.setattr(runner, "_usable_cpus", lambda: 1)
    alone = run_grid(small_train, small_test, configs, resources)
    assert [replace(r, seconds=0.0) for r, x in zip(rows, lost) if not x] == \
        [replace(r, seconds=0.0) for r, x in zip(alone, lost) if not x]


def test_workers_are_reaped_when_the_caller_interrupts(resources, monkeypatch,
                                                       small_train, small_test):
    monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
    base = ExperimentConfig(name="w1", k_best=20, word_orders=(1,), char_orders=())
    configs = [base, replace(base, name="w12", word_orders=(1, 2)),
               replace(base, name="c2", word_orders=(), char_orders=(2,))]

    def interrupt(row, fitted):
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run_grid(small_train, small_test, configs, resources, on_fitted=interrupt)
    assert_no_child_left()


def test_results_larger_than_a_pipe_buffer_arrive_whole():
    """Both workers write a result of several MB while the parent is slow
    to take it."""
    sizes = [3 << 20, 5 << 20, 1, 4 << 20]
    got = {}

    def deliver(task, result, status):
        assert status is None
        time.sleep(0.05)
        got[task] = result

    runner._run_tasks(len(sizes), lambda task: bytes([task]) * sizes[task], 2, deliver)
    assert_no_child_left()
    assert got == {task: bytes([task]) * size for task, size in enumerate(sizes)}


def test_one_task_grids_and_one_row_fits_never_fork(resources, monkeypatch,
                                                    small_train, small_test):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(runner, "_usable_cpus", lambda: 2)
    svm = ExperimentConfig(name="svm", k_best=20, word_orders=(1,), char_orders=())
    cnn = ExperimentConfig(name="cnn", classifier="cnn", cnn_epochs=1, cnn_channels=(1,))
    for configs in ([svm, replace(svm, name="svm_k10", k_best=10)], [cnn]):
        assert all(r.ok for r in run_grid(small_train, small_test, configs, resources))
    monkeypatch.setattr(runner, "_usable_cpus", lambda: 1)
    configs = [svm, replace(svm, name="svm_w12", word_orders=(1, 2)), cnn]
    assert len(runner._grid_tasks(configs)) == 3
    assert all(r.ok for r in run_grid(small_train, small_test, configs, resources))
    assert run_alone(small_train, small_test, svm, resources).ok
    assert fit_pipeline(small_train, cnn, resources).kind == "cnn"


@pytest.mark.parametrize("cpus", [1, 2])
def test_each_group_lets_go_of_its_shared_work_after_its_last_task(resources, monkeypatch,
                                                                   small_train, small_test,
                                                                   cpus):
    """When a row is delivered, the shared work of a preprocessing group
    whose tasks have all been delivered is gone, and that of a group with
    rows still to come is not. Group a is one task, group b two. In-process
    a's task runs first; on two workers a's rows are slowed, so b's two
    tasks end first on the other worker."""
    monkeypatch.setattr(runner, "_usable_cpus", lambda: cpus)
    grid_row = runner._grid_row

    def slow_a(work, config, sn, memo, keep):
        if config.name.startswith("a") and cpus > 1:
            time.sleep(0.5)
        return grid_row(work, config, sn, memo, keep)

    monkeypatch.setattr(runner, "_grid_row", slow_a)
    refs = {}

    class RecordedWork(runner._SharedWork):
        def __init__(self, *args):
            super().__init__(*args)
            refs[self.preprocess] = weakref.ref(self)

    monkeypatch.setattr(runner, "_SharedWork", RecordedWork)
    a = ExperimentConfig(name="a_k20", k_best=20, word_orders=(1,), char_orders=())
    b = replace(a, name="b_w1", preprocess=replace(a.preprocess, remove_stopwords=False))
    configs = [a, replace(a, name="a_k10", k_best=10),
               b, replace(b, name="b_c2", word_orders=(), char_orders=(2,))]
    rows_of = Counter(c.preprocess for c in configs)
    delivered = Counter()
    freed, order = [], []

    def check(row, fitted):
        for group, ref in refs.items():
            done = delivered[group] == rows_of[group]
            assert (ref() is None) == done, (row.sn, group)
            freed.append(done)
        delivered[configs[row.sn - 1].preprocess] += 1
        order.append(row.sn)

    rows = run_grid(small_train, small_test, configs, resources, on_fitted=check)
    assert_no_child_left()
    assert all(r.ok for r in rows) and len(refs) == 2 and any(freed)
    assert configs[order[0] - 1].name[0] == ("a" if cpus == 1 else "b")
