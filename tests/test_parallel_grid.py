"""run_grid on worker processes against run_grid in-process.

A grid of several tasks runs on min(usable CPUs, tasks) processes. These
tests fix the CPU count through runner._usable_cpus: 2 forks workers on any
machine, 1 runs the grid in-process, and the two must give the same
results.tsv, the same saved models and the same warnings.
"""

import errno
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


def shipped_grid_corpora():
    """(train, test, the shipped grid): a corpus so small that each row's K
    exceeds its features, so every row warns."""
    train = generate_synthetic(3, 20, (FAKE_POOL, REAL_POOL), (2, 3), split="train")
    test = generate_synthetic(4, 8, (FAKE_POOL, REAL_POOL), (2, 3), split="test")
    return train, test, parse_config_file(ROOT / "configs" / "shared_task_grid.cfg")


@pytest.mark.parametrize("grid", ["shipped", "mixed"])
def test_two_workers_give_the_in_process_grid(resources, monkeypatch, tmp_path, grid):
    """The shipped grid warns on every row (each K exceeds the features of
    this small corpus). The mixed grid has SVM and CNN rows, two
    preprocessing groups and a row that fails inside its worker."""
    train, test, shipped = shipped_grid_corpora()
    configs = shipped if grid == "shipped" else mixed_grid()
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
def test_no_group_shared_work_outlives_run_grid(resources, monkeypatch, small_train,
                                                small_test, cpus):
    """The shared work of each preprocessing group lives until run_grid
    returns, and not past it: group a is one task, group b two."""
    monkeypatch.setattr(runner, "_usable_cpus", lambda: cpus)
    refs = []

    class RecordedWork(runner._SharedWork):
        def __init__(self, *args):
            super().__init__(*args)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(runner, "_SharedWork", RecordedWork)
    alive = []  # the groups whose shared work is alive as each row is delivered

    def count_alive(row, fitted):
        alive.append(sum(ref() is not None for ref in refs))

    a = ExperimentConfig(name="a_k20", k_best=20, word_orders=(1,), char_orders=())
    b = replace(a, name="b_w1", preprocess=replace(a.preprocess, remove_stopwords=False))
    configs = [a, replace(a, name="a_k10", k_best=10),
               b, replace(b, name="b_c2", word_orders=(), char_orders=(2,))]
    rows = run_grid(small_train, small_test, configs, resources, on_fitted=count_alive)
    assert_no_child_left()
    assert all(r.ok for r in rows) and len(refs) == 2
    assert alive == [2] * 4
    assert [r() for r in refs] == [None, None]


@pytest.mark.parametrize("cpus", [1, 2])
def test_each_group_prefix_is_built_once_in_the_calling_process(resources, monkeypatch,
                                                                small_train, small_test, cpus):
    """Two preprocessing groups of SVM rows, a CNN row in the first: each
    group's splits are preprocessed once, and each group's union vocabulary
    and test counts are built once, all in this process. A call made
    anywhere else raises, which would make its row an error row."""
    parent = os.getpid()
    calls = Counter()
    group_of = {}  # id of a preprocessed split -> its preprocessing config

    def counted(name, fn):
        def wrapper(*args):
            if os.getpid() != parent:
                raise AssertionError(f"{name} ran in a worker process")
            result = fn(*args)
            if name == "preprocess_corpus":
                group_of[id(result)] = args[1]
                calls[name, args[1]] += 1
            else:
                calls[name, group_of[id(args[0])]] += 1
            return result
        return wrapper

    for name in ("preprocess_corpus", "build_vocabulary", "count_terms"):
        monkeypatch.setattr(runner, name, counted(name, getattr(runner, name)))
    monkeypatch.setattr(runner, "_usable_cpus", lambda: cpus)
    a = ExperimentConfig(name="a_w1", k_best=20, word_orders=(1,), char_orders=())
    b = replace(a, name="b_w1", preprocess=replace(a.preprocess, remove_stopwords=False))
    configs = [a, replace(a, name="a_c2", word_orders=(), char_orders=(2,)),
               replace(a, name="a_cnn", classifier="cnn", cnn_epochs=1, cnn_channels=(1,)),
               b, replace(b, name="b_w12", word_orders=(1, 2))]
    assert len(runner._grid_tasks(configs)) == 5
    rows = run_grid(small_train, small_test, configs, resources)
    assert_no_child_left()
    assert [r.error for r in rows] == [None] * 5
    assert calls == {(name, group.preprocess): count for group in (a, b)
                     for name, count in (("preprocess_corpus", 2), ("build_vocabulary", 1),
                                         ("count_terms", 1))}


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_union_without_terms_fails_each_svm_row_of_its_group(resources, monkeypatch, cpus):
    """No two-token document has a word 4-gram, so the union of a group
    whose SVM rows are w4 only has no terms. Each SVM row is an error row
    naming the stage; the group's char-CNN row is not affected."""
    monkeypatch.setattr(runner, "_usable_cpus", lambda: cpus)
    train = generate_synthetic(3, 10, (FAKE_POOL, REAL_POOL), (2, 2), split="train")
    test = generate_synthetic(4, 5, (FAKE_POOL, REAL_POOL), (2, 2), split="test")
    w4 = ExperimentConfig(name="w4_k20", k_best=20, word_orders=(4,), char_orders=())
    configs = [w4, replace(w4, name="w4_k10", k_best=10),
               replace(w4, name="char_cnn", classifier="cnn", cnn_unit="char", cnn_epochs=1,
                       cnn_channels=(1, 2))]
    rows = run_grid(train, test, configs, resources)
    assert_no_child_left()
    assert [r.error for r in rows] == ["stage 'build_vocabulary': all documents produced "
                                       "zero terms"] * 2 + [None]


def logging_setaffinity(monkeypatch, log: Path, fails: bool = False) -> None:
    """Log each os.sched_setaffinity call, from any process, as a line
    "<pid> <CPUs asked for>"; then make the call, or raise OSError."""
    setaffinity = os.sched_setaffinity

    def spy(pid, cpus):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {','.join(map(str, sorted(cpus)))}\n")
        if fails:
            raise OSError(errno.EINVAL, "refused by the test")
        setaffinity(pid, cpus)

    monkeypatch.setattr(os, "sched_setaffinity", spy)


def affinity_calls(log: Path) -> dict[int, list[set[int]]]:
    """{pid: [the CPUs each of its calls asked for]} from a log."""
    calls: dict[int, list[set[int]]] = {}
    for line in log.read_text(encoding="utf-8").splitlines() if log.exists() else []:
        pid, cpus = line.split()
        calls.setdefault(int(pid), []).append({int(cpu) for cpu in cpus.split(",")})
    return calls


needs_affinity = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                                    reason="os.sched_setaffinity is not available")


@needs_affinity
def test_each_worker_moves_to_its_own_cpu_then_gets_its_cpus_back(resources, monkeypatch,
                                                                 tmp_path):
    train, test, configs = shipped_grid_corpora()
    log = tmp_path / "affinity.log"
    logging_setaffinity(monkeypatch, log)
    inherited = os.sched_getaffinity(0)
    serial = grid_outputs(monkeypatch, tmp_path, 1, train, test, configs, resources)
    assert affinity_calls(log) == {}
    forked = grid_outputs(monkeypatch, tmp_path, 2, train, test, configs, resources)
    assert forked == serial
    assert os.sched_getaffinity(0) == inherited
    calls = affinity_calls(log)
    assert len(calls) == 2 and os.getpid() not in calls
    for first, then in calls.values():
        assert len(first) == 1 and first <= inherited and then == inherited
    own = [next(iter(first)) for first, _ in calls.values()]
    if len(inherited) >= 2:
        assert len(set(own)) == 2


@needs_affinity
def test_a_worker_that_cannot_move_runs_where_it_is(resources, monkeypatch, tmp_path):
    train, test, configs = shipped_grid_corpora()
    serial = grid_outputs(monkeypatch, tmp_path, 1, train, test, configs, resources)
    log = tmp_path / "affinity.log"
    logging_setaffinity(monkeypatch, log, fails=True)
    assert grid_outputs(monkeypatch, tmp_path, 2, train, test, configs, resources) == serial
    calls = affinity_calls(log)
    assert len(calls) == 2 and all(len(asked) == 1 for asked in calls.values())


def test_the_slot_counts_round_the_sorted_usable_cpus(monkeypatch):
    """Off a real grid: getaffinity is faked, and the spy calls nothing."""
    asked = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {7, 3, 5}, raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: asked.append(set(cpus)),
                        raising=False)
    for slot in range(4):
        runner._move_to_own_cpu(slot)
    assert asked == [{3}, {3, 5, 7}, {5}, {3, 5, 7}, {7}, {3, 5, 7}, {3}, {3, 5, 7}]
    monkeypatch.delattr(os, "sched_setaffinity")
    runner._move_to_own_cpu(1)


@pytest.mark.parametrize("failing_fork", [1, 2])
def test_a_fork_that_fails_leaves_the_grid_to_the_processes_it_has(resources, monkeypatch,
                                                                  tmp_path, failing_fork):
    """With the first fork failing the grid runs in-process; with the
    second, on the one worker forked and then in-process once it is done.
    Either way no pipe of the failed fork stays open."""
    train, test, configs = shipped_grid_corpora()
    serial = grid_outputs(monkeypatch, tmp_path, 1, train, test, configs, resources)
    fork = os.fork
    forks = 0

    def fork_failing_once():
        nonlocal forks
        forks += 1
        if forks == failing_fork:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", fork_failing_once)
    fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    assert grid_outputs(monkeypatch, tmp_path, 2, train, test, configs, resources) == serial
    assert forks == failing_fork
    if fds is not None:
        assert len(os.listdir("/proc/self/fd")) == fds



@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_failed_fork_closes_its_pipes_before_raising(monkeypatch):
    def no_fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    fds = len(os.listdir("/proc/self/fd"))
    with pytest.raises(BlockingIOError) as raised:
        runner._fork_worker(lambda task: task, [], 0)
    # the traceback held here keeps the failed call's connections alive
    assert raised.traceback
    assert len(os.listdir("/proc/self/fd")) == fds
