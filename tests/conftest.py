from dataclasses import replace

import numpy as np
import pytest

from urdufake.corpus import generate_synthetic
from urdufake.preprocess import Resources
from urdufake.runner import run_grid

FAKE_POOL = tuple(f"jhoot{i}" for i in range(30))
REAL_POOL = tuple(f"sach{i}" for i in range(30))


def stable_k_best(scores, k):
    """The K-best rule as a sort, the oracle for selection.select_k_best: the
    first K columns of a stable sort by descending score, ascending."""
    return np.sort(np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")[:k])


def run_alone(train, test, config, resources, sn=1):
    """The row a one-row run_grid gives config, numbered sn as in a grid.
    An error row fails the caller: none expects one."""
    row = run_grid(train, test, [config], resources)[0]
    assert row.ok, row.error
    return replace(row, sn=sn)


@pytest.fixture(scope="session")
def resources():
    return Resources.default()


@pytest.fixture(scope="session")
def synthetic_train():
    return generate_synthetic(7, 200, (FAKE_POOL, REAL_POOL), (6, 14), split="train")


@pytest.fixture(scope="session")
def synthetic_test():
    return generate_synthetic(1007, 50, (FAKE_POOL, REAL_POOL), (6, 14), split="test")


@pytest.fixture()
def small_train():
    return generate_synthetic(3, 25, (FAKE_POOL, REAL_POOL), (5, 10), split="train")


@pytest.fixture()
def small_test():
    return generate_synthetic(4, 10, (FAKE_POOL, REAL_POOL), (5, 10), split="test")
