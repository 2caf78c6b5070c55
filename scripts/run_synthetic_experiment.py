#!/usr/bin/env python3
"""End-to-end demo on a synthetic corpus: generates disjoint-vocabulary
train/test splits, runs a small SVM grid plus a word-level CNN, and writes
results.tsv / results.md. No external data needed.

Usage: python scripts/run_synthetic_experiment.py [--out-dir OUT] [--seed N]
"""

import argparse
from pathlib import Path

from urdufake.corpus import generate_synthetic, save_corpus
from urdufake.preprocess import Resources
from urdufake.runner import ExperimentConfig, run_grid, write_results

FAKE_POOL = tuple(f"jhoot{i}" for i in range(30))
REAL_POOL = tuple(f"sach{i}" for i in range(30))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=Path("out/synthetic"))
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    train = generate_synthetic(args.seed, 200, (FAKE_POOL, REAL_POOL), (6, 14), split="train")
    test = generate_synthetic(args.seed + 1000, 50, (FAKE_POOL, REAL_POOL), (6, 14), split="test")
    save_corpus(train, args.out_dir / "train.tsv")
    save_corpus(test, args.out_dir / "test.tsv")

    configs = [
        ExperimentConfig(name="svm_w12_c23", seed=args.seed, k_best=2000,
                         word_orders=(1, 2), char_orders=(2, 3)),
        ExperimentConfig(name="svm_w1234_c23456", seed=args.seed, k_best=5000,
                         word_orders=(1, 2, 3, 4), char_orders=(2, 3, 4, 5, 6)),
        ExperimentConfig(name="cnn_word_4ch", seed=args.seed, classifier="cnn",
                         cnn_unit="word", cnn_channels=(1, 2, 3, 4), cnn_epochs=7),
    ]
    rows = run_grid(train, test, configs, Resources.default())
    write_results(rows, args.out_dir)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
