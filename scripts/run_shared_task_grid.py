#!/usr/bin/env python3
"""Run the full SVM feature grid (and optionally the CNN variants) on the
shared-task dataset. The dataset is not redistributable, so you must supply
your own copy converted to the 3-column TSV format (id, label, text).

Usage:
  python scripts/run_shared_task_grid.py --data-dir DIR [--out-dir OUT] [--cnn]
      [--stopwords FILE] [--lemmas TSV] [--normmap TSV]

DIR must contain train.tsv (1300 rows expected) and test.tsv (300 rows).
Custom stopword, lemma and normalization-map resources can be passed
through (--stopwords, --lemmas, --normmap, as the CLI's global flags); with
the shipped stand-in resources, scores will differ somewhat from the
published table.
"""

import argparse
import sys
from pathlib import Path

from urdufake.corpus import TEST_EXPECTATION, TRAIN_EXPECTATION, load_corpus, validate_split
from urdufake.preprocess import Resources
from urdufake.runner import parse_config_file, run_grid, write_results

REPO_ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data-dir", type=Path, required=True)
    parser.add_argument("--out-dir", type=Path, default=Path("out/shared_task"))
    parser.add_argument("--cnn", action="store_true", help="also run the CNN variants")
    parser.add_argument("--stopwords", type=Path, default=None)
    parser.add_argument("--lemmas", type=Path, default=None)
    parser.add_argument("--normmap", type=Path, default=None)
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    train = load_corpus(args.data_dir / "train.tsv", "train")
    test = load_corpus(args.data_dir / "test.tsv", "test")
    for corpus, expectation in ((train, TRAIN_EXPECTATION), (test, TEST_EXPECTATION)):
        report = validate_split(corpus, expectation)
        print(report.as_text())
        if not report.passed:
            print("warning: counts differ from the published splits", file=sys.stderr)

    resources = Resources.load(stopwords_path=args.stopwords, lemmas_path=args.lemmas,
                               normmap_path=args.normmap)
    configs = parse_config_file(REPO_ROOT / "configs" / "shared_task_grid.cfg")
    if args.cnn:
        configs += parse_config_file(REPO_ROOT / "configs" / "cnn_variants.cfg")
    rows = run_grid(train, test, configs, resources)
    write_results(rows, args.out_dir)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
