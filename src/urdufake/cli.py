"""Command-line interface.

Subcommands: preprocess, featurize, train, predict, evaluate, experiment,
inspect. Global flags select the resources (stopwords/lemmas/normmap), the
config file, the seed override, and the output directory.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .corpus import CorpusError, Label, SplitExpectation, load_corpus, validate_split
from .metrics import MetricsError, confusion, format4, report_tsv_row, summarize
from .persistence import ModelFormatError
from .preprocess import ResourceError, Resources, preprocess_corpus
from .runner import (
    ConfigError,
    ExperimentConfig,
    PipelineError,
    fit_pipeline,
    load_model,
    parse_config_file,
    run_grid,
    save_model,
    write_results,
)
from .selection import SelectionError, chi2_scores, select_k_best
from .svm import labels_to_signs
from .vectorize import VectorizeError, apply_tfidf, build_vocabulary, write_vocabulary_tsv

#: What the package raises for a bad corpus, config, model or resource file,
#: a missing file, nothing to evaluate, or a stage that fails on its input:
#: main reports these as one line and exit code 2, as argparse does.
_INPUT_ERRORS = (CorpusError, ConfigError, ModelFormatError, ResourceError, PipelineError,
                 VectorizeError, SelectionError, MetricsError, OSError)


def _error(message: str) -> int:
    print(f"urdufake: error: {message}", file=sys.stderr)
    return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="urdufake", description="Urdu fake-news detection pipeline"
    )
    parser.add_argument("--seed", type=int, default=None, help="override config seeds")
    parser.add_argument("--config", type=Path, default=None, help="experiment config file")
    parser.add_argument("--stopwords", type=Path, default=None, help="stopword list file")
    parser.add_argument("--lemmas", type=Path, default=None, help="lemma table TSV")
    parser.add_argument("--normmap", type=Path, default=None, help="normalization map TSV")
    parser.add_argument("--out-dir", type=Path, default=Path("."), help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="preprocess a corpus TSV, optionally validate counts")
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--split", default="train", choices=("train", "test", "unlabeled"))
    p.add_argument("--expect-total", type=int, default=None)
    p.add_argument("--expect-fake", type=int, default=None)
    p.add_argument("--expect-real", type=int, default=None)
    p.add_argument("--kv", action="store_true", help="emit the split report as key=value lines")

    p = sub.add_parser("featurize", help="build the n-gram vocabulary and dump it as TSV")
    p.add_argument("--train", type=Path, required=True)

    p = sub.add_parser("train", help="fit the first configured experiment and save the model")
    p.add_argument("--train", type=Path, required=True)
    p.add_argument("--model", type=Path, default=None, help="output model path")

    p = sub.add_parser("predict", help="label a corpus with a saved model")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--split", default="unlabeled", choices=("train", "test", "unlabeled"))

    p = sub.add_parser("evaluate", help="score predictions against gold labels")
    p.add_argument("--gold", type=Path, required=True)
    p.add_argument("--split", default="test", choices=("train", "test"))
    p.add_argument("--pred", type=Path, required=True, help="predictions TSV (id, label, score)")

    p = sub.add_parser("experiment", help="run the configured grid and render result tables")
    p.add_argument("--train", type=Path, required=True)
    p.add_argument("--test", type=Path, required=True)
    p.add_argument("--save-models", action="store_true")

    p = sub.add_parser("inspect", help="dump the top chi-squared features as TSV")
    p.add_argument("--train", type=Path, required=True)
    p.add_argument("--top", type=int, default=50)
    return parser


def _resources(args) -> Resources:
    return Resources.load(
        stopwords_path=args.stopwords, lemmas_path=args.lemmas, normmap_path=args.normmap
    )


def _configs(args) -> list[ExperimentConfig]:
    configs = parse_config_file(args.config) if args.config else [ExperimentConfig()]
    if args.seed is not None:
        configs = [replace(c, seed=args.seed) for c in configs]
    return configs


def _cmd_preprocess(args) -> int:
    corpus = load_corpus(args.input, args.split)
    if args.expect_total is not None:
        expected = SplitExpectation(
            total=args.expect_total,
            per_label={Label.FAKE: args.expect_fake or 0, Label.REAL: args.expect_real or 0},
        )
        report = validate_split(corpus, expected)
        print(report.as_kv() if args.kv else report.as_text())
    config = _configs(args)[0]
    docs = preprocess_corpus(corpus, config.preprocess, _resources(args))
    out = args.out_dir / "preprocessed.tsv"
    with open(out, "w", encoding="utf-8") as fh:
        for doc, pdoc in zip(corpus, docs):
            label = doc.label.value if doc.label else ""
            fh.write(f"{doc.id}\t{label}\t{' '.join(pdoc.tokens)}\n")
    print(f"wrote {out} ({len(corpus)} documents)")
    return 0


def _cmd_featurize(args) -> int:
    corpus = load_corpus(args.train, "train")
    config = _configs(args)[0]
    docs = preprocess_corpus(corpus, config.preprocess, _resources(args))
    vocab = build_vocabulary(docs, config.ngram_spec())
    out = args.out_dir / "vocab.tsv"
    write_vocabulary_tsv(vocab, out)
    print(f"wrote {out} ({vocab.size} features from {vocab.n_docs} documents)")
    return 0


def _cmd_train(args) -> int:
    corpus = load_corpus(args.train, "train")
    config = _configs(args)[0]
    fitted = fit_pipeline(corpus, config, _resources(args))
    model_path = args.model or (args.out_dir / "model.ufnd")
    save_model(model_path, fitted)
    if fitted.history is not None:
        from .cnn import write_history_tsv

        history_path = args.out_dir / "history.tsv"
        write_history_tsv(fitted.history, history_path)
        print(f"wrote {history_path} ({len(fitted.history)} epochs)")
    print(f"wrote {model_path} ({fitted.kind}, V={fitted.total_features}, "
          f"selected={fitted.selected_features})")
    return 0


def _cmd_predict(args) -> int:
    fitted = load_model(args.model)
    corpus = load_corpus(args.input, args.split)
    values = fitted.decision_values(corpus, _resources(args))
    out = args.out_dir / "predictions.tsv"
    with open(out, "w", encoding="utf-8") as fh:
        for doc, label, value in zip(corpus, fitted.labels(values), values):
            fh.write(f"{doc.id}\t{label.value}\t{float(value)!r}\n")
    print(f"wrote {out} ({len(corpus)} predictions)")
    return 0


def _cmd_evaluate(args) -> int:
    gold_corpus = load_corpus(args.gold, args.split)
    gold = {d.id: d.label for d in gold_corpus}
    pred: dict[str, Label] = {}
    with open(args.pred, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) < 2:
                return _error(f"{args.pred.name}:{lineno}: expected at least 2 columns")
            if fields[0] not in gold:
                return _error(f"{args.pred.name}:{lineno}: id {fields[0]!r} is not in the gold "
                              "corpus")
            if fields[0] in pred:
                return _error(f"{args.pred.name}:{lineno}: duplicate id {fields[0]!r}")
            try:
                pred[fields[0]] = Label.parse(fields[1])
            except ValueError as exc:
                return _error(f"{args.pred.name}:{lineno}: {exc}")
    missing = sorted(set(gold) - set(pred))
    if missing:
        return _error(f"missing predictions for {len(missing)} ids (first: {missing[0]})")
    ordered_ids = [d.id for d in gold_corpus]
    report = summarize(confusion([gold[i] for i in ordered_ids], [pred[i] for i in ordered_ids]))
    for key, value in report.as_dict().items():
        print(f"{key:<16} {format4(value)}")
    out = args.out_dir / "report.tsv"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(report_tsv_row(report, "-") + "\n")
    print(f"wrote {out}")
    return 0


def _cmd_experiment(args) -> int:
    if not args.config:
        return _error("experiment requires --config")
    train = load_corpus(args.train, "train")
    test = load_corpus(args.test, "test")
    save = None
    if args.save_models:
        models_dir = args.out_dir / "models"
        models_dir.mkdir(parents=True, exist_ok=True)

        def save(row, fitted):
            save_model(models_dir / f"row-{row.sn:02d}.ufnd", fitted)

    rows = run_grid(train, test, _configs(args), _resources(args), on_fitted=save)
    write_results(rows, args.out_dir)
    return 0


def _cmd_inspect(args) -> int:
    if args.top < 1:
        return _error(f"--top must be >= 1, got {args.top}")
    corpus = load_corpus(args.train, "train")
    config = _configs(args)[0]
    docs = preprocess_corpus(corpus, config.preprocess, _resources(args))
    vocab = build_vocabulary(docs, config.ngram_spec())
    X = apply_tfidf(vocab.counts, vocab)
    scores = chi2_scores(X, labels_to_signs([d.label for d in corpus]))
    top = select_k_best(scores, min(args.top, scores.size)).kept
    order = top[(-scores[top]).argsort(kind="stable")]
    out = args.out_dir / "top_features.tsv"
    with open(out, "w", encoding="utf-8") as fh:
        for rank, (col, term) in enumerate(zip(order, vocab.terms_by_index(order)), start=1):
            fh.write(f"{rank}\t{term}\t{float(scores[col])!r}\n")
    print(f"wrote {out} (top {len(order)} of {vocab.size} features)")
    return 0


_COMMANDS = {
    "preprocess": _cmd_preprocess,
    "featurize": _cmd_featurize,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "evaluate": _cmd_evaluate,
    "experiment": _cmd_experiment,
    "inspect": _cmd_inspect,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](args)
    except _INPUT_ERRORS as exc:
        return _error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
