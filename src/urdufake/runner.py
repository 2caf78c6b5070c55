"""Experiment configuration, the fitted pipeline, grid execution, rendering.

A config file is flat ``key = value`` text. Keys before the first
``[experiment]`` header are defaults; each ``[experiment]`` block starts a
new grid entry inheriting those defaults. Blank lines and ``#`` comments are
ignored. The keys are the fields of ExperimentConfig, with those of
PreprocessConfig in place of ``preprocess``, and each field's annotation picks
how its value is read. Every ExperimentConfig whose values have their fields'
types round-trips losslessly (NaN aside) through
serialize_configs/parse_config_text.
"""

from __future__ import annotations

import hashlib
import time
import warnings
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np
from scipy import sparse

from . import persistence
from .cnn import (
    CnnError,
    CnnModel,
    SequenceEncoder,
    TrainConfig,
    encode,
    init_cnn,
    probs_to_labels,
    train_cnn,
    forward as cnn_forward,
)
from .corpus import Corpus, Label
from .metrics import EvalReport, confusion, format4, summarize
from .preprocess import (
    PreprocessConfig,
    PreprocessedDoc,
    ResourceError,
    Resources,
    preprocess_corpus,
)
from .selection import SelectionMask, apply_mask, chi2_scores, feature_order, select_top
from .svm import (
    KernelParams,
    SvmError,
    SvmModel,
    check_solver_params,
    decision_function,
    labels_to_signs,
    signs_to_labels,
    train_svm,
)
from .vectorize import (
    NgramSpec,
    VectorizeError,
    Vocabulary,
    apply_tfidf,
    build_vocabulary,
    count_terms,
    transform,
)


class ConfigError(ValueError):
    pass


class PipelineError(RuntimeError):
    """Wraps a stage failure with the stage name attached."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class ExperimentConfig:
    name: str = "default"
    seed: int = 0
    classifier: str = "svm"  # "svm" | "cnn"
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    word_orders: tuple[int, ...] = (1, 2, 3, 4)
    char_orders: tuple[int, ...] = (2, 3, 4, 5, 6)
    k_best: int = 20000
    svm_c: float = 1.0
    svm_gamma: float | None = None  # None -> 1 / n_selected_features
    svm_coef0: float = 0.0
    svm_degree: int = 1
    svm_tol: float = 1e-3
    svm_max_passes: int = 200
    cnn_unit: str = "word"
    cnn_channels: tuple[int, ...] = (1, 2, 3, 4)
    cnn_epochs: int = 7
    cnn_batch_size: int = 16
    cnn_learning_rate: float = 1e-3
    cnn_max_len: int | None = None  # None -> longest training doc, capped
    cnn_embedding_dropout: float = 0.0

    def __post_init__(self) -> None:
        if self.classifier not in ("svm", "cnn"):
            raise ConfigError(f"classifier must be 'svm' or 'cnn', got {self.classifier!r}")
        # serialize_configs writes each value on one "key = value" line, which
        # the parser reads back stripped and cut at the first '#'; a name is
        # also a cell of the tab-separated results.tsv and the '|' table of
        # results.md.
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, str) and (
                    any(c in value for c in "#|\t") or value != value.strip()
                    or len(value.splitlines()) > 1):
                raise ConfigError(f"{f.name} must not contain '#', '|', a tab or a line break, "
                                  f"or start or end with whitespace, got {value!r}")

    def ngram_spec(self) -> NgramSpec:
        return NgramSpec(frozenset(self.word_orders), frozenset(self.char_orders))

    def digest(self) -> str:
        return hashlib.sha256(serialize_configs([self]).encode("utf-8")).hexdigest()[:12]


def _parse_bool(value: str) -> bool:
    if value.lower() in ("true", "yes", "1"):
        return True
    if value.lower() in ("false", "no", "0"):
        return False
    raise ValueError(f"expected true/false, got {value!r}")


def _parse_int_tuple(value: str) -> tuple[int, ...]:
    if value in ("", "-"):
        return ()
    try:
        return tuple(int(tok) for tok in value.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {value!r}") from None


def _auto_or(read: Callable[[str], object]) -> Callable[[str], object]:
    return lambda value: None if value.lower() == "auto" else read(value)


#: The value reader of each field annotation a config key may have.
_READERS: dict[str, Callable[[str], object]] = {
    "str": str,
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "tuple[int, ...]": _parse_int_tuple,
    "float | None": _auto_or(float),
    "int | None": _auto_or(int),
}


def _key_table() -> dict[str, tuple[str | None, Callable[[str], object]]]:
    """config key -> (the ExperimentConfig field nesting it, or None; its
    value reader), in file order: ExperimentConfig's fields, with
    PreprocessConfig's expanded in place of ``preprocess``."""
    table = {}
    for f in fields(ExperimentConfig):
        if f.name == "preprocess":
            table.update((g.name, (f.name, _READERS[g.type])) for g in fields(PreprocessConfig))
        else:
            table[f.name] = (None, _READERS[f.type])
    return table


_KEYS = _key_table()


def _config(values: dict[str, object]) -> ExperimentConfig:
    preprocess = {key: values.pop(key) for key in list(values) if _KEYS[key][0]}
    return ExperimentConfig(preprocess=PreprocessConfig(**preprocess), **values)


def parse_config_text(text: str) -> list[ExperimentConfig]:
    defaults: dict = {}
    blocks: list[dict] = []
    current: dict | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[experiment]":
            current = dict(defaults)
            blocks.append(current)
            continue
        if line.startswith("["):
            raise ConfigError(f"line {lineno}: unknown section {line!r}")
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        try:
            (current if current is not None else defaults)[key] = _KEYS[key][1](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {key}: {exc}") from exc
    if current is None:
        blocks = [dict(defaults)]
    return [_config(blk) for blk in blocks]


def parse_config_file(path: str | Path) -> list[ExperimentConfig]:
    return parse_config_text(Path(path).read_text(encoding="utf-8"))


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value) if value else "-"
    if value is None:
        return "auto"
    return str(value)


def serialize_configs(configs: list[ExperimentConfig]) -> str:
    lines: list[str] = []
    for cfg in configs:
        lines.append("[experiment]")
        for key, (owner, _) in _KEYS.items():
            value = getattr(getattr(cfg, owner) if owner else cfg, key)
            lines.append(f"{key} = {_format_value(value)}")
        lines.append("")
    return "\n".join(lines)


@dataclass
class FittedPipeline:
    """Everything fitted on the training split, enough to predict new text."""

    config: ExperimentConfig
    kind: str  # "svm" | "cnn"
    vocabulary: Vocabulary | None = None
    mask: SelectionMask | None = None
    svm: SvmModel | None = None
    encoder: SequenceEncoder | None = None
    cnn: CnnModel | None = None
    history: list | None = None  # per-epoch stats (cnn only, not persisted)
    resources_digest: str | None = None  # Resources.digest at fit; None in major-1/2 files

    @property
    def total_features(self) -> int:
        if self.kind == "svm":
            return self.vocabulary.size
        return len(self.encoder.term_to_id)

    @property
    def selected_features(self) -> int:
        if self.kind == "svm":
            return self.mask.n_kept
        return len(self.encoder.term_to_id)

    def decision_values(self, corpus: Corpus, resources: Resources) -> np.ndarray:
        """Signed margin for SVM; Fake probability for CNN. Refuses resources
        other than those the pipeline was fitted with."""
        if self.resources_digest is not None and resources.digest != self.resources_digest:
            raise ResourceError(
                f"the model was fitted with other stopwords, lemmas or normalization map "
                f"(resource digest {self.resources_digest[:12]}, given {resources.digest[:12]})")
        return self.values_of(preprocess_corpus(corpus, self.config.preprocess, resources))

    def values_of(self, docs: list[PreprocessedDoc]) -> np.ndarray:
        """decision_values of already preprocessed docs."""
        if self.kind == "svm":
            X = transform(docs, self.vocabulary, self.config.ngram_spec())
            return decision_function(self.svm, apply_mask(X, self.mask))
        return cnn_forward(self.cnn, encode(docs, self.encoder))

    def labels(self, values: np.ndarray) -> list[Label]:
        """Fake when the SVM margin is >= 0 or the CNN probability >= 0.5."""
        if self.kind == "svm":
            return signs_to_labels(values)
        return probs_to_labels(values)

    def predict(self, corpus: Corpus, resources: Resources) -> list[Label]:
        return self.labels(self.decision_values(corpus, resources))


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        raise PipelineError(name, exc) from exc


class _SharedWork:
    """What the grid rows with one PreprocessConfig compute once.

    Each split is preprocessed once. The SVM rows share one vocabulary of
    the union of their n-gram specs, with the raw term counts of both
    splits. Each distinct spec is restricted from the union once
    (Vocabulary.restrict, the bytes fitting it on its own gives), then
    TF-IDF weighted on both splits and chi-squared ordered once; these
    features are dropped when every row with that spec has fetched them.
    Everything is computed on first use, so it is charged to the first row
    that needs it.
    """

    def __init__(self, train: Corpus, test: Corpus | None, configs: list[ExperimentConfig],
                 resources: Resources):
        self.splits = {"train": train, "test": test}
        self.preprocess = configs[0].preprocess
        self.resources = resources
        self._docs: dict[str, list[PreprocessedDoc]] = {}
        # an SVM row whose own spec is invalid fails on it before it gets here
        self._rows_left: Counter[NgramSpec] = Counter()
        for config in configs:
            if config.classifier == "svm":
                try:
                    self._rows_left[config.ngram_spec()] += 1
                except VectorizeError:
                    pass
        self.spec = NgramSpec.union(self._rows_left) if self._rows_left else None
        self._vocabulary: Vocabulary | None = None
        self._test_counts: sparse.csr_matrix | None = None
        self._features: dict[NgramSpec, tuple] = {}

    def docs(self, split: str) -> list[PreprocessedDoc]:
        if split not in self._docs:
            self._docs[split] = preprocess_corpus(self.splits[split], self.preprocess,
                                                  self.resources)
        return self._docs[split]

    def vocabulary(self) -> Vocabulary:
        if self._vocabulary is None:
            self._vocabulary = build_vocabulary(self.docs("train"), self.spec)
        return self._vocabulary

    def test_counts(self) -> sparse.csr_matrix:
        if self._test_counts is None:
            self._test_counts = count_terms(self.docs("test"), self.vocabulary(), self.spec)
        return self._test_counts

    def features(self, spec: NgramSpec) -> tuple:
        """spec's Vocabulary (without counts), TF-IDF rows of the train and
        test split (None without one) and chi-squared feature_order."""
        if spec not in self._features:
            union = _stage("build_vocabulary", self.vocabulary)
            vocab, cols = _stage("build_vocabulary", union.restrict, spec)
            X = _stage("transform", apply_tfidf, vocab.counts, vocab)
            y = labels_to_signs([d.label for d in self.splits["train"]])
            order = feature_order(_stage("chi2_scores", chi2_scores, X, y))
            X_test = (None if self.splits["test"] is None
                      else apply_tfidf(self.test_counts()[:, cols], vocab))
            self._features[spec] = (replace(vocab, counts=None), X, X_test, order)
        self._rows_left[spec] -= 1
        return self._features[spec] if self._rows_left[spec] else self._features.pop(spec)


def _fit(work: _SharedWork, config: ExperimentConfig
         ) -> tuple[FittedPipeline, sparse.csr_matrix | None]:
    """Fit one row from the shared work; for an SVM also the row's selected
    TF-IDF test rows, if the work has a test split."""
    docs = _stage("preprocess", work.docs, "train")
    gold = [d.label for d in work.splits["train"]]
    if config.classifier == "svm":
        # checked before featurizing, so a bad kernel or solver setting fails
        # before any stage warns
        params = _stage("train_svm", KernelParams, degree=config.svm_degree,
                        gamma=config.svm_gamma, coef0=config.svm_coef0)
        _stage("train_svm", check_solver_params, config.svm_c, config.svm_tol,
               config.svm_max_passes)
        vocab, X, X_test, order = work.features(config.ngram_spec())
        mask = _stage("select_k_best", select_top, order, config.k_best)
        X_sel = _stage("apply_mask", apply_mask, X, mask)
        model = _stage(
            "train_svm", train_svm, X_sel, labels_to_signs(gold),
            params=params, C=config.svm_c, tol=config.svm_tol, max_passes=config.svm_max_passes,
        )
        fitted = FittedPipeline(config=config, kind="svm", vocabulary=vocab, mask=mask,
                                svm=model, resources_digest=work.resources.digest)
        return fitted, None if X_test is None else apply_mask(X_test, mask)

    encoder = _stage("fit_encoder", SequenceEncoder.fit, docs,
                     unit=config.cnn_unit, max_len=config.cnn_max_len)
    X_ids = _stage("encode", encode, docs, encoder)
    cnn = _stage(
        "init_cnn", init_cnn, encoder.vocab_size, encoder.max_len,
        config.cnn_channels, config.seed,
    )
    train_cfg = _stage(
        "train_cnn", TrainConfig,
        epochs=config.cnn_epochs,
        batch_size=config.cnn_batch_size,
        learning_rate=config.cnn_learning_rate,
        seed=config.seed,
        embedding_dropout=config.cnn_embedding_dropout,
    )
    cnn, history = _stage("train_cnn", train_cnn, cnn, X_ids, gold, train_cfg)
    return FittedPipeline(config=config, kind="cnn", encoder=encoder, cnn=cnn, history=history,
                          resources_digest=work.resources.digest), None


def _naming_warnings(prefix: str, fn, *args):
    """fn(*args); each warning it raises is issued again as prefix + message,
    with its category, from the caller of this helper's caller."""
    caught: list[warnings.WarningMessage] = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            return fn(*args)
    finally:
        for caught_warning in caught:
            warnings.warn(f"{prefix}{caught_warning.message}", caught_warning.category,
                          stacklevel=3)


def fit_pipeline(train: Corpus, config: ExperimentConfig, resources: Resources) -> FittedPipeline:
    """Fit every stage on the training corpus only. A warning a stage raises
    is issued again as "<name>: <message>", with its category."""
    work = _SharedWork(train, None, [config], resources)
    return _naming_warnings(f"{config.name}: ", _fit, work, config)[0]


@dataclass(frozen=True)
class ResultRow:
    sn: int
    name: str
    digest: str
    block: str
    k_best: int
    v_total: int
    k_selected: int
    report: EvalReport | None
    seconds: float
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _config_columns(config: ExperimentConfig, sn: int) -> dict:
    """The columns of a row that come from its config, ok or not."""
    return dict(sn=sn, name=config.name, digest=config.digest(),
                k_best=config.k_best if config.classifier == "svm" else 0)


def _run_row(work: _SharedWork, config: ExperimentConfig, sn: int
             ) -> tuple[ResultRow, FittedPipeline]:
    """Fit on train, predict on test, evaluate with Fake as positive class."""
    start = time.perf_counter()
    fitted, X_test = _fit(work, config)
    if fitted.kind == "svm":
        values = decision_function(fitted.svm, X_test)
    else:
        values = fitted.values_of(work.docs("test"))
    test = work.splits["test"]
    report = summarize(confusion([d.label for d in test], fitted.labels(values)))
    elapsed = time.perf_counter() - start
    return ResultRow(
        **_config_columns(config, sn),
        block=config.ngram_spec().describe() if config.classifier == "svm"
        else f"cnn {config.cnn_unit} channels {','.join(map(str, config.cnn_channels))}",
        v_total=fitted.total_features,
        k_selected=fitted.selected_features,
        report=report,
        seconds=elapsed,
    ), fitted


def run_config(
    train: Corpus, test: Corpus, config: ExperimentConfig, resources: Resources, sn: int = 1
) -> ResultRow:
    """Fit on train, predict on test, evaluate with Fake as positive class. A
    warning a stage raises is issued again as "<name>: <message>", with its
    category."""
    work = _SharedWork(train, test, [config], resources)
    return _naming_warnings(f"{config.name}: ", _run_row, work, config, sn)[0]


def run_grid(
    train: Corpus,
    test: Corpus,
    configs: list[ExperimentConfig],
    resources: Resources,
    on_fitted: Callable[[ResultRow, FittedPipeline], None] | None = None,
) -> list[ResultRow]:
    """Run every config in order; a failing row is recorded, the grid continues.

    Rows that preprocess alike share their preprocessing and, for SVM rows,
    their n-gram counts and each spec's features (see _SharedWork); each row's
    results are those of run_config on it alone. on_fitted gets each ok
    row's fitted pipeline as soon as the row is done, so a caller can keep
    it without the grid holding every row's model. A warning a row raises is
    issued again as "row <sn> <name>: <message>", with its category.
    """
    if not configs:
        raise ConfigError("experiment grid is empty")
    groups: dict[PreprocessConfig, list[ExperimentConfig]] = {}
    for config in configs:
        groups.setdefault(config.preprocess, []).append(config)
    last_row = {config.preprocess: sn for sn, config in enumerate(configs, start=1)}
    shared: dict[PreprocessConfig, _SharedWork] = {}
    rows: list[ResultRow] = []
    for sn, config in enumerate(configs, start=1):
        key = config.preprocess
        if key not in shared:
            shared[key] = _SharedWork(train, test, groups[key], resources)
        work = shared[key]
        fitted = None
        try:
            row, fitted = _naming_warnings(f"row {sn} {config.name}: ", _run_row, work, config, sn)
        except Exception as exc:
            row = ResultRow(**_config_columns(config, sn), block="", v_total=0, k_selected=0,
                            report=None, seconds=0.0, error=str(exc))
        rows.append(row)
        if last_row[key] == sn:
            del shared[key]
        if fitted is not None and on_fitted is not None:
            on_fitted(row, fitted)
    return rows


RESULTS_TSV_COLUMNS = (
    "sn", "name", "block", "k_best", "v_total", "k_selected",
    "prec_fake", "recall_fake", "f1_fake",
    "prec_real", "recall_real", "f1_real",
    "f1_macro", "accuracy", "status", "error", "digest",
)


def _macro_ranks(rows: list[ResultRow]) -> dict[int, int]:
    """sn -> rank (1..3) of the three best f1_macro values among ok rows."""
    scored = sorted(
        (r for r in rows if r.ok), key=lambda r: (-r.report.f1_macro, r.sn)
    )
    return {r.sn: i + 1 for i, r in enumerate(scored[:3])}


def render_results_tsv(rows: list[ResultRow]) -> str:
    """Deterministic TSV: 4-dp metric presentation, no timing columns."""
    lines = ["\t".join(RESULTS_TSV_COLUMNS)]
    for r in rows:
        if r.ok:
            metrics = [format4(v) for v in r.report.as_dict().values()]
            status, error = "ok", ""
        else:
            metrics = [""] * len(fields(EvalReport))
            status, error = "error", r.error.replace("\t", " ").replace("\n", " ")
        lines.append("\t".join(
            [str(r.sn), r.name, r.block, str(r.k_best), str(r.v_total), str(r.k_selected)]
            + metrics + [status, error, r.digest]
        ))
    return "\n".join(lines) + "\n"


def render_results_md(rows: list[ResultRow]) -> str:
    """Aligned table with the best three macro-F1 scores flagged."""
    ranks = _macro_ranks(rows)
    flags = {1: "**", 2: "*", 3: "_"}
    header = ["SN", "Name", "Features", "K", "V", "PrecF", "RecF", "F1F",
              "PrecR", "RecR", "F1R", "F1Macro", "Acc", "Time(s)"]
    macro = header.index("F1Macro")
    body: list[list[str]] = []
    for r in rows:
        if r.ok:
            cells = [str(r.sn), r.name, r.block, str(r.k_best), str(r.v_total),
                     *(format4(v) for v in r.report.as_dict().values()), f"{r.seconds:.1f}"]
            mark = flags.get(ranks.get(r.sn, 0), "")
            cells[macro] = f"{mark}{cells[macro]}{mark}"
            body.append(cells)
        else:
            body.append([str(r.sn), r.name, f"ERROR: {r.error}"] + [""] * (len(header) - 3))
    widths = [max(len(header[i]), *(len(row[i]) for row in body)) if body else len(header[i])
              for i in range(len(header))]
    sep = ["-" * w for w in widths]
    out = []
    for row in (header, sep, *body):
        out.append("| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |")
    return "\n".join(out) + "\n"


def save_model(path: str | Path, fitted: FittedPipeline) -> None:
    """Persist a fitted pipeline; loading reproduces its predictions exactly."""
    cfg = fitted.config
    meta = {
        "kind": fitted.kind,
        "config": serialize_configs([cfg]),
    }
    if fitted.resources_digest is not None:
        meta["resources"] = fitted.resources_digest
    arrays: dict[str, np.ndarray] = {}
    texts: dict[str, str] = {}
    if fitted.kind == "svm":
        arrays, texts = fitted.vocabulary.blobs()
        arrays["mask.kept"] = fitted.mask.kept
        arrays.update(persistence.csr_to_blobs("svm.sv", fitted.svm.support_vectors))
        arrays["svm.dual_coef"] = fitted.svm.dual_coef
        arrays["svm.scalars"] = np.asarray(
            [fitted.svm.bias, fitted.svm.C, fitted.svm.kernel.gamma,
             fitted.svm.kernel.coef0, float(fitted.svm.kernel.degree),
             1.0 if fitted.svm.converged else 0.0, float(fitted.svm.n_features)],
            dtype=np.float64,
        )
    else:
        arrays["cnn.embedding"] = fitted.cnn.embedding
        for k in fitted.cnn.channels:
            arrays[f"cnn.conv_w.{k}"] = fitted.cnn.conv_w[k]
            arrays[f"cnn.conv_b.{k}"] = fitted.cnn.conv_b[k]
        arrays["cnn.dense_w"] = fitted.cnn.dense_w
        arrays["cnn.dense_b"] = fitted.cnn.dense_b
        arrays["cnn.out_w"] = fitted.cnn.out_w
        arrays["cnn.out_b"] = fitted.cnn.out_b
        arrays["cnn.channels"] = np.asarray(fitted.cnn.channels, dtype=np.int64)
        arrays["cnn.max_len"] = np.asarray([fitted.cnn.max_len], dtype=np.int64)
        meta["encoder.unit"] = fitted.encoder.unit
        meta["encoder.max_len"] = fitted.encoder.max_len
        texts["encoder.terms"] = "\n".join(
            term for term, _ in sorted(fitted.encoder.term_to_id.items(), key=lambda kv: kv[1])
        )
    persistence.write_container(path, meta, arrays, texts)


def _from_model_file(build, **values):
    """build(**values), reporting a value out of range as a corrupt model file."""
    try:
        return build(**values)
    except (SvmError, CnnError) as exc:
        raise persistence.ModelFormatError(f"corrupt model file: {exc}") from exc


def load_model(path: str | Path) -> FittedPipeline:
    meta, arrays, texts = persistence.read_container(path)
    config = parse_config_text(meta["config"])[0]
    kind = meta["kind"]
    digest = meta.get("resources")
    if kind == "svm":
        vocab = Vocabulary.from_blobs(arrays, texts)
        mask = SelectionMask(kept=arrays["mask.kept"])
        s = arrays["svm.scalars"]
        support_vectors = persistence.csr_from_blobs("svm.sv", arrays)
        dual_coef = arrays["svm.dual_coef"]
        if dual_coef.shape != (support_vectors.shape[0],):
            raise persistence.ModelFormatError(
                f"corrupt model file: svm.dual_coef has {dual_coef.size} entries for "
                f"{support_vectors.shape[0]} support vectors")
        model = SvmModel(
            support_vectors=support_vectors,
            dual_coef=dual_coef,
            bias=float(s[0]),
            C=float(s[1]),
            kernel=_from_model_file(KernelParams, degree=int(s[4]), gamma=float(s[2]),
                                    coef0=float(s[3])),
            converged=bool(s[5]),
            n_features=int(s[6]),
        )
        return FittedPipeline(config=config, kind="svm", vocabulary=vocab, mask=mask, svm=model,
                              resources_digest=digest)
    if kind == "cnn":
        channels = tuple(int(k) for k in arrays["cnn.channels"])
        cnn = CnnModel(
            embedding=arrays["cnn.embedding"],
            conv_w={k: arrays[f"cnn.conv_w.{k}"] for k in channels},
            conv_b={k: arrays[f"cnn.conv_b.{k}"] for k in channels},
            dense_w=arrays["cnn.dense_w"],
            dense_b=arrays["cnn.dense_b"],
            out_w=arrays["cnn.out_w"],
            out_b=arrays["cnn.out_b"],
            channels=channels,
            max_len=int(arrays["cnn.max_len"][0]),
        )
        terms = texts["encoder.terms"].split("\n") if texts["encoder.terms"] else []
        encoder = _from_model_file(
            SequenceEncoder,
            unit=meta["encoder.unit"],
            term_to_id={t: i + 1 for i, t in enumerate(terms)},
            max_len=int(meta["encoder.max_len"]),
        )
        return FittedPipeline(config=config, kind="cnn", encoder=encoder, cnn=cnn,
                              resources_digest=digest)
    raise persistence.ModelFormatError(f"unknown pipeline kind {kind!r}")
