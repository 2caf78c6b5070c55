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

import contextlib
import hashlib
import os
import pickle
import selectors
import signal
import struct
import sys
import time
import traceback
import warnings
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np
from scipy import sparse

from . import persistence
from .cnn import (
    CnnModel,
    SequenceEncoder,
    TrainConfig,
    encode,
    init_cnn,
    probs_to_labels,
    train_cnn,
    forward as cnn_forward,
)
from .corpus import Corpus, CorpusError, Label
from .metrics import EvalReport, confusion, format4, summarize
from .preprocess import (
    PreprocessConfig,
    PreprocessedDoc,
    ResourceError,
    Resources,
    preprocess_corpus,
)
from .selection import SelectionMask, apply_mask, chi2_scores, select_k_best
from .svm import (
    KernelParams,
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
    resources_digest: str  # Resources.digest of the resources it was fitted with
    vocabulary: Vocabulary | None = None
    mask: SelectionMask | None = None
    svm: SvmModel | None = None
    encoder: SequenceEncoder | None = None
    cnn: CnnModel | None = None
    history: list | None = None  # per-epoch stats (cnn only, not persisted)

    @property
    def kind(self) -> str:
        """The config's classifier: "svm" or "cnn"."""
        return self.config.classifier

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
        if resources.digest != self.resources_digest:
            raise ResourceError(
                f"the model was fitted with other stopwords, lemmas or normalization map "
                f"(resource digest {self.resources_digest[:12]}, given {resources.digest[:12]})")
        return self.values_of(preprocess_corpus(corpus, self.config.preprocess, resources))

    def values_of(self, docs: list[PreprocessedDoc]) -> np.ndarray:
        """decision_values of already preprocessed docs."""
        if self.kind == "svm":
            X = transform(docs, self.vocabulary)
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
    TF-IDF weighted on both splits and chi-squared scored once; these
    features are dropped when every row with that spec has fetched them.
    Everything is computed on first use, so it is charged to the first row
    that needs it, unless prepare computed the group's prefix beforehand.

    A grid run on worker processes prepares each group in the parent and
    then forks, so every worker reads the prefix copy-on-write. All rows of
    one spec run in one task, so a spec's features are computed once, in
    the worker running that task, and each worker holds at most one spec's
    features at a time.
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

    def prepare(self) -> None:
        """Compute the prefix every row of the group reads: both splits
        preprocessed and, with SVM rows, the union vocabulary and the test
        counts. A stage that fails here is left to fail again in each row
        that reads it, as it does without prepare."""
        with contextlib.suppress(Exception):
            self.docs("train")
            self.docs("test")
            if self.spec is not None:
                self.test_counts()

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
            self._test_counts = count_terms(self.docs("test"), self.vocabulary())
        return self._test_counts

    def features(self, spec: NgramSpec) -> tuple:
        """spec's Vocabulary (without counts), TF-IDF rows of the train and
        test split (None without one) and chi-squared scores."""
        if spec not in self._features:
            union = _stage("build_vocabulary", self.vocabulary)
            vocab, cols = _stage("build_vocabulary", union.restrict, spec)
            X = _stage("transform", apply_tfidf, vocab.counts, vocab)
            y = labels_to_signs([d.label for d in self.splits["train"]])
            scores = _stage("chi2_scores", chi2_scores, X, y)
            X_test = (None if self.splits["test"] is None
                      else apply_tfidf(self.test_counts()[:, cols], vocab))
            self._features[spec] = (replace(vocab, counts=None), X, X_test, scores)
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
        vocab, X, X_test, scores = work.features(_stage("build_vocabulary", config.ngram_spec))
        mask = _stage("select_k_best", select_k_best, scores, config.k_best)
        X_sel = _stage("apply_mask", apply_mask, X, mask)
        model = _stage(
            "train_svm", train_svm, X_sel, labels_to_signs(gold),
            params=params, C=config.svm_c, tol=config.svm_tol, max_passes=config.svm_max_passes,
        )
        fitted = FittedPipeline(config=config, vocabulary=vocab, mask=mask, svm=model,
                                resources_digest=work.resources.digest)
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
    return FittedPipeline(config=config, encoder=encoder, cnn=cnn, history=history,
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


#: A grid row's outcome: its result, its fitted pipeline (None when the row
#: failed or no on_fitted keeps it) and the warnings it raised, each as
#: (category, text).
_Outcome = tuple[ResultRow, FittedPipeline | None, list[tuple[type[Warning], str]]]


def _error_row(config: ExperimentConfig, sn: int, error: str) -> ResultRow:
    return ResultRow(**_config_columns(config, sn), block="", v_total=0, k_selected=0,
                     report=None, seconds=0.0, error=error)


def _grid_row(work: _SharedWork, config: ExperimentConfig, sn: int, keep: bool) -> _Outcome:
    """One grid row; a row that raises is an error row. The fitted pipeline
    is kept only when keep is true."""
    fitted = None
    with warnings.catch_warnings(record=True) as caught:
        try:
            row, fitted = _run_row(work, config, sn)
        except Exception as exc:
            row = _error_row(config, sn, str(exc))
    return row, fitted if keep else None, [(w.category, str(w.message)) for w in caught]


def _grid_tasks(configs: list[ExperimentConfig]) -> list[list[int]]:
    """The row numbers of each task of a grid, the largest task first: every
    CNN row is a task, and so are the SVM rows that share a preprocessing
    config and an n-gram spec. CNN rows come first, then SVM tasks by
    their number of rows, ties in row order."""
    tasks: dict[object, list[int]] = {}
    for sn, config in enumerate(configs, start=1):
        key: object = sn
        if config.classifier == "svm":
            # an SVM row whose own spec is invalid fails alone
            with contextlib.suppress(VectorizeError):
                key = config.preprocess, config.ngram_spec()
        tasks.setdefault(key, []).append(sn)
    return sorted(tasks.values(),
                  key=lambda sns: (configs[sns[0] - 1].classifier != "cnn", -len(sns)))


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_count(n_tasks: int) -> int:
    """How many processes run a grid of n_tasks tasks; 1 runs it in-process."""
    return min(_usable_cpus(), n_tasks) if hasattr(os, "fork") else 1


#: The frame of a message between the grid and a worker: its byte length.
_FRAME = struct.Struct("<Q")


def _fork_worker(run: Callable[[int], object], inherited: list[int]) -> tuple[int, int, int]:
    """Fork a worker process and return (its pid, the fd to write task
    numbers to, the fd to read results from).

    The worker runs run(task) for each task number it reads and writes the
    result back pickled, until its task pipe closes. It closes inherited,
    the other workers' pipe ends, so that each pipe has one writer and a
    worker's death shows as the end of its result pipe. It never returns
    into the caller: it leaves through os._exit.

    Fork, not spawn: the worker starts from the parent's memory, so it reads
    the grid's prefix without pickling it, and nothing in the package runs
    a thread that a fork could cut off mid-operation.
    """
    task_r, task_w = os.pipe()
    result_r, result_w = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            for fd in (task_w, result_r, *inherited):
                os.close(fd)
            with os.fdopen(task_r, "rb") as tasks, os.fdopen(result_w, "wb") as results:
                for frame in iter(lambda: tasks.read(_FRAME.size), b""):
                    payload = pickle.dumps(run(_FRAME.unpack(frame)[0]), pickle.HIGHEST_PROTOCOL)
                    results.write(_FRAME.pack(len(payload)))
                    results.write(payload)
                    results.flush()
            code = 0
        except Exception:
            traceback.print_exc()
        finally:  # the worker ends here, whatever was raised
            os._exit(code)
    os.close(task_r)
    os.close(result_w)
    return pid, task_w, result_r


def _read_exact(stream, n: int) -> bytes:
    data = stream.read(n)
    if len(data) < n:
        raise EOFError
    return data


def _run_tasks(n_tasks: int, run: Callable[[int], object], n_workers: int,
               deliver: Callable[[int, object, int | None], None]) -> None:
    """Run run(task) for the task numbers below n_tasks on n_workers forked
    processes, in task order as workers come free. Once every worker has
    died, the tasks left are not run.

    As each task ends, the parent calls deliver(task, result, None), or
    deliver(task, None, wait status) when its worker died; a dead worker is
    not replaced. The parent reads a result whole as soon as it comes and
    hands the worker its next task before delivering, so a worker waits
    neither on a full pipe nor on deliver. Every worker is killed and
    reaped before this returns or raises, KeyboardInterrupt included.
    """
    workers: dict[int, tuple[int, object, int]] = {}  # result fd -> (pid, results, task fd)
    running: dict[int, int] = {}  # result fd -> task number
    next_task = 0
    ends = selectors.DefaultSelector()  # the result fds of the running tasks

    def start(fd: int) -> None:
        nonlocal next_task
        running[fd] = next_task
        next_task += 1
        ends.register(fd, selectors.EVENT_READ)
        with contextlib.suppress(BrokenPipeError):  # a dead worker shows as end of file
            os.write(workers[fd][2], _FRAME.pack(running[fd]))

    try:
        while next_task < n_tasks and len(workers) < n_workers:
            others = [f for rfd, (_, _, tfd) in workers.items() for f in (rfd, tfd)]
            pid, task_fd, fd = _fork_worker(run, others)
            workers[fd] = pid, os.fdopen(fd, "rb"), task_fd
            start(fd)
        while running:
            for key, _ in ends.select():
                fd = key.fd
                ends.unregister(fd)
                task = running.pop(fd)
                pid, results, task_fd = workers[fd]
                try:
                    size = _FRAME.unpack(_read_exact(results, _FRAME.size))[0]
                    payload = _read_exact(results, size)
                except EOFError:
                    del workers[fd]
                    results.close()
                    os.close(task_fd)
                    deliver(task, None, os.waitpid(pid, 0)[1])
                    continue
                if next_task < n_tasks:
                    start(fd)
                deliver(task, pickle.loads(payload), None)
    finally:
        ends.close()
        for pid, results, task_fd in workers.values():
            results.close()
            os.close(task_fd)
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _died(status: int) -> str:
    code = os.waitstatus_to_exitcode(status)
    how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
    return f"the worker process running this row {how} before the row finished"


def run_grid(
    train: Corpus,
    test: Corpus,
    configs: list[ExperimentConfig],
    resources: Resources,
    on_fitted: Callable[[ResultRow, FittedPipeline], None] | None = None,
) -> list[ResultRow]:
    """Run every config; a failing row is recorded, the grid continues.

    Rows that preprocess alike share their preprocessing and, for SVM rows,
    their n-gram counts and each spec's features (see _SharedWork); each row's
    results are those of run_config on it alone. A warning a row raises is
    issued again as "row <sn> <name>: <message>", with its category, in row
    order.

    The rows run as tasks (see _grid_tasks) on as many processes as this
    process may use CPUs, at most one per task. With one, or without
    os.fork, the rows run in-process in row order, and on_fitted gets each
    ok row's fitted pipeline as soon as the row is done. With more, the
    parent computes each group's prefix (_SharedWork.prepare) and forks the
    workers; on_fitted is called in the parent, in task-completion order,
    for a task's ok rows when the task ends, so the parent holds at most
    one task's pipelines at a time. A worker that dies turns the rows of
    its task into error rows naming its exit status; tasks left when every
    worker has died run in-process. No worker outlives the call.
    """
    if not configs:
        raise ConfigError("experiment grid is empty")
    for split, corpus in (("train", train), ("test", test)):
        if not corpus.documents:
            raise CorpusError(f"the {split} split has no documents")
    groups: dict[PreprocessConfig, list[ExperimentConfig]] = {}
    for config in configs:
        groups.setdefault(config.preprocess, []).append(config)
    shared = {key: _SharedWork(train, test, group, resources) for key, group in groups.items()}
    keep = on_fitted is not None
    tasks = _grid_tasks(configs)
    done: dict[int, _Outcome] = {}
    n_workers = _worker_count(len(tasks))
    if n_workers > 1:
        for work in shared.values():
            work.prepare()

        def run(task: int) -> list[_Outcome]:
            return [_grid_row(shared[configs[sn - 1].preprocess], configs[sn - 1], sn, keep)
                    for sn in tasks[task]]

        def deliver(task: int, outcomes: list[_Outcome] | None, status: int | None) -> None:
            if outcomes is None:
                outcomes = [(_error_row(configs[sn - 1], sn, _died(status)), None, [])
                             for sn in tasks[task]]
            for row, fitted, caught in outcomes:
                if fitted is not None:
                    on_fitted(row, fitted)
                done[row.sn] = row, None, caught

        _run_tasks(len(tasks), run, n_workers, deliver)
    last_row = {config.preprocess: sn for sn, config in enumerate(configs, start=1)}
    rows: list[ResultRow] = []
    for sn, config in enumerate(configs, start=1):
        if sn in done:
            row, fitted, caught = done.pop(sn)
        else:
            row, fitted, caught = _grid_row(shared[config.preprocess], config, sn, keep)
            if last_row[config.preprocess] == sn:
                del shared[config.preprocess]
        rows.append(row)
        for category, text in caught:
            warnings.warn(f"row {sn} {config.name}: {text}", category, stacklevel=2)
        if fitted is not None:
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


#: The entries of the svm.scalars blob, in their order: the fitted values the
#: config does not hold (gamma resolved from "auto").
_SVM_SCALARS = ("bias", "gamma", "converged")

#: The cnn.<name> array blobs, each the CnnModel field of that name, besides
#: the per-channel cnn.conv_w.<k> and cnn.conv_b.<k>.
_CNN_ARRAYS = ("embedding", "dense_w", "dense_b", "out_w", "out_b", "channels", "max_len")


def save_model(path: str | Path, fitted: FittedPipeline) -> None:
    """Persist a fitted pipeline; loading reproduces its predictions exactly."""
    meta = {"config": serialize_configs([fitted.config]), "resources": fitted.resources_digest}
    if fitted.kind == "svm":
        svm = fitted.svm
        arrays, texts = fitted.vocabulary.blobs()
        arrays["mask.kept"] = fitted.mask.kept
        arrays.update(persistence.csr_to_blobs("svm.sv", svm.support_vectors))
        arrays["svm.dual_coef"] = svm.dual_coef
        scalars = dict(bias=svm.bias, gamma=svm.kernel.gamma, converged=svm.converged)
        arrays["svm.scalars"] = np.asarray([float(scalars[name]) for name in _SVM_SCALARS])
    else:
        cnn = fitted.cnn
        arrays = {f"cnn.{name}": np.atleast_1d(getattr(cnn, name)) for name in _CNN_ARRAYS}
        for k in cnn.channels:
            arrays[f"cnn.conv_w.{k}"] = cnn.conv_w[k]
            arrays[f"cnn.conv_b.{k}"] = cnn.conv_b[k]
        texts = {"encoder.terms": "\n".join(
            term for term, _ in sorted(fitted.encoder.term_to_id.items(), key=lambda kv: kv[1])
        )}
    persistence.write_container(path, meta, arrays, texts)


def load_model(path: str | Path) -> FittedPipeline:
    """The pipeline save_model wrote; any bad file raises ModelFormatError."""
    meta, arrays, texts = persistence.read_container(path)
    try:
        return _pipeline_of(meta, arrays, texts)
    except persistence.ModelFormatError:
        raise
    except (ValueError, TypeError, IndexError, OverflowError) as exc:
        raise persistence.ModelFormatError(f"corrupt model file: {exc}") from exc


def _pipeline_of(meta: dict, arrays: dict, texts: dict) -> FittedPipeline:
    """The pipeline of a model file's contents; a bad value raises what it
    provokes. The config is the one owner of every setting it names: the
    classifier, the kernel's degree and coef0, C and the CNN's unit."""
    for key in ("config", "resources"):
        if type(meta[key]) is not str:
            raise TypeError(f"metadata {key!r} is {type(meta[key]).__name__}, not str")
    config = parse_config_text(meta["config"])[0]
    digest = meta["resources"]
    if config.classifier == "svm":
        vocab = Vocabulary.from_blobs(arrays, texts)
        mask = SelectionMask(kept=arrays["mask.kept"].astype(np.int64, casting="same_kind"))
        support_vectors = persistence.csr_from_blobs("svm.sv", arrays)
        n_sv, n_cols = support_vectors.shape
        dual_coef = arrays["svm.dual_coef"]
        if dual_coef.shape != (n_sv,):
            raise ValueError(f"svm.dual_coef has {dual_coef.size} entries for "
                             f"{n_sv} support vectors")
        if arrays["svm.scalars"].shape != (len(_SVM_SCALARS),):
            raise ValueError(f"svm.scalars has {arrays['svm.scalars'].size} entries, "
                             f"expected {len(_SVM_SCALARS)}: {', '.join(_SVM_SCALARS)}")
        s = dict(zip(_SVM_SCALARS, arrays["svm.scalars"].tolist()))
        if mask.kept.shape != (n_cols,):
            raise ValueError(f"mask.kept keeps {mask.n_kept} columns and svm.sv has "
                             f"{n_cols} columns")
        if mask.n_kept and not (mask.kept[0] >= 0 and mask.kept[-1] < vocab.size):
            raise ValueError(f"mask.kept holds a column outside [0, {vocab.size})")
        if not all(np.isfinite(v).all() for v in (s["bias"], dual_coef, support_vectors.data)):
            raise ValueError("svm.scalars bias, svm.dual_coef or svm.sv.data is not finite")
        kernel = KernelParams(degree=config.svm_degree, gamma=s["gamma"], coef0=config.svm_coef0)
        model = SvmModel(support_vectors=support_vectors, dual_coef=dual_coef, bias=s["bias"],
                         C=config.svm_c, kernel=kernel, converged=bool(s["converged"]))
        return FittedPipeline(config=config, vocabulary=vocab, mask=mask, svm=model,
                              resources_digest=digest)
    values = {name: arrays[f"cnn.{name}"] for name in _CNN_ARRAYS}
    channels = tuple(int(k) for k in values.pop("channels"))
    max_len = int(values.pop("max_len")[0])
    cnn = CnnModel(**values, channels=channels, max_len=max_len,
                   conv_w={k: arrays[f"cnn.conv_w.{k}"] for k in channels},
                   conv_b={k: arrays[f"cnn.conv_b.{k}"] for k in channels})
    terms = texts["encoder.terms"].split("\n") if texts["encoder.terms"] else []
    encoder = SequenceEncoder(unit=config.cnn_unit, max_len=max_len,
                              term_to_id={t: i + 1 for i, t in enumerate(terms)})
    if len(cnn.embedding) != encoder.vocab_size:
        raise ValueError(f"cnn.embedding has {len(cnn.embedding)} rows for "
                         f"{encoder.vocab_size} ids")
    return FittedPipeline(config=config, encoder=encoder, cnn=cnn, resources_digest=digest)
