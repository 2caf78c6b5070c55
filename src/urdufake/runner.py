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
import signal
import sys
import time
import traceback
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from multiprocessing.connection import Connection, Pipe, wait
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
    kernel_sizes,
    probs_to_labels,
    train_cnn,
    forward as cnn_forward,
)
from .corpus import Corpus, CorpusError, Label, read_lines
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
    idf_weights,
    transform,
    weigh_counts,
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
    return parse_config_text("".join(read_lines(path, ConfigError)))


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
    #: the norm apply_tfidf divided each support vector's training row by
    #: (svm only); a model file stores these and the raw term counts they
    #: give, in place of the support vectors' values (see save_model)
    sv_norms: np.ndarray | None = None
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
    """The prefix that the grid rows with one PreprocessConfig share, built
    once by the constructor: each split preprocessed (docs) with its gold
    labels (labels) and, with SVM rows, the vocabulary of the union of
    their n-gram specs with the raw term counts of both splits. run_grid
    builds every group's prefix before any task runs, so it is charged to
    no row, and a grid on worker processes forks after it: every worker
    reads it copy-on-write.

    What only the rows of one task share, a spec's features and its fits,
    is kept in the task's memo (see _fit), not here.
    """

    def __init__(self, train: Corpus, test: Corpus | None, configs: list[ExperimentConfig],
                 resources: Resources):
        self.preprocess = configs[0].preprocess
        self.resources = resources
        splits = {"train": train} if test is None else {"train": train, "test": test}
        self.docs = {split: preprocess_corpus(corpus, self.preprocess, resources)
                     for split, corpus in splits.items()}
        self.labels = {split: [d.label for d in corpus] for split, corpus in splits.items()}
        specs = []
        for config in configs:
            if config.classifier == "svm":
                # an SVM row whose own spec is invalid fails on it before it gets here
                with contextlib.suppress(VectorizeError):
                    specs.append(config.ngram_spec())
        self.union: Vocabulary | None = None
        self.test_counts: sparse.csr_matrix | None = None
        #: why the union could not be built; each SVM row fails on it (see features)
        self.union_error: VectorizeError | None = None
        if specs:
            try:
                self.union = build_vocabulary(self.docs["train"], NgramSpec.union(specs))
            except VectorizeError as exc:
                self.union_error = exc
        if self.union is not None and test is not None:
            self.test_counts = count_terms(self.docs["test"], self.union)

    def features(self, spec: NgramSpec) -> tuple:
        """spec's Vocabulary (without counts), TF-IDF rows of the train and
        test split (None without one), chi-squared scores and the norm each
        train row was divided by, computed anew on each call. The union is
        restricted to spec (Vocabulary.restrict gives the bytes fitting
        spec on its own gives)."""
        if self.union_error is not None:
            raise PipelineError("build_vocabulary", self.union_error) from self.union_error
        vocab, cols = _stage("build_vocabulary", self.union.restrict, spec)
        X, norms = _stage("transform", weigh_counts, vocab.counts, vocab.idf)
        scores = _stage("chi2_scores", chi2_scores, X, labels_to_signs(self.labels["train"]))
        X_test = (None if self.test_counts is None
                  else apply_tfidf(self.test_counts[:, cols], vocab))
        return replace(vocab, counts=None), X, X_test, scores, norms


def _fit_key(config: ExperimentConfig, n_selected: int) -> tuple:
    """What an SVM row's fit depends on besides its group's training split:
    its n-gram spec, its number of selected columns (min(K, V) of the spec)
    and its kernel and solver settings. select_k_best is a pure function of
    the spec's scores and K, and keeps every column when K >= V, so rows
    with one key select the same columns and train the same model."""
    return (config.ngram_spec(), n_selected, config.svm_degree, config.svm_gamma,
            config.svm_coef0, config.svm_c, config.svm_tol, config.svm_max_passes)


def _fit(work: _SharedWork, config: ExperimentConfig, memo: dict
         ) -> tuple[FittedPipeline, np.ndarray | None]:
    """Fit one row from the shared work and its task's memo; for an SVM
    also the row's test decision values, if the work has a test split.

    The memo holds what the rows of one task share. A spec's features are
    computed by the first row that reaches them. Per fit key, the first row
    with that key stores the selection mask, the SvmModel, its support
    vectors' norms, the test decision values and the warnings the fit
    raised; the key's later rows take them, and those warnings are
    issued again on each of them. A fit that raises is not stored, so each
    row fails with its own error.
    Everything in the memo lives as long as the memo: until its task ends.
    """
    docs, gold = work.docs["train"], work.labels["train"]
    if config.classifier == "svm":
        # checked before featurizing, so a bad kernel or solver setting fails
        # before any stage warns
        params = _stage("train_svm", KernelParams, degree=config.svm_degree,
                        gamma=config.svm_gamma, coef0=config.svm_coef0)
        _stage("train_svm", check_solver_params, config.svm_c, config.svm_tol,
               config.svm_max_passes)
        spec = _stage("build_vocabulary", config.ngram_spec)
        if spec not in memo:
            memo[spec] = work.features(spec)
        vocab, X, X_test, scores, norms = memo[spec]
        # selected on every row, so that each row warns when its K clamps
        selected = _stage("select_k_best", select_k_best, scores, config.k_best)
        key = _fit_key(config, selected.n_kept)
        caught: list[warnings.WarningMessage] = []
        try:
            if key not in memo:
                with warnings.catch_warnings(record=True) as caught:
                    model = _stage(
                        "train_svm", train_svm, _stage("apply_mask", apply_mask, X, selected),
                        labels_to_signs(gold), params=params, C=config.svm_c,
                        tol=config.svm_tol, max_passes=config.svm_max_passes,
                    )
                    values = (None if X_test is None
                              else decision_function(model, apply_mask(X_test, selected)))
                memo[key] = selected, model, norms[model.support], values, caught
            mask, model, sv_norms, values, caught = memo[key]
        finally:
            for caught_warning in caught:
                warnings.warn(str(caught_warning.message), caught_warning.category, stacklevel=2)
        fitted = FittedPipeline(config=config, vocabulary=vocab, mask=mask, svm=model,
                                sv_norms=sv_norms, resources_digest=work.resources.digest)
        return fitted, values

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


def fit_pipeline(train: Corpus, config: ExperimentConfig, resources: Resources) -> FittedPipeline:
    """Fit every stage on the training corpus only. A warning a stage raises
    is issued again as "<name>: <message>", with its category."""
    caught: list[warnings.WarningMessage] = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            return _fit(_SharedWork(train, None, [config], resources), config, {})[0]
    finally:
        for caught_warning in caught:
            warnings.warn(f"{config.name}: {caught_warning.message}", caught_warning.category,
                          stacklevel=2)


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


#: A grid row's outcome: its result, its fitted pipeline (None when the row
#: failed or no on_fitted keeps it) and the warnings it raised, each as
#: (category, text).
_Outcome = tuple[ResultRow, FittedPipeline | None, list[tuple[type[Warning], str]]]


def _error_row(config: ExperimentConfig, sn: int, error: str) -> ResultRow:
    return ResultRow(**_config_columns(config, sn), block="", v_total=0, k_selected=0,
                     report=None, seconds=0.0, error=error)


def _grid_row(work: _SharedWork, config: ExperimentConfig, sn: int, memo: dict,
              keep: bool) -> _Outcome:
    """One grid row: fit on train from its task's memo (see _fit), predict
    on test and evaluate with Fake as positive class. A row that raises is
    an error row. The fitted pipeline is kept only when keep is true."""
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        try:
            fitted, values = _fit(work, config, memo)
            if fitted.kind == "cnn":
                values = fitted.values_of(work.docs["test"])
            gold = work.labels["test"]
            row = ResultRow(
                **_config_columns(config, sn),
                block=config.ngram_spec().describe() if config.classifier == "svm"
                else f"cnn {config.cnn_unit} channels {','.join(map(str, config.cnn_channels))}",
                v_total=fitted.total_features,
                k_selected=fitted.selected_features,
                report=summarize(confusion(gold, fitted.labels(values))),
                seconds=time.perf_counter() - start,
            )
        except Exception as exc:
            fitted, row = None, _error_row(config, sn, str(exc))
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


def _move_to_own_cpu(slot: int) -> None:
    """Move this process to the slot-th of its usable CPUs, counting round,
    then let it run on all of them again.

    A forked process starts on its parent's CPU, and the scheduler can leave
    it there for the whole of a short grid, so that every worker shares one
    CPU. Narrowing the affinity to one other CPU makes the kernel move the
    process at once; restoring the inherited set leaves no lasting
    constraint. Where the calls do not exist or fail, the process stays.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    cpus = os.sched_getaffinity(0)
    with contextlib.suppress(OSError):
        os.sched_setaffinity(0, {sorted(cpus)[slot % len(cpus)]})
        os.sched_setaffinity(0, cpus)


def _fork_worker(run: Callable[[int], object], inherited: list[Connection], slot: int
                 ) -> tuple[int, Connection, Connection]:
    """Fork a worker process and return (its pid, the connection to send
    task numbers on, the connection to receive results from).

    The worker first moves to its own CPU, the slot-th usable one (see
    _move_to_own_cpu). It then sends back run(task) for each task number it
    receives, until its task connection closes. It closes inherited, the
    other workers' connections, so that each pipe has one writer and a
    worker's death shows as the end of its result pipe. It never returns
    into the caller: it leaves through os._exit. When the fork fails, the
    pipes are closed and the error is raised.

    Fork, not spawn: the worker starts from the parent's memory, so it reads
    the grid's prefix without pickling it, and nothing in the package runs
    a thread that a fork could cut off mid-operation.
    """
    task_r, task_w = Pipe(duplex=False)
    result_r, result_w = Pipe(duplex=False)
    sys.stdout.flush()
    sys.stderr.flush()
    try:
        pid = os.fork()
    except OSError:
        for conn in (task_r, task_w, result_r, result_w):
            conn.close()
        raise
    if pid == 0:
        code = 1
        try:
            for conn in (task_w, result_r, *inherited):
                conn.close()
            _move_to_own_cpu(slot)
            while True:
                try:
                    task = task_r.recv()
                except EOFError:
                    break
                result_w.send(run(task))
            code = 0
        except Exception:
            traceback.print_exc()
        finally:  # the worker ends here, whatever was raised
            os._exit(code)
    task_r.close()
    result_w.close()
    return pid, task_w, result_r


def _run_tasks(n_tasks: int, run: Callable[[int], object], n_workers: int,
               deliver: Callable[[int, object, int | None], None]) -> None:
    """Run run(task) for the task numbers below n_tasks, in task order, and
    hand each task's end to deliver: deliver(task, result, None), or
    deliver(task, None, wait status) when its worker died.

    With n_workers above 1, the tasks run on that many forked processes as
    workers come free; a dead worker is not replaced. When a fork fails (say
    at a process limit), no more are tried, and the workers already forked
    run the tasks, or this process when there are none. The parent receives a
    result whole as soon as it comes and hands the worker its next task
    before delivering, so a worker waits neither on a full pipe nor on
    deliver. Every worker is killed and reaped before the tasks no worker
    took run in-process, in task order, and before this raises,
    KeyboardInterrupt included. With one worker that is every task.
    """
    workers: dict[Connection, tuple[int, Connection]] = {}  # results -> (pid, tasks)
    running: dict[Connection, int] = {}  # results -> task number
    next_task = 0

    def start(results: Connection) -> None:
        nonlocal next_task
        running[results] = next_task
        next_task += 1
        with contextlib.suppress(BrokenPipeError):  # a dead worker shows as end of file
            workers[results][1].send(running[results])

    try:
        while n_workers > 1 and next_task < n_tasks and len(workers) < n_workers:
            inherited = [conn for results, (_, tasks) in workers.items()
                         for conn in (results, tasks)]
            try:
                pid, tasks, results = _fork_worker(run, inherited, len(workers))
            except OSError:
                break
            workers[results] = pid, tasks
            start(results)
        while running:
            for results in wait(list(running)):
                task = running.pop(results)
                try:
                    result = results.recv()
                except (EOFError, OSError):  # OSError: it died while sending
                    pid, tasks = workers.pop(results)
                    results.close()
                    tasks.close()
                    deliver(task, None, os.waitpid(pid, 0)[1])
                    continue
                if next_task < n_tasks:
                    start(results)
                deliver(task, result, None)
    finally:
        for results, (pid, tasks) in workers.items():
            results.close()
            tasks.close()
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for task in range(next_task, n_tasks):
        deliver(task, run(task), None)


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
    their n-gram counts (see _SharedWork), built for every group before any
    task runs. The rows of one task share a memo: their spec's features
    and, for the rows that select the same columns with the same kernel and
    solver settings, one selection mask, SVM fit and set of test decision
    values (see _fit). Each row's results and fitted pipeline are those of
    a one-row grid and fit_pipeline on it alone. A warning a row raises,
    one a shared fit raised included, is issued again as "row <sn> <name>:
    <message>", with its category, in row order.

    The rows run as tasks (see _grid_tasks, _run_tasks) on as many
    processes as this process may use CPUs, at most one per task. With one,
    or without os.fork, the tasks run in-process; with more, the workers
    are forked after the prefix is built and read it copy-on-write. A
    task's memo is let go when the task ends, so a process holds one
    task's features and fits at a time. Either way on_fitted is called in
    this process for a task's ok rows when the task ends, in
    task-completion order, so at most one task's pipelines are held at a
    time. Every group's shared work lives until the call returns.
    A worker that dies turns the rows of its task into error rows naming
    its exit status; tasks left when every worker has died run in-process.
    No worker outlives the call.
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
    n_workers = min(_usable_cpus(), len(tasks)) if hasattr(os, "fork") else 1

    def run(task: int) -> list[_Outcome]:
        memo: dict = {}  # what the task's rows share, let go when the task ends
        return [_grid_row(shared[configs[sn - 1].preprocess], configs[sn - 1], sn, memo, keep)
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
    for sn, config in enumerate(configs, start=1):
        for category, text in done[sn][2]:
            warnings.warn(f"row {sn} {config.name}: {text}", category, stacklevel=2)
    return [done[sn][0] for sn in range(1, len(configs) + 1)]


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


def write_results(rows: list[ResultRow], out_dir: Path) -> None:
    """Write results.tsv and results.md into out_dir, then print the table
    and a line naming both files."""
    tsv_path, md_path = out_dir / "results.tsv", out_dir / "results.md"
    table = render_results_md(rows)
    tsv_path.write_text(render_results_tsv(rows), encoding="utf-8")
    md_path.write_text(table, encoding="utf-8")
    print(table)
    failures = sum(not r.ok for r in rows)
    print(f"wrote {tsv_path} and {md_path} ({len(rows)} rows, {failures} failed)")


#: The entries of the svm.scalars blob, in their order: the fitted values the
#: config does not hold (gamma resolved from "auto").
_SVM_SCALARS = ("bias", "gamma", "converged")

#: The cnn.<name> array blobs, each the CnnModel field of that name, besides
#: the per-channel cnn.conv_w.<k> and cnn.conv_b.<k>.
_CNN_ARRAYS = ("embedding", "dense_w", "dense_b", "out_w", "out_b", "max_len")


def _kept_idf(vocabulary: Vocabulary, mask: SelectionMask) -> np.ndarray:
    """The idf weights of the kept columns, from their document
    frequencies alone."""
    return idf_weights(vocabulary.doc_freq[mask.kept], vocabulary.n_docs)


def _same_matrix(a: sparse.csr_matrix, b: sparse.csr_matrix) -> bool:
    """Whether a and b hold the same entries, their values bit for bit."""
    return (a.shape == b.shape and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices) and a.data.tobytes() == b.data.tobytes())


def _support_counts(fitted: FittedPipeline) -> sparse.csr_matrix:
    """The raw term counts of the support vectors: each value is
    idf_j * count / norm_i as apply_tfidf computed it, so value * norm_i /
    idf_j rounds to the count. Raises ValueError unless weighing the counts
    with those norms gives every value back bit for bit."""
    sv, norms = fitted.svm.support_vectors, fitted.sv_norms
    idf = _kept_idf(fitted.vocabulary, fitted.mask)
    if norms is not None:
        scaled = sv.data * norms.repeat(np.diff(sv.indptr)) / idf[sv.indices]
        counts = sparse.csr_matrix((np.rint(scaled).astype(np.int64), sv.indices, sv.indptr),
                                   shape=sv.shape)
        if _same_matrix(weigh_counts(counts, idf, norms)[0], sv):
            return counts
    raise ValueError("the support vectors are not term counts weighted as apply_tfidf "
                     "weighs them with the pipeline's norms")


def save_model(path: str | Path, fitted: FittedPipeline) -> None:
    """Persist a fitted pipeline; loading reproduces its predictions exactly.

    An SVM's support vectors are stored as their raw term counts and norms
    (see _support_counts), a CNN's channels as its config's cnn_channels.
    A pipeline whose support vectors or channels these would not give back
    exactly raises ValueError, and no file is written.
    """
    meta = {"config": serialize_configs([fitted.config]), "resources": fitted.resources_digest}
    if fitted.kind == "svm":
        svm, counts = fitted.svm, _support_counts(fitted)
        arrays, texts = fitted.vocabulary.blobs()
        arrays["mask.kept"] = fitted.mask.kept
        arrays.update(persistence.csr_to_blobs("svm.sv", counts, "counts"))
        arrays["svm.sv.norms"] = fitted.sv_norms
        arrays["svm.dual_coef"] = svm.dual_coef
        scalars = dict(bias=svm.bias, gamma=svm.kernel.gamma, converged=svm.converged)
        arrays["svm.scalars"] = np.asarray([float(scalars[name]) for name in _SVM_SCALARS])
    else:
        cnn = fitted.cnn
        if cnn.channels != kernel_sizes(fitted.config.cnn_channels):
            raise ValueError(f"the CNN's channels {cnn.channels} are not those of its config's "
                             f"cnn_channels {fitted.config.cnn_channels}")
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
    classifier, the kernel's degree and coef0, C, the CNN's unit and its
    channels. An SVM has one dual coefficient and one norm per support
    vector, and its support vectors have one column per kept column."""
    for key in ("config", "resources"):
        if type(meta[key]) is not str:
            raise TypeError(f"metadata {key!r} is {type(meta[key]).__name__}, not str")
    config = parse_config_text(meta["config"])[0]
    digest = meta["resources"]
    if config.classifier == "svm":
        vocab = Vocabulary.from_blobs(arrays, texts)
        mask = SelectionMask(kept=arrays["mask.kept"].astype(np.int64, casting="same_kind"))
        if mask.n_kept and not (mask.kept[0] >= 0 and mask.kept[-1] < vocab.size):
            raise ValueError(f"mask.kept holds a column outside [0, {vocab.size})")
        dual_coef, norms = arrays["svm.dual_coef"], arrays["svm.sv.norms"]
        if dual_coef.ndim != 1 or norms.shape != dual_coef.shape:
            raise ValueError(f"svm.dual_coef has {dual_coef.size} entries and svm.sv.norms "
                             f"{norms.size}: not one each per support vector")
        # a row's norm is at least its largest value, idf * count >= 1 * 1
        if not (np.isfinite(norms).all() and (norms >= 1.0).all()):
            raise ValueError("svm.sv.norms holds a norm that is not finite or is below 1")
        counts = persistence.csr_from_blobs("svm.sv", "counts", arrays,
                                            (dual_coef.size, mask.n_kept))
        if counts.dtype.kind not in "iu" or counts.data.min(initial=1) < 1:
            raise ValueError("svm.sv.counts holds a count that is not an integer >= 1")
        support_vectors = weigh_counts(counts, _kept_idf(vocab, mask), norms)[0]
        if arrays["svm.scalars"].shape != (len(_SVM_SCALARS),):
            raise ValueError(f"svm.scalars has {arrays['svm.scalars'].size} entries, "
                             f"expected {len(_SVM_SCALARS)}: {', '.join(_SVM_SCALARS)}")
        s = dict(zip(_SVM_SCALARS, arrays["svm.scalars"].tolist()))
        # the support vectors' values are finite: idf * count over a norm >= 1
        if not all(np.isfinite(v).all() for v in (s["bias"], dual_coef)):
            raise ValueError("svm.scalars bias or svm.dual_coef is not finite")
        kernel = KernelParams(degree=config.svm_degree, gamma=s["gamma"], coef0=config.svm_coef0)
        model = SvmModel(support_vectors=support_vectors, dual_coef=dual_coef, bias=s["bias"],
                         C=config.svm_c, kernel=kernel, converged=bool(s["converged"]))
        return FittedPipeline(config=config, vocabulary=vocab, mask=mask, svm=model,
                              sv_norms=norms, resources_digest=digest)
    channels = kernel_sizes(config.cnn_channels)
    values = {name: arrays[f"cnn.{name}"] for name in _CNN_ARRAYS}
    max_len = values.pop("max_len").astype(np.int64, casting="same_kind").item()
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
