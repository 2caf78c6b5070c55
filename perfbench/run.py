"""urdufake benchmark: the SVM grid, saved-model serving and CNN training.

Run from the root of a checkout:

    python3 perfbench/run.py --workload shared_task --seed 1 --seconds 50 --trace 0

The workload's corpus is written from --seed first (untimed). Set-up then
saves the serving model with `urdufake train`. Rounds run for about
--seconds. Each round drives the shipped entry points, one call at a time,
for three jobs and repeats of the set-up:

  svm_grid   `urdufake --config configs/shared_task_grid.cfg experiment`
  svm_serve  the CLI `predict` on a batch split, `runner.load_model`, and
             single-document `FittedPipeline.decision_values` requests
  cnn_train  `runner.run_grid` on the word_4ch and char_4ch rows of
             perfbench/cnn_rows.cfg (configs/cnn_variants.cfg with one epoch)

Every operation runs in a child process forked for it, so the peak resident
set of each job is measured on its own. Afterwards the outputs are checked
(see `check_outputs`). The last stdout line is the result: {"correct",
"attempted", "failed", "metrics"}; the line before it is {"info": ...} with
versions, thread settings, output digests, per-job counts and peaks, and the
raw samples. With --trace 0 the metrics are the end-to-end ones. With
--trace 1 rounds alternate untraced and traced (perfbench/tracing.py), and
the metrics are per-layer figures from the traced rounds plus each job's
tracing overhead and peak resident set; the spans are written to
.perfbench_out/.

Exit codes: 0 when every check passed and no operation failed; 1 when a
check failed, an operation raised or an operation's process died (the info
and result lines are still printed, with "correct": false); 2 when the
checkout has no urdufake sources (nothing printed).
"""

from __future__ import annotations

import os

#: BLAS threads are pinned before numpy is imported; one thread keeps the
#: single client from competing with itself on a two-core machine.
THREAD_ENV = {name: "1" for name in
              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GRID_CFG = ROOT / "configs" / "shared_task_grid.cfg"
CNN_CFG = BENCH / "cnn_rows.cfg"
TRACE_OUT = ROOT / ".perfbench_out"

#: The class word pools of scripts/run_synthetic_experiment.py.
DEMO_POOLS = (tuple(f"jhoot{i}" for i in range(30)), tuple(f"sach{i}" for i in range(30)))


def shared_task_inputs(seed: int, out: Path) -> dict[str, Path]:
    """The shared-task shape scaled down, as (Fake, Real) counts per split:
    grid and word-CNN train/test, the serve split, and a smaller split pair
    for the char CNN."""
    import corpus_gen
    return corpus_gen.generate(seed, out, {
        "train": (11, 15), "test": (5, 10), "serve": (10, 20),
        "char_train": (3, 5), "char_test": (2, 4),
    })


def demo_inputs(seed: int, out: Path) -> dict[str, Path]:
    """The corpus of scripts/run_synthetic_experiment.py, full size: 200
    docs per class to train and 50 per class to test, 6-14 tokens each. The
    test split is also the serve split and every job uses the same pair."""
    from urdufake.corpus import generate_synthetic, save_corpus
    out.mkdir(parents=True, exist_ok=True)
    paths = {"train": out / "train.tsv", "test": out / "test.tsv"}
    save_corpus(generate_synthetic(seed, 200, DEMO_POOLS, (6, 14), split="train"), paths["train"])
    save_corpus(generate_synthetic(seed + 1000, 50, DEMO_POOLS, (6, 14), split="test"),
                paths["test"])
    return {**paths, "serve": paths["test"],
            "char_train": paths["train"], "char_test": paths["test"]}


#: Why each workload exists is in perfbench/README.md.
WORKLOADS = {"shared_task": shared_task_inputs, "synthetic_demo": demo_inputs}

REQUESTS_PER_ROUND = 204
#: The CLI predict is the noisiest of the timings, so it gets two samples
#: per slice.
BATCHES_PER_SLICE = 2
LOADS_PER_SLICE = 4
JOBS = ("setup", "svm_grid", "svm_serve", "cnn_train")

#: Bench attributes a child process hands back to the parent.
STATE = ("samples", "phase_wall", "attempted", "failed", "errors", "digests",
         "grid_rows", "request_values", "histories")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, traced: bool, work: Path):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.work = work
        self.cli = importlib.import_module("urdufake.cli")
        self.runner = importlib.import_module("urdufake.runner")
        self.corpus = importlib.import_module("urdufake.corpus")
        self.preprocess = importlib.import_module("urdufake.preprocess")
        from tracing import Tracer
        self.tracer = Tracer() if traced else None
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.phase_wall: dict[tuple[str, bool], list[float]] = defaultdict(list)
        self.attempted = dict.fromkeys(JOBS, 0)
        self.failed = dict.fromkeys(JOBS, 0)
        self.errors: list[str] = []
        self.digests: dict[str, set[str]] = defaultdict(set)
        self.grid_rows: list[dict] = []
        self.request_values: list[tuple[int, float]] = []
        self.histories: list = []
        self.peak_kb = dict.fromkeys(JOBS, 0)
        self.traced_rounds: list[int] = []
        self.rounds = 0
        self.model_path = work / "inputs" / "model.ufnd"
        self.predictions = work / "serve" / "predictions.tsv"
        self.fitted = None

    # -- plumbing -----------------------------------------------------------

    def cli_main(self, *argv) -> None:
        """One `urdufake` command; its stdout is kept off the result stream."""
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.main([str(a) for a in argv])
        if code != 0:
            raise RuntimeError(f"urdufake {' '.join(map(str, argv))} exited {code}")

    def span(self, phase: str, rnd: int, item: str = ""):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(f"bench.{phase}", (phase, rnd, item))

    def instrumented(self, on: bool):
        if not on:
            return contextlib.nullcontext()
        from tracing import instrumented
        return instrumented(self.tracer)

    def guarded(self, job: str, units: int, what: str, fn) -> None:
        """Run one operation worth `units` attempts of a job; an exception
        counts them failed and is reported, and the run goes on."""
        self.attempted[job] += units
        try:
            fn()
        except Exception as exc:
            self.failed[job] += units
            self.errors.append(f"{job} {what}: {exc!r}")
            print(f"perfbench: {job} {what} failed: {exc!r}", file=sys.stderr)

    def isolated(self, job: str, rnd: int, item: str, traced: bool, run) -> None:
        """Run one operation in a forked child, one at a time, and wait for it.

        The child times the operation, records its spans when traced, and
        pipes its share of the benchmark's state back; the parent keeps the
        child's peak resident set as the job's. A child that dies counts as
        one failed attempt of the job. Fork, not spawn: the child starts from
        the loaded corpora and models, and the process runs no other thread
        (BLAS is pinned to one).
        """
        sys.stdout.flush()
        sys.stderr.flush()
        gc.collect()
        first_span = len(self.tracer.spans) if self.tracer else 0
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(read_fd)
                with self.instrumented(traced), self.keeping_cnn_history():
                    start = time.perf_counter()
                    with self.span(job, rnd, item):
                        run()
                    self.phase_wall[job, traced].append(time.perf_counter() - start)
                with os.fdopen(write_fd, "wb") as fh:
                    pickle.dump(self.state(first_span), fh)
                code = 0
            except BaseException:  # the child ends here, whatever was raised
                traceback.print_exc()
            finally:
                os._exit(code)
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as fh:
            payload = fh.read()
        _, status, usage = os.wait4(pid, 0)
        self.peak_kb[job] = max(self.peak_kb[job], usage.ru_maxrss)
        if os.waitstatus_to_exitcode(status) == 0 and payload:
            self.restore(pickle.loads(payload))
        else:
            self.attempted[job] += 1
            self.failed[job] += 1
            self.errors.append(f"{job} {item}: child process ended with status {status}")

    def state(self, first_span: int) -> dict:
        out = {name: getattr(self, name) for name in STATE}
        if self.tracer is not None:
            t = self.tracer
            out["spans"] = t.spans[first_span:]
            out["counters"] = {k: dict(v) for k, v in t.counters.items()}
            out["sets"] = {k: dict(v) for k, v in t.sets.items()}
        return out

    def restore(self, state: dict) -> None:
        for name in STATE:
            setattr(self, name, state[name])
        if self.tracer is not None:
            t = self.tracer
            t.spans.extend(state["spans"])
            for key, values in state["counters"].items():
                t.counters[key].update(values)
            for key, values in state["sets"].items():
                t.sets[key].update(values)

    @contextlib.contextmanager
    def keeping_cnn_history(self):
        """Collect the per-epoch history each `runner.train_cnn` call returns."""
        runner = self.runner
        train_cnn = runner.train_cnn

        def keep_history(*args, **kwargs):
            model, history = train_cnn(*args, **kwargs)
            self.histories.append(history)
            return model, history

        runner.train_cnn = keep_history
        try:
            yield
        finally:
            runner.train_cnn = train_cnn

    # -- set-up -------------------------------------------------------------

    def train_model(self, out: Path) -> None:
        """Set-up proper: the CLI `train` of grid row 1, timed."""
        start = time.perf_counter()
        self.cli_main("--config", GRID_CFG, "--out-dir", out, "train",
                      "--train", self.paths["train"])
        self.samples["setup_s"].append(time.perf_counter() - start)
        self.digests["model.ufnd"].add(sha256(out / "model.ufnd"))

    def setup(self) -> None:
        """Write the corpus (untimed), then save the serving model that every
        round uses; each round repeats the training for more samples."""
        self.paths = WORKLOADS[self.workload](self.seed, self.work / "corpus")
        self.isolated("setup", -1, "first", False, lambda: self.guarded(
            "setup", 1, "train", lambda: self.train_model(self.model_path.parent)))
        self.model_bytes = self.model_path.stat().st_size if self.model_path.exists() else 0
        load = self.corpus.load_corpus
        self.train = load(self.paths["train"], "train")
        self.test = load(self.paths["test"], "test")
        self.serve = load(self.paths["serve"], "test")
        self.char_train = load(self.paths["char_train"], "train")
        self.char_test = load(self.paths["char_test"], "test")
        self.serve_one = [self.corpus.Corpus(documents=(d,), split="test")
                          for d in self.serve.documents]
        self.resources = self.preprocess.Resources.default()
        self.grid_configs = self.runner.parse_config_file(GRID_CFG)
        self.cnn_configs = {c.name: c for c in self.runner.parse_config_file(CNN_CFG)}

    def repeat_setup(self, rnd: int, k: int) -> None:
        out = self.work / f"setup{rnd}.{k}"
        self.guarded("setup", 1, "train", lambda: self.train_model(out))
        shutil.rmtree(out, ignore_errors=True)

    # -- operations ---------------------------------------------------------

    def grid(self, rnd: int) -> None:
        out = self.work / f"grid{rnd}"
        start = time.perf_counter()
        self.cli_main("--config", GRID_CFG, "--out-dir", out, "experiment",
                      "--train", self.paths["train"], "--test", self.paths["test"])
        self.samples["grid_s"].append(time.perf_counter() - start)
        results = out / "results.tsv"
        self.digests["results.tsv"].add(sha256(results))
        header, *lines = results.read_text(encoding="utf-8").splitlines()
        self.grid_rows = [dict(zip(header.split("\t"), line.split("\t"))) for line in lines]
        self.failed["svm_grid"] += len(self.grid_configs) - sum(
            r["status"] == "ok" for r in self.grid_rows)
        shutil.rmtree(out)

    def cnn_row(self, name: str, metric: str, train, test) -> None:
        start = time.perf_counter()
        rows = self.runner.run_grid(train, test, [self.cnn_configs[name]], self.resources)
        self.samples[metric].append(time.perf_counter() - start)
        if not rows[0].ok:
            raise RuntimeError(rows[0].error)

    def predict_batch(self) -> None:
        start = time.perf_counter()
        self.cli_main("--out-dir", self.predictions.parent, "predict", "--model",
                      self.model_path, "--input", self.paths["serve"], "--split", "test")
        self.samples["predict_batch_s"].append(time.perf_counter() - start)
        self.digests["predictions.tsv"].add(sha256(self.predictions))

    def load(self) -> None:
        start = time.perf_counter()
        self.fitted = self.runner.load_model(self.model_path)
        self.samples["load_s"].append(time.perf_counter() - start)

    def request(self, doc: int) -> None:
        """One single-document request to the last loaded model."""
        start = time.perf_counter()
        value = self.fitted.decision_values(self.serve_one[doc], self.resources)
        self.samples["predict_1doc_ms"].append((time.perf_counter() - start) * 1e3)
        self.request_values.append((doc, float(value[0])))

    def serve_slice(self, rnd: int, k: int, n: int) -> None:
        """The k-th of n slices of the round's serving work."""
        for _ in range(BATCHES_PER_SLICE):
            self.guarded("svm_serve", 1, "predict", self.predict_batch)
        for _ in range(LOADS_PER_SLICE):
            self.guarded("svm_serve", 1, "load", self.load)
        chunk = REQUESTS_PER_ROUND // n
        for i in range(k * chunk, (k + 1) * chunk):
            doc = (rnd * REQUESTS_PER_ROUND + i) % len(self.serve_one)
            self.guarded("svm_serve", 1, f"request {i}", lambda: self.request(doc))

    def round(self, rnd: int, traced: bool) -> float:
        """The grid and one run of each CNN row, each followed by a set-up
        repeat and a slice of the serving work, so that the short set-up and
        serving samples are spread over the whole run."""
        long_ops = (
            ("svm_grid", "experiment", len(self.grid_configs), lambda: self.grid(rnd)),
            ("cnn_train", "word_4ch", 1,
             lambda: self.cnn_row("word_4ch", "word_row_s", self.train, self.test)),
            ("cnn_train", "char_4ch", 1,
             lambda: self.cnn_row("char_4ch", "char_row_s", self.char_train, self.char_test)),
        )
        round_start = time.perf_counter()
        for k, (job, item, units, run) in enumerate(long_ops):
            self.isolated(job, rnd, item, traced,
                          lambda: self.guarded(job, units, item, run))
            self.isolated("setup", rnd, f"train{k}", traced,
                          lambda: self.repeat_setup(rnd, k))
            self.isolated("svm_serve", rnd, f"slice{k}", traced,
                          lambda: self.serve_slice(rnd, k, len(long_ops)))
        return time.perf_counter() - round_start

    def measure(self) -> None:
        """Rounds until the next would end more than half a round after
        --seconds; the trace run alternates untraced and traced rounds and
        makes at least one of each."""
        if self.tracer is not None:
            self.install_observers()
        deadline = time.perf_counter() + self.seconds
        durations: list[float] = []
        rnd = 0
        while True:
            traced = self.tracer is not None and rnd % 2 == 1
            if traced:
                self.traced_rounds.append(rnd)
            durations.append(self.round(rnd, traced))
            rnd += 1
            self.rounds = rnd
            enough = self.tracer is None or rnd >= 2
            if enough and time.perf_counter() + 0.5 * statistics.median(durations) > deadline:
                break

    # -- checks -------------------------------------------------------------

    def check_outputs(self) -> dict[str, bool]:
        """Correctness of what the measured calls produced."""
        import numpy as np

        runner, res = self.runner, self.resources
        fitted = runner.fit_pipeline(self.train, self.grid_configs[0], res)
        labels = [label.value for label in fitted.predict(self.serve, res)]
        values = fitted.decision_values(self.serve, res)
        reloaded = runner.load_model(self.model_path).decision_values(self.serve, res)
        predicted = [line.split("\t") for line in
                     self.predictions.read_text(encoding="utf-8").splitlines()]
        return {
            "grid rows all ok": bool(self.grid_rows)
            and all(r["status"] == "ok" for r in self.grid_rows)
            and len(self.grid_rows) == len(self.grid_configs),
            "CLI predict labels equal fitted.predict": [p[1] for p in predicted] == labels
            and [p[0] for p in predicted] == [d.id for d in self.serve.documents],
            "CLI predict values equal fitted.decision_values":
                [float(p[2]) for p in predicted] == values.tolist(),
            "reloaded decision values equal in-memory": bool(np.array_equal(reloaded, values)),
            "single-doc requests match the batch": len(self.request_values) > 0 and all(
                math.isclose(v, values[d], rel_tol=1e-9, abs_tol=1e-12)
                for d, v in self.request_values),
            "CNN loss finite": len(self.histories) > 0 and all(
                math.isfinite(e.loss) for h in self.histories for e in h),
            "outputs identical across repeats": all(len(d) == 1 for d in self.digests.values()),
        }

    # -- tracing ------------------------------------------------------------

    def install_observers(self) -> None:
        import numpy as np
        t = self.tracer

        def doc_terms(t, args, kwargs, out):
            t.distinct("featurized", (hash(args[0].tokens), args[1]))

        def preprocess(t, args, kwargs, out):
            t.distinct("preprocessed", (args[0].id, hash(args[0].text), args[1]))

        def vocabulary(t, args, kwargs, out):
            t.count("vocabularies")
            t.count("vocab_terms", out.size)

        def svm_model(t, model):
            t.count("svm_models")
            t.count("n_support", model.n_support)
            t.count("sv_at_C", int(np.sum(np.abs(model.dual_coef) >= model.C * (1 - 1e-9))))
            t.count("not_converged", 0 if model.converged else 1)

        def loaded(t, args, kwargs, out):
            vocabulary(t, args, kwargs, out.vocabulary)
            svm_model(t, out.svm)

        t.observers.update({
            "vectorize.doc_terms": doc_terms,
            "preprocess.preprocess": preprocess,
            "vectorize.build_vocabulary": vocabulary,
            "vectorize.transform": lambda t, a, k, out: t.count("nnz", out.nnz),
            "svm.train_svm": lambda t, a, k, out: svm_model(t, out),
            "runner.load_model": loaded,
            "cnn.forward": lambda t, a, k, out: t.count("forward_docs", len(a[1])),
        })

    def per_layer(self) -> dict[str, float]:
        from tracing import summarise
        groups = summarise(self.tracer.spans)
        counters, sets = self.tracer.counters, self.tracer.sets
        per_round = []
        for rnd in self.traced_rounds:
            m = {}
            for job in JOBS:
                key = job, rnd
                m.update(layer_metrics(job, groups[key], counters[key], sets[key]))
            for job in TRACED_JOBS:
                m[f"{job}.trace_overhead"] = ratio(
                    statistics.median(self.phase_wall[job, True]),
                    statistics.median(self.phase_wall[job, False]))
            per_round.append(m)
        self.layer_groups = {f"{k[0]}/{k[1]}": dict(v) for k, v in groups.items()}
        out = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
        out.update({f"{job}.peak_rss_mb": kb / 1024.0 for job, kb in self.peak_kb.items()})
        return out

    def write_spans(self) -> Path:
        TRACE_OUT.mkdir(exist_ok=True)
        path = TRACE_OUT / f"spans-{self.workload}-seed{self.seed}.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for name, via, t0, t1, parent, rid in self.tracer.spans:
                fh.write(json.dumps({"name": name, "via": via, "start": t0, "end": t1,
                                     "parent": parent, "rid": list(rid)}) + "\n")
        return path

    # -- result -------------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        """Operation times are means over the run. On a host whose speed
        flips between a fast and a slow state every few seconds, the median
        of a run's few samples jumps between the two states from run to run;
        the mean moves with the share of time spent slow, which varied about
        a third less between runs. Set-up, with several samples a round, is
        a median."""
        s, mean = self.samples, statistics.fmean
        return {
            "setup_s": statistics.median(s["setup_s"]),
            "peak_rss_mb": max(self.peak_kb.values()) / 1024.0,
            "grid_s": mean(s["grid_s"]),
            "f1_macro_mean": mean(float(r["f1_macro"]) for r in self.grid_rows),
            "model_bytes": float(self.model_bytes),
            "load_s": mean(s["load_s"]),
            "predict_batch_s": mean(s["predict_batch_s"]),
            "predict_1doc_ms.p50": statistics.median(s["predict_1doc_ms"]),
            "predict_1doc_ms.p90": percentile(s["predict_1doc_ms"], 90),
            "word_row_s": mean(s["word_row_s"]),
            "char_row_s": mean(s["char_row_s"]),
        }


def _counter(key):
    return lambda g, c, d: c[key]


def _per(num, den):
    return lambda g, c, d: ratio(c[num], c[den])


def _distinct(key, calls):
    return lambda g, c, d: ratio(len(d[key]), g[calls])


GRID, SERVE, SVM = ("svm_grid",), ("svm_serve",), ("svm_grid", "svm_serve")
TRACED_JOBS = ("svm_grid", "svm_serve", "cnn_train")

#: Per-layer metrics: (jobs, metric, unit, better, value). A value function
#: gets one traced round of one job: its summarised span group g (see
#: tracing.summarise), its counters c and its distinct-item sets d (see
#: install_observers). Without one, the metric is g[metric].
LAYER_METRICS = (
    (SVM, "vectorize.self_s", "s", "lower", None),
    (GRID, "vectorize.build_vocabulary.s", "s", "lower", None),
    (SVM, "vectorize.transform.s", "s", "lower", None),
    (GRID, "vectorize.share", "ratio", "lower",
     lambda g, c, d: ratio(g["vectorize.busy_s"], g["wall_s"])),
    (SVM, "vectorize.docs_featurized", "count", "lower",
     lambda g, c, d: g["vectorize.doc_terms.calls"]),
    (SVM, "vectorize.reuse_ratio", "ratio", "higher",
     _distinct("featurized", "vectorize.doc_terms.calls")),
    (SVM, "vectorize.vocab_terms", "count", "lower", _per("vocab_terms", "vocabularies")),
    (SVM, "vectorize.nnz", "count", "lower", _counter("nnz")),
    (SVM, "preprocess.self_s", "s", "lower", None),
    (SVM, "preprocess.docs", "count", "lower", lambda g, c, d: g["preprocess.preprocess.calls"]),
    (SVM, "preprocess.reuse_ratio", "ratio", "higher",
     _distinct("preprocessed", "preprocess.preprocess.calls")),
    (GRID, "selection.self_s", "s", "lower", None),
    (GRID, "selection.chi2_scores.calls", "count", "lower", None),
    (GRID, "svm.train_svm.s", "s", "lower", None),
    (SVM, "svm.decision_function.s", "s", "lower", None),
    (SVM, "svm.n_support", "count", "lower", _per("n_support", "svm_models")),
    (GRID, "svm.sv_at_C", "count", "lower", _per("sv_at_C", "svm_models")),
    (GRID, "svm.not_converged", "count", "lower", _counter("not_converged")),
    (SERVE, "persistence.read_container.s", "s", "lower", None),
    (SERVE, "runner.load_model.s", "s", "lower", None),
    (("setup",), "runner.fit_pipeline.s", "s", "lower", None),
    (("setup",), "runner.save_model.s", "s", "lower", None),
    (("setup",), "persistence.write_container.s", "s", "lower", None),
    (SVM, "runner.self_s", "s", "lower", None),
    (GRID, "runner.fit_pipeline.calls", "count", "lower", None),
    (SVM, "corpus.load_corpus.s", "s", "lower", None),
    (SVM, "cli.self_s", "s", "lower", None),
    (GRID, "metrics.self_s", "s", "lower", None),
    (("cnn_train",), "cnn.self_s", "s", "lower", None),
    (("cnn_train",), "cnn.train_cnn.s", "s", "lower", None),
    (("cnn_train",), "cnn.forward.s", "s", "lower", None),
    (("cnn_train",), "cnn.forward.docs", "count", "lower", _counter("forward_docs")),
    (("cnn_train",), "cnn.encode.s", "s", "lower", None),
    (("cnn_train",), "cnn.batches", "count", "lower", lambda g, c, d: g["cnn.bce_loss.calls"]),
)


def layer_metrics(job: str, group, counters, sets) -> dict[str, float]:
    return {f"{job}.{name}": float(fn(group, counters, sets) if fn else group[name])
            for jobs, name, unit, better, fn in LAYER_METRICS if job in jobs}


def metric_specs() -> list[dict]:
    """The per_layer entries of BENCHMARK.json, in output order."""
    specs = [{"name": f"{job}.{name}", "unit": unit, "better": better}
             for jobs, name, unit, better, fn in LAYER_METRICS for job in jobs]
    specs += [{"name": f"{job}.trace_overhead", "unit": "ratio", "better": "lower"}
              for job in TRACED_JOBS]
    return specs + [{"name": f"{job}.peak_rss_mb", "unit": "MB", "better": "lower"}
                    for job in JOBS]


E2E_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "grid_s": "s", "f1_macro_mean": "ratio",
    "model_bytes": "B", "load_s": "s", "predict_batch_s": "s",
    "predict_1doc_ms.p50": "ms", "predict_1doc_ms.p90": "ms",
    "word_row_s": "s", "char_row_s": "s",
}


def versions() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cpus": os.cpu_count(), "threads": THREAD_ENV}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="urdufake benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "urdufake" / "__init__.py").is_file() or not GRID_CFG.is_file():
        print(f"perfbench: no urdufake sources at {SRC} or no {GRID_CFG.name}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))

    work = ROOT / ".perfbench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace), work)
    metrics: dict[str, tuple[float, str]] = {}
    checks: dict[str, bool] = {}
    info: dict = {"workload": args.workload, "seed": args.seed, "versions": versions()}
    try:
        bench.setup()
        bench.measure()
        checks = bench.check_outputs()
        if args.trace:
            values = bench.per_layer()
            metrics = {s["name"]: (values[s["name"]], s["unit"]) for s in metric_specs()}
            info["spans"] = str(bench.write_spans().relative_to(ROOT))
            info["layers"] = bench.layer_groups
        else:
            metrics = {name: (value, E2E_UNITS[name])
                       for name, value in bench.end_to_end().items()}
    except Exception as exc:  # reported in the result; the run is not correct
        traceback.print_exc()
        bench.errors.append(f"benchmark: {exc!r}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # kept while another run uses it
            work.parent.rmdir()

    info.update({
        "rounds": bench.rounds, "checks": checks,
        "sha256": {name: sorted(d) for name, d in bench.digests.items()},
        "attempted": bench.attempted, "failed": bench.failed, "errors": bench.errors,
        "peak_rss_mb": {job: kb / 1024.0 for job, kb in bench.peak_kb.items()},
        "samples": dict(bench.samples),
        "phase_wall_s": {f"{p}/{'traced' if t else 'untraced'}": v
                         for (p, t), v in bench.phase_wall.items()},
    })
    correct = bool(checks) and all(checks.values()) and not bench.errors \
        and not any(bench.failed.values())
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, sum(bench.attempted.values())),
        "failed": sum(bench.failed.values()) + (0 if checks else 1),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    if not correct:
        failed_checks = [name for name, ok in checks.items() if not ok]
        print(f"perfbench: FAILED checks {failed_checks}, failed ops {bench.failed}, "
              f"errors {bench.errors[:5]}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
