"""Urdu fake-news detection: n-gram TF-IDF features, chi-squared selection,
an SMO-trained polynomial-kernel SVM, and a multichannel 1-D CNN, with a
reproducible experiment runner."""

from .corpus import (
    Corpus,
    CorpusError,
    Document,
    Label,
    SplitExpectation,
    generate_synthetic,
    load_corpus,
    save_corpus,
    validate_split,
)
from .preprocess import (
    LemmaTable,
    NormalizationMap,
    PreprocessConfig,
    PreprocessedDoc,
    Resources,
    StopwordList,
    preprocess,
    preprocess_corpus,
)
from .vectorize import (
    NgramSpec,
    Vocabulary,
    build_vocabulary,
    transform,
)
from .selection import SelectionMask, apply_mask, chi2_scores, select_k_best
from .svm import KernelParams, SvmModel, decision_function, train_svm
from .cnn import (
    CnnModel,
    SequenceEncoder,
    TrainConfig,
    encode,
    forward,
    grad_check,
    init_cnn,
    train_cnn,
)
from .metrics import ConfusionMatrix, EvalReport, class_metrics, confusion, summarize
from .runner import (
    ExperimentConfig,
    FittedPipeline,
    ResultRow,
    fit_pipeline,
    load_model,
    parse_config_file,
    run_config,
    run_grid,
    save_model,
)

__version__ = "0.1.0"
