"""Per-class precision/recall/F1, macro F1, accuracy, confusion matrices.

The Fake class is the positive class throughout. Degenerate 0/0 ratios are
defined as 0. Rounding to 4 decimal places happens only at presentation
time, using round-half-even on the unrounded value.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from decimal import ROUND_HALF_EVEN, Decimal
from typing import Sequence

from .corpus import Label


class MetricsError(ValueError):
    pass


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts with Fake as the positive class."""

    tp_fake: int
    fn_fake: int
    fp_fake: int
    tn_fake: int

    def __post_init__(self) -> None:
        for name in ("tp_fake", "fn_fake", "fp_fake", "tn_fake"):
            if getattr(self, name) < 0:
                raise MetricsError(f"{name} must be >= 0")

    @property
    def total(self) -> int:
        return self.tp_fake + self.fn_fake + self.fp_fake + self.tn_fake


def confusion(gold: Sequence[Label], pred: Sequence[Label]) -> ConfusionMatrix:
    if len(gold) != len(pred):
        raise MetricsError(f"length mismatch: {len(gold)} gold vs {len(pred)} predictions")
    if not gold:
        raise MetricsError("cannot evaluate an empty prediction set")
    tp = fn = fp = tn = 0
    for g, p in zip(gold, pred):
        if g == Label.FAKE:
            if p == Label.FAKE:
                tp += 1
            else:
                fn += 1
        else:
            if p == Label.FAKE:
                fp += 1
            else:
                tn += 1
    return ConfusionMatrix(tp_fake=tp, fn_fake=fn, fp_fake=fp, tn_fake=tn)


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def class_metrics(m: ConfusionMatrix, label: Label) -> tuple[float, float, float]:
    """(precision, recall, F1) for the given class; 0/0 ratios are 0."""
    if label == Label.FAKE:
        return _prf(m.tp_fake, m.fp_fake, m.fn_fake)
    # from Real's perspective the counts swap roles
    return _prf(m.tn_fake, m.fn_fake, m.fp_fake)


@dataclass(frozen=True)
class EvalReport:
    precision_fake: float
    recall_fake: float
    f1_fake: float
    precision_real: float
    recall_real: float
    f1_real: float
    f1_macro: float
    accuracy: float

    def as_dict(self) -> dict[str, float]:
        """The metrics by name, in field order."""
        return asdict(self)


#: Column order used when a report is serialized as a TSV row.
REPORT_COLUMNS = ("k_best", *(f.name for f in fields(EvalReport)))


def summarize(m: ConfusionMatrix) -> EvalReport:
    if m.total <= 0:
        raise MetricsError("confusion matrix is empty")
    pf, rf, ff = class_metrics(m, Label.FAKE)
    pr, rr, fr = class_metrics(m, Label.REAL)
    return EvalReport(
        precision_fake=pf,
        recall_fake=rf,
        f1_fake=ff,
        precision_real=pr,
        recall_real=rr,
        f1_real=fr,
        f1_macro=(ff + fr) / 2.0,
        accuracy=(m.tp_fake + m.tn_fake) / m.total,
    )


def format4(x: float) -> str:
    """Round-half-even to 4 decimal places of the shortest decimal repr."""
    return str(Decimal(repr(float(x))).quantize(Decimal("0.0001"), rounding=ROUND_HALF_EVEN))


def report_tsv_row(report: EvalReport, k_best: int | str) -> str:
    """One TSV row in REPORT_COLUMNS order with 4-dp presentation values."""
    return "\t".join([str(k_best), *(format4(v) for v in report.as_dict().values())])
