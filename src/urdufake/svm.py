"""Polynomial-kernel SVM trained by sequential minimal optimization.

The dual QP, minimize 1/2 a'Qa - sum(a) over 0 <= a <= C with y'a = 0 and
Q_ij = y_i y_j K(x_i, x_j), is solved one pair of multipliers per step from
its gradient G = Qa - 1, by maximal-violating-pair selection (Keerthi et
al., "Improvements to Platt's SMO Algorithm", Neural Computation 2001).

- Pair rule: with yG = -y * G, i maximizes yG over the multipliers whose
  y_i a_i can still grow (a < C with y = +1, a > 0 with y = -1), and j
  minimizes yG over those whose y_j a_j can still shrink (a > 0 with
  y = +1, a < C with y = -1). The pair moves by the gap yG_i - yG_j over
  K_ii + K_jj - 2 K_ij, clipped to the box; a flat or concave direction
  goes to the bound. G is updated from the two kernel rows.
- Stop rule: the gap yG_i - yG_j is at most tol. Then some bias puts every
  y_i f(x_i) within tol of what the KKT conditions ask, and the final bias
  (see train_svm) is one.
- max_passes caps the solver at max_passes * n pair steps (about n steps
  per pass over the data). The converged flag records whether the KKT
  conditions hold within tol at exit, and a UserWarning reports when they
  do not.

Every kernel value comes from one formula, (gamma <x, z> + coef0)^degree.
gamma None means 1 / (number of features); train_svm resolves it, so a model
stores the gamma it was trained with. SMO reads kernel rows from one source:
blocks of consecutive rows, each one sparse product with the transposed
training matrix (built once), kept in a FIFO cache of GRAM_BUDGET_BYTES. A
block is the whole Gram matrix when that fits in the budget, and one row
otherwise. The margins g_i = sum_j a_j y_j K_ij that the final bias and the
KKT check need are read from the dual gradient, g_i = y_i (G_i + 1), so the
trainer holds O(n) floats beyond the cache.

Label encoding is fixed: Fake = +1, Real = -1, so a positive decision value
means Fake. Ties (decision exactly 0) go to Fake.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

from .corpus import Label

#: The size of train_svm's kernel-row cache: the whole Gram matrix when it
#: fits, else as many single rows as fit (at least two).
GRAM_BUDGET_BYTES = 512e6


class SvmError(ValueError):
    pass


def _check_finite(**values: float | None) -> None:
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            raise SvmError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class KernelParams:
    """K(x, z) = (gamma * <x, z> + coef0) ** degree; gamma None means
    1 / (number of features)."""

    degree: int = 1
    gamma: float | None = 1.0
    coef0: float = 0.0

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise SvmError(f"degree must be >= 1, got {self.degree}")
        _check_finite(gamma=self.gamma, coef0=self.coef0)
        if self.gamma is not None and not self.gamma > 0:
            raise SvmError(f"gamma must be positive, got {self.gamma}")


@dataclass
class SvmModel:
    support_vectors: sparse.csr_matrix
    dual_coef: np.ndarray  # alpha_i * y_i for each stored support vector
    bias: float
    kernel: KernelParams
    C: float
    converged: bool
    #: the training rows the support vectors are, ascending (train_svm sets it)
    support: np.ndarray | None = None

    @property
    def n_features(self) -> int:
        return int(self.support_vectors.shape[1])

    @property
    def n_support(self) -> int:
        return int(self.dual_coef.shape[0])

    @functools.cached_property
    def support_vectors_t(self) -> sparse.csr_matrix:
        """The support vectors transposed, converted once for decision_function."""
        return self.support_vectors.T.tocsr()


def labels_to_signs(labels) -> np.ndarray:
    """Fake -> +1, Real -> -1."""
    return np.array([1.0 if l == Label.FAKE else -1.0 for l in labels], dtype=np.float64)


def signs_to_labels(signs) -> list[Label]:
    return [Label.FAKE if s >= 0 else Label.REAL for s in np.asarray(signs)]


def _kernel(params: KernelParams, dots: np.ndarray) -> np.ndarray:
    """Kernel values from the inner products <x, z>."""
    return (params.gamma * dots + params.coef0) ** params.degree


def check_solver_params(C: float, tol: float, max_passes: int) -> None:
    """Refuse a box bound C, stop tolerance or step cap SMO cannot train with."""
    _check_finite(C=C, tol=tol)
    if not C > 0:
        raise SvmError(f"C must be positive, got {C}")
    if not tol > 0:
        raise SvmError(f"tol must be positive, got {tol}")
    if max_passes < 1:
        raise SvmError(f"max_passes must be >= 1, got {max_passes}")


def train_svm(
    X: sparse.spmatrix,
    y,
    params: KernelParams | None = None,
    C: float = 1.0,
    tol: float = 1e-3,
    max_passes: int = 200,
) -> SvmModel:
    """SMO on the dual QP. See module docstring for the pair and stop rules.

    The bias is recomputed after convergence as the mean of y_i - g(x_i)
    over unbounded support vectors (0 < alpha < C); with none unbounded it
    falls back to the midpoint of the interval the bound multipliers' KKT
    conditions allow.
    """
    X = sparse.csr_matrix(X).astype(np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    n = X.shape[0]
    if y.shape[0] != n:
        raise SvmError(f"got {n} rows but {y.shape[0]} labels")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise SvmError("labels must be +/-1")
    if np.unique(y).size < 2:
        raise SvmError("training requires both classes present")
    if not np.all(np.isfinite(X.data)):
        raise SvmError("non-finite feature values")
    check_solver_params(C, tol, max_passes)
    params = params or KernelParams(gamma=None)
    if params.gamma is None:
        params = replace(params, gamma=1.0 / max(1, X.shape[1]))

    block = n if n * n * 8 <= GRAM_BUDGET_BYTES else 1
    max_blocks = max(2, int(GRAM_BUDGET_BYTES / (block * n * 8)))
    cache: dict[int, np.ndarray] = {}
    X_t = X.T.tocsr()

    def kernel_row(i: int) -> np.ndarray:
        start = i - i % block
        rows = cache.get(start)
        if rows is None:
            rows = _kernel(params, (X[start:start + block] @ X_t).toarray())
            if len(cache) >= max_blocks:
                cache.pop(next(iter(cache)))
            cache[start] = rows
        return rows[i - start]

    # K_ii from the row norms, so the diagonal needs no kernel row
    diag = _kernel(params, np.asarray(X.multiply(X).sum(axis=1)).ravel())
    alpha = np.zeros(n, dtype=np.float64)
    G = np.full(n, -1.0)  # gradient of the dual objective, Q alpha - 1
    bound_eps = 1e-10 * C
    pos = y > 0
    for _ in range(max_passes * n):
        yG = -y * G
        below_C, above_0 = alpha < C - bound_eps, alpha > bound_eps
        i = int(np.argmax(np.where(np.where(pos, below_C, above_0), yG, -np.inf)))
        j = int(np.argmin(np.where(np.where(pos, above_0, below_C), yG, np.inf)))
        gap = yG[i] - yG[j]
        if gap <= tol:
            break
        Ki, Kj = kernel_row(i), kernel_row(j)
        room_i = C - alpha[i] if pos[i] else alpha[i]
        room_j = alpha[j] if pos[j] else C - alpha[j]
        # a flat or concave direction has its optimum at the bound
        t = min(gap / max(diag[i] + diag[j] - 2.0 * Ki[j], 1e-12), room_i, room_j)
        alpha[i] += y[i] * t
        alpha[j] -= y[j] * t
        G += t * y * (Ki - Kj)

    # snap multipliers that drifted within rounding of the box bounds
    alpha[alpha < bound_eps] = 0.0
    alpha[alpha > C - bound_eps] = C

    g = y * (G + 1.0)  # g_i = sum_j alpha_j y_j K_ij, since G = Q alpha - 1
    bias = _final_bias(alpha, y, g, C)
    if not (math.isfinite(bias) and np.isfinite(alpha).all()):
        raise SvmError("SMO diverged: the bias or a dual coefficient is not finite")
    converged = _kkt_excess(alpha, y, g + bias, C, tol) <= 1e-12
    if not converged:
        warnings.warn(f"SMO did not converge within max_passes={max_passes} "
                      f"(KKT conditions violated beyond tol={tol})", stacklevel=2)

    sv = np.flatnonzero(alpha > 0.0)
    return SvmModel(
        support_vectors=sparse.csr_matrix(X[sv]),
        dual_coef=(alpha[sv] * y[sv]),
        bias=bias,
        kernel=params,
        C=C,
        converged=converged,
        support=sv,
    )


def _kkt_excess(alpha, y, f, C, tol) -> float:
    """Largest violation of the KKT conditions beyond the stated tolerance band:
    alpha=0 wants y*f >= 1-tol, 0<alpha<C wants |y*f - 1| <= tol, alpha=C wants
    y*f <= 1+tol. Returns 0 when every condition holds."""
    yf = y * f
    excess = 0.0
    at0 = alpha <= 0.0
    atC = alpha >= C
    mid = ~at0 & ~atC
    if at0.any():
        excess = max(excess, float(np.max((1.0 - tol) - yf[at0], initial=0.0)))
    if atC.any():
        excess = max(excess, float(np.max(yf[atC] - (1.0 + tol), initial=0.0)))
    if mid.any():
        excess = max(excess, float(np.max(np.abs(yf[mid] - 1.0) - tol, initial=0.0)))
    return excess


def _final_bias(alpha, y, g, C) -> float:
    unbounded = (alpha > 0.0) & (alpha < C)
    if unbounded.any():
        return float(np.mean(y[unbounded] - g[unbounded]))
    # every multiplier at a bound: b lies between max y - g where y * alpha can
    # grow (alpha = 0, y = +1 or alpha = C, y = -1) and min y - g where it can
    # shrink; y'alpha = 0 keeps both sets non-empty (Keerthi et al. 2001)
    up = (y > 0) == (alpha == 0.0)
    y_minus_g = y - g
    return float((y_minus_g[up].max() + y_minus_g[~up].min()) / 2.0)


def decision_function(model: SvmModel, X) -> np.ndarray:
    """f(x) = sum_i (alpha_i y_i) K(sv_i, x) + b, vectorized over rows of X."""
    X = sparse.csr_matrix(X).astype(np.float64)
    if X.shape[1] != model.n_features:
        raise SvmError(
            f"dimension mismatch: model has {model.n_features} features, input has {X.shape[1]}"
        )
    dots = (X @ model.support_vectors_t).toarray()
    return _kernel(model.kernel, dots) @ model.dual_coef + model.bias
