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

Label encoding is fixed: Fake = +1, Real = -1, so a positive decision value
means Fake. Ties (decision exactly 0) go to Fake.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .corpus import Label


class SvmError(ValueError):
    pass


@dataclass(frozen=True)
class KernelParams:
    """K(x, z) = (gamma * <x, z> + coef0) ** degree."""

    degree: int = 1
    gamma: float = 1.0
    coef0: float = 0.0

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise SvmError(f"degree must be >= 1, got {self.degree}")
        if not self.gamma > 0:
            raise SvmError(f"gamma must be positive, got {self.gamma}")


@dataclass
class SvmModel:
    support_vectors: sparse.csr_matrix
    dual_coef: np.ndarray  # alpha_i * y_i for each stored support vector
    bias: float
    kernel: KernelParams
    C: float
    converged: bool
    n_features: int

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


def _gram(X: sparse.csr_matrix, params: KernelParams) -> np.ndarray:
    G = np.asarray((X @ X.T).todense(), dtype=np.float64)
    return (params.gamma * G + params.coef0) ** params.degree


def train_svm(
    X: sparse.spmatrix,
    y,
    params: KernelParams | None = None,
    C: float = 1.0,
    tol: float = 1e-3,
    max_passes: int = 200,
    gram_budget_mb: float = 512.0,
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
    if C <= 0:
        raise SvmError(f"C must be positive, got {C}")
    if params is None:
        params = KernelParams(degree=1, gamma=1.0 / max(1, X.shape[1]), coef0=0.0)

    if n * n * 8 <= gram_budget_mb * 1e6:
        K = _gram(X, params)
        kernel_row = lambda i: K[i]
    else:
        # bounded FIFO row cache for corpora too large for a full Gram matrix
        cache: dict[int, np.ndarray] = {}
        max_rows = max(2, int(gram_budget_mb * 1e6 / (n * 8)))

        def kernel_row(i: int) -> np.ndarray:
            row = cache.get(i)
            if row is None:
                row = (params.gamma * np.asarray((X[i] @ X.T).todense()).ravel()
                       + params.coef0) ** params.degree
                if len(cache) >= max_rows:
                    cache.pop(next(iter(cache)))
                cache[i] = row
            return row

    # K_ii from the row norms, so both kernel paths see the same diagonal
    sq_norms = np.asarray(X.multiply(X).sum(axis=1)).ravel()
    diag = (params.gamma * sq_norms + params.coef0) ** params.degree
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

    g = _margins(X, y, alpha, params, kernel_row, n)
    bias = _final_bias(alpha, y, g, C)
    converged = _kkt_excess(alpha, y, g + bias, C, tol) <= 1e-12
    if not converged:
        warnings.warn(f"SMO did not converge within max_passes={max_passes} "
                      f"(KKT conditions violated beyond tol={tol})", stacklevel=2)

    sv = alpha > 0.0
    model = SvmModel(
        support_vectors=sparse.csr_matrix(X[sv]),
        dual_coef=(alpha[sv] * y[sv]),
        bias=bias,
        kernel=params,
        C=C,
        converged=converged,
        n_features=X.shape[1],
    )
    return model


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


def _margins(X, y, alpha, params, kernel_row, n) -> np.ndarray:
    """g_i = sum_j alpha_j y_j K(x_j, x_i), the decision values without bias."""
    ay = alpha * y
    nz = np.nonzero(ay)[0]
    if nz.size == 0:
        return np.zeros(n, dtype=np.float64)
    G = np.vstack([kernel_row(int(j)) for j in nz])
    return ay[nz] @ G


def _final_bias(alpha, y, g, C) -> float:
    unbounded = (alpha > 0.0) & (alpha < C)
    if unbounded.any():
        return float(np.mean(y[unbounded] - g[unbounded]))
    # all multipliers at a bound: the KKT inequalities pin b to an interval
    lower_at0 = (alpha == 0.0) & (y > 0)   # need b >= 1 - g
    lower_atC = (alpha == C) & (y < 0)     # need b >= -1 - g
    upper_at0 = (alpha == 0.0) & (y < 0)   # need b <= -1 - g
    upper_atC = (alpha == C) & (y > 0)     # need b <= 1 - g
    lows = np.concatenate([(1.0 - g[lower_at0]), (-1.0 - g[lower_atC])])
    highs = np.concatenate([(-1.0 - g[upper_at0]), (1.0 - g[upper_atC])])
    if lows.size and highs.size:
        return float((lows.max() + highs.min()) / 2.0)
    if lows.size:
        return float(lows.max())
    return float(highs.min())


def decision_function(model: SvmModel, X) -> np.ndarray:
    """f(x) = sum_i (alpha_i y_i) K(sv_i, x) + b, vectorized over rows of X."""
    X = sparse.csr_matrix(X).astype(np.float64)
    if X.shape[1] != model.n_features:
        raise SvmError(
            f"dimension mismatch: model has {model.n_features} features, input has {X.shape[1]}"
        )
    if model.n_support == 0:
        return np.full(X.shape[0], model.bias, dtype=np.float64)
    D = np.asarray((X @ model.support_vectors_t).todense(), dtype=np.float64)
    Kmat = (model.kernel.gamma * D + model.kernel.coef0) ** model.kernel.degree
    return Kmat @ model.dual_coef + model.bias
