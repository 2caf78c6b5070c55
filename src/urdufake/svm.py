"""Polynomial-kernel SVM trained by sequential minimal optimization.

The dual QP is solved two multipliers at a time with a deterministic sweep:
the first index walks 0..n-1 looking for a KKT violation, the second is
chosen to maximize |E_i - E_j| (falling back through the remaining
candidates in that order if the step makes no progress). Training stops
when a full sweep finds no violation or moves no multiplier at all, capped
at max_passes; the converged flag records whether the KKT conditions hold
within tol at exit, and a UserWarning reports when they do not.

Label encoding is fixed: Fake = +1, Real = -1, so a positive decision value
means Fake. Ties (decision exactly 0) go to Fake.
"""

from __future__ import annotations

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
    """SMO on the dual QP. See module docstring for the sweep strategy.

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

    alpha = np.zeros(n, dtype=np.float64)
    b = 0.0
    # E_i = f(x_i) - y_i under the current alpha and running bias
    E = -y.copy()
    bound_eps = 1e-10 * C

    def take_step(i: int, j: int) -> float:
        nonlocal b, E
        if i == j:
            return 0.0
        ai, aj = alpha[i], alpha[j]
        yi, yj = y[i], y[j]
        Ei, Ej = E[i], E[j]
        s = yi * yj
        if yi != yj:
            L, H = max(0.0, aj - ai), min(C, C + aj - ai)
        else:
            L, H = max(0.0, ai + aj - C), min(C, ai + aj)
        if H - L < 1e-12:
            return 0.0
        Ki = kernel_row(i)
        Kj = kernel_row(j)
        kii, kjj, kij = Ki[i], Kj[j], Ki[j]
        eta = kii + kjj - 2.0 * kij
        if eta > 1e-12:
            aj_new = aj + yj * (Ei - Ej) / eta
            aj_new = min(max(aj_new, L), H)
        else:
            # flat or concave direction: evaluate the objective at both ends
            f1 = yi * (Ei + b) - ai * kii - s * aj * kij
            f2 = yj * (Ej + b) - s * ai * kij - aj * kjj
            L1 = ai + s * (aj - L)
            H1 = ai + s * (aj - H)
            obj_l = L1 * f1 + L * f2 + 0.5 * L1 * L1 * kii + 0.5 * L * L * kjj + s * L * L1 * kij
            obj_h = H1 * f1 + H * f2 + 0.5 * H1 * H1 * kii + 0.5 * H * H * kjj + s * H * H1 * kij
            if obj_l < obj_h - 1e-12:
                aj_new = L
            elif obj_l > obj_h + 1e-12:
                aj_new = H
            else:
                return 0.0
        d_aj = aj_new - aj
        if abs(d_aj) < 1e-12:
            return 0.0
        ai_new = ai + s * (aj - aj_new)
        ai_new = min(max(ai_new, 0.0), C)
        d_ai = ai_new - ai

        b1 = b - Ei - yi * d_ai * kii - yj * d_aj * kij
        b2 = b - Ej - yi * d_ai * kij - yj * d_aj * kjj
        if bound_eps < ai_new < C - bound_eps:
            b_new = b1
        elif bound_eps < aj_new < C - bound_eps:
            b_new = b2
        else:
            b_new = 0.5 * (b1 + b2)

        E += yi * d_ai * Ki + yj * d_aj * Kj + (b_new - b)
        alpha[i], alpha[j] = ai_new, aj_new
        b = b_new
        return max(abs(d_ai), abs(d_aj))

    # screening at tol/2 keeps the spread of implied biases over unbounded
    # support vectors within tol, so the averaged final bias satisfies the
    # KKT conditions within tol
    screen_tol = 0.5 * tol
    for _ in range(max_passes):
        max_delta = 0.0
        n_violations = 0
        for i in range(n):
            r = y[i] * E[i]
            if (r < -screen_tol and alpha[i] < C - bound_eps) or (
                r > screen_tol and alpha[i] > bound_eps
            ):
                n_violations += 1
                gaps = np.abs(E - E[i])
                gaps[i] = -1.0
                delta = take_step(i, int(np.argmax(gaps)))
                if delta == 0.0:
                    for j in np.argsort(-gaps, kind="stable"):
                        delta = take_step(i, int(j))
                        if delta > 0.0:
                            break
                max_delta = max(max_delta, delta)
        if n_violations == 0 or max_delta == 0.0:
            break

    # snap multipliers that drifted within rounding of the box bounds
    alpha[alpha < bound_eps] = 0.0
    alpha[alpha > C - bound_eps] = C

    g = _margins(X, y, alpha, params, kernel_row, n)
    bias = _final_bias(alpha, y, g, C, b)
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


def _final_bias(alpha, y, g, C, running_b) -> float:
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
    if highs.size:
        return float(highs.min())
    return float(running_b)


def decision_function(model: SvmModel, X) -> np.ndarray:
    """f(x) = sum_i (alpha_i y_i) K(sv_i, x) + b, vectorized over rows of X."""
    X = sparse.csr_matrix(X).astype(np.float64)
    if X.shape[1] != model.n_features:
        raise SvmError(
            f"dimension mismatch: model has {model.n_features} features, input has {X.shape[1]}"
        )
    if model.n_support == 0:
        return np.full(X.shape[0], model.bias, dtype=np.float64)
    D = np.asarray((X @ model.support_vectors.T).todense(), dtype=np.float64)
    Kmat = (model.kernel.gamma * D + model.kernel.coef0) ** model.kernel.degree
    return Kmat @ model.dual_coef + model.bias
