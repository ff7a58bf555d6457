"""Nonnegative matrix factorisation with NNDSVD initialisation.

Minimises half the squared Frobenius reconstruction error
``0.5 * ||X - W H||^2`` by the classic multiplicative updates

    W <- W * (X H^T) / (W H H^T + eps)
    H <- H * (W^T X) / (W^T W H + eps)

(the alternating form, each half-step using the freshly updated other
factor, which makes the objective non-increasing).  A small ``eps`` in
the denominators and a floor under the NNDSVD zeros keep the updates from
locking entries at exact zero.

No D x V array is formed from a sparse input.  NNDSVD takes the K leading
singular triplets from a restarted Golub-Kahan-Lanczos bidiagonalisation
(``_leading_svd``): it holds w = min(max(2K + 1, 20), min(D, V)) basis
vectors per side, w (D + V) floats (ARPACK's default ``ncv``), plus one
residual vector, and starts from a fixed vector, so the output is
deterministic.  The objective comes from K x K Gramians,

    ||X - W H||^2 = ||X||^2 - 2 <W^T X, H> + <W^T W, H H^T>,

reusing the ``W^T X`` and ``W^T W`` of the H update.  Dense memory beyond
the input is O((D + V) K).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.sparse as sp

from .vectorize import DocTermMatrix, check_k, check_nonnegative, check_setting, settled

__all__ = ["NmfModel", "nndsvd_init", "nmf_objective", "fit_nmf"]

# Floor for update denominators and for NNDSVD's structural zeros;
# multiplicative updates cannot move an entry off exact zero.
_EPS = 1e-12

# The Lanczos stops once every wanted Ritz triplet's residual is at most
# _LANCZOS_TOL of the largest Ritz value, and fails after _MAX_RESTARTS restarts.
_LANCZOS_TOL = 1e-14
_MAX_RESTARTS = 1000
_ROTATE_COLUMNS = 4096  # a restart's temporary holds keep x this many floats


@dataclass
class NmfModel:
    doc_topic: np.ndarray  # (D, K), >= 0
    topic_term: np.ndarray  # (K, V), >= 0
    objective_trace: list[float]
    converged: bool


def _as_2d(x) -> sp.csr_matrix | np.ndarray:
    if isinstance(x, DocTermMatrix):
        x = x.values
    if sp.issparse(x):
        mat = x.tocsr()
        if not mat.has_canonical_format:
            # ||X||^2 is summed over the stored entries: merge duplicates first.
            mat = mat.copy()
            mat.sum_duplicates()
        return mat
    return np.asarray(x, dtype=np.float64)


def _sq_norm(mat) -> float:
    data = mat.data if sp.issparse(mat) else mat
    return float(np.sum(data * data))


def _check_factor_shapes(mat, doc_topic: np.ndarray, topic_term: np.ndarray) -> None:
    if doc_topic.shape[0] != mat.shape[0] or topic_term.shape[1] != mat.shape[1] \
            or doc_topic.shape[1] != topic_term.shape[0]:
        raise ValueError(
            f"factor shapes {doc_topic.shape} x {topic_term.shape} do not match "
            f"matrix shape {mat.shape}"
        )


def nndsvd_init(x, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Nonnegative double SVD initialisation.

    Builds the factor pair from the k leading singular triplets: the
    leading triplet is taken with absolute values, and every later
    component keeps whichever sign section (positive or negative parts of
    the singular vector pair) carries more mass.  Structural zeros are
    floored at 1e-12 so later multiplicative updates can move them.
    """
    mat = _as_2d(x)
    check_nonnegative(mat, "NMF input")
    n_rows, n_cols = mat.shape
    check_k(k, min(n_rows, n_cols), f"the smaller side of a {n_rows}x{n_cols} matrix")

    try:
        if k < min(n_rows, n_cols):
            u, s, vt = _leading_svd(mat, k)
        else:
            # The Lanczos needs k < min(D, V).  Here the dense copy holds
            # min(D, V) * max(D, V) = K * max(D, V) floats, inside O((D + V) K).
            dense = mat.toarray() if sp.issparse(mat) else mat
            u, s, vt = np.linalg.svd(dense, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"SVD failed on degenerate input: {exc}") from exc
    order = np.argsort(s)[::-1]
    u, s, vt = u[:, order], s[order], vt[order, :]

    w = np.zeros((n_rows, k))
    h = np.zeros((k, n_cols))
    w[:, 0] = np.sqrt(s[0]) * np.abs(u[:, 0])
    h[0, :] = np.sqrt(s[0]) * np.abs(vt[0, :])

    # Singular values that are zero up to round-off carry no structure;
    # their components stay at the clamp floor.
    cutoff = s[0] * max(n_rows, n_cols) * np.finfo(np.float64).eps
    for j in range(1, k):
        if s[j] <= cutoff:
            continue
        uj, vj = u[:, j], vt[j, :]
        u_pos, v_pos = np.maximum(uj, 0), np.maximum(vj, 0)
        u_neg, v_neg = np.maximum(-uj, 0), np.maximum(-vj, 0)
        pos_mass = np.linalg.norm(u_pos) * np.linalg.norm(v_pos)
        neg_mass = np.linalg.norm(u_neg) * np.linalg.norm(v_neg)
        if pos_mass >= neg_mass:
            sect_u, sect_v, mass = u_pos, v_pos, pos_mass
        else:
            sect_u, sect_v, mass = u_neg, v_neg, neg_mass
        if mass > 0:
            scale = np.sqrt(s[j] * mass)
            w[:, j] = scale * sect_u / np.linalg.norm(sect_u)
            h[j, :] = scale * sect_v / np.linalg.norm(sect_v)

    return np.maximum(w, _EPS), np.maximum(h, _EPS)


def _leading_svd(mat, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The k leading singular triplets ``(u, s, vt)`` of ``mat``, s descending, k < min(D, V).

    Golub-Kahan-Lanczos bidiagonalisation ``A P = Q B`` with full
    reorthogonalisation and thick restarts (Baglama & Reichel 2005).  A pass
    extends the bases P (the smaller side) and Q to w vectors each; the SVD
    of the small upper-triangular B gives the Ritz triplets, whose
    residuals are ``beta * |last row of B's left vectors|``.  Until the k
    wanted residuals are at most ``_LANCZOS_TOL`` times the largest Ritz
    value, a restart keeps the leading ``keep`` triplets and continues from
    the residual direction.
    P starts from a fixed uniform vector, and a breakdown continues from a
    vector drawn from the same generator, so the output is deterministic.
    """
    a = mat if mat.shape[0] >= mat.shape[1] else mat.T
    a_t = a.T  # made once: building a transposed view costs as much as a small product
    n_big, n_small = a.shape
    width = min(max(2 * k + 1, 20), n_small)  # ARPACK's ncv
    keep = k + (width - k) // 2
    rng = np.random.default_rng(0)
    p, q, b = np.empty((width, n_small)), np.empty((width, n_big)), np.zeros((width, width))
    start = rng.uniform(size=n_small)
    p[0] = start / np.sqrt(_dot(start, start))
    kept = 0
    for _ in range(_MAX_RESTARTS + 1):
        for j in range(kept, width):
            x = a @ p[j]
            if j > kept:
                x -= b[j - 1, j] * q[j - 1]
            elif kept:  # the first step after a restart couples to every kept vector
                x -= _combine(b[:kept, kept], q[:kept])
            b[j, j], q[j] = _extend(x, q[:j], b.max(), rng)
            y = a_t @ q[j]
            y -= b[j, j] * p[j]
            beta, resid = _extend(y, p[:j + 1], b.max(), rng)
            if j + 1 < width:
                b[j, j + 1], p[j + 1] = beta, resid
        ub, sb, vbt = np.linalg.svd(b)
        if np.all(beta * np.abs(ub[-1, :k]) <= _LANCZOS_TOL * sb[0]):
            u, vt = _combine(ub[:, :k].T, q), _combine(vbt[:k], p)
            return (u.T, sb[:k], vt) if a is mat else (vt.T, sb[:k], u)
        kept = keep
        _rotate(q, ub[:, :kept].T)
        _rotate(p, vbt[:kept])
        p[kept] = resid
        b[:] = 0.0
        b[:kept, :kept] = np.diag(sb[:kept])
        b[:kept, kept] = beta * ub[-1, :kept]
    raise np.linalg.LinAlgError(f"Lanczos did not converge in {_MAX_RESTARTS} restarts")


# Products with the bases are einsum loops, not BLAS calls, so with a sparse
# input the bits do not depend on the BLAS thread count.
def _dot(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.einsum("i,i->", x, y))


def _combine(coef: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """``coef @ basis`` for the row vectors of ``basis``."""
    return np.einsum("...i,ij->...j", coef, basis)


def _rotate(basis: np.ndarray, coef: np.ndarray) -> None:
    """``basis[:len(coef)] = coef @ basis`` in place, a block of columns at a time."""
    for start in range(0, basis.shape[1], _ROTATE_COLUMNS):
        cols = basis[:, start:start + _ROTATE_COLUMNS]
        cols[:len(coef)] = _combine(coef, cols)


def _extend(x: np.ndarray, basis: np.ndarray, scale: float, rng) -> tuple[float, np.ndarray]:
    """The norm and direction of ``x`` orthogonalised against the rows of ``basis``.

    A remainder at round-off level of ``scale`` is a breakdown: the norm is
    0 and the direction a fresh random one orthogonal to ``basis`` (zeros
    once ``basis`` spans the space).
    """
    norm = _orthogonalise(x, basis)
    if norm > 0.0 and norm > np.finfo(np.float64).eps * scale:
        return norm, x / norm
    if len(basis) >= len(x):
        return 0.0, np.zeros_like(x)
    fresh = rng.uniform(-1.0, 1.0, size=len(x))
    return 0.0, fresh / _orthogonalise(fresh, basis)


def _orthogonalise(x: np.ndarray, basis: np.ndarray) -> float:
    """Classical Gram-Schmidt, twice, against the rows of ``basis``, in place; the new norm."""
    for _ in range(2):
        x -= _combine(np.einsum("ij,j->i", basis, x), basis)
    return np.sqrt(_dot(x, x))


def nmf_objective(x, doc_topic: np.ndarray, topic_term: np.ndarray) -> float:
    """Half the squared Frobenius norm of the reconstruction residual."""
    mat = _as_2d(x)
    _check_factor_shapes(mat, doc_topic, topic_term)
    return _half_residual(
        _sq_norm(mat), (mat.T @ doc_topic).T, doc_topic.T @ doc_topic,
        topic_term, topic_term @ topic_term.T,
    )


def _half_residual(norm_x_sq: float, wtx, wtw, h, hht) -> float:
    """``0.5 * ||X - W H||^2`` from ``||X||^2``, ``W^T X``, ``W^T W``, H and ``H H^T``."""
    return 0.5 * residual_norm_sq(norm_x_sq, float(np.sum(wtx * h)), (wtw, hht))


def residual_norm_sq(norm_x_sq: float, inner: float, grams) -> float:
    """``||X - Xhat||^2 = ||X||^2 - 2 <X, Xhat> + ||Xhat||^2`` for a CP model
    (NMF is the two-way case), with ``||Xhat||^2`` the sum of the elementwise
    product of the factor Gramians; clamped at 0 against round-off."""
    return max(norm_x_sq - 2.0 * inner + float(np.sum(reduce(np.multiply, grams))), 0.0)


def fit_nmf(
    x,
    k: int,
    max_iter: int = 300,
    tol: float = 1e-6,
    seed: int = 0,
    init: tuple[np.ndarray, np.ndarray] | None = None,
) -> NmfModel:
    """Fit NMF by multiplicative updates from an NNDSVD start.

    The objective trace starts at the initial point and gains one entry
    per iteration; it is non-increasing.  Iteration stops when the
    objective is 0 or changes by at most ``tol`` of itself, or after
    ``max_iter`` updates.  With the deterministic NNDSVD start the result
    does not depend on ``seed``; an explicit ``init=(doc_topic0,
    topic_term0)`` overrides it.
    """
    check_setting("max_iter", max_iter, 1)
    check_setting("tol", tol, 0, integer=False)
    mat = _as_2d(x)
    if init is None:
        w, h = nndsvd_init(mat, k)  # checks the input and k
    else:
        check_nonnegative(mat, "NMF input")
        check_k(k, min(mat.shape), f"the smaller side of a {mat.shape[0]}x{mat.shape[1]} matrix")
        w, h = np.array(init[0], dtype=np.float64), np.array(init[1], dtype=np.float64)
        check_nonnegative(w, "initial doc_topic")
        check_nonnegative(h, "initial topic_term")
        _check_factor_shapes(mat, w, h)

    norm_x_sq = _sq_norm(mat)
    mat_t = mat.T  # made once: building a transposed view costs as much as a small product
    hht = h @ h.T
    trace = [_half_residual(norm_x_sq, (mat_t @ w).T, w.T @ w, h, hht)]
    converged = False
    for iteration in range(max_iter):
        w = w * ((mat @ h.T) / (w @ hht + _EPS))
        wtx = (mat_t @ w).T
        wtw = w.T @ w
        h = h * (wtx / (wtw @ h + _EPS))
        hht = h @ h.T
        converged = settled(trace, _half_residual(norm_x_sq, wtx, wtw, h, hht), tol,
                            "NMF", f"iteration {iteration + 1}", w, h)
        if converged:
            break

    return NmfModel(
        doc_topic=w,
        topic_term=h,
        objective_trace=trace,
        converged=converged,
    )
