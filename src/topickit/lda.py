"""Latent Dirichlet Allocation fitted by batch variational inference.

The fit alternates an E-step (coordinate ascent on the variational
Dirichlet parameters of all documents at once, warm-started across
iterations) with a global M-step, and records the evidence lower bound
after every iteration.  The bound has the word responsibilities
collapsed out, so every gamma update and every lambda update is an exact
block coordinate-ascent step on it: the recorded bound is non-decreasing
up to floating-point noise for any number of inner updates.

Both Dirichlet priors are symmetric and fixed at 1/K.  Stored matrices
are the normalised variational means: each row of ``doc_topic`` and
``topic_term`` is a probability distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.special import gammaln, logsumexp, psi

from .vectorize import DocTermMatrix

__all__ = ["LdaConfig", "LdaModel", "fit_lda", "lda_elbo"]

# Inner gamma updates per E-step: a document stops once its mean absolute
# gamma change is below _INNER_TOL times its mean gamma (the relative
# threshold of Hoffman, Blei & Bach 2010).  At 1e-5 the K=5 fit of the
# planted acceptance corpus already ends at a lower optimum.
_INNER_MAX_ITER = 1000
_INNER_TOL = 1e-6


@dataclass(frozen=True)
class LdaConfig:
    """Topic count and solver settings."""

    k: int
    max_iter: int = 200
    tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


@dataclass
class LdaModel:
    doc_topic: np.ndarray  # (D, K), rows sum to 1
    topic_term: np.ndarray  # (K, V), rows sum to 1
    elbo_trace: list[float]
    alpha: float  # doc-topic prior, 1/K
    beta: float  # topic-word prior, 1/K
    converged: bool
    inner_updates: int  # per-document gamma updates over all E-steps
    # Variational Dirichlet parameters the distributions were normalised
    # from; kept so the bound can be recomputed on the fitted model.
    gamma_: np.ndarray = field(repr=False, default=None)
    lambda_: np.ndarray = field(repr=False, default=None)


def _dirichlet_expectation(x: np.ndarray) -> np.ndarray:
    """E[log p] for Dirichlet rows parameterised by x."""
    if x.ndim == 1:
        return psi(x) - psi(np.sum(x))
    return psi(x) - psi(np.sum(x, axis=1))[:, np.newaxis]


def _validate_tf(tf: DocTermMatrix) -> sp.csr_matrix:
    if tf.weighting != "tf":
        raise ValueError(f"LDA requires raw term counts, got weighting {tf.weighting!r}")
    mat = tf.values.tocsr()
    bad = ~np.isfinite(mat.data) | (mat.data < 0)
    if np.any(bad):
        row = np.searchsorted(mat.indptr, np.argmax(bad), side="right") - 1
        raise ValueError(f"TF counts must be nonnegative and finite: doc {tf.doc_ids[row]!r}")
    if mat.nnz and np.any(mat.data != np.floor(mat.data)):
        raise ValueError("TF matrix must contain integer counts")
    row_sums = np.asarray(mat.sum(axis=1)).ravel()
    if np.any(row_sums == 0):
        empty = [tf.doc_ids[i] for i in np.flatnonzero(row_sums == 0)]
        raise ValueError(f"all-zero TF rows must be filtered upstream: {', '.join(empty)}")
    return mat


def _nnz_rows(mat) -> np.ndarray:
    """Row index of every stored entry of a CSR matrix."""
    return np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))


def _e_step(mat, gamma, expElogbeta, alpha):
    """Coordinate ascent on every document's gamma at once.

    Updates ``gamma`` in place and returns the sufficient statistics and
    the number of per-document gamma updates made.  Each trip updates all
    active documents with one sparse product; a document leaves the
    active set once its mean absolute gamma change is below
    ``_INNER_TOL`` times its mean gamma, or after ``_INNER_MAX_ITER``
    updates.
    """
    betaT = np.ascontiguousarray(expElogbeta.T)
    rows = _nnz_rows(mat)
    betad = betaT[mat.indices]  # (nnz, K)
    expElogtheta = np.exp(_dirichlet_expectation(gamma))

    # Active set: its document ids, its CSR rows (whose data is replaced
    # by counts / phinorm on every trip) and its slices of the nnz arrays.
    active = np.arange(mat.shape[0])
    ratio, cts, sub_rows, sub_betad = mat.copy(), mat.data, rows, betad
    updates = 0
    for _ in range(_INNER_MAX_ITER):
        thetad = expElogtheta[active]
        phinorm = np.einsum("nk,nk->n", thetad[sub_rows], sub_betad) + 1e-100
        ratio.data = cts / phinorm
        new = alpha + thetad * (ratio @ betaT)
        updates += len(active)
        # mean |change| >= tol * mean gamma, both means over the same K topics
        moving = np.abs(new - gamma[active]).sum(axis=1) >= _INNER_TOL * new.sum(axis=1)
        gamma[active] = new
        expElogtheta[active] = np.exp(_dirichlet_expectation(new))
        if not moving.any():
            break
        if not moving.all():
            kept = moving[sub_rows]
            active, ratio = active[moving], ratio[moving]
            cts, sub_betad, sub_rows = cts[kept], sub_betad[kept], _nnz_rows(ratio)

    phinorm = np.einsum("nk,nk->n", expElogtheta[rows], betad) + 1e-100
    ratio = sp.csr_matrix((mat.data / phinorm, mat.indices, mat.indptr), shape=mat.shape)
    return (ratio.T @ expElogtheta).T * expElogbeta, updates


def _bound(mat, gamma, lam, alpha, beta) -> float:
    """Evidence lower bound of the corpus under the variational posterior."""
    n_docs, _ = gamma.shape
    k, n_terms = lam.shape
    Elogtheta = _dirichlet_expectation(gamma)
    Elogbeta = _dirichlet_expectation(lam)

    log_phinorm = logsumexp(Elogtheta[_nnz_rows(mat)] + Elogbeta.T[mat.indices], axis=1)
    score = float(mat.data @ log_phinorm)

    # E[log p(theta | alpha)] - E[log q(theta | gamma)]
    score += float(np.sum((alpha - gamma) * Elogtheta))
    score += float(np.sum(gammaln(gamma)) - np.sum(gammaln(np.sum(gamma, axis=1))))
    score += n_docs * (gammaln(k * alpha) - k * gammaln(alpha))

    # E[log p(beta_topic | beta)] - E[log q(beta_topic | lambda)]
    score += float(np.sum((beta - lam) * Elogbeta))
    score += float(np.sum(gammaln(lam)) - np.sum(gammaln(np.sum(lam, axis=1))))
    score += k * (gammaln(n_terms * beta) - n_terms * gammaln(beta))
    return score


def fit_lda(tf: DocTermMatrix, config: LdaConfig) -> LdaModel:
    """Fit LDA on a term-count matrix.

    The topic-term parameters start from seeded Gamma(100, 0.01) noise and
    the per-document responsibilities start uniform, so identical inputs
    and seed give bitwise-identical output.  A model that hits ``max_iter``
    without meeting ``tol`` is returned with ``converged=False``.
    """
    mat = _validate_tf(tf)
    n_docs, n_terms = mat.shape
    if config.k > n_docs:
        raise ValueError(f"k={config.k} exceeds document count {n_docs}")

    alpha = beta = 1.0 / config.k
    rng = np.random.default_rng(config.seed)
    lam = rng.gamma(100.0, 0.01, (config.k, n_terms))
    # Uniform starting responsibilities: every topic gets an equal share
    # of each document's mass.
    doc_lengths = np.asarray(mat.sum(axis=1)).ravel()
    gamma = alpha + np.tile(doc_lengths[:, np.newaxis] / config.k, (1, config.k))

    trace: list[float] = []
    converged = False
    inner_updates = 0
    for iteration in range(config.max_iter):
        expElogbeta = np.exp(_dirichlet_expectation(lam))
        sstats, updates = _e_step(mat, gamma, expElogbeta, alpha)
        inner_updates += updates
        lam = beta + sstats
        bound = _bound(mat, gamma, lam, alpha, beta)
        if not (np.isfinite(bound) and np.all(np.isfinite(gamma)) and np.all(np.isfinite(lam))):
            raise RuntimeError(f"LDA update produced NaN/Inf at iteration {iteration + 1}")
        trace.append(bound)
        if len(trace) > 1:
            prev = trace[-2]
            if abs(bound - prev) <= config.tol * abs(prev):
                converged = True
                break

    return LdaModel(
        doc_topic=gamma / gamma.sum(axis=1, keepdims=True),
        topic_term=lam / lam.sum(axis=1, keepdims=True),
        elbo_trace=trace,
        alpha=alpha,
        beta=beta,
        converged=converged,
        inner_updates=inner_updates,
        gamma_=gamma,
        lambda_=lam,
    )


def lda_elbo(model: LdaModel, tf: DocTermMatrix) -> float:
    """Recompute the variational bound of a fitted model on a TF matrix."""
    mat = _validate_tf(tf)
    if model.gamma_.shape[0] != mat.shape[0] or model.lambda_.shape[1] != mat.shape[1]:
        raise ValueError(
            f"model shape ({model.gamma_.shape[0]}, {model.lambda_.shape[1]}) does not "
            f"match matrix shape {mat.shape}"
        )
    return _bound(mat, model.gamma_, model.lambda_, model.alpha, model.beta)
