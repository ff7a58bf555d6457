"""Latent Dirichlet Allocation fitted by batch variational inference.

The fit alternates an E-step (coordinate ascent on the variational
Dirichlet parameters of all documents at once, warm-started across
iterations) with a global M-step, and records the evidence lower bound
after every iteration.  The bound has the word responsibilities
collapsed out, so every gamma update and every lambda update is an exact
block coordinate-ascent step on it: the recorded bound is non-decreasing
up to floating-point noise for any number of inner updates.

Each E-step caps a document's gamma updates on a doubling schedule:
256 on the first outer iteration, 512 on the second and 1000 from the
third on.  The first E-step runs against a random lambda that the
M-step replaces, so driving its gammas to a fixed point is mostly wasted
work; the cap bounds it, as online VB (Hoffman, Blei & Bach 2010) and
scikit-learn's ``max_doc_update_iter`` do.

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
# threshold of Hoffman, Blei & Bach 2010; at 1e-5 the K=5 fit of the
# planted acceptance corpus already ends at a lower optimum), or at the
# E-step's cap.  The cap of outer iteration t is
# min(_INNER_MAX_ITER, _INNER_FIRST * 2**t): 256, 512, then 1000.
# _INNER_FIRST is the smallest power of two at which no planted K (2-6)
# ends at a lower bound than under a flat cap of 1000; at 128 and 64 the
# K=4 fit settles at a lower fixed point.
_INNER_MAX_ITER = 1000
_INNER_FIRST = 256
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


def _nnz_rows(lengths) -> np.ndarray:
    """Row index of every stored entry of a CSR matrix with these row lengths."""
    return np.repeat(np.arange(len(lengths)), lengths)


def _e_step(mat, gamma, expElogbeta, alpha, max_trips):
    """Coordinate ascent on every document's gamma at once.

    Updates ``gamma`` in place and returns the sufficient statistics and
    the number of per-document gamma updates made.  Each trip updates all
    active documents from the nnz arrays; a document leaves the active
    set once its mean absolute gamma change is below ``_INNER_TOL`` times
    its mean gamma, or after ``max_trips`` updates.
    """
    betaT = np.ascontiguousarray(expElogbeta.T)
    lengths = np.diff(mat.indptr)
    rows = _nnz_rows(lengths)
    betad = betaT.take(mat.indices, axis=0)  # (nnz, K)
    expElogtheta = np.exp(_dirichlet_expectation(gamma))

    # Active set: its document ids and its slices of the nnz arrays, with
    # each document's entry count, local row ids and first entry.  The
    # segment sums rely on _validate_tf: reduceat returns a[start], not
    # zero, for an empty segment, and no row is empty.  Rows are gathered
    # with take, which copies them several times faster than fancy indexing.
    active = np.arange(mat.shape[0])
    cts, sub_rows, sub_betad, starts = mat.data, rows, betad, mat.indptr[:-1]
    updates = 0
    for _ in range(max_trips):
        thetad = expElogtheta.take(active, axis=0)
        phinorm = np.einsum("nk,nk->n", thetad.take(sub_rows, axis=0), sub_betad) + 1e-100
        new = alpha + thetad * np.add.reduceat(sub_betad * (cts / phinorm)[:, None], starts)
        updates += len(active)
        change = np.abs(new - gamma.take(active, axis=0)).sum(axis=1)
        # mean |change| >= tol * mean gamma, both means over the same K topics
        moving = change >= _INNER_TOL * new.sum(axis=1)
        gamma[active] = new
        expElogtheta[active] = np.exp(_dirichlet_expectation(new))
        if not moving.any():
            break
        if not moving.all():
            kept = moving[sub_rows]
            active, lengths = active[moving], lengths[moving]
            cts, sub_betad = cts[kept], sub_betad[kept]
            sub_rows = _nnz_rows(lengths)
            starts = np.cumsum(lengths) - lengths

    phinorm = np.einsum("nk,nk->n", expElogtheta.take(rows, axis=0), betad) + 1e-100
    ratio = sp.csr_matrix((mat.data / phinorm, mat.indices, mat.indptr), shape=mat.shape)
    return (ratio.T @ expElogtheta).T * expElogbeta, updates


def _bound(mat, gamma, lam, alpha, beta) -> float:
    """Evidence lower bound of the corpus under the variational posterior."""
    n_docs, _ = gamma.shape
    k, n_terms = lam.shape
    Elogtheta = _dirichlet_expectation(gamma)
    Elogbeta = _dirichlet_expectation(lam)

    rows = _nnz_rows(np.diff(mat.indptr))
    log_phinorm = logsumexp(Elogtheta[rows] + Elogbeta.T[mat.indices], axis=1)
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
        max_trips = min(_INNER_MAX_ITER, _INNER_FIRST << iteration)
        sstats, updates = _e_step(mat, gamma, expElogbeta, alpha, max_trips)
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
