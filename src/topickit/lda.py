"""Latent Dirichlet Allocation fitted by batch variational inference.

A warm-started E-step (coordinate ascent on every document's gamma)
alternates with a global M-step.  The recorded bound has the word
responsibilities collapsed out, so every gamma and lambda update is an
exact coordinate-ascent step on it, and the trace is non-decreasing for
any number of inner updates.  An E-step stops each document at a tolerance
that follows the outer progress (inexact coordinate ascent), loosest in the
first (Hoffman, Blei & Bach 2010): gamma fitted tightly to the random
starting lambda settles in a poor basin.  A cap of 12 updates binds the
first E-steps: a straggler resumes from its warm gamma in the next E-step
instead of holding each one open.  Both priors are 1/K.

The E-step holds K-major arrays, topics down and documents or stored
entries across, one row block of at most ``_BLOCK_FLOATS / K`` stored
entries at a time.  The active documents' gamma is a local (K, n_active)
block, written back as each leaves.  Every per-document value is
computed column by column, so the fit is bit-identical for any number
of blocks.

The bound's word term, sum n_dw log phinorm_dw at (gamma_t, lambda_{t+1}),
takes the phinorm that the next E-step's first trip starts from: it is
computed once after each M-step, as psi(gamma) and exp(E[log theta]) are
once after each E-step, for both the statistics and the bound.
E[log theta] is shifted by each document's maximum before ``exp``, so
phinorm cannot underflow into its 1e-100 floor; the shift cancels in the
gamma update and the bound adds it back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.special import gammaln, psi

from .vectorize import DocTermMatrix, check_k, check_nonnegative, check_setting, settled

__all__ = ["LdaConfig", "LdaModel", "fit_lda", "lda_elbo"]

# A document's inner updates stop after _INNER_MAX_ITER, or once its mean |gamma change| is below
# tol times its mean gamma; tol is _INNER_TOL_SCALE x the last relative bound change, clamped.
# Cap 12: planted K=2 ends below the flat 1e-6 fit at caps 6, 8 and 14; 16 runs 212 iterations.
_INNER_MAX_ITER, _INNER_TOL, _INNER_TOL_EARLY, _INNER_TOL_SCALE = 12, 1e-6, 1e-2, 10
# Bound on K times a row block's stored entries; a longer row is a block alone.
_BLOCK_FLOATS = 2**20


@dataclass(frozen=True)
class LdaConfig:
    """Topic count and solver settings."""

    k: int
    max_iter: int = 200
    tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        check_k(self.k)
        check_setting("max_iter", self.max_iter, 1)
        check_setting("tol", self.tol, 0, integer=False)
        check_setting("seed", self.seed, 0)


@dataclass
class LdaModel:
    doc_topic: np.ndarray  # (D, K), rows sum to 1
    topic_term: np.ndarray  # (K, V), rows sum to 1
    elbo_trace: list[float]
    alpha: float  # doc-topic prior, 1/K
    beta: float  # topic-word prior, 1/K
    converged: bool
    inner_updates: int  # per-document gamma updates over all E-steps
    # Variational parameters behind the distributions, for lda_elbo.
    gamma_: np.ndarray = field(repr=False, default=None)
    lambda_: np.ndarray = field(repr=False, default=None)


def _validate_tf(tf: DocTermMatrix) -> tuple[sp.csr_matrix, np.ndarray]:
    if tf.weighting != "tf":
        raise ValueError(f"LDA requires raw term counts, got weighting {tf.weighting!r}")
    mat = tf.values.tocsr()
    check_nonnegative(mat, "TF counts", tf.doc_ids)
    if mat.nnz and np.any(mat.data != np.floor(mat.data)):
        raise ValueError("TF matrix must contain integer counts")
    lengths = np.asarray(mat.sum(axis=1)).ravel()
    if np.any(lengths == 0):
        empty = [tf.doc_ids[i] for i in np.flatnonzero(lengths == 0)]
        raise ValueError(f"all-zero TF rows must be filtered upstream: {', '.join(empty)}")
    return mat, lengths


def _blocks(indptr, k: int) -> list[tuple]:
    """Row ranges (start, stop, first entry, end entry) of <= ``_BLOCK_FLOATS // k`` entries."""
    cap, starts = max(1, _BLOCK_FLOATS // k), [0]
    while starts[-1] < len(indptr) - 1:
        end = np.searchsorted(indptr, indptr[starts[-1]] + cap, side="right") - 1
        starts.append(max(starts[-1] + 1, int(end)))
    return [(a, b, indptr[a], indptr[b]) for a, b in zip(starts[:-1], starts[1:])]


def _colsum(x: np.ndarray) -> np.ndarray:
    """Column sums added row by row; numpy sums a lone column pairwise instead."""
    return x.sum(axis=0) if x.shape[1] > 1 else np.add.accumulate(x)[-1]


def _psi_theta(gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """psi(gamma) and exp(E[log theta]) of (K, n) gamma, each column shifted by its maximum."""
    p = psi(gamma)  # psi(sum gamma) is the same for every topic: the shift drops it
    return p, np.exp(p - p.max(axis=0))


def _phinorm(theta, lengths, betad) -> np.ndarray:
    """sum_k theta[k, d] betad[k, n] + 1e-100 per entry n, document d owning lengths[d]."""
    n = betad.shape[1]
    if n == 1:  # einsum sums a lone column in another order
        lengths, betad = lengths * 2, np.repeat(betad, 2, axis=1)
    return np.einsum("kn,kn->n", theta.repeat(lengths, axis=1), betad)[:n] + 1e-100


def _phinorm_at(mat, blocks, theta, expElogbeta) -> np.ndarray:
    """phinorm of every stored entry at (theta, expElogbeta), one row block at a time."""
    phinorm = np.empty(mat.nnz)
    for start, stop, lo, hi in blocks:
        betad = expElogbeta.take(mat.indices[lo:hi], axis=1)
        phinorm[lo:hi] = _phinorm(theta[:, start:stop], np.diff(mat.indptr[start:stop + 1]), betad)
    return phinorm


def _e_step(mat, blocks, gamma, phinorm, expElogbeta, alpha, max_trips, tol) -> int:
    """Coordinate ascent on (K, D) gamma, in place, from phinorm there; returns the updates."""
    updates = 0
    for start, stop, lo, hi in blocks:
        docs, lengths = np.arange(start, stop), np.diff(mat.indptr[start:stop + 1])
        starts = mat.indptr[start:stop] - lo  # reduceat: no row is empty (_validate_tf)
        cts, betad = mat.data[lo:hi], expElogbeta.take(mat.indices[lo:hi], axis=1)
        g, ph = gamma[:, start:stop], phinorm[lo:hi]
        th = _psi_theta(g)[1]
        for trip in range(max_trips):
            new = alpha + th * np.add.reduceat(betad * (cts / ph), starts, axis=1)
            updates += len(docs)
            # mean |change| >= tol * mean gamma, over the same K topics; all stop at the cap
            moving = (_colsum(abs(new - g)) >= tol * _colsum(new)) & (trip + 1 < max_trips)
            g, th = new, _psi_theta(new)[1]
            n_moving = np.count_nonzero(moving)
            if n_moving < len(docs):
                # compress copies columns several times faster than a boolean index
                gamma[:, docs[~moving]] = g.compress(~moving, axis=1)
                if n_moving == 0:
                    break
                kept = moving.repeat(lengths)
                docs, lengths, cts = docs[moving], lengths[moving], cts[kept]
                g, th = g.compress(moving, axis=1), th.compress(moving, axis=1)
                betad = betad.compress(kept, axis=1)
                starts = np.cumsum(lengths) - lengths
            ph = _phinorm(th, lengths, betad)
    return updates


def _sstats(mat, blocks, ratio_t, theta, expElogbeta) -> np.ndarray:
    """(K, V) sufficient statistics at theta; ratio_t (mat.T's pattern) gets n / phinorm."""
    np.divide(mat.data, _phinorm_at(mat, blocks, theta, expElogbeta), out=ratio_t.data)
    return (ratio_t @ theta.T).T * expElogbeta


def _bound(mat, blocks, gamma, lam, alpha, beta, lengths, psi_theta):
    """Evidence lower bound at ((K, D) gamma, lam), with exp(E[log beta]) and phinorm there."""
    (k, n_docs), n_terms = gamma.shape, lam.shape[1]
    (p, theta), psi_sum = psi_theta, psi(np.sum(gamma, axis=0))  # E[log theta], E[log beta]
    Elogtheta, Elogbeta = p - psi_sum, psi(lam) - psi(np.sum(lam, axis=1, keepdims=True))
    expElogbeta = np.exp(Elogbeta)
    phinorm = _phinorm_at(mat, blocks, theta, expElogbeta)
    # sum n_dw log phinorm_dw, each document's shift max_k E[log theta_dk] added back
    score = float(mat.data @ np.log(phinorm)) + float(lengths @ (p.max(axis=0) - psi_sum))
    # E[log p(theta | alpha)] - E[log q(theta | gamma)]
    score += float(np.sum((alpha - gamma) * Elogtheta))
    score += float(np.sum(gammaln(gamma)) - np.sum(gammaln(np.sum(gamma, axis=0))))
    score += n_docs * (gammaln(k * alpha) - k * gammaln(alpha))
    # E[log p(beta_topic | beta)] - E[log q(beta_topic | lambda)]
    score += float(np.sum((beta - lam) * Elogbeta))
    score += float(np.sum(gammaln(lam)) - np.sum(gammaln(np.sum(lam, axis=1))))
    score += k * (gammaln(n_terms * beta) - n_terms * gammaln(beta))
    return score, expElogbeta, phinorm


def fit_lda(tf: DocTermMatrix, config: LdaConfig) -> LdaModel:
    """Fit LDA on a term-count matrix.

    Lambda starts from seeded Gamma(100, 0.01) noise and gamma uniform, so
    identical inputs and seed give bitwise-identical output.  A model that
    hits ``max_iter`` without meeting ``tol`` has ``converged=False``.
    """
    mat, lengths = _validate_tf(tf)
    n_docs, n_terms = mat.shape
    check_k(config.k, n_docs, f"document count {n_docs}")
    alpha = beta = 1.0 / config.k
    lam = np.random.default_rng(config.seed).gamma(100.0, 0.01, (config.k, n_terms))
    # Every topic gets an equal share of each document; gamma is (K, D) until the end.
    gamma = alpha + np.tile(lengths / config.k, (config.k, 1))
    blocks = _blocks(mat.indptr, config.k)
    # Transposed once: the view costs as much as a small product.  Its data is in mat's order.
    ratio_t = sp.csr_matrix((np.empty(mat.nnz), mat.indices, mat.indptr), shape=mat.shape).T
    prev, expElogbeta, phinorm = _bound(mat, blocks, gamma, lam, alpha, beta, lengths,
                                        _psi_theta(gamma))

    trace, converged, updates, change = [], False, 0, np.inf
    for iteration in range(config.max_iter):
        tol = min(_INNER_TOL_EARLY, max(_INNER_TOL, _INNER_TOL_SCALE * change))
        updates += _e_step(mat, blocks, gamma, phinorm, expElogbeta, alpha, _INNER_MAX_ITER, tol)
        psi_theta = _psi_theta(gamma)  # one theta for the statistics and the bound
        lam = beta + _sstats(mat, blocks, ratio_t, psi_theta[1], expElogbeta)
        bound, expElogbeta, phinorm = _bound(mat, blocks, gamma, lam, alpha, beta, lengths,
                                             psi_theta)
        converged = settled(trace, bound, config.tol, "LDA", f"iteration {iteration + 1}",
                            gamma, lam)
        if converged:
            break
        change, prev = abs(bound - prev) / abs(prev), bound

    gamma = np.ascontiguousarray(gamma.T)
    return LdaModel(
        doc_topic=gamma / gamma.sum(axis=1, keepdims=True),
        topic_term=lam / lam.sum(axis=1, keepdims=True), elbo_trace=trace, alpha=alpha,
        beta=beta, converged=converged, inner_updates=updates, gamma_=gamma, lambda_=lam,
    )


def lda_elbo(model: LdaModel, tf: DocTermMatrix) -> float:
    """Recompute the variational bound of a fitted model on a TF matrix."""
    mat, lengths = _validate_tf(tf)
    if model.gamma_.shape[0] != mat.shape[0] or model.lambda_.shape[1] != mat.shape[1]:
        raise ValueError(f"model shape ({model.gamma_.shape[0]}, {model.lambda_.shape[1]}) "
                         f"does not match matrix shape {mat.shape}")
    gamma = np.ascontiguousarray(model.gamma_.T)
    blocks = _blocks(mat.indptr, gamma.shape[0])
    return _bound(mat, blocks, gamma, model.lambda_, model.alpha, model.beta, lengths,
                  _psi_theta(gamma))[0]
