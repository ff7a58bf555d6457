"""Rank-K nonnegative CP decomposition of a sparse 3-way tensor.

Minimises the squared Frobenius reconstruction error
``||X - sum_r u_r o v_r o w_r||^2`` over nonnegative factor matrices by
alternating exact nonnegative column updates (HALS): per mode, each
factor column is the closed-form clamped least-squares minimiser given
everything else, so the error is non-increasing per sweep.

The tensor is stored once per corpus as a CSR matrix whose rows are the
distinct (doc, company) pairs and whose columns are the terms, so every
matricised-tensor-times-Khatri-Rao product (MTTKRP) is a sparse product.
A sweep makes two of cost nnz * k: ``X @ W`` serves the doc and company
modes (W changes only in the term mode) and ``X.T @ (U[doc] * V[company])``
the term mode.  The rest of the work, the pair-row gathers, the 0/1
indicator products that sum pair rows by doc and by company, and the
factor Gramians, is sized by pairs and factors, never by nnz * k or by
the dense tensor volume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .nmf import residual_norm_sq
from .vectorize import (DocCompanyTermTensor, _indicator, check_k, check_nonnegative,
                        check_setting, settled)

__all__ = ["NtfModel", "fit_ntf", "cp_reconstruction_error"]

# Column updates clamp to this floor rather than exact zero: a (row,
# component) pair that hits hard zero in two modes at once could never
# regrow (its update numerator stays zero forever), while a floored pair
# rebounds in one sweep if the residual wants it.
_FLOOR = 1e-12


@dataclass
class NtfModel:
    doc_factor: np.ndarray  # (D, K), >= 0
    company_factor: np.ndarray  # (C, K), >= 0
    term_factor: np.ndarray  # (V, K), >= 0
    error_trace: list[float]
    converged: bool
    # Always empty: floored HALS reseeds nothing.  Kept because model.json's
    # "rescues" key and the benchmark's ntf.rescues count read it.
    rescues: list[tuple[int, int]] = field(default_factory=list)

    @property
    def factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.doc_factor, self.company_factor, self.term_factor)


def _as_tensor(x) -> DocCompanyTermTensor:
    """Accept a DocCompanyTermTensor or a small dense 3-d array."""
    if isinstance(x, DocCompanyTermTensor):
        return x
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(f"expected a 3-way tensor, got ndim={arr.ndim}")
    coords = np.nonzero(arr)
    return DocCompanyTermTensor.from_coords(arr.shape, *coords, arr[coords])


def _hals(a: np.ndarray, m: np.ndarray, gram_rest: np.ndarray) -> np.ndarray:
    """Update the columns of ``a`` in place from its MTTKRP; return its Gramian."""
    for r in range(a.shape[1]):
        # gram_rest[r, r] >= 1e-48: every entry is at least _FLOOR.
        col = a[:, r] + (m[:, r] - a @ gram_rest[:, r]) / gram_rest[r, r]
        a[:, r] = np.maximum(col, _FLOOR)
    return a.T @ a


def fit_ntf(x, k: int, max_sweeps: int = 200, tol: float = 1e-6, seed: int = 0) -> NtfModel:
    """Fit the nonnegative CP model by HALS sweeps.

    Factors start as column-normalised absolute Gaussian noise drawn from
    ``seed``, so identical inputs and seed give identical output.  The
    error trace holds one squared-residual value per sweep and is
    non-increasing.  Entries are clamped at a small positive floor rather
    than zero, so a collapsed column can regrow in a later sweep.
    """
    check_setting("max_sweeps", max_sweeps, 1)
    check_setting("tol", tol, 0, integer=False)
    check_setting("seed", seed, 0)
    x = _as_tensor(x)
    shape, mat, pair_doc, pair_comp = x.shape, x.pairs, x.pair_doc, x.pair_company
    if any(d == 0 for d in shape):
        raise ValueError(f"empty tensor: shape {shape}")
    check_k(k, min(shape), f"the smallest side of tensor shape {shape}")
    check_nonnegative(mat, "tensor values")

    rng = np.random.default_rng(seed)
    factors = []
    for dim in shape:
        f = np.abs(rng.standard_normal((dim, k)))
        f /= np.linalg.norm(f, axis=0, keepdims=True)
        factors.append(f)
    a, b, c = factors
    ga, gb, gc = (f.T @ f for f in factors)
    by_doc, by_comp = _indicator(pair_doc, shape[0]), _indicator(pair_comp, shape[1])
    mat_t = mat.T  # made once: building a transposed view costs as much as a small product

    norm_x_sq = float(mat.data @ mat.data)
    trace: list[float] = []
    converged = False

    for sweep in range(max_sweeps):
        xc = mat @ c
        ga = _hals(a, by_doc @ (xc * b.take(pair_comp, axis=0)), gb * gc)
        a_pairs = a.take(pair_doc, axis=0)
        gb = _hals(b, by_comp @ (a_pairs * xc), ga * gc)
        m_term = mat_t @ (a_pairs * b.take(pair_comp, axis=0))
        gc = _hals(c, m_term, ga * gb)

        err = residual_norm_sq(norm_x_sq, float(np.sum(m_term * c)), (ga, gb, gc))
        converged = settled(trace, err, tol, "CP", f"sweep {sweep + 1}", *factors)
        if converged:
            break

    return NtfModel(doc_factor=a, company_factor=b, term_factor=c,
                    error_trace=trace, converged=converged)


def cp_reconstruction_error(x, model: NtfModel) -> float:
    """Squared Frobenius norm of the residual, computed on the support.

    ``||X - Xhat||^2 = ||X||^2 - 2 <X, Xhat> + ||Xhat||^2`` where the
    inner product comes from the pair matrix's term-mode MTTKRP and the
    model norm from the factor Gramians, so no dense tensor is formed.
    """
    x = _as_tensor(x)
    a, b, c = model.factors
    if (len(a), len(b), len(c)) != tuple(x.shape):
        raise ValueError(f"factor dims {(len(a), len(b), len(c))} do not match "
                         f"tensor shape {x.shape}")
    m_term = x.pairs.T @ (a.take(x.pair_doc, axis=0) * b.take(x.pair_company, axis=0))
    norm_x_sq, inner = float(x.pairs.data @ x.pairs.data), float(np.sum(m_term * c))
    return residual_norm_sq(norm_x_sq, inner, [f.T @ f for f in model.factors])
