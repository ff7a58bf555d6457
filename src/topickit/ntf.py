"""Rank-K nonnegative CP decomposition of a sparse 3-way tensor.

Minimises the squared Frobenius reconstruction error
``||X - sum_r u_r o v_r o w_r||^2`` over nonnegative factor matrices by
alternating exact nonnegative column updates (HALS): per mode, each
factor column is the closed-form clamped least-squares minimiser given
everything else, so the error is non-increasing per sweep.

All heavy lifting runs on the nonzero coordinates only; work per sweep
scales with nnz * k plus the factor Gramians, never with the dense
tensor volume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .nmf import residual_norm_sq
from .vectorize import DocCompanyTermTensor

__all__ = ["NtfModel", "fit_ntf", "cp_reconstruction_error"]

_TINY = 1e-300
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


def _to_coords(x) -> tuple[tuple[int, int, int], tuple[np.ndarray, ...], np.ndarray]:
    """Accept a DocCompanyTermTensor or a small dense 3-d array."""
    if isinstance(x, DocCompanyTermTensor):
        idx = (x.doc_idx, x.company_idx, x.term_idx)
        return x.shape, idx, np.asarray(x.values, dtype=np.float64)
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(f"expected a 3-way tensor, got ndim={arr.ndim}")
    nz = np.nonzero(arr)
    return arr.shape, tuple(i.astype(np.int64) for i in nz), arr[nz]


def _mttkrp(idx, values, factors, mode: int, dim: int, k: int) -> np.ndarray:
    """Matricised-tensor-times-Khatri-Rao product for one mode, on nnz only."""
    others = [m for m in range(3) if m != mode]
    contrib = (
        values[:, np.newaxis]
        * factors[others[0]][idx[others[0]], :]
        * factors[others[1]][idx[others[1]], :]
    )
    out = np.empty((dim, k))
    target = idx[mode]
    for r in range(k):
        out[:, r] = np.bincount(target, weights=contrib[:, r], minlength=dim)
    return out


def _reconstruct_at(idx, factors) -> np.ndarray:
    """Model values at the support coordinates."""
    return np.einsum(
        "nr,nr,nr->n",
        factors[0][idx[0], :],
        factors[1][idx[1], :],
        factors[2][idx[2], :],
    )


def fit_ntf(x, k: int, max_sweeps: int = 200, tol: float = 1e-6, seed: int = 0) -> NtfModel:
    """Fit the nonnegative CP model by HALS sweeps.

    Factors start as column-normalised absolute Gaussian noise drawn from
    ``seed``, so identical inputs and seed give identical output.  The
    error trace holds one squared-residual value per sweep and is
    non-increasing.  Entries are clamped at a small positive floor rather
    than zero, so a collapsed column can regrow in a later sweep.
    """
    shape, idx, values = _to_coords(x)
    if any(d == 0 for d in shape):
        raise ValueError(f"empty tensor: shape {shape}")
    if not 1 <= k <= min(shape):
        raise ValueError(f"k={k} out of range for tensor shape {shape}")
    if values.size and (not np.all(np.isfinite(values)) or np.min(values) < 0):
        raise ValueError("tensor values must be nonnegative and finite")

    rng = np.random.default_rng(seed)
    factors = []
    for dim in shape:
        f = np.abs(rng.standard_normal((dim, k)))
        f /= np.linalg.norm(f, axis=0, keepdims=True)
        factors.append(f)
    grams = [f.T @ f for f in factors]

    norm_x_sq = float(values @ values)
    trace: list[float] = []
    converged = False

    for sweep in range(max_sweeps):
        mttkrp_last = None
        for mode in range(3):
            others = [m for m in range(3) if m != mode]
            gram_rest = grams[others[0]] * grams[others[1]]
            m_mode = _mttkrp(idx, values, factors, mode, shape[mode], k)
            a = factors[mode]
            for r in range(k):
                # gram_rest[r, r] >= 1e-48: every entry is at least _FLOOR.
                col = a[:, r] + (m_mode[:, r] - a @ gram_rest[:, r]) / gram_rest[r, r]
                a[:, r] = np.maximum(col, _FLOOR)
            grams[mode] = a.T @ a
            mttkrp_last = m_mode

        err = residual_norm_sq(norm_x_sq, float(np.sum(mttkrp_last * factors[2])), grams)
        if not (np.isfinite(err) and all(np.all(np.isfinite(f)) for f in factors)):
            raise RuntimeError(f"CP update produced NaN/Inf at sweep {sweep + 1}")
        prev = trace[-1] if trace else None
        trace.append(err)
        if err == 0.0 or (prev is not None and abs(prev - err) <= tol * max(prev, _TINY)):
            converged = True
            break

    return NtfModel(
        doc_factor=factors[0],
        company_factor=factors[1],
        term_factor=factors[2],
        error_trace=trace,
        converged=converged,
    )


def cp_reconstruction_error(x, model: NtfModel) -> float:
    """Squared Frobenius norm of the residual, computed on the support.

    ``||X - Xhat||^2 = ||X||^2 - 2 <X, Xhat> + ||Xhat||^2`` where the
    inner product runs over the nonzeros and the model norm comes from the
    factor Gramians, so no dense tensor is formed.
    """
    shape, idx, values = _to_coords(x)
    factors = model.factors
    if tuple(f.shape[0] for f in factors) != tuple(shape):
        raise ValueError(
            f"factor dims {tuple(f.shape[0] for f in factors)} do not match "
            f"tensor shape {tuple(shape)}"
        )
    inner = float(values @ _reconstruct_at(idx, factors))
    return residual_norm_sq(float(values @ values), inner, [f.T @ f for f in factors])
