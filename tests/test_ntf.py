import time

import numpy as np
import pytest

from topickit.ntf import NtfModel, cp_reconstruction_error, fit_ntf
from topickit.vectorize import DocCompanyTermTensor, build_tensor, build_vocabulary

from conftest import random_tokenized


def random_sparse_tensor(rng, shape, nnz):
    """Random nonnegative coordinate tensor (duplicate coords collapsed)."""
    coords = set()
    while len(coords) < nnz:
        coords.add((
            int(rng.integers(shape[0])),
            int(rng.integers(shape[1])),
            int(rng.integers(shape[2])),
        ))
    coords = sorted(coords)
    d, c, t = (np.array([x[i] for x in coords], dtype=np.int64) for i in range(3))
    values = rng.uniform(0.5, 3.0, size=len(coords))
    return DocCompanyTermTensor(
        shape=shape, doc_idx=d, company_idx=c, term_idx=t, values=values,
        company_ids=(),
    )


def error_oracle(dense, model):
    """Triple scalar loop over every cell of the dense tensor."""
    total = 0.0
    u, v, w = model.factors
    for i in range(dense.shape[0]):
        for j in range(dense.shape[1]):
            for t in range(dense.shape[2]):
                pred = sum(u[i, r] * v[j, r] * w[t, r] for r in range(u.shape[1]))
                total += (dense[i, j, t] - pred) ** 2
    return total


class TestFit:
    def test_rank_one_recovery(self, rng):
        a = rng.uniform(0.5, 2.0, 6)
        b = rng.uniform(0.5, 2.0, 4)
        g = rng.uniform(0.5, 2.0, 7)
        dense = np.einsum("i,j,k->ijk", a, b, g)
        model = fit_ntf(dense, 1, max_sweeps=300, tol=1e-14, seed=0)
        rel = np.sqrt(cp_reconstruction_error(dense, model)) / np.linalg.norm(dense)
        assert rel < 1e-6

    def test_zero_tensor(self):
        dense = np.zeros((3, 2, 4))
        model = fit_ntf(dense, 2, seed=1)
        assert model.error_trace[-1] < 1e-12
        for factor in model.factors:
            np.testing.assert_allclose(factor, 0.0, atol=1e-10)

    def test_error_trace_monotone_per_sweep(self, rng):
        for seed in range(20):
            local = np.random.default_rng(1000 + seed)
            tensor = random_sparse_tensor(local, (12, 6, 15), nnz=200)
            model = fit_ntf(tensor, 3, max_sweeps=80, seed=seed)
            assert model.rescues == []
            trace = np.array(model.error_trace)
            slack = 1e-8 * np.abs(trace[:-1])
            assert np.all(np.diff(trace) <= slack)

    def test_seeded_determinism(self, rng):
        tensor = random_sparse_tensor(rng, (8, 4, 9), nnz=60)
        a = fit_ntf(tensor, 2, max_sweeps=30, seed=5)
        b = fit_ntf(tensor, 2, max_sweeps=30, seed=5)
        for fa, fb in zip(a.factors, b.factors):
            assert np.array_equal(fa, fb)

    def test_nonnegativity(self, rng):
        tensor = random_sparse_tensor(rng, (10, 5, 8), nnz=80)
        model = fit_ntf(tensor, 3, max_sweeps=50, seed=2)
        for factor in model.factors:
            assert np.all(factor >= 0)

    def test_k_out_of_range(self, rng):
        tensor = random_sparse_tensor(rng, (5, 3, 6), nnz=20)
        for bad in (0, 4):
            with pytest.raises(ValueError, match="out of range"):
                fit_ntf(tensor, bad)

    def test_empty_tensor_rejected(self):
        with pytest.raises(ValueError, match="empty tensor"):
            fit_ntf(np.zeros((0, 2, 3)), 1)

    def test_sparse_scaling_budget(self, rng):
        tensor = random_sparse_tensor(rng, (500, 50, 2000), nnz=10_000)
        start = time.perf_counter()
        model = fit_ntf(tensor, 5, max_sweeps=200, seed=0)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        assert model.error_trace[-1] <= model.error_trace[0]


class TestReconstructionError:
    def test_exact_decomposition_is_zero(self, rng):
        u = rng.uniform(0.2, 1.5, (5, 2))
        v = rng.uniform(0.2, 1.5, (3, 2))
        w = rng.uniform(0.2, 1.5, (4, 2))
        dense = np.einsum("ir,jr,kr->ijk", u, v, w)
        model = NtfModel(u, v, w, [], converged=True)
        assert cp_reconstruction_error(dense, model) < 1e-12

    def test_zero_factors_give_squared_norm(self, rng):
        dense = np.abs(rng.standard_normal((3, 4, 2)))
        model = NtfModel(
            np.zeros((3, 1)), np.zeros((4, 1)), np.zeros((2, 1)),
            [], converged=True,
        )
        np.testing.assert_allclose(
            cp_reconstruction_error(dense, model), np.sum(dense ** 2), rtol=1e-12
        )

    def test_matches_triple_loop_oracle(self, rng):
        dense = np.abs(rng.standard_normal((4, 3, 5)))
        dense[dense < 0.6] = 0.0  # make it sparse-ish
        u = rng.uniform(0.1, 1.0, (4, 2))
        v = rng.uniform(0.1, 1.0, (3, 2))
        w = rng.uniform(0.1, 1.0, (5, 2))
        model = NtfModel(u, v, w, [], converged=True)
        np.testing.assert_allclose(
            cp_reconstruction_error(dense, model), error_oracle(dense, model), atol=1e-10
        )

    def test_dimension_mismatch(self, rng):
        dense = np.ones((3, 4, 2))
        model = NtfModel(
            np.ones((3, 1)), np.ones((5, 1)), np.ones((2, 1)),
            [], converged=True,
        )
        with pytest.raises(ValueError, match="do not match"):
            cp_reconstruction_error(dense, model)


class TestStructuralConsistency:
    def test_company_crosstab_bookkeeping(self, rng):
        # one company per document: grouping documents by doc-factor argmax
        # and crosstabulating against companies must reproduce per-company
        # document counts exactly
        docs = random_tokenized(rng, n_docs=15, vocab_size=20)
        vocab = build_vocabulary(docs)
        company_map = {d.doc_id: f"c{int(rng.integers(0, 4))}" for d in docs}
        tensor = build_tensor(docs, vocab, company_map)
        model = fit_ntf(tensor, 2, max_sweeps=40, seed=3)

        doc_labels = np.argmax(model.doc_factor, axis=1)
        companies = [company_map[d.doc_id] for d in docs]
        crosstab = {}
        for company, label in zip(companies, doc_labels):
            crosstab.setdefault(company, [0] * 2)[label] += 1
        for company, row in crosstab.items():
            assert sum(row) == sum(1 for c in companies if c == company)
