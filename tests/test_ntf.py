import time

import numpy as np
import pytest

from topickit.ntf import _FLOOR, NtfModel, _as_tensor, _indicator, cp_reconstruction_error, fit_ntf
from topickit.vectorize import DocCompanyTermTensor, build_tensor, build_vocabulary, tf_matrix

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
    return DocCompanyTermTensor.from_coords(shape, d, c, t, values)


def to_dense(tensor):
    dense = np.zeros(tensor.shape)
    coo = tensor.pairs.tocoo()
    np.add.at(dense, (tensor.pair_doc[coo.row], tensor.pair_company[coo.row], coo.col), coo.data)
    return dense


def einsum_mttkrps(dense, a, b, c):
    """Dense MTTKRP per mode, each from the factors the sweep would use."""
    return (
        np.einsum("ijt,jr,tr->ir", dense, b, c),
        np.einsum("ijt,ir,tr->jr", dense, a, c),
        np.einsum("ijt,ir,jr->tr", dense, a, b),
    )


def pair_mttkrps(x, a, b, c):
    """The per-mode MTTKRPs as fit_ntf forms them from the pair matrix."""
    x = _as_tensor(x)
    shape, mat, pair_doc, pair_comp = x.shape, x.pairs, x.pair_doc, x.pair_company
    xc = mat @ c
    a_pairs, b_pairs = a.take(pair_doc, axis=0), b.take(pair_comp, axis=0)
    return (
        _indicator(pair_doc, shape[0]) @ (xc * b_pairs),
        _indicator(pair_comp, shape[1]) @ (a_pairs * xc),
        mat.T @ (a_pairs * b_pairs),
    )


def dense_hals(dense, k, sweeps, seed):
    """HALS sweeps on the dense tensor with einsum MTTKRPs, fit_ntf's start."""
    rng = np.random.default_rng(seed)
    factors = []
    for dim in dense.shape:
        f = np.abs(rng.standard_normal((dim, k)))
        factors.append(f / np.linalg.norm(f, axis=0, keepdims=True))
    for _ in range(sweeps):
        for mode in range(3):
            m = einsum_mttkrps(dense, *factors)[mode]
            rest = [factors[i].T @ factors[i] for i in range(3) if i != mode]
            gram_rest = rest[0] * rest[1]
            a = factors[mode]
            for r in range(k):
                col = a[:, r] + (m[:, r] - a @ gram_rest[:, r]) / gram_rest[r, r]
                a[:, r] = np.maximum(col, _FLOOR)
    return factors


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

    def test_error_trace_monotone_with_surplus_components(self):
        # exact rank-1/2 tensors fitted with 1-3 extra components, where
        # surplus columns collapse to the floor: the error may still not rise
        for rank in (1, 2):
            for seed in range(10):
                local = np.random.default_rng(seed)
                u, v, w = (np.abs(local.standard_normal((d, rank))) for d in (8, 5, 7))
                dense = np.einsum("ir,jr,kr->ijk", u, v, w)
                slack = 1e-12 * np.sum(dense ** 2)
                for k in range(rank + 1, rank + 4):
                    model = fit_ntf(dense, k, max_sweeps=60, seed=seed)
                    rises = np.diff(model.error_trace)
                    assert np.all(rises <= slack), (rank, seed, k, rises.max())

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
        for bad, want in ((0, "^k must be >= 1, got 0$"), (4, "^k=4 out of range: exceeds")):
            with pytest.raises(ValueError, match=want):
                fit_ntf(tensor, bad)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("past_end", [True, False])
    def test_out_of_range_coordinate_names_axis(self, axis, past_end):
        shape = (3, 2, 4)
        coords = [np.array([0, 1]), np.array([1, 0]), np.array([2, 3])]
        # company 2 of 2 at doc 0 must not alias to (doc 1, company 0)
        coords[axis][0] = shape[axis] if past_end else -1
        name = ("doc", "company", "term")[axis]
        with pytest.raises(ValueError, match=f"^{name} index out of range for axis {axis}"):
            DocCompanyTermTensor.from_coords(shape, *coords, [1.0, 2.0])

    @pytest.mark.parametrize("value", [-0.5, np.nan, np.inf])
    def test_bad_value_rejected_dense(self, rng, value):
        dense = rng.uniform(0.5, 2.0, (3, 2, 4))
        dense[1, 0, 2] = value
        with pytest.raises(ValueError, match="nonnegative and finite"):
            fit_ntf(dense, 2)

    @pytest.mark.parametrize("values", [
        [1.0, -0.5, 2.0], [1.0, np.nan, 2.0], [1.0, np.inf, 2.0],
        [1.0, -1.0, 3.0],  # (1, 0, 2) twice sums to 2.0, yet -1.0 is a bad value
    ])
    def test_bad_value_rejected_coords(self, values):
        d, c, t = [0, 1, 1], [1, 0, 0], [3, 2, 2]
        with pytest.raises(ValueError, match="nonnegative and finite"):
            fit_ntf(DocCompanyTermTensor.from_coords((3, 2, 4), d, c, t, values), 2)

    def test_empty_tensor_rejected(self):
        with pytest.raises(ValueError, match="empty tensor"):
            fit_ntf(np.zeros((0, 2, 3)), 1)

    @pytest.mark.parametrize("shape", [(3, 4), (3, 2, 4, 1)])
    def test_array_not_3_way_rejected(self, shape):
        with pytest.raises(ValueError, match=f"expected a 3-way tensor, got ndim={len(shape)}"):
            fit_ntf(np.ones(shape), 2)

    @pytest.mark.parametrize("settings, name", [
        ({"max_sweeps": 0}, "max_sweeps"), ({"max_sweeps": -2}, "max_sweeps"),
        ({"max_sweeps": 2.5}, "max_sweeps"), ({"max_sweeps": True}, "max_sweeps"),
        ({"tol": -1e-6}, "tol"), ({"tol": np.nan}, "tol"), ({"tol": np.inf}, "tol"),
    ])
    def test_bad_solver_setting_names_it(self, rng, settings, name):
        tensor = random_sparse_tensor(rng, (5, 3, 6), nnz=20)
        with pytest.raises(ValueError, match=f"^{name} must be"):
            fit_ntf(tensor, 2, **settings)

    @pytest.mark.parametrize("seed, want", [(None, "an integer"), (True, "an integer"),
                                            (-1, ">= 0"), (1.5, "an integer")])
    def test_bad_seed_rejected(self, rng, seed, want):
        # None would draw from the OS, so two fits would differ; True would run as seed 1.
        tensor = random_sparse_tensor(rng, (5, 3, 6), nnz=20)
        with pytest.raises(ValueError, match=f"^seed must be {want}, got {seed}$"):
            fit_ntf(tensor, 2, seed=seed)

    def test_sparse_scaling_budget(self, rng):
        tensor = random_sparse_tensor(rng, (500, 50, 2000), nnz=10_000)
        start = time.perf_counter()
        model = fit_ntf(tensor, 5, max_sweeps=200, seed=0)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        assert model.error_trace[-1] <= model.error_trace[0]

    def test_repeated_coordinates_fit_as_their_sum(self):
        # (1, 0, 2) is stored twice, as 1.0 and 2.0: the tensor is the sum
        d = np.array([0, 1, 1, 2, 3, 1])
        c = np.array([0, 0, 1, 1, 0, 0])
        t = np.array([1, 2, 0, 3, 3, 2])
        values = np.array([0.5, 1.0, 1.5, 2.5, 0.7, 2.0])
        tensor = DocCompanyTermTensor.from_coords((4, 2, 4), d, c, t, values)
        dense = to_dense(tensor)
        assert dense[1, 0, 2] == 3.0
        coo_fit = fit_ntf(tensor, 2, max_sweeps=30, seed=4)
        dense_fit = fit_ntf(dense, 2, max_sweeps=30, seed=4)
        np.testing.assert_allclose(coo_fit.error_trace, dense_fit.error_trace, rtol=1e-12)
        np.testing.assert_allclose(cp_reconstruction_error(tensor, coo_fit),
                                   cp_reconstruction_error(dense, dense_fit), rtol=1e-12)
        np.testing.assert_allclose(cp_reconstruction_error(tensor, coo_fit),
                                   error_oracle(dense, coo_fit), rtol=1e-9)

    def test_overflowing_update_raises(self):
        with np.errstate(all="ignore"), pytest.raises(
                RuntimeError, match=r"^CP update produced NaN/Inf at sweep 1$"):
            fit_ntf(np.full((3, 2, 4), 1e200), 2)

    def test_sweeps_match_dense_hals(self):
        for seed in range(5):
            tensor = random_sparse_tensor(np.random.default_rng(seed), (9, 4, 11), nnz=90)
            model = fit_ntf(tensor, 3, max_sweeps=4, tol=0.0, seed=seed)
            for got, want in zip(model.factors, dense_hals(to_dense(tensor), 3, 4, seed)):
                np.testing.assert_allclose(got, want, rtol=1e-10)


class TestMttkrp:
    @staticmethod
    def check(x, dense, rng, k=3):
        a, b, c = (rng.uniform(0.1, 1.0, (dim, k)) for dim in dense.shape)
        got = pair_mttkrps(x, a, b, c)
        for mode, want in enumerate(einsum_mttkrps(dense, a, b, c)):
            assert got[mode].shape == want.shape, mode
            np.testing.assert_allclose(got[mode], want, rtol=1e-12, err_msg=f"mode {mode}")
        return got

    def test_documents_spanning_companies(self, rng):
        for seed in range(10):
            local = np.random.default_rng(100 + seed)
            tensor = random_sparse_tensor(local, (7, 3, 9), nnz=60)
            dense = to_dense(tensor)
            # the case the pair rows exist for: one doc in several companies
            assert any(np.count_nonzero(dense[i].sum(axis=1)) > 1 for i in range(7))
            self.check(tensor, dense, local)
            self.check(dense, dense, local)

    def test_build_tensor_pairs_are_documents(self, rng):
        docs = random_tokenized(rng, n_docs=12, vocab_size=15)
        vocab = build_vocabulary(docs)
        company_map = {d.doc_id: f"c{int(rng.integers(0, 3))}" for d in docs}
        tensor = build_tensor(docs, vocab, company_map)
        assert np.array_equal(tensor.pair_doc, np.arange(len(docs)))
        assert (tensor.pairs != tf_matrix(docs, vocab).values).nnz == 0
        self.check(tensor, to_dense(tensor), rng)

    def test_empty_slices_give_zero_rows(self, rng):
        dense = np.abs(rng.standard_normal((5, 4, 6)))
        dense[2] = 0.0  # document 2 has no entries
        dense[:, 1] = 0.0  # nor has company 1
        m_doc, m_comp, _ = self.check(dense, dense, rng)
        assert np.all(m_doc[2] == 0.0)
        assert np.all(m_comp[1] == 0.0)


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
