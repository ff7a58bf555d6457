import time

import numpy as np
import pytest
import scipy.sparse as sp

from topickit import nmf
from topickit.corpus import load_corpus, preprocess_corpus
from topickit.lda import LdaConfig, fit_lda
from topickit.nmf import fit_nmf, nmf_objective, nndsvd_init
from topickit.ntf import fit_ntf
from topickit.vectorize import build_vocabulary, tf_matrix, tfidf_matrix

from conftest import random_tokenized
from planted import PLANTED_SEED, write_planted_corpus


def objective_oracle(x, w, h):
    """Scalar double-loop reference for the reconstruction objective."""
    total = 0.0
    n, m = x.shape
    for i in range(n):
        for j in range(m):
            pred = sum(w[i, r] * h[r, j] for r in range(w.shape[1]))
            total += (x[i, j] - pred) ** 2
    return 0.5 * total


def nndsvd_oracle(x, k):
    """NNDSVD from the full dense SVD, written out step by step."""
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    w = np.zeros((x.shape[0], k))
    h = np.zeros((k, x.shape[1]))
    w[:, 0] = np.sqrt(s[0]) * np.abs(u[:, 0])
    h[0, :] = np.sqrt(s[0]) * np.abs(vt[0, :])
    cutoff = s[0] * max(x.shape) * np.finfo(np.float64).eps
    for j in range(1, k):
        if s[j] <= cutoff:
            continue
        sections = []
        for sign in (1.0, -1.0):
            su, sv = np.maximum(sign * u[:, j], 0), np.maximum(sign * vt[j, :], 0)
            sections.append((np.linalg.norm(su) * np.linalg.norm(sv), su, sv))
        mass, su, sv = sections[0] if sections[0][0] >= sections[1][0] else sections[1]
        if mass > 0:
            w[:, j] = np.sqrt(s[j] * mass) * su / np.linalg.norm(su)
            h[j, :] = np.sqrt(s[j] * mass) * sv / np.linalg.norm(sv)
    return np.maximum(w, 1e-12), np.maximum(h, 1e-12)


def assert_matches_oracle(x, k):
    w, h = nndsvd_init(x, k)
    w0, h0 = nndsvd_oracle(x.toarray() if sp.issparse(x) else x, k)
    assert np.max(np.abs(w - w0)) <= 1e-9 * np.max(w0)
    assert np.max(np.abs(h - h0)) <= 1e-9 * np.max(h0)


def random_tfidf(rng):
    """TF-IDF of random documents, with a min_df drawn from 1-3."""
    docs = random_tokenized(rng, n_docs=int(rng.integers(10, 30)),
                            vocab_size=int(rng.integers(8, 30)))
    vocab = build_vocabulary(docs, min_df=int(rng.integers(1, 4)))
    return tfidf_matrix(docs, vocab).values


class NoDenseCsr(sp.csr_matrix):
    """A CSR matrix that fails the test if anything densifies it."""

    def toarray(self, *args, **kwargs):
        raise AssertionError("sparse input was densified")

    def todense(self, *args, **kwargs):
        raise AssertionError("sparse input was densified")


@pytest.mark.parametrize("k", [2.5, True, 0])
@pytest.mark.parametrize("solver", ["lda", "nmf", "ntf"])
def test_bad_k_names_it(rng, solver, k):
    # every solver shares one k rule, checked before any numpy or scipy call
    docs = random_tokenized(rng, n_docs=6)
    fits = {
        "lda": lambda: fit_lda(tf_matrix(docs, build_vocabulary(docs)), LdaConfig(k=k)),
        "nmf": lambda: fit_nmf(np.abs(rng.standard_normal((6, 5))), k),
        "ntf": lambda: fit_ntf(np.abs(rng.standard_normal((4, 3, 5))), k),
    }
    want = "^k must be >= 1, got 0$" if k == 0 else "^k must be an integer"
    with pytest.raises(ValueError, match=want):
        fits[solver]()


class TestNndsvdInit:
    def test_rank_one_matches_svd_oracle(self):
        u = np.array([1.0, 2.0, 0.5])
        v = np.array([3.0, 1.0, 2.0])
        x = np.outer(u, v)
        w0, h0 = nndsvd_init(x, 1)
        uu, ss, vv = np.linalg.svd(x)
        np.testing.assert_allclose(w0[:, 0], np.sqrt(ss[0]) * np.abs(uu[:, 0]), atol=1e-12)
        np.testing.assert_allclose(h0[0, :], np.sqrt(ss[0]) * np.abs(vv[0, :]), atol=1e-12)

    def test_full_rank_diagonal_reconstructs(self):
        x = np.diag([5.0, 3.0, 1.5, 0.5])
        w0, h0 = nndsvd_init(x, 4)
        assert nmf_objective(x, w0, h0) < 1e-9

    def test_all_equal_matrix_higher_components_are_floor(self):
        x = np.full((4, 5), 2.5)
        w0, h0 = nndsvd_init(x, 3)
        np.testing.assert_allclose(np.outer(w0[:, 0], h0[0, :]), x, atol=1e-10)
        assert np.all(w0[:, 1:] == 1e-12)
        assert np.all(h0[1:, :] == 1e-12)

    def test_nonnegative_and_no_exact_zeros(self, rng):
        x = np.abs(rng.standard_normal((8, 6)))
        w0, h0 = nndsvd_init(x, 4)
        assert np.all(w0 >= 1e-12)
        assert np.all(h0 >= 1e-12)

    def test_k_out_of_range(self, rng):
        x = np.abs(rng.standard_normal((4, 6)))
        for bad, want in ((0, "^k must be >= 1, got 0$"), (5, "^k=5 out of range: exceeds")):
            with pytest.raises(ValueError, match=want):
                nndsvd_init(x, bad)

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            nndsvd_init(np.array([[1.0, -0.1], [0.0, 2.0]]), 1)

    def test_truncated_svd_matches_dense_oracle_on_planted_tfidf(self, tmp_path):
        path = tmp_path / "planted.jsonl"
        write_planted_corpus(path, seed=PLANTED_SEED)
        docs, _ = preprocess_corpus(load_corpus(path))
        x = tfidf_matrix(docs, build_vocabulary(docs)).values
        for k in range(2, 8):
            assert_matches_oracle(x, k)

    def test_truncated_svd_matches_dense_oracle_on_random_tfidf(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            x = random_tfidf(rng)
            for k in range(2, min(x.shape) + 1):
                assert_matches_oracle(x, k)

    def test_k_equal_to_min_dimension_matches_dense_oracle(self, rng):
        for shape in ((6, 4), (4, 7)):
            x = sp.csr_matrix(np.abs(rng.standard_normal(shape)))
            assert_matches_oracle(x, min(shape))

    def test_rank_deficient_components_stay_at_floor(self, rng):
        x = np.abs(rng.standard_normal((30, 2))) @ np.abs(rng.standard_normal((2, 20)))
        w0, h0 = nndsvd_init(sp.csr_matrix(x), 5)
        assert np.all(w0[:, 2:] == 1e-12)
        assert np.all(h0[2:, :] == 1e-12)
        assert_matches_oracle(x, 5)

    def test_sparse_input_is_never_densified(self, rng):
        x = NoDenseCsr(np.where(rng.random((40, 30)) < 0.2, rng.random((40, 30)), 0.0))
        w0, h0 = nndsvd_init(x, 4)
        assert w0.shape == (40, 4) and h0.shape == (4, 30)
        model = fit_nmf(x, 4, max_iter=20)
        assert len(model.objective_trace) > 1

    @pytest.mark.parametrize("shape", [(12, 30), (30, 12), (20, 20)])
    def test_sparse_input_is_never_densified_at_full_width(self, rng, shape):
        # K = min(D, V) takes the same Lanczos as any smaller K
        x = NoDenseCsr(np.where(rng.random(shape) < 0.3, rng.random(shape), 0.0))
        w0, h0 = nndsvd_init(x, min(shape))
        assert w0.shape == (shape[0], min(shape)) and h0.shape == (min(shape), shape[1])
        assert_matches_oracle(sp.csr_matrix(x), min(shape))

    def test_lanczos_restart_cap_is_a_value_error(self, rng, monkeypatch):
        # 60 x 50 at K=3 keeps 20 vectors per side: one pass does not converge
        x = np.abs(rng.standard_normal((60, 50)))
        monkeypatch.setattr(nmf, "_MAX_RESTARTS", 0)
        with pytest.raises(ValueError, match="SVD failed .*did not converge in 0 restarts"):
            nndsvd_init(x, 3)
        monkeypatch.undo()
        assert_matches_oracle(x, 3)


def assert_leading_triplets(x, k, restarts=False):
    """``_leading_svd`` against the dense SVD, bit-identical on a second call; with
    ``restarts`` set, also that a pass without a restart does not converge."""
    if restarts:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nmf, "_MAX_RESTARTS", 0)
            with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
                nmf._leading_svd(x, k)
    u, s, vt = nmf._leading_svd(x, k)
    assert all(np.array_equal(a, b) for a, b in zip((u, s, vt), nmf._leading_svd(x, k)))
    dense = x.toarray() if sp.issparse(x) else x
    u0, s0, vt0 = np.linalg.svd(dense, full_matrices=False)
    assert u.shape == (x.shape[0], k) and s.shape == (k,) and vt.shape == (k, x.shape[1])
    tol = 1e-12 * s0[0]
    np.testing.assert_allclose(s, s0[:k], rtol=0, atol=tol)
    np.testing.assert_allclose(u.T @ u, np.eye(k), rtol=0, atol=1e-12)
    np.testing.assert_allclose(vt @ vt.T, np.eye(k), rtol=0, atol=1e-12)
    np.testing.assert_allclose(dense @ vt.T, u * s, rtol=0, atol=tol)
    np.testing.assert_allclose(dense.T @ u, vt.T * s, rtol=0, atol=tol)
    gaps = np.abs(np.diff(s0[:k + 1]))
    for j in range(k):  # a singular vector is unique up to sign when its value is apart
        if s0[j] > tol and min(gaps[max(j - 1, 0):j + 1]) > 1e-3 * s0[0]:
            sign = np.sign(u[:, j] @ u0[:, j])
            np.testing.assert_allclose(sign * u[:, j], u0[:, j], rtol=0, atol=1e-9)
            np.testing.assert_allclose(sign * vt[j], vt0[j], rtol=0, atol=1e-9)


class TestLeadingSvd:
    def test_restarted_on_planted_tfidf(self, tmp_path):
        path = tmp_path / "planted.jsonl"
        write_planted_corpus(path, seed=PLANTED_SEED)
        docs, _ = preprocess_corpus(load_corpus(path))
        x = tfidf_matrix(docs, build_vocabulary(docs)).values
        for k in range(5, 9):
            assert_leading_triplets(x, k, restarts=True)

    def test_restarted_on_a_clustered_spectrum(self, rng):
        left = np.linalg.qr(rng.standard_normal((150, 80)))[0]
        right = np.linalg.qr(rng.standard_normal((80, 80)))[0]
        values = np.concatenate([5.0 - 1e-3 * np.arange(6), np.linspace(1.0, 0.01, 74)])
        x = (left * values) @ right.T
        assert_leading_triplets(x, 5, restarts=True)
        assert_leading_triplets(sp.csr_matrix(x.T), 7, restarts=True)

    def test_rank_deficient(self, rng):
        x = np.abs(rng.standard_normal((30, 2))) @ np.abs(rng.standard_normal((2, 20)))
        assert_leading_triplets(sp.csr_matrix(x), 5)
        assert_leading_triplets(sp.csr_matrix(np.zeros((12, 9))), 2)

    @pytest.mark.parametrize("shape", [(25, 60), (60, 25), (21, 21)])
    def test_wide_tall_and_square_sparse(self, rng, shape):
        x = np.where(rng.random(shape) < 0.3, rng.random(shape), 0.0)
        for k in (1, 3, 9):
            assert_leading_triplets(sp.csr_matrix(x), k)

    def test_dense_input_and_full_width(self, rng):
        x = np.abs(rng.standard_normal((40, 12)))
        for k in (2, 5, 11, 12):  # w = min(max(2k+1, 20), 12): one pass spans the small side
            assert_leading_triplets(x, k)

    @pytest.mark.parametrize("x", [
        np.diag([5.0, 3.0, 1.5, 0.5]),
        np.diag([4.0, 1.0, 2.0, 0.25]) @ np.eye(4, 6),
        np.full((4, 5), 2.5),
        np.abs(np.random.default_rng(3).standard_normal((30, 2)))
        @ np.abs(np.random.default_rng(4).standard_normal((2, 20))),
        np.kron(np.eye(3), np.ones((2, 3))),  # three tied values, then zeros
        np.kron(np.diag([2.0, 2.0, 1.0, 1.0]), np.ones((3, 1))),
    ], ids=["diagonal", "wide-diagonal", "all-equal", "rank-two", "tied", "tied-tall"])
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_full_width_is_one_pass(self, x, sparse, monkeypatch):
        # At K = min(D, V) the first pass spans the smaller side: no restart is needed
        monkeypatch.setattr(nmf, "_MAX_RESTARTS", 0)
        assert_leading_triplets(sp.csr_matrix(x) if sparse else x, min(x.shape))


class TestObjective:
    def test_exact_factorisation_is_zero(self, rng):
        w = np.abs(rng.standard_normal((5, 2)))
        h = np.abs(rng.standard_normal((2, 4)))
        assert nmf_objective(w @ h, w, h) < 1e-12

    def test_identity_with_zero_factors(self):
        x = np.eye(2)
        w = np.zeros((2, 1))
        h = np.zeros((1, 2))
        assert nmf_objective(x, w, h) == 1.0

    def test_matches_double_loop_oracle(self, rng):
        x = np.abs(rng.standard_normal((6, 5)))
        w = np.abs(rng.standard_normal((6, 3)))
        h = np.abs(rng.standard_normal((3, 5)))
        np.testing.assert_allclose(nmf_objective(x, w, h), objective_oracle(x, w, h), atol=1e-12)
        np.testing.assert_allclose(
            nmf_objective(sp.csr_matrix(x), w, h), objective_oracle(x, w, h), atol=1e-12
        )

    def test_duplicate_sparse_entries_are_summed(self, rng):
        w = np.abs(rng.standard_normal((3, 2)))
        h = np.abs(rng.standard_normal((2, 3)))
        # rows 0 and 2 each store column 1 twice; X[0, 1] = 3, X[2, 1] = 0.5
        dup = sp.csr_matrix(
            (np.array([1.0, 2.0, 4.0, 0.25, 0.25]), np.array([1, 1, 0, 1, 1]),
             np.array([0, 2, 3, 5])), shape=(3, 3),
        )
        assert not dup.has_canonical_format
        dense = np.array([[0.0, 3.0, 0.0], [4.0, 0.0, 0.0], [0.0, 0.5, 0.0]])
        np.testing.assert_allclose(
            nmf_objective(dup, w, h), objective_oracle(dense, w, h), atol=1e-12
        )

    def test_dimension_mismatch(self, rng):
        x = np.ones((3, 4))
        with pytest.raises(ValueError, match="do not match"):
            nmf_objective(x, np.ones((3, 2)), np.ones((2, 5)))


class TestFit:
    @pytest.mark.parametrize("settings, name", [
        ({"max_iter": 0}, "max_iter"), ({"max_iter": -1}, "max_iter"),
        ({"max_iter": 2.5}, "max_iter"), ({"max_iter": True}, "max_iter"),
        ({"tol": -1e-6}, "tol"), ({"tol": np.nan}, "tol"), ({"tol": np.inf}, "tol"),
    ])
    def test_bad_solver_setting_names_it(self, rng, settings, name):
        x = np.abs(rng.standard_normal((6, 5)))
        with pytest.raises(ValueError, match=f"^{name} must be"):
            fit_nmf(x, 2, **settings)

    def test_exact_factors_are_a_fixed_point(self, rng):
        w = np.abs(rng.standard_normal((6, 2))) + 0.1
        h = np.abs(rng.standard_normal((2, 5))) + 0.1
        x = w @ h
        model = fit_nmf(x, 2, max_iter=50, init=(w, h))
        assert model.objective_trace[0] < 1e-20
        assert model.objective_trace[-1] < 1e-10
        np.testing.assert_allclose(model.doc_topic, w, rtol=1e-9)
        np.testing.assert_allclose(model.topic_term, h, rtol=1e-9)

    def test_rank_one_recovery(self):
        x = np.array([[1.0, 2.0], [2.0, 4.0]])
        model = fit_nmf(x, 1, max_iter=200)
        assert model.objective_trace[-1] < 1e-8

    def test_monotone_objective_on_seeded_problems(self, rng):
        for seed in range(20):
            local = np.random.default_rng(seed)
            x = np.abs(local.standard_normal((50, 40)))
            model = fit_nmf(x, 5, max_iter=60)
            trace = np.array(model.objective_trace)
            assert np.all(trace[1:] <= trace[:-1] * (1 + 1e-10))

    def test_nonnegativity_preserved(self, rng):
        x = np.abs(rng.standard_normal((12, 9)))
        model = fit_nmf(x, 3, max_iter=80)
        assert np.all(model.doc_topic >= 0)
        assert np.all(model.topic_term >= 0)

    def test_deterministic_regardless_of_seed(self, rng):
        x = np.abs(rng.standard_normal((10, 8)))
        a = fit_nmf(x, 3, max_iter=40, seed=1)
        b = fit_nmf(x, 3, max_iter=40, seed=999)
        assert np.array_equal(a.doc_topic, b.doc_topic)
        assert np.array_equal(a.topic_term, b.topic_term)

    def test_scale_indeterminacy_discipline(self, rng):
        # unit-normalising topic rows with compensating column scaling is a
        # pure reparameterisation: product, objective and the within-row
        # term rankings are all preserved
        x = np.abs(rng.standard_normal((10, 8)))
        model = fit_nmf(x, 3, max_iter=60)
        w, h = model.doc_topic, model.topic_term
        norms = np.linalg.norm(h, axis=1)
        h2 = h / norms[:, np.newaxis]
        w2 = w * norms[np.newaxis, :]
        np.testing.assert_allclose(w2 @ h2, w @ h, atol=1e-12)
        np.testing.assert_allclose(
            nmf_objective(x, w2, h2), nmf_objective(x, w, h), atol=1e-12
        )
        assert np.array_equal(np.argmax(h2, axis=1), np.argmax(h, axis=1))
        assert np.array_equal(np.argsort(h2, axis=1), np.argsort(h, axis=1))

    def test_works_on_sparse_tfidf(self, rng):
        docs = random_tokenized(rng, n_docs=10, vocab_size=14)
        vocab = build_vocabulary(docs)
        tfidf = tfidf_matrix(docs, vocab)
        model = fit_nmf(tfidf, 3, max_iter=50)
        trace = np.array(model.objective_trace)
        assert np.all(trace[1:] <= trace[:-1] * (1 + 1e-10))

    def test_monotone_objective_on_random_sparse_tfidf(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            x = random_tfidf(rng)
            dense = x.toarray()
            for k in range(2, min(6, min(x.shape) + 1)):
                model = fit_nmf(x, k, max_iter=60)
                trace = np.array(model.objective_trace)
                assert np.all(trace[1:] <= trace[:-1] * (1 + 1e-10)), (seed, k)
                # the last entry is the objective at the returned factors
                resid = dense - model.doc_topic @ model.topic_term
                np.testing.assert_allclose(
                    trace[-1], 0.5 * np.sum(resid * resid), rtol=1e-9,
                    atol=1e-12 * np.sum(dense * dense),
                )

    def test_runtime_budget(self):
        start = time.perf_counter()
        for seed in range(20):
            local = np.random.default_rng(seed)
            x = np.abs(local.standard_normal((50, 40)))
            fit_nmf(x, 5, max_iter=60)
        assert time.perf_counter() - start < 30.0

    @pytest.mark.parametrize("init", [False, True])
    def test_negative_sparse_entry_names_its_row(self, rng, init):
        dense = np.abs(rng.standard_normal((5, 6))) + 0.1
        dense[2, 4], dense[4, 0] = -0.5, -1.0
        start = (np.ones((5, 2)), np.ones((2, 6))) if init else None
        with pytest.raises(ValueError, match=r"^NMF input must be nonnegative and finite: row 2$"):
            fit_nmf(sp.csr_matrix(dense), 2, init=start)

    def test_nan_input_rejected(self):
        x = np.ones((4, 4))
        x[2, 2] = np.nan
        with pytest.raises(ValueError, match="nonnegative and finite"):
            fit_nmf(x, 2)

    def test_overflowing_update_raises(self):
        start = (np.ones((4, 2)), np.ones((2, 5)))
        with np.errstate(all="ignore"), pytest.raises(
                RuntimeError, match=r"^NMF update produced NaN/Inf at iteration 1$"):
            fit_nmf(np.full((4, 5), 1e200), 2, init=start)

    def test_stops_at_an_exact_zero_objective(self):
        # A zero matrix zeroes both factors in one update: the objective goes 24 -> 0.
        model = fit_nmf(np.zeros((3, 4)), 2, init=(np.ones((3, 2)), np.ones((2, 4))))
        assert model.objective_trace == [24.0, 0.0] and model.converged

    def test_init_shape_mismatch_rejected(self):
        x = np.ones((4, 5))
        with pytest.raises(ValueError, match="do not match"):
            fit_nmf(x, 2, init=(np.ones((4, 2)), np.ones((2, 6))))
