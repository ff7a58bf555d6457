import itertools
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import gammaln, logsumexp, psi

from topickit import lda
from topickit.corpus import load_corpus, preprocess_corpus
from topickit.lda import LdaConfig, LdaModel, _e_step, fit_lda, lda_elbo
from topickit.vectorize import DocTermMatrix, build_vocabulary, count_terms, tf_matrix

from conftest import random_tokenized, toks
from planted import EXPERIMENT_SEED, PLANTED_SEED, write_planted_corpus


def two_topic_corpus(rng, docs_per_topic=10, terms_per_topic=10, doc_len=30):
    """Planted corpus: two groups of documents over disjoint vocabularies."""
    letters = "abcdefghij"
    vocab_a = [f"ore{c}" for c in letters[:terms_per_topic]]
    vocab_b = [f"gas{c}" for c in letters[:terms_per_topic]]
    docs, labels = [], []
    for g, pool in enumerate((vocab_a, vocab_b)):
        for d in range(docs_per_topic):
            tokens = rng.choice(pool, size=doc_len).tolist()
            docs.append(toks(f"g{g}d{d}", tokens))
            labels.append(g)
    return docs, np.array(labels)


def random_tf(rng, n_docs=10, n_terms=18):
    docs = random_tokenized(rng, n_docs=n_docs, vocab_size=n_terms)
    vocab = build_vocabulary(docs)
    return tf_matrix(docs, vocab)


def tf_with_counts(rng, counts):
    """Random TF whose first stored count in row r is replaced by counts[r]."""
    tf = random_tf(rng)
    values = tf.values.tocsr().astype(np.float64)
    for row, value in counts.items():
        values.data[values.indptr[row]] = value
    return DocTermMatrix(values, "tf", tf.doc_ids)


def dirichlet_expectation(x):
    """E[log p] for Dirichlet rows (or one vector) parameterised by x."""
    return psi(x) - psi(np.sum(x, axis=-1, keepdims=True))


def loop_e_step(mat, gamma, expElogbeta, alpha, max_trips, tol):
    """Reference E-step: coordinate ascent one document at a time."""
    sstats = np.zeros_like(expElogbeta)
    updates = 0
    for d in range(mat.shape[0]):
        start, end = mat.indptr[d], mat.indptr[d + 1]
        ids = mat.indices[start:end]
        cts = mat.data[start:end]
        gammad = gamma[d]
        expElogthetad = np.exp(dirichlet_expectation(gammad))
        expElogbetad = expElogbeta[:, ids]
        phinorm = expElogthetad @ expElogbetad + 1e-100
        for _ in range(max_trips):
            last = gammad
            gammad = alpha + expElogthetad * ((cts / phinorm) @ expElogbetad.T)
            updates += 1
            expElogthetad = np.exp(dirichlet_expectation(gammad))
            phinorm = expElogthetad @ expElogbetad + 1e-100
            if np.mean(np.abs(gammad - last)) < tol * np.mean(gammad):
                break
        gamma[d] = gammad
        # add.at, not +=, so that duplicate column indices accumulate
        np.add.at(sstats.T, ids, np.outer(cts / phinorm, expElogthetad))
    return sstats * expElogbeta, updates


def loop_bound(mat, gamma, lam, alpha, beta):
    """Reference bound: the word term summed one document at a time."""
    n_docs, k = gamma.shape
    n_terms = lam.shape[1]
    Elogtheta = dirichlet_expectation(gamma)
    Elogbeta = dirichlet_expectation(lam)
    score = 0.0
    for d in range(n_docs):
        start, end = mat.indptr[d], mat.indptr[d + 1]
        ids = mat.indices[start:end]
        log_phinorm = logsumexp(Elogtheta[d][:, np.newaxis] + Elogbeta[:, ids], axis=0)
        score += float(mat.data[start:end] @ log_phinorm)
    score += float(np.sum((alpha - gamma) * Elogtheta))
    score += float(np.sum(gammaln(gamma)) - np.sum(gammaln(np.sum(gamma, axis=1))))
    score += n_docs * (gammaln(k * alpha) - k * gammaln(alpha))
    score += float(np.sum((beta - lam) * Elogbeta))
    score += float(np.sum(gammaln(lam)) - np.sum(gammaln(np.sum(lam, axis=1))))
    score += k * (gammaln(n_terms * beta) - n_terms * gammaln(beta))
    return score


def random_min_df_tf(rng):
    """TF of random documents with a min_df drawn from 1-3, empty rows dropped."""
    docs = random_tokenized(rng, n_docs=int(rng.integers(10, 30)),
                            vocab_size=int(rng.integers(8, 30)))
    tf = tf_matrix(docs, build_vocabulary(docs, min_df=int(rng.integers(1, 4))))
    keep = np.flatnonzero(np.diff(tf.values.indptr))
    return DocTermMatrix(tf.values[keep], "tf", tuple(tf.doc_ids[i] for i in keep))


def uneven_tf(rng):
    """TF whose one-entry documents sit next to documents over most of the vocabulary."""
    lengths = [1, 70, 1, 3, 55, 1, 2, 80, 1, 12, 40, 1]
    indices = np.concatenate([np.sort(rng.choice(80, size=n, replace=False)) for n in lengths])
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    data = rng.integers(1, 6, size=indptr[-1]).astype(np.float64)
    values = sp.csr_matrix((data, indices, indptr), shape=(len(lengths), 80))
    return DocTermMatrix(values, "tf", tuple(f"d{i:03d}" for i in range(len(lengths))))


def planted_tf(tmp_path):
    path = tmp_path / "planted.jsonl"
    write_planted_corpus(path, seed=PLANTED_SEED)
    docs, _ = preprocess_corpus(load_corpus(path))
    return tf_matrix(docs, build_vocabulary(docs))


@pytest.fixture(scope="module")
def reports_tf(tmp_path_factory):
    """TF (min_df 10) of 300 documents from the bench's report-like generator, seed 1."""
    bench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, bench)
    try:
        from corpora import ReportsParams, write_reports_corpus
    finally:
        sys.path.remove(bench)
    path = tmp_path_factory.mktemp("reports") / "reports.jsonl"
    write_reports_corpus(path, ReportsParams(docs=300, length_lo=80, length_hi=300), 1)
    docs, _ = preprocess_corpus(load_corpus(path))
    return count_terms(docs, min_df=10)[1]


def assert_elbo_non_decreasing(rng):
    for seed in range(20):
        tf = random_tf(rng, n_docs=10, n_terms=15)
        model = fit_lda(tf, LdaConfig(k=3, seed=seed, max_iter=60))
        trace = np.array(model.elbo_trace)
        slack = 1e-8 * np.abs(trace[:-1])
        assert np.all(np.diff(trace) >= -slack)


def single_topic_bound(counts, alpha, beta):
    """Closed-form variational bound for the one-topic degeneracy.

    With one topic every responsibility is 1, the document Dirichlet terms
    vanish, and the bound reduces to the word term plus the topic-word
    Dirichlet terms with parameters beta + corpus counts.
    """
    term_counts = counts.sum(axis=0)
    n_terms = counts.shape[1]
    lam = beta + term_counts
    elog_beta = psi(lam) - psi(lam.sum())
    bound = float(term_counts @ elog_beta)
    bound += float(np.sum((beta - lam) * elog_beta))
    bound += float(np.sum(gammaln(lam)) - gammaln(lam.sum()))
    bound += float(gammaln(n_terms * beta) - n_terms * gammaln(beta))
    return bound


class TestSingleTopicDegeneracy:
    def test_doc_topic_is_all_ones(self, rng):
        tf = random_tf(rng)
        model = fit_lda(tf, LdaConfig(k=1, max_iter=20))
        np.testing.assert_array_equal(model.doc_topic, np.ones((tf.shape[0], 1)))

    def test_topic_term_matches_closed_form(self, rng):
        tf = random_tf(rng)
        model = fit_lda(tf, LdaConfig(k=1, max_iter=20))
        counts = tf.values.toarray().sum(axis=0)
        beta = model.beta  # fixed at 1/k = 1
        expected = (beta + counts) / (beta * tf.shape[1] + counts.sum())
        np.testing.assert_allclose(model.topic_term[0], expected, rtol=1e-12)

    def test_elbo_matches_hand_derivation(self, rng):
        tf = random_tf(rng)
        model = fit_lda(tf, LdaConfig(k=1, max_iter=20))
        expected = single_topic_bound(tf.values.toarray(), model.alpha, model.beta)
        np.testing.assert_allclose(model.elbo_trace[-1], expected, rtol=1e-10)


class TestContracts:
    def test_rows_are_distributions(self, rng):
        for seed in range(5):
            tf = random_tf(rng, n_docs=12, n_terms=20)
            model = fit_lda(tf, LdaConfig(k=3, seed=seed, max_iter=40))
            assert np.all(model.doc_topic >= 0)
            assert np.all(model.topic_term >= 0)
            np.testing.assert_allclose(model.doc_topic.sum(axis=1), 1.0, atol=1e-9)
            np.testing.assert_allclose(model.topic_term.sum(axis=1), 1.0, atol=1e-9)

    def test_elbo_non_decreasing(self, rng):
        assert_elbo_non_decreasing(rng)

    @pytest.mark.parametrize("inner_max_iter", [1, 5])
    def test_elbo_non_decreasing_for_any_inner_count(self, rng, monkeypatch, inner_max_iter):
        monkeypatch.setattr(lda, "_INNER_MAX_ITER", inner_max_iter)
        assert_elbo_non_decreasing(rng)

    def test_elbo_non_decreasing_on_random_corpora(self):
        for seed in range(30):
            tf = random_min_df_tf(np.random.default_rng(seed))
            for k in range(2, min(5, tf.shape[0]) + 1):
                model = fit_lda(tf, LdaConfig(k=k, seed=seed, max_iter=60))
                trace = np.array(model.elbo_trace)
                assert np.all(np.diff(trace) >= -1e-8 * np.abs(trace[:-1])), (seed, k)
                np.testing.assert_allclose(lda_elbo(model, tf), trace[-1], rtol=1e-9)

    def test_inner_updates_counted(self, rng):
        tf = random_tf(rng)
        a = fit_lda(tf, LdaConfig(k=3, seed=11, max_iter=25))
        b = fit_lda(tf, LdaConfig(k=3, seed=11, max_iter=25))
        assert isinstance(a.inner_updates, int)
        # every document is updated at least once per outer iteration
        assert a.inner_updates >= tf.shape[0] * len(a.elbo_trace) > 0
        assert a.inner_updates == b.inner_updates

    def test_final_elbo_recomputable(self, rng):
        tf = random_tf(rng)
        model = fit_lda(tf, LdaConfig(k=2, max_iter=30))
        # bit for bit: the fit's bound shares one theta and the lengths with its statistics
        assert lda_elbo(model, tf) == model.elbo_trace[-1]

    def test_seeded_determinism_bitwise(self, rng):
        tf = random_tf(rng)
        a = fit_lda(tf, LdaConfig(k=3, seed=11, max_iter=25))
        b = fit_lda(tf, LdaConfig(k=3, seed=11, max_iter=25))
        assert np.array_equal(a.doc_topic, b.doc_topic)
        assert np.array_equal(a.topic_term, b.topic_term)

    def test_convergence_flag(self, rng):
        tf = random_tf(rng)
        starved = fit_lda(tf, LdaConfig(k=2, max_iter=2))
        assert not starved.converged
        settled = fit_lda(tf, LdaConfig(k=2, max_iter=500, tol=1e-8))
        assert settled.converged


def assert_e_step_matches_loop(rng, mat, k, max_trips, tol=lda._INNER_TOL):
    alpha = 1.0 / k
    expElogbeta = np.exp(dirichlet_expectation(rng.gamma(100.0, 0.01, (k, mat.shape[1]))))
    start = alpha + rng.gamma(2.0, 5.0, (mat.shape[0], k))
    gamma, ref_gamma = start.T.copy(), start.copy()  # the library's gamma is (K, D)
    blocks = lda._blocks(mat.indptr, k)
    phinorm = lda._phinorm_at(mat, blocks, lda._psi_theta(gamma)[1], expElogbeta)
    updates = _e_step(mat, blocks, gamma, phinorm, expElogbeta, alpha, max_trips, tol)
    sstats = lda._sstats(mat, blocks, mat.copy().T, lda._psi_theta(gamma)[1], expElogbeta)
    gamma = gamma.T
    ref_sstats, ref_updates = loop_e_step(mat, ref_gamma, expElogbeta, alpha, max_trips, tol)
    np.testing.assert_allclose(gamma, ref_gamma, rtol=1e-12)
    np.testing.assert_allclose(sstats, ref_sstats, rtol=1e-12)
    assert updates == ref_updates <= max_trips * mat.shape[0]


def assert_e_step_matches_loop_on_random_tf(rng, k, max_trips, tol=lda._INNER_TOL):
    for _ in range(4):
        tf = random_tf(rng, n_docs=12, n_terms=20)
        assert_e_step_matches_loop(rng, tf.values.tocsr(), k, max_trips, tol)


def model_at(gamma, lam, alpha=0.3, beta=0.2):
    """A model holding only what lda_elbo reads."""
    return LdaModel(doc_topic=None, topic_term=None, elbo_trace=[], alpha=alpha, beta=beta,
                    converged=False, inner_updates=0, gamma_=gamma, lambda_=lam)


def random_parameters(rng, tf, k):
    gamma = 0.5 + rng.gamma(2.0, 5.0, (tf.shape[0], k))
    lam = 0.5 + rng.gamma(2.0, 5.0, (k, tf.shape[1]))
    return gamma, lam


class TestBatchedMatchesLoop:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_e_step_matches_loop(self, rng, k):
        assert_e_step_matches_loop_on_random_tf(rng, k, lda._INNER_MAX_ITER)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_e_step_matches_loop_at_the_early_tolerance(self, rng, k):
        assert_e_step_matches_loop_on_random_tf(rng, k, lda._INNER_MAX_ITER, lda._INNER_TOL_EARLY)

    @pytest.mark.parametrize("max_trips", [1, 3])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_e_step_matches_loop_under_cap(self, rng, k, max_trips):
        assert_e_step_matches_loop_on_random_tf(rng, k, max_trips)

    @pytest.mark.parametrize("max_trips", [1, 3, lda._INNER_MAX_ITER, 1000])
    def test_e_step_matches_loop_on_uneven_rows(self, rng, max_trips):
        # 1-entry rows next to rows over most of the vocabulary, so that
        # documents leave the active set at very different trips
        mat = uneven_tf(rng).values
        for k, tol in itertools.product((2, 4), (lda._INNER_TOL, lda._INNER_TOL_EARLY)):
            assert_e_step_matches_loop(rng, mat, k, max_trips, tol)

    @pytest.mark.parametrize("max_trips", [1, 3, lda._INNER_MAX_ITER, 1000])
    def test_e_step_matches_loop_on_duplicate_unsorted_indices(self, rng, max_trips):
        indices = np.array([4, 1, 4, 0, 7, 7, 7, 2, 5, 3, 3, 6, 1, 0, 1])
        indptr = np.array([0, 3, 7, 8, 11, 15])
        data = rng.integers(1, 6, size=len(indices)).astype(np.float64)
        mat = sp.csr_matrix((data, indices, indptr), shape=(5, 8))
        assert not mat.has_canonical_format
        for k, tol in itertools.product((2, 3), (lda._INNER_TOL, lda._INNER_TOL_EARLY)):
            assert_e_step_matches_loop(rng, mat, k, max_trips, tol)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_bound_matches_loop(self, rng, k):
        for _ in range(4):
            tf = random_tf(rng, n_docs=12, n_terms=20)
            gamma, lam = random_parameters(rng, tf, k)
            np.testing.assert_allclose(
                lda_elbo(model_at(gamma, lam), tf),
                loop_bound(tf.values.tocsr(), gamma, lam, 0.3, 0.2), rtol=1e-12,
            )


class TestFusedBound:
    """The bound from the shifted, fused phinorm against the logsumexp loop oracle."""

    @pytest.mark.parametrize("tiny", [1e-300, 5e-4])
    def test_tiny_gamma_document(self, rng, tiny):
        tf = random_tf(rng, n_docs=12, n_terms=20)
        gamma, lam = random_parameters(rng, tf, 3)
        gamma[4] = tiny * np.array([1.0, 0.8, 1.2])
        # unshifted exp(E[log theta]) of that document underflows to 0
        assert np.all(np.exp(dirichlet_expectation(gamma[4])) == 0)
        np.testing.assert_allclose(
            lda_elbo(model_at(gamma, lam), tf),
            loop_bound(tf.values.tocsr(), gamma, lam, 0.3, 0.2), rtol=1e-12,
        )

    def test_peaked_lambda_row(self, rng):
        tf = random_tf(rng, n_docs=12, n_terms=20)
        gamma, lam = random_parameters(rng, tf, 3)
        lam[1] = 1e-3
        lam[1, 7] = 1e8
        # exp(E[log beta]) of that topic underflows to 0 off its peak
        assert np.sum(np.exp(dirichlet_expectation(lam[1])) > 0) == 1
        np.testing.assert_allclose(
            lda_elbo(model_at(gamma, lam), tf),
            loop_bound(tf.values.tocsr(), gamma, lam, 0.3, 0.2), rtol=1e-12,
        )

    def test_every_trace_entry_matches_oracle(self, monkeypatch):
        calls = []
        real_bound = lda._bound

        def recording_bound(mat, blocks, gamma, lam, alpha, beta, *shared):
            out = real_bound(mat, blocks, gamma, lam, alpha, beta, *shared)
            calls.append((gamma.T.copy(), lam.copy(), alpha, beta, out[0]))
            return out

        monkeypatch.setattr(lda, "_bound", recording_bound)
        for seed in range(10):  # the first ten of the non-decreasing test's corpora
            tf = random_min_df_tf(np.random.default_rng(seed))
            mat = tf.values.tocsr()
            for k in range(2, min(4, tf.shape[0]) + 1):
                calls.clear()
                model = fit_lda(tf, LdaConfig(k=k, seed=seed, max_iter=60))
                # the first call is at the starting point and is not recorded
                assert [c[-1] for c in calls[1:]] == model.elbo_trace
                for gamma, lam, alpha, beta, bound in calls[1:]:
                    np.testing.assert_allclose(
                        bound, loop_bound(mat, gamma, lam, alpha, beta), rtol=1e-12
                    )
                assert lda_elbo(model, tf) == model.elbo_trace[-1]


class TestInnerSchedule:
    def test_tolerance_follows_the_last_relative_bound_change(self, tmp_path, monkeypatch):
        steps, bounds, bound, start = [], [], lda._bound, []

        def recording_e_step(*args):
            steps.append(args[-2:])  # (max_trips, tol)
            return _e_step(*args)

        def recording_bound(*args):
            score, *rest = bound(*args)
            bounds.append(start.pop() if start else score)
            return (bounds[-1], *rest)

        def tolerances(tf):
            steps.clear()
            bounds.clear()
            model = fit_lda(tf, LdaConfig(k=4, seed=EXPERIMENT_SEED))
            assert bounds[1:] == model.elbo_trace  # bounds[0] is the start point's
            tols = [tol for _, tol in steps]
            assert len(tols) == len(model.elbo_trace) and tols[0] == 1e-2
            for t in range(1, len(tols)):
                change = abs(bounds[t] - bounds[t - 1]) / abs(bounds[t - 1])
                assert tols[t] == min(1e-2, max(1e-6, 10 * change))
            assert [cap for cap, _ in steps] == [lda._INNER_MAX_ITER] * len(steps)
            return tols

        monkeypatch.setattr(lda, "_e_step", recording_e_step)
        monkeypatch.setattr(lda, "_bound", recording_bound)
        tf = planted_tf(tmp_path)
        assert any(1e-6 < tol < 1e-2 for tol in tolerances(tf))
        # a start bound just below the first E-step's: the second tolerance follows it
        start.append(bounds[1] * (1 + 1e-5))
        assert tolerances(tf)[1] < 1e-3

    def test_cap_bounds_the_work_and_cut_off_documents_resume(self, tmp_path, monkeypatch):
        steps = []  # per E-step: gamma before and after, updates, documents cut off at the cap

        def recording_e_step(mat, blocks, gamma, phinorm, expElogbeta, alpha, max_trips, tol):
            before, longer = gamma.copy(), gamma.copy()
            updates = _e_step(mat, blocks, gamma, phinorm, expElogbeta, alpha, max_trips, tol)
            # a document cut off at the cap takes one more update under a cap one higher
            _e_step(mat, blocks, longer, phinorm, expElogbeta, alpha, max_trips + 1, tol)
            steps.append((before, gamma.copy(), updates, np.any(longer != gamma, axis=0)))
            return updates

        monkeypatch.setattr(lda, "_e_step", recording_e_step)
        tf = planted_tf(tmp_path)
        model = fit_lda(tf, LdaConfig(k=5, seed=EXPERIMENT_SEED))
        assert sum(updates for _, _, updates, _ in steps) == model.inner_updates
        assert all(updates <= lda._INNER_MAX_ITER * tf.shape[0] for _, _, updates, _ in steps)
        assert any(cut.any() for *_, cut in steps[:-1])
        for (_, after, _, cut), (before, next_after, _, _) in zip(steps, steps[1:]):
            assert np.array_equal(before, after)  # the next E-step starts from the cut gamma
            assert np.all(np.any(next_after[:, cut] != after[:, cut], axis=0))

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_planted_bound_no_lower_than_flat_cap(self, tmp_path, monkeypatch, k):
        # the flat reference: a 1e-6 tolerance and the 1000 cap in every E-step
        tf = planted_tf(tmp_path)
        scheduled = fit_lda(tf, LdaConfig(k=k, seed=EXPERIMENT_SEED)).elbo_trace[-1]
        monkeypatch.setattr(lda, "_INNER_TOL_EARLY", lda._INNER_TOL)
        monkeypatch.setattr(lda, "_INNER_MAX_ITER", 1000)
        flat = fit_lda(tf, LdaConfig(k=k, seed=EXPERIMENT_SEED)).elbo_trace[-1]
        assert scheduled >= flat - 1e-9 * abs(flat)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_held_out_bound_no_lower_than_flat_cap(self, reports_tf, monkeypatch, seed):
        # a corpus no inner setting was tuned on; the loose, capped first
        # E-steps ended 1.0e4-1.4e4 nats higher over LDA seeds 0-5
        scheduled = fit_lda(reports_tf, LdaConfig(k=5, seed=seed)).elbo_trace[-1]
        monkeypatch.setattr(lda, "_INNER_TOL_EARLY", lda._INNER_TOL)
        monkeypatch.setattr(lda, "_INNER_MAX_ITER", 1000)
        flat = fit_lda(reports_tf, LdaConfig(k=5, seed=seed)).elbo_trace[-1]
        assert scheduled >= flat


class TestRowBlocks:
    def assert_blocks_change_nothing(self, monkeypatch, tf, config, entries_per_block):
        indptr = tf.values.tocsr().indptr
        assert len(lda._blocks(indptr, config.k)) == 1
        whole = fit_lda(tf, config)
        monkeypatch.setattr(lda, "_BLOCK_FLOATS", config.k * entries_per_block)
        blocks = lda._blocks(indptr, config.k)
        assert len(blocks) >= 3 and any(stop - start == 1 for start, stop, _, _ in blocks)
        assert [b[0] for b in blocks[1:]] == [b[1] for b in blocks[:-1]]
        assert (blocks[0][0], blocks[-1][1]) == (0, tf.shape[0])
        for start, stop, lo, hi in blocks:
            assert (lo, hi) == (indptr[start], indptr[stop])
            assert hi - lo <= entries_per_block or stop - start == 1
        blocked = fit_lda(tf, config)
        assert np.array_equal(blocked.doc_topic, whole.doc_topic)
        assert np.array_equal(blocked.topic_term, whole.topic_term)
        assert blocked.elbo_trace == whole.elbo_trace
        assert blocked.inner_updates == whole.inner_updates

    @pytest.mark.parametrize("entries_per_block", ["longest - 1", 1])
    def test_planted_fit_is_bitwise_the_one_block_fit(
        self, tmp_path, monkeypatch, entries_per_block
    ):
        tf = planted_tf(tmp_path)
        if entries_per_block == "longest - 1":  # that row is a block of its own
            entries_per_block = int(np.diff(tf.values.tocsr().indptr).max()) - 1
        config = LdaConfig(k=4, seed=EXPERIMENT_SEED)
        self.assert_blocks_change_nothing(monkeypatch, tf, config, entries_per_block)

    @pytest.mark.parametrize("entries_per_block", [79, 1])
    @pytest.mark.parametrize("k", [3, 8])
    def test_random_fit_is_bitwise_the_one_block_fit(self, monkeypatch, k, entries_per_block):
        config = LdaConfig(k=k, seed=3, max_iter=30)
        tf = uneven_tf(np.random.default_rng(5))
        self.assert_blocks_change_nothing(monkeypatch, tf, config, entries_per_block)

    @pytest.mark.parametrize("k", [3, 12])
    def test_a_lone_column_is_summed_as_in_a_wider_array(self, rng, k):
        # numpy sums a lone column (K >= 8) and einsums one (K >= 3) in
        # another order than the columns of a wider array
        x = rng.random((k, 9)) * 10.0 ** rng.uniform(-3, 3, (k, 9))
        lengths = np.array([1, 3, 2, 1, 4, 1, 2, 1, 5])
        betad = rng.random((k, lengths.sum()))
        wide_sums, wide_phinorm = lda._colsum(x), lda._phinorm(x, lengths, betad)
        firsts = np.cumsum(lengths) - lengths
        for d in range(9):
            assert lda._colsum(x[:, [d]])[0] == wide_sums[d]
            if lengths[d] == 1:
                lone = lda._phinorm(x[:, [d]], lengths[[d]], betad[:, [firsts[d]]])
                assert lone[0] == wide_phinorm[firsts[d]]

    def test_traced_peak_is_bounded_by_block_and_factor_sizes(self, monkeypatch):
        rng = np.random.default_rng(7)
        n_docs, n_terms, k = 400, 300, 5
        lengths = rng.integers(20, 80, n_docs)
        indices = np.concatenate([np.sort(rng.choice(n_terms, n, replace=False)) for n in lengths])
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        data = rng.integers(1, 6, len(indices)).astype(np.float64)
        values = sp.csr_matrix((data, indices, indptr), shape=(n_docs, n_terms))
        tf = DocTermMatrix(values, "tf", tuple(f"d{i:03d}" for i in range(n_docs)))
        block = k * values.nnz // 20
        monkeypatch.setattr(lda, "_BLOCK_FLOATS", block)
        tracemalloc.start()
        try:
            fit_lda(tf, LdaConfig(k=k, seed=0, max_iter=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one (nnz, K) float array alone is 3.5 of these units
        unit = 8 * (block + (n_docs + n_terms) * k + values.nnz)
        assert peak < 5 * unit


class TestErrors:
    def test_k_exceeds_documents(self, rng):
        tf = random_tf(rng, n_docs=4)
        with pytest.raises(ValueError, match="exceeds document count"):
            fit_lda(tf, LdaConfig(k=5))

    def test_non_integer_counts_rejected(self, rng):
        docs = random_tokenized(rng)
        vocab = build_vocabulary(docs)
        tf = tf_matrix(docs, vocab)
        bad = DocTermMatrix(tf.values * 0.5, "tf", tf.doc_ids)
        with pytest.raises(ValueError, match="integer"):
            fit_lda(bad, LdaConfig(k=2))

    @pytest.mark.parametrize("value", [-3.0, np.inf, np.nan])
    def test_bad_count_rejected_naming_first_doc(self, rng, value):
        tf = tf_with_counts(rng, {3: value, 6: -1.0})
        with pytest.raises(ValueError, match="nonnegative and finite: doc 'd003'"):
            fit_lda(tf, LdaConfig(k=2))

    def test_overflowing_update_raises(self, rng):
        tf = tf_with_counts(rng, {2: 1e308})
        with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="NaN/Inf at iteration 1"):
            fit_lda(tf, LdaConfig(k=2))

    def test_tfidf_input_rejected(self, rng):
        docs = random_tokenized(rng)
        vocab = build_vocabulary(docs)
        from topickit.vectorize import tfidf_matrix
        with pytest.raises(ValueError, match="raw term counts"):
            fit_lda(tfidf_matrix(docs, vocab), LdaConfig(k=2))

    def test_zero_row_rejected(self):
        docs = [toks("d1", ["coal"]), toks("d2", [])]
        vocab = build_vocabulary(docs)
        tf = tf_matrix(docs, vocab)
        with pytest.raises(ValueError, match="all-zero"):
            fit_lda(tf, LdaConfig(k=1))

    def test_bad_config(self):
        with pytest.raises(ValueError):
            LdaConfig(k=0)

    @pytest.mark.parametrize("docs, terms", [(11, 20), (12, 21)])
    def test_elbo_shape_mismatch_rejected(self, rng, docs, terms):
        tf = random_tf(rng, n_docs=12, n_terms=20)
        model = model_at(np.ones((docs, 2)), np.ones((2, terms)))
        with pytest.raises(ValueError, match=rf"model shape \({docs}, {terms}\) does not match"):
            lda_elbo(model, tf)

    @pytest.mark.parametrize("settings, name", [
        ({"max_iter": 0}, "max_iter"), ({"max_iter": -1}, "max_iter"),
        ({"max_iter": 2.5}, "max_iter"), ({"max_iter": True}, "max_iter"),
        ({"tol": -1e-6}, "tol"), ({"tol": np.nan}, "tol"), ({"tol": np.inf}, "tol"),
    ])
    def test_bad_solver_setting_names_it(self, settings, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            LdaConfig(k=2, **settings)


class TestPlantedSeparation:
    def test_two_disjoint_topics_separate_exactly(self, rng):
        docs, labels = two_topic_corpus(rng)
        vocab = build_vocabulary(docs)
        tf = tf_matrix(docs, vocab)
        model = fit_lda(tf, LdaConfig(k=2, seed=3, max_iter=100))
        assigned = np.argmax(model.doc_topic, axis=1)
        # allow the label permutation
        agree = np.mean(assigned == labels)
        assert agree == 1.0 or agree == 0.0

    def test_permutation_equivariance(self, rng):
        docs, _ = two_topic_corpus(rng, docs_per_topic=6, doc_len=25)
        vocab = build_vocabulary(docs)
        tf = tf_matrix(docs, vocab)
        model_a = fit_lda(tf, LdaConfig(k=2, seed=5, max_iter=80))

        perm = rng.permutation(len(docs))
        shuffled = [docs[i] for i in perm]
        tf_b = tf_matrix(shuffled, vocab)
        model_b = fit_lda(tf_b, LdaConfig(k=2, seed=5, max_iter=80))

        # match topics of b onto a by nearest topic-term rows
        mapping = []
        for row in model_b.topic_term:
            mapping.append(int(np.argmin(np.linalg.norm(model_a.topic_term - row, axis=1))))
        assert sorted(mapping) == [0, 1]
        np.testing.assert_allclose(
            model_b.topic_term, model_a.topic_term[mapping], rtol=1e-5, atol=1e-8
        )
        np.testing.assert_allclose(
            model_b.doc_topic[:, np.argsort(mapping)][np.argsort(perm)],
            model_a.doc_topic,
            rtol=1e-5, atol=1e-8,
        )
