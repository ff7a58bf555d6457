import json
import math

import numpy as np
import pytest

from topickit import evaluate
from topickit.evaluate import (
    argmax_assign,
    build_report,
    decisiveness,
    group_frequent_terms,
    keyword_match_ratio,
    silhouette,
    top_keywords,
)
from topickit.export import write_json
from topickit.lda import LdaConfig, fit_lda
from topickit.vectorize import build_vocabulary, tf_matrix, tfidf_matrix

from conftest import random_tokenized, toks
from test_lda import two_topic_corpus

DOCS = [toks("d1", ["coal", "seam"]), toks("d2", ["gold", "ore"]), toks("d3", ["coal", "ore"])]


def silhouette_oracle(points, labels):
    """Direct double-loop evaluation of (b - a) / max(a, b) per sample."""
    n = len(points)
    out = []
    for i in range(n):
        own = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not own:
            out.append(0.0)
            continue
        a = sum(math.dist(points[i], points[j]) for j in own) / len(own)
        b = math.inf
        for other in set(labels) - {labels[i]}:
            members = [j for j in range(n) if labels[j] == other]
            b = min(b, sum(math.dist(points[i], points[j]) for j in members) / len(members))
        out.append(0.0 if max(a, b) == 0 else (b - a) / max(a, b))
    return np.array(out)


def silhouette_row_oracle(points, labels):
    """The oracle's rule one sample at a time, with numpy distances (fast at n=1000)."""
    out = np.zeros(len(points))
    for i, point in enumerate(points):
        dist = np.sqrt(((points - point) ** 2).sum(axis=1))
        own = labels == labels[i]
        if own.sum() == 1:
            continue
        a = dist[own].sum() / (own.sum() - 1)
        b = min(dist[labels == c].mean() for c in set(labels.tolist()) - {labels[i]})
        out[i] = 0.0 if max(a, b) == 0 else (b - a) / max(a, b)
    return out


class TestArgmaxAssign:
    def test_simple_row(self):
        got = argmax_assign(np.array([[0.1, 0.7, 0.2]]), ["d1"])
        assert got.tolist() == [1]

    def test_tie_breaks_to_lowest_index(self):
        got = argmax_assign(np.array([[0.5, 0.5]]), ["d1"])
        assert got.tolist() == [0]

    def test_positive_row_scaling_invariance(self, rng):
        w = rng.uniform(0.0, 1.0, (20, 4))
        scaled = w * rng.uniform(0.1, 10.0, size=(20, 1))
        a = argmax_assign(w, [str(i) for i in range(20)])
        b = argmax_assign(scaled, [str(i) for i in range(20)])
        assert np.array_equal(a, b)

    def test_planted_lda_separation(self, rng):
        docs, labels = two_topic_corpus(rng)
        vocab = build_vocabulary(docs)
        tf = tf_matrix(docs, vocab)
        model = fit_lda(tf, LdaConfig(k=2, seed=3, max_iter=100))
        got = argmax_assign(model.doc_topic, tf.doc_ids)
        agree = np.mean(got == labels)
        assert agree in (0.0, 1.0)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            argmax_assign(np.empty((0, 3)), [])

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            argmax_assign(np.array([[0.1, np.nan]]), ["d1"])


class TestSilhouette:
    def test_equidistant_sample_scores_zero(self):
        # middle point: a == b == 2, so s = 0
        points = np.array([[0.0], [2.0], [4.0]])
        labels = np.array([0, 0, 1])
        result = silhouette(points, labels)
        assert result.per_sample[1] == 0.0

    def test_two_far_blobs(self):
        points = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 10.0], [10.0, 11.0]])
        labels = np.array([0, 0, 1, 1])
        result = silhouette(points, labels)
        assert np.all(result.per_sample > 0.9)
        assert result.mean > 0.9

    def test_matches_oracle_on_random_sets(self, rng):
        for _ in range(200):
            n = int(rng.integers(4, 15))
            dim = int(rng.integers(1, 5))
            n_clusters = int(rng.integers(2, 5))
            points = rng.standard_normal((n, dim))
            labels = rng.integers(0, n_clusters, n)
            if len(np.unique(labels)) < 2:
                labels[0] = 0
                labels[1] = 1
            got = silhouette(points, labels)
            want = silhouette_oracle(points.tolist(), labels.tolist())
            np.testing.assert_allclose(got.per_sample, want, atol=1e-9)
            assert np.all(got.per_sample >= -1.0) and np.all(got.per_sample <= 1.0)
            np.testing.assert_allclose(got.mean, want.mean(), atol=1e-12)

    def test_singleton_cluster_scores_zero(self):
        points = np.array([[0.0], [0.1], [9.0]])
        labels = np.array([0, 0, 1])
        result = silhouette(points, labels)
        assert result.per_sample[2] == 0.0

    def test_single_cluster_rejected(self):
        with pytest.raises(ValueError, match="single cluster"):
            silhouette(np.eye(3), np.zeros(3, dtype=int))

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            silhouette(np.ones((1, 2)), np.array([0]))

    def test_metric_tag_stored(self):
        points = np.array([[0.0], [1.0]])
        result = silhouette(points, np.array([0, 1]))
        assert result.distance == "euclidean"

    def test_row_blocks_match_one_block(self, rng, monkeypatch):
        points = rng.standard_normal((50, 3))
        labels = rng.integers(0, 4, 50)
        labels[7] = 9  # a singleton cluster
        whole = silhouette(points, labels)

        shapes, real_distances = [], evaluate._distances

        def recording_distances(block, points_t, out, squares):
            shapes.append(out.shape)
            return real_distances(block, points_t, out, squares)

        monkeypatch.setattr(evaluate, "_BLOCK_FLOATS", 16 * 50)
        monkeypatch.setattr(evaluate, "_distances", recording_distances)
        blocked = silhouette(points, labels)
        assert len(shapes) >= 3
        assert all(rows * cols <= evaluate._BLOCK_FLOATS for rows, cols in shapes)
        assert sum(rows for rows, _ in shapes) == 50
        assert np.array_equal(blocked.per_sample, whole.per_sample)
        assert blocked.mean == whole.mean
        want = silhouette_oracle(points.tolist(), labels.tolist())
        np.testing.assert_allclose(blocked.per_sample, want, atol=1e-9)

    @pytest.mark.parametrize("k", [5, 6])
    def test_sums_do_not_depend_on_the_block(self, monkeypatch, k):
        # At n=1000 a BLAS product's sums change with the row split; per-row sums must not.
        rng = np.random.default_rng(k)
        points = rng.dirichlet(np.full(k, 0.3), 1000)
        labels = np.argmax(points, axis=1)
        results = []
        for block in (2**14, 2**16, 2**30):
            monkeypatch.setattr(evaluate, "_BLOCK_FLOATS", block)
            results.append(silhouette(points, labels).per_sample)
        assert all(np.array_equal(result, results[0]) for result in results)
        np.testing.assert_allclose(results[0], silhouette_row_oracle(points, labels), atol=1e-9)


    @pytest.mark.parametrize("block", [2**7, 2**11, 2**16])
    def test_distances_are_scipys_cdist_bit_for_bit(self, monkeypatch, block):
        # The kernel sums the squared differences in cdist's order, so every silhouette
        # (and every LDA and NTF artifact) keeps the bits it had with cdist.
        cdist = pytest.importorskip("scipy.spatial.distance").cdist
        real_distances, seen = evaluate._distances, []

        def checked_distances(rows, points_t, out, squares):
            got = real_distances(rows, points_t, out, squares)
            assert np.array_equal(got, cdist(rows, points_t.T))
            seen.append(len(rows))
            return got

        monkeypatch.setattr(evaluate, "_BLOCK_FLOATS", block)
        monkeypatch.setattr(evaluate, "_distances", checked_distances)
        rng = np.random.default_rng(block)
        for k in range(1, 13):
            points = rng.dirichlet(np.full(k, 0.3), 120) if k > 1 else rng.random((120, 1))
            points[:3] *= 1e3  # far points: large sums beside small ones
            silhouette(points, np.argmax(points, axis=1) if k > 1 else points[:, 0] > 0.5)
        assert sum(seen) == 12 * 120 and len(seen) >= 12


class TestTopKeywords:
    def test_single_topic_equals_frequency_ranking(self, rng):
        docs = random_tokenized(rng, n_docs=8, vocab_size=40)
        vocab = build_vocabulary(docs)
        tf = tf_matrix(docs, vocab)
        weights = np.asarray(tf.values.sum(axis=0))  # corpus frequencies
        top = top_keywords(weights, vocab, n=30)[0]
        totals = np.asarray(tf.values.sum(axis=0)).ravel()
        order = np.lexsort((np.array(vocab.index_to_term), -totals))
        assert top == [vocab.index_to_term[i] for i in order[:30]]

    def test_row_with_exactly_n_nonzeros(self):
        docs = [toks("d1", ["ore", "coal", "gas", "tin"])]
        vocab = build_vocabulary(docs)
        row = np.zeros((1, 4))
        row[0, vocab.term_to_index["coal"]] = 3.0
        row[0, vocab.term_to_index["tin"]] = 1.0
        top = top_keywords(row, vocab, n=2)[0]
        assert top == ["coal", "tin"]

    def test_ties_lexicographic(self):
        docs = [toks("d1", ["zinc", "coal", "ore"])]
        vocab = build_vocabulary(docs)
        row = np.ones((1, 3))
        assert top_keywords(row, vocab, n=3)[0] == ["coal", "ore", "zinc"]

    def test_n_too_large(self):
        docs = [toks("d1", ["coal"])]
        vocab = build_vocabulary(docs)
        with pytest.raises(ValueError, match="exceeds vocabulary"):
            top_keywords(np.ones((1, 1)), vocab, n=2)


class TestGroupFrequentTerms:
    def test_whole_corpus_group(self, rng):
        docs = random_tokenized(rng, n_docs=6, vocab_size=35)
        vocab = build_vocabulary(docs)
        tf = tf_matrix(docs, vocab)
        labels = argmax_assign(np.ones((len(docs), 1)), tf.doc_ids)
        groups = group_frequent_terms(tf, labels, 1, vocab, n=30)
        totals = np.asarray(tf.values.sum(axis=0)).ravel()
        order = np.lexsort((np.array(vocab.index_to_term), -totals))
        assert groups[0] == [vocab.index_to_term[i] for i in order[:30]]

    def test_empty_group_flagged(self, rng):
        docs = random_tokenized(rng, n_docs=4, vocab_size=8)
        vocab = build_vocabulary(docs)
        tf = tf_matrix(docs, vocab)
        weights = np.zeros((4, 3))
        weights[:, 0] = 1.0  # nobody lands in groups 1, 2
        labels = argmax_assign(weights, tf.doc_ids)
        groups = group_frequent_terms(tf, labels, 3, vocab, n=5)
        assert groups[1] == [] and groups[2] == []
        report = build_report("nmf", 3, weights, rng.uniform(0.1, 1.0, (3, len(vocab))), tf,
                              vocab, ["c0"] * 4, n_keywords=5)
        assert report.notices == ["silhouette skipped: all documents in one group",
                                  "group 1 is empty; keyword ratio undefined",
                                  "group 2 is empty; keyword ratio undefined"]

    def test_matches_recount_oracle(self, rng):
        for _ in range(100):
            docs = random_tokenized(rng, n_docs=int(rng.integers(3, 10)), vocab_size=12)
            vocab = build_vocabulary(docs)
            tf = tf_matrix(docs, vocab)
            k = int(rng.integers(2, 4))
            labels = rng.integers(0, k, len(docs))
            weights = np.zeros((len(docs), k))
            weights[np.arange(len(docs)), labels] = 1.0
            groups = group_frequent_terms(tf, argmax_assign(weights, tf.doc_ids), k, vocab, n=5)
            for g in range(k):
                members = [docs[i] for i in range(len(docs)) if labels[i] == g]
                if not members:
                    assert groups[g] == []
                    continue
                counts = {}
                for doc in members:
                    for tok in doc.tokens:
                        counts[tok] = counts.get(tok, 0) + 1
                want = sorted(vocab.index_to_term, key=lambda t: (-counts.get(t, 0), t))[:5]
                assert groups[g] == want


class TestKeywordMatchRatio:
    def test_identical_lists(self):
        ratios, mean = keyword_match_ratio([["a", "b", "c"]], [["a", "b", "c"]])
        assert ratios == [1.0] and mean == 1.0

    def test_disjoint_lists(self):
        ratios, mean = keyword_match_ratio([["a", "b"]], [["c", "d"]])
        assert ratios == [0.0] and mean == 0.0

    def test_symmetry_and_order_invariance(self, rng):
        pool = [f"t{i}" for i in range(20)]
        for _ in range(20):
            a = rng.choice(pool, size=6, replace=False).tolist()
            b = rng.choice(pool, size=6, replace=False).tolist()
            r_ab, _ = keyword_match_ratio([a], [b])
            r_ba, _ = keyword_match_ratio([b], [a])
            shuffled = b.copy()
            rng.shuffle(shuffled)
            r_shuf, _ = keyword_match_ratio([a], [shuffled])
            assert r_ab == r_ba == r_shuf

    def test_matches_naive_count_oracle(self, rng):
        pool = [f"t{i}" for i in range(25)]
        for _ in range(100):
            n = int(rng.integers(1, 8))
            a = rng.choice(pool, size=n, replace=False).tolist()
            b = rng.choice(pool, size=n, replace=False).tolist()
            ratios, _ = keyword_match_ratio([a], [b])
            naive = sum(1 for term in a if term in b) / n
            assert ratios[0] == naive

    def test_empty_group_excluded_from_mean(self):
        ratios, mean = keyword_match_ratio(
            [["a", "b"], ["a", "b"]], [["a", "b"], []]
        )
        assert ratios == [1.0, None]
        assert mean == 1.0

    def test_all_groups_empty(self):
        ratios, mean = keyword_match_ratio([["a"]], [[]])
        assert ratios == [None] and mean is None

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            keyword_match_ratio([["a", "b"]], [["a"]])
        with pytest.raises(ValueError, match="lists"):
            keyword_match_ratio([["a"]], [["a"], ["b"]])


class TestDecisiveness:
    @pytest.mark.parametrize("k", [2, 3, 4, 7])
    def test_one_hot_rows_hit_upper_bound(self, k):
        rows = np.eye(k)[np.array([0, 1, 0, min(2, k - 1)])]
        want = math.sqrt(k - 1) / k
        assert abs(decisiveness(rows) - want) < 1e-12

    @pytest.mark.parametrize("k", [2, 5])
    def test_uniform_rows_hit_lower_bound(self, k):
        rows = np.full((6, k), 1.0 / k)
        assert abs(decisiveness(rows)) < 1e-12

    def test_scale_invariance_through_normalisation(self, rng):
        rows = rng.uniform(0.1, 2.0, (10, 4))
        scaled = rows * rng.uniform(0.5, 20.0, size=(10, 1))
        np.testing.assert_allclose(decisiveness(rows), decisiveness(scaled), atol=1e-13)

    def test_bounds_on_random_rows(self, rng):
        for _ in range(50):
            k = int(rng.integers(2, 8))
            rows = rng.uniform(0.0, 1.0, (int(rng.integers(1, 12)), k)) + 1e-9
            value = decisiveness(rows)
            assert 0.0 <= value <= math.sqrt(k - 1) / k + 1e-12

    def test_zero_rows_skipped_with_flag(self):
        rows = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
        value = decisiveness(rows)
        assert abs(value - 0.5) < 1e-12  # only the one-hot rows count
        vocab = build_vocabulary(DOCS)
        report = build_report("nmf", 2, rows, np.ones((2, len(vocab))), tf_matrix(DOCS, vocab),
                              vocab, ["c0", "c0", "c1"], n_keywords=2)
        assert report.decisiveness == value and report.topic_sizes == [2, 1]
        assert report.notices == ["1 document(s) with an all-zero topic row, grouped under "
                                  "topic 0 and left out of decisiveness: d2"]

    def test_single_column_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            decisiveness(np.ones((3, 1)))


@pytest.mark.parametrize("call, message", [
    (lambda tf, vocab: silhouette(np.ones((3, 2)), [0, 1]), "2 labels for 3 samples"),
    (lambda tf, vocab: group_frequent_terms(tfidf_matrix(DOCS, vocab), np.array([0, 1, 1]), 2,
                                            vocab, n=2), "requires TF weights, got 'tfidf'"),
    (lambda tf, vocab: group_frequent_terms(tf, np.array([0, 1, 1]), 2, vocab, n=5),
     "n=5 exceeds vocabulary size 4"),
    (lambda tf, vocab: group_frequent_terms(tf, np.array([0, 1]), 2, vocab, n=2),
     "2 labels for 3 documents"),
    (lambda tf, vocab: decisiveness(np.zeros((3, 2))), "all rows are zero"),
])
def test_bad_arguments_rejected(call, message):
    vocab = build_vocabulary(DOCS)
    with pytest.raises(ValueError, match=message):
        call(tf_matrix(DOCS, vocab), vocab)


@pytest.mark.parametrize("call, message", [
    # A negative count would slice off the last terms, and 0 would empty every group.
    (lambda tf, vocab: top_keywords(np.ones((2, 4)), vocab, n=-1), "n must be >= 1, got -1"),
    (lambda tf, vocab: top_keywords(np.ones((2, 4)), vocab, n=0), "n must be >= 1, got 0"),
    (lambda tf, vocab: group_frequent_terms(tf, np.array([0, 1, 1]), 2, vocab, n=-2),
     "n must be >= 1, got -2"),
    (lambda tf, vocab: group_frequent_terms(tf, np.array([0, 1, 1]), 2, vocab, n=True),
     "n must be an integer, got True"),
])
def test_bad_term_count_rejected(call, message):
    vocab = build_vocabulary(DOCS)
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(tf_matrix(DOCS, vocab), vocab)


class TestBuildReport:
    @pytest.mark.parametrize("n, want", [(-3, ">= 1"), (0, ">= 1"), (2.5, "an integer")])
    def test_bad_keyword_count_rejected(self, n, want):
        # -3 would keep all but 3 terms; 0 would report every group as empty.
        vocab = build_vocabulary(DOCS)
        with pytest.raises(ValueError, match=f"^n_keywords must be {want}, got {n}$"):
            build_report("nmf", 2, np.eye(3, 2), np.ones((2, 4)), tf_matrix(DOCS, vocab), vocab,
                         ["c0", "c0", "c1"], n_keywords=n)

    def test_report_reconciles(self, rng):
        docs, labels = two_topic_corpus(rng, docs_per_topic=6, doc_len=20)
        vocab = build_vocabulary(docs)
        tf = tf_matrix(docs, vocab)
        model = fit_lda(tf, LdaConfig(k=2, seed=1, max_iter=60))
        companies = [f"c{g}" for g in labels]
        report = build_report(
            "lda", 2, model.doc_topic, model.topic_term, tf, vocab, companies,
            n_keywords=10,
        )
        assert sum(report.topic_sizes) == len(docs)
        for company, row in report.company_crosstab.items():
            assert sum(row) == companies.count(company)
        assert report.silhouette_documents is not None
        payload = report.to_dict()
        assert payload["method"] == "lda" and payload["k"] == 2

    def test_k1_report_skips_undefined_metrics(self, rng):
        docs = random_tokenized(rng, n_docs=5, vocab_size=10)
        vocab = build_vocabulary(docs)
        tf = tf_matrix(docs, vocab)
        model = fit_lda(tf, LdaConfig(k=1, max_iter=10))
        report = build_report(
            "lda", 1, model.doc_topic, model.topic_term, tf, vocab,
            ["c0"] * 5, n_keywords=5,
        )
        assert report.silhouette_documents is None
        assert report.decisiveness is None
        assert any("K<2" in n for n in report.notices)

    def test_company_factor_needs_company_ids(self, rng):
        docs = random_tokenized(rng, n_docs=6, vocab_size=10)
        vocab = build_vocabulary(docs)
        tf = tf_matrix(docs, vocab)
        weights = rng.uniform(0.1, 1.0, (6, 2))
        with pytest.raises(ValueError, match="company_ids"):
            build_report("ntf", 2, weights, rng.uniform(0.1, 1.0, (2, len(vocab))), tf, vocab,
                         ["c0", "c1"] * 3, company_factor=rng.uniform(0.1, 1.0, (2, 2)))

    def test_report_json_round_trip(self, rng, tmp_path):
        docs = random_tokenized(rng, n_docs=8, vocab_size=10)
        vocab = build_vocabulary(docs)
        tf = tf_matrix(docs, vocab)
        doc_topic = np.eye(2)[np.arange(8) % 2] + 0.1
        company_factor = np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]])
        report = build_report("ntf", 2, doc_topic, rng.uniform(0.1, 1.0, (2, len(vocab))),
                              tf, vocab, ["a", "b"] * 4, company_factor=company_factor,
                              company_ids=("a", "b", "c"), n_keywords=5)
        write_json(tmp_path / "report.json", report.to_dict())
        saved = json.loads((tmp_path / "report.json").read_text())
        for key in ("silhouette_documents", "silhouette_companies"):
            result = getattr(report, key)
            assert list(saved[key]) == ["mean", "per_sample", "distance"]
            assert saved[key]["per_sample"] == [float(f"{x:.12g}") for x in result.per_sample]
            assert saved[key]["distance"] == "euclidean"
        assert saved["company_crosstab"] == {"a": [4, 0], "b": [0, 4]}
