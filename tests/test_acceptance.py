"""Acceptance gate: one test per contract criterion, each printing a
PASS line (run with ``pytest -s tests/test_acceptance.py`` to see them).

The planted-protocol criteria (9 and 10) share one experiment run: a
60-document corpus with four planted disjoint-vocabulary topics across
eight companies, swept over K in {2..6} for all three methods.
"""

import csv
import json
import math
import time

import numpy as np
import pytest

from topickit.cli import RunConfig, run_experiment
from topickit.evaluate import decisiveness, silhouette
from topickit.lda import LdaConfig, fit_lda
from topickit.nmf import fit_nmf
from topickit.ntf import fit_ntf
from topickit.porter import stem
from topickit.vectorize import build_tensor, build_vocabulary, tf_matrix, tfidf_matrix

from conftest import company_sum, random_tokenized
from planted import EXPERIMENT_SEED, PLANTED_SEED, purity, write_planted_corpus
from test_evaluate import silhouette_oracle
from test_porter import load_reference
from test_vectorize import tfidf_oracle

SUMMARY_CSVS = ("silhouette_by_k.csv", "keyword_match_by_k.csv", "decisiveness_by_method.csv")


def report(criterion: int, name: str) -> None:
    print(f"ACCEPTANCE {criterion} ({name}): PASS")


class TestCriterion1Porter:
    def test_frozen_reference_vocabulary(self):
        pairs = load_reference()
        start = time.perf_counter()
        mismatches = sum(1 for word, expected in pairs if stem(word) != expected)
        elapsed = time.perf_counter() - start
        assert mismatches == 0
        assert elapsed < 1.0
        report(1, f"porter stemmer, {len(pairs)} words, {elapsed:.2f}s")


class TestCriterion2Tfidf:
    def test_oracle_equivalence_100_corpora(self):
        rng = np.random.default_rng(2001)
        for trial in range(100):
            docs = random_tokenized(
                rng,
                n_docs=int(rng.integers(2, 21)),
                vocab_size=int(rng.integers(3, 51)),
                max_len=25,
            )
            vocab = build_vocabulary(docs)
            got = tfidf_matrix(docs, vocab).values.toarray()
            want = tfidf_oracle([list(d.tokens) for d in docs], vocab.index_to_term)
            np.testing.assert_allclose(got, want, atol=1e-12)
        report(2, "tf-idf scalar-oracle equivalence, 100 corpora")


class TestCriterion3TensorMarginalisation:
    def test_company_sum_is_bit_equal(self):
        rng = np.random.default_rng(3001)
        for trial in range(100):
            docs = random_tokenized(
                rng,
                n_docs=int(rng.integers(2, 15)),
                vocab_size=int(rng.integers(3, 30)),
            )
            vocab = build_vocabulary(docs)
            companies = {d.doc_id: f"c{int(rng.integers(0, 5))}" for d in docs}
            tensor = build_tensor(docs, vocab, companies)
            tf = tf_matrix(docs, vocab)
            assert np.array_equal(
                company_sum(tensor).toarray(), tf.values.toarray()
            )
        report(3, "tensor company-axis marginalisation, 100 corpora")


class TestCriterion4Nmf:
    def test_monotonicity_and_rank_one(self):
        start = time.perf_counter()
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = np.abs(rng.standard_normal((50, 40)))
            model = fit_nmf(x, 5, max_iter=60)
            trace = np.array(model.objective_trace)
            assert np.all(trace[1:] <= trace[:-1] * (1 + 1e-10))
        rank1 = fit_nmf(np.array([[1.0, 2.0], [2.0, 4.0]]), 1, max_iter=200)
        assert rank1.objective_trace[-1] < 1e-8
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        report(4, f"nmf monotone objective + rank-1 recovery, {elapsed:.1f}s")


class TestCriterion5Lda:
    def test_contracts(self):
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            docs = random_tokenized(rng, n_docs=10, vocab_size=15)
            vocab = build_vocabulary(docs)
            tf = tf_matrix(docs, vocab)
            model = fit_lda(tf, LdaConfig(k=3, seed=seed, max_iter=50))
            np.testing.assert_allclose(model.doc_topic.sum(axis=1), 1.0, atol=1e-9)
            np.testing.assert_allclose(model.topic_term.sum(axis=1), 1.0, atol=1e-9)
            trace = np.array(model.elbo_trace)
            assert np.all(np.diff(trace) >= -1e-8 * np.abs(trace[:-1]))

        rng = np.random.default_rng(500)
        docs = random_tokenized(rng, n_docs=8, vocab_size=12)
        vocab = build_vocabulary(docs)
        tf = tf_matrix(docs, vocab)
        model = fit_lda(tf, LdaConfig(k=1, max_iter=20))
        np.testing.assert_array_equal(model.doc_topic, np.ones((tf.shape[0], 1)))
        counts = tf.values.toarray().sum(axis=0)
        beta = model.beta
        expected = (beta + counts) / (beta * tf.shape[1] + counts.sum())
        np.testing.assert_allclose(model.topic_term[0], expected, rtol=1e-12)
        report(5, "lda row sums, elbo monotonicity, K=1 closed form")


class TestCriterion6Ntf:
    def test_rank_one_monotonicity_and_budget(self):
        rng = np.random.default_rng(600)
        a = rng.uniform(0.5, 2.0, 6)
        b = rng.uniform(0.5, 2.0, 4)
        g = rng.uniform(0.5, 2.0, 7)
        dense = np.einsum("i,j,k->ijk", a, b, g)
        model = fit_ntf(dense, 1, max_sweeps=300, tol=1e-14, seed=0)
        from topickit.ntf import cp_reconstruction_error
        rel = np.sqrt(cp_reconstruction_error(dense, model)) / np.linalg.norm(dense)
        assert rel < 1e-6

        for seed in range(20):
            local = np.random.default_rng(700 + seed)
            coords = set()
            while len(coords) < 200:
                coords.add((int(local.integers(12)), int(local.integers(6)),
                            int(local.integers(15))))
            arr = np.zeros((12, 6, 15))
            for d, c, t in coords:
                arr[d, c, t] = local.uniform(0.5, 3.0)
            m = fit_ntf(arr, 3, max_sweeps=80, seed=seed)
            trace = np.array(m.error_trace)
            assert m.rescues == []
            assert np.all(np.diff(trace) <= 1e-8 * np.abs(trace[:-1]))

        from topickit.vectorize import DocCompanyTermTensor
        local = np.random.default_rng(999)
        coords = set()
        while len(coords) < 10_000:
            coords.add((int(local.integers(500)), int(local.integers(50)),
                        int(local.integers(2000))))
        coords = sorted(coords)
        tensor = DocCompanyTermTensor.from_coords(
            (500, 50, 2000), *np.array(coords, dtype=np.int64).T,
            local.uniform(0.5, 3.0, size=len(coords)),
        )
        start = time.perf_counter()
        budget_model = fit_ntf(tensor, 5, max_sweeps=200, seed=0)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        assert budget_model.error_trace[-1] <= budget_model.error_trace[0]
        report(6, f"ntf rank-1 recovery, sweep monotonicity, budget fit {elapsed:.1f}s")


class TestCriterion7Silhouette:
    def test_oracle_equivalence_200_sets(self):
        rng = np.random.default_rng(7001)
        for trial in range(200):
            n = int(rng.integers(4, 15))
            dim = int(rng.integers(1, 5))
            points = rng.standard_normal((n, dim))
            labels = rng.integers(0, int(rng.integers(2, 5)), n)
            if len(np.unique(labels)) < 2:
                labels[0], labels[1] = 0, 1
            got = silhouette(points, labels)
            want = silhouette_oracle(points.tolist(), labels.tolist())
            np.testing.assert_allclose(got.per_sample, want, atol=1e-9)
            assert np.all(got.per_sample >= -1.0) and np.all(got.per_sample <= 1.0)
        report(7, "silhouette double-loop oracle equivalence, 200 sets")


class TestCriterion8Decisiveness:
    def test_bounds_are_attained(self):
        for k in (2, 3, 4, 6, 9):
            one_hot = np.eye(k)[np.arange(12) % k]
            assert abs(decisiveness(one_hot) - math.sqrt(k - 1) / k) <= 1e-12
            uniform = np.full((12, k), 1.0 / k)
            assert abs(decisiveness(uniform)) <= 1e-12
        report(8, "decisiveness one-hot and uniform bounds")


@pytest.fixture(scope="module")
def planted_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("planted")
    corpus = root / "corpus.jsonl"
    labels = write_planted_corpus(corpus, seed=PLANTED_SEED)
    out = root / "out"
    config = RunConfig(
        corpus_path=str(corpus),
        methods=("lda", "nmf", "ntf"),
        k_values=(2, 3, 4, 5, 6),
        seed=EXPERIMENT_SEED,
        out_dir=str(out),
    )
    start = time.perf_counter()
    manifest = run_experiment(config)
    elapsed = time.perf_counter() - start
    return {"corpus": corpus, "out": out, "labels": labels,
            "manifest": manifest, "elapsed": elapsed, "config": config, "root": root}


def _doc_topic_labels(out, method, k):
    with open(out / method / f"k{k}" / "doc_topic.csv", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    ids = [r[0] for r in rows[1:]]
    weights = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    return ids, np.argmax(weights, axis=1)


class TestCriterion9PlantedProtocol:
    def test_protocol_reproduction(self, planted_run):
        out = planted_run["out"]
        manifest = planted_run["manifest"]
        assert manifest.failures == []
        assert planted_run["elapsed"] < 300.0

        # (a) the silhouette-selected K (argmax of mean document silhouette
        #     over the sweep) is the planted 4 for every method
        with open(out / "summary" / "silhouette_by_k.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        for method in ("lda", "nmf", "ntf"):
            by_k = {int(r["k"]): float(r["silhouette_documents"])
                    for r in rows if r["method"] == method and r["silhouette_documents"]}
            best_k = max(by_k, key=by_k.get)
            assert best_k == 4, f"{method} silhouette selected K={best_k}"

        # (b) argmax clusters of LDA and NMF at K=4 are >= 0.9 pure
        labels = planted_run["labels"]
        for method in ("lda", "nmf"):
            ids, pred = _doc_topic_labels(out, method, 4)
            true = np.array([labels[i] for i in ids])
            score = purity(pred, true)
            assert score >= 0.9, f"{method} purity {score:.3f}"

        # (c) LDA mean keyword-match ratio at K=4
        with open(out / "summary" / "keyword_match_by_k.csv", encoding="utf-8") as fh:
            kw_rows = list(csv.DictReader(fh))
        lda_kw = next(float(r["keyword_match_mean"]) for r in kw_rows
                      if r["method"] == "lda" and r["k"] == "4")
        assert lda_kw >= 0.6

        # (d) decisiveness ordering at the best K: LDA above the tensor model
        decs = {}
        for method in ("lda", "ntf"):
            rep = json.loads((out / method / "k4" / "report.json").read_text())
            decs[method] = rep["decisiveness"]
        assert decs["lda"] > decs["ntf"]

        report(9, (
            f"planted protocol: K=4 selected for all methods, "
            f"purity ok, lda keyword match {lda_kw:.2f}, "
            f"decisiveness lda {decs['lda']:.3f} > ntf {decs['ntf']:.3f}, "
            f"{planted_run['elapsed']:.0f}s"
        ))


class TestCriterion10Determinism:
    def test_rerun_is_byte_identical(self, planted_run):
        rerun_out = planted_run["root"] / "out_rerun"
        config = RunConfig(
            corpus_path=str(planted_run["corpus"]),
            methods=("lda", "nmf", "ntf"),
            k_values=(2, 3, 4, 5, 6),
            seed=EXPERIMENT_SEED,
            out_dir=str(rerun_out),
        )
        run_experiment(config)
        for name in SUMMARY_CSVS:
            first = (planted_run["out"] / "summary" / name).read_bytes()
            second = (rerun_out / "summary" / name).read_bytes()
            assert first == second, f"{name} differs between identical runs"
        report(10, "byte-identical summary CSVs on rerun")
