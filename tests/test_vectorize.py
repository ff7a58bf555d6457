import json
import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp

from topickit.corpus import CorpusError, RawDocument, StopwordList, load_corpus, preprocess_corpus
from topickit.evaluate import _ranked_terms
from topickit.vectorize import (
    DocCompanyTermTensor,
    _tensor,
    _tfidf,
    build_tensor,
    build_vocabulary,
    check_nonnegative,
    count_terms,
    prepare_corpus,
    settled,
    tf_matrix,
    tfidf_matrix,
)

from conftest import company_sum, random_tokenized, toks


def tfidf_oracle(token_docs, vocab_terms):
    """Scalar reference TF-IDF: smooth idf then L2 row normalisation."""
    n_docs = len(token_docs)
    rows = []
    for doc in token_docs:
        weighted = []
        for term in vocab_terms:
            tf = sum(1 for t in doc if t == term)
            df = sum(1 for other in token_docs if term in other)
            idf = math.log((1 + n_docs) / (1 + df)) + 1.0
            weighted.append(tf * idf)
        norm = math.sqrt(sum(v * v for v in weighted))
        rows.append([v / norm if norm > 0 else 0.0 for v in weighted])
    return np.array(rows)


def random_corpus(rng):
    """Random documents and a min_df drawn from 1-3."""
    docs = random_tokenized(rng, n_docs=int(rng.integers(6, 15)),
                            vocab_size=int(rng.integers(3, 25)))
    return docs, int(rng.integers(1, 4))


class TestVocabulary:
    def test_counts(self):
        docs = [toks("d1", ["coal", "seam"]), toks("d2", ["coal"])]
        vocab = build_vocabulary(docs, min_df=1)
        assert len(vocab) == 2
        assert vocab.doc_freq[vocab.term_to_index["coal"]] == 2
        assert vocab.doc_freq[vocab.term_to_index["seam"]] == 1

    def test_min_df_prunes(self):
        docs = [toks("d1", ["coal", "seam"]), toks("d2", ["coal"])]
        vocab = build_vocabulary(docs, min_df=2)
        assert len(vocab) == 1 and "coal" in vocab

    def test_ordering_frequency_then_lexicographic(self, rng):
        docs = [toks("d1", ["zinc", "zinc", "coal", "coal", "ore"])]
        vocab = build_vocabulary(docs)
        assert vocab.index_to_term == ("coal", "zinc", "ore")
        for _ in range(100):
            docs, min_df = random_corpus(rng)
            vocab = build_vocabulary(docs, min_df=min_df)
            total = Counter(t for d in docs for t in d.tokens)
            dfreq = Counter(t for d in docs for t in set(d.tokens))
            kept = [t for t in total if dfreq[t] >= min_df]
            assert vocab.index_to_term == tuple(sorted(kept, key=lambda t: (-total[t], t)))

    def test_bijection(self, rng):
        docs = random_tokenized(rng, n_docs=10, vocab_size=30)
        vocab = build_vocabulary(docs)
        for term, idx in vocab.term_to_index.items():
            assert vocab.index_to_term[idx] == term
        assert np.all(vocab.doc_freq >= 1)

    @pytest.mark.parametrize("min_df, want", [
        (True, "an integer, got True"), (1.5, "an integer, got 1.5"),
        (2.0, "an integer, got 2.0"), (0, ">= 1, got 0"),
    ])
    def test_bad_min_df_names_it(self, min_df, want):
        docs = [toks("d1", ["coal", "seam"]), toks("d2", ["coal"])]
        with pytest.raises(ValueError, match=f"^min_df must be {re.escape(want)}$"):
            build_vocabulary(docs, min_df=min_df)

    def test_numpy_integer_min_df_is_accepted(self):
        docs = [toks("d1", ["coal", "seam"]), toks("d2", ["coal"])]
        assert build_vocabulary(docs, min_df=np.int64(2)).index_to_term == ("coal",)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            build_vocabulary([])
        with pytest.raises(ValueError, match="empty corpus"):
            build_vocabulary([toks("d1", [])])

    def test_rebuild_is_identical(self, rng):
        docs = random_tokenized(rng, n_docs=10, vocab_size=30)
        a = build_vocabulary(docs)
        b = build_vocabulary(docs)
        assert a.index_to_term == b.index_to_term
        assert np.array_equal(a.doc_freq, b.doc_freq)


def counter_oracle(docs, min_df):
    """Vocabulary order, document frequencies and canonical TF CSR, by Counters."""
    total = Counter(t for d in docs for t in d.tokens)
    dfreq = Counter(t for d in docs for t in set(d.tokens))
    terms = sorted((t for t in total if dfreq[t] >= min_df), key=lambda t: (-total[t], t))
    index = {t: i for i, t in enumerate(terms)}
    indptr, indices, data = [0], [], []
    for doc in docs:
        row = Counter(index[t] for t in doc.tokens if t in index)
        indices += sorted(row)
        data += [float(row[i]) for i in sorted(row)]
        indptr.append(len(indices))
    tf = sp.csr_matrix((np.array(data), np.array(indices, dtype=np.int64),
                        np.array(indptr, dtype=np.int64)), shape=(len(docs), len(terms)))
    return tuple(terms), [dfreq[t] for t in terms], tf


def tied_corpus(rng):
    """Few short random terms, so totals tie often, with an empty document
    and one whose only term is in no other document."""
    pool = ["".join(rng.choice(list("abyz"), size=int(rng.integers(1, 4))))
            for _ in range(int(rng.integers(2, 20)))]
    docs = [toks(f"d{i}", rng.choice(pool, size=int(rng.integers(0, 12))).tolist())
            for i in range(int(rng.integers(1, 15)))]
    docs.insert(int(rng.integers(0, len(docs) + 1)), toks("empty", []))
    docs.append(toks("rare", [f"rare{len(docs)}", f"rare{len(docs)}"]))
    return docs


class TestCountTerms:
    """The integer-coded count against a Counter oracle, byte for byte."""

    @pytest.mark.parametrize("min_df", [1, 2, 3])
    def test_matches_counter_oracle(self, min_df):
        rng = np.random.default_rng(min_df)
        for _ in range(100):
            docs = tied_corpus(rng)
            terms, dfreq, want = counter_oracle(docs, min_df)
            if not terms:
                with pytest.raises(ValueError, match="no term reaches"):
                    count_terms(docs, min_df)
                continue
            vocab, tf = count_terms(docs, min_df)
            assert vocab.index_to_term == terms
            assert vocab.doc_freq.dtype == np.int64 and vocab.doc_freq.tolist() == dfreq
            assert vocab.term_to_index == {t: i for i, t in enumerate(terms)}
            assert tf.doc_ids == tuple(d.doc_id for d in docs)
            for got in (tf.values, tf_matrix(docs, vocab).values):
                for name in ("indptr", "indices", "data"):
                    assert getattr(got, name).dtype == getattr(want, name).dtype
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
            assert build_vocabulary(docs, min_df).index_to_term == terms

    def test_ranked_terms_equal_the_string_lexsort_on_ties(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            vocab, _ = count_terms(tied_corpus(rng))
            weights = rng.integers(0, 3, len(vocab)).astype(float)  # mostly ties
            order = np.lexsort((np.array(vocab.index_to_term), -weights))
            n = int(rng.integers(1, len(vocab) + 1))
            assert _ranked_terms(weights, vocab, n) == [vocab.index_to_term[i] for i in order[:n]]


class TestPrepareCorpus:
    """The corpus route a sweep takes, called as a library function."""

    TEXTS = {"a": "coal seam drill", "b": "coal seam gold", "c": "gold vein coal",
             "d": "the and of", "e": "drill bore"}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (doc_id, text) in enumerate(self.TEXTS.items()):
                fh.write(json.dumps({"doc_id": doc_id, "company_id": f"c{i % 2}",
                                     "text": text}) + "\n")
        return path

    def test_keep_stops_and_min_df(self, tmp_path):
        path = self.write(tmp_path / "r.jsonl")
        prepared = prepare_corpus(path, StopwordList.with_extra(["gold"]), min_df=2,
                                  keep=lambda doc: doc.doc_id != "b")
        assert prepared.tf.doc_ids == prepared.tfidf.doc_ids == ("a", "c", "e")
        assert prepared.vocab.index_to_term == ("coal", "drill")
        assert prepared.doc_companies == ["c0", "c0", "c0"]
        assert prepared.tensor.pairs is prepared.tf.values
        assert prepared.notices == ["metadata filters dropped 1 document(s)",
                                    "1 document(s) empty after preprocessing: d"]
        assert prepared.digest == {
            "documents_loaded": 5, "documents_after_filters": 4,
            "documents_empty_after_preprocessing": ["d"],
            "documents_without_vocabulary_terms": [], "documents_in_matrices": 3,
            "companies": 1, "vocabulary_size": 2}

    def test_errors_name_the_file_and_min_df_is_checked_first(self, tmp_path):
        path = self.write(tmp_path / "r.jsonl")
        with pytest.raises(CorpusError, match=r"^r\.jsonl: no documents left after filtering$"):
            prepare_corpus(path, keep=lambda doc: False)
        with pytest.raises(CorpusError, match=r"^r\.jsonl: no term reaches min_df=9$"):
            prepare_corpus(path, min_df=9)
        with pytest.raises(ValueError, match="^min_df must be >= 1, got 0$"):
            prepare_corpus(tmp_path / "missing.jsonl", min_df=0)


    # Non-ASCII runs (a dotted capital I lowercases to two characters), runs with digits,
    # numeric characters that are not digits, stop-words and their inflected forms.
    WORDS = ["coal", "seams", "drilling", "drilled", "gold", "Zürich", "ÉTUDE", "naïve",
             "straße", "İstanbul", "ΟΔΟΣ", "½mile", "2nd", "x25", "٣rd", "co2", "reporting",
             "the", "and", "Of", "BORE", "bores", "vein_ore", "Ærø"]

    def write_seeded(self, rng, path):
        """Random records: some only stop-words and numbers, some of words only they hold."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(int(rng.integers(8, 30))):
                kind = rng.integers(5)
                if kind == 0:
                    text = "the of and 2024 ½ – ٣"  # empty after preprocessing
                elif kind == 1:  # words in no other document: min_df can empty it
                    text = f"zircon{chr(97 + i % 26)}{i} Ærø{chr(97 + i % 26)}"
                else:
                    text = " ".join(rng.choice(self.WORDS, int(rng.integers(1, 12))))
                fh.write(json.dumps({"doc_id": f"d{i:02d}", "company_id": f"c{rng.integers(4)}",
                                     "text": text, "year": int(rng.integers(1995, 2015))},
                                    ensure_ascii=bool(rng.integers(2))) + "\n")

    def test_equals_the_token_route(self, tmp_path):
        """The run-to-code route against preprocess_corpus, count_terms, _tfidf and _tensor,
        bit for bit, with the digest and notices the token route implies."""
        rng = np.random.default_rng(28)
        checked = set()
        for trial in range(60):
            path = tmp_path / f"c{trial}.jsonl"
            self.write_seeded(rng, path)
            stops = StopwordList.with_extra(["Gold"]) if trial % 2 else None
            min_df = int(rng.integers(1, 4))
            keep = (None if trial % 3 == 0 else (lambda doc: False) if trial % 10 == 5
                    else (lambda doc: 2000 <= doc.year <= 2009))
            raw = load_corpus(path)
            kept = [doc for doc in raw if keep is None or keep(doc)]
            tokenized, empty = preprocess_corpus(kept, stops)
            try:
                vocab, tf = count_terms([t for t in tokenized if not t.is_empty], min_df)
            except ValueError:  # no documents, all empty, or no term reaching min_df
                with pytest.raises(CorpusError, match=f"^{path.name}: ") as error:
                    prepare_corpus(path, stops, min_df, keep)
                checked.add(re.sub(r"\d+", "N", str(error.value).split(": ", 1)[1]))
                continue
            has_term = np.diff(tf.values.indptr) > 0
            oov = [doc_id for doc_id, ok in zip(tf.doc_ids, has_term) if not ok]
            in_matrices = {doc_id for doc_id, ok in zip(tf.doc_ids, has_term) if ok}
            docs = [t for t in tokenized if t.doc_id in in_matrices]
            want_tf = tf_matrix(docs, vocab)
            companies = {doc.doc_id: doc.company_id for doc in kept}
            tensor = _tensor(want_tf, companies)
            got = prepare_corpus(path, stops, min_df, keep)
            assert got.vocab.index_to_term == vocab.index_to_term
            assert got.vocab.doc_freq.tobytes() == vocab.doc_freq.tobytes()
            assert got.tf.doc_ids == got.tfidf.doc_ids == want_tf.doc_ids
            for mine, want in ((got.tf, want_tf), (got.tfidf, _tfidf(want_tf, vocab))):
                for name in ("data", "indices", "indptr"):
                    assert getattr(mine.values, name).dtype == getattr(want.values, name).dtype
                    assert getattr(mine.values, name).tobytes() == \
                        getattr(want.values, name).tobytes()
            assert got.tensor.pair_company.tobytes() == tensor.pair_company.tobytes()
            assert got.tensor.company_ids == tensor.company_ids
            assert got.doc_companies == [companies[doc_id] for doc_id in want_tf.doc_ids]
            assert got.digest == {
                "documents_loaded": len(raw), "documents_after_filters": len(kept),
                "documents_empty_after_preprocessing": empty,
                "documents_without_vocabulary_terms": oov,
                "documents_in_matrices": len(docs), "companies": tensor.shape[1],
                "vocabulary_size": len(vocab)}
            notices = [f"metadata filters dropped {len(raw) - len(kept)} document(s)"] * \
                (len(kept) < len(raw))
            for ids, what in ((empty, "empty after preprocessing"),
                              (oov, "have no in-vocabulary token")):
                notices += [f"{len(ids)} document(s) {what}: {', '.join(ids)}"] * bool(ids)
            assert got.notices == notices
            checked.update(name for name, ids in (("filter", len(kept) < len(raw)),
                                                  ("empty", empty), ("oov", oov)) if ids)
        assert checked == {"filter", "empty", "oov", "no documents left after filtering",
                           "all N documents are empty after preprocessing",
                           "no term reaches min_df=N"}


class TestCheckNonnegative:
    """The first bad entry in storage order names its row, whatever the layout."""

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    @pytest.mark.parametrize("layout", ["dense", "csr", "csc", "coo"])
    def test_names_the_first_bad_row(self, layout, bad):
        dense = np.ones((5, 4))
        dense[3, 1] = bad
        mat = dense if layout == "dense" else getattr(sp, f"{layout}_matrix")(dense)
        with pytest.raises(ValueError, match=r"^X must be nonnegative and finite: row 3$"):
            check_nonnegative(mat, "X")
        ids = ("a", "b", "c", "d", "e")
        with pytest.raises(ValueError, match=r"^X must be nonnegative and finite: doc 'd'$"):
            check_nonnegative(mat, "X", ids)

    def test_first_row_wins_and_1d_names_the_entry(self):
        dense = np.ones((5, 4))
        dense[4, 0], dense[2, 3] = -1.0, np.nan
        with pytest.raises(ValueError, match=r"row 2$"):
            check_nonnegative(sp.csr_matrix(dense), "X")
        with pytest.raises(ValueError, match=r"row 6$"):
            check_nonnegative(np.array([0.0, 1, 2, 3, 4, 5, -6, -7]), "X")

    def test_clean_and_empty_inputs_pass(self):
        for mat in (np.zeros((3, 2)), sp.csr_matrix((3, 2)), np.empty((0, 4)), np.array([])):
            check_nonnegative(mat, "X")


class TestSettled:
    """The stop-and-fail rule of LDA, NMF and NTF."""

    def test_a_first_value_settles_only_at_zero(self):
        assert not settled([], 5.0, 1.0, "NMF", "iteration 1")
        assert settled([], 0.0, 0.0, "NMF", "iteration 1")

    def test_exact_zero_settles_whatever_came_before(self):
        trace = [3.0]
        assert settled(trace, 0.0, 0.0, "NMF", "iteration 1")
        assert trace == [3.0, 0.0]

    @pytest.mark.parametrize("sign", [1.0, -1.0])  # LDA's bound is negative
    def test_a_change_of_exactly_tol_times_previous_settles(self, sign):
        for value, settles in ((3.0, True), (5.0, True), (2.75, False), (5.25, False)):
            assert settled([sign * 4.0], sign * value, 0.25, "LDA", "iteration 2") is settles

    def test_previous_zero_is_floored_at_the_smallest_normal(self):
        assert settled([0.0], 1e-320, 1.0, "CP", "sweep 2")
        assert not settled([0.0], 1e-300, 1.0, "CP", "sweep 2")

    @pytest.mark.parametrize("value, factor", [(1.0, np.nan), (1.0, -np.inf), (np.nan, 1.0),
                                               (np.inf, 1.0)])
    def test_nan_or_inf_raises_naming_solver_and_step(self, value, factor):
        trace = [2.0]
        with pytest.raises(RuntimeError, match=r"^CP update produced NaN/Inf at sweep 3$"):
            settled(trace, value, 0.5, "CP", "sweep 3", np.ones((2, 2)), np.array([[1.0, factor]]))
        assert trace == [2.0]


class TestTfMatrix:
    def test_counts(self):
        docs = [toks("d1", ["coal", "coal", "seam"])]
        vocab = build_vocabulary(docs)
        tf = tf_matrix(docs, vocab)
        row = tf.values.toarray()[0]
        assert row[vocab.term_to_index["coal"]] == 2
        assert row[vocab.term_to_index["seam"]] == 1
        assert tf.weighting == "tf"

    def test_empty_doc_row_is_zero(self):
        docs = [toks("d1", ["coal"]), toks("d2", [])]
        vocab = build_vocabulary(docs)
        tf = tf_matrix(docs, vocab)
        assert tf.values.toarray()[1].sum() == 0

    def test_row_sums_match_token_counts(self, rng):
        for _ in range(100):
            docs, min_df = random_corpus(rng)
            vocab = build_vocabulary(docs, min_df=min_df)
            tf = tf_matrix(docs, vocab)
            sums = np.asarray(tf.values.sum(axis=1)).ravel()
            recounted = [sum(t in vocab for t in d.tokens) for d in docs]
            assert np.array_equal(sums, np.array(recounted, dtype=float))

    def test_integrality_and_nonnegativity(self, rng):
        docs = random_tokenized(rng)
        tf = tf_matrix(docs, build_vocabulary(docs))
        assert np.all(tf.values.data >= 0)
        assert np.all(tf.values.data == np.floor(tf.values.data))

    def test_matches_counter_oracle_and_is_canonical(self, rng):
        # Repeated and out-of-order tokens, tokens outside the vocabulary and
        # a row with none inside it.
        for _ in range(50):
            docs, min_df = random_corpus(rng)
            docs.append(toks("oov", ["zz1", "zz2", "zz1"]))
            docs.insert(int(rng.integers(0, len(docs))), toks("none", []))
            vocab = build_vocabulary(docs, min_df=min_df)
            tf = tf_matrix(docs, vocab).values
            assert tf.has_canonical_format and tf.data.dtype == np.float64
            oracle = np.zeros((len(docs), len(vocab)))
            for row, doc in enumerate(docs):
                for term, count in Counter(doc.tokens).items():
                    if term in vocab:
                        oracle[row, vocab.term_to_index[term]] = count
            assert np.array_equal(tf.toarray(), oracle)
            for row in range(len(docs)):
                cols = tf.indices[tf.indptr[row]:tf.indptr[row + 1]]
                assert np.all(np.diff(cols) > 0)
            assert tf.nnz == np.count_nonzero(oracle)


class TestTfidfMatrix:
    def test_single_document_collapses_to_normalised_tf(self):
        docs = [toks("d1", ["coal", "coal", "seam"])]
        vocab = build_vocabulary(docs)
        tfidf = tfidf_matrix(docs, vocab).values.toarray()[0]
        # idf = ln(2/2) + 1 = 1 for every term
        expected = np.array([2.0, 1.0]) / math.sqrt(5.0)
        np.testing.assert_allclose(tfidf, expected, atol=1e-15)

    def test_term_in_all_docs_still_contributes(self):
        docs = [toks("d1", ["coal", "seam"]), toks("d2", ["coal", "ore"])]
        vocab = build_vocabulary(docs)
        tfidf = tfidf_matrix(docs, vocab)
        col = vocab.term_to_index["coal"]
        assert np.all(tfidf.values.toarray()[:, col] > 0)

    def test_matches_scalar_oracle(self, rng):
        docs = random_tokenized(rng, n_docs=5, vocab_size=12)
        vocab = build_vocabulary(docs)
        got = tfidf_matrix(docs, vocab).values.toarray()
        want = tfidf_oracle([list(d.tokens) for d in docs], vocab.index_to_term)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_canonical_like_tf(self, rng):
        for _ in range(20):
            docs, min_df = random_corpus(rng)
            vocab, tf = count_terms(docs, min_df=min_df)  # the run's TF-IDF is _tfidf(tf, vocab)
            tfidf = _tfidf(tf, vocab).values
            assert tf.values.has_canonical_format and tfidf.has_canonical_format
            assert np.shares_memory(tfidf.indices, tf.values.indices)
            assert np.shares_memory(tfidf.indptr, tf.values.indptr)
            docs.append(toks("empty", []))
            assert tfidf_matrix(docs, vocab).values.has_canonical_format

    def test_rows_scaled_by_scipys_norm_bit_for_bit(self):
        """Empty rows and one-entry rows included: the scale is 1 / ``norm(axis=1)``."""
        rng = np.random.default_rng(11)
        for _ in range(50):
            docs = [toks(f"d{i}", rng.choice(["a", "b", "c", "d"], int(rng.integers(0, 3)) ** 3))
                    for i in range(int(rng.integers(1, 12)))]
            if not any(d.tokens for d in docs):
                continue
            vocab, tf = count_terms(docs)
            idf = np.log((1.0 + tf.shape[0]) / (1.0 + vocab.doc_freq)) + 1.0
            weighted = tf.values.copy()
            weighted.data *= idf[weighted.indices]
            norms = sp.linalg.norm(weighted, axis=1)
            scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
            want = weighted.data * np.repeat(scale, np.diff(weighted.indptr))
            assert _tfidf(tf, vocab).values.data.tobytes() == want.tobytes()

    def test_rows_unit_or_zero_norm(self, rng):
        for _ in range(100):
            docs, min_df = random_corpus(rng)
            vocab = build_vocabulary(docs, min_df=min_df)
            docs.append(toks("empty", []))
            values = tfidf_matrix(docs, vocab).values
            norms = np.sqrt(np.asarray(values.multiply(values).sum(axis=1))).ravel()
            for n in norms:
                assert abs(n - 1.0) < 1e-12 or n == 0.0


def _traced_peak(call, *args) -> int:
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """Traced peaks, counted in float64 arrays of one entry per token or per stored entry."""

    @staticmethod
    def zipf_corpus():
        """1500 documents of 0-120 tokens over 3000 terms, a tail of them under min_df=3."""
        rng = np.random.default_rng(3)
        p = 1.0 / np.arange(1, 3001)
        terms = np.array([f"t{i}" for i in range(3000)])
        return [toks(f"d{i}", rng.choice(terms, int(rng.integers(0, 121)), p=p / p.sum()).tolist())
                for i in range(1500)]

    def test_count_terms(self):
        docs = self.zipf_corpus()
        n_tokens = sum(len(d.tokens) for d in docs)
        # an int32 code and an int32 one per token, then the counts copied compact as float64;
        # int64 codes, float64 ones or a copy of TF to order its columns take it past three
        assert _traced_peak(count_terms, docs, 3) < 3 * 8 * n_tokens

    @staticmethod
    def zipf_texts():
        """3000 texts of 1-120 words over 3000 terms."""
        rng = np.random.default_rng(3)
        letters = "abcdefghijklmnopqrstuvwxyz"
        terms = np.array([f"q{letters[i // 26 % 26]}{letters[i % 26]}{letters[i // 676]}"
                          for i in range(3000)])
        p = 1.0 / np.arange(1, 3001)
        return [" ".join(rng.choice(terms, int(rng.integers(1, 121)), p=p / p.sum()))
                for _ in range(3000)]

    def test_preprocess_corpus(self):
        """The token route on the same 3000 texts."""
        docs = [RawDocument(f"d{i}", f"c{i % 7}", text) for i, text in enumerate(self.zipf_texts())]
        n_tokens = sum(len(t.tokens) for t in preprocess_corpus(docs)[0])
        # A tuple of stems per document (eight bytes a token) beside the memo and the
        # documents: 13.6 bytes a token.  A second tuple per document, of its codes, takes it
        # to 23.
        assert _traced_peak(preprocess_corpus, docs) < 17 * n_tokens

    def test_prepare_corpus(self, tmp_path):
        """The sweep's corpus route on the same texts as 3000 JSONL records."""
        path = tmp_path / "zipf.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for i, text in enumerate(self.zipf_texts()):
                fh.write(json.dumps({"doc_id": f"d{i}", "company_id": f"c{i % 7}",
                                     "text": text}) + "\n")
        n_tokens = sum(len(t.tokens) for t in preprocess_corpus(load_corpus(path))[0])
        # An int32 code and an int32 one per token, then the counts copied compact as float64
        # data and int32 indices (0.72 stored entries a token here), beside the memo and the
        # ids: 26.3 bytes a token.  A tuple of stems per document (eight bytes a token) or a
        # copy of the codes takes it past 29.
        assert _traced_peak(prepare_corpus, path, None, 3) < 29 * n_tokens

    def test_tfidf(self):
        vocab, tf = count_terms(self.zipf_corpus(), 3)
        # the new data array and one temporary at a time: the squares, then the row scales;
        # a copy of TF, or scipy's norm with its two copies, takes it past three
        assert _traced_peak(_tfidf, tf, vocab) < 3 * 8 * tf.values.nnz


class TestTensor:
    def test_disjoint_company_slices(self):
        docs = [toks("d1", ["coal", "coal"]), toks("d2", ["seam"])]
        vocab = build_vocabulary(docs)
        tensor = build_tensor(docs, vocab, {"d1": "acme", "d2": "zinco"})
        assert tensor.shape == (2, 2, 2)
        acme = tensor.company_ids.index("acme")
        zinco = tensor.company_ids.index("zinco")
        assert tensor.pair_doc.tolist() == [0, 1]
        assert tensor.pair_company.tolist() == [acme, zinco]
        assert tensor.pairs.toarray().tolist() == [[2.0, 0.0], [0.0, 1.0]]

    def test_marginalisation_reproduces_tf_exactly(self, rng):
        for _ in range(20):
            docs, min_df = random_corpus(rng)
            vocab = build_vocabulary(docs, min_df=min_df)
            companies = {d.doc_id: f"c{rng.integers(0, 4)}" for d in docs}
            tensor = build_tensor(docs, vocab, companies)
            tf = tf_matrix(docs, vocab)
            diff = company_sum(tensor) - tf.values
            assert diff.nnz == 0
            assert tensor.pairs.nnz == tf.values.nnz

    def test_coordinates_sorted_by_doc_company_term(self, rng):
        for _ in range(50):
            docs = random_tokenized(rng, n_docs=int(rng.integers(1, 15)),
                                    vocab_size=int(rng.integers(2, 25)))
            vocab = build_vocabulary(docs)
            companies = {d.doc_id: f"c{rng.integers(0, 5)}" for d in docs}
            tensor = build_tensor(docs, vocab, companies)
            pairs = list(zip(tensor.pair_doc.tolist(), tensor.pair_company.tolist()))
            assert pairs == sorted(set(pairs))
            assert tensor.pairs.has_canonical_format

    def test_from_coords_sums_repeats_in_any_order(self, rng):
        for _ in range(20):
            shape = tuple(int(n) for n in rng.integers(1, 6, size=3))
            n = int(rng.integers(0, 30))
            coords = [rng.integers(0, dim, size=n) for dim in shape]
            values = rng.uniform(0.5, 3.0, size=n)
            dense = np.zeros(shape)
            np.add.at(dense, tuple(coords), values)
            order = rng.permutation(n)
            tensor = DocCompanyTermTensor.from_coords(
                shape, *(i[order] for i in coords), values[order])
            pairs = list(zip(tensor.pair_doc.tolist(), tensor.pair_company.tolist()))
            assert pairs == sorted(set(pairs))
            assert tensor.pairs.has_canonical_format
            got = np.zeros(shape)
            got[tensor.pair_doc, tensor.pair_company] = tensor.pairs.toarray()
            np.testing.assert_allclose(got, dense, rtol=1e-12)

    def test_unknown_company_rejected(self):
        docs = [toks("d1", ["coal"])]
        vocab = build_vocabulary(docs)
        with pytest.raises(ValueError, match="without a company"):
            build_tensor(docs, vocab, {})


class TestSparseExport:
    def test_byte_identical_rebuild(self, rng):
        docs = random_tokenized(rng, n_docs=6, vocab_size=10)
        vocab = build_vocabulary(docs)
        first, second = (tfidf_matrix(docs, vocab).values for _ in range(2))
        for name in ("indptr", "indices", "data"):
            assert getattr(first, name).tobytes() == getattr(second, name).tobytes()
