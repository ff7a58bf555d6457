"""Vocabulary construction and the three numeric corpus representations.

From a corpus file, or from a list of tokenized documents, this module builds

* a term <-> index bijection with document frequencies,
* a sparse document x term count matrix (TF) and its TF-IDF weighting,
* a sparse document x company x term tensor whose company-axis sum
  reproduces the TF matrix exactly.

``prepare_corpus``, a sweep's route from a corpus path to all three, codes each run
of a text into one int32 array by one lookup in the one stem memo, whose codes
``preprocess_corpus`` maps back to stems (``corpus._CodeMemo``); ``count_terms``,
the token route, codes stems in the same first-sight order.  Both count the codes
once (``_count``), into one CSR matrix from which the vocabulary (two ``bincount``s)
and TF come (``_ranked``).  TF-IDF and the tensor derive from one TF count; the
tensor's pair rows are that TF matrix, shared, so no caller may write into either.

It also holds the input checks that the run configuration and the solvers
share, and the one rule by which all three solvers stop or fail.

Everything here is deterministic: vocabulary order is total frequency
descending with lexicographic tie-break, and all sparse structures keep
their coordinates in canonical sorted order (TF-IDF shares TF's ``indices``
and ``indptr`` and has data of its own, so it is canonical too), so
rebuilding from the same corpus is byte-identical.
"""

from __future__ import annotations

import math
import numbers
import sys
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Mapping

import numpy as np
import scipy.sparse as sp

from .corpus import (CorpusError, RawDocument, StopwordList, TokenizedDocument, _CodeMemo, _Codes,
                     _read_corpus)

__all__ = [
    "Vocabulary",
    "DocTermMatrix",
    "DocCompanyTermTensor",
    "PreparedCorpus",
    "prepare_corpus",
    "build_vocabulary",
    "count_terms",
    "tf_matrix",
    "tfidf_matrix",
    "build_tensor",
]


@dataclass(frozen=True)
class Vocabulary:
    """Term <-> dense index bijection with per-term document frequencies."""

    term_to_index: Mapping[str, int]
    index_to_term: tuple[str, ...]
    doc_freq: np.ndarray  # int64, doc_freq[i] >= 1

    def __len__(self) -> int:
        return len(self.index_to_term)

    def __contains__(self, term: str) -> bool:
        return term in self.term_to_index

    @cached_property
    def lex_rank(self) -> np.ndarray:
        """Each term's position in sorted order: ties break by integer, not by string."""
        return np.argsort(np.array(self.index_to_term)).argsort()


@dataclass(frozen=True)
class DocTermMatrix:
    """Sparse document x term matrix tagged with its weighting scheme."""

    values: sp.csr_matrix  # (D, V), nonnegative
    weighting: str  # "tf" | "tfidf"
    doc_ids: tuple[str, ...]

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True)
class DocCompanyTermTensor:
    """Sparse document x company x term tensor, stored as the matrix NTF fits.

    Row p of ``pairs`` holds the term counts of document ``pair_doc[p]`` in
    company ``pair_company[p]``; the pairs are distinct and sorted by
    (doc, company), and ``pairs`` is canonical CSR.  ``build_tensor`` puts
    each document in one company, so its pairs are the TF rows.
    """

    shape: tuple[int, int, int]  # (D, C, V)
    pairs: sp.csr_matrix  # (P, V), float64
    pair_doc: np.ndarray  # int64, (P,)
    pair_company: np.ndarray  # int64, (P,)
    company_ids: tuple[str, ...]

    @classmethod
    def from_coords(cls, shape, doc_idx, company_idx, term_idx, values,
                    company_ids=()) -> "DocCompanyTermTensor":
        """Build from coordinates in any order, summing repeats; raise ValueError for a
        coordinate outside ``shape``, naming its axis, or a negative or non-finite value."""
        d, c, t = (np.asarray(i, dtype=np.int64) for i in (doc_idx, company_idx, term_idx))
        for axis, (name, idx, n) in enumerate(zip(("doc", "company", "term"), (d, c, t), shape)):
            if idx.size and (idx.min() < 0 or idx.max() >= n):
                raise ValueError(f"{name} index out of range for axis {axis} of size {n}")
        values = np.asarray(values, dtype=np.float64)
        check_nonnegative(values, "tensor values")  # before repeats are summed
        keys, pair = np.unique(d * shape[1] + c, return_inverse=True)
        pairs = sp.csr_matrix((values, (pair, t)), shape=(len(keys), shape[2]))
        return cls(tuple(shape), pairs, keys // shape[1], keys % shape[1], tuple(company_ids))


@dataclass(frozen=True)
class PreparedCorpus:
    """A corpus as the fits take it, with what a run manifest records of its making."""

    tf: DocTermMatrix
    tfidf: DocTermMatrix
    tensor: DocCompanyTermTensor
    vocab: Vocabulary
    doc_companies: list[str]  # each TF row's company
    digest: dict  # document counts at each step, the dropped ids, companies, terms
    notices: list[str]  # documents the filter, preprocessing and min_df dropped


def _indicator(rows: np.ndarray, n_rows: int) -> sp.csr_matrix:
    """0/1 matrix that sums pair rows into the given index's rows."""
    return sp.csr_matrix((np.ones(len(rows)), (rows, np.arange(len(rows)))),
                         shape=(n_rows, len(rows)))


def check_setting(name: str, value, low, integer: bool = True) -> None:
    """Raise ValueError unless ``value`` is an integer, or a finite number, >= ``low``.
    A finite number is one a float can hold: not NaN, inf or an integer past 1.8e308."""
    kind = "an integer" if integer else "a finite number"
    finite = isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) if integer else finite):
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")


def check_k(k, bound: float = math.inf, bound_name: str = "") -> None:
    """Raise ValueError unless ``k`` is an integer from 1 to ``bound``."""
    check_setting("k", k, 1)
    if k > bound:
        raise ValueError(f"k={k} out of range: exceeds {bound_name}")


def check_nonnegative(mat, what: str, row_ids=None) -> None:
    """Raise ValueError unless every stored entry is finite and >= 0, naming the
    first bad row (an entry's index in a 1-d array), or its id in ``row_ids``."""
    data = mat.data if sp.issparse(mat) else np.asarray(mat)
    bad = np.flatnonzero(~np.isfinite(data) | (data < 0))
    if bad.size:
        row = mat.tocoo().row[bad[0]] if sp.issparse(mat) else bad[0] // data[0].size
        where = f"row {row}" if row_ids is None else f"doc {row_ids[row]!r}"
        raise ValueError(f"{what} must be nonnegative and finite: {where}")


def settled(trace: list, value: float, tol: float, solver: str, step: str, *arrays) -> bool:
    """Append ``value`` to ``trace``: True if it is exactly 0 or moved by at most ``tol``
    times the previous value's magnitude (floored at the smallest normal float).  Raise
    RuntimeError, naming ``solver`` and ``step``, if it or an array holds a NaN or an inf."""
    if not (math.isfinite(value) and all(np.isfinite(a).all() for a in arrays)):
        raise RuntimeError(f"{solver} update produced NaN/Inf at {step}")
    trace.append(value)
    return bool(value == 0.0 or len(trace) > 1
                and abs(value - trace[-2]) <= tol * max(abs(trace[-2]), sys.float_info.min))


def build_vocabulary(docs: Iterable[TokenizedDocument], min_df: int = 1) -> Vocabulary:
    """The vocabulary of ``count_terms(docs, min_df)``."""
    return count_terms(docs, min_df)[0]


def count_terms(docs: Iterable[TokenizedDocument],
                min_df: int = 1) -> tuple[Vocabulary, DocTermMatrix]:
    """The vocabulary over all documents and their TF matrix, from one count.

    Terms seen in fewer than ``min_df`` documents are excluded.  Index
    order is total corpus frequency descending, ties broken by the term
    string, which keeps downstream keyword rankings reproducible.  Stems
    are counted as integer codes, and the columns then put in index order.
    """
    check_setting("min_df", min_df, 1)
    docs = list(docs)
    codes = _Codes()
    return _ranked(_count_tokens(docs, codes), list(codes), min_df, tuple(d.doc_id for d in docs))


def _ranked(counts: sp.csr_matrix, stems: list[str], min_df: int, doc_ids: tuple[str, ...]):
    """``count_terms`` from counts with one column per stem, relabelled in place."""
    if not stems:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    dfreq = np.bincount(counts.indices, minlength=len(stems)).astype(np.int64)
    kept = np.flatnonzero(dfreq >= min_df)
    if not kept.size:
        raise ValueError(f"no term reaches min_df={min_df}")
    total = np.bincount(counts.indices, weights=counts.data)[kept]
    kept = kept[np.lexsort((np.array([stems[i] for i in kept]), -total))]
    terms = tuple(stems[i] for i in kept)
    column = np.full(len(stems), -1, np.int32)  # each code's column; -1 under min_df
    column[kept] = np.arange(len(kept))
    counts.data[column[counts.indices] < 0] = 0
    counts.eliminate_zeros()  # in place, as is the sort of the relabelled columns
    values = sp.csr_matrix((counts.data, column[counts.indices], counts.indptr),
                           shape=(len(doc_ids), len(kept)))
    values.sort_indices()
    tf = DocTermMatrix(values, "tf", doc_ids)
    return Vocabulary(dict(zip(terms, range(len(terms)))), terms, dfreq[kept]), tf


def _count_tokens(docs: list[TokenizedDocument], codes: _Codes) -> sp.csr_matrix:
    """``_count`` of each document's tokens, by their code in ``codes``."""
    indptr = np.cumsum([0, *map(len, (d.tokens for d in docs))])
    cols = map(codes.__getitem__, chain.from_iterable(d.tokens for d in docs))
    return _count(np.fromiter(cols, np.int32, indptr[-1]), indptr, len(codes))


def _count(cols: np.ndarray, indptr: np.ndarray, n_cols: int) -> sp.csr_matrix:
    """Canonical CSR counts of the int32 codes ``cols``, summed in place; rows end at ``indptr``."""
    ones = np.ones(len(cols), np.int32)
    mat = sp.csr_matrix((ones, cols, indptr), shape=(len(indptr) - 1, n_cols))
    mat.sum_duplicates()  # sorts each row's columns and sums the repeats, exactly in int32
    return mat.astype(np.float64)  # compact copies: the token-length arrays go


def tf_matrix(docs: list[TokenizedDocument], vocab: Vocabulary) -> DocTermMatrix:
    """Raw term counts: entry (d, t) is the frequency of term t in doc d.

    Tokens not in the vocabulary are skipped, so with min_df=1 each row
    sums to the document's token count.  The matrix is canonical CSR:
    each row lists its terms once, in index order.
    """
    # Stems outside the vocabulary get codes past its columns, which are then cut.
    mat = _count_tokens(docs, _Codes(vocab.term_to_index))[:, :len(vocab)]
    return DocTermMatrix(mat, "tf", tuple(d.doc_id for d in docs))


def tfidf_matrix(docs: list[TokenizedDocument], vocab: Vocabulary) -> DocTermMatrix:
    """TF-IDF weighting with smoothed idf and L2-normalised rows.

    idf(t) = ln((1 + D) / (1 + doc_freq(t))) + 1, applied to the raw
    counts, then each row is scaled to unit Euclidean norm (all-zero rows
    stay zero).
    """
    return _tfidf(tf_matrix(docs, vocab), vocab)


def _tfidf(tf: DocTermMatrix, vocab: Vocabulary) -> DocTermMatrix:
    """TF-IDF on ``tf``'s own ``indices`` and ``indptr``: one new data array, scaled in place."""
    idf = np.log((1.0 + tf.shape[0]) / (1.0 + vocab.doc_freq.astype(np.float64))) + 1.0
    data = idf[tf.values.indices] * tf.values.data
    lengths = np.diff(tf.values.indptr)
    rows = np.flatnonzero(lengths)
    norms = np.zeros(tf.shape[0])  # summed by np.add.reduceat, as scipy's norm(axis=1) sums
    norms[rows] = np.sqrt(np.add.reduceat(np.square(data), tf.values.indptr[rows]))
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    data *= np.repeat(scale, lengths)
    mat = sp.csr_matrix((data, tf.values.indices, tf.values.indptr), shape=tf.shape)
    return DocTermMatrix(mat, "tfidf", tf.doc_ids)


def build_tensor(
    docs: list[TokenizedDocument],
    vocab: Vocabulary,
    company_map: Mapping[str, str],
) -> DocCompanyTermTensor:
    """Stack each document's TF row into its company's slice of a 3-way tensor."""
    return _tensor(tf_matrix(docs, vocab), company_map)


def _tensor(tf: DocTermMatrix, company_map: Mapping[str, str]) -> DocCompanyTermTensor:
    """The tensor whose pair rows are ``tf``'s rows: ``pairs`` is ``tf.values`` itself."""
    missing = [d for d in tf.doc_ids if d not in company_map]
    if missing:
        raise ValueError(f"document(s) without a company: {', '.join(missing)}")

    company_ids = tuple(sorted({company_map[d] for d in tf.doc_ids}))
    position = {c: i for i, c in enumerate(company_ids)}

    return DocCompanyTermTensor(
        shape=(tf.shape[0], len(company_ids), tf.shape[1]),
        pairs=tf.values,
        pair_doc=np.arange(tf.shape[0], dtype=np.int64),
        pair_company=np.array([position[company_map[d]] for d in tf.doc_ids], dtype=np.int64),
        company_ids=company_ids,
    )


def prepare_corpus(path: str | Path, stops: StopwordList | None = None, min_df: int = 1,
                   keep: Callable[[RawDocument], bool] | None = None) -> PreparedCorpus:
    """Stream the corpus at ``path``, keep the records ``keep`` accepts (all by default),
    preprocess them with ``stops``, count TF once and derive TF-IDF and the tensor from
    it.  A document left with no term is dropped and named in the digest and notices.
    Every corpus error (none kept, all empty, no term reaching ``min_df`` too) is a
    CorpusError naming the file; a bad ``min_df`` is a ValueError before it is read."""
    check_setting("min_df", min_df, 1)
    memo = _CodeMemo(StopwordList() if stops is None else stops)
    cols, indptr, n_loaded = array("i"), array("q", [0]), 0  # codes + 1, row ends, records
    company_map = {}  # each kept document's company, in row order
    for doc in _read_corpus(path):  # one record at a time, so no text outlives its codes
        n_loaded += 1
        if keep is None or keep(doc):
            company_map[doc.doc_id] = doc.company_id
            cols.extend(memo.kept(doc.text))
            indptr.append(len(cols))
    has_token = np.diff(indptr) > 0
    empty_ids = [doc_id for doc_id, ok in zip(company_map, has_token) if not ok]
    n_docs = len(company_map)
    try:  # counted once; TF-IDF and the tensor derive from it
        if len(empty_ids) == n_docs:
            raise ValueError(f"all {n_docs} documents are empty after preprocessing" if n_docs
                             else "no documents left after filtering")
        codes = np.frombuffer(cols, np.int32)
        codes -= 1  # in place: the count sums the codes where they are
        vocab, tf = _ranked(_count(codes, np.frombuffer(indptr, np.int64), len(memo.codes)),
                            list(memo.codes), min_df, tuple(company_map))
        del codes, cols, memo  # not needed past the count: the fits can reuse their memory
    except ValueError as exc:  # every corpus-phase error names the corpus file
        raise CorpusError(f"{Path(path).name}: {exc}") from exc
    has_term = np.diff(tf.values.indptr) > 0  # no token, or none that reaches min_df
    dropped_oov = [doc_id for doc_id, ok, tokens in zip(tf.doc_ids, has_term, has_token)
                   if tokens and not ok]
    notices = [f"metadata filters dropped {n_loaded - n_docs} document(s)"] * (n_docs < n_loaded)
    notices += [f"{len(ids)} document(s) {what}: {', '.join(ids)}" for ids, what in (
        (empty_ids, "empty after preprocessing"), (dropped_oov, "have no in-vocabulary token"))
        if ids]
    if not has_term.all():
        kept_ids = tuple(doc_id for doc_id, ok in zip(tf.doc_ids, has_term) if ok)
        # An empty row ends where it starts: dropping its end from indptr moves no entry.
        values = sp.csr_matrix((tf.values.data, tf.values.indices,
                                tf.values.indptr[np.r_[True, has_term]]),
                               shape=(len(kept_ids), len(vocab)))
        tf = DocTermMatrix(values, "tf", kept_ids)

    tensor = _tensor(tf, company_map)
    digest = {"documents_loaded": n_loaded, "documents_after_filters": n_docs,
              "documents_empty_after_preprocessing": empty_ids,
              "documents_without_vocabulary_terms": dropped_oov,
              "documents_in_matrices": tf.shape[0], "companies": tensor.shape[1],
              "vocabulary_size": len(vocab)}
    return PreparedCorpus(tf, _tfidf(tf, vocab), tensor, vocab,
                          [company_map[doc_id] for doc_id in tf.doc_ids], digest, notices)
