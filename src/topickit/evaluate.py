"""Model evaluation: argmax grouping, silhouettes, keyword match, decisiveness.

All functions are pure and deterministic: topic ties break to the lowest
index, term ranking ties break lexicographically, and every statistic can
be cross-checked by a naive reimplementation (the tests do exactly that).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .vectorize import DocTermMatrix, Vocabulary, _indicator, check_setting

__all__ = [
    "SilhouetteResult",
    "EvaluationReport",
    "argmax_assign",
    "silhouette",
    "top_keywords",
    "group_frequent_terms",
    "keyword_match_ratio",
    "decisiveness",
    "build_report",
]

_BLOCK_FLOATS = 2**16


@dataclass(frozen=True)
class SilhouetteResult:
    mean: float
    per_sample: np.ndarray  # in [-1, 1]
    distance: str = "euclidean"


def argmax_assign(weights, ids) -> np.ndarray:
    """The label of each row: its highest-weight column (lowest index on ties).

    ``ids`` names the rows and is only checked against their count.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2 or w.size == 0:
        raise ValueError("weights must be a non-empty 2-d matrix")
    if np.isnan(w).any():
        raise ValueError("weights contain NaN")
    if len(ids) != w.shape[0]:
        raise ValueError(f"{len(ids)} ids for {w.shape[0]} rows")
    return np.argmax(w, axis=1)


def silhouette(points, labels) -> SilhouetteResult:
    """Per-sample Euclidean silhouette coefficients ``(b - a) / max(a, b)``.

    ``a`` is the mean distance to the sample's own cluster (excluding
    itself), ``b`` the smallest mean distance to any other cluster.
    Samples in singleton clusters score 0, and the mean runs over all
    samples.  Requires at least two samples and two distinct labels.
    Distances are computed one block of rows at a time by ``_distances``,
    which adds the squared differences one dimension at a time into a
    reused buffer, as scipy's ``cdist`` sums them, so the bits are its bits.
    The buffer and one array of squares of the same size keep at most
    ``max(_BLOCK_FLOATS, 2 n)`` floats live.  Each block's distances are
    summed per cluster in an order that depends on neither the block nor
    the BLAS.
    """
    label_arr = np.asarray(labels)
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if n < 2:
        raise ValueError(f"silhouette needs at least 2 samples, got {n}")
    if len(label_arr) != n:
        raise ValueError(f"{len(label_arr)} labels for {n} samples")
    uniq, own, counts = np.unique(label_arr, return_inverse=True, return_counts=True)
    if len(uniq) < 2:
        raise ValueError("silhouette is undefined for a single cluster")

    rows = np.arange(n)
    by_label = pts[np.argsort(own, kind="stable")].T.copy()  # one run per cluster, by dimension
    starts = np.cumsum(counts) - counts
    step = max(1, _BLOCK_FLOATS // (2 * n))
    dist, squares = np.empty((step, n)), np.empty((step, n))  # reused by every block
    cluster_sums = np.empty((n, len(uniq)))  # (n, n_clusters) distance sums
    for start in range(0, n, step):
        block = pts[start:start + step]
        rows_dist = _distances(block, by_label, dist[:len(block)], squares[:len(block)])
        cluster_sums[start:start + step] = np.add.reduceat(rows_dist, starts, axis=1)
    own_counts = counts[own]

    a = cluster_sums[rows, own] / np.maximum(own_counts - 1, 1)
    means = cluster_sums / counts
    means[rows, own] = np.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    scored = (own_counts > 1) & (denom > 0)  # singleton clusters score 0
    per_sample = np.divide(b - a, denom, out=np.zeros(n), where=scored)
    return SilhouetteResult(mean=float(per_sample.mean()), per_sample=per_sample)


def _distances(block: np.ndarray, points_t: np.ndarray, out: np.ndarray,
               squares: np.ndarray) -> np.ndarray:
    """The Euclidean distances from each row of ``block`` to each column of ``points_t``,
    into ``out``: squared differences added one dimension at a time, then the square
    root, the order scipy's ``cdist`` sums in, so the bits are its bits."""
    np.subtract(block[:, :1], points_t[0], out=out)
    np.multiply(out, out, out=out)
    for dim in range(1, len(points_t)):
        np.subtract(block[:, dim:dim + 1], points_t[dim], out=squares)
        np.multiply(squares, squares, out=squares)
        out += squares
    return np.sqrt(out, out=out)


def _ranked_terms(weights_row: np.ndarray, vocab: Vocabulary, n: int) -> list[str]:
    return [vocab.index_to_term[i] for i in np.lexsort((vocab.lex_rank, -weights_row))[:n]]


def top_keywords(topic_term, vocab: Vocabulary, n: int = 30) -> list[list[str]]:
    """The n highest-weight terms of each topic, ties lexicographic."""
    check_setting("n", n, 1)
    w = np.asarray(topic_term, dtype=np.float64)
    if n > w.shape[1] or n > len(vocab):
        raise ValueError(f"n={n} exceeds vocabulary size {len(vocab)}")
    return [_ranked_terms(w[t], vocab, n) for t in range(w.shape[0])]


def group_frequent_terms(
    tf: DocTermMatrix, labels: np.ndarray, k: int, vocab: Vocabulary, n: int = 30
) -> list[list[str]]:
    """The n most frequent terms of each of the groups ``0 .. k-1`` of ``labels``.

    Terms are ranked by total TF over the group's documents (ties
    lexicographic).  A group with no documents yields an empty list, which
    ``build_report`` names in a notice.
    """
    if tf.weighting != "tf":
        raise ValueError(f"group term counting requires TF weights, got {tf.weighting!r}")
    check_setting("n", n, 1)
    n_docs, n_terms = tf.shape
    if n > n_terms:
        raise ValueError(f"n={n} exceeds vocabulary size {n_terms}")
    if len(labels) != n_docs:
        raise ValueError(f"{len(labels)} labels for {n_docs} documents")

    sizes = np.bincount(labels, minlength=k)
    totals = (_indicator(labels, k) @ tf.values).toarray()  # integer counts: exact sums
    return [_ranked_terms(totals[g], vocab, n) if sizes[g] else [] for g in range(k)]


def keyword_match_ratio(
    model_keywords: list[list[str]], group_terms: list[list[str]]
) -> tuple[list[float | None], float | None]:
    """Overlap fraction between model keywords and group frequent terms.

    Per topic: |intersection| / n.  Topics whose group list is empty get
    ``None`` and are excluded from the mean; the mean itself is ``None``
    when no topic has a defined ratio.
    """
    if len(model_keywords) != len(group_terms):
        raise ValueError(
            f"{len(model_keywords)} keyword lists vs {len(group_terms)} group lists"
        )
    ratios: list[float | None] = []
    for kw, gt in zip(model_keywords, group_terms):
        if not gt:
            ratios.append(None)
            continue
        if len(kw) != len(gt):
            raise ValueError(f"list length mismatch: {len(kw)} vs {len(gt)}")
        ratios.append(len(set(kw) & set(gt)) / len(kw))
    defined = [r for r in ratios if r is not None]
    return ratios, (sum(defined) / len(defined) if defined else None)


def decisiveness(doc_topic) -> float:
    """Mean per-row spread of the topic-weight matrix.

    Rows are L1-normalised first (so probability rows and unnormalised
    loadings are comparable), then the population standard deviation of
    each row is averaged.  Ranges from 0 (uniform rows) to
    sqrt(k-1)/k (one-hot rows).  All-zero rows are skipped, and the caller
    names them (``build_report`` does in a notice); ValueError if every row is.
    """
    w = np.asarray(doc_topic, dtype=np.float64)
    if w.ndim != 2 or w.shape[1] < 2:
        raise ValueError("decisiveness needs a 2-d matrix with at least 2 columns")
    l1 = np.sum(np.abs(w), axis=1)
    keep = l1 > 0
    if not np.any(keep):
        raise ValueError("decisiveness is undefined: all rows are zero")
    normalised = w[keep] / l1[keep, np.newaxis]
    return float(np.mean(np.std(normalised, axis=1)))


@dataclass
class EvaluationReport:
    """Everything the protocol measures for one (method, K) cell."""

    method: str
    k: int
    silhouette_documents: SilhouetteResult | None
    silhouette_companies: SilhouetteResult | None
    keyword_match_per_topic: list[float | None]
    keyword_match_mean: float | None
    decisiveness: float | None
    topic_sizes: list[int]
    company_crosstab: dict[str, list[int]]  # company_id -> doc count per topic
    topic_keywords: list[list[str]]
    notices: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def _group_silhouette(points, labels: np.ndarray, k: int, prefix: str, entities: str,
                      notices: list[str]) -> SilhouetteResult | None:
    """The silhouette of the argmax groups, or None and a notice when it is undefined."""
    if k < 2:
        notices.append(f"{prefix}silhouette skipped: K<2")
    elif len(np.unique(labels)) < 2:
        notices.append(f"{prefix}silhouette skipped: all {entities} in one group")
    else:
        return silhouette(points, labels)
    return None


def build_report(
    method: str,
    k: int,
    doc_topic: np.ndarray,
    topic_term: np.ndarray,
    tf: DocTermMatrix,
    vocab: Vocabulary,
    doc_companies: list[str],
    company_factor: np.ndarray | None = None,
    company_ids: tuple[str, ...] | None = None,
    n_keywords: int = 30,
) -> EvaluationReport:
    """Run the full evaluation protocol for one fitted model.

    A ``company_factor`` is scored by its own silhouette and needs ``company_ids``.
    """
    check_setting("n_keywords", n_keywords, 1)
    notices: list[str] = []
    labels = argmax_assign(doc_topic, tf.doc_ids)
    sil_docs = _group_silhouette(doc_topic, labels, k, "", "documents", notices)

    sil_comp = None
    if company_factor is not None:
        if company_ids is None:
            raise ValueError("company_factor needs company_ids")
        sil_comp = _group_silhouette(company_factor, argmax_assign(company_factor, company_ids),
                                     k, "company ", "companies", notices)

    n_kw = min(n_keywords, tf.shape[1])
    if n_kw < n_keywords:
        notices.append(f"keyword lists truncated to vocabulary size {n_kw}")
    keywords = top_keywords(topic_term, vocab, n=n_kw)
    group_terms = group_frequent_terms(tf, labels, k, vocab, n=n_kw)
    for g, terms in enumerate(group_terms):
        if not terms:
            notices.append(f"group {g} is empty; keyword ratio undefined")
    per_topic, mean_ratio = keyword_match_ratio(keywords, group_terms)

    zero = [tf.doc_ids[i] for i in np.flatnonzero(~np.any(doc_topic, axis=1))]
    if zero:
        notices.append(f"{len(zero)} document(s) with an all-zero topic row, grouped under "
                       f"topic 0 and left out of decisiveness: {', '.join(zero)}")
    dec = None
    if k < 2:
        notices.append("decisiveness skipped: K<2")
    else:
        dec = decisiveness(doc_topic)

    topic_sizes = np.bincount(labels, minlength=k).tolist()
    crosstab: dict[str, list[int]] = {}
    for company, label in zip(doc_companies, labels):
        crosstab.setdefault(company, [0] * k)[label] += 1

    return EvaluationReport(
        method=method,
        k=k,
        silhouette_documents=sil_docs,
        silhouette_companies=sil_comp,
        keyword_match_per_topic=per_topic,
        keyword_match_mean=mean_ratio,
        decisiveness=dec,
        topic_sizes=topic_sizes,
        company_crosstab=dict(sorted(crosstab.items())),
        topic_keywords=keywords,
        notices=notices,
    )
