"""End-to-end experiment runner.

Loads a corpus, preprocesses and vectorises it, sweeps the requested
topic counts over the requested methods, evaluates every (method, K)
cell, and writes the per-cell artifacts plus three cross-method summary
CSVs (silhouette by K, keyword match by K, decisiveness by method at
each method's selected K) and a run manifest.

Output tree::

    out/<method>/k<k>/{doc_topic.csv, topic_term.csv, [company_topic.csv],
                       model.json, report.json, silhouette_samples.csv,
                       keywords.csv}
    out/summary/{silhouette_by_k.csv, keyword_match_by_k.csv,
                 decisiveness_by_method.csv, manifest.json}

Exit codes: 0 success, 1 config error, 2 corpus error, 3 some cells failed.
"""

from __future__ import annotations

import argparse
import json
import logging
import numbers
import time
from dataclasses import asdict, dataclass, field
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

import numpy as np

from .corpus import CorpusError, RawDocument, StopwordList, load_corpus, preprocess_corpus
from .evaluate import EvaluationReport, build_report
from .export import atomic_write_text, sig12, write_factor_csv, write_json
from .lda import LdaConfig, fit_lda
from .nmf import fit_nmf
from .ntf import fit_ntf
from .vectorize import build_tensor, build_vocabulary, tf_matrix, tfidf_matrix

__all__ = ["ConfigError", "RunConfig", "RunManifest", "run_experiment", "select_best", "main"]

logger = logging.getLogger(__name__)

KNOWN_METHODS = ("lda", "nmf", "ntf")
# The solver settings a config may override, by method, named as the fit
# functions name them; everything else keeps the solver's own default.
SOLVER_KEYS = {"lda": ("max_iter", "tol"), "nmf": ("max_iter", "tol"), "ntf": ("max_sweeps", "tol")}
FILTER_KEYS = ("year", "category", "report_type")


class ConfigError(Exception):
    """Invalid run configuration or command line."""


def _tool_version() -> str:
    try:
        return version("topickit")
    except PackageNotFoundError:
        return "0.0.0+local"


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _comma_list(value) -> tuple:
    return tuple(v for v in value.split(",") if v) if isinstance(value, str) else tuple(value)


def _parse_k_values(text: str) -> tuple[int, ...]:
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            values = tuple(range(int(lo), int(hi) + 1))
        else:
            values = tuple(int(v) for v in text.split(",") if v)
    except ValueError:
        raise ConfigError(f"cannot parse K values from {text!r}") from None
    if not values:
        raise ConfigError(f"no K values in {text!r}")
    return values


def _year_range(value) -> tuple[int, int]:
    """A year filter as an inclusive pair: 2005, [2000, 2009], "2005" or "2000:2009"."""
    parts = value.split(":", 1) if isinstance(value, str) else [value] if _is_int(value) else value
    try:
        years = [int(p) if isinstance(p, str) else p for p in parts]
    except (TypeError, ValueError):
        years = []
    if len(years) not in (1, 2) or not all(map(_is_int, years)):
        raise ConfigError(f"cannot parse year filter {value!r}")
    return int(years[0]), int(years[-1])


@dataclass
class RunConfig:
    """One sweep's settings, checked and normalised on construction.

    ``methods``, ``k_values`` and ``extra_stopwords`` also take the
    command line's string forms ("lda,nmf", "2:6" or "2,3,4", "coal,drill").
    """

    corpus_path: str
    corpus_format: str = "jsonl"
    methods: tuple[str, ...] = KNOWN_METHODS
    k_values: tuple[int, ...] = (2, 3, 4, 5, 6)
    seed: int = 0
    min_df: int = 1
    out_dir: str = "out"
    filters: dict = field(default_factory=dict)
    extra_stopwords: tuple[str, ...] = ()
    select_margin: float = 0.02
    n_keywords: int = 30
    lda: dict = field(default_factory=dict)  # solver overrides, keys in SOLVER_KEYS
    nmf: dict = field(default_factory=dict)
    ntf: dict = field(default_factory=dict)

    def __post_init__(self):
        self.methods = _comma_list(self.methods)
        self.extra_stopwords = _comma_list(self.extra_stopwords)
        if isinstance(self.k_values, str):
            self.k_values = _parse_k_values(self.k_values)
        if not self.methods:
            raise ConfigError("at least one method is required")
        unknown = [m for m in self.methods if m not in KNOWN_METHODS]
        if unknown:
            raise ConfigError(f"unknown method(s): {', '.join(unknown)}")
        if not self.k_values:
            raise ConfigError("at least one K value is required")
        if not all(_is_int(k) and k >= 1 for k in self.k_values):
            raise ConfigError(f"every K must be an integer >= 1, got {self.k_values!r}")
        self.k_values = tuple(int(k) for k in self.k_values)
        for name in ("corpus_path", "corpus_format", "out_dir"):
            if not isinstance(getattr(self, name), str):
                raise ConfigError(f"{name} must be a string")
        for name in ("seed", "min_df", "n_keywords"):
            if not _is_int(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer")
        if not _is_real(self.select_margin):
            raise ConfigError("select_margin must be a number")
        if self.min_df < 1:
            raise ConfigError("min_df must be >= 1")

        if not isinstance(self.filters, dict):
            raise ConfigError("filters must be an object")
        unknown = [key for key in self.filters if key not in FILTER_KEYS]
        if unknown:
            raise ConfigError(f"unknown filter key(s): {', '.join(unknown)}")
        if "year" in self.filters:
            self.filters = {**self.filters, "year": _year_range(self.filters["year"])}

        for method, keys in SOLVER_KEYS.items():
            overrides = getattr(self, method)
            if not isinstance(overrides, dict):
                raise ConfigError(f"{method} must be an object of solver settings")
            for key, value in overrides.items():
                if key not in keys:
                    raise ConfigError(
                        f"unknown solver setting {method}.{key}; {method} takes {', '.join(keys)}"
                    )
                if not (_is_real(value) if key == "tol" else _is_int(value)):
                    kind = "a number" if key == "tol" else "an integer"
                    raise ConfigError(f"{method}.{key} must be {kind}, got {value!r}")


@dataclass
class RunManifest:
    config: dict
    digest: dict
    cells: list[dict]
    selection: dict
    notices: list[str]
    tool_version: str

    @property
    def failures(self) -> list[dict]:
        return [c for c in self.cells if c["status"] != "ok"]


@dataclass
class _CorpusBundle:
    tf: object
    tfidf: object
    tensor: object
    vocab: object
    doc_companies: list[str]


def _apply_filters(docs: list[RawDocument], filters: dict) -> list[RawDocument]:
    out = docs
    if "year" in filters:
        lo, hi = filters["year"]
        out = [d for d in out if d.year is not None and lo <= d.year <= hi]
    if "category" in filters:
        out = [d for d in out if d.category == filters["category"]]
    if "report_type" in filters:
        out = [d for d in out if d.report_type == filters["report_type"]]
    return out


def _fit_cell(method: str, k: int, bundle: _CorpusBundle, config: RunConfig):
    """Fit one model and return (doc_topic, topic_term, company block, meta)."""
    if method == "lda":
        model = fit_lda(bundle.tf, LdaConfig(k=k, seed=config.seed, **config.lda))
        meta = {
            "converged": model.converged,
            "trace": list(model.elbo_trace),
            "trace_name": "elbo",
            "inner_updates": model.inner_updates,
            "alpha": model.config.alpha,
            "beta": model.config.beta,
        }
        return model.doc_topic, model.topic_term, None, meta
    if method == "nmf":
        model = fit_nmf(bundle.tfidf, k, seed=config.seed, **config.nmf)
        meta = {
            "converged": model.converged,
            "trace": list(model.objective_trace),
            "trace_name": "objective",
        }
        return model.doc_topic, model.topic_term, None, meta
    model = fit_ntf(bundle.tensor, k, seed=config.seed, **config.ntf)
    meta = {
        "converged": model.converged,
        "trace": list(model.error_trace),
        "trace_name": "reconstruction_error",
        "rescues": model.rescues,
    }
    return model.doc_factor, model.term_factor.T, model.company_factor, meta


def _export_cell(
    cell_dir: Path,
    method: str,
    k: int,
    bundle: _CorpusBundle,
    doc_topic,
    topic_term,
    company_factor,
    meta: dict,
    report: EvaluationReport,
    config: RunConfig,
) -> None:
    write_factor_csv(cell_dir / "doc_topic.csv", "doc_id", bundle.tf.doc_ids, doc_topic)
    write_factor_csv(
        cell_dir / "topic_term.csv",
        "topic",
        range(k),
        topic_term,
        column_names=list(bundle.vocab.index_to_term),
    )
    if company_factor is not None:
        write_factor_csv(
            cell_dir / "company_topic.csv",
            "company_id",
            bundle.tensor.company_ids,
            company_factor,
        )
    write_json(cell_dir / "model.json", {
        "method": method,
        "k": k,
        "seed": config.seed,
        **meta,
    })
    write_json(cell_dir / "report.json", report.to_dict())

    if report.silhouette_documents is not None:
        lines = ["doc_id,silhouette"]
        for doc_id, value in zip(bundle.tf.doc_ids, report.silhouette_documents.per_sample):
            lines.append(f"{doc_id},{sig12(value)}")
        atomic_write_text(cell_dir / "silhouette_samples.csv", "\n".join(lines) + "\n")

    lines = ["topic,rank,term"]
    for t, terms in enumerate(report.topic_keywords):
        for rank, term in enumerate(terms):
            lines.append(f"{t},{rank},{term}")
    atomic_write_text(cell_dir / "keywords.csv", "\n".join(lines) + "\n")


def _run_cell(method: str, k: int, bundle: _CorpusBundle, config: RunConfig, out_dir: Path) -> dict:
    started = time.perf_counter()
    result = {
        "method": method,
        "k": k,
        "status": "ok",
        "error": None,
        "silhouette_documents": None,
        "silhouette_companies": None,
        "keyword_match_mean": None,
        "decisiveness": None,
        "seconds": None,
    }
    try:
        doc_topic, topic_term, company_factor, meta = _fit_cell(method, k, bundle, config)
        report = build_report(
            method,
            k,
            doc_topic,
            topic_term,
            bundle.tf,
            bundle.vocab,
            bundle.doc_companies,
            company_factor=company_factor,
            company_ids=bundle.tensor.company_ids if company_factor is not None else None,
            n_keywords=config.n_keywords,
        )
        _export_cell(
            out_dir / method / f"k{k}", method, k, bundle,
            doc_topic, topic_term, company_factor, meta, report, config,
        )
        if report.silhouette_documents is not None:
            result["silhouette_documents"] = report.silhouette_documents.mean
        if report.silhouette_companies is not None:
            result["silhouette_companies"] = report.silhouette_companies.mean
        result["keyword_match_mean"] = report.keyword_match_mean
        result["decisiveness"] = report.decisiveness
    except Exception as exc:  # crash containment: one cell never kills the sweep
        logger.exception("cell (%s, k=%d) failed", method, k)
        result["status"] = "failed"
        result["error"] = f"{type(exc).__name__}: {exc}"
    result["seconds"] = time.perf_counter() - started
    return result


def select_best(summaries: list[dict], margin: float = 0.02) -> dict:
    """Pick the best K per method, then the best (method, K) overall.

    Per method: candidate Ks are those whose mean document silhouette is
    within ``margin`` of the method's maximum; among candidates the
    highest mean keyword-match ratio wins, ties to the smaller K.  The
    overall winner compares the per-method picks lexicographically on
    (silhouette, keyword ratio).
    """
    if not summaries:
        raise ValueError("no summaries to select from")
    per_method: dict[str, dict] = {}
    methods = []
    for row in summaries:
        if row["method"] not in methods:
            methods.append(row["method"])
    for method in methods:
        rows = [r for r in summaries if r["method"] == method]
        notices = []
        if len(rows) == 1:
            only = rows[0]
            notices.append("no sweep: single K value")
            per_method[method] = {
                "k": only["k"],
                "silhouette": only["silhouette_documents"],
                "keyword_match": only["keyword_match_mean"],
                "notices": notices,
            }
            continue
        scored = [r for r in rows if r["silhouette_documents"] is not None]
        if not scored:
            per_method[method] = {
                "k": None, "silhouette": None, "keyword_match": None,
                "notices": ["no silhouette values available"],
            }
            continue
        max_sil = max(r["silhouette_documents"] for r in scored)
        candidates = [r for r in scored if r["silhouette_documents"] >= max_sil - margin]

        def _rank(r):
            ratio = r["keyword_match_mean"]
            return (-(ratio if ratio is not None else -np.inf), r["k"])

        best = min(candidates, key=_rank)
        per_method[method] = {
            "k": best["k"],
            "silhouette": best["silhouette_documents"],
            "keyword_match": best["keyword_match_mean"],
            "notices": notices,
        }

    ranked = [
        (m, p) for m, p in per_method.items() if p["k"] is not None
    ]
    overall = None
    if ranked:
        def _overall_rank(item):
            _, p = item
            sil = p["silhouette"] if p["silhouette"] is not None else -np.inf
            ratio = p["keyword_match"] if p["keyword_match"] is not None else -np.inf
            return (-sil, -ratio, item[0])

        best_method, best_pick = min(ranked, key=_overall_rank)
        overall = {"method": best_method, "k": best_pick["k"]}
    return {"per_method": per_method, "overall": overall}


def run_experiment(config: RunConfig) -> RunManifest:
    """Run the full sweep and write all artifacts under ``config.out_dir``."""
    out_dir = Path(config.out_dir)
    notices: list[str] = []

    raw_docs = load_corpus(config.corpus_path, config.corpus_format)
    n_loaded = len(raw_docs)
    docs = _apply_filters(raw_docs, config.filters)
    if len(docs) < n_loaded:
        notices.append(f"metadata filters dropped {n_loaded - len(docs)} document(s)")
    if not docs:
        raise CorpusError("no documents left after filtering")

    stops = StopwordList.with_extra(config.extra_stopwords)
    tokenized, empty_ids = preprocess_corpus(docs, stops)
    if empty_ids:
        notices.append(
            f"{len(empty_ids)} document(s) empty after preprocessing: {', '.join(empty_ids)}"
        )

    non_empty = [t for t in tokenized if not t.is_empty]
    try:
        vocab = build_vocabulary(non_empty, min_df=config.min_df)
    except ValueError as exc:
        raise CorpusError(str(exc)) from exc

    in_vocab = [t for t in non_empty if any(tok in vocab for tok in t.tokens)]
    dropped_oov = [t.doc_id for t in non_empty if not any(tok in vocab for tok in t.tokens)]
    if dropped_oov:
        notices.append(
            f"{len(dropped_oov)} document(s) have no in-vocabulary token: {', '.join(dropped_oov)}"
        )
    if not in_vocab:
        raise CorpusError("no document has an in-vocabulary token")

    company_map = {d.doc_id: d.company_id for d in docs}
    tf = tf_matrix(in_vocab, vocab)
    tfidf = tfidf_matrix(in_vocab, vocab)
    tensor = build_tensor(in_vocab, vocab, company_map)
    bundle = _CorpusBundle(
        tf=tf,
        tfidf=tfidf,
        tensor=tensor,
        vocab=vocab,
        doc_companies=[company_map[t.doc_id] for t in in_vocab],
    )
    logger.info(
        "corpus ready: %d documents, %d companies, %d terms",
        tf.shape[0], tensor.shape[1], len(vocab),
    )

    results = [
        _run_cell(m, k, bundle, config, out_dir) for m in config.methods for k in config.k_values
    ]
    for res in results:
        logger.info(
            "cell (%s, k=%d): %s in %.2fs",
            res["method"], res["k"], res["status"], res["seconds"],
        )

    ok_rows = [r for r in results if r["status"] == "ok"]
    selection = (
        select_best(ok_rows, margin=config.select_margin)
        if ok_rows else {"per_method": {}, "overall": None}
    )
    _write_summaries(out_dir / "summary", results, selection)

    digest = {
        "documents_loaded": n_loaded,
        "documents_after_filters": len(docs),
        "documents_empty_after_preprocessing": empty_ids,
        "documents_without_vocabulary_terms": dropped_oov,
        "documents_in_matrices": tf.shape[0],
        "companies": tensor.shape[1],
        "vocabulary_size": len(vocab),
    }
    manifest = RunManifest(
        config=asdict(config),
        digest=digest,
        cells=results,
        selection=selection,
        notices=notices,
        tool_version=_tool_version(),
    )
    write_json(out_dir / "summary" / "manifest.json", {
        "tool_version": manifest.tool_version,
        "config": manifest.config,
        "digest": manifest.digest,
        "cells": manifest.cells,
        "selection": manifest.selection,
        "notices": manifest.notices,
    })
    return manifest


def _write_summaries(summary_dir: Path, results: list[dict], selection: dict) -> None:
    def _cell_key(r):
        return (r["method"], r["k"])

    rows = sorted((r for r in results if r["status"] == "ok"), key=_cell_key)

    def _opt(value):
        return "" if value is None else sig12(value)

    lines = ["method,k,silhouette_documents,silhouette_companies"]
    for r in rows:
        lines.append(
            f"{r['method']},{r['k']},{_opt(r['silhouette_documents'])},"
            f"{_opt(r['silhouette_companies'])}"
        )
    atomic_write_text(summary_dir / "silhouette_by_k.csv", "\n".join(lines) + "\n")

    lines = ["method,k,keyword_match_mean"]
    for r in rows:
        lines.append(f"{r['method']},{r['k']},{_opt(r['keyword_match_mean'])}")
    atomic_write_text(summary_dir / "keyword_match_by_k.csv", "\n".join(lines) + "\n")

    lines = ["method,k,decisiveness"]
    for method, pick in sorted(selection["per_method"].items()):
        if pick["k"] is None:
            continue
        match = [r for r in rows if r["method"] == method and r["k"] == pick["k"]]
        if match:
            lines.append(f"{method},{pick['k']},{_opt(match[0]['decisiveness'])}")
    atomic_write_text(summary_dir / "decisiveness_by_method.csv", "\n".join(lines) + "\n")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise ConfigError(message)


def _parse_filters(pairs: list[str]) -> dict:
    filters: dict = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--filter expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        filters[key] = value
    return filters


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="topickit",
        description="Sweep LDA / NMF / tensor topic models over a corpus and compare them.",
        argument_default=argparse.SUPPRESS,
    )
    # Every flag but --config and --verbose sets the RunConfig field named by
    # its dest, and only when given; RunConfig parses and checks the value.
    parser.add_argument("--config", default=None,
                        help="JSON config file; flags override its values")
    parser.add_argument("--corpus", dest="corpus_path",
                        help="corpus path (JSONL file or text directory)")
    parser.add_argument("--format", dest="corpus_format", choices=("jsonl", "text-dir"),
                        help="corpus format")
    parser.add_argument("--methods", dest="methods", help="comma list from lda,nmf,ntf")
    parser.add_argument("--k", dest="k_values",
                        help="topic counts: comma list '2,3,4' or range '2:6'")
    parser.add_argument("--seed", dest="seed", type=int, help="random seed")
    parser.add_argument("--min-df", dest="min_df", type=int, help="minimum document frequency")
    parser.add_argument("--out", dest="out_dir", help="output directory")
    parser.add_argument("--filter", dest="filters", action="append", metavar="KEY=VALUE",
                        help="metadata filter: year=A[:B], category=..., report_type=...")
    parser.add_argument("--extra-stopwords", dest="extra_stopwords",
                        help="comma list of additional stop-words")
    parser.add_argument("--margin", dest="select_margin", type=float,
                        help="silhouette margin for best-K candidates")
    parser.add_argument("--keywords", dest="n_keywords", type=int,
                        help="keyword list length (default 30)")
    parser.add_argument("-v", "--verbose", action="store_true", default=False,
                        help="verbose logging")
    return parser


def _load_config(args) -> RunConfig:
    settings: dict = {}
    if args.config:
        cfg_path = Path(args.config)
        if not cfg_path.is_file():
            raise ConfigError(f"config file not found: {cfg_path}")
        try:
            settings = json.loads(cfg_path.read_text("utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(settings, dict):
            raise ConfigError("config file must hold a JSON object")

    flags = {k: v for k, v in vars(args).items() if k not in ("config", "verbose")}
    filters = _parse_filters(flags.pop("filters", []))
    settings.update(flags)
    if "corpus_path" not in settings:
        raise ConfigError("a corpus is required (--corpus or config file)")
    try:
        if filters:
            settings["filters"] = {**settings.get("filters", {}), **filters}
        return RunConfig(**settings)
    except TypeError as exc:
        raise ConfigError(f"bad config: {exc}") from None


def main(argv=None) -> int:
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    try:
        args = _build_parser().parse_args(argv)
        logging.getLogger("topickit").setLevel(
            logging.DEBUG if args.verbose else logging.INFO
        )
        config = _load_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}")
        return 1

    try:
        manifest = run_experiment(config)
    except CorpusError as exc:
        print(f"corpus error: {exc}")
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}")
        return 1

    failures = manifest.failures
    if failures:
        for cell in failures:
            print(f"cell ({cell['method']}, k={cell['k']}) failed: {cell['error']}")
        print(f"{len(failures)} of {len(manifest.cells)} cells failed; partial results kept")
        return 3
    print(f"done: artifacts under {config.out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
