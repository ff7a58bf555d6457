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

from .corpus import LOADERS, CorpusError, RawDocument, StopwordList, load_corpus, preprocess_corpus
from .evaluate import build_report
from .export import write_csv, write_factor_csv, write_json
from .lda import LdaConfig, fit_lda
from .nmf import fit_nmf
from .ntf import fit_ntf
from .vectorize import DocTermMatrix, _tensor, _tfidf, check_k, check_setting, count_terms

__all__ = ["ConfigError", "RunConfig", "RunManifest", "run_experiment", "select_best", "main"]

logger = logging.getLogger(__name__)

# The solver settings a config may override, by method, named as the fit
# functions name them; everything else keeps the solver's own default.
SOLVER_KEYS = {"lda": ("max_iter", "tol"), "nmf": ("max_iter", "tol"), "ntf": ("max_sweeps", "tol")}
KNOWN_METHODS = tuple(SOLVER_KEYS)
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


def _comma_list(name: str, value) -> tuple:
    if isinstance(value, str):
        return tuple(v for v in value.split(",") if v)
    if not isinstance(value, (list, tuple)):  # a dict would pass on its keys, a set unordered
        raise ConfigError(f"{name} must be a list or a comma-separated string, got {value!r}")
    return tuple(value)


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
    if len(years) not in (1, 2) or not all(map(_is_int, years)) or years[0] > years[-1]:
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
        self.methods = _comma_list("methods", self.methods)
        self.extra_stopwords = _comma_list("extra_stopwords", self.extra_stopwords)
        self.k_values = (_parse_k_values(self.k_values) if isinstance(self.k_values, str)
                         else _comma_list("k_values", self.k_values))
        if not self.methods:
            raise ConfigError("at least one method is required")
        unknown = [m for m in self.methods if m not in KNOWN_METHODS]
        if unknown:
            raise ConfigError(f"unknown method(s): {', '.join(map(str, unknown))}")
        if not self.k_values:
            raise ConfigError("at least one K value is required")
        for name in ("corpus_path", "corpus_format", "out_dir"):
            if not isinstance(getattr(self, name), str):
                raise ConfigError(f"{name} must be a string")
        if self.corpus_format not in LOADERS:
            raise ConfigError(f"corpus_format must be one of {', '.join(LOADERS)}, "
                              f"got {self.corpus_format!r}")
        if not isinstance(self.filters, dict):
            raise ConfigError("filters must be an object")
        unknown = [key for key in self.filters if key not in FILTER_KEYS]
        if unknown:
            raise ConfigError(f"unknown filter key(s): {', '.join(unknown)}")
        for key in ("category", "report_type"):  # compared with the documents' strings
            if not isinstance(self.filters.get(key, ""), str):
                raise ConfigError(f"filters.{key} must be a string, got {self.filters[key]!r}")
        if "year" in self.filters:
            self.filters = {**self.filters, "year": _year_range(self.filters["year"])}
        if not all(isinstance(word, str) for word in self.extra_stopwords):
            raise ConfigError(f"extra_stopwords must be a list of strings, "
                              f"got {list(self.extra_stopwords)!r}")

        try:  # the library's own checks and wording, each failure one ConfigError
            for k in self.k_values:
                check_k(k)
            for name, low in (("seed", 0), ("min_df", 1), ("n_keywords", 1)):
                check_setting(name, getattr(self, name), low)
            check_setting("select_margin", self.select_margin, 0, integer=False)
            for method, keys in SOLVER_KEYS.items():
                overrides = getattr(self, method)
                if not isinstance(overrides, dict):
                    raise ConfigError(f"{method} must be an object of solver settings")
                for key, value in overrides.items():
                    if key not in keys:
                        raise ConfigError(f"unknown solver setting {method}.{key}; "
                                          f"{method} takes {', '.join(keys)}")
                    cap = key != "tol"  # an iteration cap is an integer >= 1, tol a number >= 0
                    check_setting(f"{method}.{key}", value, 1 if cap else 0, integer=cap)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        self.k_values = tuple(int(k) for k in self.k_values)
        # A repeat would run and write the same cell twice.
        for name, values in (("methods", self.methods), ("k_values", self.k_values)):
            if len(set(values)) < len(values):
                raise ConfigError(f"{name} repeats a value: {values!r}")


@dataclass
class RunManifest:
    """What ``manifest.json`` holds, in its order."""

    tool_version: str
    config: dict
    digest: dict
    cells: list[dict]
    selection: dict
    notices: list[str]

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
            "alpha": model.alpha,
            "beta": model.beta,
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


def _run_cell(method: str, k: int, bundle: _CorpusBundle, config: RunConfig, out_dir: Path) -> dict:
    """Fit, evaluate and write one (method, K) cell; return its manifest row."""
    started = time.perf_counter()
    cell_dir = out_dir / method / f"k{k}"
    status, error, converged, n_iter = "ok", None, None, None
    scores = dict.fromkeys(
        ("silhouette_documents", "silhouette_companies", "keyword_match_mean", "decisiveness")
    )
    try:
        doc_topic, topic_term, company_factor, meta = _fit_cell(method, k, bundle, config)
        # n_iter counts updates: NMF's trace also holds its starting objective.
        converged, n_iter = meta["converged"], len(meta["trace"]) - (method == "nmf")
        report = build_report(method, k, doc_topic, topic_term, bundle.tf, bundle.vocab,
                              bundle.doc_companies, company_factor=company_factor,
                              company_ids=bundle.tensor.company_ids, n_keywords=config.n_keywords)
        doc_ids = bundle.tf.doc_ids
        write_factor_csv(cell_dir / "doc_topic.csv", "doc_id", doc_ids, doc_topic)
        write_factor_csv(cell_dir / "topic_term.csv", "topic", range(k), topic_term,
                         column_names=list(bundle.vocab.index_to_term))
        if company_factor is not None:
            write_factor_csv(cell_dir / "company_topic.csv", "company_id",
                             bundle.tensor.company_ids, company_factor)
        write_json(cell_dir / "model.json", {"method": method, "k": k, "seed": config.seed, **meta})
        write_json(cell_dir / "report.json", report.to_dict())
        documents, companies = report.silhouette_documents, report.silhouette_companies
        if documents is not None:
            write_csv(cell_dir / "silhouette_samples.csv", ("doc_id", "silhouette"),
                      zip(doc_ids, documents.per_sample))
        write_csv(cell_dir / "keywords.csv", ("topic", "rank", "term"), (
            (t, rank, term)
            for t, terms in enumerate(report.topic_keywords)
            for rank, term in enumerate(terms)
        ))
        scores = {
            "silhouette_documents": None if documents is None else documents.mean,
            "silhouette_companies": None if companies is None else companies.mean,
            "keyword_match_mean": report.keyword_match_mean,
            "decisiveness": report.decisiveness,
        }
    except Exception as exc:  # crash containment: one cell never kills the sweep
        logger.exception("cell (%s, k=%d) failed", method, k)
        status, error = "failed", f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - started
    logger.info("cell (%s, k=%d): %s in %.2fs", method, k, status, seconds)
    return {"method": method, "k": k, "status": status, "error": error,
            "converged": converged, "n_iter": n_iter, **scores, "seconds": seconds}


def _or_lowest(value) -> float:
    return -np.inf if value is None else value


def select_best(summaries: list[dict], margin: float = 0.02) -> dict:
    """Pick the best K per method, then the best (method, K) overall.

    Per method: candidate Ks are those whose mean document silhouette is
    within ``margin`` of the method's maximum; among candidates the
    highest mean keyword-match ratio wins, ties to the smaller K.  A
    method with a single K takes it.  The overall winner compares the
    per-method picks lexicographically on (silhouette, keyword ratio).
    """
    if not summaries:
        raise ValueError("no summaries to select from")
    per_method: dict[str, dict] = {}
    for method in dict.fromkeys(r["method"] for r in summaries):
        rows = [r for r in summaries if r["method"] == method]
        scored = [r for r in rows if r["silhouette_documents"] is not None]
        best, notices = {}, []
        if len(rows) == 1:
            best, notices = rows[0], ["no sweep: single K value"]
        elif scored:
            max_sil = max(r["silhouette_documents"] for r in scored)
            candidates = [r for r in scored if r["silhouette_documents"] >= max_sil - margin]
            best = min(candidates, key=lambda r: (-_or_lowest(r["keyword_match_mean"]), r["k"]))
        else:
            notices = ["no silhouette values available"]
        per_method[method] = {
            "k": best.get("k"),
            "silhouette": best.get("silhouette_documents"),
            "keyword_match": best.get("keyword_match_mean"),
            "notices": notices,
        }

    winner = min(
        (m for m, pick in per_method.items() if pick["k"] is not None),
        key=lambda m: (-_or_lowest(per_method[m]["silhouette"]),
                       -_or_lowest(per_method[m]["keyword_match"]), m),
        default=None,
    )
    overall = None if winner is None else {"method": winner, "k": per_method[winner]["k"]}
    return {"per_method": per_method, "overall": overall}


def _stale_cells(out_dir: Path, ok_rows: list[dict]) -> list[str]:
    """Cell directories under ``out_dir`` that this run did not write, as relative paths."""
    written = {f"{r['method']}/k{r['k']}" for r in ok_rows}
    found = (p.relative_to(out_dir).as_posix()
             for m in KNOWN_METHODS for p in (out_dir / m).glob("k*") if p.is_dir())
    return sorted(set(found) - written)


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

    try:  # counted once; TF-IDF and the tensor derive from it
        vocab, tf = count_terms([t for t in tokenized if not t.is_empty], min_df=config.min_df)
    except ValueError as exc:
        raise CorpusError(str(exc)) from exc
    del tokenized  # not needed past the count: the fits can reuse its memory
    has_term = np.diff(tf.values.indptr) > 0  # min_df can leave a document no term
    dropped_oov = [doc_id for doc_id, ok in zip(tf.doc_ids, has_term) if not ok]
    if dropped_oov:
        notices.append(
            f"{len(dropped_oov)} document(s) have no in-vocabulary token: {', '.join(dropped_oov)}"
        )
        kept_ids = tuple(doc_id for doc_id, ok in zip(tf.doc_ids, has_term) if ok)
        tf = DocTermMatrix(tf.values[has_term], "tf", kept_ids)

    company_map = {d.doc_id: d.company_id for d in docs}
    tfidf = _tfidf(tf, vocab)
    tensor = _tensor(tf, company_map)
    bundle = _CorpusBundle(
        tf=tf,
        tfidf=tfidf,
        tensor=tensor,
        vocab=vocab,
        doc_companies=[company_map[doc_id] for doc_id in tf.doc_ids],
    )
    logger.info(
        "corpus ready: %d documents, %d companies, %d terms",
        tf.shape[0], tensor.shape[1], len(vocab),
    )

    results = [
        _run_cell(m, k, bundle, config, out_dir) for m in config.methods for k in config.k_values
    ]
    unconverged = [f"{r['method']}/k{r['k']}" for r in results if r["converged"] is False]
    if unconverged:
        notices.append(f"{len(unconverged)} cell(s) did not converge: {', '.join(unconverged)}")
        logger.warning(notices[-1])
    ok_rows = [r for r in results if r["status"] == "ok"]
    stale = _stale_cells(out_dir, ok_rows)
    if stale:
        notices.append(
            f"{len(stale)} cell(s) in the output directory not written by this run "
            f"(left as they are): {', '.join(stale)}"
        )
        logger.warning(notices[-1])

    selection = (
        select_best(ok_rows, margin=config.select_margin)
        if ok_rows else {"per_method": {}, "overall": None}
    )
    _write_summaries(out_dir / "summary", ok_rows, selection)

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
        tool_version=_tool_version(),
        config=asdict(config),
        digest=digest,
        cells=results,
        selection=selection,
        notices=notices,
    )
    write_json(out_dir / "summary" / "manifest.json", asdict(manifest))
    return manifest


def _write_summaries(summary_dir: Path, ok_rows: list[dict], selection: dict) -> None:
    rows = sorted(ok_rows, key=lambda r: (r["method"], r["k"]))
    write_csv(summary_dir / "silhouette_by_k.csv",
              ("method", "k", "silhouette_documents", "silhouette_companies"),
              ((r["method"], r["k"], r["silhouette_documents"], r["silhouette_companies"])
               for r in rows))
    write_csv(summary_dir / "keyword_match_by_k.csv", ("method", "k", "keyword_match_mean"),
              ((r["method"], r["k"], r["keyword_match_mean"]) for r in rows))
    picks = {(method, pick["k"]) for method, pick in selection["per_method"].items()}
    write_csv(summary_dir / "decisiveness_by_method.csv", ("method", "k", "decisiveness"),
              ((r["method"], r["k"], r["decisiveness"]) for r in rows
               if (r["method"], r["k"]) in picks))


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
    # Every flag but --config sets the RunConfig field named by its dest, and
    # only when given; RunConfig parses and checks the value.
    parser.add_argument("--config", default=None,
                        help="JSON config file; flags override its values")
    parser.add_argument("--corpus", dest="corpus_path",
                        help="corpus path (JSONL file or text directory)")
    parser.add_argument("--format", dest="corpus_format", choices=tuple(LOADERS),
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

    flags = {k: v for k, v in vars(args).items() if k != "config"}
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
    logging.getLogger("topickit").setLevel(logging.INFO)
    try:
        config = _load_config(_build_parser().parse_args(argv))
    except ConfigError as exc:
        print(f"config error: {exc}")
        return 1

    try:
        manifest = run_experiment(config)
    except CorpusError as exc:
        print(f"corpus error: {exc}")
        return 2

    failures = manifest.failures
    for cell in failures:
        print(f"cell ({cell['method']}, k={cell['k']}) failed: {cell['error']}")
    outcome = (f"{len(failures)} of {len(manifest.cells)} cells failed; partial results kept"
               if failures else f"done: artifacts under {config.out_dir}")
    unconverged = sum(c["converged"] is False for c in manifest.cells)
    print(f"{outcome}; {unconverged} cell(s) did not converge")
    return 3 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
