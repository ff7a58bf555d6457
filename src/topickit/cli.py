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
from dataclasses import MISSING, asdict, dataclass, field, fields
from importlib import import_module
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import STRICT_JSON, CorpusError, StopwordList, has_lone_surrogate
from .evaluate import build_report
from .export import write_csv, write_factor_csv, write_json
from .nmf import fit_nmf
from .ntf import fit_ntf
from .vectorize import PreparedCorpus, check_k, check_setting, prepare_corpus

__all__ = ["ConfigError", "RunConfig", "RunManifest", "run_experiment", "select_best", "main"]

logger = logging.getLogger("topickit.cli")  # not __name__, which is __main__ under -m

# The solver settings a config may override, by method, named as the fit
# functions name them; everything else keeps the solver's own default.
SOLVER_KEYS = {"lda": ("max_iter", "tol"), "nmf": ("max_iter", "tol"), "ntf": ("max_sweeps", "tol")}
KNOWN_METHODS = tuple(SOLVER_KEYS)
FILTER_KEYS = ("year", "category", "report_type")


class ConfigError(Exception):
    """Invalid run configuration or command line."""


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
            return tuple(range(int(lo), int(hi) + 1))
        return tuple(int(v) for v in text.split(",") if v)
    except ValueError:
        raise ConfigError(f"cannot parse k_values from {text!r}") from None


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


def _filter_pair(text: str) -> list[str]:
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"expects KEY=VALUE, got {text!r}")
    return text.split("=", 1)


def _setting(default=MISSING, flag=None, help=None, low=None, **argparse_kw):
    """A RunConfig field declaring its flag, help and other argparse keywords and, for a
    number, the floor that ``check_setting`` holds it to; its kind is the flag's type."""
    metadata = {"flag": flag, "low": low, "argparse": {"help": help, **argparse_kw}}
    if isinstance(default, dict):
        return field(default_factory=dict, metadata=metadata)
    return field(default=default, metadata=metadata)


@dataclass
class RunConfig:
    """One sweep's settings, each declared once by its field, checked and normalised on
    construction.  ``methods``, ``k_values`` and ``extra_stopwords`` also take the
    command line's string forms ("lda,nmf", "2:6" or "2,3,4", "coal,drill").
    """

    corpus_path: str = _setting(flag="--corpus", help="a JSONL file, or a text directory")
    methods: tuple[str, ...] = _setting(KNOWN_METHODS, "--methods", "comma list from lda,nmf,ntf")
    k_values: tuple[int, ...] = _setting((2, 3, 4, 5, 6), "--k",
                                         "topic counts: comma list '2,3,4' or range '2:6'")
    seed: int = _setting(0, "--seed", "random seed", low=0, type=int)
    min_df: int = _setting(1, "--min-df", "minimum document frequency", low=1, type=int)
    out_dir: str = _setting("out", "--out", "output directory")
    filters: dict = _setting({}, "--filter", "metadata filter: year=A[:B], category=..., "
                             "report_type=...", type=_filter_pair, action="append",
                             metavar="KEY=VALUE")
    extra_stopwords: tuple[str, ...] = _setting((), "--extra-stopwords",
                                                "comma list of additional stop-words")
    select_margin: float = _setting(0.02, "--margin", "silhouette margin for best-K candidates",
                                    low=0, type=float)
    n_keywords: int = _setting(30, "--keywords", "keyword list length (default 30)", low=1,
                               type=int)
    lda: dict = _setting({})  # solver overrides, keys in SOLVER_KEYS
    nmf: dict = _setting({})
    ntf: dict = _setting({})

    def __post_init__(self):
        self.methods = _comma_list("methods", self.methods)
        self.extra_stopwords = _comma_list("extra_stopwords", self.extra_stopwords)
        self.k_values = (_parse_k_values(self.k_values) if isinstance(self.k_values, str)
                         else _comma_list("k_values", self.k_values))
        unknown = [m for m in self.methods if m not in KNOWN_METHODS]
        if unknown:
            raise ConfigError(f"unknown method(s): {', '.join(map(str, unknown))}")
        # Each method's solver loads here, before the corpus is read, and only for a run that
        # fits it: a run without LDA never imports scipy.special.
        for method in self.methods:
            import_module(f".{method}", __package__)
        try:  # the library's own checks and wording, each failure one ConfigError
            for f in fields(self):
                value, low = getattr(self, f.name), f.metadata["low"]
                if f.type == "str" and not isinstance(value, str):
                    raise ConfigError(f"{f.name} must be a string")
                if low is not None:
                    check_setting(f.name, value, low, f.metadata["argparse"]["type"] is int)
            for k in self.k_values:
                check_k(k)
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
        self.k_values = tuple(int(k) for k in self.k_values)
        for name, values in (("methods", self.methods), ("k_values", self.k_values)):
            if not values:
                raise ConfigError(f"{name} must hold at least one value")
            if len(set(values)) < len(values):  # a repeat would run and write a cell twice
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


def _passes(doc, filters: dict) -> bool:
    """Whether ``doc`` meets every metadata filter."""
    lo, hi = filters.get("year", (None, None))
    return ((lo is None or doc.year is not None and lo <= doc.year <= hi)
            and filters.get("category", doc.category) == doc.category
            and filters.get("report_type", doc.report_type) == doc.report_type)


def _fit_cell(method: str, k: int, bundle: PreparedCorpus, config: RunConfig):
    """Fit one model and return (doc_topic, topic_term, company block, updates, meta)."""
    if method == "lda":
        from .lda import LdaConfig, fit_lda  # loaded by RunConfig

        model = fit_lda(bundle.tf, LdaConfig(k=k, seed=config.seed, **config.lda))
        return model.doc_topic, model.topic_term, None, len(model.elbo_trace), {
            "converged": model.converged, "trace": model.elbo_trace, "trace_name": "elbo",
            "inner_updates": model.inner_updates, "alpha": model.alpha, "beta": model.beta}
    if method == "nmf":
        model = fit_nmf(bundle.tfidf, k, **config.nmf)
        # The trace starts with the objective at the initial factors.
        return model.doc_topic, model.topic_term, None, len(model.objective_trace) - 1, {
            "converged": model.converged, "trace": model.objective_trace, "trace_name": "objective"}
    model = fit_ntf(bundle.tensor, k, seed=config.seed, **config.ntf)
    return model.doc_factor, model.term_factor.T, model.company_factor, len(model.error_trace), {
        "converged": model.converged, "trace": model.error_trace,
        "trace_name": "reconstruction_error", "rescues": model.rescues}


def _run_cell(method: str, k: int, bundle: PreparedCorpus, config: RunConfig,
              out_dir: Path) -> dict:
    """Fit, evaluate and write one (method, K) cell; return its manifest row."""
    started = time.perf_counter()
    cell_dir = out_dir / method / f"k{k}"
    status, error, failure, converged, n_iter, notices = "ok", None, None, None, None, []
    scores = dict.fromkeys(
        ("silhouette_documents", "silhouette_companies", "keyword_match_mean", "decisiveness")
    )
    try:
        doc_topic, topic_term, company_factor, n_iter, meta = _fit_cell(method, k, bundle, config)
        converged = meta["converged"]
        report = build_report(method, k, doc_topic, topic_term, bundle.tf, bundle.vocab,
                              bundle.doc_companies, company_factor=company_factor,
                              company_ids=bundle.tensor.company_ids, n_keywords=config.n_keywords)
        notices = report.notices
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
        status, error, failure = "failed", f"{type(exc).__name__}: {exc}", exc
    seconds = time.perf_counter() - started
    logger.log(logging.ERROR if error else logging.INFO, "cell (%s, k=%d): %s in %.2fs%s",
               method, k, status, seconds, f": {error}" if error else "; ".join(["", *notices]),
               exc_info=failure)  # one line a cell: the error and traceback, or the notices
    return {"method": method, "k": k, "status": status, "error": error,
            "converged": converged, "n_iter": n_iter, **scores, "seconds": seconds}


def _or_lowest(value) -> float:
    return -np.inf if value is None else value


def select_best(summaries: list[dict], margin: float = 0.02) -> dict:
    """Pick the best K per method, then the best (method, K) overall.

    Per method: candidate Ks are those whose mean document silhouette is
    within ``margin`` of the method's maximum; among candidates the
    highest mean keyword-match ratio wins, ties to the smaller K.  Each
    pick records its method's candidate Ks, ascending.  A method with a
    single K takes it.  The overall winner compares the per-method picks
    lexicographically on (silhouette, keyword ratio).
    """
    check_setting("margin", margin, 0, integer=False)
    if not summaries:
        raise ValueError("no summaries to select from")
    per_method: dict[str, dict] = {}
    for method in dict.fromkeys(r["method"] for r in summaries):
        rows = [r for r in summaries if r["method"] == method]
        scored = [r for r in rows if r["silhouette_documents"] is not None]
        best, notices, candidates = {}, [], []
        if scored:
            max_sil = max(r["silhouette_documents"] for r in scored)
            candidates = [r for r in scored if r["silhouette_documents"] >= max_sil - margin]
        if len(rows) == 1:
            best, notices = rows[0], ["no sweep: single K value"]
        elif candidates:
            best = min(candidates, key=lambda r: (-_or_lowest(r["keyword_match_mean"]), r["k"]))
        else:
            notices = ["no silhouette values available"]
        per_method[method] = {
            "k": best.get("k"),
            "candidates": sorted(r["k"] for r in candidates),
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
    # A cell's directory is made before the fits, so only one that holds something counts.
    found = (p.parent.relative_to(out_dir).as_posix()
             for m in KNOWN_METHODS for p in (out_dir / m).glob("k*/*"))
    return sorted(set(found) - written)


def run_experiment(config: RunConfig) -> RunManifest:
    """Run the full sweep and write all artifacts under ``config.out_dir``, logging each notice
    once.  The summary and cell directories are made, and an earlier manifest removed, before
    the first fit: ConfigError if that fails."""
    out_dir = Path(config.out_dir)
    bundle = prepare_corpus(config.corpus_path, StopwordList.with_extra(config.extra_stopwords),
                            config.min_df, keep=lambda doc: _passes(doc, config.filters))
    logger.info("corpus ready: %d documents, %d companies, %d terms", *bundle.tensor.shape)
    notices = list(bundle.notices)
    for notice in notices:
        logger.warning(notice)
    summary_dir = out_dir / "summary"
    try:  # not earlier, so that a bad corpus leaves nothing behind
        out_dir.mkdir(parents=True, exist_ok=True)  # first, so that an error names it
        summary_dir.mkdir(exist_ok=True)
        for m in config.methods:  # so that a file in a cell's way stops the run before any fit
            for k in config.k_values:
                (out_dir / m / f"k{k}").mkdir(parents=True, exist_ok=True)
        # The manifest is written last: a directory without one holds an unfinished run.
        (summary_dir / "manifest.json").unlink(missing_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise ConfigError(f"out_dir cannot be made: {exc}") from None
    results = [_run_cell(m, k, bundle, config, out_dir)
               for m in config.methods for k in config.k_values]
    unconverged = [f"{r['method']}/k{r['k']}" for r in results if r["converged"] is False]
    ok_rows = [r for r in results if r["status"] == "ok"]
    stale = _stale_cells(out_dir, ok_rows)
    for cells, what in ((unconverged, "did not converge"),
                        (stale, "in the output directory not written by this run "
                                "(left as they are)")):
        if cells:
            notices.append(f"{len(cells)} cell(s) {what}: {', '.join(cells)}")
            logger.warning(notices[-1])

    selection = (select_best(ok_rows, margin=config.select_margin) if ok_rows
                 else {"per_method": {}, "overall": None})
    _write_summaries(summary_dir, ok_rows, selection)

    manifest = RunManifest(tool_version=__version__, config=asdict(config), digest=bundle.digest,
                           cells=results, selection=selection, notices=notices)
    write_json(summary_dir / "manifest.json", asdict(manifest))
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


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="topickit",
        description="Sweep LDA / NMF / tensor topic models over a corpus and compare them.",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--config", default=None,
                        help="JSON config file; flags override its values")
    # Every other flag sets the RunConfig field that declares it, and only when
    # given; RunConfig parses and checks the value.
    for f in fields(RunConfig):
        if f.metadata["flag"]:
            parser.add_argument(f.metadata["flag"], dest=f.name, **f.metadata["argparse"])
    return parser


def _load_config(args) -> RunConfig:
    flags = vars(args)
    settings: dict = {}
    if config_file := flags.pop("config"):
        if has_lone_surrogate(config_file):  # it would raise when printed
            raise ConfigError("config holds a lone surrogate")
        cfg_path = Path(config_file)
        if not cfg_path.is_file():
            raise ConfigError(f"config file not found: {cfg_path}")
        try:
            settings = STRICT_JSON.decode(cfg_path.read_text("utf-8"))
        except (ValueError, RecursionError) as exc:  # also huge integers, deep nesting
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(settings, dict):
            raise ConfigError("config file must hold a JSON object")

    filters = dict(flags.pop("filters", []))
    settings.update(flags)
    if filters and isinstance(settings.setdefault("filters", {}), dict):  # else RunConfig says so
        settings["filters"].update(filters)
    for key, value in settings.items():  # one would raise when printed or written
        if has_lone_surrogate(json.dumps([key, value], ensure_ascii=False)):
            raise ConfigError(f"{ascii(key)[1:-1]} holds a lone surrogate")
    unknown = [key for key in settings if key not in {f.name for f in fields(RunConfig)}]
    if unknown:
        raise ConfigError(f"unknown setting(s): {', '.join(unknown)}")
    if "corpus_path" not in settings:
        raise ConfigError("a corpus is required (--corpus or config file)")
    return RunConfig(**settings)


def main(argv=None) -> int:
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logger.setLevel(logging.INFO)
    try:
        manifest = run_experiment(_load_config(_build_parser().parse_args(argv)))
    except ConfigError as exc:  # also an out_dir that cannot be made, found before any fit
        print(f"config error: {exc}")
        return 1
    except CorpusError as exc:
        print(f"corpus error: {exc}")
        return 2

    failures = manifest.failures
    for cell in failures:
        print(f"cell ({cell['method']}, k={cell['k']}) failed: {cell['error']}")
    outcome = (f"{len(failures)} of {len(manifest.cells)} cells failed; partial results kept"
               if failures else f"done: artifacts under {manifest.config['out_dir']}")
    unconverged = sum(c["converged"] is False for c in manifest.cells)
    print(f"{outcome}; {unconverged} cell(s) did not converge")
    return 3 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
