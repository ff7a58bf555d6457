"""The traced run: the sweep through the public library path, one span per call.

    python3 perfbench/traced.py CONFIG.json RESULT.json

Calls, in pipeline order and with the settings ``run_experiment`` uses,
load -> preprocess -> vocabulary -> TF, TF-IDF, tensor -> per cell: fit,
``build_report``, export.  Each call sits in a span.  Spans named
``probe.*`` time extra calls made only here (``silhouette`` on the fitted
``doc_topic``, ``nmf_objective`` at the fitted factors, and the three
preprocessing stages one at a time); they run outside the pipeline spans
and are left out of the pipeline total.  Spans and counts are written to
RESULT.json when the run ends.
"""

import json
import sys
from pathlib import Path

from spans import Tracer

from topickit import (
    LdaConfig,
    StopwordList,
    argmax_assign,
    build_report,
    build_tensor,
    build_vocabulary,
    fit_lda,
    fit_nmf,
    fit_ntf,
    load_corpus,
    nmf_objective,
    nndsvd_init,
    preprocess_corpus,
    remove_stopwords,
    silhouette,
    stem,
    tf_matrix,
    tfidf_matrix,
    tokenize,
)
from topickit.export import write_factor_csv, write_json

def _fit(tracer: Tracer, method: str, k: int, data: dict, config: dict) -> dict:
    """Fit one cell with the solver settings ``run_experiment`` would use."""
    solver = config.get(method, {})
    seed = config["seed"]
    if method == "lda":
        with tracer.span("lda.fit"):
            model = fit_lda(data["tf"], LdaConfig(
                k=k, max_iter=int(solver.get("max_iter", 200)),
                tol=float(solver.get("tol", 1e-6)), seed=seed,
            ))
        return {"doc_topic": model.doc_topic, "topic_term": model.topic_term,
                "company": None, "trace": model.elbo_trace, "iters": len(model.elbo_trace),
                "converged": model.converged}
    if method == "nmf":
        with tracer.span("nmf.init"):
            init = nndsvd_init(data["tfidf"], k)
        with tracer.span("nmf.fit"):
            model = fit_nmf(
                data["tfidf"], k, max_iter=int(solver.get("max_iter", 300)),
                tol=float(solver.get("tol", 1e-6)), seed=seed, init=init,
            )
        return {"doc_topic": model.doc_topic, "topic_term": model.topic_term,
                "company": None, "trace": model.objective_trace,
                # the trace starts at the initial point
                "iters": len(model.objective_trace) - 1, "converged": model.converged}
    with tracer.span("ntf.fit"):
        model = fit_ntf(
            data["tensor"], k, max_sweeps=int(solver.get("max_sweeps", 200)),
            tol=float(solver.get("tol", 1e-6)), seed=seed,
        )
    return {"doc_topic": model.doc_factor, "topic_term": model.term_factor.T,
            "company": model.company_factor, "trace": model.error_trace,
            "iters": len(model.error_trace), "converged": model.converged,
            "rescues": len(model.rescues)}


def run(config: dict) -> dict:
    tracer = Tracer()
    out = Path(config["out_dir"])

    with tracer.span("corpus.load"):
        docs = load_corpus(config["corpus_path"])
    stops = StopwordList()
    with tracer.span("corpus.preprocess"):
        tokenized, _ = preprocess_corpus(docs, stops)
    non_empty = [t for t in tokenized if not t.is_empty]
    with tracer.span("vectorize.vocab"):
        vocab = build_vocabulary(non_empty, min_df=config["min_df"])
    in_vocab = [t for t in non_empty if any(tok in vocab for tok in t.tokens)]
    company_map = {d.doc_id: d.company_id for d in docs}
    data = {}
    with tracer.span("vectorize.tf"):
        data["tf"] = tf_matrix(in_vocab, vocab)
    with tracer.span("vectorize.tfidf"):
        data["tfidf"] = tfidf_matrix(in_vocab, vocab)
    with tracer.span("vectorize.tensor"):
        data["tensor"] = tensor = build_tensor(in_vocab, vocab, company_map)
    tf = data["tf"]
    doc_companies = [company_map[t.doc_id] for t in in_vocab]

    cells = []
    for method in config["methods"]:
        for k in config["k_values"]:
            with tracer.span("cell", method=method, k=k):
                fit = _fit(tracer, method, k, data, config)
                with tracer.span("evaluate.report"):
                    report = build_report(
                        method, k, fit["doc_topic"], fit["topic_term"], tf, vocab,
                        doc_companies, company_factor=fit["company"],
                        company_ids=tensor.company_ids if fit["company"] is not None else None,
                    )
                cell_dir = out / method / f"k{k}"
                with tracer.span("export.write"):
                    write_factor_csv(cell_dir / "doc_topic.csv", "doc_id", tf.doc_ids,
                                     fit["doc_topic"])
                    write_factor_csv(cell_dir / "topic_term.csv", "topic", range(k),
                                     fit["topic_term"], column_names=list(vocab.index_to_term))
                    if fit["company"] is not None:
                        write_factor_csv(cell_dir / "company_topic.csv", "company_id",
                                         tensor.company_ids, fit["company"])
                    write_json(cell_dir / "model.json", {
                        "method": method, "k": k, "seed": config["seed"],
                        "converged": fit["converged"], "trace": list(fit["trace"]),
                    })
                    write_json(cell_dir / "report.json", report.to_dict())
            if method == "nmf":
                with tracer.span("probe.nmf_objective"):
                    nmf_objective(data["tfidf"], fit["doc_topic"], fit["topic_term"])
            with tracer.span("probe.silhouette"):
                silhouette(fit["doc_topic"], argmax_assign(fit["doc_topic"], tf.doc_ids))
            sil = report.silhouette_documents
            comp = report.silhouette_companies
            cells.append({
                "method": method, "k": k,
                "iters": fit["iters"],
                "converged": fit["converged"],
                "rescues": fit.get("rescues", 0),
                "silhouette_documents": None if sil is None else sil.mean,
                "silhouette_companies": None if comp is None else comp.mean,
            })

    with tracer.span("probe.tokenize"):
        streams = [tokenize(d.text) for d in docs]
    with tracer.span("probe.stopwords"):
        streams = [remove_stopwords(s, stops) for s in streams]
    with tracer.span("probe.stem"):
        for s in streams:
            for token in s:
                stem(token)
    tokens = sum(len(s) for s in streams)
    distinct = len({t for s in streams for t in s})

    return {
        "spans": tracer.spans,
        "cells": cells,
        "counts": {
            "docs": tf.shape[0],
            "companies": tensor.shape[1],
            "terms": len(vocab),
            "nnz": int(tf.values.nnz),
            "tokens": tokens,
            "distinct_tokens": distinct,
            "export_bytes": sum(p.stat().st_size for p in out.rglob("*") if p.is_file()),
        },
    }


def main(argv: list[str]) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        config = json.load(fh)
    result = run(config)
    with open(argv[1], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
