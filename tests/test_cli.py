import ast
import csv
import json
import logging
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import topickit
from topickit import cli, vectorize
from topickit import corpus as corpus_module
from topickit.cli import ConfigError, RunConfig, main, run_experiment, select_best
from topickit.corpus import StopwordList, load_corpus, preprocess_corpus
from topickit.lda import LdaConfig
from topickit.nmf import fit_nmf
from topickit.ntf import fit_ntf

from planted import write_planted_corpus


def write_mini_corpus(path, n_per_topic=12):
    """Two crisp word families over three companies; enough for K=2 fits."""
    rng = np.random.default_rng(42)
    families = (
        ["coal", "seam", "drill", "bore", "pit", "shaft", "lignite", "overburden"],
        ["gold", "vein", "assay", "nugget", "lode", "placer", "sluice", "ingot"],
    )
    with open(path, "w", encoding="utf-8") as fh:
        doc_no = 0
        for family_idx, words in enumerate(families):
            for _ in range(n_per_topic):
                text = " ".join(rng.choice(words, size=60))
                record = {
                    "doc_id": f"doc{doc_no:03d}",
                    "company_id": f"c{doc_no % 3}",
                    "text": text,
                    "year": 2000 + doc_no,
                    "report_type": "annual" if doc_no % 2 == 0 else "final",
                    "category": "coal" if family_idx == 0 else "gold",
                }
                fh.write(json.dumps(record) + "\n")
                doc_no += 1
    return path


def read_csv_rows(path):
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def write_config(tmp_path, name="run.json", **settings):
    path = tmp_path / name
    path.write_text(json.dumps(settings))
    return path


def csr_bytes(mat):
    return tuple(getattr(mat, name).tobytes() for name in ("data", "indices", "indptr"))


class TestCountOnce:
    """One sweep counts TF once; TF-IDF and the tensor are derived from it."""

    def run_capturing_bundle(self, tmp_path, monkeypatch):
        corpus = write_mini_corpus(tmp_path / "corpus.jsonl")
        with open(corpus, "a", encoding="utf-8") as fh:  # one empty, one all-OOV document
            fh.write(json.dumps({"doc_id": "stops", "company_id": "c9", "text": "the of and"}) + "\n")
            fh.write(json.dumps({"doc_id": "rare", "company_id": "c9", "text": "zircon"}) + "\n")
        config = RunConfig(corpus_path=str(corpus), methods=("lda", "nmf", "ntf"),
                           k_values=(2, 3), seed=0, min_df=2, extra_stopwords=("Pit",),
                           out_dir=str(tmp_path / "out"))
        calls, seen = [], {}
        real_count, real_codes, real_run_cell = vectorize.count_terms, vectorize._count, cli._run_cell

        def counting(*args, **kwargs):
            calls.append(("count_terms", args))
            return real_count(*args, **kwargs)

        def counting_codes(*args, **kwargs):  # every pass through the shared counter
            calls.append(("counter", args))
            return real_codes(*args, **kwargs)

        def capturing_run_cell(method, k, bundle, *args):
            seen.setdefault("bundle", bundle)
            seen.setdefault("tf_before", csr_bytes(bundle.tf.values))
            return real_run_cell(method, k, bundle, *args)

        monkeypatch.setattr(vectorize, "count_terms", counting)
        monkeypatch.setattr(vectorize, "_count", counting_codes)
        monkeypatch.setattr(cli, "_run_cell", capturing_run_cell)
        manifest = run_experiment(config)
        assert [c["status"] for c in manifest.cells] == ["ok"] * 6
        return config, calls, seen

    def test_tf_counted_once_per_run(self, tmp_path, monkeypatch):
        _, calls, _ = self.run_capturing_bundle(tmp_path, monkeypatch)
        assert [name for name, _ in calls] == ["counter"]

    def test_document_wrappers_equal_the_bundle(self, tmp_path, monkeypatch):
        config, _, seen = self.run_capturing_bundle(tmp_path, monkeypatch)
        bundle = seen["bundle"]
        raw = load_corpus(config.corpus_path)
        tokenized, _ = preprocess_corpus(raw, StopwordList.with_extra(config.extra_stopwords))
        by_id = {t.doc_id: t for t in tokenized}
        docs = [by_id[doc_id] for doc_id in bundle.tf.doc_ids]
        assert "stops" not in bundle.tf.doc_ids and "rare" not in bundle.tf.doc_ids
        company_map = {d.doc_id: d.company_id for d in raw}
        assert csr_bytes(vectorize.tfidf_matrix(docs, bundle.vocab).values) \
            == csr_bytes(bundle.tfidf.values)
        tensor = vectorize.build_tensor(docs, bundle.vocab, company_map)
        assert csr_bytes(tensor.pairs) == csr_bytes(bundle.tensor.pairs)
        assert tensor.pair_company.tobytes() == bundle.tensor.pair_company.tobytes()
        assert tensor.company_ids == bundle.tensor.company_ids

    def test_fits_and_reports_leave_shared_tf_unchanged(self, tmp_path, monkeypatch):
        _, _, seen = self.run_capturing_bundle(tmp_path, monkeypatch)
        bundle = seen["bundle"]
        assert bundle.tensor.pairs is bundle.tf.values
        assert csr_bytes(bundle.tf.values) == seen["tf_before"]


class TestCorpusPhase:
    """The sweep's vocabulary, TF, TF-IDF and tensor against the public route, bit for bit."""

    WORDS = ["coal", "seam", "drill", "gold", "vein", "assay", "Zürich", "ÉTUDE", "naïve",
             "straße", "Öl", "BORE"]

    def write_corpus(self, rng, path):
        texts = ["coal seam Zürich", "coal Zürich Öl"]  # terms that reach min_df=2
        for i in range(int(rng.integers(6, 18))):
            kind = rng.integers(4)
            if kind == 0:
                texts.append("the of and 2024")  # empty after preprocessing
            elif kind == 1:
                texts.append(f"zircon{chr(97 + i)} Ærø{chr(97 + i)}")  # terms under min_df
            else:  # repeated tokens
                words = rng.choice(self.WORDS, int(rng.integers(1, 6)))
                texts.append(" ".join(np.repeat(words, rng.integers(1, 4, len(words)))))
        order = rng.permutation(len(texts))
        with open(path, "w", encoding="utf-8") as fh:
            for i in order:
                fh.write(json.dumps({"doc_id": f"d{i:02d}", "company_id": f"c{i % 3}",
                                     "text": texts[i]}, ensure_ascii=False) + "\n")

    def test_bundle_equals_the_public_route(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(2023)
        seen = {}

        def capture(method, k, bundle, *args):
            seen["bundle"] = bundle
            return {"method": method, "k": k, "status": "failed", "converged": None}

        monkeypatch.setattr(cli, "_run_cell", capture)
        for trial in range(12):
            path = tmp_path / f"c{trial}.jsonl"
            self.write_corpus(rng, path)
            run_experiment(RunConfig(corpus_path=str(path), methods=("nmf",), k_values=(2,),
                                     min_df=2, out_dir=str(tmp_path / f"out{trial}")))
            bundle = seen.pop("bundle")
            raw = load_corpus(path)
            tokenized, empty = preprocess_corpus(raw)
            vocab, tf = vectorize.count_terms([t for t in tokenized if not t.is_empty], 2)
            docs = [t for t in tokenized if any(token in vocab for token in t.tokens)]
            assert empty and len(docs) < len(tokenized) - len(empty)
            assert bundle.vocab.index_to_term == vocab.index_to_term
            assert bundle.vocab.doc_freq.tobytes() == vocab.doc_freq.tobytes()
            assert bundle.tf.doc_ids == bundle.tfidf.doc_ids == tuple(d.doc_id for d in docs)
            for want in (vectorize.count_terms(docs, 2)[1], vectorize.tf_matrix(docs, vocab)):
                assert csr_bytes(bundle.tf.values) == csr_bytes(want.values)
            want = vectorize.tfidf_matrix(docs, vocab)
            assert csr_bytes(bundle.tfidf.values) == csr_bytes(want.values)
            tensor = vectorize.build_tensor(docs, vocab, {d.doc_id: d.company_id for d in raw})
            assert csr_bytes(bundle.tensor.pairs) == csr_bytes(tensor.pairs)
            for name in ("pair_doc", "pair_company"):
                assert getattr(bundle.tensor, name).tobytes() == getattr(tensor, name).tobytes()
            assert bundle.tensor.company_ids == tensor.company_ids
            for name in ("indices", "indptr"):
                assert np.shares_memory(getattr(bundle.tfidf.values, name),
                                        getattr(bundle.tf.values, name))


class TestStreamedCorpus:
    """A sweep reads, filters and preprocesses one record at a time."""

    def corpus(self, tmp_path, layout):
        """12 documents, years 2000-2011: JSONL, or one <doc_id>.txt each plus manifest.csv."""
        corpus = write_mini_corpus(tmp_path / "corpus.jsonl", n_per_topic=6)
        if layout == "jsonl":
            return corpus
        root = tmp_path / "corpus"
        root.mkdir()
        rows = ["doc_id,company_id,year,report_type,category"]
        for line in corpus.read_text("utf-8").splitlines():
            r = json.loads(line)
            (root / f"{r['doc_id']}.txt").write_text(r["text"], "utf-8")
            rows.append(f"{r['doc_id']},{r['company_id']},{r['year']},{r['report_type']},"
                        f"{r['category']}")
        (root / "manifest.csv").write_text("\n".join(rows) + "\n", "utf-8")
        return root

    def sweep(self, tmp_path, corpus):
        return run_experiment(RunConfig(corpus_path=str(corpus), methods=("nmf",), k_values=(2,),
                                        filters={"year": (2003, 2009)},
                                        out_dir=str(tmp_path / "out")))

    @pytest.mark.parametrize("layout", ["jsonl", "text-dir"])
    def test_one_text_alive_at_a_time(self, tmp_path, monkeypatch, layout):
        built, alive = [], []
        real_document = corpus_module._document

        def tracking(*args):
            alive.append(sum(ref() is not None for ref in built))  # earlier ones still held
            doc = real_document(*args)
            built.append(weakref.ref(doc))
            return doc

        monkeypatch.setattr(corpus_module, "_document", tracking)
        manifest = self.sweep(tmp_path, self.corpus(tmp_path, layout))
        assert [c["status"] for c in manifest.cells] == ["ok"]
        assert len(built) == manifest.digest["documents_loaded"] == 12
        assert manifest.digest["documents_after_filters"] == 7
        assert max(alive) <= 1

    @pytest.mark.parametrize("layout", ["jsonl", "text-dir"])
    def test_load_corpus_returns_the_records_the_sweep_counts(self, tmp_path, monkeypatch,
                                                              layout):
        built = []
        real_document = corpus_module._document
        monkeypatch.setattr(corpus_module, "_document",
                            lambda *args: built.append(real_document(*args)) or built[-1])
        corpus = self.corpus(tmp_path, layout)
        manifest = self.sweep(tmp_path, corpus)
        assert load_corpus(corpus) == built[:manifest.digest["documents_loaded"]]
        assert len(built) == 2 * manifest.digest["documents_loaded"]

    @pytest.mark.parametrize("layout, fault, line", [
        ("jsonl", '{"doc_id": "late", "company_id": "c1"\n', "corpus.jsonl:13: malformed JSON ("),
        ("jsonl", '{"doc_id": "doc000", "company_id": "c1", "text": "coal seam"}\n',
         "corpus.jsonl:13: duplicate doc_id 'doc000'\n"),
        ("text-dir", "late,c1,2020,annual,coal\n",
         "manifest.csv:14: no file late.txt for doc_id 'late'\n"),
    ])
    def test_late_error_is_2_before_any_fit(self, tmp_path, capsys, monkeypatch, layout, fault,
                                            line):
        corpus = self.corpus(tmp_path, layout)
        with open(corpus / "manifest.csv" if layout == "text-dir" else corpus, "a",
                  encoding="utf-8") as fh:  # the last line of the file
            fh.write(fault)
        fitted = []
        monkeypatch.setattr(cli, "_run_cell", lambda *args: fitted.append(args))
        assert main(["--corpus", str(corpus), "--out", str(tmp_path / "out")]) == 2
        printed = capsys.readouterr().out
        assert printed.startswith(f"corpus error: {line}") and printed.count("\n") == 1
        assert fitted == [] and not (tmp_path / "out").exists()


class TestSelectBest:
    def test_margin_then_keyword_rule(self):
        summaries = [
            {"method": "lda", "k": 2, "silhouette_documents": 0.30, "keyword_match_mean": 0.50},
            {"method": "lda", "k": 3, "silhouette_documents": 0.31, "keyword_match_mean": 0.55},
            {"method": "lda", "k": 4, "silhouette_documents": 0.31, "keyword_match_mean": 0.73},
        ]
        result = select_best(summaries, margin=0.02)
        assert result["per_method"]["lda"]["k"] == 4
        assert result["overall"] == {"method": "lda", "k": 4}

    def test_single_k_returns_notice(self):
        summaries = [
            {"method": "nmf", "k": 3, "silhouette_documents": 0.4, "keyword_match_mean": 0.6},
        ]
        result = select_best(summaries)
        pick = result["per_method"]["nmf"]
        assert pick["k"] == 3
        assert any("no sweep" in n for n in pick["notices"])

    def test_all_equal_takes_smallest_k(self):
        summaries = [
            {"method": "lda", "k": k, "silhouette_documents": 0.5, "keyword_match_mean": 0.7}
            for k in (2, 3, 4)
        ]
        assert select_best(summaries)["per_method"]["lda"]["k"] == 2

    def test_overall_prefers_higher_silhouette(self):
        summaries = [
            {"method": "lda", "k": 2, "silhouette_documents": 0.6, "keyword_match_mean": 0.5},
            {"method": "lda", "k": 3, "silhouette_documents": 0.59, "keyword_match_mean": 0.9},
            {"method": "nmf", "k": 2, "silhouette_documents": 0.4, "keyword_match_mean": 0.99},
            {"method": "nmf", "k": 3, "silhouette_documents": 0.41, "keyword_match_mean": 0.98},
        ]
        result = select_best(summaries, margin=0.02)
        assert result["overall"]["method"] == "lda"

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no summaries"):
            select_best([])

    @pytest.mark.parametrize("margin, want", [(-1, ">= 0"), (float("nan"), "a finite number"),
                                              (True, "a finite number")])
    def test_bad_margin_rejected(self, margin, want):
        # A negative or NaN margin would leave no candidate K; True would act as 1.
        summaries = [{"method": "lda", "k": k, "silhouette_documents": 0.5,
                      "keyword_match_mean": 0.7} for k in (2, 3)]
        with pytest.raises(ValueError, match=f"^margin must be {want}, got {margin}$"):
            select_best(summaries, margin=margin)

    def test_method_without_silhouettes_is_not_picked(self):
        summaries = [
            {"method": "lda", "k": k, "silhouette_documents": None, "keyword_match_mean": 0.8}
            for k in (2, 3)
        ] + [
            {"method": "nmf", "k": k, "silhouette_documents": 0.1, "keyword_match_mean": 0.2}
            for k in (2, 3)
        ]
        result = select_best(summaries)
        assert result["per_method"]["lda"] == {
            "k": None, "silhouette": None, "keyword_match": None,
            "notices": ["no silhouette values available"],
        }
        assert result["overall"] == {"method": "nmf", "k": 2}
        assert select_best(summaries[:2])["overall"] is None

    def test_single_k_without_silhouette_is_still_picked(self):
        summaries = [
            {"method": "lda", "k": 1, "silhouette_documents": None, "keyword_match_mean": 0.5},
        ]
        result = select_best(summaries)
        assert result["per_method"]["lda"] == {
            "k": 1, "silhouette": None, "keyword_match": 0.5,
            "notices": ["no sweep: single K value"],
        }
        assert result["overall"] == {"method": "lda", "k": 1}


class TestRunExperiment:
    def test_mini_sweep_artifacts(self, tmp_path):
        corpus = write_mini_corpus(tmp_path / "corpus.jsonl")
        out = tmp_path / "out"
        config = RunConfig(
            corpus_path=str(corpus), methods=("lda", "nmf", "ntf"),
            k_values=(2, 3), seed=1, out_dir=str(out),
        )
        manifest = run_experiment(config)
        assert manifest.failures == []
        docs_per_company = {}
        with open(corpus, encoding="utf-8") as fh:
            for line in fh:
                company = json.loads(line)["company_id"]
                docs_per_company[company] = docs_per_company.get(company, 0) + 1
        for method in ("lda", "nmf", "ntf"):
            for k in (2, 3):
                cell = out / method / f"k{k}"
                assert (cell / "doc_topic.csv").is_file()
                assert (cell / "topic_term.csv").is_file()
                assert (cell / "report.json").is_file()
                assert (cell / "model.json").is_file()
                if method == "ntf":
                    assert (cell / "company_topic.csv").is_file()
                if method == "lda":
                    meta = json.loads((cell / "model.json").read_text())
                    assert isinstance(meta["inner_updates"], int) and meta["inner_updates"] > 0
                report = json.loads((cell / "report.json").read_text())
                assert sum(report["topic_sizes"]) == manifest.digest["documents_in_matrices"]
                for company, row in report["company_crosstab"].items():
                    assert sum(row) == docs_per_company[company]
        for name in ("silhouette_by_k.csv", "keyword_match_by_k.csv",
                     "decisiveness_by_method.csv", "manifest.json"):
            assert (out / "summary" / name).is_file()
        rows = read_csv_rows(out / "summary" / "silhouette_by_k.csv")
        assert len(rows) == 6  # 3 methods x 2 K values

    def test_digest_reconciles_with_shapes(self, tmp_path):
        corpus = write_mini_corpus(tmp_path / "corpus.jsonl")
        config = RunConfig(corpus_path=str(corpus), methods=("lda",), k_values=(2,),
                           seed=0, out_dir=str(tmp_path / "out"))
        manifest = run_experiment(config)
        doc_rows = read_csv_rows(tmp_path / "out" / "lda" / "k2" / "doc_topic.csv")
        assert len(doc_rows) == manifest.digest["documents_in_matrices"]
        header = (tmp_path / "out" / "lda" / "k2" / "topic_term.csv").read_text().splitlines()[0]
        assert len(header.strip().split(",")) - 1 == manifest.digest["vocabulary_size"]

    def test_k1_cell_records_notice(self, tmp_path):
        corpus = write_mini_corpus(tmp_path / "corpus.jsonl", n_per_topic=3)
        config = RunConfig(corpus_path=str(corpus), methods=("lda",), k_values=(1,),
                           seed=0, out_dir=str(tmp_path / "out"))
        manifest = run_experiment(config)
        assert manifest.failures == []
        report = json.loads((tmp_path / "out" / "lda" / "k1" / "report.json").read_text())
        assert report["silhouette_documents"] is None
        assert any("K<2" in n for n in report["notices"])

    def test_same_seed_reruns_byte_identical(self, tmp_path):
        corpus = write_mini_corpus(tmp_path / "corpus.jsonl")
        contents = []
        for run in ("a", "b"):
            out = tmp_path / f"out_{run}"
            config = RunConfig(corpus_path=str(corpus), methods=("lda", "nmf", "ntf"),
                               k_values=(2, 3), seed=7, out_dir=str(out))
            run_experiment(config)
            contents.append({
                name: (out / "summary" / name).read_bytes()
                for name in ("silhouette_by_k.csv", "keyword_match_by_k.csv",
                             "decisiveness_by_method.csv")
            })
        assert contents[0] == contents[1]

    def test_crash_containment_keeps_other_cells(self, tmp_path):
        # ntf cannot fit k=4 with only 3 companies; lda/nmf cells must survive
        corpus = write_mini_corpus(tmp_path / "corpus.jsonl")
        out = tmp_path / "out"
        config = RunConfig(corpus_path=str(corpus), methods=("lda", "ntf"),
                           k_values=(2, 4), seed=0, out_dir=str(out))
        manifest = run_experiment(config)
        failed = {(c["method"], c["k"]) for c in manifest.failures}
        assert failed == {("ntf", 4)}
        assert (out / "lda" / "k4" / "report.json").is_file()
        assert (out / "ntf" / "k2" / "report.json").is_file()

    def test_manifest_n_iter_counts_updates(self, tmp_path):
        corpus = write_mini_corpus(tmp_path / "corpus.jsonl")
        out = tmp_path / "out"
        run_experiment(RunConfig(corpus_path=str(corpus), methods=("lda", "nmf", "ntf"),
                                 k_values=(2, 4), seed=0, out_dir=str(out)))
        saved = json.loads((out / "summary" / "manifest.json").read_text())
        ok = [c for c in saved["cells"] if c["status"] == "ok"]
        assert len(ok) == 5  # ntf/k4 fails with three companies
        for cell in ok:
            model = json.loads((out / cell["method"] / f"k{cell['k']}" / "model.json").read_text())
            # one trace entry per LDA iteration or NTF sweep; NMF's trace
            # starts with the objective at its initial factors
            starts = 1 if cell["method"] == "nmf" else 0
            assert cell["n_iter"] == len(model["trace"]) - starts > 0
        assert [c["n_iter"] for c in saved["cells"] if c["status"] == "failed"] == [None]

    def test_stale_cells_are_listed_not_deleted(self, tmp_path, caplog):
        corpus = write_mini_corpus(tmp_path / "corpus.jsonl")
        out = tmp_path / "out"
        run_experiment(RunConfig(corpus_path=str(corpus), methods=("lda", "nmf"),
                                 k_values=(2, 3), seed=0, out_dir=str(out)))
        with caplog.at_level(logging.WARNING, logger="topickit"):
            manifest = run_experiment(RunConfig(corpus_path=str(corpus), methods=("lda",),
                                                k_values=(2,), seed=0, out_dir=str(out)))
        stale = [n for n in manifest.notices if "not written by this run" in n]
        assert stale == [
            "3 cell(s) in the output directory not written by this run "
            "(left as they are): lda/k3, nmf/k2, nmf/k3"
        ]
        assert stale[0] in caplog.text
        assert (out / "lda" / "k3" / "report.json").is_file()
        saved = json.loads((out / "summary" / "manifest.json").read_text())
        assert saved["notices"] == manifest.notices

    def test_failed_cell_directory_is_listed(self, tmp_path, monkeypatch):
        corpus = write_mini_corpus(tmp_path / "corpus.jsonl")
        config = RunConfig(corpus_path=str(corpus), methods=("ntf",), k_values=(2,),
                           seed=0, out_dir=str(tmp_path / "out"))
        assert not any("not written" in n for n in run_experiment(config).notices)

        def broken_fit(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "fit_ntf", broken_fit)
        manifest = run_experiment(config)
        assert [c["status"] for c in manifest.cells] == ["failed"]
        assert any(n.endswith("not written by this run (left as they are): ntf/k2")
                   for n in manifest.notices)

    def test_unconverged_cells_are_listed(self, tmp_path, caplog, capsys):
        corpus = write_mini_corpus(tmp_path / "corpus.jsonl")
        out = tmp_path / "out"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"corpus_path": str(corpus), "methods": ["nmf", "ntf"],
                                   "k_values": [2, 4], "nmf": {"max_iter": 1},
                                   "out_dir": str(out)}))
        with caplog.at_level(logging.WARNING, logger="topickit"):
            assert main(["--config", str(cfg)]) == 3
        saved = json.loads((out / "summary" / "manifest.json").read_text())
        converged = {f"{c['method']}/k{c['k']}": c["converged"] for c in saved["cells"]}
        assert converged["nmf/k4"] is False and converged["ntf/k4"] is None  # ntf/k4 fails
        for cell in ("nmf/k2", "nmf/k4", "ntf/k2"):
            model = json.loads((out / cell / "model.json").read_text())
            assert converged[cell] is model["converged"]
        late = [cell for cell, flag in converged.items() if flag is False]
        notice = f"{len(late)} cell(s) did not converge: {', '.join(late)}"
        assert notice in saved["notices"] and notice in caplog.text
        assert capsys.readouterr().out.endswith(
            f"1 of 4 cells failed; partial results kept; {len(late)} cell(s) did not converge\n")

        cfg.write_text(json.dumps({"corpus_path": str(corpus), "methods": ["ntf"],
                                   "k_values": [2], "out_dir": str(out)}))
        assert main(["--config", str(cfg)]) == 0
        n_late = int(converged["ntf/k2"] is False)
        assert capsys.readouterr().out.endswith(
            f"done: artifacts under {out}; {n_late} cell(s) did not converge\n")

    def test_year_filter(self, tmp_path):
        corpus = write_mini_corpus(tmp_path / "corpus.jsonl")
        config = RunConfig(corpus_path=str(corpus), methods=("lda",), k_values=(2,),
                           seed=0, out_dir=str(tmp_path / "out"),
                           filters={"year": (2000, 2009)})
        manifest = run_experiment(config)
        assert manifest.digest["documents_after_filters"] == 10

    def test_every_notice_is_logged_once(self, tmp_path, caplog):
        """Planted documents plus one that filtering drops, one left empty and one whose
        only words no other document has: NMF drives that one's topic row to exactly 0."""
        corpus = tmp_path / "planted.jsonl"
        write_planted_corpus(corpus)
        with open(corpus, "a", encoding="utf-8") as fh:
            for doc_id, text, year in (("stops", "the of and 2024", 2001),
                                       ("zz-oov", "zircon xenotime", 2002),
                                       ("old", "coal seam drilling", 1990)):
                fh.write(json.dumps({"doc_id": doc_id, "company_id": "company0", "text": text,
                                     "year": year}) + "\n")
        out = tmp_path / "out"
        with caplog.at_level(logging.INFO, logger="topickit"):
            manifest = run_experiment(RunConfig(
                corpus_path=str(corpus), methods=("lda", "nmf"), k_values=(2, 3, 4),
                filters={"year": "2000:2019"}, out_dir=str(out)))
        assert {r.name for r in caplog.records} == {"topickit.cli"}
        lines = caplog.text.splitlines()
        assert manifest.notices == ["metadata filters dropped 1 document(s)",
                                    "1 document(s) empty after preprocessing: stops"]
        for notice in manifest.notices:
            assert sum(notice in line for line in lines) == 1
        zero = ("1 document(s) with an all-zero topic row, grouped under topic 0 and left out "
                "of decisiveness: zz-oov")
        for cell in manifest.cells:
            name = f"cell ({cell['method']}, k={cell['k']}): ok in "
            [line] = [line for line in lines if "cell (" in line and name in line]
            notices = json.loads((out / cell["method"] / f"k{cell['k']}" / "report.json")
                                 .read_text())["notices"]
            assert notices == ([zero] if cell["method"] == "nmf" else [])
            assert line.endswith("s" + "".join(f"; {n}" for n in notices))
        assert sum("cell (" in line for line in lines) == len(manifest.cells) == 6

    def test_a_failed_cell_logs_one_line(self, tmp_path, caplog, capsys):
        corpus = tmp_path / "planted.jsonl"
        write_planted_corpus(corpus)  # 8 companies, so NTF at K=9 fails before any fit
        with caplog.at_level(logging.INFO, logger="topickit"):
            assert main(["--corpus", str(corpus), "--methods", "ntf", "--k", "2,9",
                         "--out", str(tmp_path / "out")]) == 3
        [record] = [r for r in caplog.records if "cell (ntf, k=9)" in r.getMessage()]
        assert record.levelno == logging.ERROR
        assert re.fullmatch(r"cell \(ntf, k=9\): failed in \d+\.\d\ds: ValueError: k=9 out of "
                            r"range: exceeds the smallest side of tensor shape \(60, 8, 160\)",
                            record.getMessage())
        assert record.exc_info[0] is ValueError and "Traceback" in caplog.text
        [ok] = [r for r in caplog.records if "cell (ntf, k=2)" in r.getMessage()]
        assert ok.levelno == logging.INFO and ok.exc_info is None

    def test_only_the_cli_imports_logging(self):
        """The library reports through what it returns; only the sweep logs."""
        importers = []
        for path in sorted(Path(topickit.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text("utf-8"))):
                names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                         else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
                if any(name.split(".")[0] == "logging" for name in names):
                    importers.append(path.name)
        assert importers == ["cli.py"]


class TestMainExitCodes:
    def test_success(self, tmp_path, capsys):
        corpus = write_mini_corpus(tmp_path / "corpus.jsonl")
        code = main(["--corpus", str(corpus), "--methods", "lda", "--k", "2",
                     "--out", str(tmp_path / "out"), "--seed", "5"])
        assert code == 0

    def test_config_error_is_1(self, tmp_path, capsys):
        assert main(["--corpus", "x.jsonl", "--methods", "svd"]) == 1
        assert main([]) == 1  # corpus required
        assert main(["--corpus", "x.jsonl", "--k", "zero"]) == 1

    def test_corpus_error_is_2(self, tmp_path, capsys):
        code = main(["--corpus", str(tmp_path / "missing.jsonl"),
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_invalid_utf8_jsonl_is_2(self, tmp_path, capsys):
        corpus = write_mini_corpus(tmp_path / "corpus.jsonl", n_per_topic=2)
        lines = corpus.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1].replace(b"doc001", b"doc\xff\xfe")
        corpus.write_bytes(b"".join(lines))
        code = main(["--corpus", str(corpus), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "corpus error: corpus.jsonl:2: not valid UTF-8" in capsys.readouterr().out

    @pytest.mark.parametrize("bad_file", ["b.txt", "manifest.csv"])
    def test_invalid_utf8_text_dir_is_2(self, tmp_path, capsys, bad_file):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.txt").write_text("coal seam drill")
        (corpus / "b.txt").write_text("gold vein assay")
        (corpus / "manifest.csv").write_text("doc_id,company_id\na,c1\nb,c2\n")
        (corpus / bad_file).write_bytes((corpus / bad_file).read_bytes() + b"\xff\xfe")
        code = main(["--corpus", str(corpus), "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"corpus error: {bad_file}: not valid UTF-8" in capsys.readouterr().out

    def test_unreadable_text_file_is_2(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.txt").write_text("coal seam drill")
        (corpus / "sub.txt").mkdir()
        (corpus / "manifest.csv").write_text("doc_id,company_id\na,c1\nsub,c2\n")
        code = main(["--corpus", str(corpus), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "corpus error: sub.txt: cannot read" in capsys.readouterr().out

    def test_ids_with_commas_and_quotes_round_trip(self, tmp_path):
        corpus = write_mini_corpus(tmp_path / "corpus.jsonl", n_per_topic=4)
        records = [json.loads(line) for line in corpus.read_text().splitlines()]
        records[0]["doc_id"] = 'r,"1"'
        for record in records[::3]:
            record["company_id"] = "acme, inc"
        corpus.write_text("".join(json.dumps(r) + "\n" for r in records))
        out = tmp_path / "out"
        assert main(["--corpus", str(corpus), "--methods", "ntf", "--k", "2",
                     "--out", str(out)]) == 0
        for name, column, ids in (
            ("doc_topic.csv", "doc_id", [r["doc_id"] for r in records]),
            ("silhouette_samples.csv", "doc_id", [r["doc_id"] for r in records]),
            ("company_topic.csv", "company_id", {r["company_id"] for r in records}),
        ):
            with open(out / "ntf" / "k2" / name, encoding="utf-8", newline="") as fh:
                header, *rows = csv.reader(fh)
            assert all(len(row) == len(header) for row in rows), name
            got = [row[header.index(column)] for row in rows]
            assert sorted(got) == sorted(ids), name

    @pytest.mark.parametrize("margin", ["nan", "-0.5"])
    def test_bad_margin_is_1_before_any_cell(self, tmp_path, capsys, monkeypatch, margin):
        corpus = write_mini_corpus(tmp_path / "corpus.jsonl", n_per_topic=2)
        fitted = []
        monkeypatch.setattr(cli, "_run_cell", lambda *args: fitted.append(args))
        code = main(["--corpus", str(corpus), "--margin", margin, "--out", str(tmp_path / "out")])
        assert code == 1
        assert "config error: select_margin must be" in capsys.readouterr().out
        assert fitted == [] and not (tmp_path / "out").exists()

    def test_directory_loads_as_a_text_directory(self, tmp_path, capsys):
        jsonl = write_mini_corpus(tmp_path / "corpus.jsonl", n_per_topic=4)
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        columns = ["doc_id", "company_id", "year", "report_type", "category"]
        rows = [json.loads(line) for line in jsonl.read_text().splitlines()]
        for row in rows:
            (corpus / f"{row['doc_id']}.txt").write_text(row["text"])
        with open(corpus / "manifest.csv", "w", newline="") as fh:
            csv.writer(fh).writerows([columns, *([row[c] for c in columns] for row in rows)])
        assert load_corpus(corpus) == load_corpus(jsonl)
        for path, out in ((jsonl, "out-jsonl"), (corpus, "out-dir")):
            assert main(["--corpus", str(path), "--methods", "nmf", "--k", "2",
                         "--out", str(tmp_path / out)]) == 0
        for name in ("doc_topic.csv", "topic_term.csv", "report.json", "model.json"):
            assert ((tmp_path / "out-dir" / "nmf" / "k2" / name).read_bytes()
                    == (tmp_path / "out-jsonl" / "nmf" / "k2" / name).read_bytes()), name

    @pytest.mark.parametrize("text, key", [
        ('{"corpus_path": "c.jsonl", "seed": -1, "seed": 2}', "seed"),
        ('{"corpus_path": "c.jsonl", "lda": {"tol": 1, "tol": 2}}', "tol"),
    ])
    def test_repeated_key_in_config_is_1_before_any_cell(self, tmp_path, capsys, monkeypatch,
                                                         text, key):
        (tmp_path / "run.json").write_text(text)
        fitted = []
        monkeypatch.setattr(cli, "_run_cell", lambda *args: fitted.append(args))
        assert main(["--config", str(tmp_path / "run.json"), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().out == (
            f"config error: config file is not valid JSON: repeated key {key!r}\n")
        assert fitted == [] and not (tmp_path / "out").exists()

    def test_lone_surrogate_config_path_is_1(self, capsys):
        assert main(["--config", "a\ud800"]) == 1
        assert capsys.readouterr().out == "config error: config holds a lone surrogate\n"

    @pytest.mark.parametrize("name, line", [("corpus.jsonl", "corpus.jsonl: no documents"),
                                            ("corpus", "manifest.csv: no documents")])
    def test_empty_corpus_is_2_with_one_line(self, tmp_path, capsys, monkeypatch, name, line):
        corpus = tmp_path / name
        if name == "corpus":
            corpus.mkdir()
            (corpus / "manifest.csv").write_text("doc_id,company_id\n")
        else:
            corpus.write_text("\n")
        fitted = []
        monkeypatch.setattr(cli, "_run_cell", lambda *args: fitted.append(args))
        assert main(["--corpus", str(corpus), "--out", str(tmp_path / "out")]) == 2
        printed = capsys.readouterr()
        assert printed.out == f"corpus error: {line}\n" and printed.err == ""
        assert fitted == [] and not (tmp_path / "out").exists()

    def test_all_documents_empty_after_preprocessing_is_2(self, tmp_path, capsys, monkeypatch):
        corpus = tmp_path / "allstop.jsonl"
        corpus.write_text("".join(json.dumps({"doc_id": doc_id, "company_id": "c1",
                                              "text": "The of and 2024."}) + "\n"
                                  for doc_id in ("a", "b")))
        fitted = []
        monkeypatch.setattr(cli, "_run_cell", lambda *args: fitted.append(args))
        assert main(["--corpus", str(corpus), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().out == (
            "corpus error: allstop.jsonl: all 2 documents are empty after preprocessing\n")
        assert fitted == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, why", [
        (["--min-df", "2"], "no term reaches min_df=2"),
        (["--filter", "year=1990"], "no documents left after filtering"),
    ])
    def test_empty_vocabulary_or_filter_is_2_naming_the_file(self, tmp_path, capsys, monkeypatch,
                                                             flags, why):
        corpus = tmp_path / "two.jsonl"
        corpus.write_text("".join(json.dumps({"doc_id": doc_id, "company_id": "c1", "year": 2020,
                                              "text": text}) + "\n"
                                  for doc_id, text in (("a", "coal seam"), ("b", "gold vein"))))
        fitted = []
        monkeypatch.setattr(cli, "_run_cell", lambda *args: fitted.append(args))
        assert main(["--corpus", str(corpus), *flags, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().out == f"corpus error: two.jsonl: {why}\n"
        assert fitted == [] and not (tmp_path / "out").exists()

    def test_misspelt_key_is_2_before_the_filter(self, tmp_path, capsys):
        corpus = write_mini_corpus(tmp_path / "reports.jsonl", n_per_topic=2)
        corpus.write_text(corpus.read_text().replace('"category"', '"catgory"', 1))
        assert main(["--corpus", str(corpus), "--filter", "category=coal",
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().out == (
            "corpus error: reports.jsonl:1: unknown key 'catgory'; "
            "keys are doc_id, company_id, text, year, report_type, category\n")

    def test_manifest_records_the_pyproject_version(self, tmp_path, capsys):
        pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text("utf-8")
        version = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE).group(1)
        assert topickit.__version__ == version
        corpus = write_mini_corpus(tmp_path / "corpus.jsonl", n_per_topic=2)
        assert main(["--corpus", str(corpus), "--methods", "nmf", "--k", "2",
                     "--out", str(tmp_path / "out")]) == 0
        manifest = json.loads((tmp_path / "out" / "summary" / "manifest.json").read_text())
        assert manifest["tool_version"] == version

    @pytest.mark.parametrize("key", ["doc_id", "company_id"])
    def test_lone_surrogate_id_is_2_before_any_fit(self, tmp_path, capsys, monkeypatch, key):
        corpus = write_mini_corpus(tmp_path / "corpus.jsonl", n_per_topic=2)
        lines = corpus.read_text().splitlines(keepends=True)
        record = json.loads(lines[2])
        record[key] += "\ud800"  # legal JSON: json.dumps writes it as the escape \ud800
        lines[2] = json.dumps(record) + "\n"
        corpus.write_text("".join(lines))
        fitted = []
        monkeypatch.setattr(cli, "_run_cell", lambda *args: fitted.append(args))
        assert main(["--corpus", str(corpus), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().out == (
            f"corpus error: corpus.jsonl:3: {key} holds a lone surrogate, got {record[key]!r}\n")
        assert fitted == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("out, why", [
        ("file", "[Errno 17] File exists: {}"), ("file/x", "[Errno 20] Not a directory: {}"),
        ("file/x/y", "[Errno 20] Not a directory: {}"), ("nul\0dir", "embedded null byte"),
    ])
    def test_unwritable_out_is_1_before_any_fit(self, tmp_path, capsys, monkeypatch, out, why):
        corpus = write_mini_corpus(tmp_path / "corpus.jsonl", n_per_topic=2)
        (tmp_path / "file").write_text("")
        fitted = []
        monkeypatch.setattr(cli, "_run_cell", lambda *args: fitted.append(args))
        assert main(["--corpus", str(corpus), "--out", str(tmp_path / out)]) == 1
        printed = capsys.readouterr()
        reason = why.format(repr(str(tmp_path / out)))
        assert printed.out == f"config error: out_dir cannot be made: {reason}\n"
        assert "Traceback" not in printed.err
        assert fitted == [] and (tmp_path / "file").read_text() == ""

    @pytest.mark.parametrize("kind", ["summary", "summary/manifest.json", "nmf/k2"])
    def test_unusable_summary_path_is_1_before_any_fit(self, tmp_path, capsys, monkeypatch,
                                                       kind):
        corpus = write_mini_corpus(tmp_path / "corpus.jsonl", n_per_topic=2)
        blocker = tmp_path / "out" / kind
        blocker.parent.mkdir(parents=True)
        if kind == "summary/manifest.json":  # a directory where the manifest goes
            blocker.mkdir()
        else:  # a file where the summary or a cell's directory goes
            blocker.write_text("")
        fitted = []
        monkeypatch.setattr(cli, "_run_cell", lambda *args: fitted.append(args))
        assert main(["--corpus", str(corpus), "--out", str(tmp_path / "out")]) == 1
        printed = capsys.readouterr()
        assert printed.out.startswith("config error: out_dir cannot be made: [Errno ")
        assert printed.out.endswith(f"{str(blocker)!r}\n") and printed.out.count("\n") == 1
        assert "Traceback" not in printed.err and fitted == []

    def test_interrupted_rerun_leaves_no_earlier_manifest(self, tmp_path, monkeypatch):
        corpus = write_mini_corpus(tmp_path / "corpus.jsonl")
        out = tmp_path / "out"

        def config(seed):
            return RunConfig(corpus_path=str(corpus), methods=("ntf",), k_values=(2, 3),
                             seed=seed, out_dir=str(out))

        run_experiment(config(0))
        assert (out / "summary" / "manifest.json").is_file()
        real_run_cell = cli._run_cell

        def interrupted(method, k, *args):  # as a Ctrl-C, a kill or an OOM would stop it
            if k == 3:
                raise KeyboardInterrupt
            return real_run_cell(method, k, *args)

        monkeypatch.setattr(cli, "_run_cell", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(config(1))
        assert json.loads((out / "ntf" / "k2" / "model.json").read_text())["seed"] == 1
        assert not (out / "summary" / "manifest.json").exists()

    def test_log_lines_under_python_m(self, tmp_path):
        """Run as ``python -m topickit.cli``, the module is __main__; its log still shows."""
        corpus = write_mini_corpus(tmp_path / "corpus.jsonl", n_per_topic=4)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
            str(Path(topickit.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-m", "topickit.cli", "--corpus", str(corpus), "--methods", "nmf",
             "--k", "2,3", "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        lines = done.stderr.splitlines()
        assert sum("corpus ready: " in line for line in lines) == 1
        cells = [line for line in lines if "cell (" in line]
        assert [line.split(": ", 1)[1].split(":")[0] for line in cells] \
            == ["cell (nmf, k=2)", "cell (nmf, k=3)"]
        assert all(line.startswith("INFO topickit.cli: ") for line in cells)

    def test_partial_failure_is_3(self, tmp_path, capsys):
        corpus = write_mini_corpus(tmp_path / "corpus.jsonl")
        code = main(["--corpus", str(corpus), "--methods", "ntf", "--k", "2,4",
                     "--out", str(tmp_path / "out")])
        assert code == 3

    def test_config_file_with_overrides(self, tmp_path, capsys):
        corpus = write_mini_corpus(tmp_path / "corpus.jsonl")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "corpus_path": str(corpus),
            "methods": ["lda"],
            "k_values": [2, 3],
            "lda": {"max_iter": 50},
        }))
        code = main(["--config", str(cfg), "--k", "2", "--out", str(tmp_path / "out")])
        assert code == 0
        manifest = json.loads((tmp_path / "out" / "summary" / "manifest.json").read_text())
        assert manifest["config"]["k_values"] == [2]  # flag overrode the file

    def test_k_range_syntax(self, tmp_path, capsys):
        corpus = write_mini_corpus(tmp_path / "corpus.jsonl")
        code = main(["--corpus", str(corpus), "--methods", "nmf", "--k", "2:3",
                     "--out", str(tmp_path / "out")])
        assert code == 0
        rows = read_csv_rows(tmp_path / "out" / "summary" / "silhouette_by_k.csv")
        assert [r["k"] for r in rows] == ["2", "3"]

    def test_file_year_with_flag_filter_applies_both(self, tmp_path, capsys):
        corpus = write_mini_corpus(tmp_path / "corpus.jsonl")
        cfg = write_config(tmp_path, corpus_path=str(corpus), methods=["lda"], k_values=[1],
                           filters={"year": 2005})
        code = main(["--config", str(cfg), "--filter", "category=coal",
                     "--out", str(tmp_path / "out")])
        assert code == 0
        manifest = json.loads((tmp_path / "out" / "summary" / "manifest.json").read_text())
        assert manifest["config"]["filters"] == {"year": [2005, 2005], "category": "coal"}
        assert manifest["digest"]["documents_after_filters"] == 1

    def test_unknown_filter_key_is_config_error(self, tmp_path, capsys):
        corpus = write_mini_corpus(tmp_path / "corpus.jsonl")
        cfg = write_config(tmp_path, corpus_path=str(corpus), filters={"categroy": "coal"})
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out)]) == 1
        assert "categroy" in capsys.readouterr().out
        assert main(["--corpus", str(corpus), "--filter", "categroy=coal", "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("filters", [["year"], "category=coal", None])
    def test_flag_filter_over_non_object_file_filters_is_1(self, tmp_path, capsys, filters):
        cfg = write_config(tmp_path, corpus_path="x.jsonl", filters=filters)
        assert main(["--config", str(cfg), "--filter", "category=coal",
                     "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().out == "config error: filters must be an object\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("settings, named", [
        ({"extra_stopwords": [5]}, "extra_stopwords"),
        ({"extra_stopwords": ["coal", None]}, "extra_stopwords"),
        ({"filters": {"category": 5}}, "filters.category"),
        ({"filters": {"report_type": ["annual"]}}, "filters.report_type"),
    ])
    def test_non_string_word_or_filter_is_config_error(self, tmp_path, capsys, settings, named):
        corpus = write_mini_corpus(tmp_path / "corpus.jsonl")
        cfg = write_config(tmp_path, corpus_path=str(corpus), methods=["nmf"], k_values=[2],
                           **settings)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        out = capsys.readouterr().out
        assert out.startswith("config error: ") and named in out
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [5, {"nmf": 2}])
    @pytest.mark.parametrize("key", ["methods", "k_values", "extra_stopwords"])
    def test_non_list_is_config_error_naming_the_key(self, tmp_path, capsys, key, value):
        corpus = write_mini_corpus(tmp_path / "corpus.jsonl")
        settings = {"methods": ["nmf"], "k_values": [2], key: value}
        cfg = write_config(tmp_path, corpus_path=str(corpus), **settings)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        out = capsys.readouterr().out
        assert out == f"config error: {key} must be a list or a comma-separated string, got {value!r}\n"
        assert not (tmp_path / "out").exists()

    def test_non_string_method_is_config_error(self, tmp_path, capsys):
        corpus = write_mini_corpus(tmp_path / "corpus.jsonl")
        cfg = write_config(tmp_path, corpus_path=str(corpus), methods=["nmf", 5], k_values=[2])
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().out == "config error: unknown method(s): 5\n"

    @pytest.mark.parametrize("settings, named", [
        ({"nmf": {"max_iters": 1}}, "nmf.max_iters"),
        ({"nmf": {"max_sweeps": 1}}, "nmf.max_sweeps"),
        ({"ntf": {"max_iter": 1}}, "ntf.max_iter"),
        ({"nmf": {"max_iter": "abc"}}, "nmf.max_iter"),
        ({"lda": {"max_sweeps": 3}}, "lda.max_sweeps"),
        ({"lda": {"max_iter": True}}, "lda.max_iter"),
        ({"nmf": {"max_iter": 30.0}}, "nmf.max_iter"),
        ({"nmf": {"tol": False}}, "nmf.tol"),
        ({"ntf": {"tol": "1e-6"}}, "ntf.tol"),
        ({"jobs": 2}, "jobs"),
    ])
    def test_bad_setting_in_file_is_config_error(self, tmp_path, capsys, settings, named):
        corpus = write_mini_corpus(tmp_path / "corpus.jsonl")
        cfg = write_config(tmp_path, corpus_path=str(corpus), methods=["nmf"], k_values=[2],
                           **settings)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert named in capsys.readouterr().out
        assert not (tmp_path / "out").exists()

    def test_solver_setting_reaches_the_solver(self, tmp_path, capsys):
        corpus = write_mini_corpus(tmp_path / "corpus.jsonl")
        cfg = write_config(tmp_path, corpus_path=str(corpus), methods=["nmf", "ntf"],
                           k_values=[2], nmf={"max_iter": 1}, ntf={"max_sweeps": 2, "tol": 0})
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        nmf = json.loads((tmp_path / "out" / "nmf" / "k2" / "model.json").read_text())
        ntf = json.loads((tmp_path / "out" / "ntf" / "k2" / "model.json").read_text())
        assert len(nmf["trace"]) == 2  # the initial point and one update
        assert len(ntf["trace"]) == 2

    def test_flags_and_file_give_the_same_config(self, tmp_path, capsys):
        corpus = str(write_mini_corpus(tmp_path / "corpus.jsonl"))
        out = str(tmp_path / "out")
        file_only = write_config(
            tmp_path, corpus_path=corpus, methods=["nmf"],
            k_values=[2, 3], seed=4, min_df=2, out_dir=out,
            filters={"year": [2000, 2009], "category": "coal"}, extra_stopwords=["seam"],
            select_margin=0.05, n_keywords=10,
        )
        flags_only = ["--corpus", corpus, "--methods", "nmf",
                      "--k", "2:3", "--seed", "4", "--min-df", "2", "--out", out,
                      "--filter", "year=2000:2009", "--filter", "category=coal",
                      "--extra-stopwords", "seam", "--margin", "0.05", "--keywords", "10"]
        mixed = write_config(tmp_path, name="mixed.json", corpus_path=corpus,
                             methods=["nmf"], k_values=[2, 3],
                             filters={"year": "2000:2009"}, extra_stopwords=["seam"])
        configs = []
        for argv in (["--config", str(file_only)], flags_only,
                     ["--config", str(mixed), "--seed", "4", "--min-df", "2", "--out", out,
                      "--filter", "category=coal", "--margin", "0.05", "--keywords", "10"]):
            assert main(argv) == 0
            manifest = json.loads((tmp_path / "out" / "summary" / "manifest.json").read_text())
            configs.append(manifest["config"])
        assert configs[0] == configs[1] == configs[2]
        assert configs[0]["filters"] == {"year": [2000, 2009], "category": "coal"}


class TestRunConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            RunConfig(corpus_path="x", methods=())
        with pytest.raises(ConfigError):
            RunConfig(corpus_path="x", methods=("lsa",))
        with pytest.raises(ConfigError):
            RunConfig(corpus_path="x", k_values=())
        with pytest.raises(ConfigError):
            RunConfig(corpus_path="x", k_values=(0,))
        with pytest.raises(ConfigError):
            RunConfig(corpus_path="x", min_df=0)
        for bad, named in (({"n_keywords": 0}, "n_keywords"), ({"n_keywords": -3}, "n_keywords"),
                           ({"seed": -1}, "seed"), ({"select_margin": -0.5}, "select_margin"),
                           ({"lda": {"max_iter": -5}}, "lda.max_iter"),
                           ({"nmf": {"max_iter": 0}}, "nmf.max_iter"),
                           ({"ntf": {"max_sweeps": 0}}, "ntf.max_sweeps"),
                           ({"lda": {"tol": -1e-6}}, "lda.tol")):
            with pytest.raises(ConfigError, match=f"{named} must be >= "):
                RunConfig(**{"corpus_path": "x", **bad})

    def test_rejects_repeated_methods_and_k(self):
        with pytest.raises(ConfigError, match=r"k_values repeats a value: \(3, 3\)"):
            RunConfig(corpus_path="x", k_values="3,3")
        with pytest.raises(ConfigError, match="methods repeats a value"):
            RunConfig(corpus_path="x", methods="nmf,lda,nmf")

    def test_rejects_wrong_types(self):
        for bad in ({"corpus_path": 5}, {"out_dir": None}, {"seed": "0"}, {"min_df": 1.5},
                    {"n_keywords": None}, {"select_margin": "wide"}, {"k_values": (2.5,)},
                    {"k_values": (True,)}, {"filters": ["year"]}, {"nmf": 300}):
            with pytest.raises(ConfigError):
                RunConfig(**{"corpus_path": "x", **bad})
        for bad, named in (({"select_margin": float("nan")}, "select_margin"),
                           ({"select_margin": float("inf")}, "select_margin"),
                           ({"nmf": {"tol": float("nan")}}, "nmf.tol"),
                           ({"ntf": {"tol": float("inf")}}, "ntf.tol")):
            with pytest.raises(ConfigError, match=f"{named} must be a finite number"):
                RunConfig(**{"corpus_path": "x", **bad})

    def test_string_forms_match_lists(self):
        assert RunConfig(corpus_path="x", methods="lda,nmf", k_values="2:4",
                         extra_stopwords="coal,drill") == \
            RunConfig(corpus_path="x", methods=["lda", "nmf"], k_values=[2, 3, 4],
                      extra_stopwords=("coal", "drill"))

    @pytest.mark.parametrize("year, expected", [
        (2005, (2005, 2005)),
        ([2000, 2009], (2000, 2009)),
        ("2005", (2005, 2005)),
        ("2000:2009", (2000, 2009)),
    ])
    def test_year_filter_forms(self, year, expected):
        config = RunConfig(corpus_path="x", filters={"year": year, "category": "coal"})
        assert config.filters == {"year": expected, "category": "coal"}

    @pytest.mark.parametrize("year", ["20x5", "2000:", [2000, 2009, 2010], 2005.0, True, None,
                                      "2009:2000", [2009, 2000]])
    def test_bad_year_filter_rejected(self, year):
        with pytest.raises(ConfigError, match="year filter"):
            RunConfig(corpus_path="x", filters={"year": year})

    def test_bad_k_uses_the_library_wording(self):
        for bad in (0, 2.5):
            with pytest.raises(ConfigError) as config_error:
                RunConfig(corpus_path="x", k_values=(2, bad))
            with pytest.raises(ValueError) as library_error:
                LdaConfig(k=bad)
            assert str(config_error.value) == str(library_error.value)


_LIBRARY_FITS = {
    "lda": lambda settings: LdaConfig(k=2, **settings),
    "nmf": lambda settings: fit_nmf(np.ones((3, 3)), 2, **settings),
    "ntf": lambda settings: fit_ntf(np.ones((2, 2, 2)), 2, **settings),
}


@pytest.mark.parametrize("method, key, value", [
    ("lda", "max_iter", 0), ("nmf", "max_iter", 0), ("ntf", "max_sweeps", 2.5),
    ("lda", "tol", float("nan")), ("nmf", "tol", float("nan")), ("ntf", "tol", float("nan")),
])
def test_config_and_library_give_the_same_text(method, key, value):
    with pytest.raises(ConfigError) as config_error:
        RunConfig(corpus_path="x", **{method: {key: value}})
    with pytest.raises(ValueError) as library_error:
        _LIBRARY_FITS[method]({key: value})
    assert str(config_error.value) == f"{method}.{library_error.value}"
