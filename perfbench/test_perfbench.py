"""Tests of the benchmark's own code: the generator, span arithmetic and metric names."""

import dataclasses
import json
import re
from pathlib import Path

import pytest

import corpora
import run
import spans

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _small(**overrides):
    return dataclasses.replace(corpora.REPORTS, docs=30, length_lo=20, length_hi=40, **overrides)


def test_reports_generator_is_deterministic(tmp_path):
    first, again, other = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "c.jsonl"
    labels = corpora.write_reports_corpus(first, _small(), 7)
    assert corpora.write_reports_corpus(again, _small(), 7) == labels
    corpora.write_reports_corpus(other, _small(), 8)
    assert first.read_bytes() == again.read_bytes()
    assert first.read_bytes() != other.read_bytes()
    assert len(labels) == 30 and set(labels.values()) <= set(range(corpora.REPORTS.topics))


def test_reports_generator_records_are_loadable(tmp_path):
    from topickit import StopwordList, load_corpus

    path = tmp_path / "c.jsonl"
    labels = corpora.write_reports_corpus(path, _small(), 3)
    docs = load_corpus(path)
    assert [d.doc_id for d in docs] == list(labels)
    assert all(word in StopwordList() for word in corpora.FILLERS)


def test_self_times_on_hand_built_spans():
    sp = [
        {"name": "cell", "parent": None, "start": 0.0, "end": 10.0},
        {"name": "nmf.init", "parent": 0, "start": 1.0, "end": 3.0},
        {"name": "nmf.fit", "parent": 0, "start": 3.0, "end": 7.5},
        {"name": "inner", "parent": 2, "start": 4.0, "end": 5.0},
        {"name": "probe.silhouette", "parent": None, "start": 10.0, "end": 10.5},
    ]
    assert spans.self_times(sp) == pytest.approx([3.5, 2.0, 3.5, 1.0, 0.5])
    assert spans.total(sp, "nmf.fit") == pytest.approx(4.5)
    assert spans.pipeline_total(sp) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once_and_clips_them():
    sp = [
        {"name": "a", "parent": None, "start": 0.0, "end": 4.0},
        {"name": "b", "parent": 0, "start": -1.0, "end": 2.0},
        {"name": "c", "parent": 0, "start": 1.0, "end": 3.0},
    ]
    assert spans.self_times(sp)[0] == pytest.approx(1.0)


def test_tracer_records_parents_and_rss():
    tracer = spans.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner", k=3):
            pass
    outer, inner = tracer.spans
    assert (outer["parent"], inner["parent"], inner["k"]) == (None, 0, 3)
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    assert inner["rss1_kib"] >= inner["rss0_kib"] > 0


def test_metric_and_workload_names_are_valid_and_unique():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCHMARK[key]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert all(METRIC_NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))


def test_benchmark_json_matches_the_command():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == {
        name: entry[:2] for name, entry in run.PER_LAYER.items()
    }


def test_every_metric_in_benchmark_json_is_computed():
    sweeps = [{"sweep_s": 2.0, "peak_rss_mb": 50.0, "purity": {"lda": 0.95, "nmf": 1.0}}]
    e2e = run.end_to_end_metrics(sweeps, [0.5, 0.7])
    assert set(e2e) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert e2e["purity_min"] == 0.95

    trace = {
        "spans": [
            {"name": "corpus.preprocess", "parent": None, "start": 0.0, "end": 0.5,
             "rss0_kib": 1000, "rss1_kib": 1000},
            {"name": "cell", "parent": None, "start": 0.5, "end": 1.5,
             "rss0_kib": 1000, "rss1_kib": 3048},
            {"name": "nmf.fit", "parent": 1, "start": 0.5, "end": 1.3,
             "rss0_kib": 1000, "rss1_kib": 3048},
        ],
        "cells": [{"method": "nmf", "k": 2, "iters": 4, "converged": True, "rescues": 0}],
        "counts": {"tokens": 10, "distinct_tokens": 4, "terms": 3, "nnz": 5, "export_bytes": 9},
    }
    layers = run.layer_metrics(trace, sweep_s=2.0, agrees=True, fail_ratio=0.0, src_lines=7)
    assert set(layers) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert layers["nmf.s_per_iter"] == pytest.approx(0.2)
    assert layers["nmf.rss_rise_mb"] == pytest.approx(2.0)
    assert layers["cli.gap_s"] == pytest.approx(0.5)
    assert layers["lda.fit_s"] == 0 and layers["lda.iters"] == 0


def test_child_times_are_scaled_to_the_reference_speed():
    ref = run.pace.REFERENCE_S
    result = run.at_reference_speed({"setup_s": 0.8, "sweep_s": 12.0, "reference_s": [ref, 2 * ref]})
    # the host ran the reference at 2/3 of its reference speed on average
    assert result["sweep_s"] == pytest.approx(8.0) and result["setup_s"] == pytest.approx(0.8 / 1.5)
    assert (result["sweep_wall_s"], result["setup_wall_s"]) == (12.0, 0.8)
    assert run.at_reference_speed({"error": "exit 1"}) == {"error": "exit 1"}
