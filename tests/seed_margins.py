"""Criterion 9's clauses and the selection over run seeds 0-19 of the planted protocol.

Runs the acceptance configuration (``tests/test_acceptance.py``'s
``planted_run``) with only ``seed`` varied, reads each run's artifacts the
way criterion 9 does, and prints the record as JSON:

    PYTHONPATH=src:tests python3 tests/seed_margins.py > BENCH_seed-margins.json

It records evidence and gates nothing.
"""

import csv
import json
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from planted import EXPERIMENT_SEED, PLANTED_SEED, purity, write_planted_corpus
from topickit.cli import RunConfig, run_experiment

SEEDS = range(20)
METHODS = ("lda", "nmf", "ntf")
K_VALUES = (2, 3, 4, 5, 6)
CLAUSES = {  # criterion 9's, with (a) and (b) split by method
    **{f"a.{m}": f"{m}'s mean document silhouette peaks at K=4" for m in METHODS},
    **{f"b.{m}": f"{m}'s K=4 argmax clusters are >= 0.9 pure" for m in ("lda", "nmf")},
    "c": "lda's K=4 mean keyword-match ratio is >= 0.6",
    "d": "lda's K=4 decisiveness is above ntf's",
}


def _csv_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _k4_purity(out: Path, method: str, labels: dict) -> float:
    with open(out / method / "k4" / "doc_topic.csv", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    pred = np.argmax([[float(v) for v in r[1:]] for r in rows], axis=1)
    return float(purity(pred, np.array([labels[r[0]] for r in rows])))


def seed_outcome(corpus: Path, labels: dict, seed: int, out: Path) -> dict:
    manifest = run_experiment(RunConfig(corpus_path=str(corpus), methods=METHODS,
                                        k_values=K_VALUES, seed=seed, out_dir=str(out)))
    if manifest.failures:
        raise SystemExit(f"seed {seed}: failed cells {manifest.failures}")
    sil = _csv_rows(out / "summary" / "silhouette_by_k.csv")
    argmax_k = {}
    for method in METHODS:
        by_k = {int(r["k"]): float(r["silhouette_documents"])
                for r in sil if r["method"] == method and r["silhouette_documents"]}
        argmax_k[method] = max(by_k, key=by_k.get)
    k4_purity = {m: _k4_purity(out, m, labels) for m in METHODS}
    lda_keyword = next(float(r["keyword_match_mean"])
                       for r in _csv_rows(out / "summary" / "keyword_match_by_k.csv")
                       if r["method"] == "lda" and r["k"] == "4")
    decisiveness = {m: json.loads((out / m / "k4" / "report.json").read_text())["decisiveness"]
                    for m in ("lda", "ntf")}
    selection = manifest.selection
    return {
        "seed": seed,
        "clauses": {
            **{f"a.{m}": argmax_k[m] == 4 for m in METHODS},
            **{f"b.{m}": k4_purity[m] >= 0.9 for m in ("lda", "nmf")},
            "c": lda_keyword >= 0.6,
            "d": decisiveness["lda"] > decisiveness["ntf"],
        },
        "silhouette_argmax_k": argmax_k,
        "k4_purity": {m: round(v, 4) for m, v in k4_purity.items()},
        "lda_k4_keyword_match": round(lda_keyword, 4),
        "k4_decisiveness": {m: round(v, 4) for m, v in decisiveness.items()},
        "candidates": {m: selection["per_method"][m]["candidates"] for m in METHODS},
        "pick": {m: selection["per_method"][m]["k"] for m in METHODS},
        "overall": selection["overall"],
    }


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        labels = write_planted_corpus(root / "corpus.jsonl", seed=PLANTED_SEED)
        seeds = [seed_outcome(root / "corpus.jsonl", labels, seed, root / f"seed{seed}")
                 for seed in SEEDS]
    commit = subprocess.run(["git", "describe", "--always", "--dirty"], capture_output=True,
                            text=True, check=True).stdout.strip()
    record = {
        "label": "seed-margins",
        "what": "the planted protocol (lda,nmf,ntf x K=2..6, corpus PLANTED_SEED "
                f"{PLANTED_SEED}) at run seeds {SEEDS.start}-{SEEDS.stop - 1}; "
                f"criterion 9 pins seed {EXPERIMENT_SEED}",
        "commit": commit,
        "command": "PYTHONPATH=src:tests python3 tests/seed_margins.py > BENCH_seed-margins.json",
        "clauses": CLAUSES,
        "holds_at": {c: [s["seed"] for s in seeds if s["clauses"][c]] for c in CLAUSES},
        "all_hold_at": [s["seed"] for s in seeds if all(s["clauses"].values())],
        "seeds": seeds,
    }
    print(json.dumps(record, indent=1))


if __name__ == "__main__":
    main()
