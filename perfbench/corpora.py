"""Seeded corpora for the benchmark workloads.

``planted-sweep`` reuses the acceptance corpus of ``tests/planted.py``
unchanged.  ``reports-nmf-ntf`` uses the report-like generator below: a
Zipfian background vocabulary, five planted topic vocabularies, English
stop-words, numbers and punctuation, and inflected surface forms ("-ing",
"-ation", "-ness", ...) that the stemmer folds back together.  Every
document has one planted topic, which gives the purity labels.

The corpus is a pure function of the parameters and the seed, and the
JSONL is byte-identical for the same seed.  Run this file directly to
write a corpus for any seed, for example one that was not used while
tuning a change::

    python3 perfbench/corpora.py --seed 4242 --out c.jsonl
"""

from __future__ import annotations

import argparse
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

# The word roots are the same for every seed, so the workload seed varies
# the documents drawn from one fixed language, not the language itself.
VOCABULARY_SEED = 20211105

# Words of the program's own English stop-word list, so stop-word removal
# has real work to do.
FILLERS = (
    "the", "and", "of", "to", "in", "for", "with", "was", "were", "this",
    "that", "on", "by", "from", "are", "has", "have", "been", "which", "during",
    "at", "as", "be", "its", "into", "these", "their", "there",
)
# Surface endings of one root; Porter folds most of them to one stem.
SUFFIXES = ("", "s", "ed", "ing", "ation", "ness", "ment", "er", "ly", "ive")
SUFFIX_P = (0.34, 0.16, 0.12, 0.12, 0.06, 0.05, 0.05, 0.04, 0.03, 0.03)
_ONSETS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_CODAS = ("", "", "", "n", "r", "l", "s", "m")


@dataclass(frozen=True)
class ReportsParams:
    """Generator parameters; recorded next to the corpus digest."""

    docs: int
    length_lo: int  # content words per document, log-uniform between lo and hi
    length_hi: int
    companies: int = 80
    topics: int = 5
    terms_per_topic: int = 80
    background_terms: int = 2500
    zipf_exponent: float = 1.05
    topic_share: float = 0.35  # of content words, from the document's own topic
    leak_share: float = 0.04  # of content words, from the other topics
    filler_share: float = 0.3  # stop-words, on top of the content words


REPORTS = ReportsParams(docs=1000, length_lo=80, length_hi=300)


def _roots(rng: np.random.Generator, n: int) -> list[str]:
    """``n`` distinct pronounceable roots of two or three syllables."""
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < n:
        syllables = int(rng.integers(2, 4))
        word = "".join(
            _ONSETS[rng.integers(len(_ONSETS))] + _VOWELS[rng.integers(len(_VOWELS))]
            for _ in range(syllables)
        ) + _CODAS[rng.integers(len(_CODAS))]
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


def _zipf(n: int, exponent: float) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1) ** exponent
    return p / p.sum()


def write_reports_corpus(path, params: ReportsParams, seed: int) -> dict:
    """Write the report-like corpus as JSONL; return doc_id -> planted topic."""
    roots = _roots(
        np.random.default_rng(VOCABULARY_SEED),
        params.topics * params.terms_per_topic + params.background_terms,
    )
    rng = np.random.default_rng(seed)
    topic_roots = [
        roots[t * params.terms_per_topic:(t + 1) * params.terms_per_topic]
        for t in range(params.topics)
    ]
    background = roots[params.topics * params.terms_per_topic:]
    bg_p = _zipf(len(background), params.zipf_exponent)
    topic_p = _zipf(params.terms_per_topic, 0.6)
    filler_p = _zipf(len(FILLERS), 0.8)
    bg_share = 1.0 - params.topic_share - params.leak_share

    labels = {}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for d in range(params.docs):
            topic = int(rng.integers(params.topics))
            company = int(rng.integers(params.companies))
            n_content = int(np.exp(rng.uniform(np.log(params.length_lo), np.log(params.length_hi))))
            shares = (params.topic_share, params.leak_share, bg_share)
            source = rng.choice(3, size=n_content, p=shares)
            roots_of = np.empty(n_content, dtype=object)
            own = source == 0
            roots_of[own] = [topic_roots[topic][i] for i in
                             rng.choice(params.terms_per_topic, size=int(own.sum()), p=topic_p)]
            leak = np.flatnonzero(source == 1)
            others = (topic + 1 + rng.integers(params.topics - 1, size=len(leak))) % params.topics
            picks = rng.choice(params.terms_per_topic, size=len(leak), p=topic_p)
            roots_of[leak] = [topic_roots[o][i] for o, i in zip(others, picks)]
            bg = source == 2
            roots_of[bg] = [background[i] for i in
                            rng.choice(len(background), size=int(bg.sum()), p=bg_p)]
            suffixes = rng.choice(len(SUFFIXES), size=n_content, p=SUFFIX_P)
            content = [r + SUFFIXES[s] for r, s in zip(roots_of, suffixes)]

            n_fill = int(params.filler_share * n_content)
            is_filler = np.zeros(n_content + n_fill, dtype=bool)
            is_filler[rng.choice(len(is_filler), size=n_fill, replace=False)] = True
            fillers = iter(FILLERS[i] for i in rng.choice(len(FILLERS), size=n_fill, p=filler_p))
            words = iter(content)
            stream = [next(fillers) if f else next(words) for f in is_filler]

            doc_id = f"r{d:05d}"
            record = {
                "doc_id": doc_id,
                "company_id": f"co{company:03d}",
                "text": _sentences(rng, stream),
                "year": 2005 + d % 15,
                "report_type": "annual",
                "category": "mining",
            }
            fh.write(json.dumps(record) + "\n")
            labels[doc_id] = topic
    return labels


def _sentences(rng: np.random.Generator, words: list[str]) -> str:
    """Cut the word stream into capitalised sentences with stray figures."""
    out = []
    pos = 0
    while pos < len(words):
        n = int(rng.integers(8, 21))
        sentence = words[pos:pos + n]
        pos += n
        if rng.random() < 0.3:
            at = int(rng.integers(len(sentence) + 1))
            sentence.insert(at, f"{int(rng.integers(1, 999))}.{int(rng.integers(10))}%")
        if rng.random() < 0.2:
            at = int(rng.integers(len(sentence) + 1))
            sentence.insert(at, str(int(rng.integers(1990, 2021))))
        sentence[0] = sentence[0].capitalize()
        out.append(" ".join(sentence) + ".")
    return " ".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write the reports corpus for one seed.")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="JSONL path; labels go to <out>.labels.json")
    args = parser.parse_args(argv)
    labels = write_reports_corpus(args.out, REPORTS, args.seed)
    Path(args.out + ".labels.json").write_text(json.dumps(labels) + "\n", encoding="utf-8")
    print(json.dumps({"params": asdict(REPORTS), "seed": args.seed, "docs": len(labels)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
