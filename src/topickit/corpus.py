"""Corpus loading and the three-stage text preprocessing pipeline.

Documents come in as raw text with company metadata and leave as ordered
lists of stems, produced by tokenisation, stop-word removal and Porter
stemming, in that order.  Stop-word removal runs before stemming, so
inflected forms of stop-words ("reporting") survive the filter; this is
deliberate and matched by the tests.

A text is split into runs of letters and digits in one C-level pass; each
distinct run then goes through every token rule, the stop-word filter and the
stemmer once, in one memo, so no Python code runs per token.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, field
from importlib import resources
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator

from .porter import stem

__all__ = [
    "CorpusError",
    "RawDocument",
    "TokenizedDocument",
    "StopwordList",
    "load_corpus",
    "tokenize",
    "remove_stopwords",
    "stem",
    "preprocess",
    "preprocess_corpus",
]

class CorpusError(Exception):
    """Raised when a corpus cannot be loaded or violates its invariants."""


@dataclass(frozen=True)
class RawDocument:
    """One report with its company metadata."""

    doc_id: str
    company_id: str
    text: str
    year: int | None = None
    report_type: str | None = None
    category: str | None = None

    def __post_init__(self):
        if not self.doc_id:
            raise CorpusError("doc_id must be non-empty")
        if not self.company_id:
            raise CorpusError(f"document {self.doc_id!r}: company_id must be non-empty")
        if not self.text or self.text.isspace():  # what strip() trims, with no copy
            raise CorpusError(f"document {self.doc_id!r}: text is empty after trim")


@dataclass(frozen=True)
class TokenizedDocument:
    """The cleaned token stream of one document: ordered lowercase stems."""

    doc_id: str
    tokens: tuple[str, ...]

    @property
    def is_empty(self) -> bool:
        return len(self.tokens) == 0


# Domain-specific terms removed in addition to the base English list.
EXTRA_STOPWORDS = frozenset({
    "appendix", "area", "australia", "fax", "figure", "ltd", "map",
    "page", "phone", "project", "report", "year", "within",
})


def load_base_stopwords() -> frozenset[str]:
    """Read the vendored 179-word English stop-word list."""
    data = resources.files("topickit.data").joinpath("stopwords_en.txt").read_text("utf-8")
    return frozenset(line.strip() for line in data.splitlines() if line.strip())


@dataclass(frozen=True)
class StopwordList:
    """Base English stop-words plus the configurable domain extras."""

    base: frozenset[str] = field(default_factory=load_base_stopwords)
    extra: frozenset[str] = EXTRA_STOPWORDS

    def __post_init__(self):
        for name in ("base", "extra"):
            object.__setattr__(self, name, _word_set(name, getattr(self, name)))

    def __contains__(self, token: str) -> bool:
        return token in self.base or token in self.extra

    @classmethod
    def with_extra(cls, extra_terms) -> "StopwordList":
        """Default base list with additional extras appended (lowercased)."""
        return cls(extra=EXTRA_STOPWORDS | _word_set("extra_terms", extra_terms))


def _word_set(name: str, words) -> frozenset[str]:
    """The words lowercased, as tokens are; a bare string would stand for its letters."""
    if isinstance(words, str):
        raise TypeError(f"{name} must be a collection of words, not the string {words!r}")
    return frozenset(w.lower() for w in words)


# Maximal runs of Unicode letters or digits; underscores and punctuation split.
_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)
# ASCII: letters lowercased, digits folded to "0" (no memo entry per number), the rest spaces.
_ASCII_RUNS = str.maketrans({chr(c): chr(c).lower() if chr(c).isalpha() else
                             "0" if chr(c).isdigit() else " " for c in range(128)})


def _runs(text: str) -> list[str]:
    if text.isascii():
        return text.translate(_ASCII_RUNS).split()
    return list(map(str.lower, _WORD_RE.findall(text)))  # split first: "İ".lower() adds U+0307


def tokenize(text: str) -> list[str]:
    """Split text into lowercase tokens of length >= 3 with no digit in them.

    Tokens are maximal runs of Unicode letters and numeric characters; any
    run containing a character that ``str.isdigit`` accepts ("3", "²", "٣")
    is discarded whole (so "2nd" contributes nothing rather than "nd"),
    while numeric characters that are not digits ("½", "Ⅻ") stay in the
    token.  Punctuation and underscores never appear in the output, and
    surviving tokens are lowercased before the length filter.

    ``preprocess`` applies the same rule, once per distinct run (``_CodeMemo``).
    """
    return list(_TokenMemo().kept(text))


def remove_stopwords(tokens: list[str], stops: StopwordList) -> list[str]:
    """Drop stop-list members, preserving the order of the survivors."""
    return [t for t in tokens if t not in stops]


def preprocess(doc: RawDocument, stops: StopwordList | None = None) -> TokenizedDocument:
    """Run tokenise -> stop-word removal -> stemming on one document.

    A document whose token list ends up empty is returned as-is (callers
    flag it); it is never silently dropped here.
    """
    return preprocess_corpus([doc], stops)[0][0]


class _TokenMemo(dict):
    """Lowercase run -> token, or None for a run ``tokenize`` drops or a stop-word."""

    def __missing__(self, run: str) -> str | None:
        digit = not run.isalpha() and any(map(str.isdigit, run))
        self[run] = None if digit or len(run) < 3 else self._keep(run)
        return self[run]

    _keep = staticmethod(lambda token: token)

    def kept(self, text: str) -> Iterator:
        """The values of ``text``'s runs, in order, with each dropped run left out."""
        return filter(None, map(self.__getitem__, _runs(text)))


class _Codes(dict):
    """Stem -> integer code; an unseen stem gets the next code, so codes follow first sight."""

    def __missing__(self, stem: str) -> int:
        code = self[stem] = len(self)
        return code


class _CodeMemo(_TokenMemo):
    """Run -> its stem's code in ``codes`` plus one, so no kept run is falsy; None if dropped.
    One lookup tokenises, drops stop-words and stems, for the sweep (``prepare_corpus``) and
    the token route alike; ``stem`` is pure, and a memo lives for one corpus."""

    def __init__(self, stops: StopwordList):
        super().__init__(dict.fromkeys(stops.base | stops.extra))
        self.codes = _Codes()

    def _keep(self, token: str) -> int:
        return self.codes[stem(token)] + 1


def preprocess_corpus(
    docs: Iterable[RawDocument], stops: StopwordList | None = None
) -> tuple[list[TokenizedDocument], list[str]]:
    """Preprocess every document in input order, taking each from ``docs`` once, so a
    generator's texts can be freed one by one as they are coded (``_CodeMemo``, the sweep's
    memo) and mapped back to stems.

    Returns the tokenized documents (including empty ones) plus the ids of
    documents that became empty, which the caller reports (``prepare_corpus``
    names them in a notice).
    """
    # Each distinct run is judged and stemmed once: about 17k in 166k at 1000 report-like docs.
    memo = _CodeMemo(StopwordList() if stops is None else stops)
    stems, tokenized = [None], []  # code + 1 -> stem, as the sweep counts them
    for doc in docs:
        codes = list(memo.kept(doc.text))
        added = [*islice(reversed(memo.codes), len(memo.codes) + 1 - len(stems))]  # newest keys
        stems += reversed(added)
        tokenized.append(TokenizedDocument(doc.doc_id, tuple(map(stems.__getitem__, codes))))
    return tokenized, [t.doc_id for t in tokenized if t.is_empty]


def load_corpus(path: str | Path) -> list[RawDocument]:
    """Load raw documents from disk: a directory as a text directory, a file as JSON Lines.

    JSON Lines: one object per line with required keys doc_id, company_id, text and
    optional year, report_type, category.  A text directory: one document per ``*.txt``
    file (doc_id = file stem) and a sidecar ``manifest.csv`` with columns doc_id,
    company_id and optional year, report_type, category, one row per file.  Any other
    path, duplicate doc_ids, unknown or repeated keys or columns, invalid UTF-8, malformed
    records and a corpus with no documents are a CorpusError, naming the offending
    location first.  A sweep reads the same records, one at a time (``_read_corpus``).
    """
    return list(_read_corpus(path))


def _read_corpus(path: str | Path) -> Iterator[RawDocument]:
    """``load_corpus``'s records, each read and checked as it is asked for (a manifest first)."""
    path = Path(path)
    if path.is_dir():
        return _read_text_dir(path)
    if path.is_file():
        return _read_jsonl(path)
    what = "is not a file or a directory" if path.exists() else "does not exist"
    raise CorpusError(f"corpus path {what}: {path}")


def _coerce_year(value) -> int | None:
    """A year from an integer, an integral number or an integer string."""
    if value is None or (isinstance(value, int) and not isinstance(value, bool)):
        return value
    try:
        if isinstance(value, str) or (isinstance(value, float) and value.is_integer()):
            return int(value)
    except ValueError:
        pass
    raise CorpusError(f"year must be an integer, got {value!r}")


def has_lone_surrogate(text: str) -> bool:
    """Whether ``text`` holds a lone surrogate, legal in JSON ("\\ud800") and in a str but
    not in UTF-8.  Not a regex: compiling a surrogate range costs 128 KiB of peak RSS."""
    return not text.isascii() and len(text.encode("utf-8", "ignore").decode()) < len(text)


def _document(record: dict, where: str) -> RawDocument:
    """A RawDocument from a record whose fields have the types the formats allow."""
    try:
        for key in ("doc_id", "company_id"):
            if isinstance(record[key], bool) or not isinstance(record[key], (str, int)):
                raise CorpusError(f"{key} must be a string or an integer, got {record[key]!r}")
            if has_lone_surrogate(str(record[key])):  # no artifact could name it
                raise CorpusError(f"{key} holds a lone surrogate, got {record[key]!r}")
        if not isinstance(record["text"], str):
            raise CorpusError(f"text must be a string, got {record['text']!r}")
        for key in ("report_type", "category"):
            if not isinstance(record.get(key), (str, type(None))):
                raise CorpusError(f"{key} must be a string or null, got {record[key]!r}")
        return RawDocument(
            doc_id=str(record["doc_id"]),
            company_id=str(record["company_id"]),
            text=record["text"],
            year=_coerce_year(record.get("year")),
            report_type=record.get("report_type"),
            category=record.get("category"),
        )
    except CorpusError as exc:
        raise CorpusError(f"{where}: {exc}") from None


def _unique_keys(pairs: list[tuple]) -> dict:
    """A JSON object as a dict; a repeated key, of which ``dict`` keeps the last, is an error."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"repeated key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


# Built once: json.loads with a hook builds a decoder on every call.
STRICT_JSON = json.JSONDecoder(object_pairs_hook=_unique_keys)
RECORD_KEYS = ("doc_id", "company_id", "text", "year", "report_type", "category")


def _read_jsonl(path: Path) -> Iterator[RawDocument]:
    ids: set[str] = set()
    with open(path, "rb") as fh:  # JSON Lines: records end at b"\n"
        for lineno, raw in enumerate(fh, start=1):
            where = f"{path.name}:{lineno}"
            body = raw.removeprefix(b"\xef\xbb\xbf") if lineno == 1 else raw
            if not body.strip():  # a line holding only a BOM is blank too
                continue
            try:
                record = STRICT_JSON.decode(body.decode("utf-8"))
            except UnicodeDecodeError as exc:  # the offset counts a dropped BOM's bytes
                raise CorpusError(f"{where}: not valid UTF-8 at byte "
                                  f"{exc.start + len(raw) - len(body)}") from None
            except (ValueError, RecursionError) as exc:  # also huge integers, deep nesting
                raise CorpusError(f"{where}: malformed JSON ({getattr(exc, 'msg', exc)})") from None
            if not isinstance(record, dict):
                raise CorpusError(f"{where}: record is not an object")
            missing = [k for k in ("doc_id", "company_id", "text") if k not in record]
            if missing:
                raise CorpusError(f"{where}: missing required key(s) {', '.join(missing)}")
            unknown = [k for k in record if k not in RECORD_KEYS]
            if unknown:
                raise CorpusError(f"{where}: unknown key {unknown[0]!r}; "
                                  f"keys are {', '.join(RECORD_KEYS)}")
            doc = _document(record, where)
            if doc.doc_id in ids:
                raise CorpusError(f"{where}: duplicate doc_id {doc.doc_id!r}")
            ids.add(doc.doc_id)
            yield doc
    if not ids:
        raise CorpusError(f"{path.name}: no documents")


def _read_utf8(path: Path) -> str:
    """A file's text with its line ends as they are; a file that cannot be read
    or is not valid UTF-8 is a CorpusError."""
    try:
        return path.read_bytes().decode("utf-8")
    except OSError as exc:
        raise CorpusError(f"{path.name}: cannot read ({exc.strerror or exc})") from None
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path.name}: not valid UTF-8 at byte {exc.start}") from None


def _read_text_dir(path: Path) -> Iterator[RawDocument]:
    manifest = path / "manifest.csv"
    texts = {txt.stem: txt for txt in sorted(path.glob("*.txt"))}
    meta: dict[str, tuple[str, dict]] = {}  # doc_id -> (manifest line, row)
    # A leading BOM, as spreadsheet tools write one, would join the first column's name.
    reader = csv.DictReader(io.StringIO(_read_utf8(manifest).removeprefix("\ufeff"), newline=""))
    try:
        columns = reader.fieldnames or []
        if not {"doc_id", "company_id"} <= set(columns):
            raise CorpusError(f"{manifest.name}: header must include doc_id, company_id")
        known = [key for key in RECORD_KEYS if key != "text"]  # the file is the text
        for i, column in enumerate(columns):
            if column not in known:
                raise CorpusError(f"{manifest.name}: unknown column {column!r}; "
                                  f"columns are {', '.join(known)}")
            if column in columns[:i]:  # DictReader would keep the last
                raise CorpusError(f"{manifest.name}: repeated column {column!r}")
        for row in reader:
            where, doc_id = f"{manifest.name}:{reader.line_num}", row["doc_id"]
            if None in row:  # DictReader files the fields past the header under None
                raise CorpusError(f"{where}: {len(columns) + len(row[None])} fields, "
                                  f"the header has {len(columns)}")
            if doc_id in meta:
                raise CorpusError(f"{where}: duplicate doc_id {doc_id!r}")
            meta[doc_id] = where, row
    except csv.Error as exc:  # raised before DictReader counts the line; its reader has
        where = f"{manifest.name}:{reader.reader.line_num}"
        raise CorpusError(f"{where}: malformed CSV ({exc})") from None
    for doc_id, txt in texts.items():
        if doc_id not in meta:
            raise CorpusError(f"{txt.name}: no manifest row for doc_id {doc_id!r}")
    for doc_id, (where, _) in meta.items():
        if doc_id not in texts:
            raise CorpusError(f"{where}: no file {doc_id}.txt for doc_id {doc_id!r}")
    if not texts:
        raise CorpusError(f"{manifest.name}: no documents")

    for doc_id, txt in texts.items():
        where, row = meta[doc_id]
        record = {key: row.get(key) or None
                  for key in ("company_id", "year", "report_type", "category")}
        yield _document({**record, "doc_id": doc_id, "text": _read_utf8(txt)}, where)
