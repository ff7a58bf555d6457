import csv
import io
import json
import re
import string
from pathlib import Path

import numpy as np
import pytest

from topickit import cli, corpus
from topickit.cli import main
from topickit.corpus import (
    EXTRA_STOPWORDS,
    CorpusError,
    RawDocument,
    StopwordList,
    load_corpus,
    preprocess,
    preprocess_corpus,
    remove_stopwords,
    stem,
    tokenize,
)
from topickit.vectorize import prepare_corpus


def tokenize_oracle(text):
    """The tokeniser with the digit scan run over every token's characters."""
    out = []
    for match in re.finditer(r"[^\W_]+", text):
        token = match.group()
        if any(ch.isdigit() for ch in token):
            continue
        token = token.lower()
        if len(token) >= 3:
            out.append(token)
    return out


# Letters, digits that are not ASCII ("²", "٣", "３"), numerics that are not
# digits ("½", "Ⅻ"), "İ" (lowercases to two characters), a combining dot,
# a CJK letter and separators.
TOKENIZER_ALPHABET = list("abcdefghijklmnopqrstuvwxyzX_ -²½Ⅻ٣３İß三") + ["\u0307"]


class TestTokenize:
    def test_punctuation_digits_and_short_fragments(self):
        assert tokenize("The Coal-Seam, 2020!") == ["the", "coal", "seam"]

    def test_empty_input(self):
        assert tokenize("") == []

    def test_length_filter_and_lowercasing(self):
        assert tokenize("ab AB abc ABC") == ["abc", "abc"]

    def test_mixed_alphanumeric_tokens_discarded_whole(self):
        # "2nd" must not leave an "nd" fragment behind
        assert tokenize("the 2nd b2b x2 drill") == ["the", "drill"]

    def test_unicode_letters_kept(self):
        assert tokenize("café naïve") == ["café", "naïve"]

    def test_underscores_split(self):
        assert tokenize("coal_seam_gas") == ["coal", "seam", "gas"]

    @pytest.mark.parametrize("text, expected", [
        ("x²yz", []),  # "²" is a digit: the token goes whole
        ("abc½ Ⅻab", ["abc½", "ⅻab"]),  # numeric but not digits: kept
        ("İsx İs", ["i̇sx", "i̇s"]),  # length counted after lowercasing
        ("ab_cd ab-cd x٣yz ß三", []),  # short fragments and a digit token go
        ("abc３def ab٣ ok½", ["ok½"]),
    ])
    def test_unicode_digits_and_numerics(self, text, expected):
        assert tokenize(text) == expected == tokenize_oracle(text)

    def test_fast_path_matches_full_digit_scan(self, rng):
        for _ in range(2000):
            text = "".join(rng.choice(TOKENIZER_ALPHABET, size=int(rng.integers(0, 40))))
            assert tokenize(text) == tokenize_oracle(text), repr(text)

    def test_ascii_path_matches_oracle(self, rng):
        # ASCII text takes the one-regex path: both cases, digits, "_", "-",
        # punctuation and line breaks, letters drawn most often.
        alphabet = list(string.ascii_letters + string.digits + "_- .,;'\"\n\r\t")
        weights = np.array([10.0] * 52 + [2.0] * 10 + [3.0] * 11)
        for _ in range(2000):
            text = "".join(rng.choice(alphabet, size=int(rng.integers(0, 60)),
                                      p=weights / weights.sum()))
            assert text.isascii()
            assert tokenize(text) == tokenize_oracle(text), repr(text)

    @pytest.mark.parametrize("text, expected", [
        ("ab1cde", []),  # one run with a digit: no "cde" fragment
        ("AB_cde", ["cde"]),
        ("Coal\nseam\r\nGAS-well x1y", ["coal", "seam", "gas", "well"]),
    ])
    def test_ascii_path_pinned(self, text, expected):
        assert tokenize(text) == expected == tokenize_oracle(text)

    def test_one_non_ascii_character_takes_the_full_path(self):
        text = "Coal café, 2nd drill_hole ab1cde AB_cde naïve3 Ⅻab"
        assert not text.isascii()
        assert tokenize(text) == tokenize_oracle(text) \
            == ["coal", "café", "drill", "hole", "cde", "ⅻab"]

    @pytest.mark.parametrize("text", [
        "Exploration; of the basin-area (2020): 45km drilled!",
        "weird\ttabs\nand\r\nnewlines",
        "ALL CAPS TEXT WITH-HYPHENS",
        "númbers 123 und ümlauts",
        "",
    ])
    def test_idempotent(self, text):
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once


class TestStopwords:
    def test_base_list_size(self):
        assert len(StopwordList().base) == 179

    def test_extras_default(self):
        assert StopwordList().extra == EXTRA_STOPWORDS
        assert len(EXTRA_STOPWORDS) == 13

    def test_base_and_extra_removed(self):
        stops = StopwordList()
        assert remove_stopwords(["the", "coal", "report"], stops) == ["coal"]

    def test_empty(self):
        assert remove_stopwords([], StopwordList()) == []

    def test_domain_extras(self):
        stops = StopwordList()
        assert remove_stopwords(["project", "area", "seam"], stops) == ["seam"]

    def test_order_preserved(self):
        stops = StopwordList()
        tokens = ["seam", "the", "coal", "map", "drill"]
        assert remove_stopwords(tokens, stops) == ["seam", "coal", "drill"]

    def test_with_extra(self):
        stops = StopwordList.with_extra(["Coal", "seam"])
        assert "coal" in stops and "seam" in stops and "project" in stops

    def test_terms_given_directly_are_lowercased(self):
        stops = StopwordList(base=frozenset({"The", "of"}), extra=frozenset({"Coal"}))
        assert stops.base == {"the", "of"} and stops.extra == {"coal"}
        doc = RawDocument("r", "c", "Coal seam drill")
        only_coal = StopwordList(extra=frozenset({"Coal"}))
        assert preprocess(doc, only_coal).tokens == ("seam", "drill")
        assert preprocess_corpus([doc], only_coal)[0][0].tokens == ("seam", "drill")
        assert "coal" in only_coal and "the" in only_coal

    @pytest.mark.parametrize("build, named", [
        (lambda: StopwordList.with_extra("coal"), "extra_terms"),
        (lambda: StopwordList(extra="coal"), "extra"),
        (lambda: StopwordList(base="the"), "base"),
    ])
    def test_bare_string_is_rejected_naming_the_argument(self, build, named):
        # a string is a collection of its letters: "coal" would add c, o, a and l
        with pytest.raises(TypeError, match=f"^{named} must be a collection of words"):
            build()

    def test_commutes_with_length_filter(self, rng):
        # dropping short tokens and dropping stop-words commute
        stops = StopwordList()
        pool = ["the", "of", "coal", "seam", "ab", "xy", "project", "drill", "a"]
        for _ in range(50):
            tokens = rng.choice(pool, size=int(rng.integers(0, 15))).tolist()
            len_then_stop = remove_stopwords([t for t in tokens if len(t) >= 3], stops)
            stop_then_len = [t for t in remove_stopwords(tokens, stops) if len(t) >= 3]
            assert len_then_stop == stop_then_len


class TestPreprocess:
    def test_pipeline_composition(self):
        doc = RawDocument("r1", "c1", "Geological programs in the project area")
        result = preprocess(doc)
        assert result.tokens == ("geolog", "program")

    def test_all_stopwords_becomes_empty_and_flagged(self):
        doc = RawDocument("r1", "c1", "The of and or a an")
        result = preprocess(doc)
        assert result.is_empty
        _, empty_ids = preprocess_corpus([doc])
        assert empty_ids == ["r1"]

    def test_stopword_removal_precedes_stemming(self):
        # "reporting" stems to the extra stop-word "report" but survives
        # because the stop-word filter already ran; multiplicity is kept.
        doc = RawDocument("r1", "c1", "Reports reporting")
        result = preprocess(doc)
        assert result.tokens == ("report", "report")

    def test_stage_invariants_hold(self):
        stops = StopwordList()
        text = "Drilling 300 holes near the Project-Area; 2nd phase REPORTED!"
        tokens = tokenize(text)
        assert all(len(t) >= 3 and t.isalpha() and t == t.lower() for t in tokens)
        kept = remove_stopwords(tokens, stops)
        assert all(t not in stops for t in kept)
        doc = preprocess(RawDocument("r1", "c1", text), stops)
        assert all(t.isalpha() for t in doc.tokens)

    def test_corpus_stems_match_per_document_stems(self):
        # preprocess_corpus stems each distinct token once and reuses it
        # across documents; the tokens must equal the uncached path's.
        docs = [
            RawDocument("r1", "c1", "Drilling drilled drills; geology and geological maps"),
            RawDocument("r2", "c2", "Geological drilling relational rationalisation"),
            RawDocument("r3", "c1", "drilled DRILLING relational maps mapping"),
        ]
        tokenized, _ = preprocess_corpus(docs)
        assert [t.tokens for t in tokenized] == [preprocess(d).tokens for d in docs]
        assert tokenized[1].tokens[:2] == ("geolog", "drill")

    def test_fused_memo_matches_composed_stages(self, rng):
        # One memo lookup drops stop-words and stems; it must equal the public
        # stages composed.  "Drill" is an extra stop-word given in upper case,
        # so "drilling" (stem "drill") and "thes" (stem "the") must keep their
        # stems, and "reporting" survives the filter that drops "report".
        stops = StopwordList.with_extra(["Drill", "SEAM"])
        pool = ["the", "The", "drill", "DRILL", "drilling", "seam", "Seams", "thes",
                "report", "reporting", "Reports", "coal", "geology", "and", "of",
                "whos", "ab", "2nd", "basin", "project", "mapping"]
        docs = []
        for d in range(40):
            words = rng.choice(pool, size=int(rng.integers(1, 25)))
            docs.append(RawDocument(f"r{d}", "c1", " ".join(words) + "."))
        expected = [tuple(stem(t) for t in remove_stopwords(tokenize(doc.text), stops))
                    for doc in docs]
        tokenized, _ = preprocess_corpus(docs, stops)
        assert [t.tokens for t in tokenized] == expected
        assert [preprocess(doc, stops).tokens for doc in docs] == expected
        kept = {t for doc in expected for t in doc}
        assert {"drill", "the", "report", "seam"} <= kept  # all from inflections
        assert preprocess(RawDocument("r", "c", "Drill drilling thes the"), stops).tokens \
            == ("drill", "the")

    def test_matches_composed_stages_on_random_text(self, rng):
        # Half the texts are ASCII (the translate-and-split runs), half are not
        # (the Unicode regex): separators str.split() and the regex both see,
        # "İ" and a final sigma that lowercase by context, and stop-words in any case.
        ascii_pieces = [*string.ascii_letters, *string.digits, *string.punctuation,
                        "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", " ", " ",
                        "The", "AND", "the", "Drilling", "reports", "coal", "Seams", "x2"]
        pieces = ascii_pieces + TOKENIZER_ALPHABET + ["\u00a0", "\u2028", "ΟΔΟΣ", "İ"]
        stops = StopwordList()
        docs, expected = [], []
        for d in range(400):
            pool = ascii_pieces if d % 2 else pieces
            text = "".join(pool[i] for i in rng.integers(0, len(pool), int(rng.integers(1, 80))))
            text = text if text.strip() else text + "z"
            docs.append(RawDocument(f"r{d}", "c1", text))
            expected.append(tuple(map(stem, remove_stopwords(tokenize_oracle(text), stops))))
        assert sum(doc.text.isascii() for doc in docs) >= 200
        tokenized, _ = preprocess_corpus(docs, stops)
        assert [t.tokens for t in tokenized] == expected
        assert [preprocess(doc, stops).tokens for doc in docs] == expected
        kept = sum(map(len, expected))  # some tokens kept, some stop-words dropped
        assert 500 < kept < sum(len(tokenize_oracle(doc.text)) for doc in docs)

    def test_stem_called_once_per_distinct_kept_token(self, monkeypatch, tmp_path):
        calls = []
        monkeypatch.setattr("topickit.corpus.stem", lambda token: calls.append(token) or token)
        docs = [RawDocument("r1", "c1", "Drilling drilling DRILLING, the coal 2nd x2 The"),
                RawDocument("r2", "c1", "drilling Coal coal-seam seams Café CAFÉ café ab"),
                RawDocument("r3", "c1", "Seams 25 °C the drilling")]
        tokenized, _ = preprocess_corpus(docs)
        assert sorted(calls) == sorted({"drilling", "coal", "seam", "seams", "café"})
        assert tokenized[0].tokens == ("drilling",) * 3 + ("coal",)
        # The sweep's route, on the same records read from a file, stems the same runs once.
        path = tmp_path / "corpus.jsonl"
        path.write_text("".join(json.dumps({"doc_id": d.doc_id, "company_id": d.company_id,
                                            "text": d.text}) + "\n" for d in docs))
        calls.clear()
        prepared = prepare_corpus(path)
        assert sorted(calls) == sorted({"drilling", "coal", "seam", "seams", "café"})
        assert prepared.vocab.index_to_term[0] == "drilling"

    def test_mixed_case_stopword_dropped(self):
        doc = RawDocument("r1", "c1", "The coal THE seam tHe")
        assert preprocess(doc).tokens == ("coal", "seam")
        assert preprocess_corpus([doc])[0][0].tokens == ("coal", "seam")

    def test_non_ascii_runs_reach_the_memo_lowercased(self, monkeypatch):
        memos = []

        class Recording(corpus._CodeMemo):
            def __init__(self, *args):
                super().__init__(*args)
                memos.append(self)

        monkeypatch.setattr(corpus, "_CodeMemo", Recording)
        docs = [RawDocument("r1", "c1", "İSTANBUL Istanbul ΟΔΟΣ οδος ΣΑΣ Σας, 25 °C"),
                RawDocument("r2", "c1", "STRASSE Straße straße Ⅻvalue ⅫVALUE İİİ"),
                RawDocument("r3", "c1", "Drilling DRILLING drilling – THE Seams")]
        tokenized, _ = preprocess_corpus(docs)
        assert [t.tokens for t in tokenized] == [
            ("i̇stanbul", "istanbul", "οδος", "οδος", "σας", "σας"),
            ("strass", "straße", "straße", "ⅻvalu", "ⅻvalu", "i̇i̇i̇"),
            ("drill", "drill", "drill", "seam"),
        ]
        stops = StopwordList()
        runs = {"i̇stanbul", "istanbul", "οδος", "σας", "25", "c", "strasse", "straße",
                "ⅻvalue", "i̇i̇i̇", "drilling", "seams"}
        assert set(memos[0]) == runs | stops.base | stops.extra  # one key per lowercase run


class TestRawDocument:
    def test_empty_text_rejected(self):
        with pytest.raises(CorpusError, match="empty after trim"):
            RawDocument("r1", "c1", "   \n ")

    def test_empty_company_rejected(self):
        with pytest.raises(CorpusError, match="company_id"):
            RawDocument("r1", "", "coal")


class TestLoadJsonl:
    def test_two_records(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            json.dumps({"doc_id": "r1", "company_id": "c1", "text": "coal seam"}) + "\n"
            + json.dumps({"doc_id": "r2", "company_id": "c2", "text": "gold ore",
                          "year": 2015, "report_type": "annual"}) + "\n"
        )
        docs = load_corpus(path)
        assert [d.doc_id for d in docs] == ["r1", "r2"]
        assert docs[1].year == 2015
        assert docs[1].report_type == "annual"

    def test_leading_byte_order_mark_dropped(self, tmp_path):
        # Some editors start a UTF-8 file with a BOM; only line 1 may carry one.
        lines = [json.dumps({"doc_id": f"r{i}", "company_id": "c1", "text": f"coal seam {i}"})
                 for i in (1, 2)]
        path, bom = tmp_path / "corpus.jsonl", "\ufeff"
        path.write_text(lines[0] + "\n" + lines[1] + "\n", encoding="utf-8")
        plain = load_corpus(path)
        path.write_text(bom + lines[0] + "\n" + lines[1] + "\n", encoding="utf-8")
        assert load_corpus(path) == plain
        path.write_text(lines[0] + "\n" + bom + lines[1] + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=r"^corpus\.jsonl:2: malformed JSON"):
            load_corpus(path)
        # An invalid byte's offset counts the three bytes of the BOM before it.
        path.write_bytes(bom.encode() + b'{"doc\xff_id": "r1"}\n')
        with pytest.raises(CorpusError, match=r"^corpus\.jsonl:1: not valid UTF-8 at byte 8$"):
            load_corpus(path)

    def test_a_line_holding_only_a_byte_order_mark_is_blank(self, tmp_path):
        # Blankness is judged after the BOM is dropped, so both files load the same record.
        record = json.dumps({"doc_id": "r1", "company_id": "c1", "text": "coal seam"})
        plain, bom = tmp_path / "plain.jsonl", tmp_path / "bom.jsonl"
        plain.write_text("\n" + record + "\n", encoding="utf-8")
        bom.write_text("\ufeff\n" + record + "\n", encoding="utf-8")
        assert load_corpus(bom) == load_corpus(plain)
        assert [d.doc_id for d in load_corpus(bom)] == ["r1"]

    def test_duplicate_doc_id(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        record = json.dumps({"doc_id": "r1", "company_id": "c1", "text": "coal"})
        path.write_text(record + "\n" + record + "\n")
        with pytest.raises(CorpusError, match="duplicate doc_id 'r1'"):
            load_corpus(path)

    def test_empty_file_is_an_error(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        for text in ("", "\n \n"):
            path.write_text(text)
            with pytest.raises(CorpusError, match=r"^corpus\.jsonl: no documents$"):
                load_corpus(path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            json.dumps({"doc_id": "r1", "company_id": "c1", "text": "coal"}) + "\n"
            + "{not json}\n"
        )
        with pytest.raises(CorpusError, match="corpus.jsonl:2"):
            load_corpus(path)

    @pytest.mark.parametrize("line", ['{"doc_id": 1' + "0" * 5000 + "}", "[" * 100000],
                             ids=["huge-integer", "deep-nesting"])
    def test_unparsable_json_reports_line(self, tmp_path, line):
        path = tmp_path / "corpus.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(CorpusError, match=r"^corpus\.jsonl:1: malformed JSON"):
            load_corpus(path)

    def test_missing_key_reports_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps({"doc_id": "r1", "text": "coal"}) + "\n")
        with pytest.raises(CorpusError, match="company_id"):
            load_corpus(path)

    def test_empty_text_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps({"doc_id": "r1", "company_id": "c1", "text": " "}) + "\n")
        with pytest.raises(CorpusError, match="corpus.jsonl:1"):
            load_corpus(path)

    @pytest.mark.parametrize("key, value", [
        ("doc_id", None), ("doc_id", True), ("doc_id", 1.5),
        ("company_id", ["a"]), ("company_id", {"a": 1}), ("company_id", False),
        ("text", 12345), ("text", None),
        ("year", True), ("year", 2005.9), ("year", "2005.9"), ("year", [2005]),
        ("report_type", 7), ("category", 7), ("category", ["coal"]),
    ])
    def test_wrong_field_type_names_line_and_key(self, tmp_path, key, value):
        path = tmp_path / "corpus.jsonl"
        good = {"doc_id": "r1", "company_id": "c1", "text": "coal seam"}
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, "doc_id": "r2", key: value}))
        with pytest.raises(CorpusError, match=rf"^corpus\.jsonl:2: {key} must be"):
            load_corpus(path)

    def test_integer_ids_and_years_accepted(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            json.dumps({"doc_id": 12, "company_id": 7, "text": "coal", "year": "2005",
                        "report_type": None, "category": "coal"}) + "\n"
            + json.dumps({"doc_id": "r2", "company_id": "c1", "text": "gold", "year": 2006.0})
        )
        docs = load_corpus(path)
        assert (docs[0].doc_id, docs[0].company_id, docs[0].year) == ("12", "7", 2005)
        assert docs[0].report_type is None and docs[0].category == "coal"
        assert docs[1].year == 2006

    def test_duplicate_doc_id_names_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        record = {"doc_id": "r1", "company_id": "c1", "text": "coal"}
        path.write_text(json.dumps(record) + "\n" + json.dumps({**record, "doc_id": 1}) + "\n"
                        + json.dumps(record) + "\n")
        with pytest.raises(CorpusError, match=r"^corpus\.jsonl:3: duplicate doc_id 'r1'"):
            load_corpus(path)

    def test_missing_path(self, tmp_path):
        with pytest.raises(CorpusError, match="does not exist"):
            load_corpus(tmp_path / "nope.jsonl")

    @pytest.mark.skipif(not Path("/dev/null").exists(), reason="needs /dev/null")
    def test_path_neither_file_nor_directory(self):
        with pytest.raises(CorpusError, match="^corpus path is not a file or a directory: "):
            load_corpus("/dev/null")

    @pytest.mark.parametrize("record, key", [
        ('{"doc_id": "a", "company_id": "c", "text": "coal", "doc_id": "b"}', "doc_id"),
        ('{"doc_id": "b", "company_id": "c", "text": "coal", "x": {"y": 1, "y": 2}}', "y"),
    ])
    def test_repeated_key_names_line_and_key(self, tmp_path, record, key):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps({"doc_id": "r1", "company_id": "c1", "text": "coal"})
                        + "\n\n" + record + "\n")
        with pytest.raises(CorpusError, match=rf"^corpus\.jsonl:3: malformed JSON "
                                              rf"\(repeated key '{key}'\)$"):
            load_corpus(path)

    def test_unknown_key_names_line_and_key(self, tmp_path):
        path = tmp_path / "reports.jsonl"
        path.write_text(json.dumps({"doc_id": "r1", "company_id": "c1", "text": "coal",
                                    "catgory": "coal"}) + "\n")
        with pytest.raises(CorpusError, match=r"^reports\.jsonl:1: unknown key 'catgory'; keys "
                                              r"are doc_id, company_id, text, year, report_type, "
                                              r"category$"):
            load_corpus(path)


class TestLoadTextDir:
    def test_text_dir_with_manifest(self, tmp_path):
        (tmp_path / "b-doc.txt").write_text("gold ore body")
        (tmp_path / "a-doc.txt").write_text("coal seam gas")
        (tmp_path / "manifest.csv").write_text(
            "doc_id,company_id,year\na-doc,c1,2001\nb-doc,c2,\n"
        )
        docs = load_corpus(tmp_path)
        assert [d.doc_id for d in docs] == ["a-doc", "b-doc"]  # file-name order
        assert docs[0].company_id == "c1"
        assert docs[0].year == 2001
        assert docs[1].year is None

    def test_manifest_with_a_bom(self, tmp_path):
        (tmp_path / "a.txt").write_text("coal seam gas")
        (tmp_path / "manifest.csv").write_bytes(b"\xef\xbb\xbfdoc_id,company_id\r\na,c1\r\n")
        assert [(d.doc_id, d.company_id) for d in load_corpus(tmp_path)] == [("a", "c1")]

    def test_repeated_manifest_column(self, tmp_path):
        (tmp_path / "a.txt").write_text("coal seam gas")
        (tmp_path / "manifest.csv").write_text("doc_id,company_id,company_id\na,c1,c9\n")
        with pytest.raises(CorpusError, match=r"^manifest\.csv: repeated column 'company_id'$"):
            load_corpus(tmp_path)

    @pytest.mark.parametrize("header", ["doc_id,company_id,catgory", "doc_id,company_id,text",
                                        "doc_id,company_id,"])
    def test_unknown_manifest_column(self, tmp_path, header):
        (tmp_path / "a.txt").write_text("coal seam gas")
        (tmp_path / "manifest.csv").write_text(f"{header}\na,c1,coal\n")
        column = header.split(",")[-1]
        with pytest.raises(CorpusError, match=rf"^manifest\.csv: unknown column '{column}'; "
                                              r"columns are doc_id, company_id, year, "
                                              r"report_type, category$"):
            load_corpus(tmp_path)

    def test_row_longer_than_the_header(self, tmp_path):
        (tmp_path / "a.txt").write_text("coal seam gas")
        (tmp_path / "b.txt").write_text("gold ore body")
        (tmp_path / "manifest.csv").write_text("doc_id,company_id,year\na,c1,2005\n"
                                               "b,c2,2006,coal,annual\n")
        with pytest.raises(CorpusError, match=r"^manifest\.csv:3: 5 fields, the header has 3$"):
            load_corpus(tmp_path)

    def test_no_documents(self, tmp_path):
        (tmp_path / "manifest.csv").write_text("doc_id,company_id\n")
        with pytest.raises(CorpusError, match=r"^manifest\.csv: no documents$"):
            load_corpus(tmp_path)

    def test_missing_manifest(self, tmp_path):
        (tmp_path / "a.txt").write_text("coal")
        with pytest.raises(CorpusError, match="manifest"):
            load_corpus(tmp_path)

    def test_unlisted_document(self, tmp_path):
        (tmp_path / "a.txt").write_text("coal")
        (tmp_path / "manifest.csv").write_text("doc_id,company_id\nother,c1\n")
        with pytest.raises(CorpusError, match="no manifest row"):
            load_corpus(tmp_path)

    def test_duplicate_manifest_row(self, tmp_path):
        (tmp_path / "a.txt").write_text("coal")
        (tmp_path / "manifest.csv").write_text("doc_id,company_id\na,c1\na,c2\n")
        with pytest.raises(CorpusError, match=r"manifest\.csv:3: duplicate doc_id 'a'"):
            load_corpus(tmp_path)

    def test_manifest_row_without_text_file(self, tmp_path):
        (tmp_path / "a.txt").write_text("coal")
        (tmp_path / "manifest.csv").write_text("doc_id,company_id\na,c1\nghost,c3\n")
        with pytest.raises(CorpusError, match=r"manifest\.csv:3: no file ghost\.txt .*'ghost'"):
            load_corpus(tmp_path)

    def test_metadata_errors_name_manifest_line(self, tmp_path):
        (tmp_path / "a.txt").write_text("coal")
        (tmp_path / "b.txt").write_text("gold")
        (tmp_path / "manifest.csv").write_text("doc_id,company_id,year\na,c1,2001\nb\n")
        with pytest.raises(CorpusError, match=r"^manifest\.csv:3: .*company_id"):
            load_corpus(tmp_path)
        (tmp_path / "manifest.csv").write_text("doc_id,company_id,year\na,c1,2001\nb,c2,x\n")
        with pytest.raises(CorpusError, match=r"^manifest\.csv:3: year must be"):
            load_corpus(tmp_path)

    @pytest.mark.parametrize("line", [2, 4])
    def test_oversized_field_names_its_line(self, tmp_path, line):
        """csv raises on a field past its 131,072-character limit before DictReader has
        counted the line, so the count comes from the underlying reader; line 1 is the
        header."""
        rows = ["doc_id,company_id"] + [f"d{i},c1" for i in range(4)]
        for i in range(4):
            (tmp_path / f"d{i}.txt").write_text("coal")
        rows[line - 1] = f"d{line - 2},{'x' * 140_000}"
        (tmp_path / "manifest.csv").write_text("\n".join(rows) + "\n")
        with pytest.raises(CorpusError, match=rf"^manifest\.csv:{line}: malformed CSV \(field "
                                              r"larger than field limit \(131072\)\)$"):
            load_corpus(tmp_path)

    def test_duplicate_reported_before_missing_file(self, tmp_path):
        (tmp_path / "a.txt").write_text("coal")
        (tmp_path / "manifest.csv").write_text("doc_id,company_id\na,c1\na,c2\nghost,c3\n")
        with pytest.raises(CorpusError, match=r"manifest\.csv:3: duplicate doc_id 'a'"):
            load_corpus(tmp_path)


# A CorpusError message starts with the file (and line) it is about.
_LOCATED = re.compile(r"^(corpus\.jsonl(:\d+)?|manifest\.csv(:\d+)?|[\w-]+\.txt): ")
_ODD_VALUES = [None, True, 12, 2005.9, float("nan"), "", " ", "x", "2005", ["a"], {"a": 1}]
_ODD_FIELDS = [*map(str, _ODD_VALUES), "x" * 140_000]
_BAD_BYTES = [b"\xff\xfe", b"\xc3", b"\x80", b"\x00", b"\n", b'"', b","]


def _valid_records(n):
    return [{"doc_id": f"r{i}", "company_id": f"c{i % 3}", "text": f"coal seam gold ore {i}",
             "year": 2000 + i, "report_type": "annual", "category": "coal"} for i in range(n)]


def _insert_bytes(rng, data: bytes) -> bytes:
    at = int(rng.integers(0, len(data) + 1))
    return data[:at] + _BAD_BYTES[rng.integers(len(_BAD_BYTES))] + data[at:]


def _assert_loads_or_locates(path):
    try:
        load_corpus(path)
    except CorpusError as exc:
        assert _LOCATED.match(str(exc)), str(exc)


class TestMalformedInput:
    """Seeded mutations of valid corpora: every load succeeds or fails with a location."""

    def test_jsonl(self, tmp_path):
        rng = np.random.default_rng(20240531)
        path = tmp_path / "corpus.jsonl"
        for _ in range(300):
            records = _valid_records(5)
            for _ in range(int(rng.integers(1, 4))):
                record = records[rng.integers(len(records))]
                mutation = rng.integers(3)
                if mutation == 0 and record:
                    record.pop(list(record)[rng.integers(len(record))])
                elif mutation == 1 and record:
                    key = list(record)[rng.integers(len(record))]
                    record[key] = _ODD_VALUES[rng.integers(len(_ODD_VALUES))]
                else:
                    record["doc_id"] = records[rng.integers(len(records))].get("doc_id", 0)
            lines = [json.dumps(r).encode() for r in records]
            if rng.random() < 0.3:
                at = rng.integers(len(lines))
                lines[at] = lines[at][:rng.integers(len(lines[at]))]
            data = b"\n".join(lines) + b"\n"
            if rng.random() < 0.3:
                data = _insert_bytes(rng, data)
            path.write_bytes(data)
            _assert_loads_or_locates(path)

    def test_text_dir(self, tmp_path):
        rng = np.random.default_rng(20240601)
        for trial in range(150):
            root = tmp_path / f"t{trial}"
            root.mkdir()
            records = _valid_records(4)
            for r in records:
                (root / f"{r['doc_id']}.txt").write_text(r["text"], encoding="utf-8")
            columns = ["doc_id", "company_id", "year", "report_type", "category"]
            rows = [[str(r[c]) for c in columns] for r in records]
            for _ in range(int(rng.integers(1, 4))):
                row = rows[rng.integers(len(rows))]
                mutation = rng.integers(5)
                if mutation == 0 and row:
                    row.pop(rng.integers(len(row)))  # a short row
                elif mutation == 1:
                    columns.pop(rng.integers(len(columns)))  # drop a header key
                elif mutation == 2 and row:  # also a field past csv's 131,072-character limit
                    row[rng.integers(len(row))] = _ODD_FIELDS[rng.integers(len(_ODD_FIELDS))]
                elif mutation == 3 and row:
                    source = rows[rng.integers(len(rows))]
                    row[0] = source[0] if source else "r0"  # a repeated id
                else:
                    txt = sorted(root.glob("*.txt"))[rng.integers(4)]
                    txt.write_bytes(_insert_bytes(rng, txt.read_bytes()) if rng.random() < 0.7
                                    else b"  \n")
            out = io.StringIO()
            csv.writer(out, lineterminator="\n").writerows([columns, *rows])
            data = out.getvalue().encode()
            if rng.random() < 0.2:
                data = data[:rng.integers(len(data))]
            if rng.random() < 0.3:
                data = _insert_bytes(rng, data)
            (root / "manifest.csv").write_bytes(data)
            _assert_loads_or_locates(root)

    def test_structure(self, tmp_path, capsys, monkeypatch):
        """Repeated keys and columns, a BOM, empty files, CRLF line ends, NUL bytes, a record
        that is not an object, an empty doc_id and a manifest field past csv's limit.  A
        corpus that does not load fails in ``main`` with its one line, before any fit."""
        rng = np.random.default_rng(20261020)
        fitted = []
        monkeypatch.setattr(cli, "_run_cell", lambda *args: fitted.append(args))
        errors = []
        for trial in range(200):
            root = tmp_path / f"t{trial}"
            root.mkdir()
            records = _valid_records(4)
            oversized = None  # the line of an oversized manifest field
            if trial % 2:
                corpus = root / "corpus.jsonl"
                lines = [json.dumps(r) for r in records]
                at = int(rng.integers(len(lines)))
                mutation = rng.integers(6)
                if mutation == 0:  # a key again, at the top or inside an object
                    key = ("doc_id", "company_id", "text", "year")[rng.integers(4)]
                    lines[at] = lines[at][:-1] + (f', "{key}": "r9"}}' if rng.random() < 0.5
                                                  else ', "x": {"a": 1, "a": 2}}')
                elif mutation == 1:
                    lines = [] if rng.random() < 0.5 else ["", " "]
                elif mutation == 2:
                    lines[at] = lines[at].replace('"text": "', '"text": "\0')
                elif mutation == 3:
                    lines[at] = "[1, 2]"
                elif mutation == 4:
                    lines[at] = json.dumps({**records[at], "doc_id": ""})
                files = {corpus: "\n".join(lines).encode() + b"\n"}
            else:
                corpus = root
                columns = ["doc_id", "company_id", "year", "report_type", "category"]
                rows = [[str(r[c]) for c in columns] for r in records]
                texts = {root / f"{r['doc_id']}.txt": r["text"].encode() for r in records}
                mutation = rng.integers(5)
                if mutation == 0:  # a header column again, with values of its own
                    at = int(rng.integers(len(columns)))
                    columns.append(columns[at])
                    for row in rows:
                        row.append(f"{row[at]}9")
                elif mutation == 1:  # a header and no rows, with or without the text files
                    rows = []
                    texts = {} if rng.random() < 0.5 else texts
                elif mutation == 2:
                    txt = list(texts)[rng.integers(len(texts))]
                    texts[txt] = texts[txt][:2] + b"\0" + texts[txt][2:]
                elif mutation == 3:
                    at = int(rng.integers(len(rows)))
                    rows[at][rng.integers(1, len(columns))] = "x" * 140_000
                    oversized = at + 2
                out = io.StringIO()
                csv.writer(out, lineterminator="\n").writerows([columns, *rows])
                manifest = out.getvalue().encode()
                if rng.random() < 0.3:
                    manifest = manifest.replace(b"\n", b"\0\n", 1)
                if rng.random() < 0.5:
                    manifest = b"\xef\xbb\xbf" + manifest
                files = {**texts, root / "manifest.csv": manifest}
            for path, data in files.items():
                path.write_bytes(data.replace(b"\n", b"\r\n") if rng.random() < 0.3 else data)
            try:
                load_corpus(corpus)
            except CorpusError as exc:
                assert _LOCATED.match(str(exc)), str(exc)
                if "field larger than field limit" in str(exc):
                    assert str(exc).startswith(f"manifest.csv:{oversized}: malformed CSV")
                errors.append(str(exc))
                assert main(["--corpus", str(corpus), "--out", str(root / "out")]) == 2
                printed = capsys.readouterr()
                assert printed.out == f"corpus error: {exc}\n", printed.out
                assert "Traceback" not in printed.err
        assert fitted == [] and 20 < len(errors) < 180
        for kind in ("repeated key", "repeated column", "control character", "no manifest row",
                     "corpus.jsonl: no documents", "manifest.csv: no documents",
                     "unknown column 'category\\x00'", "record is not an object",
                     "doc_id must be non-empty", "field larger than field limit"):
            assert any(kind in error for error in errors), kind
