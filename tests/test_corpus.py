from __future__ import annotations

import json
import sys
import unicodedata
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexgrade.corpus import (
    DocType,
    DocumentRecord,
    Domain,
    _prose_lines,
    analyze_corpus,
    analyze_document,
    clean_text,
    directory_resolver,
    load_manifest,
)
from lexgrade.errors import (
    CorpusAnalysisError,
    DegenerateTextError,
    ManifestError,
)
from lexgrade.indices import GRADE_FIELDS, grade_metrics
from lexgrade.segmenter import scan
from lexgrade.stats import corpus_statistics, cronbach_alpha, per_year_aggregate

sys.path.insert(0, str(Path(__file__).parent))
import corpus_reference as reference  # noqa: E402


def record(doc_id="32016R0679", doc_type=DocType.REGULATION, year=2016,
           domain=Domain.PERSONAL_DATA_PRIVACY) -> DocumentRecord:
    return DocumentRecord(
        id=doc_id,
        doc_type=doc_type,
        year=year,
        title="Example document",
        domain=domain,
        source=f"{doc_id}.txt",
    )


def grade_columns(rows) -> dict:
    """corpus_statistics' columns: the rows' GradeVectors, transposed once."""
    grades = (tuple(r.grades) for r in rows)
    return dict(zip(GRADE_FIELDS, zip(*grades)))


MANIFEST_HEADER = "id,doc_type,year,title,domain,source\n"


def write_manifest(path, rows):
    path.write_text(MANIFEST_HEADER + "".join(r + "\n" for r in rows),
                    encoding="utf-8")


class TestLoadManifest:
    def test_two_valid_rows(self, tmp_path):
        manifest = tmp_path / "m.csv"
        write_manifest(manifest, [
            "32016R0679,Regulation,2016,GDPR,PersonalDataPrivacy,32016R0679.txt",
            "32002L0058,Directive,2002,ePrivacy,ElectronicCommunications,32002L0058.txt",
        ])
        records = load_manifest(manifest)
        assert len(records) == 2
        assert records[0].doc_type is DocType.REGULATION
        assert records[1].year == 2002
        assert records[1].domain is Domain.ELECTRONIC_COMMUNICATIONS

    def test_excluded_doc_type_rejected(self, tmp_path):
        manifest = tmp_path / "m.csv"
        write_manifest(manifest, [
            "11957E,Treaty,1957,Rome,GeneralRules,11957E.txt",
        ])
        with pytest.raises(ManifestError, match="Treaty.*Directive"):
            load_manifest(manifest)

    def test_duplicate_id_named(self, tmp_path):
        manifest = tmp_path / "m.csv"
        write_manifest(manifest, [
            "32016R0679,Regulation,2016,A,PersonalDataPrivacy,a.txt",
            "32016R0679,Regulation,2016,B,PersonalDataPrivacy,b.txt",
        ])
        with pytest.raises(ManifestError, match="32016R0679"):
            load_manifest(manifest)

    def test_error_carries_row_number(self, tmp_path):
        manifest = tmp_path / "m.csv"
        write_manifest(manifest, [
            "a,Regulation,2016,A,PersonalDataPrivacy,a.txt",
            "b,Regulation,20XX,B,PersonalDataPrivacy,b.txt",
        ])
        with pytest.raises(ManifestError, match="row 3"):
            load_manifest(manifest)

    def test_bad_header(self, tmp_path):
        manifest = tmp_path / "m.csv"
        manifest.write_text("id,type,year\nx,y,z\n", encoding="utf-8")
        with pytest.raises(ManifestError, match="header"):
            load_manifest(manifest)

    def test_unknown_domain(self, tmp_path):
        manifest = tmp_path / "m.csv"
        write_manifest(manifest, [
            "a,Regulation,2016,A,Fisheries,a.txt",
        ])
        with pytest.raises(ManifestError, match="Fisheries"):
            load_manifest(manifest)

    def test_json_manifest(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([
            {
                "id": "32016R0679",
                "doc_type": "Regulation",
                "year": 2016,
                "title": "GDPR",
                "domain": "PersonalDataPrivacy",
                "source": "32016R0679.txt",
            }
        ]), encoding="utf-8")
        records = load_manifest(manifest)
        assert records[0].id == "32016R0679"

    @pytest.mark.parametrize(
        "year, accepted",
        [("0999", False), ("0000", False), ("1000", True), ("9999", True),
         ("\u0662\u0660\u0661\u0666", False), ("\uff12\uff10\uff11\uff16", False)],
    )
    def test_year_range(self, tmp_path, year, accepted):
        csv_manifest = tmp_path / "m.csv"
        write_manifest(csv_manifest, [f"a,Regulation,{year},A,GeneralRules,a.txt"])
        json_manifest = tmp_path / "m.json"
        json_manifest.write_text(json.dumps([{
            "id": "a", "doc_type": "Regulation", "year": year,
            "title": "A", "domain": "GeneralRules", "source": "a.txt",
        }]), encoding="utf-8")
        for manifest, where in ((csv_manifest, "row 2"), (json_manifest, "entry 1")):
            if accepted:
                assert load_manifest(manifest)[0].year == int(year)
            else:
                with pytest.raises(ManifestError, match=f"{where}: year '{year}'"):
                    load_manifest(manifest)

    def test_unsupported_extension(self, tmp_path):
        path = tmp_path / "m.yaml"
        path.write_text("id: x\n", encoding="utf-8")
        with pytest.raises(ManifestError, match="format"):
            load_manifest(path)


class TestCleanText:
    def test_control_chars_and_whitespace(self):
        assert clean_text("a\u0000  b") == "a b"

    def test_masthead_line_dropped(self):
        raw = "Article 1\nOfficial Journal of the European Union\nScope."
        assert clean_text(raw) == "Article 1 Scope."

    def test_page_marker_dropped(self):
        raw = "One.\n\nL 119/2\n\nTwo."
        assert clean_text(raw) == "One.\n\nTwo."
        # The page header's date line and a lone language code go too.
        assert clean_text("One.\n12.5.2016 EN\nTwo.") == "One. Two."
        assert clean_text("One.\n EN \nTwo.") == "One. Two."

    def test_idempotent(self):
        cleaned = clean_text("Some  text.\n\n\nMore \t text.")
        assert clean_text(cleaned) == cleaned

    def test_paragraph_breaks_preserved(self):
        assert clean_text("One.\n\nTwo.") == "One.\n\nTwo."


# Every control character, CR/LF pairs, masthead lines and surrogates,
# mixed with arbitrary code points.
_CONTROL_PIECES = [chr(c) for c in (*range(32), 127)] + [
    "\r\n", "\u2028", "\xa0", "\x85", "EN", "L 119/1", "4.5.2016 EN",
    "Official Journal of the European Union", "\ud83d", "\ude00", "e\u0301",
]
_raw_texts = st.lists(
    st.one_of(
        st.characters(min_codepoint=0, max_codepoint=0x10FFFF, exclude_categories=()),
        st.sampled_from(_CONTROL_PIECES),
        st.text(max_size=8),
    ),
    max_size=60,
).map("".join)


class TestCleanTextReference:
    """clean_text against the per-character dict map of corpus_reference."""

    @settings(max_examples=500, deadline=None)
    @given(_raw_texts)
    def test_matches_reference(self, raw):
        assert clean_text(raw) == reference.clean_text(raw)

    def test_every_code_point(self):
        # CR is left out, so U+000A is the one line break; the Hypothesis
        # test above covers CR and CRLF.
        raw = "".join(chr(c) for c in range(0x110000) if c != 0x0D)
        assert clean_text(raw) == reference.clean_text(raw)


# Pieces of the boilerplate shapes, and whitespace that str.split and \s
# treat alike though only "\n" ends a kept line: NBSP, NEL, LINE
# SEPARATOR, IDEOGRAPHIC SPACE and FS, a C0 control that becomes a space.
_SHAPE_PIECES = [
    "L", "C", "E", "N", "EN", " ", "\t", "1", "12", "119", "2016", ".", "/",
    "4.5.2016", "12.12.2020", "L 119/1", "C202/47", "Official Journal of the European ",
    "Union", "Communities", "\xa0", "\x85", "\u2028", "\u3000", "\x1c", "a",
]
_shape_lines = st.lists(st.sampled_from(_SHAPE_PIECES), max_size=10).map("".join)
_long_line = st.lists(
    st.sampled_from(["Article", "5(1)", "Art.", "data.", "processing", "Regulation",
                     "(EU)", "2016/679", "élan", "naïve", "'shall'", "EN", "L", "."]),
    min_size=20, max_size=200,
).map(" ".join)
# Long prose lines with boilerplate and blank lines among them.
_documents = st.lists(
    st.one_of(_long_line, _shape_lines, st.sampled_from(["", " \t", "\r", "\x85"])),
    max_size=30,
).map("\n".join)


def _reference_kept_lines(raw: str) -> list[str]:
    """_prose_lines spelled with corpus_reference's map and four searches."""
    text = unicodedata.normalize("NFC", raw).replace("\r\n", "\n").replace("\r", "\n")
    return [
        line for line in text.translate(reference._CONTROL).split("\n")
        if not any(p.search(line) for p in reference._BOILERPLATE)
    ]


class TestKeptLines:
    """analyze_document grades the kept lines, clean_text their display form."""

    @settings(max_examples=500, deadline=None)
    @given(st.lists(_shape_lines, max_size=6).map("\n".join))
    def test_filter_matches_four_searches(self, raw):
        assert _prose_lines(raw) == _reference_kept_lines(raw)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(_raw_texts, _documents))
    def test_grades_equal_clean_text_grades(self, raw):
        try:
            expected = grade_metrics(clean_text(raw))
        except DegenerateTextError:
            with pytest.raises(DegenerateTextError, match="32016R0679"):
                analyze_document(record(), raw)
        else:
            assert analyze_document(record(), raw) == expected

    def test_data_texts(self, data_dir):
        for path in sorted(data_dir.rglob("*.txt")):
            raw = path.read_text(encoding="utf-8")
            assert _prose_lines(raw) == _reference_kept_lines(raw)
            assert analyze_document(record(), raw) == grade_metrics(clean_text(raw))


class TestAnalyzeDocument:
    def test_matches_direct_pipeline(self, data_dir):
        text = (data_dir / "fixture_paragraph.txt").read_text()
        metrics, grades = analyze_document(record(), text)
        assert metrics == scan(clean_text(text))[0]
        assert grades == grade_metrics(clean_text(text))[1]

    def test_whitespace_only_carries_id(self):
        with pytest.raises(DegenerateTextError, match="32016R0679"):
            analyze_document(record(), "   \n\n   ")

    def test_text_only_dependence(self, data_dir):
        text = (data_dir / "fixture_paragraph.txt").read_text()
        first = analyze_document(record(doc_id="a"), text)
        second = analyze_document(
            record(doc_id="b", doc_type=DocType.COM, year=1999), text
        )
        assert first == second


def _three_doc_corpus(tmp_path):
    texts = tmp_path / "texts"
    texts.mkdir()
    contents = {
        "doc1": "The court heard the case. The ruling was short and clear.",
        "doc2": (
            "This regulation establishes comprehensive requirements concerning "
            "electronic communication infrastructure and imposes significant "
            "obligations on every institutional operator. Nevertheless the "
            "administrative authorities retain considerable discretionary "
            "jurisdiction. Merely procedural derogations require notification."
        ),
        "doc3": (
            "Members shall consider the proposal. The committee will report "
            "on the implementation of the programme. Simple words help."
        ),
    }
    for doc_id, text in contents.items():
        (texts / f"{doc_id}.txt").write_text(text, encoding="utf-8")
    records = [
        record(doc_id="doc1", year=1995),
        record(doc_id="doc2", year=1995, doc_type=DocType.DIRECTIVE),
        record(doc_id="doc3", year=2016, doc_type=DocType.COM),
    ]
    return records, texts


class TestAnalyzeCorpus:
    def test_three_docs_statistics_self_consistent(self, tmp_path):
        records, texts = _three_doc_corpus(tmp_path)
        report = analyze_corpus(records, directory_resolver(texts))
        assert [r.record.id for r in report.rows] == ["doc1", "doc2", "doc3"]
        assert report.failures == []

        statistics = corpus_statistics(grade_columns(report.rows))
        g1 = [r.grades.g1_flesch_kincaid for r in report.rows]
        g2 = [r.grades.g2_smog for r in report.rows]
        g3 = [r.grades.g3_ari for r in report.rows]
        assert statistics.alpha == cronbach_alpha([g1, g2, g3])

        # The exact mean of (g1 + g2 + g3) / 3 over the three documents.
        assert statistics.summary["sum_variable"].mean == float(
            Fraction(sum(g1) + sum(g2) + sum(g3), 3 * 3)
        )
        by_year = per_year_aggregate(
            {"year": [r.record.year for r in report.rows], **grade_columns(report.rows)}
        )
        assert [row.year for row in by_year] == [1995, 2016]
        assert by_year[0].count == 2

    def test_single_doc_notes_small_n(self, tmp_path):
        records, texts = _three_doc_corpus(tmp_path)
        report = analyze_corpus(records[:1], directory_resolver(texts))
        statistics = corpus_statistics(grade_columns(report.rows))
        assert statistics.correlations is None
        assert statistics.correlations_note == "n < 2"
        assert statistics.alpha is None

    def test_missing_text_is_reported_not_raised(self, tmp_path):
        records, texts = _three_doc_corpus(tmp_path)
        (texts / "doc2.txt").unlink()
        report = analyze_corpus(records, directory_resolver(texts))
        assert len(report.rows) == 2
        assert len(report.failures) == 1
        assert report.failures[0].id == "doc2"

    def test_all_failed_is_fatal(self, tmp_path):
        records, _ = _three_doc_corpus(tmp_path)
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(CorpusAnalysisError):
            analyze_corpus(records, directory_resolver(empty))

    def test_row_order_follows_manifest(self, tmp_path):
        records, texts = _three_doc_corpus(tmp_path)
        report = analyze_corpus(records[::-1], directory_resolver(texts))
        assert [r.record.id for r in report.rows] == ["doc3", "doc2", "doc1"]

    @given(st.lists(st.booleans(), min_size=1, max_size=12))
    @settings(max_examples=25)
    def test_no_silent_loss(self, availability):
        texts = {}
        records = []
        for i, available in enumerate(availability):
            doc_id = f"doc{i}"
            records.append(record(doc_id=doc_id, year=2000 + (i % 5)))
            if available:
                texts[doc_id] = "The court heard the case. It ruled quickly."

        def resolver(rec):
            try:
                return texts[rec.id]
            except KeyError:
                raise LookupError(f"no text for {rec.id}")

        if not any(availability):
            with pytest.raises(CorpusAnalysisError):
                analyze_corpus(records, resolver)
            return
        report = analyze_corpus(records, resolver)
        assert len(report.rows) + len(report.failures) == len(records)
        assert [r.record.id for r in report.rows] == [
            rec.id for rec, ok in zip(records, availability) if ok
        ]
