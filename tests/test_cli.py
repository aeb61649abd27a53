from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lexgrade import __version__
from lexgrade.cli import main
from lexgrade.fetcher import DEFAULT_BASE_URL, MAX_RETRIES
from lexgrade.results import ANALYZE_COLUMNS, table_text

sys.path.insert(0, str(Path(__file__).parent))
import stats_reference  # noqa: E402

MANIFEST = """id,doc_type,year,title,domain,source
doc1,Regulation,1995,First,GeneralRules,doc1.txt
doc2,Directive,1995,Second,ElectronicCommunications,doc2.txt
doc3,COM,2016,Third,PersonalDataPrivacy,doc3.txt
"""

TEXTS = {
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


@pytest.fixture
def corpus(tmp_path):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(MANIFEST, encoding="utf-8")
    texts = tmp_path / "texts"
    texts.mkdir()
    for doc_id, content in TEXTS.items():
        (texts / f"{doc_id}.txt").write_text(content, encoding="utf-8")
    return tmp_path


def read_csv_rows(path: Path) -> list[dict]:
    lines = [
        line
        for line in path.read_text(encoding="utf-8").splitlines()
        if not line.startswith("#")
    ]
    return list(csv.DictReader(lines))


class TestAnalyze:
    def test_three_rows_and_determinism(self, corpus, capsys):
        out = corpus / "results.csv"
        argv = [
            "analyze",
            "--manifest", str(corpus / "manifest.csv"),
            "--texts", str(corpus / "texts"),
            "--out", str(out),
        ]
        assert main(argv) == 0
        first = out.read_bytes()
        rows = read_csv_rows(out)
        assert [r["id"] for r in rows] == ["doc1", "doc2", "doc3"]
        assert tuple(rows[0]) == ANALYZE_COLUMNS

        assert main(argv) == 0
        assert out.read_bytes() == first

    def test_missing_text_exits_one_and_names_doc(self, corpus, capsys):
        (corpus / "texts" / "doc2.txt").unlink()
        out = corpus / "results.csv"
        code = main([
            "analyze",
            "--manifest", str(corpus / "manifest.csv"),
            "--texts", str(corpus / "texts"),
            "--out", str(out),
        ])
        assert code == 1
        assert "doc2" in capsys.readouterr().err
        assert len(read_csv_rows(out)) == 2

    def test_boilerplate_only_text_fails_once(self, corpus, capsys):
        # The reason names the document once, in its FAIL line.
        (corpus / "texts" / "doc2.txt").write_text(
            "Official Journal of the European Union\nL 119/1\nEN\n", encoding="utf-8"
        )
        argv = ["analyze", "--manifest", str(corpus / "manifest.csv"),
                "--texts", str(corpus / "texts"), "--out", str(corpus / "results.csv")]
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            "FAIL doc2: text has no measurable prose: sentence count is zero",
            "analyzed 2 of 3 documents",
        ]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_header_only_manifest_exits_one(self, corpus, capsys, fmt):
        # Nothing graded is a failed run, and --out holds the header alone.
        (corpus / "manifest.csv").write_text(MANIFEST.split("\n")[0] + "\n", encoding="utf-8")
        out = corpus / f"results.{fmt}"
        assert main([
            "analyze", "--manifest", str(corpus / "manifest.csv"),
            "--texts", str(corpus / "texts"), "--out", str(out), "--format", fmt,
        ]) == 1
        assert capsys.readouterr().err == "analyzed 0 of 0 documents\n"
        meta = {"lexgrade_version": __version__, "linsear_mode": "windowed"}
        assert out.read_text(encoding="utf-8") == table_text(fmt, meta, ANALYZE_COLUMNS, [])

    def test_linsear_mode_flips_only_g5(self, corpus, data_dir):
        divergent = (data_dir / "linsear_divergence.txt").read_text()
        (corpus / "texts" / "doc1.txt").write_text(divergent, encoding="utf-8")
        outputs = {}
        for mode in ("windowed", "compat"):
            out = corpus / f"results_{mode}.csv"
            assert main([
                "analyze",
                "--manifest", str(corpus / "manifest.csv"),
                "--texts", str(corpus / "texts"),
                "--out", str(out),
                "--linsear-mode", mode,
            ]) == 0
            outputs[mode] = read_csv_rows(out)
        windowed, compat = outputs["windowed"], outputs["compat"]
        assert windowed[0]["g5_linsear"] != compat[0]["g5_linsear"]
        for w_row, c_row in zip(windowed, compat):
            for column in ANALYZE_COLUMNS:
                if column != "g5_linsear":
                    assert w_row[column] == c_row[column]

    def test_missing_manifest_is_config_error(self, corpus, capsys):
        code = main([
            "analyze",
            "--manifest", str(corpus / "nope.csv"),
            "--texts", str(corpus / "texts"),
            "--out", str(corpus / "r.csv"),
        ])
        assert code == 2
        # A manifest that is not UTF-8 is an input error too, not a failed document.
        latin1_csv = corpus / "latin1.csv"
        latin1_csv.write_bytes(MANIFEST.replace("First", "Premi\xe8re").encode("latin-1"))
        latin1_json = corpus / "latin1.json"
        latin1_json.write_bytes(b'[{"id": "doc1", "title": "\xff"}]')
        # An id no file name can hold, and a NUL in a CSV anywhere else.
        nul_csv = corpus / "nul.csv"
        nul_csv.write_text(MANIFEST.replace("doc2,", '"a\x00b",'), encoding="utf-8")
        nul_title_csv = corpus / "nul_title.csv"
        nul_title_csv.write_text(
            MANIFEST.replace("Second", '"Sec\nond \x00 title"'), encoding="utf-8"
        )
        nul_json = corpus / "nul.json"
        nul_json.write_text(json.dumps([{
            "id": "a\x00b", "doc_type": "COM", "year": 2016, "title": "T",
            "domain": "GeneralRules", "source": "a.txt",
        }]), encoding="utf-8")
        # JSON nested past the parser's recursion limit.
        deep_json = corpus / "deep.json"
        deep_json.write_text("[" * 100_000, encoding="utf-8")
        # A CSV field past csv.field_size_limit().
        long_csv = corpus / "long.csv"
        long_csv.write_text(MANIFEST.replace("Second", "x" * 200_000), encoding="utf-8")
        expected = {
            latin1_csv: f"{latin1_csv}: not UTF-8 text",
            latin1_json: f"{latin1_json}: not UTF-8 text",
            nul_csv: f"{nul_csv} line 3: a NUL character is not allowed",
            nul_title_csv: f"{nul_title_csv} line 4: a NUL character is not allowed",
            nul_json: f"{nul_json} entry 1: id must not hold a NUL character",
            deep_json: f"{deep_json}: invalid JSON (maximum recursion depth exceeded",
            long_csv: f"{long_csv} row 3: field larger than field limit (131072)",
        }
        # Ids that analyze would quote, or whose results row stats and
        # report would read as a `#` metadata line.
        bad_ids = ["do,c2", 'do"c2', "do\rc2", "do\nc2", "#1", "# linsear_mode: x"]
        for n, doc_id in enumerate(bad_ids):
            bad_csv, bad_json = corpus / f"id{n}.csv", corpus / f"id{n}.json"
            quoted = '"' + doc_id.replace('"', '""') + '",'
            bad_csv.write_bytes(MANIFEST.replace("doc2,", quoted).encode("utf-8"))
            bad_json.write_text(json.dumps([{
                "id": doc_id, "doc_type": "COM", "year": 2016, "title": "T",
                "domain": "GeneralRules", "source": "a.txt",
            }]), encoding="utf-8")
            rule = f"id {doc_id!r} must not hold a comma, a quote, CR or LF, or start with '#'"
            expected[bad_csv] = f"{bad_csv} row 3: {rule}"
            expected[bad_json] = f"{bad_json} entry 1: {rule}"
        # Years in digits other than ASCII, which results files refuse too.
        for n, year in enumerate(["\u0661\u0669\u0669\u0665", "\uff11\uff19\uff19\uff15"]):
            bad_csv, bad_json = corpus / f"year{n}.csv", corpus / f"year{n}.json"
            bad_csv.write_text(MANIFEST.replace("1995,Second", f"{year},Second"),
                               encoding="utf-8")
            bad_json.write_text(json.dumps([{
                "id": "a", "doc_type": "COM", "year": year, "title": "T",
                "domain": "GeneralRules", "source": "a.txt",
            }]), encoding="utf-8")
            expected[bad_csv] = f"{bad_csv} row 3: year '{year}' is not a 4-digit year"
            expected[bad_json] = f"{bad_json} entry 1: year '{year}' is not a 4-digit year"
        for manifest, message in expected.items():
            assert main([
                "analyze", "--manifest", str(manifest),
                "--texts", str(corpus / "texts"), "--out", str(corpus / "r.csv"),
            ]) == 2
            assert message in capsys.readouterr().err
        assert not (corpus / "r.csv").exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_nonascii_corpus_pinned(self, data_dir, tmp_path, fmt):
        # EUR-Lex-style texts with curly quotes, accents, euro signs, NBSP,
        # U+2028, stray control bytes, CR and CRLF line ends and mastheads.
        corpus = data_dir / "nonascii"
        out = tmp_path / f"results.{fmt}"
        assert main([
            "analyze", "--manifest", str(corpus / "manifest.csv"),
            "--texts", str(corpus / "texts"), "--out", str(out), "--format", fmt,
        ]) == 0
        assert out.read_bytes() == (corpus / f"results.{fmt}").read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_byte_order_marks_in_texts_are_skipped(self, data_dir, tmp_path, fmt):
        # A mark does not hide a first furniture line such as `4.5.2016 EN`
        # from the filter: the texts grade as they do without it. (32002L0058.txt
        # starts with a mark already; the second is graded as before.)
        corpus = data_dir / "nonascii"
        texts = tmp_path / "texts"
        texts.mkdir()
        for plain in (corpus / "texts").glob("*.txt"):
            (texts / plain.name).write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        out = tmp_path / f"results.{fmt}"
        assert main([
            "analyze", "--manifest", str(corpus / "manifest.csv"),
            "--texts", str(texts), "--out", str(out), "--format", fmt,
        ]) == 0
        assert out.read_bytes() == (corpus / f"results.{fmt}").read_bytes()

    def test_csv_json_parity(self, corpus):
        csv_out = corpus / "results.csv"
        json_out = corpus / "results.json"
        base = [
            "analyze",
            "--manifest", str(corpus / "manifest.csv"),
            "--texts", str(corpus / "texts"),
        ]
        assert main(base + ["--out", str(csv_out)]) == 0
        assert main(base + ["--out", str(json_out), "--format", "json"]) == 0

        payload = json.loads(json_out.read_text(encoding="utf-8"))
        csv_rows = read_csv_rows(csv_out)
        assert len(payload["rows"]) == len(csv_rows)
        for json_row, csv_row in zip(payload["rows"], csv_rows):
            for column in ANALYZE_COLUMNS:
                if column in ("id", "doc_type", "domain"):
                    assert json_row[column] == csv_row[column]
                else:
                    assert float(json_row[column]) == float(csv_row[column])
        meta_lines = [
            line
            for line in csv_out.read_text(encoding="utf-8").splitlines()
            if line.startswith("#")
        ]
        assert any("linsear_mode: windowed" in line for line in meta_lines)
        assert payload["meta"]["linsear_mode"] == "windowed"


def _run_analyze(corpus, fmt="csv") -> Path:
    out = corpus / f"results.{fmt}"
    assert main([
        "analyze",
        "--manifest", str(corpus / "manifest.csv"),
        "--texts", str(corpus / "texts"),
        "--out", str(out),
        "--format", fmt,
    ]) == 0
    return out


class TestStats:
    def test_values_match_brute_force(self, corpus):
        results = _run_analyze(corpus)
        out = corpus / "stats.json"
        assert main([
            "stats", "--results", str(results),
            "--out", str(out), "--format", "json",
        ]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))

        rows = read_csv_rows(results)
        g = {
            "flesch_kincaid": [int(r["g1_flesch_kincaid"]) for r in rows],
            "smog": [int(r["g2_smog"]) for r in rows],
            "ari": [int(r["g3_ari"]) for r in rows],
        }
        # The exact Fraction oracle, bit for bit.
        got = payload["correlations"]
        fk_index = got["labels"].index("flesch_kincaid")
        smog_index = got["labels"].index("smog")
        assert got["values"][fk_index][smog_index] == stats_reference.pearson(
            g["flesch_kincaid"], g["smog"]
        )
        assert payload["alpha"] == stats_reference.cronbach_alpha(list(g.values()))
        assert payload["meta"]["quantile_convention"].startswith("linear interpolation")
        assert payload["meta"]["linsear_mode"] == "windowed"

    def test_single_row_notes_small_n(self, corpus, tmp_path):
        results = _run_analyze(corpus)
        lines = results.read_text(encoding="utf-8").splitlines()
        kept = [l for l in lines if l.startswith("#")] + [
            l for l in lines if not l.startswith("#")
        ][:2]
        single = tmp_path / "single.csv"
        single.write_text("\n".join(kept) + "\n", encoding="utf-8")
        out = tmp_path / "stats.csv"
        assert main(["stats", "--results", str(single), "--out", str(out)]) == 0
        content = out.read_text(encoding="utf-8")
        assert "n < 2" in content

    def test_truncated_csv_is_format_error(self, corpus, tmp_path, capsys):
        results = _run_analyze(corpus)
        lines = results.read_text(encoding="utf-8").splitlines()
        lines[-1] = lines[-1].rsplit(",", 3)[0]  # cut fields off the last row
        broken = tmp_path / "broken.csv"
        broken.write_text("\n".join(lines) + "\n", encoding="utf-8")
        # A byte that is not UTF-8 in a row: an input error naming the file.
        latin1 = tmp_path / "latin1.csv"
        latin1.write_bytes(results.read_bytes().replace(b"doc2,", b"doc\xe9,"))
        latin1_json = tmp_path / "latin1.json"
        latin1_json.write_bytes(
            _run_analyze(corpus, fmt="json").read_bytes().replace(b'"doc2"', b'"doc\xe9"')
        )
        # JSON nested past the parser's recursion limit.
        deep_json = tmp_path / "deep.json"
        deep_json.write_text('{"rows": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
        expected = {
            broken: f"{broken} line ",
            latin1: f"{latin1}: not UTF-8 text (invalid continuation byte)",
            latin1_json: f"{latin1_json}: not UTF-8 text (invalid continuation byte)",
            deep_json: f"{deep_json}: invalid JSON (maximum recursion depth exceeded",
        }
        for results_file, message in expected.items():
            for command in ("stats", "report"):
                assert main([
                    command, "--results", str(results_file),
                    "--out", str(tmp_path / "s.csv"),
                ]) == 2
                assert message in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [("meta", [], "'meta' must be an object"), ("rows", 5, "'rows' must be a list"),
         # A meta value holds only what a CSV `# key: value` line can.
         *(("meta", {"linsear_mode": value}, "meta 'linsear_mode' must be a one-line string")
           for value in ({"a": [1]}, "x\ny", None, 5, "x\ry"))],
    )
    def test_json_structure_is_format_error(
        self, corpus, tmp_path, capsys, key, value, message
    ):
        results = _run_analyze(corpus, fmt="json")
        payload = json.loads(results.read_text(encoding="utf-8"))
        payload[key] = value
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(payload), encoding="utf-8")
        for command in ("stats", "report"):
            assert main([
                command, "--results", str(broken), "--out", str(tmp_path / "s.csv"),
            ]) == 2
            err = capsys.readouterr().err
            assert str(broken) in err and message in err

    @pytest.mark.parametrize(
        "column, value",
        [("year", 2016.9), ("g2_smog", 7.5), ("g1_flesch_kincaid", True), ("year", 2016.0),
         ("sum_variable", True), ("year", "2016")],
    )
    def test_json_non_integer_is_format_error(
        self, corpus, tmp_path, capsys, column, value
    ):
        results = _run_analyze(corpus, fmt="json")
        payload = json.loads(results.read_text(encoding="utf-8"))
        payload["rows"][1][column] = value
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(payload), encoding="utf-8")
        for command in ("stats", "report"):
            assert main([
                command, "--results", str(broken), "--out", str(tmp_path / "o.csv"),
            ]) == 2
            err = capsys.readouterr().err
            assert f"{broken} row 2: column '{column}' has non-numeric value {value!r}\n" in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize(
        "first_field, message",
        [
            ('"doc2', "a '\"' is not allowed (analyze writes no quoted fields)"),
            ('"' + "x" * 200_000 + '"', "a '\"' is not allowed (analyze writes no quoted fields)"),
            ("x" * 200_000, "field larger than field limit (131072)"),
        ],
        ids=["unclosed", "oversized", "oversized_unquoted"],
    )
    def test_unparsable_csv_row_names_its_line(
        self, corpus, tmp_path, capsys, first_field, message
    ):
        # analyze never quotes a field, so a quote refuses the file; a field
        # past the csv module's size limit is refused too.
        lines = _run_analyze(corpus).read_text(encoding="utf-8").splitlines()
        number = next(i for i, line in enumerate(lines, 1) if line.startswith("doc2,"))
        lines[number - 1] = first_field + lines[number - 1][len("doc2"):]
        broken = tmp_path / "broken.csv"
        broken.write_text("\n".join(lines) + "\n", encoding="utf-8")
        for command in ("stats", "report"):
            assert main([
                command, "--results", str(broken), "--out", str(tmp_path / "o.csv"),
            ]) == 2
            assert f"{broken} line {number}: {message}\n" in capsys.readouterr().err

    def test_csv_json_parity(self, corpus):
        results = _run_analyze(corpus)
        csv_out = corpus / "stats.csv"
        json_out = corpus / "stats.json"
        assert main(["stats", "--results", str(results), "--out", str(csv_out)]) == 0
        assert main([
            "stats", "--results", str(results),
            "--out", str(json_out), "--format", "json",
        ]) == 0
        payload = json.loads(json_out.read_text(encoding="utf-8"))
        table = list(csv.DictReader(csv_out.read_text(encoding="utf-8").splitlines()))

        for row in table:
            section, name, field, value = (
                row["section"], row["name"], row["field"], row["value"],
            )
            if section == "summary":
                assert float(value) == float(payload["summary"][name][field])
            elif section == "correlations":
                i = payload["correlations"]["labels"].index(name)
                j = payload["correlations"]["labels"].index(field)
                assert float(value) == float(payload["correlations"]["values"][i][j])
            elif section == "alpha":
                assert float(value) == float(payload["alpha"])
            elif section == "meta":
                assert value == str(payload["meta"][name])
        assert sum(r["section"] == "correlations" for r in table) == 25


class TestReport:
    def test_per_year_rows(self, corpus):
        results = _run_analyze(corpus)
        out = corpus / "years.csv"
        assert main(["report", "--results", str(results), "--out", str(out)]) == 0
        rows = read_csv_rows(out)
        assert [r["year"] for r in rows] == ["1995", "2016"]
        assert [r["count"] for r in rows] == ["2", "1"]

    def test_corrupt_year_names_row(self, corpus, tmp_path, capsys):
        results = _run_analyze(corpus)
        text = results.read_text(encoding="utf-8").replace("doc2,Directive,1995",
                                                           "doc2,Directive,199X")
        broken = tmp_path / "broken.csv"
        broken.write_text(text, encoding="utf-8")
        code = main([
            "report", "--results", str(broken), "--out", str(tmp_path / "y.csv"),
        ])
        assert code == 2
        assert "year" in capsys.readouterr().err

    @pytest.mark.parametrize("column, value", [
        ("year", 99999), ("year", 999), ("year", -2016),
        # Grades past 2**53 would overflow the sum variable's division
        # (g1) and the float sums of stats (g4).
        ("g1_flesch_kincaid", 10**400), ("g4_coleman_liau", 10**400),
        ("g5_linsear", -(2**53) - 1),
    ], ids=["99999", "999", "-2016", "g1-huge", "g4-huge", "g5-below"])
    def test_year_out_of_range_names_row(self, corpus, tmp_path, capsys, column, value):
        expected = (
            "a 4-digit year" if column == "year" else "a grade between -2**53 and 2**53"
        )
        csv_lines = _run_analyze(corpus).read_text(encoding="utf-8").splitlines()
        number = next(i for i, line in enumerate(csv_lines, 1) if line.startswith("doc2,"))
        fields = csv_lines[number - 1].split(",")
        fields[ANALYZE_COLUMNS.index(column)] = str(value)
        csv_lines[number - 1] = ",".join(fields)
        broken_csv = tmp_path / "broken.csv"
        broken_csv.write_text("\n".join(csv_lines) + "\n", encoding="utf-8")
        payload = json.loads(_run_analyze(corpus, fmt="json").read_text(encoding="utf-8"))
        payload["rows"][1][column] = value
        broken_json = tmp_path / "broken.json"
        broken_json.write_text(json.dumps(payload), encoding="utf-8")
        for broken, where in ((broken_csv, f"line {number}"), (broken_json, "row 2")):
            for command in ("stats", "report"):
                assert main([
                    command, "--results", str(broken), "--out", str(tmp_path / "o.csv"),
                ]) == 2
                assert (
                    f"{broken} {where}: column '{column}' has value {value}, "
                    f"expected {expected}\n"
                ) in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("column", ["hard_word_count", "easy_word_count", "sum_variable"])
    def test_derived_column_contradicting_counts_names_row(
        self, corpus, tmp_path, capsys, column
    ):
        payload = json.loads(_run_analyze(corpus, fmt="json").read_text(encoding="utf-8"))
        expected = payload["rows"][1][column]
        csv_lines = _run_analyze(corpus).read_text(encoding="utf-8").splitlines()
        number = next(i for i, line in enumerate(csv_lines, 1) if line.startswith("doc2,"))
        # A sum variable far past any float must not overflow the check.
        values = [42.0, 10**400] if column == "sum_variable" else [expected + 1]
        for value in values:
            payload["rows"][1][column] = value
            broken_json = tmp_path / "broken.json"
            broken_json.write_text(json.dumps(payload), encoding="utf-8")
            fields = csv_lines[number - 1].split(",")
            fields[ANALYZE_COLUMNS.index(column)] = str(value)
            broken_csv = tmp_path / "broken.csv"
            broken_csv.write_text(
                "\n".join([*csv_lines[:number - 1], ",".join(fields), *csv_lines[number:]])
                + "\n",
                encoding="utf-8",
            )
            for broken, where in ((broken_csv, f"line {number}"), (broken_json, "row 2")):
                for command in ("stats", "report"):
                    assert main([
                        command, "--results", str(broken), "--out", str(tmp_path / "o.csv"),
                    ]) == 2
                    assert (
                        f"{broken} {where}: column '{column}' has value {value}, "
                        f"expected {expected}\n"
                    ) in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("command", ["stats", "report"])
    def test_empty_results_is_format_error(self, corpus, tmp_path, capsys, command):
        header_only = tmp_path / "empty.csv"
        header_only.write_text(",".join(ANALYZE_COLUMNS) + "\n", encoding="utf-8")
        no_rows = tmp_path / "empty.json"
        no_rows.write_text('{"meta": {}, "rows": []}', encoding="utf-8")
        for results in (header_only, no_rows):
            assert main([
                command, "--results", str(results), "--out", str(tmp_path / "o.csv"),
            ]) == 2
            assert f"{results}: no result rows" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_json_report(self, corpus):
        results = _run_analyze(corpus, fmt="json")
        out = corpus / "years.json"
        assert main([
            "report", "--results", str(results),
            "--out", str(out), "--format", "json",
        ]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert [row["year"] for row in payload["rows"]] == [1995, 2016]


def _command(corpus, command: str, fmt: str, out: Path) -> list[str]:
    if command == "analyze":
        inputs = [
            "--manifest", str(corpus / "manifest.csv"), "--texts", str(corpus / "texts"),
        ]
    else:
        inputs = ["--results", str(_run_analyze(corpus))]
    return [command, *inputs, "--out", str(out), "--format", fmt]


@pytest.mark.parametrize("command", ["stats", "report"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_results_with_byte_order_mark(data_dir, tmp_path, command, fmt):
    # The mark is skipped: the outputs are the goldens.
    marked = tmp_path / "results.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + (data_dir / "synthetic55_results.csv").read_bytes())
    out = tmp_path / f"{command}.{fmt}"
    assert main([command, "--results", str(marked), "--out", str(out), "--format", fmt]) == 0
    assert out.read_bytes() == (data_dir / f"synthetic55_{command}.{fmt}").read_bytes()


class TestOutFile:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", ["analyze", "stats", "report"])
    def test_rerun_replaces_longer_file(self, corpus, command, fmt):
        fresh = corpus / f"fresh.{fmt}"
        assert main(_command(corpus, command, fmt, fresh)) == 0
        out = corpus / f"out.{fmt}"
        old = fresh.read_bytes() + b"stale,row\n" * 1000
        out.write_bytes(old)
        linked = corpus / "linked"
        os.link(out, linked)
        assert main(_command(corpus, command, fmt, out)) == 0
        assert out.read_bytes() == fresh.read_bytes()
        # A new file, not the old one rewritten: another link keeps the old bytes.
        assert linked.read_bytes() == old

    def test_symlink_out_writes_its_target(self, corpus):
        fresh = corpus / "fresh.csv"
        assert main(_command(corpus, "report", "csv", fresh)) == 0
        target = corpus / "target.csv"
        target.write_bytes(fresh.read_bytes() + b"stale,row\n" * 1000)
        link = corpus / "link.csv"
        link.symlink_to(target)
        assert main(_command(corpus, "report", "csv", link)) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == fresh.read_bytes()

    def test_report_to_stdout(self, corpus):
        # /dev/fd/1 resolves to /proc/self/fd/1, as /dev/stdout does. A
        # regressed --out writer run as root could unlink /dev/stdout itself,
        # but not an entry under /proc.
        fresh = corpus / "fresh.csv"
        argv = _command(corpus, "report", "csv", fresh)
        assert main(argv) == 0
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-m", "lexgrade.cli", *argv[:-4], "--out", "/dev/fd/1"],
            env=env, capture_output=True, timeout=60, check=True,
        )
        assert out.stdout == fresh.read_bytes()

    @pytest.mark.parametrize("command", ["analyze", "stats", "report"])
    def test_directory_out_is_config_error(self, corpus, capsys, command):
        out = corpus / "outdir"
        out.mkdir()
        assert main(_command(corpus, command, "csv", out)) == 2
        assert str(out) in capsys.readouterr().err
        assert out.is_dir()

    def test_unwritable_file_is_not_unlinked(self, corpus, monkeypatch):
        # A write-protected --out fails as before instead of being replaced;
        # root may write any file, so the permission check is stubbed here.
        out = corpus / "out.csv"
        out.write_text("old\n", encoding="utf-8")
        linked = corpus / "linked"
        os.link(out, linked)
        argv = _command(corpus, "report", "csv", out)
        monkeypatch.setattr("lexgrade.cli.os.access", lambda path, mode: False)
        assert main(argv) == 0
        # Written in place: the other link sees the new bytes too.
        assert out.read_text(encoding="utf-8").startswith("# lexgrade_version")
        assert linked.read_bytes() == out.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failed_analyze_leaves_no_old_rows(self, data_dir, tmp_path, capsys, fmt):
        nonascii = data_dir / "nonascii"
        out = tmp_path / f"results.{fmt}"
        out.write_bytes((nonascii / f"results.{fmt}").read_bytes())
        (tmp_path / "empty").mkdir()
        assert main([
            "analyze", "--manifest", str(nonascii / "manifest.csv"),
            "--texts", str(tmp_path / "empty"), "--out", str(out), "--format", fmt,
        ]) == 1
        # One FAIL line per document and the summary, as when only some fail.
        manifest = (nonascii / "manifest.csv").read_text(encoding="utf-8")
        ids = [row["id"] for row in csv.DictReader(manifest.splitlines())]
        missing = [tmp_path / "empty" / f"{doc_id}.txt" for doc_id in ids]
        assert capsys.readouterr().err.splitlines() == [
            f"FAIL {path.stem}: [Errno 2] No such file or directory: '{path}'"
            for path in missing
        ] + ["analyzed 0 of 5 documents"]
        text = out.read_text(encoding="utf-8")
        if fmt == "json":
            assert json.loads(text) == {
                "meta": {"lexgrade_version": __version__, "linsear_mode": "windowed"},
                "rows": [],
            }
        else:
            assert text == (
                f"# lexgrade_version: {__version__}\n# linsear_mode: windowed\n"
                + ",".join(ANALYZE_COLUMNS) + "\n"
            )
        for command in ("stats", "report"):
            assert main([
                command, "--results", str(out), "--out", str(tmp_path / "o.csv"),
            ]) == 2
            assert f"{out}: no result rows" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()


class TestFetchCommand:
    def test_fetch_then_cached_rerun(self, corpus, stub_repo, capsys):
        for doc_id in ("31995L0046", "32016R0679"):
            stub_repo.pages[doc_id] = f"<p>Document {doc_id}.</p>"
        manifest = corpus / "fetch_manifest.csv"
        manifest.write_text(
            "id,doc_type,year,title,domain,source\n"
            "31995L0046,Directive,1995,DPD,PersonalDataPrivacy,31995L0046\n"
            "32016R0679,Regulation,2016,GDPR,PersonalDataPrivacy,32016R0679\n",
            encoding="utf-8",
        )
        cache = corpus / "cache"
        argv = [
            "fetch",
            "--manifest", str(manifest),
            "--cache", str(cache),
            "--base-url", stub_repo.base_url,
            "--delay-ms", "0",
        ]
        assert main(argv) == 0
        assert (cache / "32016R0679.txt").exists()
        err = capsys.readouterr().err
        assert "2 fresh" in err

        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "2 cached" in err

    def test_fetch_failure_exits_one(self, corpus, stub_repo):
        manifest = corpus / "fetch_manifest.csv"
        manifest.write_text(
            "id,doc_type,year,title,domain,source\n"
            "39999R0001,Regulation,1999,Gone,GeneralRules,39999R0001\n",
            encoding="utf-8",
        )
        assert main([
            "fetch",
            "--manifest", str(manifest),
            "--cache", str(corpus / "cache"),
            "--base-url", stub_repo.base_url,
            "--delay-ms", "0",
        ]) == 1

    def test_concurrency_above_cap_is_config_error(self, corpus, stub_repo, capsys):
        # Requests always go one at a time: --concurrency takes only 1.
        stub_repo.pages["31995L0046"] = "<p>Doc.</p>"
        manifest = corpus / "fetch_manifest.csv"
        manifest.write_text(
            "id,doc_type,year,title,domain,source\n"
            "31995L0046,Directive,1995,DPD,PersonalDataPrivacy,31995L0046\n",
            encoding="utf-8",
        )
        argv = [
            "fetch", "--manifest", str(manifest), "--cache", str(corpus / "cache"),
            "--base-url", stub_repo.base_url, "--delay-ms", "0", "--concurrency",
        ]
        for value in ("2", "0", "-1"):
            with pytest.raises(SystemExit) as exc:
                main([*argv, value])
            assert exc.value.code == 2
            assert "--concurrency" in capsys.readouterr().err
        assert stub_repo.requests == []
        assert not (corpus / "cache").exists()
        assert main([*argv, "1"]) == 0
        assert "1 fresh, 0 cached, 0 failed" in capsys.readouterr().err
        assert len(stub_repo.requests) == 1

    def test_retries_above_cap_is_config_error(self, corpus, stub_repo, capsys):
        stub_repo.pages["31995L0046"] = "<p>Doc.</p>"
        manifest = corpus / "fetch_manifest.csv"
        manifest.write_text(
            "id,doc_type,year,title,domain,source\n"
            "31995L0046,Directive,1995,DPD,PersonalDataPrivacy,31995L0046\n",
            encoding="utf-8",
        )
        assert main([
            "fetch", "--manifest", str(manifest), "--cache", str(corpus / "cache"),
            "--base-url", stub_repo.base_url, "--delay-ms", "0",
            "--retries", str(MAX_RETRIES + 1),
        ]) == 2
        assert f"got {MAX_RETRIES + 1}" in capsys.readouterr().err
        assert stub_repo.requests == []
        assert not (corpus / "cache").exists()

    def test_delay_above_a_day_is_config_error(self, corpus, stub_repo, capsys):
        stub_repo.pages["31995L0046"] = "<p>Doc.</p>"
        manifest = corpus / "fetch_manifest.csv"
        manifest.write_text(
            "id,doc_type,year,title,domain,source\n"
            "31995L0046,Directive,1995,DPD,PersonalDataPrivacy,31995L0046\n",
            encoding="utf-8",
        )
        assert main([
            "fetch", "--manifest", str(manifest), "--cache", str(corpus / "cache"),
            "--base-url", stub_repo.base_url, "--delay-ms", "86400001",
        ]) == 2
        assert "delay_ms must be at most 86400000, got 86400001" in capsys.readouterr().err
        assert stub_repo.requests == []
        assert not (corpus / "cache").exists()

    @pytest.mark.parametrize("flag", ["--delay-ms", "--retries"])
    def test_negative_setting_is_config_error(self, corpus, stub_repo, flag, capsys):
        stub_repo.pages["31995L0046"] = "<p>Doc.</p>"
        manifest = corpus / "fetch_manifest.csv"
        manifest.write_text(
            "id,doc_type,year,title,domain,source\n"
            "31995L0046,Directive,1995,DPD,PersonalDataPrivacy,31995L0046\n",
            encoding="utf-8",
        )
        assert main([
            "fetch", "--manifest", str(manifest), "--cache", str(corpus / "cache"),
            "--base-url", stub_repo.base_url, "--delay-ms", "0", flag, "-1",
        ]) == 2
        field = flag[2:].replace("-", "_")
        assert f"{field} must be non-negative, got -1" in capsys.readouterr().err
        assert stub_repo.requests == []
        assert not (corpus / "cache").exists()

    @pytest.mark.parametrize("user_agent", ["bad\nua", "caf\u00e9", ""])
    def test_malformed_user_agent_is_config_error(
        self, corpus, stub_repo, monkeypatch, capsys, user_agent
    ):
        stub_repo.pages["31995L0046"] = "<p>Doc.</p>"
        manifest = corpus / "fetch_manifest.csv"
        manifest.write_text(
            "id,doc_type,year,title,domain,source\n"
            "31995L0046,Directive,1995,DPD,PersonalDataPrivacy,31995L0046\n",
            encoding="utf-8",
        )
        monkeypatch.setenv("LEXGRADE_USER_AGENT", user_agent)
        assert main([
            "fetch", "--manifest", str(manifest), "--cache", str(corpus / "cache"),
            "--base-url", stub_repo.base_url, "--delay-ms", "0",
        ]) == 2
        assert f"user_agent must be printable ASCII and not blank, got {user_agent!r}" in (
            capsys.readouterr().err
        )
        assert stub_repo.requests == []
        assert not (corpus / "cache").exists()

    @pytest.mark.parametrize(
        "source, value, error",
        [
            ("LEXGRADE_BASE_URL", "ftp://x",
             "LEXGRADE_BASE_URL: base URL must be http:// or https:// with a host, got 'ftp://x'"),
            ("LEXGRADE_DELAY_MS", "-5", "LEXGRADE_DELAY_MS: delay_ms must be non-negative, got -5"),
            ("LEXGRADE_DELAY_MS", "abc", "LEXGRADE_DELAY_MS must be an integer, got 'abc'"),
            ("LEXGRADE_RETRIES", "9",
             f"LEXGRADE_RETRIES: retries must be at most {MAX_RETRIES}, got 9"),
            ("LEXGRADE_USER_AGENT", "",
             "LEXGRADE_USER_AGENT: user_agent must be printable ASCII and not blank, got ''"),
            ("--delay-ms", "-5", "--delay-ms: delay_ms must be non-negative, got -5"),
            ("--delay-ms", "abc", "--delay-ms must be an integer, got 'abc'"),
        ],
        ids=["LEXGRADE_BASE_URL", "LEXGRADE_DELAY_MS", "LEXGRADE_DELAY_MS-abc",
             "LEXGRADE_RETRIES", "LEXGRADE_USER_AGENT", "--delay-ms", "--delay-ms-abc"],
    )
    def test_setting_error_names_its_source(
        self, corpus, stub_repo, monkeypatch, capsys, source, value, error
    ):
        stub_repo.pages["31995L0046"] = "<p>Doc.</p>"
        manifest = corpus / "fetch_manifest.csv"
        manifest.write_text(
            "id,doc_type,year,title,domain,source\n"
            "31995L0046,Directive,1995,DPD,PersonalDataPrivacy,31995L0046\n",
            encoding="utf-8",
        )
        argv = ["fetch", "--manifest", str(manifest), "--cache", str(corpus / "cache")]
        if source.startswith("--"):
            argv += ["--base-url", stub_repo.base_url, source, value]
        else:
            if source != "LEXGRADE_BASE_URL":
                argv += ["--base-url", stub_repo.base_url]
            monkeypatch.setenv(source, value)
        assert main(argv) == 2
        assert f"lexgrade: error: {error}\n" in capsys.readouterr().err
        assert stub_repo.requests == []
        assert not (corpus / "cache").exists()

    def test_flags_win_over_bad_environment(self, corpus, stub_repo, monkeypatch, capsys):
        stub_repo.pages["31995L0046"] = "<p>Doc.</p>"
        manifest = corpus / "fetch_manifest.csv"
        manifest.write_text(
            "id,doc_type,year,title,domain,source\n"
            "31995L0046,Directive,1995,DPD,PersonalDataPrivacy,31995L0046\n",
            encoding="utf-8",
        )
        for name, value in (("BASE_URL", "ftp://x"), ("DELAY_MS", "-5"), ("RETRIES", "9")):
            monkeypatch.setenv(f"LEXGRADE_{name}", value)
        assert main([
            "fetch", "--manifest", str(manifest), "--cache", str(corpus / "cache"),
            "--base-url", stub_repo.base_url, "--delay-ms", "0", "--retries", "1",
        ]) == 0
        assert "1 fresh, 0 cached, 0 failed" in capsys.readouterr().err
        assert len(stub_repo.requests) == 1

    def test_base_url_without_scheme_is_config_error(self, corpus, monkeypatch, capsys):
        manifest = corpus / "fetch_manifest.csv"
        manifest.write_text(
            "id,doc_type,year,title,domain,source\n"
            "31995L0046,Directive,1995,DPD,PersonalDataPrivacy,31995L0046\n",
            encoding="utf-8",
        )

        def no_fetch(*args, **kwargs):
            raise AssertionError("fetch_all must not start")

        monkeypatch.setattr("lexgrade.fetcher.fetch_all", no_fetch)
        assert main([
            "fetch", "--manifest", str(manifest), "--cache", str(corpus / "cache"),
            "--base-url", "eur-lex.europa.eu",
        ]) == 2
        assert "'eur-lex.europa.eu'" in capsys.readouterr().err
        assert not (corpus / "cache").exists()

    def test_import_does_not_load_requests(self, corpus):
        # analyze, stats and report run offline: none loads the network stack.
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        script = """
import sys
import lexgrade.cli
d = sys.argv[1]
for argv in (
    ["analyze", "--manifest", d + "/manifest.csv", "--texts", d + "/texts",
     "--out", d + "/r.csv"],
    ["stats", "--results", d + "/r.csv", "--out", d + "/s.csv"],
    ["report", "--results", d + "/r.csv", "--out", d + "/y.csv"],
):
    assert lexgrade.cli.main(argv) == 0, argv
network = {"requests", "lexgrade.fetcher", "ssl", "urllib.request", "http.client"}
print(sorted(network & set(sys.modules)))
"""
        out = subprocess.run(
            [sys.executable, "-c", script, str(corpus)],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        assert out.stdout.strip() == "[]"
        assert (corpus / "y.csv").exists()

    def test_import_does_not_load_fractions(self):
        # Grades and statistics are integer arithmetic: no Fraction anywhere.
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        script = "import sys, lexgrade.cli; print('fractions' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        assert out.stdout.strip() == "False"

    def test_import_does_not_load_dataclasses(self):
        # Records are NamedTuples, so starting a command skips dataclasses'
        # import. -S keeps imports of site-packages .pth files out of the check.
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        script = "import sys, lexgrade.cli, lexgrade.fetcher; print('dataclasses' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-S", "-c", script],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        assert out.stdout.strip() == "False"

    def test_warm_fetch_loads_no_network_stack(self, corpus, stub_repo):
        # A fetch whose every document is a cache hit makes no request,
        # imports nothing that only a request or the text of a page needs,
        # and starts no thread (the cache writer starts at the first miss).
        # The cold fetch that fills the cache reads a page holding a stray
        # "<" with the text scan alone: it loads html but not html.parser.
        stub_repo.pages["31995L0046"] = "<p>Doc a < b.</p>"
        manifest = corpus / "fetch_manifest.csv"
        manifest.write_text(
            "id,doc_type,year,title,domain,source\n"
            "31995L0046,Directive,1995,DPD,PersonalDataPrivacy,31995L0046\n",
            encoding="utf-8",
        )
        argv = [
            "fetch", "--manifest", str(manifest), "--cache", str(corpus / "cache"),
            "--base-url", stub_repo.base_url, "--delay-ms", "0",
        ]
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        script = """
import json
import sys
import threading
import lexgrade.cli
assert lexgrade.cli.main(json.loads(sys.argv[1])) == 0
print(sorted({"ssl", "urllib.request", "http.client", "html", "html.parser",
              "concurrent.futures", "queue"} & set(sys.modules)), threading.active_count())
"""

        def run() -> subprocess.CompletedProcess:
            return subprocess.run(
                [sys.executable, "-c", script, json.dumps(argv)],
                env=env, capture_output=True, text=True, timeout=60, check=True,
            )

        cold = run()
        assert "1 fresh, 0 cached, 0 failed" in cold.stderr
        assert "'html'" in cold.stdout
        assert "html.parser" not in cold.stdout
        assert (corpus / "cache" / "31995L0046.txt").read_text(encoding="utf-8") == "Doc a < b."
        requests = len(stub_repo.requests)
        out = run()
        assert out.stdout.strip() == "[] 1"
        assert "0 fresh, 1 cached, 0 failed" in out.stderr
        assert len(stub_repo.requests) == requests

    def test_cold_fetch_ignores_concurrency_setting(self, corpus, stub_repo):
        # LEXGRADE_CONCURRENCY is not read: a cold fetch sends one request at
        # a time, each held open 50 ms, and loads no thread pool.
        stub_repo.hold_s = 0.05
        ids = [f"3202{i}R000{i}" for i in range(4)]
        for doc_id in ids:
            stub_repo.pages[doc_id] = f"<p>Doc {doc_id}.</p>"
        manifest = corpus / "fetch_manifest.csv"
        manifest.write_text(
            "id,doc_type,year,title,domain,source\n"
            + "".join(f"{i},Regulation,2020,T,GeneralRules,{i}\n" for i in ids),
            encoding="utf-8",
        )
        argv = [
            "fetch", "--manifest", str(manifest), "--cache", str(corpus / "cache"),
            "--base-url", stub_repo.base_url, "--delay-ms", "0",
        ]
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src), LEXGRADE_CONCURRENCY="4")
        script = """
import json
import sys
import lexgrade.cli
assert lexgrade.cli.main(json.loads(sys.argv[1])) == 0
print("concurrent.futures" in sys.modules)
"""
        out = subprocess.run(
            [sys.executable, "-c", script, json.dumps(argv)],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        assert out.stdout.strip() == "False"
        assert "4 fresh, 0 cached, 0 failed" in out.stderr
        assert len(stub_repo.requests) == 4
        assert stub_repo.max_active == 1

    def test_default_base_url(self, corpus, monkeypatch):
        # MANIFEST's ids are no CELEX ids: even unpatched, no request would leave.
        monkeypatch.delenv("LEXGRADE_BASE_URL", raising=False)
        seen = []
        monkeypatch.setattr(
            "lexgrade.fetcher.fetch_all",
            lambda records, cache, settings: seen.append(settings) or [],
        )
        assert main([
            "fetch", "--manifest", str(corpus / "manifest.csv"),
            "--cache", str(corpus / "cache"),
        ]) == 0
        assert [settings.base_url for settings in seen] == [DEFAULT_BASE_URL]

    @pytest.mark.parametrize("flag, env", [(["--base-url", ""], None), ([], "")])
    def test_empty_base_url_is_config_error(self, corpus, monkeypatch, capsys, flag, env):
        def no_fetch(*args, **kwargs):
            raise AssertionError("fetch_all must not start")

        monkeypatch.setattr("lexgrade.fetcher.fetch_all", no_fetch)
        if env is None:
            monkeypatch.delenv("LEXGRADE_BASE_URL", raising=False)
        else:
            monkeypatch.setenv("LEXGRADE_BASE_URL", env)
        assert main([
            "fetch", "--manifest", str(corpus / "manifest.csv"),
            "--cache", str(corpus / "cache"), *flag,
        ]) == 2
        assert "base URL must be" in capsys.readouterr().err
        assert not (corpus / "cache").exists()

    def test_env_override_base_url(self, corpus, stub_repo, monkeypatch):
        stub_repo.pages["31995L0046"] = "<p>Doc.</p>"
        manifest = corpus / "fetch_manifest.csv"
        manifest.write_text(
            "id,doc_type,year,title,domain,source\n"
            "31995L0046,Directive,1995,DPD,PersonalDataPrivacy,31995L0046\n",
            encoding="utf-8",
        )
        monkeypatch.setenv("LEXGRADE_BASE_URL", stub_repo.base_url)
        monkeypatch.setenv("LEXGRADE_DELAY_MS", "0")
        assert main([
            "fetch", "--manifest", str(manifest), "--cache", str(corpus / "cache"),
        ]) == 0
        assert len(stub_repo.requests) == 1


class TestEndToEnd:
    def test_cached_fetch_analyze_stats_byte_identical(self, corpus, stub_repo):
        pages = {
            "31995L0046": "<p>The court heard the case. It ruled quickly and clearly.</p>",
            "32002L0058": (
                "<p>This directive establishes comprehensive requirements "
                "concerning electronic communication infrastructure.</p>"
                "<p>Nevertheless administrative authorities retain considerable "
                "discretionary jurisdiction over procedural derogations.</p>"
            ),
            "32016R0679": (
                "<p>Members shall consider the proposal. The committee will "
                "report on the implementation of the programme.</p>"
            ),
        }
        stub_repo.pages.update(pages)
        manifest = corpus / "e2e_manifest.csv"
        manifest.write_text(
            "id,doc_type,year,title,domain,source\n"
            "31995L0046,Directive,1995,DPD,PersonalDataPrivacy,31995L0046\n"
            "32002L0058,Directive,2002,ePrivacy,ElectronicCommunications,32002L0058\n"
            "32016R0679,Regulation,2016,GDPR,PersonalDataPrivacy,32016R0679\n",
            encoding="utf-8",
        )
        cache = corpus / "cache"
        fetch_argv = [
            "fetch", "--manifest", str(manifest), "--cache", str(cache),
            "--base-url", stub_repo.base_url, "--delay-ms", "0",
        ]
        assert main(fetch_argv) == 0
        network_calls = len(stub_repo.requests)

        artifacts = {}
        for run in (1, 2):
            assert main(fetch_argv) == 0  # cached, zero network
            results = corpus / f"results_{run}.csv"
            stats = corpus / f"stats_{run}.csv"
            assert main([
                "analyze", "--manifest", str(manifest),
                "--cache", str(cache), "--out", str(results),
            ]) == 0
            assert main([
                "stats", "--results", str(results), "--out", str(stats),
            ]) == 0
            artifacts[run] = (results.read_bytes(), stats.read_bytes())

        assert len(stub_repo.requests) == network_calls
        assert artifacts[1] == artifacts[2]

    def test_failed_refetch_is_not_graded(self, corpus, stub_repo, mirror_repo, capsys):
        page = "<p>The court heard the case. It ruled.</p>"
        mirror_repo.pages.update({"31995L0046": page, "32016R0679": page})
        stub_repo.pages["31995L0046"] = page
        manifest = corpus / "refetch_manifest.csv"
        manifest.write_text(
            "id,doc_type,year,title,domain,source\n"
            "31995L0046,Directive,1995,DPD,PersonalDataPrivacy,31995L0046\n"
            "32016R0679,Regulation,2016,GDPR,PersonalDataPrivacy,32016R0679\n",
            encoding="utf-8",
        )
        cache = corpus / "cache"

        def fetch(repo):
            return main([
                "fetch", "--manifest", str(manifest), "--cache", str(cache),
                "--base-url", repo.base_url, "--delay-ms", "0",
            ])

        assert fetch(mirror_repo) == 0
        assert fetch(stub_repo) == 1  # 32016R0679 now answers 404
        results = corpus / "results.csv"
        capsys.readouterr()
        assert main([
            "analyze", "--manifest", str(manifest),
            "--cache", str(cache), "--out", str(results),
        ]) == 1
        assert "FAIL 32016R0679" in capsys.readouterr().err
        assert [row["id"] for row in read_csv_rows(results)] == ["31995L0046"]
