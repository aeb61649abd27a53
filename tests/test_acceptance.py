"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines. Criterion 6 normally runs on a deterministic synthetic
legal-English corpus; point LEXGRADE_ACCEPT_MANIFEST and
LEXGRADE_ACCEPT_TEXTS at a real manifest (>= 50 documents) to run it on
user-assembled data instead.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from lexgrade.cli import main
from lexgrade.corpus import DocType, Domain, DocumentRecord, analyze_corpus
from lexgrade.errors import DegenerateTextError, DegenerateVarianceError
from lexgrade.indices import (
    ari,
    coleman_liau,
    flesch_kincaid,
    linsear_write,
    smog,
)
from lexgrade.segmenter import TextMetrics, count_syllables, scan
from lexgrade.stats import correlation_matrix, cronbach_alpha, describe

sys.path.insert(0, str(Path(__file__).parent))
import stats_reference as reference  # noqa: E402
from synthetic import build_corpus  # noqa: E402

from test_indices import (  # noqa: E402
    assert_ceiling_contract,
    assert_smog_ceiling_contract,
    exact_ari,
    exact_cl,
    exact_fk,
    metrics,
    one_sample_text,
)


def _ok(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


# --- 1. formula exactness ---------------------------------------------------


def test_criterion_1_formula_exactness():
    start = time.monotonic()

    assert flesch_kincaid(metrics(sentences=1, words=3, syllables=3)) == -2
    assert flesch_kincaid(metrics(sentences=5, words=100, syllables=150)) == 10
    with pytest.raises(DegenerateTextError):
        flesch_kincaid(metrics(sentences=0, words=3, syllables=3))

    assert smog(metrics(sentences=1, polysyllables=0)) == 4
    assert smog(metrics(sentences=30, words=30, polysyllables=30)) == 9
    assert smog(metrics(sentences=30, words=90, polysyllables=90)) == 14

    assert ari(metrics(sentences=1, words=3, characters=9)) == -5
    assert ari(metrics(sentences=5, words=100, characters=500)) == 13
    with pytest.raises(DegenerateTextError):
        ari(metrics(sentences=1, words=0))

    assert coleman_liau(metrics(sentences=5, words=100, letters=450)) == 10
    assert coleman_liau(metrics(sentences=1, words=3, letters=9)) == -8
    with pytest.raises(DegenerateTextError):
        coleman_liau(metrics(sentences=1, words=0))

    assert linsear_write(scan(one_sample_text(easy=80, hard=20, sentences=10))[1]) == 6
    assert linsear_write(scan(one_sample_text(easy=50, hard=50, sentences=5))[1]) == 20
    golden = json.loads(
        (Path(__file__).parent / "data" / "fixture_golden.json").read_text()
    )
    fixture = (Path(__file__).parent / "data" / "fixture_paragraph.txt").read_text()
    assert linsear_write(scan(fixture)[1], "compat") == golden["grades"]["g5_linsear"]

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _ok(1, f"15 hand-evaluated index examples exact in {elapsed:.3f}s")


# --- 2. ceiling contract ----------------------------------------------------


def test_criterion_2_ceiling_contract():
    rng = random.Random(1803)
    for _ in range(1000):
        m = metrics(
            sentences=rng.randint(1, 60),
            words=rng.randint(1, 3000),
            syllables=rng.randint(0, 9000),
            polysyllables=rng.randint(0, 3000),
            characters=rng.randint(0, 30000),
            letters=rng.randint(0, 30000),
        )
        assert_ceiling_contract(flesch_kincaid(m), exact_fk(m))
        assert_ceiling_contract(ari(m), exact_ari(m))
        assert_ceiling_contract(coleman_liau(m), exact_cl(m))
        assert_smog_ceiling_contract(smog(m), m)

    # Regulation-sized counts the random ranges never reach: the exact FK
    # is 20 + 3.7e-10, so its ceiling is 21 although the float sits within
    # 1e-9 of 20.
    m = metrics(sentences=2321, words=92877, syllables=157291)
    assert_ceiling_contract(flesch_kincaid(m), exact_fk(m))

    linsear_checked = 0
    for _ in range(1000):
        sentences = rng.randint(1, 8)
        easy = rng.randint(0, 60)
        hard = rng.randint(0, 40)
        if easy + hard < max(sentences, 1) or easy + hard == 0:
            continue
        r = Fraction(easy + 3 * hard, sentences)
        raw = r / 2 if r > 20 else (r - 2) / 2
        grade = linsear_write(scan(one_sample_text(easy, hard, sentences))[1])
        assert_ceiling_contract(grade, raw)
        linsear_checked += 1
    assert linsear_checked >= 950
    _ok(
        2,
        "grade - raw in [0, 1) over 1000 randomized inputs per formula index, "
        f"{linsear_checked} for Linsear, and one regulation-sized FK case "
        "(exact arithmetic)",
    )


# --- 3. syllable oracle -----------------------------------------------------


def test_criterion_3_syllable_oracle():
    oracle_path = Path(__file__).parent / "data" / "syllable_oracle.tsv"
    rows = [
        line.split("\t")
        for line in oracle_path.read_text(encoding="utf-8").splitlines()
    ]
    assert len(rows) == 500
    exact = 0
    for word, count in rows:
        diff = abs(count_syllables(word) - int(count))
        assert diff <= 1, f"'{word}' off by {diff}"
        exact += diff == 0
    agreement = exact / len(rows)
    assert agreement >= 0.90
    _ok(3, f"syllable agreement {agreement:.1%} on 500 words, max deviation 1")


# --- 4. statistics oracle equivalence ----------------------------------------


def _brute_quantile(values, p):
    ordered = sorted(values)
    h = (len(ordered) - 1) * p
    lo, hi = math.floor(h), math.ceil(h)
    return ordered[lo] + (h - lo) * (ordered[hi] - ordered[lo])


def _pair_correlation(x, y):
    # The x-y entry of the five-column matrix, beside three fixed fillers.
    n = len(x)
    fillers = [list(range(n)), [i * i for i in range(n)], [i % 2 for i in range(n)]]
    return correlation_matrix([x, y, *fillers]).values[0][1]


def test_criterion_4_statistics_oracle():
    rng = random.Random(4271)
    checked = 0
    for _ in range(100):
        n = rng.randint(3, 20)
        x = [rng.randint(-20, 60) for _ in range(n)]
        y = [xi + rng.randint(-5, 5) for xi in x]
        z = [xi + rng.randint(-8, 8) for xi in x]
        if min(x) == max(x) or min(y) == max(y) or min(z) == max(z):
            continue

        assert _pair_correlation(x, y) == reference.pearson(x, y)

        try:
            got_alpha = cronbach_alpha([x, y, z])
        except DegenerateVarianceError:
            continue
        assert got_alpha == reference.cronbach_alpha([x, y, z])

        summary = describe(x)
        assert (summary.mean, summary.standard_deviation) == reference.mean_and_sd(x)
        for got, p in ((summary.q1, 0.25), (summary.median, 0.5), (summary.q3, 0.75)):
            assert got == _brute_quantile(x, p)
        checked += 1
    assert checked >= 90
    _ok(4, f"pearson/alpha/describe equal the exact Fraction oracle on {checked} corpora")


# --- 5. invariant suite -------------------------------------------------------


def _record(doc_id: str, year: int = 2000) -> DocumentRecord:
    return DocumentRecord(
        id=doc_id,
        doc_type=DocType.DECISION,
        year=year,
        title="t",
        domain=Domain.GENERAL_RULES,
        source=doc_id,
    )


def test_criterion_5_invariants():
    rng = random.Random(982)
    words = ["law", "data", "court", "member", "state", "rule", "market",
             "public", "order", "commission", "regulation", "authority"]

    def sentence():
        k = rng.randint(1, 8)
        return " ".join(rng.choice(words) for _ in range(k)).capitalize() + "."

    # Pearson positive-affine invariance, exact; a negative scale negates r
    for _ in range(200):
        n = rng.randint(3, 25)
        x = [rng.randint(-50, 50) for _ in range(n)]
        y = [rng.randint(-50, 50) for _ in range(n)]
        if min(x) == max(x) or min(y) == max(y):
            continue
        a, c = rng.randint(1, 20), rng.randint(1, 20)
        b, d = rng.randint(-100, 100), rng.randint(-100, 100)
        base = _pair_correlation(x, y)
        y_moved = [c * v + d for v in y]
        assert _pair_correlation([a * v + b for v in x], y_moved) == base
        assert _pair_correlation([-a * v + b for v in x], y_moved) == -base

    # alpha <= 1 whenever defined
    for _ in range(200):
        k = rng.randint(2, 5)
        n = rng.randint(2, 12)
        columns = [[rng.randint(-30, 30) for _ in range(n)] for _ in range(k)]
        try:
            assert cronbach_alpha(columns) <= 1.0
        except DegenerateVarianceError:
            pass

    # correlation matrix is exactly its own transpose
    for _ in range(100):
        n = rng.randint(3, 15)
        rows = [tuple(rng.randint(-5, 40) for _ in range(5)) for _ in range(n)]
        cols = list(zip(*rows))
        if any(min(c) == max(c) for c in cols):
            continue
        matrix = correlation_matrix(cols)
        for i in range(5):
            for j in range(5):
                assert matrix.values[i][j] == matrix.values[j][i]

    # segmenter concatenation additivity
    for _ in range(200):
        a = " ".join(sentence() for _ in range(rng.randint(1, 4)))
        b = " ".join(sentence() for _ in range(rng.randint(1, 4)))
        combined = scan(a + " " + b)[0]
        ma, mb = scan(a)[0], scan(b)[0]
        for field in (
            "sentence_count", "word_count", "syllable_count",
            "polysyllable_count", "character_count", "letter_count",
        ):
            assert getattr(combined, field) == getattr(ma, field) + getattr(mb, field)

    # corpus no-silent-loss
    for _ in range(100):
        n = rng.randint(1, 12)
        availability = [rng.random() < 0.7 for _ in range(n)]
        if not any(availability):
            continue
        records = [_record(f"doc{i}") for i in range(n)]
        available = {
            f"doc{i}" for i, ok in enumerate(availability) if ok
        }

        def resolver(rec):
            if rec.id not in available:
                raise LookupError(f"no text for {rec.id}")
            return " ".join(sentence() for _ in range(3))

        report = analyze_corpus(records, resolver)
        assert len(report.rows) + len(report.failures) == n
    _ok(5, "affine invariance, alpha<=1, symmetry, additivity, no-silent-loss")


# --- 6. qualitative reproduction on a >= 50-document corpus -------------------


def _assert_stats_and_report_pinned(tmp_path, manifest, texts, results_csv):
    """stats and report of the 55-doc corpus match tests/data byte for byte,
    whether they read the CSV or the JSON results form."""
    data = Path(__file__).parent / "data"
    results_json = tmp_path / "results.json"
    assert main([
        "analyze", "--manifest", str(manifest), "--texts", str(texts),
        "--out", str(results_json), "--format", "json",
    ]) == 0
    for results in (results_csv, results_json):
        for command, fmt in [("stats", "csv"), ("stats", "json"),
                             ("report", "csv"), ("report", "json")]:
            out = tmp_path / f"{command}-from-{results.suffix[1:]}.{fmt}"
            assert main([
                command, "--results", str(results), "--out", str(out), "--format", fmt,
            ]) == 0
            pinned = data / f"synthetic55_{command}.{fmt}"
            assert out.read_bytes() == pinned.read_bytes(), (results.name, out.name)


def test_criterion_6_pipeline_thresholds(tmp_path):
    manifest = os.environ.get("LEXGRADE_ACCEPT_MANIFEST")
    texts = os.environ.get("LEXGRADE_ACCEPT_TEXTS")
    # Byte-exact outputs of the synthetic run; a user corpus has none.
    pinned = None
    if manifest and texts:
        manifest_path, texts_dir = Path(manifest), Path(texts)
        source = "user corpus"
    else:
        manifest_path = build_corpus(tmp_path, n=55)
        texts_dir = tmp_path / "texts"
        source = "synthetic corpus (55 docs)"
        data = Path(__file__).parent / "data"
        pinned = (data / "synthetic55_results.csv", data / "synthetic55_stats.json")

    results = tmp_path / "results.csv"
    stats_out = tmp_path / "stats.json"
    start = time.monotonic()
    assert main([
        "analyze", "--manifest", str(manifest_path),
        "--texts", str(texts_dir), "--out", str(results),
    ]) == 0
    elapsed = time.monotonic() - start
    assert main([
        "stats", "--results", str(results),
        "--out", str(stats_out), "--format", "json",
    ]) == 0
    if pinned is not None:
        assert results.read_bytes() == pinned[0].read_bytes()
        assert stats_out.read_bytes() == pinned[1].read_bytes()
        _assert_stats_and_report_pinned(tmp_path, manifest_path, texts_dir, results)

    payload = json.loads(stats_out.read_text(encoding="utf-8"))
    assert payload["meta"]["n_documents"] >= 50
    labels = payload["correlations"]["labels"]
    values = payload["correlations"]["values"]
    fk, smog_i, ari_i = (labels.index(l) for l in ("flesch_kincaid", "smog", "ari"))
    r_fk_ari = values[fk][ari_i]
    r_fk_smog = values[fk][smog_i]
    alpha = payload["alpha"]
    median = payload["summary"]["sum_variable"]["median"]

    assert r_fk_ari >= 0.95
    assert r_fk_smog >= 0.85
    assert alpha >= 0.9
    assert median >= 20
    assert elapsed < 60
    _ok(
        6,
        f"{source}: r(FK,ARI)={r_fk_ari:.3f}, r(FK,SMOG)={r_fk_smog:.3f}, "
        f"alpha={alpha:.3f}, median={median:.1f}, analyze {elapsed:.1f}s",
    )


# --- 7. end-to-end determinism ------------------------------------------------


def test_criterion_7_end_to_end_determinism(tmp_path, stub_repo):
    stub_repo.pages.update({
        "31995L0046": "<p>The court heard the case. It ruled quickly.</p>",
        "32002L0058": (
            "<p>This directive establishes comprehensive requirements "
            "concerning electronic communication infrastructure and "
            "imposes significant obligations on every operator.</p>"
        ),
        "32016R0679": (
            "<p>Members shall consider the proposal. The committee will "
            "report on the implementation of the programme.</p>"
        ),
    })
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "id,doc_type,year,title,domain,source\n"
        "31995L0046,Directive,1995,DPD,PersonalDataPrivacy,31995L0046\n"
        "32002L0058,Directive,2002,ePrivacy,ElectronicCommunications,32002L0058\n"
        "32016R0679,Regulation,2016,GDPR,PersonalDataPrivacy,32016R0679\n",
        encoding="utf-8",
    )
    cache = tmp_path / "cache"
    fetch_argv = [
        "fetch", "--manifest", str(manifest), "--cache", str(cache),
        "--base-url", stub_repo.base_url, "--delay-ms", "0",
    ]
    assert main(fetch_argv) == 0
    calls_after_seed = len(stub_repo.requests)

    outputs = []
    for run in (1, 2):
        assert main(fetch_argv) == 0
        results = tmp_path / f"results_{run}.csv"
        stats_file = tmp_path / f"stats_{run}.csv"
        assert main([
            "analyze", "--manifest", str(manifest),
            "--cache", str(cache), "--out", str(results),
        ]) == 0
        assert main([
            "stats", "--results", str(results), "--out", str(stats_file),
        ]) == 0
        outputs.append((results.read_bytes(), stats_file.read_bytes()))

    assert len(stub_repo.requests) == calls_after_seed, "cached rerun hit network"
    assert outputs[0] == outputs[1]
    _ok(7, "cached fetch -> analyze -> stats twice: byte-identical outputs")
