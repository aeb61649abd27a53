"""Seeded input generators for the four benchmark workloads.

Every generator takes a ``random.Random`` and returns plain data; the
same seed always gives byte-identical inputs. Sizes are drawn from fixed
quantile schedules and only their order and content depend on the seed,
so two seeds load the program with the same amount of work.
"""

from __future__ import annotations

import csv
import html
import importlib.util
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist

DOC_TYPES = ("Directive", "Regulation", "Decision", "COM", "SWD",
             "Recommendation", "JOIN")
DOMAINS = ("GeneralRules", "ElectronicCommunications", "PersonalDataPrivacy",
           "CopyrightAudiovisual", "DataEconomyProtection")
MANIFEST_FIELDS = ("id", "doc_type", "year", "title", "domain", "source")
YEARS = (1985, 2022)

# Lines of this shape are Official Journal page furniture; the program's
# clean_text drops them, so they add bytes but never words.
MASTHEADS = (
    "{day}.{month}.{year} EN",
    "Official Journal of the European Union",
    "{series} {issue}/{page}",
    "EN",
)


@dataclass
class Document:
    id: str
    doc_type: str
    year: int
    domain: str
    # (kind, text) with kind in {"p", "item", "masthead"}
    blocks: list[tuple[str, str]] = field(default_factory=list)
    degenerate: bool = False

    def tokens(self) -> list[str]:
        """Whitespace tokens of every block, mastheads included."""
        return [token for _, text in self.blocks for token in text.split()]


def _document_id(year: int, index: int) -> str:
    return f"3{year}R{1000 + index}"


def _new_document(rng: random.Random, index: int) -> Document:
    year = rng.randint(*YEARS)
    return Document(
        id=_document_id(year, index),
        doc_type=DOC_TYPES[index % len(DOC_TYPES)],
        year=year,
        domain=DOMAINS[index % len(DOMAINS)],
    )


def write_manifest(path: Path, docs: list[Document]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MANIFEST_FIELDS)
        for i, doc in enumerate(docs):
            writer.writerow((doc.id, doc.doc_type, doc.year,
                             f"Benchmark instrument {i + 1}", doc.domain,
                             f"eur-lex:{doc.id}"))


# --------------------------------------------------------------------------
# corpus-closed: the repository's own synthetic generator, ~300 word types


def _load_synthetic(root: Path):
    spec = importlib.util.spec_from_file_location(
        "lexgrade_synthetic", root / "tests" / "synthetic.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def closed_corpus(rng: random.Random, root: Path, words: int) -> list[Document]:
    """Documents from tests/synthetic.py until `words` tokens are reached."""
    synthetic = _load_synthetic(root)
    docs: list[Document] = []
    total = 0
    while total < words:
        doc = _new_document(rng, len(docs))
        text = synthetic.build_document(rng, rng.uniform(0.35, 0.95))
        doc.blocks = [("p", para) for para in text.split("\n\n")]
        total += len(text.split())
        docs.append(doc)
    return docs


# --------------------------------------------------------------------------
# corpus-open: Zipfian open vocabulary with legal-text features

_SUFFIXES = ("s", "ed", "ing", "ation", "ment", "ity", "ness", "ly", "able")
_PREFIXES = ("un", "re", "non", "pre", "inter", "sub", "co")
# Non-ASCII forms, so pages carry character entities.
_ACCENTED = ("café", "régime", "naïve", "rôle", "élite", "façade", "déjà-vu",
             "Member State’s", "€100", "€2.5", "Commission’s")


def oracle_words(root: Path) -> list[str]:
    lines = (root / "tests" / "data" / "syllable_oracle.tsv").read_text(
        encoding="utf-8"
    ).splitlines()
    return [line.split("\t")[0] for line in lines if line.strip()]


def open_vocabulary(rng: random.Random, base: list[str]) -> list[str]:
    """Oracle words first (most frequent), then seeded generated forms."""
    alpha = [w for w in base if w.isalpha() and len(w) >= 3]
    generated: set[str] = set()
    for word in alpha:
        for suffix in _SUFFIXES:
            generated.add(word + suffix)
        for prefix in _PREFIXES:
            generated.add(prefix + word)
    while len(generated) < 30000:
        generated.add(f"{rng.choice(alpha)}-{rng.choice(alpha)}")
    for _ in range(3000):
        generated.add(f"{rng.randint(1990, 2022)}/{rng.randint(1, 2500)}")
    for _ in range(1500):
        generated.add(str(rng.randint(2, 99999)))
    for _ in range(500):
        generated.add(f"{rng.randint(0, 99)}.{rng.randint(1, 99)}")
    generated.update(t for phrase in _ACCENTED for t in phrase.split())
    rest = sorted(generated - set(base))
    rng.shuffle(rest)
    return list(dict.fromkeys(base)) + rest


class ZipfStream:
    """Tokens drawn with probability proportional to 1 / rank**exponent."""

    def __init__(self, rng: random.Random, vocabulary: list[str],
                 exponent: float = 1.05) -> None:
        self._rng = rng
        self._vocabulary = vocabulary
        acc = 0.0
        self._cum = []
        for rank in range(1, len(vocabulary) + 1):
            acc += rank ** -exponent
            self._cum.append(acc)
        self._buffer: list[str] = []

    def take(self, n: int) -> list[str]:
        if len(self._buffer) < n:
            self._buffer.extend(
                self._rng.choices(self._vocabulary, cum_weights=self._cum,
                                  k=max(n, 65536))
            )
        out = self._buffer[:n]
        del self._buffer[:n]
        return out


def _masthead(rng: random.Random, year: int, page: int) -> list[str]:
    fields = {
        "day": rng.randint(1, 28), "month": rng.randint(1, 12), "year": year,
        "series": rng.choice("LC"), "issue": rng.randint(1, 350), "page": page,
    }
    return [line.format(**fields) for line in MASTHEADS]


def _sentence(rng: random.Random, stream: ZipfStream, length: int,
              end: str = ".") -> str:
    words = stream.take(length)
    # Citations and numbered references of enacting terms.
    if rng.random() < 0.25:
        words.insert(rng.randrange(len(words)), f"Art. {rng.randint(1, 99)}")
    if rng.random() < 0.15:
        words.insert(rng.randrange(len(words)),
                     f"Regulation (EU) No. {rng.randint(2000, 2022)}/{rng.randint(1, 999)}")
    words[0] = words[0][:1].upper() + words[0][1:]
    return " ".join(words) + end


def _legal_blocks(rng: random.Random, stream: ZipfStream, year: int,
                  words: int) -> list[tuple[str, str]]:
    """Prose of about `words` tokens with page mastheads every ~600 words."""
    blocks = [("masthead", line) for line in _masthead(rng, year, 1)]
    written = 0
    article = 1
    while written < words:
        new: list[tuple[str, str]] = []
        kind = rng.random()
        if kind < 0.3:
            # numbered paragraph of enacting terms: "1. Member States ..."
            new.append(("p", f"{article}. " + " ".join(
                _sentence(rng, stream, rng.randint(8, 40))
                for _ in range(rng.randint(1, 3))
            )))
            article += 1
        elif kind < 0.45:
            # enumeration: "(a) ...;" items, rendered as table rows
            new.append(("p", _sentence(rng, stream, rng.randint(6, 20), ":")))
            for letter in "abcdefgh"[: rng.randint(2, 6)]:
                new.append(("item", f"({letter}) "
                            + _sentence(rng, stream, rng.randint(4, 18), ";")))
        else:
            new.append(("p", " ".join(
                _sentence(rng, stream, rng.randint(6, 50))
                for _ in range(rng.randint(1, 6))
            )))
        blocks.extend(new)
        before = written
        written += sum(len(text.split()) for _, text in new)
        if written // 600 > before // 600:
            blocks.extend(("masthead", line)
                          for line in _masthead(rng, year, written // 600 + 1))
    return blocks


def _lognormal_sizes(n: int, total: int, sigma: float, low: int, high: int) -> list[int]:
    """n sizes on a fixed lognormal quantile grid, scaled to sum ~ total."""
    normal = NormalDist()
    raw = [math.exp(sigma * normal.inv_cdf((i + 0.5) / n)) for i in range(n)]
    scale = total / sum(raw)
    return [min(high, max(low, round(r * scale))) for r in raw]


def open_corpus(rng: random.Random, root: Path, docs: int, words: int,
                regulations: tuple[int, ...], degenerate: int) -> tuple[list[Document], dict]:
    """Heavy-tailed legal corpus over a Zipfian open vocabulary.

    `regulations` are the word counts of the regulation-sized documents;
    `degenerate` documents hold only mastheads, which analyze must
    reject as having no prose.
    """
    vocabulary = open_vocabulary(rng, oracle_words(root))
    stream = ZipfStream(rng, vocabulary)
    ordinary = docs - len(regulations) - degenerate
    sizes = _lognormal_sizes(ordinary, words - sum(regulations), 1.0, 40, 20000)
    plan = [("prose", s) for s in sizes + list(regulations)]
    plan += [("degenerate", 0)] * degenerate
    rng.shuffle(plan)

    corpus = []
    for index, (kind, size) in enumerate(plan):
        doc = _new_document(rng, index)
        if kind == "degenerate":
            doc.blocks = [("masthead", line) for line in _masthead(rng, doc.year, 1)]
            doc.degenerate = True
        else:
            doc.blocks = _legal_blocks(rng, stream, doc.year, size)
        corpus.append(doc)
    tokens = [t for d in corpus for k, text in d.blocks if k != "masthead"
              for t in text.split()]
    info = {
        "vocabulary": len(vocabulary),
        "tokens": len(tokens),
        "types": len(set(tokens)),
        "type_token_ratio": len(set(tokens)) / len(tokens),
    }
    return corpus, info


# --------------------------------------------------------------------------
# EUR-Lex-like HTML pages

_ENTITIES = {"’": "&rsquo;", "é": "&eacute;", "€": "&euro;", "ï": "&#239;",
             "ô": "&ocirc;", "ç": "&#231;", "à": "&agrave;"}


def _encode(text: str) -> str:
    text = html.escape(text, quote=False)
    for char, entity in _ENTITIES.items():
        text = text.replace(char, entity)
    # EUR-Lex binds article references with non-breaking spaces.
    return text.replace("Art. ", "Art.&nbsp;").replace("No. ", "No.&nbsp;")


def html_page(doc: Document) -> str:
    """The document wrapped in navigation chrome, scripts and tables.

    Only text inside the document division is prose; everything else
    sits in elements an extractor must skip.
    """
    out = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>EUR-Lex - {doc.id} - EN</title>",
        "<style>.oj-normal { margin: 0; } td { vertical-align: top; }</style>",
        '<script>window.dataLayer = [{"page": "document <p>view</p>"}];</script>',
        "</head><body>",
        '<header><a class="logo" href="/">EUR-Lex</a> Access to European Union law'
        "<form><input name=q><button>Search</button></form></header>",
        '<nav><ul><li><a href="/">Home</a></li><li><a href="/search">Advanced search'
        "</a></li><li>Help &amp; cookies</li></ul></nav>",
        '<noscript>Enable JavaScript to use the menu</noscript>',
        '<div id="document">',
    ]
    in_table = False
    for kind, text in doc.blocks:
        if kind == "item":
            if not in_table:
                out.append('<table class="oj-table"><colgroup><col width="4%">'
                           '<col width="96%"></colgroup>')
                in_table = True
            marker, _, body = text.partition(" ")
            out.append(f'<tr><td><p class="oj-normal">{_encode(marker)}</p></td>'
                       f'<td><p class="oj-normal">{_encode(body)}</p></td></tr>')
            continue
        if in_table:
            out.append("</table>")
            in_table = False
        css = "oj-hd-date" if kind == "masthead" else "oj-normal"
        out.append(f'<p class="{css}">{_encode(text)}</p>')
    if in_table:
        out.append("</table>")
    out += [
        "</div>",
        "<footer>Top &#8593; | Legal notice | Cookies policy</footer>",
        '<script src="/js/analytics.js"></script>',
        "</body></html>",
    ]
    return "\n".join(out) + "\n"


# --------------------------------------------------------------------------
# stats-100k: analyze-format results rows with correlated grades

# The header `lexgrade analyze` writes, spelled out here so that the
# generated files stay the same whatever the program's internals become.
RESULT_COLUMNS = (
    "id", "doc_type", "year", "domain", "sentence_count", "word_count",
    "syllable_count", "polysyllable_count", "character_count",
    "letter_count", "easy_word_count", "hard_word_count",
    "g1_flesch_kincaid", "g2_smog", "g3_ari", "g4_coleman_liau",
    "g5_linsear", "sum_variable",
)


def _row(rng: random.Random, index: int) -> list:
    year = rng.randint(*YEARS)
    complexity = min(1.0, max(0.0, rng.gauss(0.5 + (year - 1985) / 150, 0.2)))
    words = max(60, int(math.exp(rng.gauss(7.2, 1.0))))
    sentences = max(1, round(words / (12 + 32 * complexity + rng.gauss(0, 3))))
    hard = min(words, max(0, round(words * (0.12 + 0.33 * complexity + rng.gauss(0, 0.03)))))
    syllables = words + hard + round(words * (0.25 + 0.4 * complexity))
    characters = round(words * (4.6 + 2.2 * complexity + rng.gauss(0, 0.2)))
    letters = characters - rng.randint(0, max(1, characters // 50))
    g1 = math.ceil(0.39 * (words / sentences) + 11.8 * (syllables / words) - 15.59)
    g2 = math.ceil(1.0430 * math.sqrt(30 * hard / sentences) + 3.1291)
    g3 = math.ceil(4.71 * (characters / words) + 0.5 * (words / sentences) - 21.43)
    g4 = math.ceil(0.0588 * 100 * letters / words - 0.296 * 100 * sentences / words - 15.8)
    g5 = math.ceil((words - hard + 3 * hard) / sentences / 2 + rng.gauss(0, 1.5))
    return [
        f"3{year}R{index:06d}", DOC_TYPES[index % len(DOC_TYPES)], year,
        DOMAINS[index % len(DOMAINS)], sentences, words, syllables, hard,
        characters, letters, words - hard, hard, g1, g2, g3, g4, g5,
        (g1 + g2 + g3) / 3,
    ]


def write_results(rng: random.Random, paths: dict[int, Path], version: str) -> None:
    """Write result files holding the first n rows for each (n, path)."""
    n_max = max(paths)
    rows = [_row(rng, i) for i in range(n_max)]
    for n, path in paths.items():
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"# lexgrade_version: {version}\n# linsear_mode: windowed\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(RESULT_COLUMNS)
            writer.writerows(rows[:n])
