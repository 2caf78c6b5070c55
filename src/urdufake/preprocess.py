"""Text preprocessing pipeline for Urdu news documents.

Five configurable stages applied in a fixed order:
diacritic removal -> character normalization -> whitespace tokenization ->
stopword removal -> lemma lookup. All stages are pure functions; the
resources (stopword list, lemma table, normalization map) are immutable
after load.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
import unicodedata
from dataclasses import dataclass, field
from importlib import resources as importlib_resources
from pathlib import Path
from typing import Iterable

from .corpus import Document


class ResourceError(ValueError):
    """Malformed resource file (stopwords, lemma table, normalization map)."""


# Arabic-script combining marks stripped by remove_diacritics: harakat,
# superscript alef, and Quranic annotation signs.
DIACRITIC_RANGES: tuple[tuple[int, int], ...] = (
    (0x0610, 0x061A),
    (0x064B, 0x065F),
    (0x0670, 0x0670),
    (0x06D6, 0x06DC),
    (0x06DF, 0x06E4),
    (0x06E7, 0x06E8),
    (0x06EA, 0x06ED),
)

DIACRITICS: frozenset[int] = frozenset(
    cp for lo, hi in DIACRITIC_RANGES for cp in range(lo, hi + 1)
)


def _char_class(ranges: Iterable[tuple[int, int]]) -> re.Pattern:
    """One compiled character class of the code points in the inclusive
    (lo, hi) ranges; it matches nothing when there are none. Scanning a
    text for it is far faster than str.translate with a dict table, which
    looks every character of non-ASCII text up in the dict."""
    members = "".join(f"{re.escape(chr(lo))}-{re.escape(chr(hi))}" for lo, hi in ranges)
    return re.compile(f"[{members}]" if members else "(?!)")


_DIACRITIC_CLASS = _char_class(DIACRITIC_RANGES)


def remove_diacritics(text: str) -> str:
    """Delete every code point in the diacritic strip set; all others untouched."""
    return _DIACRITIC_CLASS.sub("", text)


def _parse_codepoint(token: str, where: str) -> int:
    token = token.strip()
    if not token.upper().startswith("U+"):
        raise ResourceError(f"{where}: expected U+XXXX codepoint, got {token!r}")
    try:
        return int(token[2:], 16)
    except ValueError as exc:
        raise ResourceError(f"{where}: bad codepoint {token!r}") from exc


@dataclass(frozen=True)
class NormalizationMap:
    """Single-codepoint substitution table. Acyclic: no target is a source."""

    table: dict[int, int]

    def __post_init__(self) -> None:
        cyclic = set(self.table.values()) & set(self.table.keys())
        if cyclic:
            pts = ", ".join(f"U+{cp:04X}" for cp in sorted(cyclic))
            raise ResourceError(f"normalization map is cyclic: {pts} appear as both source and target")

    @functools.cached_property
    def sources(self) -> re.Pattern:
        """The character class of the mapped code points."""
        return _char_class((cp, cp) for cp in sorted(self.table))

    @classmethod
    def from_tsv(cls, path: str | Path) -> "NormalizationMap":
        table: dict[int, int] = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                fields = line.split("\t")
                if len(fields) != 2:
                    raise ResourceError(f"{Path(path).name}:{lineno}: expected 2 columns, got {len(fields)}")
                src = _parse_codepoint(fields[0], f"{Path(path).name}:{lineno}")
                dst = _parse_codepoint(fields[1], f"{Path(path).name}:{lineno}")
                table[src] = dst
        return cls(table=table)

    @classmethod
    def default(cls) -> "NormalizationMap":
        ref = importlib_resources.files("urdufake.data") / "normmap.tsv"
        with importlib_resources.as_file(ref) as path:
            return cls.from_tsv(path)


def normalize_chars(text: str, mapping: NormalizationMap) -> str:
    """Apply Unicode NFC, then the substitution map, iterated to a fixpoint.

    A single NFC+substitute pass is almost always enough; the iteration only
    matters when a substitution output re-combines with a following mark
    (e.g. alef + maddah), and it guarantees idempotence for arbitrary input.
    """
    out = text
    while True:
        nxt = unicodedata.normalize("NFC", out)
        if mapping.sources.search(nxt):
            nxt = nxt.translate(mapping.table)
        if nxt == out:
            return out
        out = nxt


def tokenize(text: str) -> list[str]:
    """Split on runs of Unicode whitespace; empty tokens are dropped."""
    return text.split()


@dataclass(frozen=True)
class StopwordList:
    words: frozenset[str]

    def __contains__(self, token: str) -> bool:
        return token in self.words

    def __len__(self) -> int:
        return len(self.words)

    @classmethod
    def from_file(cls, path: str | Path) -> "StopwordList":
        words = set()
        with open(path, encoding="utf-8") as fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                words.add(line)
        return cls(words=frozenset(words))

    @classmethod
    def default(cls) -> "StopwordList":
        ref = importlib_resources.files("urdufake.data") / "stopwords.txt"
        with importlib_resources.as_file(ref) as path:
            return cls.from_file(path)


@dataclass(frozen=True)
class LemmaTable:
    """Surface form -> lemma lookup; total via identity fallback."""

    entries: dict[str, str] = field(default_factory=dict)

    def lookup(self, token: str) -> str:
        return self.entries.get(token, token)

    def __len__(self) -> int:
        return len(self.entries)

    @classmethod
    def from_tsv(cls, path: str | Path) -> "LemmaTable":
        entries: dict[str, str] = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.rstrip("\n").rstrip("\r")
                if not line.strip() or line.startswith("#"):
                    continue
                fields = line.split("\t")
                if len(fields) != 2 or not fields[0] or not fields[1]:
                    raise ResourceError(
                        f"{Path(path).name}:{lineno}: expected 'surface TAB lemma'"
                    )
                entries[fields[0]] = fields[1]
        return cls(entries=entries)


def remove_stopwords(tokens: list[str], stopwords: StopwordList) -> list[str]:
    """Order-preserving filter; tokens must already be normalized."""
    return [t for t in tokens if t not in stopwords]


def lemmatize(tokens: list[str], table: LemmaTable) -> list[str]:
    return [table.lookup(t) for t in tokens]


@dataclass(frozen=True)
class PreprocessConfig:
    remove_diacritics: bool = True
    normalize: bool = True
    remove_stopwords: bool = True
    lemmatize: bool = True


@dataclass(frozen=True)
class Resources:
    """Immutable preprocessing resources, canonicalized on construction.

    Stopword entries and lemma-table surfaces/targets are passed through the
    same strip+normalize treatment as document text, so lookups compare
    like with like regardless of which letter variants the files used.
    """

    stopwords: StopwordList
    lemmas: LemmaTable
    normmap: NormalizationMap

    @classmethod
    def load(
        cls,
        stopwords_path: str | Path | None = None,
        lemmas_path: str | Path | None = None,
        normmap_path: str | Path | None = None,
    ) -> "Resources":
        normmap = (
            NormalizationMap.from_tsv(normmap_path) if normmap_path else NormalizationMap.default()
        )
        stopwords = (
            StopwordList.from_file(stopwords_path) if stopwords_path else StopwordList.default()
        )
        lemmas = LemmaTable.from_tsv(lemmas_path) if lemmas_path else LemmaTable()

        def canon(s: str) -> str:
            return normalize_chars(remove_diacritics(s), normmap)

        stopwords = StopwordList(words=frozenset(canon(w) for w in stopwords.words))
        lemmas = LemmaTable(entries={canon(k): canon(v) for k, v in lemmas.entries.items()})
        return cls(stopwords=stopwords, lemmas=lemmas, normmap=normmap)

    @classmethod
    def default(cls) -> "Resources":
        return cls.load()

    @functools.cached_property
    def digest(self) -> str:
        """sha256 of the canonicalized stopwords, lemma entries and
        normalization map, each sorted; a fitted pipeline records it."""
        canonical = json.dumps([sorted(self.stopwords.words), sorted(self.lemmas.entries.items()),
                                sorted(self.normmap.table.items())], ensure_ascii=False)
        return hashlib.sha256(canonical.encode("utf-8", "surrogatepass")).hexdigest()


@dataclass(frozen=True)
class PreprocessedDoc:
    tokens: tuple[str, ...]
    char_stream: str

    @classmethod
    def from_tokens(cls, tokens: list[str] | tuple[str, ...]) -> "PreprocessedDoc":
        toks = tuple(tokens)
        return cls(tokens=toks, char_stream=" ".join(toks))


def preprocess(doc: Document, config: PreprocessConfig, res: Resources) -> PreprocessedDoc:
    """Run the fixed stage order on one document.

    Stages toggled off by the config are skipped; the surviving stages keep
    their relative order: diacritics -> normalization -> tokenize ->
    stopwords -> lemmas.
    """
    text = doc.text
    if config.remove_diacritics:
        text = remove_diacritics(text)
    if config.normalize:
        text = normalize_chars(text, res.normmap)
    tokens = tokenize(text)
    if config.remove_stopwords:
        tokens = remove_stopwords(tokens, res.stopwords)
    if config.lemmatize:
        tokens = lemmatize(tokens, res.lemmas)
    return PreprocessedDoc.from_tokens(tokens)


def preprocess_corpus(corpus, config: PreprocessConfig, res: Resources) -> list[PreprocessedDoc]:
    """Preprocess every document, preserving corpus order."""
    return [preprocess(doc, config, res) for doc in corpus]
