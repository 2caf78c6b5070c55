import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urdufake.corpus import Document
from urdufake.preprocess import (
    DIACRITICS,
    LemmaTable,
    NormalizationMap,
    PreprocessConfig,
    PreprocessedDoc,
    ResourceError,
    Resources,
    StopwordList,
    lemmatize,
    normalize_chars,
    preprocess,
    remove_diacritics,
    remove_stopwords,
    tokenize,
)

URDU_LETTERS = "ابپتٹثجچحخدڈذرڑزژسشصضطظعغفقکگلمنوہھءیے"


@pytest.fixture(scope="module")
def default_map():
    return NormalizationMap.default()


# --- diacritic removal -------------------------------------------------------

def test_strip_kasra():
    assert remove_diacritics("کِتاب") == "کتاب"


def test_untouched_without_diacritics():
    text = "یہ صاف متن ہے abc 123"
    assert remove_diacritics(text) == text


def test_only_diacritics_becomes_empty():
    assert remove_diacritics("".join(chr(cp) for cp in range(0x064B, 0x064F))) == ""


def test_strip_set_ranges_exact():
    for cp in (0x0610, 0x061A, 0x064B, 0x065F, 0x0670, 0x06D6, 0x06DC,
               0x06DF, 0x06E4, 0x06E7, 0x06E8, 0x06EA, 0x06ED):
        assert remove_diacritics(f"a{chr(cp)}b") == "ab"
    # neighbours just outside the ranges survive
    for cp in (0x060F, 0x061B, 0x064A, 0x0660, 0x06D5, 0x06DD, 0x06DE,
               0x06E5, 0x06E6, 0x06E9, 0x06EE):
        assert chr(cp) in remove_diacritics(f"x{chr(cp)}y")


@given(st.text())
def test_remove_diacritics_only_removes_strip_set(text):
    out = remove_diacritics(text)
    assert out == "".join(ch for ch in text if ord(ch) not in DIACRITICS)


# --- character normalization -------------------------------------------------

def test_arabic_yeh_mapped_to_urdu_yeh(default_map):
    assert normalize_chars("ي", default_map) == "ی"


def test_arabic_kaf_mapped_to_urdu_kaf(default_map):
    assert normalize_chars("ك", default_map) == "ک"


def test_nfc_applied_before_mapping(default_map):
    # decomposed alef + hamza composes to U+0623, which the map sends to alef
    assert normalize_chars("أ", default_map) == "ا"


@settings(max_examples=300)
@given(st.text(alphabet=st.characters(codec="utf-8"), max_size=40))
def test_normalize_chars_idempotent(default_map, text):
    once = normalize_chars(text, default_map)
    assert normalize_chars(once, default_map) == once


# --- the translate-table oracles ---------------------------------------------

def translate_remove_diacritics(text):
    """remove_diacritics as one str.translate over a deletion table."""
    return text.translate({cp: None for cp in DIACRITICS})


def translate_normalize_chars(text, mapping):
    """normalize_chars translating after every NFC, mapped code point or not."""
    out = text
    while True:
        nxt = unicodedata.normalize("NFC", out).translate(mapping.table)
        if nxt == out:
            return out
        out = nxt


# a lone surrogate and an ASCII letter as sources, besides an Arabic one
ODD_MAP = NormalizationMap({0xD800: 0x0627, ord("a"): ord("b"), 0x0623: 0x0627})
MAPS = [NormalizationMap.default(), ODD_MAP, NormalizationMap({})]
ORACLE_CHARS = sorted(
    {chr(cp) for cp in DIACRITICS}
    | {chr(cp) for m in MAPS for pair in m.table.items() for cp in pair}
    | {chr(cp) for cp in (*range(0x0300, 0x0310), 0x0653, 0x0654, 0x0655)}  # combining marks
    | set("aAb z09-[]^\\")
    | {"\ud800", "\udbff", "\udc00", "\udfff"}                            # lone surrogates
)


@settings(max_examples=400)
@given(text=st.text(alphabet=st.sampled_from(ORACLE_CHARS) | st.characters(), max_size=40),
       which=st.sampled_from(range(len(MAPS))))
def test_character_class_stages_equal_the_translate_tables(text, which):
    assert remove_diacritics(text) == translate_remove_diacritics(text)
    assert normalize_chars(text, MAPS[which]) == translate_normalize_chars(text, MAPS[which])


def test_cyclic_map_rejected():
    with pytest.raises(ResourceError, match="cyclic"):
        NormalizationMap({0x064A: 0x06CC, 0x06CC: 0x0649})


def test_map_tsv_parse_errors(tmp_path):
    bad = tmp_path / "m.tsv"
    bad.write_text("U+0643 U+06A9\n", encoding="utf-8")
    with pytest.raises(ResourceError, match="2 columns"):
        NormalizationMap.from_tsv(bad)
    bad.write_text("0643\tU+06A9\n", encoding="utf-8")
    with pytest.raises(ResourceError, match="U\\+XXXX"):
        NormalizationMap.from_tsv(bad)


# --- tokenize ----------------------------------------------------------------

@pytest.mark.parametrize(
    "text,expected",
    [
        ("a  b\tc", ["a", "b", "c"]),
        ("", []),
        ("token", ["token"]),
        ("    ", []),  # exotic whitespace only
    ],
)
def test_tokenize(text, expected):
    assert tokenize(text) == expected


@given(st.text())
def test_tokenize_tokens_contain_no_whitespace(text):
    for tok in tokenize(text):
        assert tok and not any(ch.isspace() for ch in tok)


# --- stopwords and lemmas ----------------------------------------------------

def test_remove_stopwords_all_filtered():
    sw = StopwordList(frozenset({"a", "b"}))
    assert remove_stopwords(["a", "b", "a"], sw) == []


def test_remove_stopwords_empty_list_identity():
    assert remove_stopwords(["x", "y"], StopwordList(frozenset())) == ["x", "y"]


def test_remove_stopwords_order_preserving():
    sw = StopwordList(frozenset({"s"}))
    assert remove_stopwords(["w1", "s", "w2"], sw) == ["w1", "w2"]


@given(st.lists(st.sampled_from("abcdef")), st.sets(st.sampled_from("abcdef")))
def test_remove_stopwords_output_is_subsequence(tokens, words):
    out = remove_stopwords(tokens, StopwordList(frozenset(words)))
    it = iter(tokens)
    assert all(any(t == o for t in it) for o in out)


def test_lemmatize_table_entry_and_fallback():
    table = LemmaTable({"کتابیں": "کتاب"})
    assert lemmatize(["کتابیں", "قلم"], table) == ["کتاب", "قلم"]
    assert lemmatize([], table) == []


@given(st.lists(st.text(alphabet=URDU_LETTERS, min_size=1, max_size=6), max_size=20))
def test_lemmatize_preserves_length(tokens):
    table = LemmaTable({"اب": "اب_lemma"})
    assert len(lemmatize(tokens, table)) == len(tokens)


def test_lemma_tsv_errors(tmp_path):
    bad = tmp_path / "l.tsv"
    bad.write_text("surface only\n", encoding="utf-8")
    with pytest.raises(ResourceError, match="surface TAB lemma"):
        LemmaTable.from_tsv(bad)


def test_stopword_file_comments_ignored(tmp_path):
    f = tmp_path / "sw.txt"
    f.write_text("# comment\nکا\n\nکی\n", encoding="utf-8")
    sw = StopwordList.from_file(f)
    assert len(sw) == 2 and "کا" in sw


# --- full pipeline -----------------------------------------------------------

def doc(text):
    return Document(id="d", text=text, label=None)


def test_all_flags_off_is_whitespace_split(resources):
    cfg = PreprocessConfig(False, False, False, False)
    out = preprocess(doc("کِتاب اور كتاب"), cfg, resources)
    assert out.tokens == ("کِتاب", "اور", "كتاب")


def test_only_stopwords_yields_empty(resources):
    cfg = PreprocessConfig()
    out = preprocess(doc("کا کی کے"), cfg, resources)
    assert out.tokens == ()
    assert out.char_stream == ""


def test_deterministic(resources):
    cfg = PreprocessConfig()
    d = doc("یہ ایک خبر ہے")
    assert preprocess(d, cfg, resources) == preprocess(d, cfg, resources)


def test_char_stream_is_space_joined(resources):
    out = preprocess(doc("خبر تازہ"), PreprocessConfig(remove_stopwords=False), resources)
    assert out.char_stream == " ".join(out.tokens)


def test_stage_order_normalize_before_stopwords():
    # A stopword entry written with the Arabic kaf only matches if the
    # normalization stage ran first.
    res = Resources(
        stopwords=StopwordList(frozenset({"کا"})),  # Urdu form
        lemmas=LemmaTable(),
        normmap=NormalizationMap.default(),
    )
    out = preprocess(doc("كا xyz"), PreprocessConfig(), res)  # Arabic kaf
    assert out.tokens == ("xyz",)


def test_stage_order_diacritics_before_normalize_and_stopwords():
    res = Resources(
        stopwords=StopwordList(frozenset({"کا"})),
        lemmas=LemmaTable(),
        normmap=NormalizationMap.default(),
    )
    # kasra inside the stopword: only removed if diacritic strip ran first
    out = preprocess(doc("کِا xyz"), PreprocessConfig(), res)
    assert out.tokens == ("xyz",)


def test_stage_order_stopwords_before_lemmas():
    # the lemma of a stopword is NOT filtered: stopword removal runs first
    res = Resources(
        stopwords=StopwordList(frozenset({"b"})),
        lemmas=LemmaTable({"a": "b"}),
        normmap=NormalizationMap.default(),
    )
    out = preprocess(doc("a b"), PreprocessConfig(), res)
    assert out.tokens == ("b",)


class TracingWords(frozenset):
    """No stopwords; records each membership test (remove_stopwords asks
    the set, not StopwordList.__contains__)."""

    def __new__(cls, trace):
        words = super().__new__(cls)
        words.trace = trace
        return words

    def __contains__(self, token):
        self.trace.append(("stopwords", token))
        return False


class TracingEntries(dict):
    """No lemmas; records each lookup (lemmatize calls the dict's get, not
    LemmaTable.lookup)."""

    def __init__(self, trace):
        super().__init__()
        self.trace = trace

    def get(self, token, default=None):
        self.trace.append(("lemmas", token))
        return default


@pytest.mark.parametrize("flags", range(16))
def test_stage_order_for_every_flag_combination(flags):
    cfg = PreprocessConfig(
        remove_diacritics=bool(flags & 1),
        normalize=bool(flags & 2),
        remove_stopwords=bool(flags & 4),
        lemmatize=bool(flags & 8),
    )
    trace = []
    res = Resources(
        stopwords=StopwordList(TracingWords(trace)),
        lemmas=LemmaTable(TracingEntries(trace)),
        normmap=NormalizationMap.default(),
    )
    out = preprocess(doc("كِتاب دوم"), cfg, res)
    stages = [s for s, _ in trace]
    if cfg.remove_stopwords and cfg.lemmatize:
        assert max(i for i, s in enumerate(stages) if s == "stopwords") < min(
            i for i, s in enumerate(stages) if s == "lemmas"
        )
    # diacritic and normalization effects visible in the token text
    first_token = out.tokens[0]
    assert ("ِ" in first_token) == (not cfg.remove_diacritics)
    assert (first_token.replace("ِ", "")[0] == "ک") == cfg.normalize


def test_resources_canonicalize_stopword_entries(tmp_path):
    # entry uses Arabic kaf + kasra; document uses the clean Urdu form
    sw = tmp_path / "sw.txt"
    sw.write_text("كِا\n", encoding="utf-8")
    res = Resources.load(stopwords_path=sw)
    out = preprocess(doc("کا xyz"), PreprocessConfig(), res)
    assert out.tokens == ("xyz",)


def test_preprocessed_doc_invariant():
    p = PreprocessedDoc.from_tokens(["a", "b"])
    assert p.char_stream == "a b"
