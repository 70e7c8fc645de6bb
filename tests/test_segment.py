"""Segmenter unit and round-trip tests."""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_preprocess
from conftest import token_kind
from taghrida import segment
from taghrida.errors import DataError
from taghrida.normalize import ARABIC_BLOCKS, NormalizationConfig, normalize
from taghrida.segment import (
    _is_segmentable,
    DEFAULT_ENCLITICS,
    DEFAULT_PROCLITICS,
    CliticRules,
    Lexicon,
    SegmentedToken,
    default_lexicon,
    desegment,
    load_lexicon,
    segment_stats,
    segment_text,
    segment_token,
)

ARABIC_LETTERS = "ابتثجحخدذرزسشصضطظعغفقكلمنهوي"


def random_arabic_text(rng: random.Random) -> str:
    tokens = []
    for _ in range(rng.randint(1, 8)):
        kind = rng.random()
        if kind < 0.75:
            tokens.append(
                "".join(rng.choice(ARABIC_LETTERS) for _ in range(rng.randint(1, 8)))
            )
        elif kind < 0.85:
            tokens.append(str(rng.randint(0, 9999)))
        elif kind < 0.95:
            tokens.extend(["[", rng.choice(["رابط", "بريد", "مستخدم"]), "]"])
        else:
            tokens.append(rng.choice(["(", ")", "!", "؟", "#وسم"]))
    return " ".join(tokens)


# --- lexicon loading --------------------------------------------------------


def test_load_lexicon(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("كتاب\nقلم # a comment\n\n# full comment line\nكتاب\n", encoding="utf-8")
    lex = load_lexicon(path)
    assert len(lex) == 2  # duplicates collapse
    assert "كتاب" in lex and "قلم" in lex


def test_load_lexicon_only_comments(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_text("# nothing\n# here\n", encoding="utf-8")
    with pytest.raises(DataError, match="empty lexicon"):
        load_lexicon(path)


def test_load_lexicon_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_lexicon(tmp_path / "absent.txt")


def test_load_lexicon_bad_utf8(tmp_path):
    path = tmp_path / "lex.txt"
    path.write_bytes("كتاب\n".encode("utf-8") + b"\xff\xfe\n")
    with pytest.raises(DataError, match="lex.txt:2"):
        load_lexicon(path)


def test_default_lexicon_loads():
    lex = default_lexicon()
    assert len(lex) > 500
    assert "كتاب" in lex and "جميل" in lex


# --- rules validation -------------------------------------------------------


def test_rules_validation():
    with pytest.raises(ValueError, match="non-empty"):
        CliticRules(proclitics=())
    with pytest.raises(ValueError, match="Arabic"):
        CliticRules(proclitics=("و", "x"))
    # a proclitic listed before a composite that ends with it
    with pytest.raises(ValueError, match="suffix"):
        CliticRules(proclitics=("ال", "وال", "و"))
    with pytest.raises(ValueError):
        CliticRules(min_stem_len=0)


def test_composite_proclitics_expand():
    rules = CliticRules()
    assert rules.proclitic_units("وال") == ("و", "ال")
    assert rules.proclitic_units("بال") == ("ب", "ال")
    assert rules.proclitic_units("لل") == ("ل", "ل")
    assert rules.proclitic_units("ال") == ("ال",)


# --- segment_token ----------------------------------------------------------


def test_segment_token_examples(rules, lexicon):
    st = segment_token("الكتاب", rules, lexicon)
    assert st.proclitics == ("ال",) and st.stem == "كتاب"

    st = segment_token("كتاب", rules, lexicon)
    assert st.proclitics == () and st.enclitics == () and st.stem == "كتاب"

    st = segment_token("[", rules, lexicon)
    assert st.stem == "[" and not st.is_segmented


def test_segment_token_enclitics(rules, lexicon):
    st = segment_token("كتابها", rules, lexicon)
    assert st.stem == "كتاب" and st.enclitics == ("ها",)
    assert st.rendered() == "كتاب +ها"


def test_segment_token_composite(rules, lexicon):
    st = segment_token("والكتاب", rules, lexicon)
    assert st.proclitics == ("و", "ال") and st.stem == "كتاب"
    assert st.rendered() == "و+ ال+ كتاب"


def test_longest_match_dominance(rules):
    # both وال and و leave a lexicon stem; the longer strip must win
    crafted = Lexicon(frozenset({"كتاب", "الكتاب"}))
    st = segment_token("والكتاب", rules, crafted)
    assert st.proclitics == ("و", "ال")
    assert st.stem == "كتاب"


def test_shorter_proclitic_wins_when_longer_misses(rules):
    crafted = Lexicon(frozenset({"الكتاب"}))
    st = segment_token("والكتاب", rules, crafted)
    assert st.proclitics == ("و",) and st.stem == "الكتاب"


def test_only_the_longest_enclitic_is_tried():
    # ني and ي both end بيني; ني leaves بي, no stem, and ي is not tried
    # although it would leave the stem بين.
    rules = CliticRules(enclitics=DEFAULT_ENCLITICS + ("ني",))
    lexicon = Lexicon(frozenset({"بين", "كتاب"}))
    assert segment_token("بيني", rules, lexicon).rendered() == "ب+ يني"
    assert segment_token("والكتابني", rules, lexicon).rendered() == "و+ ال+ كتاب +ني"
    for token in ("بيني", "والكتابني"):
        assert segment_token(token, rules, lexicon) == reference_preprocess.segment_token(token, rules, lexicon)


def test_whole_token_beats_any_strip(rules):
    # the unstripped token is itself a lexicon stem; no affix "improves" it
    crafted = Lexicon(frozenset({"كتاب", "تاب"}))
    st = segment_token("كتاب", rules, crafted)
    assert st.stem == "كتاب" and not st.is_segmented


def test_fallback_single_atomic_proclitic(rules):
    empty_ish = Lexicon(frozenset({"زيد"}))
    st = segment_token("والكتاب", rules, empty_ish)
    assert st.proclitics == ("و",) and st.stem == "الكتاب"
    # too-short remainder stays whole
    st = segment_token("وف", rules, empty_ish)
    assert not st.is_segmented


def test_min_stem_len_respected(rules, lexicon):
    strict = CliticRules(min_stem_len=5)
    st = segment_token("الكتاب", strict, lexicon)
    assert st.stem == "الكتاب" or len(st.stem) >= 5


def test_non_arabic_tokens_pass_through(rules, lexicon):
    for token in ["123", "abc", "a1b", "كتاب1", "#وسم", "[", "]"]:
        st = segment_token(token, rules, lexicon)
        assert not st.is_segmented, token


def test_surface_conservation_enforced():
    with pytest.raises(ValueError):
        SegmentedToken(surface="ابج", stem="اب", proclitics=("x",))


# --- segment_text / desegment -----------------------------------------------


def test_segment_text_examples(rules, lexicon):
    assert segment_text("والكتاب جميل", rules, lexicon) == "و+ ال+ كتاب جميل"
    assert segment_text("", rules, lexicon) == ""
    assert segment_text("[ رابط ]", rules, lexicon) == "[ رابط ]"


def test_segment_text_placeholder_not_segmented(rules, lexicon):
    # بريد starts with the proclitic ب but placeholders pass through whole
    out = segment_text("ارسل [ بريد ] الان", rules, lexicon)
    assert "[ بريد ]" in out


def test_desegment_examples():
    assert desegment("و+ ال+ كتاب") == "والكتاب"
    assert desegment("كتاب") == "كتاب"
    assert desegment("كتاب +ها") == "كتابها"
    for bad in ["+ كتاب", "كتاب +", "و+", "+", "++", "و+ +ها"]:
        with pytest.raises(DataError):
            desegment(bad)


def test_deterministic(rules, lexicon):
    rng = random.Random(5)
    texts = [random_arabic_text(rng) for _ in range(50)]
    first = [segment_text(t, rules, lexicon) for t in texts]
    second = [segment_text(t, rules, lexicon) for t in texts]
    assert first == second


def test_roundtrip_random_sequences(rules, lexicon):
    rng = random.Random(1234)
    for _ in range(2000):
        text = random_arabic_text(rng)
        assert desegment(segment_text(text, rules, lexicon)) == text


def test_roundtrip_after_normalization(rules, lexicon):
    cfg = NormalizationConfig()
    raw = [
        "جمييييييل 😂 @user http://x.co",
        "والكتاب المدرسي للعام 2021",
        "اكتب لي على a@b.co الان",
        "الفوز(المؤكد)قريب!!!",
    ]
    for text in raw:
        norm = normalize(text, cfg).normalized
        seg = segment_text(norm, rules, lexicon)
        assert desegment(seg) == norm


# --- cached strips against the per-step reference ----------------------------

# Any subsequence of a valid proclitic order is valid: no entry is a
# suffix of a later one.
PROCLITIC_POOL = ("وبال",) + DEFAULT_PROCLITICS + ("س",)
ENCLITIC_POOL = DEFAULT_ENCLITICS + ("هما", "ني")
LEXICON = default_lexicon()
STEMS = sorted(LEXICON.stems)


def ordered_subset(pool):
    return st.lists(st.sampled_from(pool), min_size=1, max_size=len(pool), unique=True).map(
        lambda picked: tuple(entry for entry in pool if entry in picked)
    )


clitic_rules = st.builds(
    CliticRules,
    proclitics=ordered_subset(PROCLITIC_POOL),
    enclitics=ordered_subset(ENCLITIC_POOL),
    min_stem_len=st.integers(min_value=1, max_value=3),
)
composed_token = st.tuples(
    st.lists(st.sampled_from(PROCLITIC_POOL), max_size=2),
    st.one_of(st.sampled_from(STEMS), st.text(alphabet=ARABIC_LETTERS, min_size=1, max_size=6)),
    st.lists(st.sampled_from(ENCLITIC_POOL), max_size=1),
).map(lambda parts: "".join(parts[0]) + parts[1] + "".join(parts[2]))
composed_text = st.lists(
    st.one_of(composed_token, st.sampled_from(["[ رابط ]", "2021", "(", "#وسم", "abc"])),
    max_size=8,
).map(" ".join)


@given(composed_text, clitic_rules, st.sets(st.integers(min_value=1, max_value=4), max_size=2))
@settings(max_examples=300, deadline=None)
def test_segment_text_matches_reference(text, rules, cuts):
    # Token tails as extra stems: a stem that itself starts with a clitic
    # makes the order of the strips matter.
    tails = {token[cut:] for token in text.split() for cut in cuts if len(token) > cut}
    lexicon = Lexicon(stems=LEXICON.stems | tails)
    want = reference_preprocess.segment_text(text, rules, lexicon)
    assert segment_text(text, rules, lexicon) == want
    for entry in rules.proclitics:
        assert rules.proclitic_units(entry) == reference_preprocess.proclitic_units(rules, entry)


@given(
    st.lists(composed_text, min_size=1, max_size=4),
    clitic_rules,
    clitic_rules,
    st.sets(st.integers(min_value=1, max_value=4), min_size=1, max_size=2),
)
@settings(max_examples=150, deadline=None)
def test_segment_text_memo_matches_reference(texts, rules_a, rules_b, cuts):
    # Two rules objects and two lexicons see the same tokens; the tails
    # in the second lexicon change how some of those tokens split.
    tails = {token[cut:] for text in texts for token in text.split() for cut in cuts if len(token) > cut}
    lexicons = (LEXICON, Lexicon(stems=LEXICON.stems | tails))
    for _ in range(2):
        for lexicon in lexicons:
            for rules in (rules_a, rules_b):
                for text in texts + texts:  # the second pass reads the warmed memo
                    want = reference_preprocess.segment_text(text, rules, lexicon)
                    assert segment_text(text, rules, lexicon) == want


def test_segment_memo_stays_bounded(monkeypatch):
    monkeypatch.setattr(segment, "_MEMO_MAX_ENTRIES", 64)
    rules = CliticRules()
    words = [f"ال{stem}" for stem in STEMS[:200]]
    text = " ".join(words + ["[", "رابط", "]"] + words)
    assert segment_text(text, rules, LEXICON) == reference_preprocess.segment_text(text, rules, LEXICON)
    assert len(rules._memo(LEXICON).rendered) == 64
    # Past the cap a token met again is segmented, and counted, again.
    assert segment_stats(rules, LEXICON) == {
        "tokens": 400, "distinct_tokens": 200 + 200 - 64, "placeholder_spans": 1,
        "lexicon_hits": 400, "fallback_peels": 0, "passthrough": 0,
    }


def test_segment_stats_restart_with_another_lexicon():
    fresh = CliticRules()
    other = Lexicon(frozenset({"كتاب"}))
    segment_text("والكتاب والكتاب [ رابط ] والقلم", fresh, LEXICON)
    assert segment_stats(fresh, LEXICON) == {
        "tokens": 3, "distinct_tokens": 2, "placeholder_spans": 1,
        "lexicon_hits": 3, "fallback_peels": 0, "passthrough": 0,
    }
    segment_text("والكتاب والقلم 2021", fresh, other)
    assert segment_stats(fresh, other) == {
        "tokens": 3, "distinct_tokens": 3, "placeholder_spans": 0,
        "lexicon_hits": 1, "fallback_peels": 1, "passthrough": 1,
    }


@given(composed_text, clitic_rules, st.sets(st.integers(min_value=1, max_value=4), max_size=2))
@settings(max_examples=200, deadline=None)
def test_segment_text_memo_renders_and_counts_as_segment_token(text, rules, cuts):
    tails = {token[cut:] for token in text.split() for cut in cuts if len(token) > cut}
    lexicon = Lexicon(stems=LEXICON.stems | tails)
    for token in text.split():
        fresh = CliticRules(rules.proclitics, rules.enclitics, rules.min_stem_len)
        seg = segment_token(token, fresh, lexicon)
        assert segment_text(token, fresh, lexicon) == seg.rendered()
        assert segment_text(token, fresh, lexicon) == seg.rendered()  # from the memo
        stats = segment_stats(fresh, lexicon)
        assert stats["tokens"] == 2 and stats["distinct_tokens"] == 1
        assert stats[token_kind(seg, fresh, lexicon)] == 2


def test_lexicon_stems_are_frozen():
    lexicon = Lexicon({"كتاب"})
    assert isinstance(lexicon.stems, frozenset) and hash(lexicon) == hash(Lexicon(frozenset({"كتاب"})))
    assert segment_text("الكتاب", CliticRules(), lexicon) == "ال+ كتاب"


BLOCK_EDGES = [chr(code) for lo, hi in ARABIC_BLOCKS for code in (lo - 1, lo, hi, hi + 1)]


@given(
    st.text(
        alphabet=st.one_of(
            st.characters(),
            st.characters(categories=["Cs"]),
            st.sampled_from(BLOCK_EDGES + list(ARABIC_LETTERS + "٠١٢،؟ـ")),
        ),
        max_size=8,
    )
)
@settings(max_examples=500, deadline=None)
def test_is_segmentable_matches_reference(token):
    assert _is_segmentable(token) == reference_preprocess.is_segmentable(token)


def test_derived_strips_leave_fields_equality_and_hash(rules, lexicon):
    fresh = CliticRules()
    segment_text("والكتاب كتابها", rules, lexicon)  # derives the cached strips
    assert [f.name for f in dataclasses.fields(rules)] == ["proclitics", "enclitics", "min_stem_len"]
    assert rules == fresh and hash(rules) == hash(fresh)
    assert repr(rules) == repr(fresh)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rules.min_stem_len = 3
