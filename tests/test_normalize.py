"""Normalizer unit, golden-corpus and property tests.

Golden expectations were derived by applying each rewrite rule by hand
in pipeline order (markup, entities, unwanted chars, repeats,
boundaries, spaces) and are asserted byte-exactly.
"""

from __future__ import annotations

import json
import os
import re
import resource
import subprocess
import sys
import types
from unittest import mock

import pytest
import regex
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_preprocess
from conftest import write_csv
from taghrida.normalize import (
    _JOINING_RE,
    _TABLE_MAX_ENTRIES,
    RULE_ORDER,
    NormalizationConfig,
    _remove_unwanted,
    _removal_table,
    collapse_repeats,
    collapse_spaces,
    default_removal_ranges,
    insert_boundaries,
    load_removal_ranges,
    normalize,
    remove_unwanted_chars,
    replace_entities,
    strip_markup,
)

CFG = NormalizationConfig()

# Test-side entity patterns, declared independently of the library.
URL_RE = regex.compile(
    r"https?://\S+|\bwww\.[\w-]+(?:\.[\w-]+)*(?:/\S*)?"
    r"|\b(?:t\.co|bit\.ly|goo\.gl|tinyurl\.com|ow\.ly|youtu\.be|is\.gd|j\.mp)/\S+"
)
EMAIL_RE = regex.compile(r"[\w.+-]+@[\w-]+(?:\.[\w-]+)+")
MENTION_RE = regex.compile(r"@\w{1,15}")
PLACEHOLDERS = ("[ رابط ]", "[ بريد ]", "[ مستخدم ]")

GOLDEN = [
    # --- markup stripping ---
    ("مرحبا<br>بكم", "مرحبا بكم"),
    ("مرحبا<BR/>بكم", "مرحبا بكم"),
    ("نص <b>غامق</b> هنا", "نص غامق هنا"),
    ("<p>فقرة</p><p>ثانية</p>", "فقرة ثانية"),
    ("a&amp;b", "a&b"),
    ("&lt;br&gt;نص", "نص"),
    ("جيد&nbsp;جدا", "جيد جدا"),
    ("5 &gt; 3", "5 > 3"),
    ("الغاء<BR>الحجز", "الغاء الحجز"),
    # --- unwanted characters ---
    ("جميل 😂😂", "جميل"),
    ("نص 🔥 نار", "نص نار"),
    ("قلب ❤️ كبير", "قلب كبير"),
    ("مرحبا" + "\u200f" + "بكم", "مرحبابكم"),  # right-to-left mark between words
    ("تم☑ الحجز", "تم الحجز"),
    ("علم 🇪🇬 مصر", "علم مصر"),
    ("🤣", ""),
    ("الساعة ⌚ الان", "الساعة الان"),
    # --- repeated characters ---
    ("ههههههه", "هه"),
    ("جمييييل", "جمييل"),
    ("لااااا", "لاا"),
    ("cooool!!!!", "cool!!"),
    ("واااو", "وااو"),
    ("ضحكتههههه", "ضحكتهه"),
    ("مبرووووك يا غالي", "مبرووك يا غالي"),
    ("يااااارب", "ياارب"),
    ("مضحكـــ جدا", "مضحكــ جدا"),
    # --- boundary insertion ---
    ("عام2021", "عام 2021"),
    ("(نص)", "( نص )"),
    ("كلمة كلمة", "كلمة كلمة"),
    ("iPhone14 جديد", "iPhone 14 جديد"),
    ("قناةMBC", "قناة MBC"),
    ("نسبة99٪", "نسبة 99 ٪"),
    ("سعره50ريال", "سعره 50 ريال"),
    ("الفوز(المؤكد)قريب", "الفوز ( المؤكد ) قريب"),
    ("عام٢٠٢١", "عام ٢٠٢١"),
    ("٥٠٪ خصم", "٥٠٪ خصم"),
    ("price: $10.99 فقط", "price: $ 10 . 99 فقط"),
    ("نص [مهم] هنا", "نص [مهم] هنا"),
    # --- entity replacement ---
    ("شاهد http://t.co/abc", "شاهد [ رابط ]"),
    ("@user1 مرحبا", "[ مستخدم ] مرحبا"),
    ("لا روابط هنا", "لا روابط هنا"),
    ("راسلني على test@mail.com شكرا", "راسلني على [ بريد ] شكرا"),
    ("زوروا www.example.com الان", "زوروا [ رابط ] الان"),
    ("تابعوني @said_92 و @nour", "تابعوني [ مستخدم ] و [ مستخدم ]"),
    ("https://example.com/path?q=1 رابط مهم", "[ رابط ] رابط مهم"),
    ("ايميلي user.name@sub.domain.org فقط", "ايميلي [ بريد ] فقط"),
    ("خبر عاجل t.co/xyz123", "خبر عاجل [ رابط ]"),
    ("اكتب لي على a@b.co الان", "اكتب لي على [ بريد ] الان"),
    ("news@عرب", "news[ مستخدم ]"),
    ("@abc@def", "[ مستخدم ][ مستخدم ]"),
    ("@abcdefghijklmnopqrst", "[ مستخدم ]pqrst"),
    ("تواصل: info@site.net أو @site_support", "تواصل: [ بريد ] أو [ مستخدم ]"),
    # --- whitespace ---
    ("  ا  ب ", "ا ب"),
    ("ا\t\nب", "ا ب"),
    ("", ""),
    ("   ", ""),
    # --- interactions ---
    ("جمييييييل 😂 @user http://x.co", "جمييل [ مستخدم ] [ رابط ]"),
    ("<br>@fan1 قالlol😂", "[ مستخدم ] قال lol"),
    ("زوروا www.site.com😍 رائع", "زوروا [ رابط ] رائع"),
    (
        "مقال رائع!!!! اقرأه هنا: http://bit.ly/2x 👍",
        "مقال رائع!! اقرأه هنا: [ رابط ]",
    ),
    ("الحلقة  الاخييييرة 3 <i>حصريا</i>", "الحلقة الاخييرة 3 حصريا"),
    (
        "RT @news: عاجل🔴 انخفاض اسعار النفط10%",
        "RT [ مستخدم ]: عاجل انخفاض اسعار النفط 10 %",
    ),
    ("نص مع #وسم وعلامات", "نص مع #وسم وعلامات"),
    ("اشترك الان www.youtube.com/channel/abc", "اشترك الان [ رابط ]"),
    ("هذا نص عادي تماما", "هذا نص عادي تماما"),
]


@pytest.mark.parametrize("text,expected", GOLDEN, ids=range(len(GOLDEN)))
def test_golden_corpus(text, expected):
    assert normalize(text, CFG).normalized == expected


def test_golden_corpus_size():
    assert len(GOLDEN) >= 40


# --- per-operation unit tests ----------------------------------------------


def test_strip_markup_examples():
    assert strip_markup("مرحبا<br>بكم") == "مرحبا بكم"
    assert strip_markup("") == ""
    assert strip_markup("abc") == "abc"
    assert strip_markup("a < b") == "a < b"  # lone bracket survives
    assert strip_markup("&amp;") == "&"
    assert strip_markup("&zzznotreal;") == " "


def test_collapse_repeats_examples():
    assert collapse_repeats("ههههههه", 2) == "هه"
    assert collapse_repeats("جميل", 2) == "جميل"
    assert collapse_repeats("cooool!!!!", 2) == "cool!!"
    assert collapse_repeats("aaa", 1) == "a"
    with pytest.raises(ValueError):
        collapse_repeats("x", 0)


def test_collapse_repeats_grapheme_clusters():
    # letter+diacritic pairs collapse as units, not codepoints
    text = "بّ" * 4  # (beh + shadda) x4
    assert collapse_repeats(text, 2) == "بّ" * 2
    # codepoint-level interleaving has no runs, nothing collapses
    assert collapse_repeats("بّب", 1) == "بّب"


def test_large_max_repeat_run_normalizes_in_bounded_memory(tmp_path):
    # A run cap far above any text's length must cost nothing: the CLI
    # runs under a 2 GB address-space cap and leaves the text as it is.
    corpus = write_csv(
        [{"tweet": "رااااائع جدا", "sarcasm": "FALSE", "sentiment": "NEU"}], tmp_path / "c.csv"
    )
    cfg = tmp_path / "norm.cfg"
    cfg.write_text("max_repeat_run = 100000000\n", encoding="utf-8")
    out = tmp_path / "n.jsonl"
    cap = 2 << 30
    proc = subprocess.run(
        [
            sys.executable, "-c", "import sys; from taghrida.cli import main; sys.exit(main(sys.argv[1:]))",
            "normalize", "--input", str(corpus), "--output", str(out), "--config", str(cfg),
        ],
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(out.read_text(encoding="utf-8"))["normalized"] == "رااااائع جدا"


def test_insert_boundaries_examples():
    assert insert_boundaries("عام2021") == "عام 2021"
    assert insert_boundaries("(نص)") == "( نص )"
    assert insert_boundaries("كلمة كلمة") == "كلمة كلمة"
    assert insert_boundaries("عام 2021") == "عام 2021"  # already spaced


def test_collapse_spaces_examples():
    assert collapse_spaces("  ا  ب ") == "ا ب"
    assert collapse_spaces("اب") == "اب"
    assert collapse_spaces("ا\t\nب") == "ا ب"
    assert collapse_spaces("ا ب") == "ا ب"  # unicode space class


def test_replace_entities_examples():
    assert replace_entities("شاهد http://t.co/abc", CFG) == ("شاهد [ رابط ]", {"url": 1})
    assert replace_entities("@user1 مرحبا", CFG) == ("[ مستخدم ] مرحبا", {"mention": 1})
    assert replace_entities("لا روابط هنا", CFG) == ("لا روابط هنا", {})
    # email precedence: a@b.com is one email, not word + mention
    out, counts = replace_entities("a@b.com", CFG)
    assert out == "[ بريد ]" and counts == {"email": 1}


def test_remove_unwanted_chars_examples():
    assert remove_unwanted_chars("جميل 😂😂", CFG) == "جميل "
    assert remove_unwanted_chars("hello", CFG) == "hello"
    assert remove_unwanted_chars("😂🤣😍", CFG) == ""
    # protected classes survive even with an aggressive table
    wide = NormalizationConfig(removal_ranges=((0, 0x10FFFF),))
    assert remove_unwanted_chars("سلام abc 123 ٤٥ !؟,", wide) == "سلام abc 123 ٤٥ !؟,"


def test_strip_tatweel_diacritics_flag():
    cfg = NormalizationConfig(strip_tatweel_diacritics=True)
    assert remove_unwanted_chars("مضحكـــ", cfg) == "مضحك"
    assert remove_unwanted_chars("العَرَبِيَّة", cfg) == "العربية"
    # off by default
    assert remove_unwanted_chars("مضحكـــ", CFG) == "مضحكـــ"


def test_normalize_records_rules_and_counts():
    res = normalize("جمييييييل 😂 @user http://x.co", CFG)
    assert res.original == "جمييييييل 😂 @user http://x.co"
    assert res.entity_counts == {"mention": 1, "url": 1}
    assert res.rules_applied == (
        "entity_replace",
        "unwanted_chars",
        "repeat_collapse",
        "space_collapse",
    )
    # untouched text reports no applied rules
    assert normalize("هذا نص عادي تماما", CFG).rules_applied == ()
    assert normalize("", CFG).rules_applied == ()
    # private-use sentinels in the input are dropped before any rule runs
    res = normalize("نص\ue000\ue005 عادي\ue0ff", NormalizationConfig(unwanted_chars=False))
    assert res.normalized == "نص عادي\ue0ff" and res.rules_applied == ()


def test_disabled_rules_are_skipped():
    cfg = NormalizationConfig(repeat_collapse=False)
    assert normalize("ههههههه", cfg).normalized == "ههههههه"
    cfg = NormalizationConfig(entity_replace=False)
    assert "@user" in normalize("@user", cfg).normalized


@pytest.mark.parametrize("rule", RULE_ORDER)
def test_each_rule_switches_off_alone(rule):
    text = "<b>جمييييييل</b>عام2021 😂  @user "
    assert normalize(text, CFG).rules_applied == RULE_ORDER
    off = normalize(text, NormalizationConfig(**{rule: False}))
    assert off.rules_applied == tuple(r for r in RULE_ORDER if r != rule)


def test_normalize_short_texts():
    texts = ["ههههه", "", "عام2021"]
    outs = [normalize(t, CFG) for t in texts]
    assert [o.original for o in outs] == texts
    assert [o.normalized for o in outs] == ["هه", "", "عام 2021"]


def test_normalize_module_is_not_shadowed():
    import taghrida

    assert isinstance(taghrida.normalize, types.ModuleType)
    assert taghrida.normalize.normalize is normalize


def test_config_validation():
    with pytest.raises(ValueError):
        NormalizationConfig(max_repeat_run=0)
    with pytest.raises(ValueError):
        NormalizationConfig(placeholder_url="")
    with pytest.raises(ValueError):
        NormalizationConfig(placeholder_mention="a\nb")


def test_config_from_file(tmp_path):
    cfg_file = tmp_path / "norm.cfg"
    cfg_file.write_text(
        "# comment\n"
        "max_repeat_run = 3\n"
        "placeholder_url = [ URL ]\n"
        "placeholder_email = 7\n"
        "boundary_insert = off\n"
        "space_collapse = 0\n"
        "strip_tatweel_diacritics = YES\n",
        encoding="utf-8",
    )
    cfg = NormalizationConfig.from_file(cfg_file)
    assert cfg.max_repeat_run == 3
    assert cfg.placeholder_url == "[ URL ]"
    assert cfg.placeholder_email == "7"
    assert cfg.boundary_insert is False and cfg.space_collapse is False
    assert cfg.strip_tatweel_diacritics is True
    bad = tmp_path / "bad.cfg"
    bad.write_text("no_such_key = 1\n", encoding="utf-8")
    with pytest.raises(ValueError):
        NormalizationConfig.from_file(bad)


@pytest.mark.parametrize(
    "line, message",
    [
        ("max_repeat_run = two", "max_repeat_run"),
        ("markup_strip = maybe", "markup_strip"),
        ("removal_ranges = 1F600..1F64F", "removal_ranges_file"),
    ],
)
def test_config_from_file_names_the_line_of_a_bad_key(tmp_path, line, message):
    cfg_file = tmp_path / "norm.cfg"
    cfg_file.write_text(f"# header\n{line}\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        NormalizationConfig.from_file(cfg_file)
    assert str(exc.value).startswith(f"{cfg_file}:2: ")
    assert message in str(exc.value)


@pytest.mark.parametrize(
    "line, message",
    [
        ("max_repeat_run = 0", "max_repeat_run must be >= 1, got 0"),
        ("placeholder_url =", "placeholder_url must be non-empty"),
    ],
)
def test_config_from_file_names_the_line_of_a_value_that_fails_validation(tmp_path, line, message):
    cfg_file = tmp_path / "norm.cfg"
    cfg_file.write_text(f"# header\n{line}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=regex.escape(f"{cfg_file}:2: {message}")):
        NormalizationConfig.from_file(cfg_file)


def test_removal_ranges_file_roundtrip(tmp_path):
    path = tmp_path / "ranges.txt"
    path.write_text("0600..06FF # never effective (protected)\n1F600..1F64F\n")
    ranges = load_removal_ranges(path)
    assert ranges == ((0x0600, 0x06FF), (0x1F600, 0x1F64F))
    cfg = NormalizationConfig(removal_ranges=ranges)
    assert remove_unwanted_chars("سلام 😀", cfg) == "سلام "
    assert default_removal_ranges()  # packaged table loads


@pytest.mark.parametrize(
    "line, message", [("1F600-1F64F", "bad range line"), ("1F64F..1F600", "empty range")]
)
def test_removal_ranges_file_errors_name_file_and_line(tmp_path, line, message):
    path = tmp_path / "ranges.txt"
    path.write_text(f"# header\n{line}\n")
    with pytest.raises(ValueError, match=regex.escape(f"{path}:2: {message}")):
        load_removal_ranges(path)


# --- property tests ---------------------------------------------------------

ARABIC_LETTERS = "ابتثجحخدذرزسشصضطظعغفقكلمنهويىءةؤئأإآ"
CHAR_POOL = (
    ARABIC_LETTERS * 3
    + "abcdefgh123456789٠١٢٣٤٥٦٧٨٩"
    + "    ..@@//::()<>&;#!?ـًّ\t\n"
    + "😂😍🤣🔥❤✨"
    + "httpwwwtcomsn"
)

mixed_text = st.text(alphabet=st.sampled_from(CHAR_POOL), max_size=60)


def strip_placeholders(text: str) -> str:
    """Mask placeholder tokens with neutral filler before checking output
    invariants. Alternating filler chars keep adjacent placeholders from
    fabricating a repeated-grapheme run that the real text does not have."""
    out = []
    i = 0
    parity = 0
    while i < len(text):
        for ph in PLACEHOLDERS:
            if text.startswith(ph, i):
                out.append("\x00" if parity == 0 else "\x01")
                parity ^= 1
                i += len(ph)
                break
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def grapheme_runs_ok(text: str, max_run: int) -> bool:
    graphemes = regex.findall(r"\X", text)
    run = 0
    prev = None
    for g in graphemes:
        run = run + 1 if g == prev else 1
        prev = g
        if run > max_run:
            return False
    return True


@given(mixed_text)
@settings(max_examples=300, deadline=None)
def test_idempotence(text):
    once = normalize(text, CFG).normalized
    twice = normalize(once, CFG).normalized
    assert once == twice


@given(mixed_text)
@settings(max_examples=300, deadline=None)
def test_no_long_runs_outside_placeholders(text):
    out = strip_placeholders(normalize(text, CFG).normalized)
    assert grapheme_runs_ok(out, CFG.max_repeat_run)


@given(mixed_text)
@settings(max_examples=300, deadline=None)
def test_entity_absence(text):
    out = strip_placeholders(normalize(text, CFG).normalized)
    assert not URL_RE.search(out)
    assert not EMAIL_RE.search(out)
    assert not MENTION_RE.search(out)


@given(mixed_text)
@settings(max_examples=300, deadline=None)
def test_whitespace_invariant(text):
    out = normalize(text, CFG).normalized
    assert "  " not in out
    assert out == out.strip()


@given(mixed_text, st.integers(min_value=1, max_value=4))
@settings(max_examples=300, deadline=None)
def test_collapse_repeats_commutes_with_collapse_spaces(text, max_run):
    a = collapse_spaces(collapse_repeats(text, max_run))
    b = collapse_repeats(collapse_spaces(text), max_run)
    assert a == b


@given(mixed_text, st.integers(min_value=1, max_value=4))
@settings(max_examples=200, deadline=None)
def test_collapse_repeats_against_bruteforce(text, max_run):
    # independent oracle: rebuild the string run by run
    graphemes = regex.findall(r"\X", text)
    rebuilt = []
    i = 0
    while i < len(graphemes):
        j = i
        while j < len(graphemes) and graphemes[j] == graphemes[i]:
            j += 1
        rebuilt.extend(graphemes[i : min(j, i + max_run)])
        i = j
    assert collapse_repeats(text, max_run) == "".join(rebuilt)


@given(mixed_text)
@settings(max_examples=300, deadline=None)
def test_arabic_letters_preserved(text):
    """Arabic letters outside markup/entity spans all survive.

    Repeat collapsing (which deletes surplus letters by design) and
    unwanted-char removal (whose deletions can fuse new entity spans
    the single-pass oracle below cannot see) are disabled so the
    excision oracle is exact.
    """
    import html
    from collections import Counter

    cfg = NormalizationConfig(repeat_collapse=False, unwanted_chars=False)
    out = normalize(text, cfg).normalized

    # excise markup and entity spans with test-side patterns
    decoded = text
    for _ in range(10):
        redecoded = html.unescape(decoded)
        if redecoded == decoded:
            break
        decoded = redecoded
    stripped = regex.sub(r"<[^>]*>", " ", decoded)
    stripped = regex.sub(r"&[a-zA-Z][a-zA-Z0-9]{1,31};", " ", stripped)
    for pattern in (EMAIL_RE, URL_RE, MENTION_RE):
        stripped = pattern.sub(" ", stripped)

    def arabic_multiset(s):
        return Counter(c for c in s if "\u0600" <= c <= "\u06ff" and c.isalpha())

    expected = arabic_multiset(stripped)
    got = arabic_multiset(strip_placeholders(out))
    assert got == expected


# --- fast path against the per-character reference --------------------------

# Private-use sentinels, tatweel, Arabic diacritics, emoji and controls,
# mixed into arbitrary Unicode so each decision branch is drawn often.
SPECIAL_CHARS = (
    "\ue000\ue001\ue002\ue003\ue004\ue005\ue0ff"  # sentinels, another private-use char
    "\u0640\u064b\u064c\u064e\u0651\u0652\u0670\u06d6"  # tatweel, diacritics
    "😂🔥❤\u200d\x00\x7f@:/."
)
any_text = st.text(
    alphabet=st.one_of(st.characters(), st.sampled_from(SPECIAL_CHARS + ARABIC_LETTERS)),
    max_size=80,
)
codepoint = st.one_of(
    st.integers(min_value=0, max_value=0x10FFFF),
    st.sampled_from([0x0600, 0x0640, 0x064B, 0x0670, 0xE000, 0xE005, 0x1F600]),
)
removal_ranges = st.one_of(
    st.just(default_removal_ranges()),
    st.just(((0, 0x10FFFF),)),
    st.lists(st.tuples(codepoint, codepoint).map(lambda r: tuple(sorted(r))), max_size=6).map(tuple),
)
configs = st.builds(
    NormalizationConfig,
    strip_tatweel_diacritics=st.booleans(),
    removal_ranges=removal_ranges,
)


@given(any_text, configs, st.frozensets(st.sampled_from(SPECIAL_CHARS + "ab😂"), max_size=4))
@settings(max_examples=300, deadline=None)
def test_remove_unwanted_matches_reference(text, config, keep):
    want = reference_preprocess.remove_unwanted(text, config, keep)
    assert _remove_unwanted(text, config, keep) == want
    no_keep = reference_preprocess.remove_unwanted(text, config, frozenset())
    assert remove_unwanted_chars(text, config) == no_keep


@given(any_text, configs)
@settings(max_examples=200, deadline=None)
def test_normalize_matches_reference(text, config):
    with mock.patch.multiple(
        "taghrida.normalize",
        _remove_unwanted=reference_preprocess.remove_unwanted,
        collapse_repeats=reference_preprocess.collapse_repeats,
        insert_boundaries=reference_preprocess.insert_boundaries,
    ):
        want = normalize(text, config)
    assert normalize(text, config) == want


def test_removal_table_stays_bounded():
    text = "".join(map(chr, range(0x20000, 0x20000 + 2 * _TABLE_MAX_ENTRIES)))
    config = NormalizationConfig()
    want = reference_preprocess.remove_unwanted(text, config, frozenset())
    assert remove_unwanted_chars(text, config) == want
    table = _removal_table(config.removal_ranges, config.strip_tatweel_diacritics, frozenset())
    assert len(table) <= _TABLE_MAX_ENTRIES


# --- pre-checks against the unguarded rules ----------------------------------

# Units whose grapheme clusters are easy to get wrong: Arabic letters with
# shadda and harakat, Latin letters with combining marks, regional-
# indicator flags, ZWJ emoji sequences, Hangul jamo, decimal digits of
# several scripts, brackets and line breaks. Repeating a unit k times
# makes runs, and neighbouring units can fuse into longer clusters.
GRAPHEME_UNITS = (
    "ب", "ب\u0651", "ب\u0651\u064e", "\u0651", "\u064e", "\u0650\u0652", "\u064b", "ـ",
    "e", "e\u0301", "\u0301", "\u0308", "a", "Z",
    "\U0001F1F8\U0001F1E6", "\U0001F1EA", "\U0001F1EC",
    "\U0001F468\u200d\U0001F469\u200d\U0001F467", "\u200d", "\u2764\ufe0f", "\U0001F44D\U0001F3FD",
    "\u1100", "\u1161", "\u11a8", "\uac00", "\uac01",
    "0", "7", "\u0663", "\u06f5", "\u096b", "\u17e3", "\U0001D7D8", "\uff13",
    "(", ")", "[", "]", " ", "\r\n", "\n",
)
grapheme_text = st.lists(
    st.tuples(
        st.one_of(st.sampled_from(GRAPHEME_UNITS), st.characters()),
        st.integers(min_value=1, max_value=5),
    ),
    max_size=12,
).map(lambda units: "".join(unit * k for unit, k in units))


@given(grapheme_text, st.integers(min_value=1, max_value=4))
@example("eee\u0301", 2)  # \1 matches the base letter of the last cluster
@example("\U0001F1F8\U0001F1E6" * 3, 2)
@example("نص بلا تكرار", 1)
@settings(max_examples=500, deadline=None)
def test_collapse_repeats_matches_reference(text, max_run):
    assert collapse_repeats(text, max_run) == reference_preprocess.collapse_repeats(text, max_run)


def test_code_points_outside_the_joining_class_are_clusters_alone():
    # The premise of collapse_repeats' code-point path: joined by "a" or
    # by "\n", every code point that _JOINING_RE does not match is one
    # extended grapheme cluster on its own.
    alone = _JOINING_RE.sub("", "".join(map(chr, range(0x110000))))
    assert "a" in alone and "\n" in alone and "ب" in alone and "\r" not in alone
    for sep in ("a", "\n"):
        text = sep.join(alone)
        assert regex.findall(r"\X", text) == list(text)


# Three copies of a cluster that spans code points, one for each kind of
# joining code point: CR LF, Extend, Prepend, SpacingMark, Hangul jamo,
# regional indicators and ZWJ. A code-point cut leaves each unchanged.
JOINED_RUNS = (
    "\r\n" * 3,
    "e\u0301" * 3,
    "\u0600\u0628" * 3,
    "\u0915\u093e" * 3,
    "\u1100\u1161" * 3,
    "\U0001F1F8\U0001F1E6" * 3,
    "\U0001F468\u200d\U0001F469\u200d\U0001F467" * 3,
)


@pytest.mark.parametrize("text", JOINED_RUNS)
def test_collapse_repeats_cuts_runs_of_joined_clusters(text):
    want = reference_preprocess.collapse_repeats(text, 2)
    assert want == text[: len(text) * 2 // 3]
    assert re.sub(r"(.)\1{2,}", r"\1\1", text, flags=re.DOTALL) == text
    assert collapse_repeats(text, 2) == want


@given(grapheme_text)
@example("نص بلا حدود")
@example("وسم\u0663\u0663")
@example("\U0001D7D8كتاب")
@settings(max_examples=500, deadline=None)
def test_insert_boundaries_matches_reference(text):
    assert insert_boundaries(text) == reference_preprocess.insert_boundaries(text)
