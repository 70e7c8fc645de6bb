"""Tweet text normalization.

Six composable rewrite rules turn raw social-media text into clean,
whitespace-regular Arabic suitable for segmentation and classification.
`_RULES` below lists them in pipeline order, each under the name that
its `NormalizationConfig` flag and `rules_applied` use.

`normalize()` applies the enabled rules in that fixed order and iterates
the whole pass until the text stops changing, so its output is a fixed
point: normalizing twice never differs from normalizing once, and no
URL/email/mention pattern can survive (even ones that only appear after
emoji removal fuses their pieces together).
"""

from __future__ import annotations

import html
import re
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Mapping

import regex

# Arabic script blocks, including presentation forms.
ARABIC_BLOCKS = (
    (0x0600, 0x06FF),
    (0x0750, 0x077F),
    (0x08A0, 0x08FF),
    (0xFB50, 0xFDFF),
    (0xFE70, 0xFEFF),
)

# HTML stripping. Entities are decoded to a fixed point *before* tags are
# removed so that double-encoded markup ("&lt;br&gt;") is stripped too.
_TAG_RE = regex.compile(r"<[^>]*>")
_UNKNOWN_ENTITY_RE = regex.compile(r"&[a-zA-Z][a-zA-Z0-9]{1,31};")

# Entity replacement. Matching is leftmost-longest across the three
# pattern families, email winning ties with mention so "a@b.com" is
# never split into a word plus a mention.
_URL_RE = regex.compile(
    r"""
    https?://\S+                                    # scheme URLs
    | \bwww\.[\w-]+(?:\.[\w-]+)*(?:/\S*)?           # bare www hosts
    | \b(?:t\.co|bit\.ly|goo\.gl|tinyurl\.com|ow\.ly|youtu\.be|is\.gd|j\.mp)/\S+
    """,
    regex.VERBOSE,
)
_EMAIL_RE = regex.compile(r"[\w.+-]+@[\w-]+(?:\.[\w-]+)+")
_MENTION_RE = regex.compile(r"@\w{1,15}")

# Repeat collapsing works on extended grapheme clusters so an Arabic
# letter plus its diacritic counts as one unit.
_GRAPHEME_RE = regex.compile(r"\X")

# Under the cluster rules of Unicode UAX #29 a code point can share a
# cluster with a neighbour only if its Grapheme_Cluster_Break value is
# not Other, Control or LF. CR is in this class, so a "\r\n" pair is
# found too. A text without a match has one cluster per code point, and
# its runs can be cut code point by code point.
_JOINING_RE = regex.compile(r"[^\p{GCB=Other}\p{GCB=Control}\p{GCB=LF}]")


# A code point, `max_run - 1` copies of it (group 1 holds all
# `max_run`), then at least one copy more: the part of a run to cut.
@lru_cache(maxsize=8)
def _codepoint_run_re(max_run: int) -> re.Pattern:
    return re.compile(rf"((.)\2{{{max_run - 1}}})\2+", re.DOTALL)


# Boundary insertion. AR = Arabic-script letter, LD = ASCII letter or any
# decimal digit, ND = decimal digit outside the Arabic-Indic sets.
_AR = r"[\p{Arabic}&&\p{L}]"
_LD = r"[A-Za-z\p{Nd}]"
_ND = r"[\p{Nd}--[٠-٩۰-۹]]"
_NOT_SPACE_OR_ND = rf"[^\s{_ND}]"  # nested set: complement of (space | ND)
_BOUNDARY_RES = (
    regex.compile(r"(?<=\S)(?=[()])"),
    regex.compile(r"(?<=[()])(?=\S)"),
    regex.compile(rf"(?<={_AR})(?={_LD})", regex.V1),
    regex.compile(rf"(?<={_LD})(?={_AR})", regex.V1),
    regex.compile(rf"(?<={_NOT_SPACE_OR_ND})(?={_ND})", regex.V1),
    regex.compile(rf"(?<={_ND})(?={_NOT_SPACE_OR_ND})", regex.V1),
)
# Every pattern above needs a round bracket or an LD character (ND is
# part of LD) to match, and a space it inserts is none of them: a text
# without these characters comes back unchanged.
_BOUNDARY_TRIGGER_RE = regex.compile(r"[()A-Za-z\p{Nd}]")

_SPACE_RUN_RE = regex.compile(r"\s+")

# Tatweel and Arabic diacritical marks, stripped only on request.
_TATWEEL_DIACRITICS_RE = regex.compile(
    "[\u0640\u0610-\u061a\u064b-\u065f\u0670\u06d6-\u06ed]"
)

# Private-use sentinels used while a placeholder is in flight through the
# pipeline stages. Two alternating codepoints per entity class keep
# adjacent placeholders from ever forming a repeated-grapheme run.
_SENTINELS = {
    "url": ("\ue000", "\ue001"),
    "email": ("\ue002", "\ue003"),
    "mention": ("\ue004", "\ue005"),
}
ENTITY_KINDS = tuple(_SENTINELS)
_SENTINEL_CHARS = frozenset(c for pair in _SENTINELS.values() for c in pair)
# A substitution, not `str.translate`: translate looks up every
# character and pays for a KeyError on each one not in its table.
_SENTINEL_RE = regex.compile("[" + "".join(sorted(_SENTINEL_CHARS)) + "]")

# A full pipeline pass is repeated until the text stabilizes; real tweets
# settle after one pass, adversarial interleavings after two or three.
_MAX_PASSES = 10


def _parse_ranges(text: str, source: str) -> tuple[tuple[int, int], ...]:
    """Parse a removable-codepoint table: one HEXSTART..HEXEND per line,
    `#` comments. Errors name `source` and the line."""
    ranges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            lo_s, hi_s = line.split("..")
            lo, hi = int(lo_s, 16), int(hi_s, 16)
        except ValueError:
            raise ValueError(f"{source}:{lineno}: bad range line {line!r}") from None
        if lo > hi:
            raise ValueError(f"{source}:{lineno}: empty range {line!r}")
        ranges.append((lo, hi))
    return tuple(ranges)


def load_removal_ranges(path: str | Path) -> tuple[tuple[int, int], ...]:
    """Parse a removable-codepoint table: one HEXSTART..HEXEND per line."""
    return _parse_ranges(Path(path).read_text(encoding="utf-8"), str(path))


@lru_cache(maxsize=1)
def default_removal_ranges() -> tuple[tuple[int, int], ...]:
    """The packaged emoji/pictograph/control removal table."""
    text = (
        resources.files("taghrida").joinpath("data/removal_ranges.txt")
        .read_text(encoding="utf-8")
    )
    return _parse_ranges(text, "removal_ranges.txt")


DEFAULT_PLACEHOLDER_URL = "[ رابط ]"
DEFAULT_PLACEHOLDER_EMAIL = "[ بريد ]"
DEFAULT_PLACEHOLDER_MENTION = "[ مستخدم ]"

# Config-file value parsers by the declared type of a field, which
# `from __future__ import annotations` leaves a string.
_FLAG_WORDS = {
    **dict.fromkeys(("true", "1", "yes", "on"), True),
    **dict.fromkeys(("false", "0", "no", "off"), False),
}
_VALUE_PARSERS = {"bool": lambda value: _FLAG_WORDS[value.lower()], "int": int, "str": str}


@dataclass(frozen=True)
class NormalizationConfig:
    """Switches and parameters for the normalization pipeline.

    Each rule has an enable flag. `max_repeat_run` caps grapheme runs,
    the placeholder strings replace matched entities verbatim, and
    `removal_ranges` overrides the packaged unwanted-character table.
    """

    markup_strip: bool = True
    unwanted_chars: bool = True
    repeat_collapse: bool = True
    space_collapse: bool = True
    boundary_insert: bool = True
    entity_replace: bool = True
    max_repeat_run: int = 2
    placeholder_url: str = DEFAULT_PLACEHOLDER_URL
    placeholder_email: str = DEFAULT_PLACEHOLDER_EMAIL
    placeholder_mention: str = DEFAULT_PLACEHOLDER_MENTION
    strip_tatweel_diacritics: bool = False
    removal_ranges: tuple[tuple[int, int], ...] = field(
        default_factory=default_removal_ranges
    )

    def __post_init__(self):
        for name in _CHECKED_FIELDS:
            _check_field(name, getattr(self, name))

    @classmethod
    def from_file(cls, path: str | Path) -> "NormalizationConfig":
        """Load a UTF-8 key=value config file.

        Keys are the bool, int and str fields, each value parsed by its
        field's type: flags accept true/false/1/0/yes/no/on/off.
        `removal_ranges_file` points to an alternate removable-codepoint
        table. Placeholder values keep interior spaces but have outer
        whitespace trimmed. Errors name the file and the line.
        """
        declared = {f.name: f.type for f in fields(cls)}
        kwargs: dict = {}
        for lineno, raw in enumerate(
            Path(path).read_text(encoding="utf-8").splitlines(), start=1
        ):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key == "removal_ranges_file":
                kwargs["removal_ranges"] = load_removal_ranges(value)
            elif declared.get(key) in _VALUE_PARSERS:
                try:
                    kwargs[key] = _VALUE_PARSERS[declared[key]](value)
                except (KeyError, ValueError):
                    raise ValueError(
                        f"{path}:{lineno}: {key} takes a {declared[key]}, got {value!r}"
                    ) from None
                try:
                    _check_field(key, kwargs[key])
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
            elif key == "removal_ranges":
                raise ValueError(
                    f"{path}:{lineno}: unknown key 'removal_ranges'; "
                    "name a table file with removal_ranges_file"
                )
            else:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        return cls(**kwargs)


# The fields `_check_field` has a rule for.
_CHECKED_FIELDS = ("max_repeat_run", *(f"placeholder_{kind}" for kind in ENTITY_KINDS))


def _check_field(name: str, value) -> None:
    """Raise ValueError if `value` is not allowed for the field `name`."""
    if name == "max_repeat_run" and value < 1:
        raise ValueError(f"max_repeat_run must be >= 1, got {value}")
    if name.startswith("placeholder_") and (not value or "\n" in value):
        raise ValueError(f"{name} must be non-empty and newline-free")


def _placeholders(config: NormalizationConfig) -> dict[str, str]:
    """The placeholder that stands for each entity kind."""
    return {kind: getattr(config, f"placeholder_{kind}") for kind in ENTITY_KINDS}


@dataclass(frozen=True)
class NormalizedText:
    """A normalized tweet plus the audit trail of rules that changed it
    and the number of pipeline passes run (the last one changed nothing
    unless the text hit the pass cap)."""

    original: str
    normalized: str
    rules_applied: tuple[str, ...]
    entity_counts: Mapping[str, int]
    passes: int


def is_arabic_char(ch: str) -> bool:
    code = ord(ch)
    return any(lo <= code <= hi for lo, hi in ARABIC_BLOCKS)


def strip_markup(text: str) -> str:
    """Remove HTML markup: tags become one space, entities are decoded.

    Entities are decoded repeatedly until stable (handles double
    encoding), then complete ``<...>`` spans and undecodable ``&name;``
    entities are replaced with a single space. Lone ``<`` ``>`` ``&``
    characters are ordinary text and survive.
    """
    for _ in range(_MAX_PASSES):
        decoded = html.unescape(text)
        if decoded == text:
            break
        text = decoded
    text = _TAG_RE.sub(" ", text)
    return _UNKNOWN_ENTITY_RE.sub(" ", text)


def _entity_spans(text: str) -> list[tuple[int, int, str]]:
    """Non-overlapping (start, end, kind) entity spans, leftmost-longest."""
    candidates = []
    for rank, (kind, pattern) in enumerate(
        (("email", _EMAIL_RE), ("url", _URL_RE), ("mention", _MENTION_RE))
    ):
        for m in pattern.finditer(text):
            candidates.append((m.start(), -(m.end() - m.start()), rank, m.end(), kind))
    candidates.sort()
    spans = []
    cursor = 0
    for start, _neg_len, _rank, end, kind in candidates:
        if start >= cursor:
            spans.append((start, end, kind))
            cursor = end
    return spans


def replace_entities(
    text: str, config: NormalizationConfig | None = None
) -> tuple[str, dict[str, int]]:
    """Replace URL, email and mention spans with placeholder tokens.

    Returns the rewritten text and a count per entity class (classes
    with zero matches are omitted).
    """
    config = config or NormalizationConfig()
    pairs = {kind: (p, p) for kind, p in _placeholders(config).items()}
    counts: Counter = Counter()
    out = _replace_entity_spans(text, pairs, counts)
    return out, dict(counts)


def _replace_entity_spans(
    text: str, pairs: Mapping[str, tuple[str, str]], counts: Counter
) -> str:
    """Replace each entity span by its kind's pair of replacements, used
    in turn, and count the spans per kind."""
    # Every URL, email and mention pattern needs one of these to match.
    if "@" not in text and "/" not in text and "www." not in text:
        return text
    spans = _entity_spans(text)
    if not spans:
        return text
    pieces = []
    cursor = 0
    for start, end, kind in spans:
        pieces.append(text[cursor:start])
        pieces.append(pairs[kind][counts[kind] % 2])
        counts[kind] += 1
        cursor = end
    pieces.append(text[cursor:])
    return "".join(pieces)


def remove_unwanted_chars(
    text: str, config: NormalizationConfig | None = None
) -> str:
    """Drop characters in the configured removal table.

    Arabic script, printable ASCII, Unicode punctuation and whitespace
    are never dropped regardless of the table, so the rule cannot eat
    real tweet content.
    """
    config = config or NormalizationConfig()
    return _remove_unwanted(text, config, keep=frozenset())


def _remove_unwanted(text: str, config: NormalizationConfig, keep: frozenset) -> str:
    return text.translate(
        _removal_table(config.removal_ranges, config.strip_tatweel_diacritics, keep)
    )


# Decisions stored per table; tweets use a few thousand distinct
# codepoints, and the cap keeps a text spanning all of Unicode from
# growing a table without limit (past it, decisions are made uncached).
_TABLE_MAX_ENTRIES = 1 << 15


class _RemovalTable(dict):
    """A `str.translate` table that decides each codepoint on first
    sight: it maps to itself (keep) or to None (drop), and the decision
    is stored. The table only caches the per-character rule, so the
    output is the same as applying the rule character by character."""

    def __init__(self, ranges, strip_tatweel_diacritics: bool, keep: frozenset):
        super().__init__()
        self.ranges = ranges
        self.strip_tatweel_diacritics = strip_tatweel_diacritics
        self.keep = keep

    def __missing__(self, code: int) -> int | None:
        ch = chr(code)
        if ch in self.keep:
            decision = code
        elif self.strip_tatweel_diacritics and _TATWEEL_DIACRITICS_RE.match(ch):
            decision = None
        elif any(lo <= code <= hi for lo, hi in self.ranges) and not _protected(ch, code):
            decision = None
        else:
            decision = code
        if len(self) < _TABLE_MAX_ENTRIES:
            self[code] = decision
        return decision


# Keyed by value, not by config identity: `normalize(text)` without a
# config builds a fresh NormalizationConfig on every call.
@lru_cache(maxsize=8)
def _removal_table(ranges, strip_tatweel_diacritics: bool, keep: frozenset) -> _RemovalTable:
    return _RemovalTable(ranges, strip_tatweel_diacritics, keep)


_PUNCT_RE = regex.compile(r"\p{P}")


def _protected(ch: str, code: int) -> bool:
    if 0x20 <= code <= 0x7E:  # printable ASCII: letters, digits, punctuation
        return True
    if ch.isspace():
        return True
    if is_arabic_char(ch):
        return True
    return _PUNCT_RE.match(ch) is not None


def collapse_repeats(text: str, max_run: int) -> str:
    """Truncate runs of an identical grapheme cluster to `max_run`."""
    if max_run < 1:
        raise ValueError(f"max_run must be >= 1, got {max_run}")
    if len(text) <= max_run:
        return text
    if not _JOINING_RE.search(text):
        return _codepoint_run_re(max_run).sub(r"\1", text)
    out = []
    prev = None
    run = 0
    for g in _GRAPHEME_RE.findall(text):
        run = run + 1 if g == prev else 1
        prev = g
        if run <= max_run:
            out.append(g)
    return "".join(out)


def insert_boundaries(text: str) -> str:
    """Space out Latin letters, digits and round brackets from their
    neighbors: one space per qualifying boundary, none where whitespace
    already separates the pair."""
    if not _BOUNDARY_TRIGGER_RE.search(text):
        return text
    for pattern in _BOUNDARY_RES:
        text = pattern.sub(" ", text)
    return text


def collapse_spaces(text: str) -> str:
    """Squeeze every whitespace run to a single space and trim the ends."""
    return _SPACE_RUN_RE.sub(" ", text).strip()


# The pipeline: each rule under the name its config flag and
# `rules_applied` use, in the order the rules run, called as
# rule(text, config, entity_counts). An entry looks its function up when
# called, so a rule patched on this module runs in the pipeline.
_RULES = (
    # drop HTML tags, decode/drop character entities
    ("markup_strip", lambda text, cfg, counts: strip_markup(text)),
    # URLs / emails / @mentions become masked placeholders
    ("entity_replace", lambda text, cfg, counts: _replace_entity_spans(text, _SENTINELS, counts)),
    # drop emoji, pictographs and control characters
    ("unwanted_chars", lambda text, cfg, counts: _remove_unwanted(text, cfg, _SENTINEL_CHARS)),
    # cap elongated grapheme runs ("heeey" style)
    ("repeat_collapse", lambda text, cfg, counts: collapse_repeats(text, cfg.max_repeat_run)),
    # space out digits, Latin letters and round brackets
    ("boundary_insert", lambda text, cfg, counts: insert_boundaries(text)),
    # squeeze whitespace runs, trim the ends
    ("space_collapse", lambda text, cfg, counts: collapse_spaces(text)),
)
RULE_ORDER = tuple(name for name, _ in _RULES)


def normalize(text: str, config: NormalizationConfig | None = None) -> NormalizedText:
    """Run the full normalization pipeline over one tweet.

    Enabled rules run in `RULE_ORDER`; the whole pass repeats until the
    text is stable. Placeholder tokens are masked behind private-use
    sentinels while the pass runs so the later rules can never mangle
    them. `rules_applied` lists, in pipeline order, the rules that
    actually changed the text.
    """
    config = config or NormalizationConfig()
    original = text
    # Pre-existing private-use sentinels would be indistinguishable from
    # our masks, so they are scrubbed up front.
    current = _SENTINEL_RE.sub("", text)
    counts: Counter = Counter()
    applied: dict[str, None] = {}
    rules = [(name, rule) for name, rule in _RULES if getattr(config, name)]

    for passes in range(1, _MAX_PASSES + 1):
        before_pass = current
        for name, rule in rules:
            rewritten = rule(current, config, counts)
            if rewritten != current:
                applied[name] = None
            current = rewritten
        if current == before_pass:
            break

    for kind, placeholder in _placeholders(config).items():
        for sentinel in _SENTINELS[kind]:
            current = current.replace(sentinel, placeholder)

    return NormalizedText(
        original=original,
        normalized=current,
        rules_applied=tuple(r for r in RULE_ORDER if r in applied),
        entity_counts=dict(counts),
        passes=passes,
    )
