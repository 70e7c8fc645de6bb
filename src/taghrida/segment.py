"""Light-weight Arabic clitic segmentation.

A greedy longest-match splitter that peels productive proclitics
(conjunctions, prepositions, the definite article) and pronominal
enclitics off a token, validating the remaining stem against a lexicon.
Output uses the conventional `+` marker format: proclitics carry a
trailing marker, enclitics a leading one, e.g.

    والكتاب  ->  و+ ال+ كتاب
    كتابها   ->  كتاب +ها

This is a deterministic approximation of full morphological
segmentation: no POS disambiguation, at most two proclitic units and one
enclitic per token, and surface characters are never rewritten, so
`desegment()` always restores the exact input.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .errors import DataError
from .normalize import ARABIC_BLOCKS

DEFAULT_PROCLITICS = ("وال", "بال", "فال", "كال", "لل", "ال", "و", "ف", "ب", "ك", "ل")
DEFAULT_ENCLITICS = ("ها", "هم", "هن", "كم", "كن", "نا", "ه", "ك", "ي")

# Maximum proclitic units per token; composite entries like وال count as
# their expansion (و + ال).
MAX_PROCLITIC_UNITS = 2

# One or more characters of the Arabic blocks.
_ARABIC_RUN = re.compile(
    "[" + "".join(f"{re.escape(chr(lo))}-{re.escape(chr(hi))}" for lo, hi in ARABIC_BLOCKS) + "]+"
)


@dataclass(frozen=True)
class Lexicon:
    """A set of valid Arabic stems with provenance metadata."""

    stems: frozenset[str]
    source: str = "<memory>"

    def __post_init__(self):
        # Hashable and immutable whatever the caller passed: segment_text
        # keys its memo by lexicon value.
        object.__setattr__(self, "stems", frozenset(self.stems))

    def __contains__(self, stem: str) -> bool:
        return stem in self.stems

    def __len__(self) -> int:
        return len(self.stems)


# Tokens whose rendering one memo keeps. Past the cap a token not yet
# kept is segmented on every occurrence, so a text of endless distinct
# tokens cannot grow the memo without limit.
_MEMO_MAX_ENTRIES = 1 << 18


# How `segment_text` resolved a token, by index: the stem is a lexicon
# entry, clitics were peeled without a lexicon stem, or the token passed
# through whole.
_KINDS = ("lexicon_hits", "fallback_peels", "passthrough")


class _Memo:
    """What `segment_text` did with one rules object and one lexicon:
    the rendered segmentation and the kind (an index into `_KINDS`) of
    each token it met (up to `_MEMO_MAX_ENTRIES` of them) and the counts
    `segment_stats` reports."""

    __slots__ = ("rendered", "tokens", "distinct_tokens", "placeholder_spans", "kinds")

    def __init__(self):
        self.rendered: dict[str, tuple[str, int]] = {}
        self.tokens = 0
        self.distinct_tokens = 0
        self.placeholder_spans = 0
        self.kinds = [0] * len(_KINDS)


@dataclass(frozen=True)
class CliticRules:
    """Proclitic/enclitic inventories plus the minimum stem length.

    Entry order must put composites before their parts: no entry may be
    a suffix of a later entry, which guarantees that scanning the list
    front to back realizes longest-match stripping.
    """

    proclitics: tuple[str, ...] = DEFAULT_PROCLITICS
    enclitics: tuple[str, ...] = DEFAULT_ENCLITICS
    min_stem_len: int = 2

    def __post_init__(self):
        for name, entries in (("proclitics", self.proclitics), ("enclitics", self.enclitics)):
            if not entries:
                raise ValueError(f"{name} must be non-empty")
            for entry in entries:
                if not _ARABIC_RUN.fullmatch(entry):
                    raise ValueError(f"{name} entry {entry!r} is not a non-empty Arabic string")
        for i, earlier in enumerate(self.proclitics):
            for later in self.proclitics[i + 1 :]:
                if later.endswith(earlier):
                    raise ValueError(
                        f"proclitic {earlier!r} is a suffix of {later!r} listed after it; "
                        "order composites first"
                    )
        if self.min_stem_len < 1:
            raise ValueError(f"min_stem_len must be >= 1, got {self.min_stem_len}")

    def proclitic_units(self, entry: str) -> tuple[str, ...]:
        """Decompose a composite proclitic into atomic entries.

        Greedy longest-first split of `entry` into other proclitic
        entries; an unsplittable entry is a single unit. E.g. with the
        defaults, وال -> (و, ال) and ال -> (ال,).
        """
        parts = self._split_into_entries(entry, exclude=entry)
        return parts if parts else (entry,)

    # Derived once per rules object. cached_property stores the value in
    # the instance __dict__, so the frozen fields, equality and hash are
    # those of the three fields alone.
    @cached_property
    def _by_length(self) -> tuple[str, ...]:
        """Proclitic entries, longest first (stable for equal lengths)."""
        return tuple(sorted(self.proclitics, key=len, reverse=True))

    @cached_property
    def _proclitic_table(self) -> tuple[dict[str, tuple[str, ...]], tuple[int, ...]]:
        """Each entry's `proclitic_units`, and the distinct entry lengths,
        longest first. At most one entry of a length starts a string, so
        looking up a string's prefix of each length in turn tries the
        strips longest first, as `segment_token` does."""
        units = {entry: self.proclitic_units(entry) for entry in self.proclitics}
        return units, tuple(sorted({len(entry) for entry in units}, reverse=True))

    @cached_property
    def _enclitic_table(self) -> tuple[frozenset[str], tuple[int, ...]]:
        """The enclitic entries, and their distinct lengths, longest first."""
        return frozenset(self.enclitics), tuple(sorted(set(map(len, self.enclitics)), reverse=True))

    @cached_property
    def _memos(self) -> dict[Lexicon, _Memo]:
        """`segment_text`'s memo for the lexicon it last met (see `_memo`)."""
        return {}

    def _memo(self, lexicon: Lexicon) -> _Memo:
        memos = self._memos
        memo = memos.get(lexicon)
        if memo is None:
            # One lexicon at a time: two lexicons never share entries,
            # and one rules object holds at most one bounded memo.
            memos.clear()
            memo = memos[lexicon] = _Memo()
        return memo

    def _split_into_entries(self, s: str, exclude: str) -> tuple[str, ...] | None:
        if not s:
            return ()
        for candidate in self._by_length:
            if candidate == exclude or not s.startswith(candidate):
                continue
            rest = self._split_into_entries(s[len(candidate) :], exclude)
            if rest is not None:
                return (candidate,) + rest
        return None


@dataclass(frozen=True)
class SegmentedToken:
    """One token split into proclitics, stem and enclitics.

    The concatenation of the parts always equals the original surface
    form; segmentation never creates or destroys characters.
    """

    surface: str
    stem: str
    proclitics: tuple[str, ...] = ()
    enclitics: tuple[str, ...] = ()

    def __post_init__(self):
        joined = "".join(self.proclitics) + self.stem + "".join(self.enclitics)
        if joined != self.surface:
            raise ValueError(
                f"parts {self.proclitics}+{self.stem!r}+{self.enclitics} "
                f"do not reassemble surface {self.surface!r}"
            )

    @property
    def is_segmented(self) -> bool:
        return bool(self.proclitics or self.enclitics)

    def rendered(self) -> str:
        """The `+`-marked form: "pre+ stem +post", space separated."""
        return _render(self.proclitics, self.stem, self.enclitics)


def _render(proclitics: tuple[str, ...], stem: str, enclitics: tuple[str, ...]) -> str:
    if not (proclitics or enclitics):
        return stem
    return " ".join([*(p + "+" for p in proclitics), stem, *("+" + e for e in enclitics)])


def load_lexicon(path: str | Path) -> Lexicon:
    """Load a stem lexicon: UTF-8, one stem per line, `#` comments.

    Duplicate stems collapse to one entry. Raises DataError for
    undecodable bytes (with the line number) or an empty result, and
    FileNotFoundError for a missing file.
    """
    path = Path(path)
    raw = path.read_bytes()
    stems = set()
    for lineno, line_bytes in enumerate(raw.split(b"\n"), start=1):
        try:
            line = line_bytes.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}:{lineno}: malformed UTF-8 ({exc})") from None
        line = line.split("#", 1)[0].strip()
        if line:
            stems.add(line)
    if not stems:
        raise DataError(f"{path}: empty lexicon")
    return Lexicon(stems=frozenset(stems), source=str(path))


def default_lexicon() -> Lexicon:
    """The packaged starter lexicon of frequent MSA stems."""
    from importlib import resources

    with resources.as_file(
        resources.files("taghrida").joinpath("data/lexicon_msa.txt")
    ) as path:
        return load_lexicon(path)


def _is_segmentable(token: str) -> bool:
    # Only pure Arabic-script tokens containing at least one letter are
    # candidates; anything else (digits, brackets, Latin) passes through.
    return _ARABIC_RUN.fullmatch(token) is not None and any(map(str.isalpha, token))


# A token split as (proclitics, stem, enclitics).
_Parts = tuple[tuple[str, ...], str, tuple[str, ...]]


def _with_enclitic(
    pros: tuple[str, ...], rest: str, rules: CliticRules, stems: frozenset[str]
) -> _Parts | None:
    """`rest` with its longest matching enclitic peeled, if that leaves a
    lexicon stem; shorter matching enclitics are not tried."""
    enclitics, lengths = rules._enclitic_table
    for n in lengths:
        if rest[-n:] in enclitics:
            stem = rest[:-n]
            if len(stem) >= rules.min_stem_len and stem in stems:
                return pros, stem, (rest[-n:],)
            return None
    return None


def _strip_search(
    pros: tuple[str, ...], rest: str, budget: int, rules: CliticRules, stems: frozenset[str]
) -> _Parts | None:
    """Proclitic strips of at most `budget` units off `rest`, longest
    first and depth first, each checked bare and with an enclitic."""
    units_of, lengths = rules._proclitic_table
    for n in lengths:
        if n >= len(rest):  # a strip must leave a stem
            continue
        units = units_of.get(rest[:n])
        if units is None or len(units) > budget:
            continue
        new_rest = rest[n:]
        new_pros = pros + units
        if len(new_rest) >= rules.min_stem_len and new_rest in stems:
            return new_pros, new_rest, ()
        found = _with_enclitic(new_pros, new_rest, rules, stems) or _strip_search(
            new_pros, new_rest, budget - len(units), rules, stems
        )
        if found:
            return found
    return None


def _segment_parts(token: str, rules: CliticRules, stems: frozenset[str]) -> _Parts:
    """`segment_token`'s split of `token` as (proclitics, stem, enclitics)."""
    if not _is_segmentable(token):
        return (), token, ()
    min_len = rules.min_stem_len
    if len(token) >= min_len and token in stems:
        return (), token, ()
    found = _with_enclitic((), token, rules, stems) or _strip_search(
        (), token, MAX_PROCLITIC_UNITS, rules, stems
    )
    if found:
        return found
    # Lexicon miss: peel at most one atomic proclitic off a long-enough
    # remainder; anything else stays whole.
    units_of, lengths = rules._proclitic_table
    for n in lengths:
        if len(token) - n >= min_len and len(units_of.get(token[:n], ())) == 1:
            return (token[:n],), token[n:], ()
    return (), token, ()


def _kind(parts: _Parts, rules: CliticRules, stems: frozenset[str]) -> int:
    """The index in `_KINDS` of how a token split as `parts` resolved."""
    pros, stem, encs = parts
    if len(stem) >= rules.min_stem_len and stem in stems:
        return 0  # lexicon_hits
    return 1 if pros or encs else 2  # fallback_peels, passthrough


def segment_token(token: str, rules: CliticRules, lexicon: Lexicon) -> SegmentedToken:
    """Segment a single whitespace-free token.

    The decomposition search prefers the whole token as a lexicon stem,
    then tries proclitic strips depth-first with longer matching entries
    before shorter ones (so when both وال and و leave a lexicon stem,
    the longer strip wins), checking each intermediate stem bare and
    with its longest matching enclitic peeled. The first decomposition
    whose stem is in the lexicon and at least `min_stem_len` long is
    returned. When nothing validates, a single atomic proclitic is
    stripped if the remainder is long enough; otherwise the token comes
    back unsegmented.
    """
    pros, stem, encs = _segment_parts(token, rules, lexicon.stems)
    return SegmentedToken(surface=token, stem=stem, proclitics=pros, enclitics=encs)


def segment_text(text: str, rules: CliticRules, lexicon: Lexicon) -> str:
    """Segment each whitespace token of a normalized text.

    Placeholder spans of the form "[ word ]" pass through verbatim;
    everything else goes through `segment_token` and is rendered with
    `+` markers. Tokens are rejoined with single spaces.

    A token's rendering depends only on the token, the rules and the
    lexicon, so it is computed once per distinct token and kept in a
    memo that lives on `rules`, keyed by `lexicon`.
    """
    memo = rules._memo(lexicon)
    rendered, kinds, stems = memo.rendered, memo.kinds, lexicon.stems
    tokens = text.split()
    n = len(tokens)
    out = []
    spans = 0
    i = 0
    while i < n:
        token = tokens[i]
        if token == "[" and i + 2 < n and tokens[i + 2] == "]":
            out.extend(tokens[i : i + 3])
            spans += 1
            i += 3
            continue
        entry = rendered.get(token)
        if entry is None:
            parts = _segment_parts(token, rules, stems)
            entry = (_render(*parts), _kind(parts, rules, stems))
            memo.distinct_tokens += 1
            if len(rendered) < _MEMO_MAX_ENTRIES:
                rendered[token] = entry
        out.append(entry[0])
        kinds[entry[1]] += 1
        i += 1
    memo.tokens += n - 3 * spans
    memo.placeholder_spans += spans
    return " ".join(out)


def segment_stats(rules: CliticRules, lexicon: Lexicon) -> dict[str, int]:
    """What `segment_text` has done with `rules` and `lexicon` since
    `rules` was made or last met another lexicon: `tokens` segmented
    (placeholder spans excluded), `distinct_tokens` among them (each is
    segmented once while the memo holds fewer than `_MEMO_MAX_ENTRIES`
    tokens; past that, a token met again is segmented and counted again)
    and `placeholder_spans` passed through. Every token occurrence also
    counts as one of `lexicon_hits` (its stem is in the lexicon),
    `fallback_peels` (clitics were peeled, the stem is not) or
    `passthrough` (it stayed whole, not a lexicon stem)."""
    memo = rules._memos.get(lexicon) or _Memo()
    return {
        "tokens": memo.tokens,
        "distinct_tokens": memo.distinct_tokens,
        "placeholder_spans": memo.placeholder_spans,
        **dict(zip(_KINDS, memo.kinds)),
    }


def desegment(text: str) -> str:
    """Undo `+`-marker segmentation, restoring the pre-segmentation text.

    A trailing-marker token fuses with the following stem, a leading-
    marker token with the preceding word. Markers with nothing to attach
    to (a bare "+", a leading marker at the start, a trailing marker at
    the end) raise DataError.
    """
    words: list[str] = []
    pending = ""
    for tok in text.split():
        lead = tok.startswith("+")
        trail = tok.endswith("+")
        core = tok[1 if lead else 0 : len(tok) - 1 if trail else len(tok)]
        if (lead or trail) and not core:
            raise DataError(f"dangling segmentation marker {tok!r}")
        if lead and trail:
            raise DataError(f"malformed marker token {tok!r}")
        if trail:
            pending += core
        elif lead:
            if pending:
                raise DataError(f"enclitic {tok!r} follows an unattached proclitic")
            if not words:
                raise DataError(f"enclitic {tok!r} has no preceding stem")
            words[-1] += core
        else:
            words.append(pending + core)
            pending = ""
    if pending:
        raise DataError(f"proclitic {pending!r}+ has no following stem")
    return " ".join(words)
