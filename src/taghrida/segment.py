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


class _Memo:
    """What `segment_text` did with one rules object and one lexicon:
    the rendered segmentation of each token it met (up to
    `_MEMO_MAX_ENTRIES` of them) and the counts `segment_stats` reports."""

    __slots__ = ("rendered", "tokens", "distinct_tokens", "placeholder_spans")

    def __init__(self):
        self.rendered: dict[str, str] = {}
        self.tokens = 0
        self.distinct_tokens = 0
        self.placeholder_spans = 0


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
    def _strips(self) -> tuple[tuple[str, tuple[str, ...]], ...]:
        """(entry, proclitic_units(entry)) pairs, longest entry first:
        the order in which `segment_token` tries proclitic strips."""
        return tuple((entry, self.proclitic_units(entry)) for entry in self._by_length)

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
        pieces = [f"{p}+" for p in self.proclitics]
        pieces.append(self.stem)
        pieces.extend(f"+{e}" for e in self.enclitics)
        return " ".join(pieces)


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


def _longest_enclitic(token: str, rules: CliticRules) -> str | None:
    best = None
    for entry in rules.enclitics:
        if token.endswith(entry) and (best is None or len(entry) > len(best)):
            best = entry
    return best


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
    if not _is_segmentable(token):
        return SegmentedToken(surface=token, stem=token)

    min_len = rules.min_stem_len
    strips = rules._strips

    def hit(stem: str) -> bool:
        return len(stem) >= min_len and stem in lexicon

    def with_enclitic(pros: tuple[str, ...], rest: str) -> SegmentedToken | None:
        enc = _longest_enclitic(rest, rules)
        if enc and hit(rest[: -len(enc)]):
            return SegmentedToken(
                surface=token, stem=rest[: -len(enc)], proclitics=pros, enclitics=(enc,)
            )
        return None

    def search(pros: tuple[str, ...], rest: str, budget: int) -> SegmentedToken | None:
        for entry, units in strips:
            if len(units) > budget or not rest.startswith(entry):
                continue
            new_rest = rest[len(entry) :]
            new_pros = pros + units
            if hit(new_rest):
                return SegmentedToken(surface=token, stem=new_rest, proclitics=new_pros)
            found = with_enclitic(new_pros, new_rest) or search(
                new_pros, new_rest, budget - len(units)
            )
            if found:
                return found
        return None

    if hit(token):
        return SegmentedToken(surface=token, stem=token)
    found = with_enclitic((), token) or search((), token, MAX_PROCLITIC_UNITS)
    if found:
        return found

    # Lexicon miss: peel at most one atomic proclitic off a long-enough
    # remainder; anything else stays whole.
    for entry, units in strips:
        if len(units) != 1:
            continue
        if token.startswith(entry) and len(token) - len(entry) >= min_len:
            return SegmentedToken(
                surface=token, stem=token[len(entry) :], proclitics=(entry,)
            )
    return SegmentedToken(surface=token, stem=token)


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
    rendered = memo.rendered
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
        piece = rendered.get(token)
        if piece is None:
            piece = segment_token(token, rules, lexicon).rendered()
            memo.distinct_tokens += 1
            if len(rendered) < _MEMO_MAX_ENTRIES:
                rendered[token] = piece
        out.append(piece)
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
    and `placeholder_spans` passed through."""
    memo = rules._memos.get(lexicon) or _Memo()
    return {
        "tokens": memo.tokens,
        "distinct_tokens": memo.distinct_tokens,
        "placeholder_spans": memo.placeholder_spans,
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
