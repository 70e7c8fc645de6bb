"""Reference preprocessing and features: the per-item code paths that
the normalization table, the clitic lookup tables and the vectorized
feature hash replaced, kept as test oracles.

- `remove_unwanted` decides every character of every text afresh;
- `collapse_repeats` walks the grapheme clusters of every text, and
  `insert_boundaries` runs all six boundary substitutions on every
  text, with no pre-check that the text can change;
- `is_segmentable` tests every character of a token against each
  Arabic block in turn;
- `proclitic_units` re-sorts the proclitics at every recursion step,
  `segment_token` tries every proclitic entry with `startswith` and
  every enclitic with `endswith` and re-derives every entry's units at
  every search step, and `segment_text` segments every token afresh,
  with no memo;
- `featurize` computes the feature hash of model format 2 from its
  definition: one polynomial per n-gram or word with Python ints mod
  2**64, no prefix sums and no inverse powers.

The production code must give the same output as these for any input.
"""

from __future__ import annotations

import regex

from taghrida.baseline import FeatureConfig
from taghrida.normalize import (
    _BOUNDARY_RES,
    _TATWEEL_DIACRITICS_RE,
    NormalizationConfig,
    _protected,
    is_arabic_char,
)
from taghrida.segment import (
    MAX_PROCLITIC_UNITS,
    CliticRules,
    Lexicon,
    SegmentedToken,
)

# --- normalize ----------------------------------------------------------------


def remove_unwanted(text: str, config: NormalizationConfig, keep: frozenset) -> str:
    ranges = config.removal_ranges
    out = []
    for ch in text:
        if ch in keep:
            out.append(ch)
            continue
        if config.strip_tatweel_diacritics and _TATWEEL_DIACRITICS_RE.match(ch):
            continue
        code = ord(ch)
        if any(lo <= code <= hi for lo, hi in ranges) and not _protected(ch, code):
            continue
        out.append(ch)
    return "".join(out)


def collapse_repeats(text: str, max_run: int) -> str:
    graphemes = regex.findall(r"\X", text)
    out = []
    prev = None
    run = 0
    for g in graphemes:
        run = run + 1 if g == prev else 1
        prev = g
        if run <= max_run:
            out.append(g)
    return "".join(out)


def insert_boundaries(text: str) -> str:
    for pattern in _BOUNDARY_RES:
        text = pattern.sub(" ", text)
    return text


# --- segment ------------------------------------------------------------------


def is_segmentable(token: str) -> bool:
    # Only pure Arabic-script tokens containing at least one letter are
    # candidates; anything else (digits, brackets, Latin) passes through.
    if not token:
        return False
    has_letter = False
    for ch in token:
        if not is_arabic_char(ch):
            return False
        if ch.isalpha():
            has_letter = True
    return has_letter


def proclitic_units(rules: CliticRules, entry: str) -> tuple[str, ...]:
    parts = _split_into_entries(rules, entry, exclude=entry)
    return parts if parts else (entry,)


def _split_into_entries(rules: CliticRules, s: str, exclude: str) -> tuple[str, ...] | None:
    if not s:
        return ()
    for candidate in sorted(rules.proclitics, key=len, reverse=True):
        if candidate == exclude or not s.startswith(candidate):
            continue
        rest = _split_into_entries(rules, s[len(candidate) :], exclude)
        if rest is not None:
            return (candidate,) + rest
    return None


def _longest_enclitic(token: str, rules: CliticRules) -> str | None:
    best = None
    for entry in rules.enclitics:
        if token.endswith(entry) and (best is None or len(entry) > len(best)):
            best = entry
    return best


def segment_token(token: str, rules: CliticRules, lexicon: Lexicon) -> SegmentedToken:
    if not is_segmentable(token):
        return SegmentedToken(surface=token, stem=token)

    min_len = rules.min_stem_len
    by_length = sorted(rules.proclitics, key=len, reverse=True)

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
        for entry in by_length:
            units = proclitic_units(rules, entry)
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

    for entry in by_length:
        if len(proclitic_units(rules, entry)) != 1:
            continue
        if token.startswith(entry) and len(token) - len(entry) >= min_len:
            return SegmentedToken(
                surface=token, stem=token[len(entry) :], proclitics=(entry,)
            )
    return SegmentedToken(surface=token, stem=token)


def segment_text(text: str, rules: CliticRules, lexicon: Lexicon) -> str:
    tokens = text.split()
    out = []
    i = 0
    while i < len(tokens):
        if tokens[i] == "[" and i + 2 < len(tokens) and tokens[i + 2] == "]":
            out.extend(tokens[i : i + 3])
            i += 3
            continue
        out.append(segment_token(tokens[i], rules, lexicon).rendered())
        i += 1
    return " ".join(out)


# --- featurize ----------------------------------------------------------------


_MASK64 = 2**64 - 1


def _splitmix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _feature_hash(gram: str, tag: int, seed: int) -> int:
    """The 64-bit hash of a char n-gram (tag n) or a word (tag 0)."""
    poly = sum((ord(ch) + 1) * pow(0xC2B2AE3D27D4EB4F, j, 2**64) for j, ch in enumerate(gram))
    salt = _splitmix64((seed + (tag + 1) * 0x9E3779B97F4A7C15) & _MASK64)
    return _splitmix64((poly & _MASK64) ^ salt)


def featurize(text: str, cfg: FeatureConfig) -> dict[int, float]:
    """Signed hashed count vector for one text, as {bucket: value} in
    ascending bucket order: the low bits of a feature's hash give its
    bucket, the top bit its sign (set: -1)."""
    lo, hi = cfg.char_ngram_range
    grams = [(text[i : i + n], n) for n in range(lo, hi + 1) for i in range(len(text) - n + 1)]
    if cfg.include_word_unigrams:
        grams += [(word, 0) for word in text.split()]
    vec: dict[int, float] = {}
    for gram, tag in grams:
        h = _feature_hash(gram, tag, cfg.hash_seed)
        idx = h & (cfg.hash_dim - 1)
        vec[idx] = vec.get(idx, 0.0) + (-1.0 if h >> 63 else 1.0)
    return {idx: vec[idx] for idx in sorted(vec) if vec[idx] != 0.0}
