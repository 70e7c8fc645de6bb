"""Reference preprocessing: the per-item code paths that the
normalization table, the cached clitic strips and the reusable hash
states replaced, kept unchanged as test oracles.

- `remove_unwanted` decides every character of every text afresh;
- `proclitic_units` re-sorts the proclitics at every recursion step and
  `segment_token` re-derives every entry's units at every search step;
- `featurize` builds a new keyed blake2b hash for every feature.

The production code must give the same output as these for any input.
"""

from __future__ import annotations

import hashlib

from taghrida.baseline import FeatureConfig
from taghrida.normalize import _TATWEEL_DIACRITICS_RE, NormalizationConfig, _protected
from taghrida.segment import (
    MAX_PROCLITIC_UNITS,
    CliticRules,
    Lexicon,
    SegmentedToken,
    _is_segmentable,
    _longest_enclitic,
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


# --- segment ------------------------------------------------------------------


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


def segment_token(token: str, rules: CliticRules, lexicon: Lexicon) -> SegmentedToken:
    if not _is_segmentable(token):
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


def _hash_feature(feature: str, seed: int) -> tuple[int, int]:
    """Deterministic (bucket, sign) for one feature string."""
    digest = hashlib.blake2b(
        feature.encode("utf-8"), digest_size=9, key=seed.to_bytes(8, "little")
    ).digest()
    bucket = int.from_bytes(digest[:8], "little")
    sign = 1 if digest[8] & 1 else -1
    return bucket, sign


def featurize(text: str, cfg: FeatureConfig) -> dict[int, float]:
    """Signed hashed count vector for one text, as {bucket: value}."""
    mask = cfg.hash_dim - 1
    vec: dict[int, float] = {}
    lo, hi = cfg.char_ngram_range
    for n in range(lo, hi + 1):
        for i in range(len(text) - n + 1):
            bucket, sign = _hash_feature(f"c{n}:{text[i : i + n]}", cfg.hash_seed)
            idx = bucket & mask
            vec[idx] = vec.get(idx, 0.0) + sign
    if cfg.include_word_unigrams:
        for word in text.split():
            bucket, sign = _hash_feature(f"w:{word}", cfg.hash_seed)
            idx = bucket & mask
            vec[idx] = vec.get(idx, 0.0) + sign
    return {idx: value for idx, value in vec.items() if value != 0.0}
