"""Shared fixtures: label-correlated synthetic corpora and the packaged
segmentation resources."""

from __future__ import annotations

import csv
import random
from pathlib import Path

import pytest

from taghrida.segment import CliticRules, Lexicon, SegmentedToken, default_lexicon

# Word pools for synthesizing label-correlated tweet text. The class
# markers make the corpora learnable by a linear model; the filler and
# counter keep texts varied and unique.
_POS_WORDS = ["جميل", "رائع", "ممتاز", "سعيد", "فرح", "نجاح", "احب", "حلو"]
_NEG_WORDS = ["سيئ", "حزين", "فشل", "ظلم", "خسارة", "مؤسف", "اكره", "غضب"]
_NEU_WORDS = ["تقرير", "اجتماع", "بيان", "موعد", "جدول", "قرار", "مؤتمر", "خبر"]
_SARC_WORDS = ["طبعا", "اكيد", "واضح", "عبقري"]
_FILLER = ["اليوم", "غدا", "هنا", "جدا", "الان", "مرة", "بعد", "قبل", "مع", "عن"]

_SENT_POOLS = {"POS": _POS_WORDS, "NEG": _NEG_WORDS, "NEU": _NEU_WORDS}


def largest_remainder_allocation(total: int, weights: list[int], grand_total: int) -> list[int]:
    """Integer allocation of `total` proportional to `weights`."""
    exact = [total * w / grand_total for w in weights]
    base = [int(x) for x in exact]
    order = sorted(range(len(weights)), key=lambda i: -(exact[i] - base[i]))
    for i in order[: total - sum(base)]:
        base[i] += 1
    return base


def joint_counts(
    sarcasm_counts: dict[str, int], sentiment_counts: dict[str, int]
) -> dict[tuple[str, str], int]:
    """A joint (sarcasm, sentiment) table consistent with both marginals."""
    total = sum(sarcasm_counts.values())
    assert total == sum(sentiment_counts.values())
    sents = sorted(sentiment_counts)
    true_row = largest_remainder_allocation(
        sarcasm_counts["TRUE"], [sentiment_counts[s] for s in sents], total
    )
    table = {}
    for s, t_count in zip(sents, true_row):
        table[("TRUE", s)] = t_count
        table[("FALSE", s)] = sentiment_counts[s] - t_count
    assert all(v >= 0 for v in table.values())
    return table


def synth_rows(
    sarcasm_counts: dict[str, int],
    sentiment_counts: dict[str, int],
    seed: int = 0,
) -> list[dict[str, str]]:
    """CSV-shaped rows whose label marginals match the given tables and
    whose text correlates with the labels."""
    rng = random.Random(seed)
    rows = []
    for (sarc, sent), count in sorted(joint_counts(sarcasm_counts, sentiment_counts).items()):
        for _ in range(count):
            words = [rng.choice(_SENT_POOLS[sent]), rng.choice(_SENT_POOLS[sent])]
            if sarc == "TRUE":
                words.append(rng.choice(_SARC_WORDS))
            words.extend(rng.choice(_FILLER) for _ in range(rng.randint(1, 3)))
            rng.shuffle(words)
            words.append(f"وسم{len(rows)}")
            rows.append(
                {
                    "tweet": " ".join(words),
                    "sarcasm": sarc,
                    "sentiment": sent,
                    "dialect": rng.choice(["msa", "egypt", "gulf", "levant"]),
                }
            )
    rng.shuffle(rows)
    return rows


def write_csv(rows: list[dict[str, str]], path: Path) -> Path:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=["tweet", "sarcasm", "sentiment", "dialect"])
        writer.writeheader()
        writer.writerows(rows)
    return path


def token_kind(seg: SegmentedToken, rules: CliticRules, lexicon: Lexicon) -> str:
    """How a token was resolved, as `segment_stats` counts it: its stem
    is a lexicon entry, clitics were peeled without one, or it passed
    through whole."""
    if len(seg.stem) >= rules.min_stem_len and seg.stem in lexicon:
        return "lexicon_hits"
    return "fallback_peels" if seg.is_segmented else "passthrough"


def separable_examples() -> list[tuple[str, str]]:
    """The documented 20-example linearly separable training set.

    Ten examples per class; each class owns two marker words that never
    appear in the other class, so a linear model over hashed features
    can fit the set exactly.
    """
    pos = [f"قمر نجم {filler}" for filler in _FILLER]
    neg = [f"صخر رمل {filler}" for filler in _FILLER]
    return [(t, "POS") for t in pos] + [(t, "NEG") for t in neg]


@pytest.fixture(scope="session")
def lexicon():
    return default_lexicon()


@pytest.fixture(scope="session")
def rules():
    return CliticRules()


@pytest.fixture()
def small_corpus(tmp_path) -> Path:
    """A 200-row label-correlated CSV."""
    rows = synth_rows(
        {"FALSE": 160, "TRUE": 40}, {"NEG": 70, "NEU": 90, "POS": 40}, seed=7
    )
    return write_csv(rows, tmp_path / "corpus.csv")
