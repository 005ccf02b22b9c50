"""Text normalization and tokenization for raw tweets.

The pipeline is ``normalize``, a split on spaces and ``stem``, with stopwords
dropped before and after stemming. It is fully rule-driven: the stopword list
and the stemmer rule table are versioned data files, so the token output of a
given text never changes between runs or machines. Letters are kept by a
byte table rather than a regex: after ``str.lower`` every character outside
ASCII is also outside a-z, so the lowered text is encoded to ASCII with "?"
for the rest and translated byte by byte.
"""

from __future__ import annotations

import re
from typing import NamedTuple


_URL_RE = re.compile(r"https?\S*")
_MENTION_RE = re.compile(r"@\S+")
_NON_LETTER_RE = re.compile(r"[^a-z]+")
# every byte but a-z becomes a space; after encode("ascii", "replace") a
# non-ASCII character is a "?", so it becomes one too
_LETTERS_ONLY = bytes.maketrans(bytes(range(256)), b" " * 97 + b"abcdefghijklmnopqrstuvwxyz" + b" " * 133)


def _normalize_pass(text: str) -> str:
    out = text.lower()
    out = _URL_RE.sub(" ", out)
    out = _MENTION_RE.sub(" ", out)
    out = out.replace("#", "")
    out = out.encode("ascii", "replace").translate(_LETTERS_ONLY).decode("ascii")
    return " ".join(out.split())


def normalize(text: str) -> str:
    """Lowercase and strip URLs, @-mentions, '#' signs and non-letters.

    Hashtag words survive with the '#' removed; every run of non-letter
    characters becomes a single space. Letters are picked after lowercasing:
    the text is encoded to ASCII with "?" for every other character, and each
    byte but a-z is translated to a space, so U+212A (Kelvin sign) gives "k"
    and U+00DF a space. Iterates the cleaning pass to a fixed point, which
    makes ``normalize(normalize(x)) == normalize(x)`` hold by construction (a
    pass can expose a new URL-shaped substring, e.g. "htt#p" collapses to
    "http" only after the '#' strip). A pass outputs single-spaced ``[a-z]``,
    which a further pass changes only by removing "http", so the loop repeats
    only while that is present.
    """
    cleaned = _normalize_pass(text)
    while "http" in cleaned:
        cleaned = _normalize_pass(cleaned)
    return cleaned


class StemRule(NamedTuple):
    suffix: str
    replacement: str
    min_stem_length: int


class StemmerRules:
    """Ordered suffix-stripping table, applied first-match-wins to a fixed point.

    Each pass applies at most one rule; passes repeat until the token stops
    changing. A rule whose replacement equals its suffix therefore acts as a
    stop marker (e.g. ``ss -> ss`` protects "class" from the plural rule).
    Stems are cached per instance, so each distinct token is stemmed once;
    the cache grows with the vocabulary.
    """

    def __init__(self, rules: list[StemRule]):
        for rule in rules:
            if not rule.suffix:
                raise ValueError("stemmer rule with empty suffix")
            # tokens are [a-z]+ on every interpreter; str.islower() would follow its Unicode version
            if _NON_LETTER_RE.search(rule.replacement):
                raise ValueError(
                    f"stemmer replacement must be lowercase letters: {rule.replacement!r}"
                )
            if rule.min_stem_length < 0:
                raise ValueError("min_stem_length must be >= 0")
            if rule.replacement != rule.suffix and len(rule.replacement) >= len(rule.suffix):
                # every rewrite then shortens the token, so stem() terminates
                raise ValueError(
                    "stemmer replacement must equal its suffix or be shorter: "
                    f"{rule.suffix!r} -> {rule.replacement!r}"
                )
        self.rules = tuple(rules)
        self._suffixes = tuple(rule.suffix for rule in rules)
        self._stems: dict[str, str] = {}

    def stem(self, token: str) -> str:
        stemmed = self._stems.get(token)
        if stemmed is None:
            current = token
            while (stemmed := self._apply_once(current)) != current:
                current = stemmed
            self._stems[token] = stemmed
        return stemmed

    def _apply_once(self, token: str) -> str:
        if token.endswith(self._suffixes):  # one C-level test spares most tokens the scan
            for suffix, replacement, min_stem_length in self.rules:
                if token.endswith(suffix) and len(token) - len(suffix) >= min_stem_length:
                    return token[: len(token) - len(suffix)] + replacement
        return token


def preprocess(text: str, stoplist: frozenset[str] | set[str], rules: StemmerRules) -> tuple[str, ...]:
    """Tokens of one text, possibly none; a stopword is dropped both before and after stemming."""
    stem = rules.stem  # normalize() leaves single-spaced [a-z], so split() yields its words
    return tuple([
        out
        for token in normalize(text).split()
        if token not in stoplist and (out := stem(token)) and out not in stoplist
    ])
