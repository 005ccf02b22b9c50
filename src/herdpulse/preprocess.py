"""Text normalization and tokenization for raw tweets.

The pipeline is ``normalize``, a split on spaces and ``stem``, with stopwords
dropped before and after stemming. It is fully rule-driven: the stopword list
and the stemmer rule table are versioned data files, so the token output of a
given text never changes between runs or machines. Letters are kept by a
byte table rather than a regex: after ``str.lower`` every character outside
ASCII is also outside a-z, so the lowered text is encoded to ASCII with "?"
for the rest and translated byte by byte.

``preprocess_texts`` cleans texts in batches: each text's "\\n" becomes a
space, the batch is joined with "\\n", cleaned in one pass and cut at "\\n"
again. Each text gets the pass it would get alone, because every step of the
pass treats "\\n" as it treats a space but keeps it (see ``normalize``). Each
distinct token is stemmed once per call, through a table dropped when the
call returns.
"""

import re
from typing import NamedTuple, Sequence


_BATCH = 1024  # texts per cleaning pass; the joined batch stays small next to the corpus
_URL_RE = re.compile(r"https?\S*")
_MENTION_RE = re.compile(r"@\S+")
_NON_LETTER_RE = re.compile(r"[^a-z]+")
# every byte but a-z and "\n" becomes a space; after encode("ascii", "replace")
# a non-ASCII character is a "?", so it becomes one too
_LETTERS_ONLY = bytes.maketrans(
    bytes(range(256)), b" " * 10 + b"\n" + b" " * 86 + b"abcdefghijklmnopqrstuvwxyz" + b" " * 133
)


def _clean(text: str) -> str:
    """One cleaning pass: the text in ``[a-z]``, spaces and its own "\\n"s, not yet single-spaced."""
    out = text.lower()
    out = _URL_RE.sub(" ", out)
    out = _MENTION_RE.sub(" ", out)
    out = out.replace("#", "")
    return out.encode("ascii", "replace").translate(_LETTERS_ONLY).decode("ascii")


def _normalize_pass(text: str) -> str:
    return " ".join(_clean(text).split())


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

    Why ``preprocess_texts`` may join texts with "\\n" (each text's own "\\n"
    turned into a space, which changes nothing: to every step both are
    whitespace, a word break) and run one pass over the join: ``str.lower``
    neither changes "\\n" nor makes one, a URL or mention ends at any
    whitespace so none runs into the next text, and the byte table keeps
    "\\n", so the result cuts back into one part per text. A part is that text's pass before its spaces are collapsed,
    which the split into tokens does anyway; a part that still holds "http"
    goes through this function, which gives the same result for any spacing
    of ``[a-z]`` words.
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
    The rules are grouped by their suffix's last letter, in table order, so a
    pass tries only the rules that can match; the first of those that matches
    is the first in the table. An instance keeps no stems: ``preprocess_texts``
    stems each distinct token once per call.
    """

    def __init__(self, rules: list[StemRule]):
        by_last: dict[str, list[StemRule]] = {}
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
            by_last.setdefault(rule.suffix[-1], []).append(rule)
        self.rules = tuple(rules)
        self._by_last = {last: tuple(group) for last, group in by_last.items()}

    def stem(self, token: str) -> str:
        current = token
        while (stemmed := self._apply_once(current)) != current:
            current = stemmed
        return stemmed

    def _apply_once(self, token: str) -> str:
        for suffix, replacement, min_stem_length in self._by_last.get(token[-1:], ()):
            if token.endswith(suffix) and len(token) - len(suffix) >= min_stem_length:
                return token[: len(token) - len(suffix)] + replacement
        return token


class _StemTable(dict):
    """Token -> its stem, or "" when the token or its stem is a stopword; filled as tokens first appear."""

    def __init__(self, stoplist: frozenset[str] | set[str], rules: StemmerRules):
        super().__init__()
        self.stoplist = stoplist
        self.stem = rules.stem

    def __missing__(self, token: str) -> str:
        kept = "" if token in self.stoplist else self.stem(token)
        if kept in self.stoplist:
            kept = ""
        self[token] = kept
        return kept


def preprocess_texts(
    texts: Sequence[str], stoplist: frozenset[str] | set[str], rules: StemmerRules
) -> list[tuple[str, ...]]:
    """Tokens of each text, possibly none; a stopword is dropped both before and after stemming.

    Texts are cleaned ``_BATCH`` at a time in one pass (see ``normalize``), and
    the tokens are mapped to stems through a table that lives for this call.
    """
    kept = _StemTable(stoplist, rules).__getitem__
    tokens = []
    for start in range(0, len(texts), _BATCH):
        joined = "\n".join([text.replace("\n", " ") for text in texts[start : start + _BATCH]])
        for cleaned in _clean(joined).split("\n"):
            if "http" in cleaned:
                cleaned = normalize(cleaned)
            # an empty stem, like a stopword, maps to "" and is filtered out
            tokens.append(tuple(filter(None, map(kept, cleaned.split()))))
    return tokens


def preprocess(text: str, stoplist: frozenset[str] | set[str], rules: StemmerRules) -> tuple[str, ...]:
    """Tokens of one text, possibly none; a stopword is dropped both before and after stemming."""
    return preprocess_texts([text], stoplist, rules)[0]
