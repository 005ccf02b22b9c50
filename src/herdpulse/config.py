"""Run configuration: one JSON document wiring data files and analysis knobs.

Recognized keys (all optional unless noted):

  band_edges          subjectivity band edges, strictly increasing 0..1
  herd_threshold      herd flag threshold (default 0)
  camps               object camp_id -> array of keywords, each a stored hashtag
                      as written (no '#' or whitespace, no A-Z)
  stopwords_path      stopword file (default: packaged list)
  stemmer_rules_path  stemmer rule table (default: packaged table)
  negation_words_path negation word file (default: packaged list)
  lexicon_path        sentiment lexicon (default: packaged demo lexicon)
                      whose every term must be able to equal a token and
                      must not be a negation word
  reference_shares    object camp_id -> externally published vote share,
                      echoed into the prediction report for comparison only

Relative paths are resolved against the directory of the config file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Iterator, NamedTuple

from .corpus import _NEVER_MATCHES, _SURROGATE, _json_reason, _stored_tag
from .herd import DEFAULT_BAND_EDGES, DEFAULT_HERD_THRESHOLD, check_band_edges
from .inputs import ConfigError, _read_text
from .preprocess import StemmerRules, StemRule, preprocess_texts
from .sentiment import Lexicon


class RunConfig(NamedTuple):
    band_edges: tuple[float, ...]
    herd_threshold: float
    camps: dict[str, frozenset[str]] | None  # camp id -> keywords
    stopwords: frozenset[str]
    stemmer_rules: StemmerRules
    negation_words: frozenset[str]
    lexicon: Lexicon
    reference_shares: dict[str, str]


def _data_rows(path: str | Path, fields: int) -> Iterator[tuple[str, list[str]]]:
    """(``path:line``, fields) of each line of a UTF-8 data file that is not blank or a ``#`` comment.

    As in a corpus, a leading BOM is dropped and lines end at LF only (a CRLF's CR is trailing
    whitespace). A line is split on tabs into exactly ``fields`` fields; a word list is not split.
    """
    try:
        text = _read_text(Path(path))
    except OSError as err:
        raise ConfigError(f"cannot read data file: {err}") from None
    for line_no, line in enumerate(text.split("\n"), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        parts = line.split("\t") if fields > 1 else [line]
        if len(parts) != fields:
            raise ConfigError(f"{path}:{line_no}: expected {fields} tab-separated fields")
        yield f"{path}:{line_no}", parts


def load_wordlist(path: str | Path) -> frozenset[str]:
    """One word per line, lowercased."""
    return frozenset(line.strip().lower() for _, (line,) in _data_rows(path, 1))


def load_stemmer_rules(path: str | Path) -> StemmerRules:
    """A rule file of lines ``suffix<TAB>replacement<TAB>min_stem_length``."""
    rules = []
    for where, (suffix, replacement, raw_min) in _data_rows(path, 3):
        try:
            rules.append(StemRule(suffix, replacement, min_stem_length=int(raw_min)))
        except ValueError:
            raise ConfigError(f"{where}: min_stem_length not an integer") from None
    try:
        return StemmerRules(rules)
    except ValueError as err:
        raise ConfigError(str(err)) from None


def load_lexicon(path: str | Path) -> Lexicon:
    """Parse ``term<TAB>polarity<TAB>subjectivity`` lines into a term -> scores dict.

    Any malformed line, duplicate term or out-of-range value is fatal: a demo
    lexicon that silently lost entries would corrupt every downstream number.
    """
    entries: Lexicon = {}
    for where, (term, raw_pol, raw_subj) in _data_rows(path, 3):
        term = term.strip()
        if not term:
            raise ConfigError(f"{where}: empty term")
        try:
            polarity = float(raw_pol)
            subjectivity = float(raw_subj)
        except ValueError:
            raise ConfigError(f"{where}: non-numeric score") from None
        if not -1.0 <= polarity <= 1.0:
            raise ConfigError(f"{where}: polarity {polarity} outside [-1, 1]")
        if not 0.0 <= subjectivity <= 1.0:
            raise ConfigError(f"{where}: subjectivity {subjectivity} outside [0, 1]")
        if term in entries:
            raise ConfigError(f"{where}: duplicate term {term!r}")
        entries[term] = (polarity, subjectivity)
    return entries


# config key -> (RunConfig field, loader, packaged default file)
_DATA_FILES = {
    "stopwords_path": ("stopwords", load_wordlist, "stopwords.txt"),
    "stemmer_rules_path": ("stemmer_rules", load_stemmer_rules, "stemmer_rules.tsv"),
    "negation_words_path": ("negation_words", load_wordlist, "negation_words.txt"),
    "lexicon_path": ("lexicon", load_lexicon, "lexicon.tsv"),
}


def default_data_path(name: str) -> Path:
    """Path of a data file shipped in the package directory (stopwords, rules, ...)."""
    return Path(__file__).parent / "data" / name


def _finite(value, message: str) -> float:
    """A config number as a float; booleans, NaN, infinities and integers past the float range are errors."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ConfigError(message)
    return float(value)


def check_utf8(key: str, texts) -> None:
    """Raise a ConfigError naming ``key`` when a text holds a lone surrogate, which UTF-8 cannot encode.

    In a config file only a ``\\u`` escape makes one; in argv, a byte of a path that is not UTF-8 does.
    """
    for text in texts:
        if _SURROGATE.search(text):
            raise ConfigError(f"{key}: not encodable as UTF-8: {text!r}")


def _resolve(base: Path, key: str, value) -> Path:
    if not isinstance(value, str) or not value:
        raise ConfigError("path entries must be non-empty strings")
    check_utf8(key, [value])
    path = Path(value)
    return path if path.is_absolute() else base / path


def load_config(path: str | Path | None = None) -> RunConfig:
    """The config in the JSON file at ``path`` (absent keys take their defaults), or the packaged defaults."""
    raw: dict = {}
    if path is not None:
        if path == "":
            raise ConfigError("config path is empty")
        path = Path(path)
        text = _read_text(path)
        try:
            raw = json.loads(text)
        except (ValueError, RecursionError) as err:
            raise ConfigError(f"{path}: not valid JSON ({_json_reason(err, text)})") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
    base = Path() if path is None else path.parent
    config: dict = {
        "band_edges": DEFAULT_BAND_EDGES,
        "herd_threshold": DEFAULT_HERD_THRESHOLD,
        "camps": None,
        "reference_shares": {},
    }

    if "band_edges" in raw:
        edges = raw["band_edges"]
        message = "band_edges must be an array of finite numbers"
        if not isinstance(edges, list):
            raise ConfigError(message)
        try:
            config["band_edges"] = check_band_edges([_finite(e, message) for e in edges])
        except ValueError as err:
            raise ConfigError(str(err)) from None

    if "herd_threshold" in raw:
        config["herd_threshold"] = _finite(raw["herd_threshold"], "herd_threshold must be a finite number")

    if "camps" in raw and raw["camps"] is not None:
        camps_raw = raw["camps"]
        if not isinstance(camps_raw, dict):
            raise ConfigError("camps must be an object of camp_id -> keyword array")
        if not camps_raw:
            raise ConfigError("at least one camp required")
        for camp_id, keywords in camps_raw.items():
            if not isinstance(keywords, list) or not all(isinstance(k, str) for k in keywords):
                raise ConfigError(f"camp {camp_id!r}: keywords must be an array of strings")
            if not camp_id:
                raise ConfigError("empty camp id")
            if not keywords:
                raise ConfigError(f"camp {camp_id!r} has no keywords")
            check_utf8("camps", [camp_id, *keywords])
            for word in keywords:
                # a keyword matches a [a-z]+ token or a stored hashtag, so it must be one as written
                if _stored_tag(word) != word:
                    raise ConfigError(f"camp {camp_id!r}: " + _NEVER_MATCHES.format(word))
        config["camps"] = {camp_id: frozenset(keywords) for camp_id, keywords in camps_raw.items()}

    files = {}
    for key, (field, loader, packaged) in _DATA_FILES.items():
        files[field] = _resolve(base, key, raw[key]) if key in raw else default_data_path(packaged)
        config[field] = loader(files[field])
    # a negation word or lexicon term is valid only if, preprocessed alone, it comes back as the one
    # token (word,); a term that is also a negation word would both score and flip the next hit
    negations, lexicon = sorted(config["negation_words"]), list(config["lexicon"])
    tokens = preprocess_texts(negations + lexicon, config["stopwords"], config["stemmer_rules"])
    for word, kept in zip(negations, tokens):
        if kept != (word,):
            raise ConfigError(f"{files['negation_words']}: negation word can never match: {word!r}")
    for term, kept in zip(lexicon, tokens[len(negations) :]):
        if kept != (term,):
            raise ConfigError(f"{files['lexicon']}: term can never match: {term!r}")
        if term in config["negation_words"]:
            raise ConfigError(f"{files['lexicon']}: term is also a negation word: {term!r}")

    if "reference_shares" in raw and raw["reference_shares"] is not None:
        shares = raw["reference_shares"]
        if not isinstance(shares, dict):
            raise ConfigError("reference_shares must be an object")
        for camp_id, share in shares.items():
            if not isinstance(share, str):
                _finite(share, f"reference_shares {camp_id!r} must be a string or a finite number")
        check_utf8("reference_shares", [*shares, *(s for s in shares.values() if isinstance(s, str))])
        config["reference_shares"] = {str(k): str(v) for k, v in shares.items()}

    return RunConfig(**config)
