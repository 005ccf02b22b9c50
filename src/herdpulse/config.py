"""Run configuration: one JSON document wiring data files and analysis knobs.

Recognized keys (all optional unless noted):

  band_edges          subjectivity band edges, strictly increasing 0..1
  herd_threshold      herd flag threshold (default 0)
  camps               object camp_id -> array of lowercase keywords
  stopwords_path      stopword file (default: packaged list)
  stemmer_rules_path  stemmer rule table (default: packaged table)
  negation_words_path negation word file (default: packaged list)
  lexicon_path        sentiment lexicon (default: packaged demo lexicon)
  reference_shares    object camp_id -> externally published vote share,
                      echoed into the prediction report for comparison only

Relative paths are resolved against the directory of the config file.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

from .herd import DEFAULT_BAND_EDGES, DEFAULT_HERD_THRESHOLD, check_band_edges
from .preprocess import StemmerRules, load_stemmer_rules, load_wordlist
from .sentiment import Lexicon, load_lexicon


class ConfigError(ValueError):
    pass


class RunConfig(NamedTuple):
    band_edges: tuple[float, ...]
    herd_threshold: float
    camps: dict[str, frozenset[str]] | None  # camp id -> lowercase keywords
    stopwords: frozenset[str]
    stemmer_rules: StemmerRules
    negation_words: frozenset[str]
    lexicon: Lexicon
    reference_shares: dict[str, str]


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


def default_config() -> RunConfig:
    return _build_config({}, Path())


def _resolve(base: Path, value) -> Path:
    if not isinstance(value, str) or not value:
        raise ConfigError("path entries must be non-empty strings")
    path = Path(value)
    return path if path.is_absolute() else base / path


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8").removeprefix("\ufeff"))
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not valid UTF-8") from None
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: not valid JSON ({err.msg})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return _build_config(raw, path.parent)


def _build_config(raw: dict, base: Path) -> RunConfig:
    """RunConfig from a parsed config object; each absent key takes its default."""
    config: dict = {
        "band_edges": DEFAULT_BAND_EDGES,
        "herd_threshold": DEFAULT_HERD_THRESHOLD,
        "camps": None,
        "reference_shares": {},
    }

    if "band_edges" in raw:
        edges = raw["band_edges"]
        if not isinstance(edges, list) or not all(isinstance(e, (int, float)) for e in edges):
            raise ConfigError("band_edges must be an array of numbers")
        try:
            config["band_edges"] = check_band_edges(edges)
        except ValueError as err:
            raise ConfigError(str(err)) from None

    if "herd_threshold" in raw:
        if not isinstance(raw["herd_threshold"], (int, float)):
            raise ConfigError("herd_threshold must be a number")
        config["herd_threshold"] = float(raw["herd_threshold"])

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
            for word in keywords:
                if word != word.lower():
                    raise ConfigError(f"camp {camp_id!r} keyword not lowercase: {word!r}")
        config["camps"] = {camp_id: frozenset(keywords) for camp_id, keywords in camps_raw.items()}

    for key, (field, loader, packaged) in _DATA_FILES.items():
        file = _resolve(base, raw[key]) if key in raw else default_data_path(packaged)
        try:
            config[field] = loader(file)
        except UnicodeDecodeError:
            raise ConfigError(f"{file}: not valid UTF-8") from None
        except OSError as err:
            raise ConfigError(f"cannot read data file: {err}") from None
        except ValueError as err:
            raise ConfigError(str(err)) from None

    if "reference_shares" in raw and raw["reference_shares"] is not None:
        shares = raw["reference_shares"]
        if not isinstance(shares, dict):
            raise ConfigError("reference_shares must be an object")
        config["reference_shares"] = {str(k): str(v) for k, v in shares.items()}

    return RunConfig(**config)
