"""What every command shares: the UTF-8 file reader, the exit codes, the two failures mapped to them, ``_fail``.

It also holds the two input rules that both the corpus loader and the config apply: the stored-tag
rule (``_stored_tag``), by which a hashtag, ``--hashtag`` and a camp keyword are compared, and the
lone-surrogate pattern (``_SURROGATE``), which finds a text that UTF-8 cannot encode.
"""

import re
import sys

EXIT_OK = 0
EXIT_DATA = 1
EXIT_IO = 2

_BAD_HASHTAG_CHAR = re.compile(r"[#\s]")  # '#' or a char for which str.isspace() holds
# Unicode case mappings change between interpreter versions (3.10 lowercases
# U+2C2F to itself, 3.11 to U+2C5F), so a tag folds A-Z and nothing else
_ASCII_LOWER = str.maketrans("ABCDEFGHIJKLMNOPQRSTUVWXYZ", "abcdefghijklmnopqrstuvwxyz")
_NEVER_MATCHES = "hashtag can never match: {!r}"
_SURROGATE = re.compile("[\ud800-\udfff]")


class ConfigError(ValueError):
    pass


class CorpusFormatError(ValueError):
    """Raised when a corpus file as a whole is unusable."""


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _read_text(path) -> str:
    """A UTF-8 file's text, without a leading BOM; raises ConfigError if it is not UTF-8."""
    try:
        return path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not valid UTF-8") from None


def _stored_tag(text: str) -> str | None:
    """``text`` as a tag is stored (leading '#'s stripped, A-Z lowercased), or None if no stored tag can equal it."""
    tag = text.lstrip("#")
    tag = tag.lower() if tag.isascii() else tag.translate(_ASCII_LOWER)
    return tag if tag and not _BAD_HASHTAG_CHAR.search(tag) else None
