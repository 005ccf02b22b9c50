"""What every command shares: the UTF-8 file reader, the exit codes, the two failures mapped to them, ``_fail``."""

import sys

EXIT_OK = 0
EXIT_DATA = 1
EXIT_IO = 2


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
