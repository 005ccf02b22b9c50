"""The UTF-8 reader of every input file and the two failures ``cli.main`` maps to exit codes; imports nothing."""


class ConfigError(ValueError):
    pass


class CorpusFormatError(ValueError):
    """Raised when a corpus file as a whole is unusable."""


def _read_text(path) -> str:
    """A UTF-8 file's text, without a leading BOM; raises ConfigError if it is not UTF-8."""
    try:
        return path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not valid UTF-8") from None
