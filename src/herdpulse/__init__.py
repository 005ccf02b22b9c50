"""herdpulse: sentiment, clustering and herd-behavior analytics for tweet corpora.

The toolkit takes a line-delimited corpus of posts and produces, fully
deterministically: lexicon-based polarity/subjectivity scores, an undirected
author interaction graph with exact local/global clustering coefficients, a
subjectivity-band herd report, and a camp-level outcome prediction with plot
data for every chart.

The package exports the names the README's library example and the demos
use; everything else is imported from its module, e.g. ``herdpulse.sentiment``.
"""

__version__ = "0.1.0"

# loaded now: importing herdpulse.preprocess binds this name to the module, hiding a lazy export
from .preprocess import preprocess

_EXPORTS = {  # every other export -> its module, loaded on first use (PEP 562)
    "load_corpora": "corpus", "load_config": "config", "analyze_corpus": "pipeline",
    "build_graph": "graph", "clustering_stats": "graph", "score_tokens": "sentiment", "summarize": "sentiment",
}
__all__ = ["preprocess", *_EXPORTS]


def __getattr__(name: str):
    """An export, or a submodule such as ``herdpulse.config``, loaded on first use."""
    from importlib import import_module
    try:
        module = import_module(f"{__name__}.{_EXPORTS.get(name, name)}")
    except ModuleNotFoundError as err:
        if not f"{__name__}.{name}.".startswith(f"{err.name}."):  # a failing import inside a module propagates
            raise
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(module, name) if name in _EXPORTS else module


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
