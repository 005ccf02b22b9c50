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

from .corpus import load_corpus
from .preprocess import preprocess
from .sentiment import score_tokens, summarize
from .graph import build_graph, clustering_stats
from .config import default_config, load_config
from .pipeline import analyze_corpus
