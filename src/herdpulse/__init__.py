"""herdpulse: sentiment, clustering and herd-behavior analytics for tweet corpora.

The toolkit takes a line-delimited corpus of posts and produces, fully
deterministically: lexicon-based polarity/subjectivity scores, an undirected
author interaction graph with exact local/global clustering coefficients, a
subjectivity-band herd report, and a camp-level outcome prediction with plot
data for every chart.
"""

__version__ = "0.1.0"

from .corpus import (
    Corpus,
    CorpusFormatError,
    LineError,
    LoadResult,
    TweetRecord,
    filter_by_hashtag,
    load_corpus,
    merge_corpora,
    save_corpus,
)
from .preprocess import (
    StemmerRules,
    TokenDoc,
    load_default_negation_words,
    load_default_stemmer_rules,
    load_default_stopwords,
    load_stemmer_rules,
    load_wordlist,
    normalize,
    preprocess,
    preprocess_text,
    remove_stopwords,
    tokenize,
)
from .sentiment import (
    CorpusSummary,
    Lexicon,
    LexiconEntry,
    LexiconError,
    SentimentScore,
    classify,
    load_default_lexicon,
    load_lexicon,
    score_tokens,
    summarize,
    truncate_percent,
    NEGATIVE,
    NEUTRAL,
    POSITIVE,
)
from .graph import (
    ClusteringStats,
    SocialGraph,
    build_graph,
    clustering_stats,
    write_edgelist,
)
from .herd import (
    AuthorProfile,
    BandStat,
    CampAssignments,
    CampConfig,
    CampResult,
    HerdReport,
    PredictionError,
    PredictionReport,
    assign_corpus,
    camp_hits,
    herd_report,
    predict,
    profile_authors,
    DEFAULT_BAND_EDGES,
    DEFAULT_HERD_THRESHOLD,
)
from .config import ConfigError, RunConfig, default_config, load_config
from .pipeline import AnalysisResult, RunInfo, analyze_corpus, score_corpus, write_bundle
