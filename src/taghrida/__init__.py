"""taghrida: Arabic tweet preprocessing, clitic segmentation, dataset
protocol, evaluation metrics, and a hashed-feature baseline classifier."""

__version__ = "0.1.0"

from .errors import DataError, SchemaError, TaghridaError
from .normalize import NormalizationConfig, NormalizedText
from .segment import CliticRules, Lexicon, SegmentedToken, desegment, segment_text, segment_token

__all__ = [
    "__version__",
    "DataError",
    "SchemaError",
    "TaghridaError",
    "NormalizationConfig",
    "NormalizedText",
    "CliticRules",
    "Lexicon",
    "SegmentedToken",
    "desegment",
    "segment_text",
    "segment_token",
]
