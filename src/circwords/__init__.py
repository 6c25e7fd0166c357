"""Occurrence combinatorics of circular words.

Circular binary words satisfy a striking identity: the four differences
of length-4 factor counts across the mirror pairs 0011/1100, 1101/1011,
1010/0101 and 0100/0010 always agree, and their common value is the
winding number of the word's closed De Bruijn path around a four-vertex
cycle.  This package implements the counting, the De Bruijn machinery
behind both proofs of the identity, the exhaustive verification, and
the exact-rank analysis of the space spanned by occurrence functionals.
"""

from .errors import (
    AlphabetMismatchError,
    BadLetterError,
    BrokenProjectionError,
    CircwordsError,
    EmptyFactorError,
    EmptyWordError,
    NotInSpanError,
    SizeLimitError,
)
from .words import (
    Alphabet,
    CircularWord,
    OccurrenceVector,
    count_occurrences,
    decompose_blocks,
    enumerate_words,
    mirror,
    occurrence_positions,
    occurrence_vector,
    parse_circular,
    parse_word,
    word_string,
)
from .debruijn import (
    DeBruijnGraph,
    KirchhoffReport,
    build_graph,
    cyclomatic_number,
    export_dot,
    is_spanning_tree,
    verify_kirchhoff,
)
from .invariants import (
    GrandsartReport,
    SquareProjection,
    grandsart_differences,
    grandsart_report,
    project_to_square,
    winding_number_decomposition,
    winding_number_graph,
)
from .span import (
    FunctionalFamily,
    IntegerMatrix,
    SpanReport,
    all_factors_family,
    cks_family,
    exact_rank,
    express_in_span,
    marginalization_check,
    occurrence_matrix,
    predicted_dimension,
    span_dimension,
    spanning_set_family,
    verify_cks_basis,
    verify_spanning_set,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "AlphabetMismatchError",
    "BadLetterError",
    "BrokenProjectionError",
    "CircularWord",
    "CircwordsError",
    "DeBruijnGraph",
    "EmptyFactorError",
    "EmptyWordError",
    "FunctionalFamily",
    "GrandsartReport",
    "IntegerMatrix",
    "KirchhoffReport",
    "NotInSpanError",
    "OccurrenceVector",
    "SizeLimitError",
    "SpanReport",
    "SquareProjection",
    "all_factors_family",
    "build_graph",
    "cks_family",
    "count_occurrences",
    "cyclomatic_number",
    "decompose_blocks",
    "enumerate_words",
    "exact_rank",
    "export_dot",
    "express_in_span",
    "grandsart_differences",
    "grandsart_report",
    "is_spanning_tree",
    "marginalization_check",
    "mirror",
    "occurrence_matrix",
    "occurrence_positions",
    "occurrence_vector",
    "parse_circular",
    "parse_word",
    "predicted_dimension",
    "project_to_square",
    "span_dimension",
    "spanning_set_family",
    "verify_cks_basis",
    "verify_kirchhoff",
    "verify_spanning_set",
    "winding_number_decomposition",
    "winding_number_graph",
    "word_string",
]
