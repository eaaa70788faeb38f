"""Exact moments of Dirichlet coefficients over one-parameter elliptic curve families."""

from .bias import (
    BlockReport,
    CatalanCheck,
    Histogram,
    ResidualSeries,
    binomial_two_sided,
    block_stats,
    catalan,
    catalan_check,
    histogram,
    nagao_rank_estimate,
    odd_coefficient_series,
    residual_series,
)
from .closed_forms import (
    ClosedFormPrediction,
    NoTemplateError,
    VerifyReport,
    cubic_char_sum,
    predict,
    template1_predict,
    template2_predict,
    template3_predict,
    verify_family,
)
from .corpus import builtin_corpus, corpus_family, rank6_family
from .discovery import FormulaFit, discover, summarize
from .families import (
    CurveFamily,
    Fiber,
    IntPolynomial,
    Invariants,
    Template1,
    Template2,
    Template3,
    compute_invariants,
    discriminant,
    family,
    fiber_at,
    is_nondegenerate,
    match_template,
    poly,
)
from .io import (
    FamilyParseError,
    RunConfig,
    ValidationError,
    family_file_text,
    parse_family_file,
    read_moments_csv,
    write_moments_csv,
)
from .modular import (
    LegendreTable,
    build_legendre_table,
    cached_legendre_table,
    legendre_symbol,
    linear_legendre_sum,
    prime_index_of,
    quadratic_legendre_sum,
    sieve_primes,
)
from .report import run_report
from .runner import compute_records, run_moments
from .svg import emit_histogram_svg
from .traces import (
    MomentRecord,
    moment_sums,
    point_count_oracle,
    traces_mod_p,
)

__version__ = "0.1.0"
