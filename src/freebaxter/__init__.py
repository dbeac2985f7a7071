"""Exact free Baxter algebras of arbitrary weight.

Mixable-shuffle representation, truncated completion (including Hurwitz
series), the sequence-algebra representation, and the explicit isomorphism
between the two with a constructive inverse.
"""

from .coeffring import (
    Monomial,
    Namespace,
    Polynomial,
    Variable,
    Weight,
    binomial,
    coeff_var,
    gen_var,
    parse_polynomial,
    poly_exact_div,
)
from .completion import (
    CompleteElement,
    HurwitzSeries,
    complete_mul,
    complete_operator,
    hurwitz_iso,
)
from .errors import (
    DegreeTooLow,
    DivisorZero,
    ExprSyntaxError,
    FreeBaxterError,
    KindMismatch,
    MissingGeneratorImage,
    NamespaceViolation,
    NotDivisible,
    NotInImage,
    NotScalarBase,
    TruncMismatch,
    WeightMismatch,
    WeightNotZero,
    WeightZero,
)
from .exprparse import eval_expr, parse_expr, print_expr
from .mixshuffle import (
    BaxterTarget,
    ShuffleSelfTarget,
    baxter_identity_holds,
    baxter_operator,
    extend_hom,
    fil_degree,
    is_nonunital,
    shuffle_product,
    unit_power_product,
    unit_word,
    word_product,
)
from .standard import (
    SequenceTarget,
    StandardElement,
    from_standard,
    gamma,
    generator_sequence,
    prefix_sum_operator,
    prefix_sum_preimage,
    seq_degree,
    to_standard,
)
from .words import (
    AbarElement,
    AbarWord,
    ShuffleElement,
    TensorWord,
    abar_normalize,
)

__version__ = "0.1.0"
