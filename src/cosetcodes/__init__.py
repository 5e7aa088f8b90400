"""Cyclotomic coset structure and the code constructions built on it:
cyclic/BCH codes over GF(q), CSS-type qudit code families, and unit-memory
convolutional codes, together with exhaustive desk-scale verifiers."""

__version__ = "0.1.0"

from .cosets import (  # noqa: F401
    Coset,
    all_cosets,
    coset_of,
    disjointness_range,
    ladder_cosets,
    union_of,
)
from .cyclic import (  # noqa: F401
    CyclicCode,
    DefiningSet,
    bch_bound,
    code_from_cosets,
    contains_dual,
    dual_code,
    dual_defining_set,
    nested,
    parity_check_matrix,
)
from .conv import (  # noqa: F401
    ConvCode,
    PolyMatrix,
    build_conv,
    check_reduced_basic,
    family_split,
    family_split_short_parent,
    family_split_singleton_tail,
    family_split_wide_head,
    family_split_wider_head,
    free_distance_upper,
    split_parity,
)
from .css import (  # noqa: F401
    CssParams,
    css_from_pair,
    family_block,
    family_block_even,
    family_block_full,
    family_ladder,
)
from .gf import (  # noqa: F401
    FieldContext,
    expand_matrix,
    field_for,
    make_field,
    poly_with_roots,
    rank,
)
from .oracle import (  # noqa: F401
    BudgetError,
    OracleBudget,
    coset_theorem_sweep,
    css_true_distance,
    min_distance_bruteforce,
    verify_min_distance_at_least,
)
from .tables import TableRow, build_table  # noqa: F401
