"""Symbolic mod-2 Chow calculus for split quadrics and a verification engine.

The package computes in the h/l basis of the Chow groups of powers of a
split projective quadric: products, Steenrod operations, correspondence
composition, restriction to an anisotropic core, structural checkers for
candidate rational-cycle families, and a brute-force/bilinear certifier
for the dimension-gap contradiction at concrete parameters.
"""

from .basis import (
    ArityError,
    BasisElement,
    BasisFactor,
    Cycle,
    CycleSyntaxError,
    GeometryError,
    QuadricGeometry,
    cycle,
    cycle_from_json,
    cycle_to_json,
    enumerate_basis,
    h,
    l,
    parse_cycle,
    render_cycle,
    single,
    term_dimension,
    term_is_essential,
    zero,
)
from .correspondence import (
    compose,
    delta_pullback_q,
    derivative,
    diagonal_class,
    pullback_diagonal,
    pullback_projection,
    pushforward_diagonal,
    pushforward_projection,
)
from .gf2 import Gf2Subspace
from .holes import (
    HoleParams,
    build_mu_zero,
    build_xi,
    dim_In_set,
    first_summand_formula,
    forced_witt_sequence,
    mu_prime_generators,
    small_splitting_pattern,
    target_cell,
    verify_contradiction,
    vishik_pattern,
)
from .isotropy import (
    IsotropySignature,
    all_signatures,
    descend,
    generic_point_pullback,
    in_multi,
    in_single,
    pr_all,
    pr_multi,
    pr_single,
)
from .ring import (
    essential_part,
    external_product,
    homogeneous_component,
    homogeneous_components,
    intersection,
    mul,
    permute,
    sym,
    transpose,
    unit,
)
from .steenrod import (
    binom_mod2,
    steenrod_k,
    steenrod_total,
    steenrod_upto,
)
from .structure import (
    CheckResult,
    FamilyError,
    RationalFamily,
    SplittingData,
    allowed_first_witt_indices,
    binary_cycle,
    check_all,
    check_binary_size,
    check_even_essential,
    check_forbidden,
    check_known,
    check_minimal_diagonal,
    check_pairs,
    check_springer,
    closure,
    diagonal_essential_sum,
    encode_cycle,
    decode_cycle,
    family_from_generators,
    forbidden_cells,
    known_generator,
    minimal_cycles,
    primordial_cycles,
    splitting_readoff,
    witt_index_readoff,
)

__version__ = "0.1.0"
