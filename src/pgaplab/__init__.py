"""Numerical laboratory for spectral-gap constants of isometric group actions.

Builds word-metric balls of Cayley graphs, realizes the regular
representation on l^p truncations, evaluates displacement energies and
their absolute gradients in closed form, runs quasi-Newton descent to
fixed points of affine actions, estimates gap constants (displacement,
gradient infimum, p-Laplacian inequality), and reports the exact convexity
and smoothness moduli of finite-dimensional l^p spaces.

A vector on a ball is a float64 array of shape (n,), and so is a
functional, given by its l^q coefficients; the exponent is the
`Representation`'s p (q = p/(p-1)), or an explicit argument, as in
`power_norm(values, p)`.
"""

__version__ = "0.1.0"

from .groups import (
    GroupSpec,
    GroupHandle,
    CayleyBall,
    build_group,
    ball,
    full_ball,
    check_symmetry,
    check_ball_invariants,
    cyclic_group,
    dihedral_group,
    symmetric_group,
    integer_lattice,
    free_group,
    table_group,
    load_group_spec,
)
from .lpspace import (
    conjugate_exponent,
    power_norm,
    duality_map,
    norming_vector,
    delta,
)
from .action import (
    Representation,
    Cocycle,
    AffineAction,
    coboundary,
    cohomology_dims,
    potential_from_cocycle,
    validate_cocycle,
    default_domain,
)
from .energy import (
    displacement_energy,
    cocycle_norm,
    dirichlet_norm,
    p_laplacian,
    gradient_field,
    markov_operator,
)
from .gradient import (
    GradientResult,
    DescentOptions,
    DescentTrace,
    abs_gradient,
    abs_gradient_sampled,
    directional_derivative,
    descend,
)
from .gaps import (
    GapOptions,
    GapReport,
    displacement_constant,
    equivalence_report,
    gap_sweep,
    cyclic_exact_constants,
    kesten_bound,
    kesten_displacement_bound,
    tent_vector,
    laplacian_ratio,
)
from .moduli import (
    ModulusCurve,
    modulus_convexity,
    modulus_smoothness,
    duality_continuity_check,
    hilbert_modulus_convexity,
    hilbert_modulus_smoothness,
    lp_modulus_convexity,
    lp_modulus_smoothness,
)
from .verify import run_suites, SUITES
