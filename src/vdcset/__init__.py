"""Finite-stage recurrence / van der Corput constructions on the torus.

Library layout:

- ``trigpoly``      sparse trigonometric polynomials, classical kernels,
                    positivity and domination tools
- ``measures``      atomic measures on roots of unity with transforms and
                    convolution
- ``blocks``        band-engineered block measures, product witnesses,
                    digit-pattern zeros
- ``tower``         towers of dilated positive polynomials with frozen
                    spectra
- ``combinatorics`` the digit-pattern set R, digit-agreement search,
                    digit differences of dense sets, quantitative Poincare recurrence
- ``certify``       exact avoiding-set Russian-doll search plus the LP
                    max-atom certifier (built on ``simplex``)
- ``cli``           JSON-report command line driver (not imported here)
"""

from . import blocks, certify, combinatorics, measures, simplex, tower, trigpoly
from .blocks import (
    AtomBudgetError,
    BlockParams,
    BlockParamsError,
    WitnessParams,
    build_block,
    build_witness,
    digit_pattern_members,
    zero_set,
)
from .certify import (
    RecurrenceCertificate,
    VdcFailureWitness,
    certify_not_vdc,
    certify_recurrence,
    lift_witness,
    max_atom_lp,
    max_avoiding_set,
    truncate_preserving,
)
from .combinatorics import (
    AgreementPair,
    DigitVector,
    FiniteSystem,
    digit_difference,
    find_agreement_pair,
    strong_poincare,
)
from .measures import AtomicMeasure, dirac, from_samples, uniform
from .simplex import LpInfeasibleError
from .tower import TowerStage, build_tower, eps_prime_for, tower_block, tower_extend
from .trigpoly import (
    ConvexProfile,
    TrigPoly,
    convex_poly,
    dilate,
    dirichlet,
    domination_kernel,
    fejer,
    multiply,
    sample_mean,
)

__version__ = "0.1.0"
