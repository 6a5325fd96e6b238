"""Finite-stage recurrence / van der Corput constructions on the torus.

The modules are the API; the package re-exports none of their names:

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
