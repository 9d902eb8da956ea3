"""stmod: exact homological algebra over finite subalgebras of the mod-2
Steenrod algebra, plus root-system Spin checks.

The layers, bottom up:

- ``f2linalg``: GF(2) matrices stored as bit-packed columns, and one
  elimination routine, ``F2Span``, under rref, kernels, solving, quotients
  and closures.
- ``steenrod``: Milnor-basis arithmetic, A(n)/E(n) presets, subalgebra
  closures with generator-word expressions and left decompositions, Wall
  relations.
- ``module``: graded modules given by generator actions, every other
  basis element acting through its left decomposition; validation and
  the functor calculus (suspend, dual, tensor, quotients, induction,
  restriction, doubling, Margolis homology).
- ``stable``: free-summand stripping via the Frobenius integral, loop
  functors, isomorphism testing, self-duality shifts, exactness checks.
- ``resolve``: minimal free resolutions, Ext charts, Hom-complex Ext with
  coefficients, Yoneda pairings, chart rendering.
- ``rootspin``: root systems, half-sums of positive roots, Cartan
  determinants, Spin verdicts for adjoint representations.
- ``modfile`` / ``fixtures`` / ``cli``: the module file grammar, the
  shipped module library, and the ``stmod`` command.
"""

from . import cli, f2linalg, fixtures, modfile, module, resolve, rootspin, stable, steenrod
from .module import (GradedModule, ModuleMap, direct_sum, double, dual,
                     hopf_quotient, induce, margolis_homology,
                     quotient_by_left_ideal, regular_module, restrict,
                     suspend, tensor, trivial_module, validate)
from .resolve import ExtChart, MinimalResolution, ext_chart, ext_groups, \
    minimal_resolution, render_chart, yoneda_action
from .rootspin import (GroupForm, RootSystem, SpinReport, adjoint_spin,
                       cartan_determinant, generate_positive_roots, half_sum,
                       u_n_adjoint_spin)
from .stable import (Decomposition, check_exact, iso_test, loop, oloop,
                     reduce_module, selfdual_shift)
from .steenrod import (SteenrodElt, SubHopfAlgebra, Sq, antipode, coproduct,
                       milnor_primitive, parse_element, sq, subalgebra_closure,
                       wall_relations)

__version__ = "0.1.0"
