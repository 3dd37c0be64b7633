"""Exact symbolic machinery for prolongation varieties, differential
kernels with several commuting derivations, Ackermann-type realization
bounds, and the geometric axiom-condition checkers, plus a CLI."""

from .bounds import ackermann, bound_C
from .coeff import Coefficient, FieldMode
from .dpoly import Context, DiffPolynomial, derivation_image, parse_poly, print_poly
from .errors import (ContextError, DiffAlgError, FileFormatError, ParseError,
                     ResourceBudgetError)
from .groebner import (DivisorBasis, IdealPresentation, MonomialOrder,
                       buchberger, elimination_ideal, normal_form,
                       radical_member)
from .indices import (CoordinateMaps, coordinate_maps, deg, gamma_set, shift,
                      unit_index)
from .kernels import (KernelPresentation, KernelValidationError,
                      ProlongResult, kernel_prolong_once, kernel_prolong_to,
                      kernel_validate, realization_bound)
from .prolong import (ProlongationSystem, point_in_prolongation,
                      prolong_delta, prolong_one)
from .axioms import (CompiledFormula, ContainmentVerdict, DiffFormula,
                     atom_rho_text, axiom_shape, compile_formula,
                     containment_check, counterexample_demo)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
