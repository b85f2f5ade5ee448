"""Exact computer algebra for polynomial models of real hypersurfaces.

The package computes Catlin multitypes and boundary systems, certifies
pseudoconvexity of models, and runs the constructive normalization that
extracts balanced sums of squares from pseudoconvex polynomial models.
All arithmetic is exact (complex rationals); nothing here uses floats.
"""

from .exact import CRat
from .parser import ParseError, parse_poly
from .poly import (CoordChange, NonRealError, Poly, PolyError,
                   PseudoconvexityError, eliminate_harmonic,
                   revlex_max_balanced, split_model)
from .weights import (InverseWeight, Multitype, Weight, counting_bound,
                      enumerate_multitypes, is_admissible, multitype_search)
from .levi import (PositivityVerdict, cauchy_schwarz_pairing, complex_hessian,
                   psd_verdict, verify_psd_certificate)
from .normal_form import (NormalForm, normalize, step_first, step_inductive,
                          verify_normal_form)
from .boundary import (BoundarySystem, TorsionReport, VField,
                       audit_boundary_system, build_boundary_system,
                       detect_torsion, first_block_torsion, list_derivative,
                       normalize_first_block)

__version__ = "0.1.0"
