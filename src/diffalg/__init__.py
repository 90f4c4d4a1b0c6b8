"""Exact linear differential algebra: characteristic sets, dimension
polynomials, and tangent-space classification over Q(t1..tm)."""

from .errors import (BadDerivation, ConfigMismatch, DegreeTooLarge,
                     DiffAlgError, DivisionByZero, ExponentOverflow,
                     NotAntichain, OrderlyRequired, ParseError,
                     PointNotOnVariety, UnsupportedForPartial, ZeroElement)
from .field import DiffFieldConfig, MPoly, RatFun, mpoly_gcd
from .ore import OrePoly, ore_apply, ore_divmod, ore_mul
from .diffmodule import (AutoreducedSet, CharSet, ModElement, Ranking,
                         autoreduce, characteristic_set, elimination_ranking,
                         leader, member, monic, orderly_ranking, reduce)
from .numpoly import (Antichain, NumericalPolynomial, ZERO_TYPE,
                      count_cofilter, standard_terms, type_and_heights)
from .dimension import (DimensionReport, diff_dimension, dimension_polynomial,
                        dimension_report, leader_antichain)
from .normalform import (Diagonalization, OreMatrix, TangentClass,
                         classify_tangent, diagonalize)
from .variety import (DiffPoly, VarietyPoint, eval_diffpoly, formal_derive,
                      linearize_at_point, linearize_system, tangent_pipeline)

__version__ = "0.1.0"
