"""Exact linear differential algebra: characteristic sets, dimension
polynomials, and tangent-space classification over Q(t1..tv)."""

from .errors import (BadDerivation, ConfigMismatch, DegreeTooLarge,
                     DiffAlgError, DivisionByZero, ExponentOverflow,
                     NotAntichain, OrderlyRequired, ParseError,
                     PointNotOnVariety, UnsupportedForPartial, ZeroElement)
from .field import DiffFieldConfig, MPoly, RatFun, mpoly_gcd
from .ore import OrePoly, ore_divmod, ore_mul
from .diffmodule import (CharSet, ModElement, Ranking, autoreduce,
                         characteristic_set, leader, orderly_ranking, reduce)
from .numpoly import (Antichain, NumericalPolynomial, ZERO_TYPE,
                      count_cofilter, standard_terms, type_and_heights)
from .dimension import DimensionReport, dimension_report, leader_antichain
from .normalform import (Diagonalization, OreMatrix, TangentClass,
                         classify_presentation, diagonalize)
from .variety import (DiffPoly, VarietyPoint, eval_diffpoly,
                      linearize_at_point, linearize_system, tangent_pipeline)

__version__ = "0.1.0"
