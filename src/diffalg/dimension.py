"""Differential dimension polynomials of K[Delta]^n/N from a characteristic set.

Under an orderly ranking the derivative terms that are not derivatives of
any leader form a K-basis of each filtration slice M_k, so the dimension
polynomial is the staircase count of the leader antichain.
"""

from __future__ import annotations

from .errors import OrderlyRequired
from .numpoly import (Antichain, NumericalPolynomial, count_cofilter,
                      type_and_heights)
from .diffmodule import leader
from .ore import monomial_ord
from .record import FrozenRecord


class DimensionReport(FrozenRecord):
    """Dimension polynomial plus the m = 1 free/torsion bookkeeping.

    For m = 1 the polynomial decomposes as phi(t) = d*(t+1) + B, where d is
    the differential dimension and B counts the derivative terms strictly
    below the leaders; the free term is r = d + B.
    """

    __slots__ = _fields = ("dimpoly", "diff_dimension", "type",
                           "typical_height", "free_components",
                           "below_leader_count", "antichain")

    # type: an int, or the ZERO_TYPE sentinel; below_leader_count: defined
    # for m = 1 only; antichain: the leader staircase counted, not in to_json
    def __init__(self, dimpoly: NumericalPolynomial, diff_dimension: int,
                 type: object, typical_height: int, free_components: tuple,
                 below_leader_count: int | None, antichain: Antichain):
        self._set_fields(dimpoly, diff_dimension, type, typical_height,
                         free_components, below_leader_count, antichain)

    @property
    def free_term(self):
        """r = phi evaluated as d + B (m = 1)."""
        if self.below_leader_count is None:
            return None
        return self.diff_dimension + self.below_leader_count

    def to_json(self):
        out = {
            "dimension_polynomial": self.dimpoly.to_json(),
            "diff_dimension": self.diff_dimension,
            "type": None if isinstance(self.type, float) else self.type,
            "typical_height": self.typical_height,
            "free_components": list(self.free_components),
        }
        if self.below_leader_count is not None:
            out["below_leader_count"] = self.below_leader_count
        return out


def leader_antichain(charset):
    """Leader exponents of a characteristic set, grouped by component."""
    sets = [set() for _ in range(charset.n)]
    for f in charset.elements:
        comp, exps = leader(f, charset.ranking)
        sets[comp].add(exps)
    return Antichain(charset.config.m, tuple(frozenset(s) for s in sets))


def dimension_report(charset):
    """Assemble the full report for K[Delta]^n / N from one staircase count.

    `dimpoly` is phi(k) = dim_K M_k.  `diff_dimension` is m! times the
    leading t^m coefficient of phi, cross-checked against the count of
    components without leaders; the two agree for any complete
    characteristic set under an orderly ranking.
    """
    if charset.ranking.kind != "orderly":
        raise OrderlyRequired("dimension computations need an orderly ranking")
    anti = leader_antichain(charset)
    phi = count_cofilter(anti)
    m = anti.m
    d = phi.coeffs[m] if len(phi.coeffs) > m else 0
    free = tuple(i for i, E in enumerate(anti.components) if not E)
    if d != len(free):
        raise AssertionError(
            f"dimension mismatch: a_m = {d}, free components = {len(free)}")
    level, d_l, _ = type_and_heights(phi, m)
    below = (sum(monomial_ord(exps) for E in anti.components for exps in E)
             if m == 1 else None)
    return DimensionReport(dimpoly=phi, diff_dimension=d, type=level,
                           typical_height=d_l, free_components=free,
                           below_leader_count=below, antichain=anti)
