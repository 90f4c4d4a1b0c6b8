"""Integer-valued numerical polynomials and the staircase-counting kernel.

phi(t) counts lattice points of N^m of weight <= t avoiding the staircase
above each leader exponent.  The points of component i that avoid the
staircase of E_i are the standard monomials of the monomial ideal (E_i), so
their Hilbert series is N_i(z) / (1 - z)^m and

    phi(t) = sum_i sum_c n_ic C(t - c + m, m),   N_i(z) = sum_c n_ic z^c,

valid for t >= max_i |join(E_i)|, instead of a sum over all 2^|E_i|
subsets of leaders.  In N^3 one sweep up the last coordinate keeps the 2-D
staircase of the leaders at or below each height, and N^2 is N^3 at height
0 (`_staircase_numerator`).  The same sweep finds the vectors that lie in
the staircase of others, so `Antichain` validates each component of N^2
and N^3 with it and keeps its numerator for `count_cofilter`.  Past N^3
such a sweep would grow like (k+1)^(m-2) in the k leaders, and the
numerators come from the pivot recursion for Hilbert series of monomial
ideals (Bayer and Stillman, "Computation of Hilbert functions", JSC 1992;
Bigatti, "Computation of Hilbert-Poincare series", JPAA 1997), the minimal
vectors from a test of each against the ones kept.  N^1 is a product.

Polynomials are stored in the binomial basis C(t+i, i), whose coefficients
are the Kolchin invariants directly; `str` prints their ordinary
coefficients in t, d! times each an integer, with the front end's integer
printer (`parsing.poly_str`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import comb, factorial

from .errors import NotAntichain
from .record import FrozenRecord

#: Sentinel differential type of the zero polynomial.
ZERO_TYPE = float("-inf")


class NumericalPolynomial(FrozenRecord):
    """phi(t) = sum_i coeffs[i] * C(t+i, i), exact for all t >= valid_from."""

    __slots__ = _fields = ("coeffs", "valid_from")

    def __init__(self, coeffs: tuple, valid_from: int = 0):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        for c in coeffs:
            if c != int(c):
                raise ValueError("binomial-basis coefficients must be integers")
        self._set_fields(tuple(int(c) for c in coeffs), valid_from)

    def degree(self):
        """Degree, or the ZERO_TYPE sentinel for the zero polynomial."""
        if not self.coeffs:
            return ZERO_TYPE
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __call__(self, t):
        return sum(a * comb(t + i, i) for i, a in enumerate(self.coeffs))

    def _scaled_monomial_coeffs(self):
        """(ascending ordinary coefficients times d!, d!), d the degree.

        d! * C(t+i, i) = (d!/i!) * (t+1)...(t+i) has integer coefficients,
        so the rising products run in integers.
        """
        top = factorial(max(len(self.coeffs) - 1, 0))
        out = [0] * max(len(self.coeffs), 1)
        rising = [1]                # (t+1)...(t+i), ascending
        for i, a in enumerate(self.coeffs):
            if i:
                rising = [0] + rising
                for k in range(i):
                    rising[k] += i * rising[k + 1]
            scale = a * (top // factorial(i))
            for k, b in enumerate(rising):
                out[k] += scale * b
        return out, top

    def to_json(self):
        return {"binomial_coeffs": list(self.coeffs),
                "valid_from": self.valid_from}

    def __str__(self):
        from .parsing import poly_str       # parsing imports this module
        out, top = self._scaled_monomial_coeffs()
        return poly_str({k: c for k, c in enumerate(out) if c}, ("t",), top)


class Antichain(FrozenRecord):
    """Per-component sets of pairwise incomparable exponent vectors in N^m."""

    _fields = ("m", "components")
    # _numerators, the Hilbert-series numerator of each component from the
    # sweep that validated it (None past N^3), is not a field
    __slots__ = _fields + ("_numerators",)

    # components: tuple of frozensets of exponent tuples
    def __init__(self, m: int, components: tuple):
        comps, nums = [], []
        for E in components:
            E = frozenset(tuple(e) for e in E)
            for e in E:
                if len(e) != m:
                    raise NotAntichain("exponent vector of wrong length")
            # an antichain is exactly its own set of minimal elements
            num, minimal = (_staircase_numerator(E, m) if m in (2, 3)
                            else (None, _minimalize(E)))
            if len(minimal) < len(E):
                if m == 3:      # name the pair the weight-order test names
                    minimal = set(minimal)
                    minimal = [g for g in sorted(set(E), key=sum)
                               if g in minimal]
                b = min(E.difference(minimal))
                a = next(a for a in minimal
                         if all(x <= y for x, y in zip(a, b)))
                raise NotAntichain(f"{a} <= {b} componentwise")
            comps.append(E)
            nums.append(num)
        self._set_fields(m, tuple(comps))
        object.__setattr__(self, "_numerators", tuple(nums))


def _place(firsts, lows, a, b):
    """Where (a, b) goes in the 2-D staircase whose corners, in order, are
    (firsts[t], -lows[t]): both lists ascend, so both bisect.

    None when (a, b) lies in the staircase already; otherwise (i, j) such
    that the new corner takes the place of the corners i..j-1, which it
    covers: `firsts[i:j] = [a]` and `lows[i:j] = [-b]` add it.
    """
    i = bisect_right(firsts, a)
    if i and -lows[i - 1] <= b:
        return None
    i = bisect_left(firsts, a, 0, i)
    return i, bisect_right(lows, -b, i)


def _minimalize(gens):
    """The generators not divisible by another one, smallest weight first:
    each is tested against the ones kept."""
    out = []
    for g in sorted(set(gens), key=sum):
        if not any(all(a <= b for a, b in zip(h, g)) for h in out):
            out.append(g)
    return out


def _sweep_order(g):
    """Last coordinate first, then the first and the second: in N^3 every
    vector that divides g comes before g."""
    return g[2], g[0], g[1]


def _staircase_numerator(E, m):
    """(Hilbert-series numerator {c: n_c} of the ideal of E in N^2 or N^3,
    the minimal vectors of E in sweep order).

    The points of height c outside the staircase are those outside the
    2-D staircase J(c) of the first two coordinates of the generators at
    or below c; N^2 is N^3 at height 0.  With N_2(J) = 1 - sum_j
    z^(a_j + b_j) + sum_j z^(a_(j+1) + b_j) for the corners (a_1, b_1),
    ..., (a_k, b_k) of J, the levels c_0 = 0 < c_1 < ... of the last
    coordinates and J_j = J(c_j), N = sum_j N_2(J_j) (z^(c_j) - z^(c_(j+1))),
    the last level with no subtracted term.  Telescoped, that is 1 plus
    z^c times the change to N_2 that each generator of height c makes,
    taken by height and then lexicographically, so that every vector that
    divides a generator comes before it: a generator is divisible by
    another exactly when it lies in the staircase so far, and is skipped.
    The change is local: the corners the new one covers and the steps
    z^(a_(j+1) + b_j) from its left neighbour through them to its right
    one go; the new corner and its two steps come.
    """
    num = {0: 1}
    firsts, lows, kept = [], [], []
    for g in sorted(E) if m == 2 else sorted(E, key=_sweep_order):
        a, b, c = g[0], g[1], g[2] if m == 3 else 0
        span = _place(firsts, lows, a, b)
        if span is None:
            continue
        kept.append(g)
        i, j = span
        if i < len(firsts):     # not past the last corner
            for t in range(i, j):
                k = c + firsts[t] - lows[t]
                num[k] = num.get(k, 0) + 1
            for t in range(max(i - 1, 0), min(j, len(firsts) - 1)):
                k = c + firsts[t + 1] - lows[t]
                num[k] = num.get(k, 0) - 1
        num[c + a + b] = num.get(c + a + b, 0) - 1
        if i:
            k = c + a - lows[i - 1]
            num[k] = num.get(k, 0) + 1
        if j < len(firsts):
            k = c + firsts[j] + b
            num[k] = num.get(k, 0) + 1
        firsts[i:j] = [a]
        lows[i:j] = [-b]
    return num, kept


def _numerator(gens, m):
    """Hilbert-series numerator {c: n_c} of k[x_1..x_m] / (gens).

    gens must be minimal.  When their supports are pairwise disjoint the
    numerator is prod (1 - z^|g|); otherwise split on the pivot p = x_i^e,
    with x_i the variable in the most generators and e the median exponent
    of x_i over the generators that are not powers of x_i (so p is not in
    the ideal):  N(I) = N(I + (p)) + z^e N(I : p).
    """
    counts = [sum(1 for g in gens if g[i]) for i in range(m)]
    most = max(counts, default=0)
    if most <= 1:
        num = {0: 1}
        for g in gens:
            d = sum(g)
            shifted = dict(num)
            for c, n in num.items():
                shifted[c + d] = shifted.get(c + d, 0) - n
            num = shifted
        return num
    i = counts.index(most)
    exps = sorted(g[i] for g in gens if 0 < g[i] < sum(g))
    e = exps[len(exps) // 2]
    pivot = tuple(e if j == i else 0 for j in range(m))
    plus = [g for g in gens if g[i] < e] + [pivot]
    colon = _minimalize(g[:i] + (max(g[i] - e, 0),) + g[i + 1:]
                        for g in gens)
    num = _numerator(plus, m)
    for c, n in _numerator(colon, m).items():
        num[c + e] = num.get(c + e, 0) + n
    return num


def count_cofilter(antichain):
    """Numerical polynomial counting staircase-free lattice points.

    For each component, counts {v in N^m : |v| <= t, v >= e for no e in E_i}
    from the Hilbert-series numerator of the ideal (E_i); with
    N(z) = sum_c n_c z^c summed over components, the binomial-basis
    coefficients are a_i = (-1)^(m-i) sum_c n_c C(c, m-i).
    """
    m = antichain.m
    num = {}
    valid_from = 0
    for E, part in zip(antichain.components, antichain._numerators):
        if E:
            valid_from = max(valid_from, sum(map(max, zip(*E))))
        if part is None:
            part = _numerator(list(E), m)
        for c, n in part.items():
            if n:
                num[c] = num.get(c, 0) + n
    coeffs = tuple((-1) ** (m - i) * sum(n * comb(c, m - i)
                                         for c, n in num.items())
                   for i in range(m + 1))
    return NumericalPolynomial(coeffs, valid_from)


def standard_terms(antichain, bound):
    """The terms (component, exponents) of weight <= bound outside the
    staircase of their component's leaders, by component and then in
    lexicographic order of the exponents: the points `count_cofilter`
    counts, listed.

    Walks the complement of the staircase, not the box of all terms: the
    first m - 1 exponents run in lexicographic order and carry down the
    leaders whose leading coordinates are <= the prefix, and the last
    exponent runs below the smallest last coordinate among them.  A prefix
    that reaches a whole carried leader ends its coordinate's loop, since
    every larger value lies in that leader's staircase too.  The cost is
    the number of prefixes times the number of leaders, plus the output.
    """
    m = antichain.m
    if m == 0:                          # only the empty term, of weight 0
        return [(comp, ()) for comp, E in enumerate(antichain.components)
                if not E and bound >= 0]
    out = []

    def walk(comp, prefix, left, carried):
        if len(prefix) == m - 1:
            top = min([left + 1] + [e[0] for e in carried])
            out.extend((comp, prefix + (h,)) for h in range(top))
            return
        reached = (0,) * (m - 1 - len(prefix))
        for h in range(left + 1):
            rest = [e[1:] for e in carried if e[0] <= h]
            if reached in rest:
                break
            walk(comp, prefix + (h,), left - h, rest)

    for comp, E in enumerate(antichain.components):
        walk(comp, (), bound, list(E))
    return out


def type_and_heights(p, m):
    """(differential type l, typical height d_l, differential height d_m).

    d_l = l! * (leading ordinary coefficient), which in the binomial basis
    is the leading coefficient itself; d_m = 0 whenever deg p < m.
    The zero polynomial reports (ZERO_TYPE, 0, 0).
    """
    deg = p.degree()
    if deg is ZERO_TYPE or p.is_zero():
        return ZERO_TYPE, 0, 0
    if deg > m:
        raise ValueError(f"degree {deg} exceeds the derivation count {m}")
    d_l = p.coeffs[-1]
    d_m = p.coeffs[m] if len(p.coeffs) > m else 0
    return deg, d_l, d_m
