"""Free differential modules K[Delta]^n: rankings, reduction, characteristic sets.

A module element is a `ModElement`, a `TermMap` (the sparse kernel shared
with `ore.OrePoly`) keyed by module terms (component, derivation
exponents).  Its constructor checks outside input; the problem-file
reader, and the library wherever it builds an element or a coordinate
(`operator_vector`) of checked values, build trusted, by `TermMap._new`.
Left multiplication by an operator runs the product loop of `ore_mul`
over the same shift chain.  Characteristic sets are computed by a
Buchberger-style completion for left submodules that starts from the monic
generators, with S-pairs formed only between elements whose leaders share a
component; the S-pairs do the interreduction, so the generators need no
`autoreduce` pass.  Each pair is ranked once in a heap, by the larger size
of its two elements and then by its lcm term, so that elements with small
coefficients meet first (any order of the pairs gives the same reduced
basis); Buchberger's chain criterion (Buchberger 1979; Gebauer and
Moeller, JSC 1988) skips the pairs whose S-pair is a combination of pairs
already treated, and one pass of interreduction turns the complete basis
into the unique reduced one.  The completeness check that ends every
completion still reduces every generator and every same-component S-pair
of the result, with no criterion.  A reduction step and an S-pair drop the term
they cancel without arithmetic: a shift keeps the leading coefficient,
and the check first tests that every element is monic.  An element of
one term with a constant coefficient costs no Ore arithmetic at all: its
derivative is zero, so each of its shifts is that coefficient at the
shifted term alone.  A reduction step by it only drops the target term,
the S-pair of two of them is zero, and the reduced basis keeps it as it
is (`_one_term`); each still checks that its operands share a ring.

A characteristic set is one record, `CharSet`: the reduced elements, their
ranking, the generators and the ring.  Membership of w is
`reduce(w, charset.elements, charset.ranking).is_zero()`.  Where they
start, `characteristic_set` and `reduce` check that every operand has the
one rank and configuration (`_check_generators`, which
`normalform.classify_presentation` shares).  `autoreduce` runs in no
command; it stays while `bench/tracing.py` traces it, and makes its
elements monic by `_monic_at`, as the completion does.
"""

from __future__ import annotations

import heapq

from .errors import ConfigMismatch, ZeroElement
from .field import RatFun
from .ore import OrePoly, TermMap, monomial_ord, _raise_exponent
from .record import FrozenRecord


class Ranking(FrozenRecord):
    """Total order on the terms (component, exponents) of K[Delta]^n.

    orderly: order of derivation dominates, ties broken by component (a
    lower index is lower), then lex on exponents.
    elimination: component dominates, then order, then lex.
    Components rank by their index alone, the last highest: to rank them
    in another order, relabel them, as a problem file's `vars:` line does
    by naming the unknowns from lowest to highest.
    """

    __slots__ = _fields = ("kind",)

    def __init__(self, kind: str):
        if kind not in ("orderly", "elimination"):
            raise ValueError(f"unknown ranking kind {kind!r}")
        self._set_fields(kind)

    def key(self, term):
        comp, exps = term
        if self.kind == "orderly":
            return (monomial_ord(exps), comp, exps)
        return (comp, monomial_ord(exps), exps)


def orderly_ranking():
    return Ranking("orderly")


def _raise_term(term, i, k=1):
    comp, exps = term
    return comp, _raise_exponent(exps, i, k)


class ModElement(TermMap):
    """Element of K[Delta]^n: (component, exponents) -> RatFun."""

    __slots__ = ()

    _raise_delta = staticmethod(_raise_term)

    def _key(self, term):
        comp, exps = term
        if not 0 <= comp < self.n:
            raise ValueError(f"component {comp} out of range")
        if len(exps) != self.config.m:
            raise ValueError("derivation monomial of wrong length")
        return term

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, config, n):
        return cls(config, n)

    def operator_vector(self):
        """Coordinates as a list of n OrePoly."""
        coords = [{} for _ in range(self.n)]
        for (comp, exps), coeff in self.terms.items():
            coords[comp][exps] = coeff
        zero = OrePoly.zero(self.config)
        return [zero._new(c) for c in coords]

    def __repr__(self):
        return f"ModElement(n={self.n}, {self.terms!r})"


def leader(w, rk):
    """The ranking-maximal term of a nonzero element."""
    if w.is_zero():
        raise ZeroElement("the zero element has no leader")
    return max(w.terms, key=rk.key)


def _check_generators(gens, config, n):
    """ConfigMismatch unless every element of gens has rank n over config."""
    if any(w.n != n or w.config != config for w in gens):
        raise ConfigMismatch("generators of another rank or configuration")


def _monic_at(w, lead):
    """w over its coefficient at lead, which is set to 1 uncomputed."""
    lc = w.terms[lead]
    if lc.is_one():
        return w
    inv, one = lc.inverse(), RatFun.from_const(w.config.v, 1)
    return w._new({k: one if k == lead else inv * a
                   for k, a in w.terms.items()})


def _divides(lead, term):
    """Does some theta send lead to term (same component, exps <=)?"""
    lc, le = lead
    tc, te = term
    return lc == tc and all(a <= b for a, b in zip(le, te))


def _one_term(w):
    """Has w one term, with a constant coefficient?  Every shift of w is
    then that coefficient at the shifted term alone."""
    return len(w.terms) == 1 and next(iter(w.terms.values())).is_const()


def reduce(w, A, rk):
    """Normal form of w modulo the left span of A.

    Cancels the highest reducible term first; the result is free of every
    derivative theta*u_f (theta = identity included) of every leader in A,
    and differs from w by an element of the span.  Every element of A
    must share w's ring (ConfigMismatch).
    """
    _check_generators(A, w.config, w.n)
    active = [(idx, f, leader(f, rk)) for idx, f in enumerate(A)
              if not f.is_zero()]
    return _reduce(w, active, rk)


def _reduce(w, active, rk):
    """`reduce` by (index, element, leader) triples with known leaders;
    the shifts of each element are kept for the whole call (`_shifts`).

    A step by a one-term reducer with a constant coefficient (`_one_term`)
    drops the target term: the shift is a multiple of that term alone,
    so the step is exact for any such coefficient, and builds no shift and
    divides by nothing.  `cancel` by the reducer's zero still checks the
    rings."""
    current = w
    chains = {}
    while True:
        target = None
        for term in sorted(current.terms, key=rk.key, reverse=True):
            for idx, f, lead in active:
                if _divides(lead, term):
                    target = (term, idx, f, lead)
                    break
            if target:
                break
        if target is None:
            return current
        term, idx, f, lead = target
        if _one_term(f):
            current = current.cancel(term, f._new({}))
            continue
        shifted = f.apply_theta(tuple(a - b for a, b in zip(term[1], lead[1])),
                                chains.setdefault(idx, {}))
        c, lc = current.terms[term], shifted.terms[term]
        current = current.cancel(term, shifted, c if lc.is_one() else c / lc)


def autoreduce(S, rk):
    """Interreduce a list of elements into an autoreduced set: a tuple of
    monic, pairwise-reduced elements sorted by increasing leader rank."""
    elems = [_monic_at(w, leader(w, rk)) for w in S if not w.is_zero()]
    while True:
        elems.sort(key=lambda w: rk.key(leader(w, rk)))
        changed = False
        for i in range(len(elems)):
            others = elems[:i] + elems[i + 1:]
            r = reduce(elems[i], others, rk)
            if r != elems[i]:
                changed = True
                if r.is_zero():
                    del elems[i]
                else:
                    elems[i] = _monic_at(r, leader(r, rk))
                break
        if not changed:
            break
    return tuple(elems)


class CharSet(FrozenRecord):
    """Complete characteristic set of the module spanned by `generators`:
    the monic, pairwise-reduced `elements`, sorted by increasing leader
    rank under `ranking`, of a Groebner-style basis in K[Delta]^n."""

    __slots__ = _fields = ("elements", "ranking", "generators", "config", "n")

    def __init__(self, elements: tuple, ranking: Ranking, generators: tuple,
                 config: object, n: int):
        self._set_fields(elements, ranking, generators, config, n)

    def leaders(self):
        return [leader(f, self.ranking) for f in self.elements]


def _lcm(a, b):
    """The least common multiple of two terms of one component."""
    return a[0], tuple(max(x, y) for x, y in zip(a[1], b[1]))


def _spair(f, lf, g, lg):
    """S-pair of the monic f and g, whose leaders lf and lg share a
    component: a shift of a monic element is monic at the shifted leader,
    so the S-pair is the plain difference of the two shifts.  When f and
    g are one-term elements with constant coefficients (`_one_term`), each
    shift is the single term at the lcm and the two cancel: the S-pair is
    the zero of their ring, read off after the ring check of `cancel`."""
    if _one_term(f) and _one_term(g):
        f._check(g)
        return f._new({})
    lt = _lcm(lf, lg)
    return f.apply_theta(tuple(a - b for a, b in zip(lt[1], lf[1]))).cancel(
        lt, g.apply_theta(tuple(a - b for a, b in zip(lt[1], lg[1]))))


def _pair(i, j):
    return (i, j) if i < j else (j, i)


def _chain_skips(i, j, lcm, leads, queued):
    """Buchberger's chain criterion for the pair (i, j) with lcm term lcm.

    True when some other leader divides lcm and neither of its pairs with
    i and j is still queued: the S-pair of (i, j) is then a combination
    of theirs, which were already treated.  It holds for left modules over
    K[Delta] because the basis is monic and delta monomials commute.
    """
    for k, lead in enumerate(leads):
        if (k != i and k != j and _divides(lead, lcm)
                and _pair(i, k) not in queued and _pair(j, k) not in queued):
            return True
    return False


def _reduced_basis(basis, leads, rk):
    """The unique reduced basis of a complete monic basis, in one pass.

    Only the elements whose leaders are minimal are kept, one per leader,
    and each tail is reduced once by the other kept elements.  No step
    reaches a kept leader, so every element stays monic.  A one-term
    element is kept as it is: its only term is its leader, which no other
    kept leader divides.
    """
    keep = [i for i, lead in enumerate(leads)
            if not any(_divides(other, lead) and (other != lead or j < i)
                       for j, other in enumerate(leads) if j != i)]
    keep.sort(key=lambda i: rk.key(leads[i]))
    active = [(i, basis[i], leads[i]) for i in keep]
    return tuple(basis[i] if _one_term(basis[i])
                 else _reduce(basis[i], [a for a in active if a[0] != i], rk)
                 for i in keep)


def characteristic_set(gens, rk, config=None, n=None):
    """Characteristic set of the left submodule generated by gens.

    Buchberger-style completion that starts from the nonzero generators,
    each made monic; their S-pairs do the interreduction.  Each element
    enters the basis once, with its leader, and queues its pairs with the
    elements whose leaders share its component, ranked in a heap by the
    larger size of the two elements and then by their lcm term; an
    element's size is the largest total degree of a numerator or
    denominator among its coefficients.  Pairs are processed in increasing
    rank unless the chain criterion shows them redundant, and one pass of
    interreduction turns the complete basis into the final reduced monic
    one.  config and n, each when not given, are the first generator's;
    every generator must have them (ConfigMismatch).
    """
    gens = list(gens)
    if gens:
        config = config or gens[0].config
        n = gens[0].n if n is None else n
    if config is None or n is None:
        raise ValueError("need config and n for an empty generator list")
    _check_generators(gens, config, n)
    basis, leads, sizes, active, heap, queued = [], [], [], [], [], set()

    def insert(w):
        k, lead = len(basis), leader(w, rk)
        w = _monic_at(w, lead)
        basis.append(w)
        leads.append(lead)
        sizes.append(max(max(c.num.total_degree(), c.den.total_degree())
                         for c in w.terms.values()))
        active.append((k, w, lead))
        for h in range(k):
            if leads[h][0] == lead[0]:
                lcm = _lcm(leads[h], lead)
                heapq.heappush(heap, (max(sizes[h], sizes[k]), rk.key(lcm),
                                      h, k, lcm))
                queued.add((h, k))

    for g in gens:
        if not g.is_zero():
            insert(g)
    while heap:
        _, _, i, j, lcm = heapq.heappop(heap)
        queued.remove((i, j))
        # the zero S-pair of two one-term elements costs less than the scan
        if (not (_one_term(basis[i]) and _one_term(basis[j]))
                and _chain_skips(i, j, lcm, leads, queued)):
            continue
        nf = _reduce(_spair(basis[i], leads[i], basis[j], leads[j]),
                     active, rk)
        if not nf.is_zero():
            insert(nf)
    charset = CharSet(_reduced_basis(basis, leads, rk), rk, tuple(gens),
                      config, n)
    _verify_complete(charset)
    return charset


def _verify_complete(charset):
    """Every element is monic, and every generator and every same-component
    S-pair reduces to zero.

    No criterion applies here, so a pair wrongly skipped during the
    completion raises instead of giving a wrong basis.  A one-term element
    with a constant coefficient costs no arithmetic here either: the
    closed forms of `_spair` and `_reduce` give exactly what the shifts
    would, so every pair is still visited and every step still taken.
    """
    rk = charset.ranking
    elems = list(charset.elements)
    leads = charset.leaders()
    if not all(w.terms[lead].is_one() for w, lead in zip(elems, leads)):
        raise AssertionError("element not monic at its leader")
    active = list(zip(range(len(elems)), elems, leads))
    for g in charset.generators:
        if not _reduce(g, active, rk).is_zero():
            raise AssertionError("generator does not reduce to zero")
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            if leads[i][0] != leads[j][0]:
                continue
            s = _spair(elems[i], leads[i], elems[j], leads[j])
            if not _reduce(s, active, rk).is_zero():
                raise AssertionError("S-pair does not reduce to zero")
