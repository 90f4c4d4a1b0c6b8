"""Answer checks that share no code with diffalg.

Module dimensions are recomputed by truncated Gaussian elimination over
Z/P at a sampled point of the field variables: every coefficient is
expanded as a truncated power series around the point, so the derivatives
the operators apply are read off exactly, and rank over Z/P at a random
point equals the rank over Q(t) except with probability ~deg/P.  Staircase
counts and standard terms are checked by lattice enumeration.  The CLI's
printed answers are parsed back from text.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from itertools import product
from math import comb, factorial

from corpus import poly_derivative

P = 2147483647          # 2^31 - 1, prime


class OracleError(Exception):
    """A printed answer disagrees with the oracle."""


def _expect(cond, message):
    if not cond:
        raise OracleError(message)


# ---------------------------------------------------------------------------
# truncated power series over Z/P in v variables, around a point

def _graded(v, degree):
    """Exponent tuples of length v and total degree `degree`."""
    if v == 0:
        return [()] if degree == 0 else []
    if v == 1:
        return [(degree,)]
    return [(h,) + rest for h in range(degree + 1)
            for rest in _graded(v - 1, degree - h)]


def poly_series(p, point, depth):
    """Taylor coefficients of an integer polynomial around `point`."""
    out = {}
    for exps, c in p.items():
        # prod_i (a_i + e_i)^k_i expanded binomially
        parts = [{(): c % P}]
        for a, k in zip(point, exps):
            nxt = {}
            for j in range(k + 1):
                w = comb(k, j) * pow(a, k - j, P) % P
                for key, val in parts[-1].items():
                    nxt[key + (j,)] = (nxt.get(key + (j,), 0) + val * w) % P
            parts.append(nxt)
        for key, val in parts[-1].items():
            if sum(key) <= depth:
                out[key] = (out.get(key, 0) + val) % P
    return {k: x for k, x in out.items() if x}


def ratfun_series(r, point, depth):
    """Series of num/den; den must not vanish at the point."""
    v = len(point)
    num = poly_series(r[0], point, depth)
    den = poly_series(r[1], point, depth)
    d0 = den.get((0,) * v, 0)
    if not d0:
        raise ZeroDivisionError("denominator vanishes at the sampled point")
    inv0 = pow(d0, P - 2, P)
    inv = {(0,) * v: inv0}
    higher = [(e, c) for e, c in den.items() if sum(e)]
    for k in range(1, depth + 1):
        for beta in _graded(v, k):
            acc = 0
            for gamma, c in higher:
                rest = tuple(b - g for b, g in zip(beta, gamma))
                if min(rest) >= 0:
                    acc += c * inv.get(rest, 0)
            if acc % P:
                inv[beta] = -acc * inv0 % P
    out = {}
    for a, x in num.items():
        for b, y in inv.items():
            key = tuple(i + j for i, j in zip(a, b))
            if sum(key) <= depth:
                out[key] = (out.get(key, 0) + x * y) % P
    return {k: x for k, x in out.items() if x}


def sample_point(name, v):
    rng = random.Random(f"oracle:{name}")
    return tuple(rng.randrange(2, P - 1) for _ in range(v))


class PointModule:
    """Module elements of K[Delta]^n evaluated at a point, as sparse rows.

    A row is {(order, comp, exps): value}; ordering keys by total order
    first makes the echelon form below count dim(N cap W_k) directly.
    """

    def __init__(self, m, v, point, depth):
        self.m, self.v, self.point, self.depth = m, v, point, depth
        self._series = {}

    def series(self, coeff):
        key = (tuple(sorted(coeff[0].items())), tuple(sorted(coeff[1].items())))
        s = self._series.get(key)
        if s is None:
            s = self._series[key] = ratfun_series(coeff, self.point,
                                                  self.depth)
        return s

    def value(self, coeff):
        return self.series(coeff).get((0,) * self.v, 0)

    def apply_theta(self, w, theta):
        """theta * w at the point.

        theta * (a d^sigma) = sum over tau <= theta of C(theta, tau)
        d^(theta-tau)(a) d^(sigma+tau); with beta = theta - tau, the value
        of d^beta(a) is beta! times the series coefficient, so each term
        weighs theta!/tau! * series[beta].  Derivations past v kill
        coefficients, so beta only ranges over the first v coordinates.
        """
        row = {}
        v, m = self.v, self.m
        fact = 1
        for t in theta:
            fact *= factorial(t)
        betas = list(product(*(range(t + 1) for t in theta[:v])))
        for (comp, sigma), coeff in w.items():
            s = self.series(coeff)
            for beta in betas:
                c = s.get(beta)
                if not c:
                    continue
                tau = tuple(t - b for t, b in zip(theta, beta)) + theta[v:]
                weight = fact
                for u in tau:
                    weight //= factorial(u)
                exps = tuple(a + b for a, b in zip(sigma, tau))
                key = (sum(exps), comp, exps)
                row[key] = (row.get(key, 0) + weight * c) % P
        return {k: x for k, x in row.items() if x}

    def vector(self, w):
        row = {}
        for (comp, exps), coeff in w.items():
            key = (sum(exps), comp, exps)
            row[key] = (row.get(key, 0) + self.value(coeff)) % P
        return {k: x for k, x in row.items() if x}


class Echelon:
    """Incremental row echelon form over Z/P on sparse dict rows."""

    def __init__(self):
        self.pivots = {}

    def _reduce(self, vec, insert):
        vec = dict(vec)
        while vec:
            key = max(vec)
            row = self.pivots.get(key)
            if row is None:
                if insert:
                    inv = pow(vec[key], P - 2, P)
                    self.pivots[key] = {k: c * inv % P for k, c in vec.items()}
                return vec
            f = vec[key]
            for k, c in row.items():
                x = (vec.get(k, 0) - f * c) % P
                if x:
                    vec[k] = x
                else:
                    vec.pop(k, None)
        return vec

    def add(self, vec):
        self._reduce(vec, True)

    def contains(self, vec):
        return not self._reduce(vec, False)

    def count_up_to(self, k):
        return sum(1 for key in self.pivots if key[0] <= k)


# Truncated elimination adds derivatives order by order; it stops once the
# answer has stayed the same for *_STABLE more orders past the orders the
# answer can depend on plus *_PAD.
DIMS_PAD, DIMS_STABLE = 2, 2
SPAN_PAD, SPAN_STABLE = 3, 3


def truncated_dims(gens, m, v, n, kmax, point):
    """dim_K of (K[Delta]^n / N)_k for k = 0..kmax, N = leftspan(gens).

    Derivatives theta*g are added order by order until the whole vector is
    stable for DIMS_STABLE more orders past kmax + maxord + DIMS_PAD.
    """
    gens = [g for g in gens if g]
    full = [n * comb(k + m, m) for k in range(kmax + 1)]
    if not gens:
        return full
    maxord = max(sum(e) for g in gens for (_, e) in g)
    min_pad = kmax + maxord + DIMS_PAD
    mod = PointModule(m, v, point, min_pad + 3 * DIMS_STABLE + 4)
    ech = Echelon()
    dims, stable, pad = None, 0, 0
    while True:
        if pad > mod.depth:
            mod = PointModule(m, v, point, 2 * pad)
        for theta in _graded(m, pad):
            for g in gens:
                ech.add(mod.apply_theta(g, theta))
        new = [full[k] - ech.count_up_to(k) for k in range(kmax + 1)]
        if new == dims:
            stable += 1
        else:
            stable, dims = 0, new
        if pad >= min_pad and stable >= DIMS_STABLE:
            return dims
        pad += 1


def in_span(vec, gens, m, v, point, maxord_w):
    """Whether a point-evaluated vector lies in the truncated left span."""
    gens = [g for g in gens if g]
    if not vec:
        return True
    if not gens:
        return False
    min_pad = maxord_w + max(sum(e) for g in gens for (_, e) in g) + SPAN_PAD
    mod = PointModule(m, v, point, min_pad + SPAN_STABLE + 4)
    ech = Echelon()
    answer, stable, pad = None, 0, 0
    while True:
        for theta in _graded(m, pad):
            for g in gens:
                ech.add(mod.apply_theta(g, theta))
        new = ech.contains(vec)
        if new == answer:
            stable += 1
        else:
            stable, answer = 0, new
        if answer or (pad >= min_pad and stable >= SPAN_STABLE):
            return answer
        pad += 1


# ---------------------------------------------------------------------------
# reading the CLI's printed answers

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z]\w*)|(.))")


class _Expr:
    """Recursive descent over + - * / ^ ( ) with pluggable atoms."""

    def __init__(self, text, atom, const):
        self.toks = [(num, name, sym) for num, name, sym
                     in _TOKEN.findall(text) if num or name or sym.strip()]
        self.i = 0
        self.atom, self.const = atom, const

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else ("", "", "")

    def take(self, sym):
        if self.peek()[2] == sym:
            self.i += 1
            return True
        return False

    def parse(self):
        value = self.expr()
        _expect(self.i == len(self.toks), "trailing text in printed answer")
        return value

    def expr(self):
        value = self.unary()
        while True:
            if self.take("+"):
                value = value + self.unary()
            elif self.take("-"):
                value = value - self.unary()
            else:
                return value

    def unary(self):
        if self.take("-"):
            return -self.unary()
        return self.term()

    def term(self):
        value = self.power()
        while True:
            if self.take("*"):
                value = value * self.power()
            elif self.take("/"):
                value = value / self.power()
            else:
                return value

    def power(self):
        base = self.atom_()
        if self.take("^"):
            num = self.peek()[0]
            _expect(num, "bad exponent in printed answer")
            self.i += 1
            return base ** int(num)
        return base

    def atom_(self):
        num, name, sym = self.peek()
        self.i += 1
        if num:
            return self.const(int(num))
        if name:
            return self.atom(name)
        if sym == "(":
            value = self.expr()
            _expect(self.take(")"), "unbalanced parenthesis in printed answer")
            return value
        raise OracleError(f"unexpected {sym!r} in printed answer")


def eval_numpoly(text, t):
    """Value of a printed numerical polynomial such as `1/2*t^2 + t` at t."""
    def atom(name):
        _expect(name == "t", f"unknown symbol {name!r}")
        return Fraction(t)
    return _Expr(text, atom, Fraction).parse()


class _OpAtPoint:
    """Operator with scalar coefficients at a point: {exps: value mod P}.

    The printer writes every coefficient left of its derivation monomial,
    so products never need the commutation rule.
    """

    __slots__ = ("t",)

    def __init__(self, t):
        self.t = {k: x % P for k, x in t.items() if x % P}

    def __add__(self, o):
        out = dict(self.t)
        for k, x in o.t.items():
            out[k] = out.get(k, 0) + x
        return _OpAtPoint(out)

    def __neg__(self):
        return _OpAtPoint({k: -x for k, x in self.t.items()})

    def __sub__(self, o):
        return self + (-o)

    def __mul__(self, o):
        out = {}
        for a, x in self.t.items():
            for b, y in o.t.items():
                k = tuple(i + j for i, j in zip(a, b))
                out[k] = out.get(k, 0) + x * y
        return _OpAtPoint(out)

    def __truediv__(self, o):
        _expect(len(o.t) == 1 and not any(next(iter(o.t))),
                "division by a non-scalar in printed answer")
        inv = pow(next(iter(o.t.values())), P - 2, P)
        return _OpAtPoint({k: x * inv for k, x in self.t.items()})

    def __pow__(self, k):
        out = _OpAtPoint({tuple(0 for _ in next(iter(self.t), ())): 1}) \
            if self.t else _OpAtPoint({})
        for _ in range(k):
            out = out * self
        return out


def eval_operator(text, m, point):
    """Printed operator -> {derivation exps: value at the point}."""
    zero = (0,) * m

    def atom(name):
        if name == "d" and m == 1:
            return _OpAtPoint({(1,): 1})
        if name[0] == "d" and name[1:].isdigit():
            return _OpAtPoint({tuple(int(i == int(name[1:]) - 1)
                                     for i in range(m)): 1})
        if name == "t" and len(point) == 1:
            return _OpAtPoint({zero: point[0]})
        if name[0] == "t" and name[1:].isdigit():
            return _OpAtPoint({zero: point[int(name[1:]) - 1]})
        raise OracleError(f"unknown symbol {name!r} in printed operator")

    return _Expr(text, atom, lambda k: _OpAtPoint({zero: k})).parse().t


def split_top(text, sep=","):
    """Split on `sep` outside brackets and parentheses."""
    parts, depth, cur = [], 0, ""
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append(cur)
            cur = ""
        else:
            cur += ch
    parts.append(cur)
    return [p.strip() for p in parts]


def eval_vector(text, m, point):
    """Printed `[op, ..., op]` -> point row {(order, comp, exps): value}."""
    text = text.strip()
    _expect(text.startswith("[") and text.endswith("]"), "bad printed vector")
    row = {}
    for comp, op in enumerate(split_top(text[1:-1])):
        for exps, x in eval_operator(op, m, point).items():
            row[(sum(exps), comp, exps)] = x
    return row


def _line(stdout, prefix):
    for line in stdout.splitlines():
        if line.strip().startswith(prefix):
            return line.strip()[len(prefix):].strip()
    raise OracleError(f"no {prefix!r} line in output")


def read_dimpoly(stdout):
    """(polynomial text, valid_from, d) from a dimpoly or tangent answer."""
    body = _line(stdout, "dimension polynomial:")
    match = re.fullmatch(r"(.*) \(valid for t >= (\d+)\)", body)
    _expect(match, "unreadable dimension polynomial")
    d = int(_line(stdout, "differential dimension d ="))
    return match.group(1), int(match.group(2)), d


# ---------------------------------------------------------------------------
# the checks, one per problem kind

class Checker:
    """Checks answers; caches module dimensions per presentation text."""

    def __init__(self):
        self._dims = {}

    def dims(self, prob, gens, kmax):
        key = (prob.text.split("element:")[0], kmax)
        if key not in self._dims:
            point = sample_point(prob.text, prob.v)
            self._dims[key] = truncated_dims(gens, prob.m, prob.v, prob.n,
                                             kmax, point)
        return self._dims[key]

    def check(self, prob, stdout, answers):
        getattr(self, "check_" + prob.kind)(prob, stdout, answers)

    def _check_polynomial(self, prob, gens, poly, vf, d):
        m = prob.m
        dims = self.dims(prob, gens, vf + m)
        for k in range(vf, vf + m + 1):
            _expect(eval_numpoly(poly, k) == dims[k],
                    f"phi({k}) = {eval_numpoly(poly, k)}, "
                    f"elimination gives {dims[k]}")
        diff = sum((-1) ** (m - j) * comb(m, j) * dims[vf + j]
                   for j in range(m + 1))
        _expect(d == diff, f"d = {d}, elimination gives {diff}")
        return dims

    def check_dimpoly(self, prob, stdout, answers):
        poly, vf, d = read_dimpoly(stdout)
        dims = self._check_polynomial(prob, prob.data["gens"], poly, vf, d)
        if prob.m == 1:
            b = int(re.match(r"(-?\d+)", _line(stdout, "below-leader count B ="))
                    .group(1))
            _expect(b == dims[vf] - d * (vf + 1),
                    f"B = {b}, elimination gives {dims[vf] - d * (vf + 1)}")

    def _check_torsion(self, stdout, d, bound):
        match = re.search(r"(\d+)\D+?(\d+)\D+?\[([\d, ]*)\]", stdout)
        _expect(match, "unreadable tangent class")
        d_, k = int(match.group(1)), int(match.group(2))
        degrees = [int(x) for x in match.group(3).split(",") if x.strip()]
        _expect(d_ == d, f"tangent class d = {d_}, elimination gives {d}")
        _expect(k == sum(degrees), "k differs from the sum of torsion degrees")
        _expect(0 <= k <= bound, f"torsion k = {k} exceeds B = {bound}")

    def check_decompose(self, prob, stdout, answers):
        sibling = answers.get(prob.name.replace(".decompose", ".dimpoly"))
        _expect(sibling is not None, "decompose needs its dimpoly sibling")
        _, vf, _ = read_dimpoly(sibling)
        dims = self.dims(prob, prob.data["gens"], vf + 1)
        d = dims[vf + 1] - dims[vf]
        self._check_torsion(stdout.split("\n")[0], d, dims[vf] - d * (vf + 1))
        # the diagonal must carry the same invariants: n - d nonzero
        # entries whose degrees add up to k
        diagonal = _line(stdout, "diagonal:")
        _expect(diagonal.startswith("[") and diagonal.endswith("]"),
                "unreadable diagonal")
        point = sample_point(prob.text, 1)
        degrees = [max(e[0] for e in ops) for ops in
                   (eval_operator(x.strip("'"), 1, point)
                    for x in split_top(diagonal[1:-1]) if x) if ops]
        k = int(re.search(r"k = (\d+)", stdout).group(1))
        _expect(len(degrees) == prob.n - d and sum(degrees) == k,
                f"diagonal {diagonal} does not give d = {d}, k = {k}")

    def check_tangent(self, prob, stdout, answers):
        gens = linearize(prob.data["point"], prob.data["eqs"], prob.n)
        poly, vf, d = read_dimpoly(stdout)
        dims = self._check_polynomial(prob, gens, poly, vf, d)
        self._check_torsion(_line(stdout, "tangent space:"), d,
                            dims[vf] - d * (vf + 1))

    def check_reduce(self, prob, stdout, answers):
        gens, element = prob.data["gens"], prob.data["element"]
        point = sample_point(prob.text, prob.v)
        depth = 8
        mod = PointModule(prob.m, prob.v, point, depth)
        target = dict(mod.vector(element["perturb"]))
        for i, op in element["combo"]:
            for theta, a in op.items():
                av = mod.value(a)
                for key, x in mod.apply_theta(gens[i], theta).items():
                    target[key] = (target.get(key, 0) + av * x) % P
        target = {k: x for k, x in target.items() if x}
        order = max([0] + [k[0] for k in target])
        nf = eval_vector(_line(stdout, "normal form:"), prob.m, point)
        member = _line(stdout, "member:")
        _expect((member == "yes") == (not nf), "member flag disagrees with nf")
        diff = dict(target)
        for key, x in nf.items():
            diff[key] = (diff.get(key, 0) - x) % P
        diff = {k: x for k, x in diff.items() if x}
        top = max([order] + [k[0] for k in nf])
        _expect(in_span(diff, gens, prob.m, prob.v, point, top),
                "element - normal form is not in the span")
        if not element["perturb"]:
            _expect(member == "yes", "a combination of generators is no member")
        else:
            expected = in_span(target, gens, prob.m, prob.v, point, order)
            _expect((member == "yes") == expected,
                    f"member: {member}, span check gives {expected}")

    def check_count(self, prob, stdout, answers):
        match = re.fullmatch(r"(.*) \(valid for t >= (\d+)\)", stdout.strip())
        _expect(match, "unreadable count")
        vf = int(match.group(2))
        for t in range(vf, vf + prob.m + 2):
            got = eval_numpoly(match.group(1), t)
            want = lattice_count(prob.data["leaders"], prob.m, t)
            _expect(got == want, f"count({t}) = {got}, enumeration gives {want}")

    def check_standard(self, prob, stdout, answers):
        leaders, m, bound = prob.data["leaders"], prob.m, prob.data["bound"]
        minimal = [{e for e in comp
                    if not any(f != e and all(a <= b for a, b in zip(f, e))
                               for f in comp)} for comp in leaders]
        lines = stdout.splitlines()
        printed = set()
        for line in lines[1:]:
            if not line.startswith("  "):
                break
            row = eval_vector(line.strip(), m, ())
            _expect(len(row) == 1 and 1 in row.values(),
                    f"charset element {line.strip()} is not a monic monomial")
            (_, comp, exps), = row
            printed.add((comp, exps))
        want = {(c, e) for c, comp in enumerate(minimal) for e in comp}
        _expect(printed == want, "charset differs from the minimal monomials")
        body = _line(stdout, f"standard terms up to order {bound}")
        match = re.fullmatch(r"\((\d+)\):(.*)", body)
        _expect(match, "unreadable standard terms")
        want_terms = standard_terms(minimal, m, bound)
        _expect(int(match.group(1)) == len(want_terms),
                f"{match.group(1)} standard terms, enumeration gives "
                f"{len(want_terms)}")
        got = _parse_term_labels(match.group(2), m)
        _expect(got == want_terms, "standard terms differ from enumeration")


def _parse_term_labels(text, m):
    labels = re.findall(r"e(\d+)(?:_\(([\d,]+)\))?", text)
    out = set()
    for comp, exps in labels:
        e = tuple(int(x) for x in exps.split(",")) if exps else (0,) * m
        out.add((int(comp) - 1, e))
    return out


def lattice_count(leaders, m, t):
    """#{(comp, v) : |v| <= t, v above no leader of comp}, by enumeration."""
    return len(standard_terms(leaders, m, t))


def standard_terms(leaders, m, bound):
    return {(c, v) for c, comp in enumerate(leaders)
            for v in product(range(bound + 1), repeat=m)
            if sum(v) <= bound
            and not any(all(a >= b for a, b in zip(v, e)) for e in comp)}


def linearize(point, eqs, n):
    """Linearization of the generated system at its polynomial point.

    For P = sum_k c_k (M_k(y) - M_k(x)) the coefficient of y_j^(o) is
    sum_k c_k * dM_k/dy_j^(o) at x; returned as module elements whose
    coefficients are integer polynomials in t.
    """
    derivs = {}

    def deriv(j, o):
        if (j, o) not in derivs:
            p = point[j]
            for _ in range(o):
                p = poly_derivative(p)
            derivs[(j, o)] = p
        return derivs[(j, o)]

    def mul(a, b):
        out = {}
        for (x,), c in a.items():
            for (y,), d in b.items():
                out[(x + y,)] = out.get((x + y,), 0) + c * d
        return {k: c for k, c in out.items() if c}

    gens = []
    for terms in eqs:
        w = {}
        for coeff, factors in terms:
            for idx, (j, o) in enumerate(factors):
                if idx and factors[idx - 1] == (j, o):
                    continue
                mult = factors.count((j, o))
                part = {(0,): mult}
                removed = False
                for (jj, oo) in factors:
                    if (jj, oo) == (j, o) and not removed:
                        removed = True
                        continue
                    part = mul(part, deriv(jj, oo))
                part = mul(part, coeff)
                key = (j, (o,))
                acc = w.get(key, {})
                for e, c in part.items():
                    acc[e] = acc.get(e, 0) + c
                w[key] = {e: c for e, c in acc.items() if c}
        gens.append({k: (p, {(0,): 1}) for k, p in w.items() if p})
    return gens
