"""Seeded problem corpora for the three benchmark workloads.

Every problem is kept twice: as the problem-file text the CLI reads, and as
plain data (dicts of integer exponents and coefficients) that the oracles in
`oracle.py` check the answers against.  Nothing here imports diffalg.

Polynomials are dicts {exponent tuple: int}; a field element is a pair
(num, den) of such dicts; a module element is a dict
{(component, derivation exponents): field element}.

The work of a pass must not depend on --seed (the benchmark's spread is
taken over runs with different seeds), so the problem *set* of the
workloads is a fixed draw: the acceptance draw (random.Random(71)) for the
torsion presentations, and fixed base seeds for the rest.  --seed permutes
the order of the problems in every pass (run.py) and renames the variables
of the tangent systems.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

TORSION_SEED = 71          # tests/test_acceptance.py, torsion criterion
TANGENT_SEED = 1071
PDE_SEED = 2071
STAIRCASE_SEED = 3071


@dataclass
class Problem:
    """One CLI call: argv after the problem file, its text and its data."""

    name: str
    command: str
    text: str
    kind: str                       # which oracle checks it
    m: int = 1
    v: int = 1
    n: int = 1
    data: dict = field(default_factory=dict)
    extra_args: tuple = ()

    @property
    def argv(self):
        return [self.command, "-", *self.extra_args]


# ---------------------------------------------------------------------------
# the acceptance-test generators, replayed call for call on random.Random

def rand_mpoly(rng, nvars, max_deg=2, max_terms=2):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        terms[exps] = rng.randint(-3, 3)
    return {e: c for e, c in terms.items() if c}


def rand_ratfun(rng, v, frac_prob=0.15, coeff_deg=2):
    num = rand_mpoly(rng, v, max_deg=coeff_deg)
    den = {(0,) * v: 1}
    if v and rng.random() < frac_prob:
        cand = rand_mpoly(rng, v, max_deg=1)
        if cand:
            den = cand
    return num, den


def rand_modelement(rng, m, v, n, max_ord=3, max_terms=3, nonzero=False,
                    frac_prob=0.15, coeff_deg=2):
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            comp = rng.randrange(n)
            exps = [0] * m
            for _ in range(rng.randint(0, max_ord)):
                exps[rng.randrange(m)] += 1
            terms[(comp, tuple(exps))] = rand_ratfun(rng, v, frac_prob,
                                                     coeff_deg)
        terms = {k: c for k, c in terms.items() if c[0]}
        if terms or not nonzero:
            return terms


# ---------------------------------------------------------------------------
# problem-file text

def field_names(v):
    return ["t"] if v == 1 else [f"t{i + 1}" for i in range(v)]


def delta_names(m):
    return ["d"] if m == 1 else [f"d{i + 1}" for i in range(m)]


def _monomial(exps, names):
    return "*".join(name if e == 1 else f"{name}^{e}"
                    for name, e in zip(names, exps) if e)


def poly_text(p, names):
    if not p:
        return "0"
    out = ""
    for exps in sorted(p, reverse=True):
        c = p[exps]
        mono = _monomial(exps, names)
        mag = abs(c)
        piece = mono if mag == 1 and mono else \
            f"{mag}*{mono}" if mono else str(mag)
        if not out:
            out = piece if c > 0 else "-" + piece
        else:
            out += (" + " if c > 0 else " - ") + piece
    return out


def ratfun_text(r, v):
    num, den = r
    names = field_names(v) if v else []
    num_s = poly_text(num, names)
    if den == {(0,) * v: 1}:
        return f"({num_s})"
    return f"({num_s})/({poly_text(den, names)})"


def op_text(op, m, v):
    """Operator {exps: field element} as text."""
    pieces = []
    for exps, coeff in sorted(op.items()):
        mono = _monomial(exps, delta_names(m))
        pieces.append(ratfun_text(coeff, v) + (f"*{mono}" if mono else ""))
    return " + ".join(pieces) if pieces else "0"


def coordinates(w, n):
    """Module element -> list of n operators {exps: field element}."""
    ops = [{} for _ in range(n)]
    for (comp, exps), coeff in w.items():
        ops[comp][exps] = coeff
    return ops


def vector_text(w, m, v, n):
    return "[" + ", ".join(op_text(op, m, v) for op in coordinates(w, n)) + "]"


def field_line(m, v):
    base = "Q" if v == 0 else "Q(" + ", ".join(field_names(v)) + ")"
    return f"field: {base}" + (f" derivations: {m}" if m != max(v, 1)
                               else "")


def module_text(gens, m, v, n, element=None):
    lines = [field_line(m, v), f"module: {n}",
             "gens: " + "; ".join(vector_text(g, m, v, n) for g in gens)]
    if element is not None:
        lines.append("element: " + element_text(gens, element, m, v, n))
    return "\n".join(lines) + "\n"


def element_text(gens, element, m, v, n):
    """sum_i op_i * g_i (+ perturbation), left unexpanded for the parser."""
    coords = [coordinates(g, n) for g in gens]
    pert = coordinates(element["perturb"], n)
    out = []
    for c in range(n):
        pieces = [f"({op_text(op, m, v)})*({op_text(coords[i][c], m, v)})"
                  for i, op in element["combo"] if coords[i][c]]
        if pert[c]:
            pieces.append(op_text(pert[c], m, v))
        out.append(" + ".join(pieces) if pieces else "0")
    return "[" + ", ".join(out) + "]"


# ---------------------------------------------------------------------------
# ode-torsion: torsion presentations and tangent systems (m = v = 1)

def torsion_presentations(seed=TORSION_SEED, count=100):
    """The acceptance draw: (n, gens) for each presentation."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 3)
        gens = [rand_modelement(rng, 1, 1, n, max_ord=3, nonzero=True,
                                frac_prob=0.05, coeff_deg=1)
                for _ in range(rng.randint(1, 3))]
        out.append((n, gens))
    return out


VAR_POOL = ("u", "w", "x", "y", "z", "p", "q", "r", "s", "v")
TANGENT_COUNT = 24


def poly_derivative(p):
    return {(e[0] - 1,): c * e[0] for e, c in p.items() if e[0]}


def _rand_upoly(rng, max_deg, nonzero=True):
    while True:
        p = {}
        for e in range(max_deg + 1):
            c = rng.randint(-3, 3)
            if c:
                p[(e,)] = c
        if p or not nonzero:
            return p


def tangent_system(rng):
    """Nonlinear system sum_k c_k(t) * (M_k(y) - M_k(x)) = 0 through x.

    x is a polynomial point, so M_k(x) is written as a product of its
    derivatives and the point lies on every equation by construction.
    Returns (n, point, eqs) with eqs a list of [(c_k, [(var, order)...])].
    """
    n = rng.randint(1, 2)
    point = [_rand_upoly(rng, 2, nonzero=False) for _ in range(n)]
    eqs = []
    for _ in range(rng.randint(1, n)):
        terms = []
        for _ in range(rng.randint(1, 3)):
            factors = [(rng.randrange(n), rng.randint(0, 2))
                       for _ in range(rng.randint(1, 2))]
            terms.append((_rand_upoly(rng, 1), sorted(factors)))
        eqs.append(terms)
    return n, point, eqs


def tangent_text(n, point, eqs, names):
    def deriv_text(j, order):
        p = point[j]
        for _ in range(order):
            p = poly_derivative(p)
        return "(" + poly_text(p, ["t"]) + ")"

    parts = []
    for terms in eqs:
        pieces = []
        for coeff, factors in terms:
            mono_y = "*".join(names[j] + "'" * o for j, o in factors)
            mono_x = "*".join(deriv_text(j, o) for j, o in factors)
            pieces.append(f"({poly_text(coeff, ['t'])})*({mono_y} - {mono_x})")
        parts.append(" + ".join(pieces))
    return (f"field: Q(t)\nvars: {' '.join(names)}\npoint: "
            + ", ".join(f"{names[j]} = {poly_text(point[j], ['t'])}"
                        for j in range(n))
            + "\neqs: " + "; ".join(parts) + "\n")


def ode_torsion(seed):
    problems = []
    for i, (n, gens) in enumerate(torsion_presentations()):
        text = module_text(gens, 1, 1, n)
        data = {"gens": gens}
        for command in ("dimpoly", "decompose"):
            problems.append(Problem(f"torsion{i:02d}.{command}", command,
                                    text, command, n=n, data=data))
    rng = random.Random(TANGENT_SEED)
    names_rng = random.Random(seed)
    for i in range(TANGENT_COUNT):
        n, point, eqs = tangent_system(rng)
        names = names_rng.sample(VAR_POOL, n)
        problems.append(Problem(f"tangent{i:02d}", "tangent",
                                tangent_text(n, point, eqs, names),
                                "tangent", n=n,
                                data={"point": point, "eqs": eqs}))
    return problems


# ---------------------------------------------------------------------------
# pde-charset: partial presentations (m = 2, 3; v = 0..2)

PDE_COUNT = 160


def rand_operator(rng, m, v, max_ord):
    op = {}
    for _ in range(rng.randint(1, 2)):
        exps = [0] * m
        for _ in range(rng.randint(0, max_ord)):
            exps[rng.randrange(m)] += 1
        coeff = rand_ratfun(rng, v, frac_prob=0.0, coeff_deg=1)
        if coeff[0]:
            op[tuple(exps)] = coeff
    return op


def pde_presentation(rng):
    m = rng.choice((2, 2, 3))
    v = rng.randint(0, 2)
    n = rng.randint(1, 2)
    gens = [rand_modelement(rng, m, v, n, max_ord=2, max_terms=3,
                            nonzero=True, frac_prob=0.1, coeff_deg=1)
            for _ in range(rng.randint(1, 3))]
    return m, v, n, gens


def pde_element(rng, m, v, n, gens):
    """A left combination of the generators, perturbed half of the time."""
    combo = [(i, rand_operator(rng, m, v, 2)) for i in range(len(gens))]
    perturb = {}
    if rng.random() < 0.5:
        perturb = rand_modelement(rng, m, v, n, max_ord=1, max_terms=1,
                                  nonzero=True, frac_prob=0.0, coeff_deg=1)
    return {"combo": combo, "perturb": perturb}


def pde_charset(seed):
    rng = random.Random(PDE_SEED)
    problems = []
    for i in range(PDE_COUNT):
        m, v, n, gens = pde_presentation(rng)
        data = {"gens": gens}
        problems.append(Problem(f"pde{i:02d}.dimpoly", "dimpoly",
                                module_text(gens, m, v, n), "dimpoly",
                                m=m, v=v, n=n, data=data))
        if i % 4 == 3:
            element = pde_element(rng, m, v, n, gens)
            problems.append(Problem(
                f"pde{i:02d}.reduce", "reduce",
                module_text(gens, m, v, n, element), "reduce",
                m=m, v=v, n=n, data={"gens": gens, "element": element}))
    return problems


# ---------------------------------------------------------------------------
# staircase: leader antichains over Q (m = 2, 3)

# Leader counts of the count problems, each at m = 2 and m = 3.
# Inclusion-exclusion costs 2^|E| joins whatever the leaders are; 14
# leaders at m = 2 take ~0.8 s.  The run of 8s keeps the median call
# inside a cluster of equal-cost calls rather than in a gap between two.
COUNT_SIZES = (2, 3, 4, 5, 7, 8, 8, 8, 8, 8, 11, 12, 13, 14, 14)
STANDARD_LEADERS = 6
STANDARD_BOUND = {2: 24, 3: 12}


def rand_antichain(rng, m, size):
    """`size` distinct vectors of one total weight: always an antichain."""
    weight = size + 2 if m == 2 else 4 + size // 3
    pool = set()
    while len(pool) < size:
        cut = sorted(rng.randint(0, weight) for _ in range(m - 1))
        parts = [b - a for a, b in zip([0] + cut, cut + [weight])]
        pool.add(tuple(parts))
    return sorted(pool)


def leaders_text(leaders):
    return "; ".join("[" + ", ".join("(" + ",".join(map(str, e)) + ")"
                                     for e in comp) + "]"
                     for comp in leaders)


def staircase(seed):
    """count problems, with a `charset --order-bound` one after every fifth."""
    rng = random.Random(STAIRCASE_SEED)
    problems = []
    for i in range(2 * len(COUNT_SIZES)):
        m = 2 + i % 2
        leaders = [rand_antichain(rng, m, COUNT_SIZES[i // 2])]
        problems.append(Problem(
            f"stair{i:02d}.count", "count",
            f"field: Q derivations: {m}\nleaders: {leaders_text(leaders)}\n",
            "count", m=m, v=0, n=1, data={"leaders": leaders}))
        if i % 5 == 4:
            n = 1 + (i // 5) % 2
            leaders = [rand_antichain(rng, m, STANDARD_LEADERS)
                       for _ in range(n)]
            bound = STANDARD_BOUND[m]
            gens = [{(c, e): ({(): 1}, {(): 1})}
                    for c, comp in enumerate(leaders) for e in comp]
            problems.append(Problem(
                f"stair{i:02d}.standard", "charset",
                module_text(gens, m, 0, n), "standard", m=m, v=0, n=n,
                data={"leaders": leaders, "bound": bound},
                extra_args=("--order-bound", str(bound))))
    return problems


WORKLOADS = {"ode-torsion": ode_torsion, "pde-charset": pde_charset,
             "staircase": staircase}
