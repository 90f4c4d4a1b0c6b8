"""Command-line front end.

    diffalg <command> <file> [--format text|json] [--ranking ...]
                             [--order-bound k]

Commands: charset, dimpoly, decompose, tangent, reduce, count.
Exit codes: 0 ok, 1 any other diffalg error (e.g. count with leaders that
are not an antichain, or an --order-bound that would list more than
MAX_LISTED_TERMS derivative terms), 2 parse error, 3 point not on variety,
4 unsupported operation (e.g. decompose with m >= 2).

The argument parser is built on the first call of `main` and reused by
later calls in the same process.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from math import comb

from .errors import (DiffAlgError, DivisionByZero, OrderlyRequired,
                     ParseError, PointNotOnVariety, UnsupportedForPartial)
from .diffmodule import characteristic_set, reduce as nf_reduce
from .dimension import dimension_report, leader_antichain
from .normalform import OreMatrix, TangentClass, diagonalize
from .numpoly import _weight_bounded, count_cofilter
from .parsing import (orepoly_str, parse_input, vector_str, modelement_str)
from .variety import tangent_pipeline

# Most derivative terms --order-bound may walk through: n*C(K+m, m) terms
# have order <= K, and listing 585,276 of them (K = 150, m = 3) takes
# 1.4 s.
MAX_LISTED_TERMS = 250_000


@functools.cache
def _build_argparser():
    """The argument parser, built on the first call and then reused."""
    parser = argparse.ArgumentParser(
        prog="diffalg",
        description="Exact linear differential algebra: characteristic sets, "
                    "dimension polynomials, tangent-space classification.")
    parser.add_argument("command",
                        choices=["charset", "dimpoly", "decompose", "tangent",
                                 "reduce", "count"])
    parser.add_argument("file", help="problem file ('-' for stdin)")
    parser.add_argument("--format", choices=["text", "json"], default="text")
    parser.add_argument("--ranking", choices=["orderly", "elim"],
                        default=None,
                        help="override the ranking declared in the file")
    parser.add_argument("--order-bound", type=int, default=None, metavar="K",
                        help="also dump the standard-term basis of M_k "
                             "for k up to K")
    return parser


def main(argv=None):
    args = _build_argparser().parse_args(argv)
    try:
        if args.file == "-":
            text = sys.stdin.read()
        else:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        problem = parse_input(text)
        if args.ranking:
            problem.ranking_kind = ("orderly" if args.ranking == "orderly"
                                    else "elimination")
        payload = _dispatch(args.command, problem, args)
    except (ParseError, DivisionByZero) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PointNotOnVariety as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (UnsupportedForPartial, OrderlyRequired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except DiffAlgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps(payload["json"], sort_keys=True))
    else:
        print(payload["text"])
    return 0


def _component_names(problem):
    if problem.var_names:
        return problem.var_names
    return [f"e{i + 1}" for i in range(problem.n)]


def _charset_of(problem):
    config = problem.config
    rk = problem.ranking()
    if problem.gens is not None:
        return characteristic_set(problem.gens, rk, config=config,
                                  n=problem.module_rank)
    if problem.eqs is not None:
        if problem.point is None:
            raise ParseError("'eqs:' needs a 'point:' line for linearization")
        charset, _, _ = tangent_pipeline(problem.eqs, problem.point, rk)
        return charset
    raise ParseError("need either a 'module:'+'gens:' or 'eqs:'+'point:' "
                     "section")


def _standard_terms(anti, bound):
    """Derivative terms of order <= bound outside the leader staircase."""
    total = len(anti.components) * comb(max(bound + anti.m, 0), anti.m)
    if total > MAX_LISTED_TERMS:
        raise DiffAlgError(f"--order-bound {bound} would list {total} "
                           f"derivative terms; the limit is "
                           f"{MAX_LISTED_TERMS}")
    out = []
    for comp, E in enumerate(anti.components):
        for exps in _weight_bounded(anti.m, bound):
            if any(all(a >= b for a, b in zip(exps, e)) for e in E):
                continue
            out.append((comp, exps))
    return out


def _term_label(term, names, m):
    comp, exps = term
    order = sum(exps)
    if m == 1:
        return names[comp] + "'" * order
    return names[comp] + ("_(" + ",".join(map(str, exps)) + ")" if order
                          else "")


def _dispatch(command, problem, args):
    config = problem.config
    if command == "count":
        if problem.leaders is None:
            raise ParseError("'count' needs a 'leaders:' line")
        phi = count_cofilter(problem.leaders)
        return {"json": phi.to_json(),
                "text": f"{phi} (valid for t >= {phi.valid_from})"}

    if command == "decompose":
        if problem.gens is None:
            raise ParseError("'decompose' needs a 'module:'+'gens:' section")
        n = problem.module_rank
        relations = OreMatrix(config, [w.operator_vector()
                                       for w in problem.gens if w], cols=n)
        diagonal = diagonalize(relations).D.diagonal()
        tc = TangentClass.from_diagonal(n, diagonal)
        diag = [orepoly_str(e, config) for e in diagonal]
        return {"json": {**tc.to_json(), "diagonal": diag},
                "text": f"d = {tc.d}, k = {tc.k}, torsion degrees "
                        f"{list(tc.torsion_degrees)}\n"
                        f"diagonal: {diag}"}

    if command == "reduce":
        if problem.gens is None or problem.element is None:
            raise ParseError("'reduce' needs 'module:', 'gens:' and "
                             "'element:' sections")
        charset = _charset_of(problem)
        nf = nf_reduce(problem.element, list(charset.elements),
                       charset.ranking)
        text = vector_str(nf, config)
        return {"json": {"normal_form": text,
                         "member": nf.is_zero()},
                "text": f"normal form: {text}\n"
                        f"member: {'yes' if nf.is_zero() else 'no'}"}

    if command == "tangent":
        if problem.eqs is None or problem.point is None:
            raise ParseError("'tangent' needs 'eqs:' and 'point:' sections")
        charset, report, tc = tangent_pipeline(problem.eqs, problem.point,
                                               problem.ranking())
        names = _component_names(problem)
        out_json = {
            "charset": [modelement_str(w, config, names)
                        for w in charset.elements],
            **report.to_json(),
        }
        lines = ["charset:"]
        lines += [f"  {modelement_str(w, config, names)} = 0"
                  for w in charset.elements]
        lines.append(f"dimension polynomial: {report.dimpoly} "
                     f"(valid for t >= {report.dimpoly.valid_from})")
        lines.append(f"differential dimension d = {report.diff_dimension}")
        if tc is not None:
            out_json["tangent"] = tc.to_json()
            lines.append(f"tangent space: K^{tc.d} x C^{tc.k} "
                         f"(torsion degrees {list(tc.torsion_degrees)})")
        # the report counts the orderly charset; with an elimination
        # ranking the standard terms come from the printed one
        _append_basis_dump(out_json, lines, charset, problem, args,
                           report.antichain
                           if charset.ranking.kind == "orderly" else None)
        return {"json": out_json, "text": "\n".join(lines)}

    # charset / dimpoly share the setup
    charset = _charset_of(problem)
    names = _component_names(problem)
    if command == "charset":
        printed = [vector_str(w, config) if problem.gens is not None
                   else modelement_str(w, config, names)
                   for w in charset.elements]
        out_json = {"charset": printed}
        lines = [f"characteristic set ({len(printed)} elements):"]
        lines += [f"  {p}" for p in printed]
        _append_basis_dump(out_json, lines, charset, problem, args)
        return {"json": out_json, "text": "\n".join(lines)}

    if command == "dimpoly":
        report = dimension_report(charset, problem.n)
        out_json = report.to_json()
        lines = [f"dimension polynomial: {report.dimpoly} "
                 f"(valid for t >= {report.dimpoly.valid_from})",
                 f"differential dimension d = {report.diff_dimension}",
                 f"type = {report.type}, typical height = "
                 f"{report.typical_height}"]
        if report.below_leader_count is not None:
            lines.append(f"below-leader count B = "
                         f"{report.below_leader_count} "
                         f"(free term r = {report.free_term})")
        lines.append("free components: "
                     + (", ".join(names[i] for i in report.free_components)
                        or "none"))
        _append_basis_dump(out_json, lines, charset, problem, args,
                           report.antichain)
        return {"json": out_json, "text": "\n".join(lines)}

    raise AssertionError(f"unhandled command {command}")


def _append_basis_dump(out_json, lines, charset, problem, args, anti=None):
    """Add the standard terms up to --order-bound, read off `anti` or, if
    that is None, off the leaders of `charset`."""
    if args.order_bound is None:
        return
    if anti is None:
        anti = leader_antichain(charset, problem.n)
    names = _component_names(problem)
    terms = _standard_terms(anti, args.order_bound)
    labels = [_term_label(t, names, anti.m) for t in terms]
    out_json["standard_terms"] = labels
    lines.append(f"standard terms up to order {args.order_bound} "
                 f"({len(labels)}): " + ", ".join(labels))


if __name__ == "__main__":
    sys.exit(main())
