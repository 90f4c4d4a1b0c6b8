"""Command-line front end.

    diffalg <command> <file> [--format text|json] [--ranking ...]
                             [--order-bound k]

Commands: charset, dimpoly, decompose, tangent, reduce, count.
Exit codes: 0 ok; a diffalg error exits with its class's `exit_code`, from
the table in `diffalg.errors` (1 by default, 2 parse error, 3 point not on
the variety, 4 unsupported operation).  Besides those, a usage error (a
negative --order-bound, or --order-bound with a command other than
charset, dimpoly or tangent) and a file that cannot be read exit 2, and a
result with an integer of more digits than the interpreter will print,
`sys.get_int_max_str_digits()`, exits 1.

A plain argv, the command and the file followed by distinct options
spelled out in full, is read directly (`_read_argv`); any other argv goes
to the argument parser, which alone prints help and the errors in an
argv's form.  It is built on its first use and reused by later calls in
the same process.
`json` is imported only by a call with `--format json`.
"""

from __future__ import annotations

import argparse
import functools
import sys
from math import comb

from .errors import DiffAlgError, ParseError
from .diffmodule import characteristic_set, reduce as nf_reduce
from .dimension import dimension_report, leader_antichain
from .normalform import OreMatrix, TangentClass, diagonalize
from .numpoly import count_cofilter, standard_terms
from .parsing import (modelement_str, orepoly_str, parse_input, term_label,
                      vector_str)
from .variety import tangent_pipeline

# Most derivative terms --order-bound may ask for: n*C(K+m, m) terms have
# order <= K.  The listing walks only the terms outside the staircase, so
# the cap bounds its output too: with no leader, listing all 246,905 terms
# of K = 112, m = 3 takes 0.26 s (2-core shared machine), and the whole
# charset call with labels and printing 0.75 s.
MAX_LISTED_TERMS = 250_000

COMMANDS = ("charset", "dimpoly", "decompose", "tangent", "reduce", "count")
LISTING_COMMANDS = ("charset", "dimpoly", "tangent")
FORMATS = ("text", "json")
RANKINGS = ("orderly", "elim")


@functools.cache
def _build_argparser():
    """The argument parser, built on the first call and then reused."""
    parser = argparse.ArgumentParser(
        prog="diffalg",
        description="Exact linear differential algebra: characteristic sets, "
                    "dimension polynomials, tangent-space classification.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("file", help="problem file ('-' for stdin)")
    parser.add_argument("--format", choices=FORMATS, default="text")
    parser.add_argument("--ranking", choices=RANKINGS, default=None,
                        help="override the ranking declared in the file")
    parser.add_argument("--order-bound", type=int, default=None, metavar="K",
                        help="with charset, dimpoly or tangent, also dump "
                             "the standard-term basis of M_k for k up to K")
    return parser


def _read_argv(argv):
    """The Namespace the argument parser makes of `argv`, read directly when
    argv is `<command> <file>` followed by distinct options among
    `--format text|json`, `--ranking orderly|elim` and `--order-bound K`,
    K ASCII digits the interpreter converts; None for any other argv.  The
    file is `-` or a name that does not start with `-`."""
    if len(argv) < 2 or len(argv) % 2 or argv[0] not in COMMANDS:
        return None
    file = argv[1]
    if type(file) is not str or file.startswith("-") and file != "-":
        return None
    values = {"command": argv[0], "file": file, "format": "text",
              "ranking": None, "order_bound": None}
    options = argv[2::2]
    for option, value in zip(options, argv[3::2]):
        if option == "--format" and value in FORMATS:
            values["format"] = value
        elif option == "--ranking" and value in RANKINGS:
            values["ranking"] = value
        elif option == "--order-bound" and type(value) is str \
                and value.isascii() and value.isdigit() \
                and not 0 < sys.get_int_max_str_digits() < len(value):
            values["order_bound"] = int(value)
        else:
            return None
    if len(set(options)) < len(options):
        return None
    return argparse.Namespace(**values)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv) or _build_argparser().parse_args(argv)
    if args.order_bound is not None:
        if args.order_bound < 0:
            _build_argparser().error(f"argument --order-bound: K must be "
                                     f">= 0, got {args.order_bound}")
        if args.command not in LISTING_COMMANDS:
            print(f"error: --order-bound is taken only by "
                  f"{', '.join(LISTING_COMMANDS)}", file=sys.stderr)
            return 2
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
        if args.format == "json":
            import json     # here, so that text calls never load it
            out = json.dumps(payload["json"], sort_keys=True)
        else:
            out = payload["text"]
    except DiffAlgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:      # only int -> str past the digit limit
        if "integer string conversion" not in str(exc):
            raise
        print(f"error: the result has an integer of more than "
              f"{sys.get_int_max_str_digits()} digits", file=sys.stderr)
        return 1
    print(out)
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


def _standard_terms(anti, bound, names):
    """Labels of the derivative terms of order <= bound outside the leader
    staircase; refused when the box of all such terms is over the cap."""
    total = len(anti.components) * comb(bound + anti.m, anti.m)
    if total > MAX_LISTED_TERMS:
        raise DiffAlgError(f"--order-bound {bound} would list {total} "
                           f"derivative terms; the limit is "
                           f"{MAX_LISTED_TERMS}")
    return [term_label(names[comp], exps)
            for comp, exps in standard_terms(anti, bound)]


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
        printed = [modelement_str(w, config, names)
                   for w in charset.elements]
        out_json = {"charset": printed, **report.to_json()}
        lines = ["charset:"]
        lines += [f"  {p} = 0" for p in printed]
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
    labels = _standard_terms(anti, args.order_bound,
                             _component_names(problem))
    out_json["standard_terms"] = labels
    lines.append(f"standard terms up to order {args.order_bound} "
                 f"({len(labels)}): " + ", ".join(labels))


if __name__ == "__main__":
    sys.exit(main())
