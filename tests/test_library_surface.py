"""The library holds what its commands run: every public function of
`src/diffalg`, every name `diffalg` exports and every public member of an
exported class is used by the library's own code, or kept for a reason
written here.

Run as a script, this file prints the code lines of each module of
`src/diffalg` (or of the directory given) and their total, counted without
comments, docstrings or blank lines, then the standard-library modules that
`import diffalg.cli` adds to a fresh interpreter, the package taken from the
directory's parent:

    python tests/test_library_surface.py [directory]
"""

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "diffalg"

# Names that no library code uses, each with the reason it stays: a
# module's function as `module.name`, a class's member as `Class.name`.
KEEP = {
    "field.mpoly_gcd": "bench/tracing.py traces it (ROADMAP item 1)",
    "diffmodule.autoreduce": "bench/tracing.py traces it (ROADMAP item 1)",
    "Diagonalization.U": "bench/tracing.py reads it for "
                         "normalform.transform_max_bits (ROADMAP item 1)",
    "Diagonalization.V": "bench/tracing.py reads it for "
                         "normalform.transform_max_bits (ROADMAP item 1)",
}

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(text):
    """The number of lines of `text` that hold a token of code: comments,
    docstrings and blank lines do not count."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def exports():
    """{name: module} of the names `diffalg/__init__.py` imports."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {alias.asname or alias.name: node.module
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def uses(path):
    """(site, target) for each name the code of the module at `path`
    reads.  The site is the definition that holds the reference, as
    `(module, name)` or `(module, "Class.name")`, or None for the module's
    own top-level code.  The target is `(module, name)` for a name imported
    from a sibling module or defined at this one's top level, or an
    attribute of a sibling module imported whole; `(module, "Class.name")`
    for an attribute of such a name; and `(None, name)` for any other
    attribute."""
    tree = ast.parse(path.read_text())
    home, bound, modules = path.stem, {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                as_name = alias.asname or alias.name
                if node.module:
                    bound[as_name] = (node.module, alias.name)
                else:
                    modules[as_name] = alias.name
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound[node.name] = (home, node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound[target.id] = (home, target.id)
    used = set()

    def visit(node, site, owner, local):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and site is None:
            site = (home, f"{owner}.{node.name}" if owner else node.name)
            if isinstance(node, ast.ClassDef) and owner is None:
                owner, site = node.name, None
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            # a parameter or a local variable hides a module-level name
            args = node.args
            local = local | {a.arg for a in (*args.posonlyargs, *args.args,
                                             *args.kwonlyargs, args.vararg,
                                             args.kwarg) if a} | {
                n.id for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        if isinstance(node, ast.Name) and node.id in bound \
                and node.id not in local:
            used.add((site, bound[node.id]))
        elif isinstance(node, ast.Attribute):
            value = node.value
            if isinstance(value, ast.Name) and value.id in modules:
                used.add((site, (modules[value.id], node.attr)))
            elif isinstance(value, ast.Name) and value.id in bound \
                    and value.id not in local:
                module, name = bound[value.id]
                used.add((site, (module, f"{name}.{node.attr}")))
            used.add((site, (None, node.attr)))
        for child in ast.iter_child_nodes(node):
            visit(child, site, owner, local)

    visit(tree, None, None, frozenset())
    return used


def surface():
    """{definition: what must use it} of the public definitions the check
    covers: each public module-level function, and each public method,
    property or class attribute of an exported class, keyed as `uses`
    names sites; a classmethod must be read as `Class.name`, any other
    member by its name."""
    defined = {}
    exported = exports()
    for path in SRC.glob("*.py"):
        home = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) \
                    and not node.name.startswith("_"):
                defined[(home, node.name)] = {(home, node.name)}
            if not (isinstance(node, ast.ClassDef)
                    and exported.get(node.name) == home):
                continue
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    names = [member.name]
                    by_class = any(isinstance(d, ast.Name)
                                   and d.id == "classmethod"
                                   for d in member.decorator_list)
                else:
                    names = [t.id for t in getattr(member, "targets", ())
                             if isinstance(t, ast.Name)]
                    by_class = False
                for name in names:
                    if not name.startswith("_"):
                        qualified = f"{node.name}.{name}"
                        defined[(home, qualified)] = \
                            {(home, qualified)} if by_class \
                            else {(home, qualified), (None, name)}
    for name, module in exported.items():
        defined.setdefault((module, name), {(module, name)})
    return defined


def unused():
    """The covered definitions that no used library code reads, by their
    `module.name` or `Class.name`: a reference counts only from a module's
    top-level code, a kept definition or a definition that is itself used,
    and never from the definition it names."""
    references = set().union(*(uses(path) for path in SRC.glob("*.py")
                               if path.name != "__init__.py"))

    def label(key):
        module, name = key
        return name if "." in name else f"{module}.{name}"

    defined, dead = surface(), set()
    while True:
        readers = {}
        for site, target in references:
            if site not in dead:
                readers.setdefault(target, set()).add(site)
        unread = {key for key, targets in defined.items()
                  if not any(readers.get(t, set()) - {key} for t in targets)}
        found = {key for key in unread if label(key) not in KEEP}
        if found == dead:
            return set(map(label, unread))
        dead = found


def test_every_public_definition_is_used_by_the_library_or_kept():
    assert unused() == set(KEEP)


def test_kept_names_are_traced_by_the_bench():
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)} | {
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    for name in KEEP:
        assert name.rpartition(".")[2] in read, name


def test_code_lines_skip_comments_docstrings_and_blanks():
    text = ('"""Module\n\ndocstring."""\n\n# a comment\n'
            'def f(x):  # trailing\n    """Doc."""\n'
            '    return (x +\n            1)\n')
    assert code_lines(text) == 3


def cli_imports(src):
    """The standard-library modules that `import diffalg.cli` adds to a
    fresh interpreter that imports the package from the directory `src`."""
    probe = (f"import sys; sys.path.insert(0, {str(src)!r}); "
             "before = set(sys.modules); import diffalg.cli; "
             "print(*sorted(m for m in set(sys.modules) - before "
             "if m.partition('.')[0] in sys.stdlib_module_names))")
    return subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True).stdout.split()


def main(argv):
    directory = Path(argv[0]).resolve() if argv else SRC
    total = 0
    for path in sorted(directory.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:16} {count:6,}")
    print(f"{'total':16} {total:6,}")
    print("import diffalg.cli adds:", *cli_imports(directory.parent))


if __name__ == "__main__":
    main(sys.argv[1:])
