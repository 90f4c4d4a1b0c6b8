"""The library holds what its commands run: every name `diffalg` exports is
used by the library's own code, or kept for a reason written here.

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

# Exported names that no library code uses, each with the reason it stays.
KEEP = {
    "mpoly_gcd": "bench/tracing.py traces it (ROADMAP item 1)",
    "autoreduce": "bench/tracing.py traces it (ROADMAP item 1)",
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
    """The (module, name) pairs that the code of the module at `path` reads,
    each outside the definition that binds it: names imported from a
    sibling module or defined at its top level, and attributes of a
    sibling module imported whole."""
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

    def visit(node, inside, local):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            inside = inside | {node.name}
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
            module, name = bound[node.id]
            if module != home or name not in inside:
                used.add((module, name))
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            used.add((modules[node.value.id], node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, inside, local)

    visit(tree, frozenset(), frozenset())
    return used


def test_every_export_is_used_by_the_library_or_kept():
    used = set().union(*(uses(path) for path in SRC.glob("*.py")
                         if path.name != "__init__.py"))
    unused = {name for name, module in exports().items()
              if (module, name) not in used}
    assert unused == set(KEEP)


def test_kept_names_are_traced_by_the_bench():
    tracing = (ROOT / "bench" / "tracing.py").read_text()
    for name in KEEP:
        assert f'"{name}"' in tracing, name


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
