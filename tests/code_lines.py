"""Count the code lines of Python modules: the lines of ``ast.unparse`` of
each module with its docstrings removed, so that reformatting, comments and
docstrings do not move the count. Prints one line per module, then the total.

    python3 tests/code_lines.py src/boxparse/*.py

A script, not a test module: pytest does not collect it.
"""

import ast
import sys


def code_lines(path: str) -> int:
    with open(path) as f:
        tree = ast.parse(f.read())
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            node.body = node.body[1:] or [ast.Pass()]
    return len(ast.unparse(tree).splitlines())


def main(paths: list[str]) -> None:
    total = 0
    for path in paths:
        n = code_lines(path)
        total += n
        print("%5d %s" % (n, path))
    print("%5d total code lines" % total)


if __name__ == "__main__":
    main(sys.argv[1:])
