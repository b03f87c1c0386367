"""Count the lines of the package sources as code, comment and docstring, and blank.

    python tools/loc.py [DIR]

DIR defaults to this checkout's `src`. Every line of every .py file under it
falls in one class. A line that holds only whitespace is blank, inside a
docstring too. A line of a docstring (the string that opens a module, class
or function, found with `ast`) is docstring, and so is a line whose only
token is a comment (found with `tokenize`). Every other line is code, a line
that ends in a comment included.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def docstring_lines(tree) -> set:
    """The line numbers of every docstring in the module `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple:
    """(code, comment and docstring, blank) lines of one source file."""
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    code_lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                              tokenize.DEDENT, tokenize.ENDMARKER):
            code_lines.update(range(token.start[0], token.end[0] + 1))
    code = comment = blank = 0
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            blank += 1
        elif number in docs:
            comment += 1
        elif number in code_lines:
            code += 1
        else:
            comment += 1
    return code, comment, blank


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]) if args else SRC
    totals = [sum(column) for column in zip(*(count(p) for p in sorted(root.rglob("*.py"))))]
    code, comment, blank = totals or (0, 0, 0)
    print(f"{root}: {code + comment + blank} lines: {code} code, {comment} comment and"
          f" docstring, {blank} blank")
    return 0


if __name__ == "__main__":
    sys.exit(main())
