"""Print the code lines of each module of src/tabinv, and their total.

A code line is a line that holds a token of code: blank lines, lines with
only a comment, and the lines of a module's, class's or function's
docstring are not code lines.  This is the size that ROADMAP.md's gates
count.  Standard library only.

    python tests/code_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines of the Python source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docstring = node.body[0]
            lines.difference_update(range(docstring.lineno, docstring.end_lineno + 1))
    return len(lines)


def main() -> None:
    package = Path(__file__).resolve().parent.parent / "src" / "tabinv"
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6} {path.name}")
    print(f"{total:6} total")


if __name__ == "__main__":
    main()
