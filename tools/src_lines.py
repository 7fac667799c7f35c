"""Line counts of the ``thirdsound`` sources, one row per module and a total:
``wc -l``, and code lines, those that are neither blank, comments nor
docstrings (found by tokenize and ast).

    python tools/src_lines.py
"""

import ast
import io
import pathlib
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "thirdsound"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def counts(text: str) -> tuple[int, int]:
    """(wc -l, code lines) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            code.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return text.count("\n"), len(code)


if __name__ == "__main__":
    rows = [(path.name, *counts(path.read_text())) for path in sorted(SRC.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'file':<16}{'wc -l':>8}{'code':>8}")
    for name, lines, code in rows:
        print(f"{name:<16}{lines:>8}{code:>8}")
