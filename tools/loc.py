"""Library size: each file's non-blank, non-comment lines, split into code
and docstrings (module, class and function docstrings).

Usage: python3 tools/loc.py FILE...

Prints one "<lines> lines <code> code <docs> docstring <path>" line per
file, then "<lines> lines <code> code <docs> docstring total".
"""

import ast, re, sys
counted = re.compile(r"\s*[^#\s]")  # not blank, not a comment
kinds = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
totals = [0, 0]
for path in sys.argv[1:]:
    text = open(path, encoding="utf-8").read()
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, kinds) and ast.get_docstring(node, clean=False) is not None:
            docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = [n for n, line in enumerate(text.splitlines(), 1) if counted.match(line)]
    doc = sum(n in docs for n in lines)
    totals[0] += len(lines) - doc
    totals[1] += doc
    print(f"{len(lines):5d} lines {len(lines) - doc:5d} code {doc:5d} docstring {path}")
print(f"{sum(totals):5d} lines {totals[0]:5d} code {totals[1]:5d} docstring total")
