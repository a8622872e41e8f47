"""The README's library example runs and prints what its comments say."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example():
    text = README.read_text()
    section = text[text.index("\n## Library\n") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs():
    source = library_example()
    namespace = {}
    values = {}
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        if isinstance(stmt, ast.Expr):
            values[code] = eval(code, namespace)
        else:
            exec(code, namespace)
    assert values["table.mults"] == {(0, 1, 0, 0): 1, (0, 0, 0, 0): 1}
    (sam,) = [v for code, v in values.items() if code.startswith("sam_mult(")]
    assert sam == 1
    (straightened,) = [v for code, v in values.items() if code.startswith("multiplicity_table(")]
    assert straightened == values["table.mults"]
