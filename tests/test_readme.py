"""The README's library examples print what the library returns.

Every ``python`` block of the README made of top-level statements only is
run line by line.  A line ``expr  # value`` must give ``repr(expr) ==
value``; a line ``name = expr  # checks`` runs, and then each
comma-separated check in its comment must hold.
"""

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _flat_python_blocks():
    for block in README.read_text().split("```python\n")[1:]:
        lines = block.split("```", 1)[0].splitlines()
        if not any(line.startswith((" ", "\t")) for line in lines):
            yield lines


def test_readme_examples_print_what_the_library_returns():
    checked = []
    for lines in _flat_python_blocks():
        scope = {}
        for line in lines:
            code, _, comment = line.partition("#")
            code, comment = code.strip(), comment.strip()
            if not comment:
                exec(code, scope)
                continue
            try:
                expr = compile(code, "README.md", "eval")
            except SyntaxError:  # a statement: its comment holds checks on it
                exec(code, scope)
                for check in comment.split(","):
                    assert eval(check, scope), (line, check)
            else:
                assert repr(eval(expr, scope)) == comment, line
            checked.append(code)
    assert checked == ["one_obs_ci(5, 0.1, 0)", "e = numeraire_evalue(q)", "max_epower(q)"]
