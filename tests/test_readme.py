"""README.md's Python blocks and the package docstring's quickstart run,
and every ``print`` in them prints the value its comment states."""

import ast
import pathlib
import re
import textwrap

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
PACKAGE = ROOT / "src" / "repro" / "__init__.py"
BLOCKS = re.compile(r"^```python\n(.*?)^```", re.S | re.M)
PRINT = re.compile(r"^print\(.*\)\s*#\s*(.*)$")


def stated_value(comment: str):
    """The Python literal the comment starts with (its longest prefix that
    parses as one); fails when the comment states no value."""
    for end in range(len(comment), 0, -1):
        try:
            return ast.literal_eval(comment[:end])
        except (ValueError, SyntaxError):
            continue
    raise AssertionError(f"comment states no value: {comment!r}")


def check_block(block: str) -> int:
    """Run ``block``; every commented ``print`` must print the stated
    value.  Returns how many prints were checked."""
    stated = [
        stated_value(match.group(1))
        for match in map(PRINT.match, block.splitlines())
        if match
    ]
    printed = []
    exec(block, {"print": lambda *args: printed.append(args)})
    assert [args[0] for args in printed] == stated, block
    return len(stated)


def test_readme_python_blocks_print_what_their_comments_state():
    blocks = BLOCKS.findall(README.read_text())
    assert len(blocks) == 2  # the quickstart and the lockstep example
    assert sum(check_block(block) for block in blocks) == 3


def test_package_quickstart_prints_what_its_comment_states():
    doc = ast.get_docstring(ast.parse(PACKAGE.read_text()))
    block = textwrap.dedent(doc.split("Quickstart::\n", 1)[1])
    assert check_block(block) == 1
