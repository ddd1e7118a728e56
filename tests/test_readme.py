"""README.md's Python blocks run, and every ``print`` in them prints the
value its comment states."""

import ast
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
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


def test_readme_python_blocks_print_what_their_comments_state():
    blocks = BLOCKS.findall(README.read_text())
    assert len(blocks) == 2  # the quickstart and the lockstep example
    checked = 0
    for block in blocks:
        stated = [
            stated_value(match.group(1))
            for match in map(PRINT.match, block.splitlines())
            if match
        ]
        printed = []
        exec(block, {"print": lambda *args: printed.append(args)})
        assert [args[0] for args in printed] == stated, block
        checked += len(stated)
    assert checked == 3
