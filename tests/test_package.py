"""The package's public surface and the README's Python example."""

import pathlib
import re
import types

import diffgraph

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_all_lists_exactly_the_public_names():
    """No stale export survives a deletion, and no public name is missing."""
    bound = {name for name, value in vars(diffgraph).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert len(set(diffgraph.__all__)) == len(diffgraph.__all__)
    assert set(diffgraph.__all__) == bound | {"__version__"}


def test_readme_python_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
