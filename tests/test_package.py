"""The package's public surface and the README's Python example."""

import importlib
import json
import os
import pathlib
import re
import subprocess
import sys

import diffgraph

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
EAGER_MODULES = ("graphs", "identify", "figures")


def _fresh(code):
    """Run ``code`` in a fresh interpreter that imports diffgraph from src/
    and return what it prints as JSON."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def test_all_lists_exactly_the_public_names():
    """No stale export survives a deletion, and no public name is missing:
    ``__all__`` is the names ``import diffgraph`` binds, the lazy table and
    ``__version__``, and each resolves to its defining module's object."""
    eager = set(_fresh(
        "import json, types, diffgraph\n"
        "print(json.dumps([name for name, value in vars(diffgraph).items()\n"
        "                  if not name.startswith('_')\n"
        "                  and not isinstance(value, types.ModuleType)]))"))
    lazy = set(diffgraph._LAZY)
    assert len(set(diffgraph.__all__)) == len(diffgraph.__all__)
    assert eager.isdisjoint(lazy)
    assert set(diffgraph.__all__) == eager | lazy | {"__version__"}
    for name in diffgraph.__all__:
        if name == "__version__":
            continue
        if name in lazy:
            homes = [f"diffgraph.{diffgraph._LAZY[name]}"]
        else:
            homes = [f"diffgraph.{m}" for m in EAGER_MODULES
                     if name in vars(importlib.import_module(
                         f"diffgraph.{m}"))]
            assert homes, name
        for home in homes:
            assert getattr(diffgraph, name) is getattr(
                importlib.import_module(home), name), (name, home)


def test_closed_form_imports_no_numpy():
    """``import diffgraph``, a closed-form verdict and the gallery table
    load no numpy; the first read of a lazy name does, gives the defining
    module's object and binds it in the package."""
    got = _fresh("""
import json, sys
import diffgraph
undirected = sorted(set(diffgraph.__all__) - set(dir(diffgraph)))
q = diffgraph.EffectQuery(diffgraph.gallery_entry("1h").graph, "X", "Y",
                          shared_order_assumed=True)
verdict = diffgraph.identify_total(q)
table = diffgraph.figure_table()
before = "numpy" in sys.modules
dataset = diffgraph.Dataset
after_dataset = "numpy" in sys.modules
cached = vars(diffgraph).get("Dataset") is dataset
oracle_before = "diffgraph.oracle" in sys.modules
oracle = diffgraph.oracle
import diffgraph.oracle as oracle_module
try:
    diffgraph.no_such_name
    missing = None
except AttributeError as exc:
    missing = str(exc)
star = {}
exec("from diffgraph import *", star)
print(json.dumps({
    "kind": verdict.kind,
    "numpy_before": before,
    "numpy_after_dataset": after_dataset,
    "dataset": dataset is diffgraph.estimate.Dataset,
    "cached": cached,
    "oracle_before": oracle_before,
    "oracle": oracle is oracle_module is sys.modules["diffgraph.oracle"],
    "missing": missing,
    "star": [n for n in diffgraph.__all__
             if n not in star or star[n] is not getattr(diffgraph, n)],
    "dir": undirected,
}))
""")
    assert got == {
        "kind": diffgraph.ADJUSTMENT_IDENTIFIABLE,
        "numpy_before": False,
        "numpy_after_dataset": True,
        "dataset": True,
        "cached": True,
        "oracle_before": False,
        "oracle": True,
        "missing": "module 'diffgraph' has no attribute 'no_such_name'",
        "star": [],
        "dir": [],
    }


def test_readme_python_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
