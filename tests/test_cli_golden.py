"""Recorded CLI invocations, replayed in-process: the exit code, stdout and
stderr of every argv in ``golden/cli_cases.json`` must match byte for byte.

``write_inputs`` writes the graphs and the seeded CSV files that the argvs
name, relative to the working directory.  Estimates are recorded as text
only: text prints 6 decimals, where the 17-digit floats of ``--json`` may
differ between BLAS builds.

``golden/simulate_sha256.json`` holds the SHA-256 digest of every file
that ``SIMULATE_ARGV`` writes.  ``--n`` spans more than one block of the
CSV writer.  Sampling draws no BLAS call, so the digests hold on any build.

``golden/cli_surface.json`` holds the parser's surface (``surface``): the
subcommands with their help lines, and every argument's fields, in order.
It records fields, not rendered help, as argparse wraps lines differently
across Python versions.

To record the cases, the digests and the surface anew, run ``PYTHONPATH=src
python tests/test_cli_golden.py`` from the repository root.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import sys
import tempfile

import pytest

from diffgraph.cli import build_parser, main
from helpers import DG_1H, DG_1M, DG_2F

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli_cases.json"
SIMULATE_GOLDEN = GOLDEN.with_name("simulate_sha256.json")
SURFACE_GOLDEN = GOLDEN.with_name("cli_surface.json")
SIMULATE_ARGV = ["simulate", "--graph", "1m.txt", "--shared-order",
                 "--n", "5000", "--seed", "3", "--out", "sim"]


def _discrete_rows(seed, n=400):
    """Ternary W1 -> X -> (W2, Y), W1 -> Y, as in gallery 1h."""
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        w1 = rng.randrange(3)
        x = (w1 + (rng.random() < 0.4)) % 2
        w2 = (x + rng.randrange(2)) % 3
        y = (x + w1 + (rng.random() < 0.3 + 0.1 * seed)) % 3
        rows.append(f"{w1},{x},{w2},{y}")
    return rows


def _continuous_rows(seed, n=300):
    """Linear W1 -> X -> Y <- W2, as in gallery 1m, with uniform noise."""
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        w1, w2 = rng.random() - 0.5, rng.random() - 0.5
        x = 0.8 * w1 + rng.random() - 0.5
        y = (1.0 + seed) * x + 0.5 * w1 + 0.7 * w2 + rng.random() - 0.5
        rows.append(",".join(repr(v) for v in (w1, x, w2, y)))
    return rows


def write_inputs(directory):
    """The graph and CSV files the recorded argvs name."""
    header = "W1,X,W2,Y"
    files = {
        "1h.txt": DG_1H.to_edge_list(),
        "1m.txt": DG_1M.to_edge_list(),
        "2f.txt": DG_2F.to_edge_list(),
        "cyclic.txt": "X -> Y\nY -> X\n",
        "six.txt": "A -> B\nB -> C\nC -> D\nD -> E\nE -> F\nA -> F\n",
        "bad.txt": "X -> \n",
        "disc1.csv": "\n".join([header] + _discrete_rows(1)) + "\n",
        "disc2.csv": "\n".join([header] + _discrete_rows(2)) + "\n",
        "cont1.csv": "\n".join([header] + _continuous_rows(1)) + "\n",
        "cont2.csv": "\n".join([header] + _continuous_rows(2)) + "\n",
        # W1 = 2 is never seen with X = 1
        "sparse.csv": "W1,X,W2,Y\n0,0,0,0\n0,1,1,1\n1,0,0,1\n1,1,1,0\n"
                      "2,0,1,1\n2,0,0,0\n",
        "nocol.csv": "X,W2,Y\n0,0,0\n1,1,1\n0,1,0\n1,0,1\n",
        "badcell.csv": "W1,X,W2,Y\n0,1,0,1\n1,abc,0,1\n",
        "fraction.csv": "W1,X,W2,Y\n0,1,0,1\n1,0.5,0,1\n",
    }
    for name, text in files.items():
        (pathlib.Path(directory) / name).write_text(text, encoding="utf-8")


def _argv(verb, graph, x, y, *flags):
    return [verb, "--graph", graph, "--exposure", x, "--outcome", y, *flags]


def cases():
    """The recorded argvs: verdicts as text and JSON, estimates as text,
    errors and usage errors."""
    argvs = []
    for verb in ("check-total", "check-direct", "oracle-total",
                 "oracle-direct"):
        for graph, x, y, flags in (("1h.txt", "X", "Y", ["--shared-order"]),
                                   ("1m.txt", "X", "Y", ["--shared-order"]),
                                   ("1h.txt", "Y", "X", []),
                                   ("1h.txt", "W2", "X", ["--shared-order"])):
            argvs.append(_argv(verb, graph, x, y, *flags))
            argvs.append(_argv(verb, graph, x, y, *flags, "--json"))
    argvs += [
        _argv("oracle-total", "2f.txt", "X", "Y"),
        _argv("check-total", "2f.txt", "W2", "W1", "--json"),
        _argv("check-total", "six.txt", "A", "F"),
        _argv("check-direct", "six.txt", "B", "F", "--json"),
        _argv("oracle-total", "six.txt", "A", "F"),
        _argv("check-total", "cyclic.txt", "X", "Y", "--shared-order"),
        _argv("oracle-direct", "cyclic.txt", "X", "Y", "--shared-order"),
        _argv("check-direct", "1h.txt", "X", "Q"),
        _argv("oracle-total", "1h.txt", "Q", "Y", "--json"),
        _argv("check-total", "1h.txt", "X", "X"),
        _argv("oracle-direct", "1h.txt", "Y", "Y"),
        _argv("check-total", "missing.txt", "X", "Y"),
        _argv("oracle-total", "bad.txt", "X", "Y"),
    ]
    total = ["--data1", "disc1.csv"]
    direct = ["--data1", "cont1.csv"]
    argvs += [
        _argv("estimate-total", "1h.txt", "X", "Y", "--shared-order", *total),
        _argv("estimate-total", "1h.txt", "X", "Y", "--shared-order", *total,
               "--laplace", "0.5"),
        _argv("estimate-total", "1h.txt", "Y", "X", *total),
        _argv("estimate-total", "1h.txt", "Y", "X", "--shared-order",
               *total),
        _argv("estimate-total", "1h.txt", "Y", "X", "--shared-order",
               *total, "--laplace", "0"),
        _argv("estimate-total", "1h.txt", "W1", "Y", "--shared-order",
               *total),
        _argv("estimate-total", "1m.txt", "X", "Y", "--shared-order",
               "--data1", "missing.csv"),
        _argv("estimate-total", "1h.txt", "X", "Y", "--shared-order",
               "--data1", "sparse.csv"),
        _argv("estimate-total", "1h.txt", "X", "Y", "--shared-order",
               "--data1", "sparse.csv", "--laplace", "1"),
        _argv("estimate-total", "1h.txt", "X", "Y", "--shared-order",
               "--data1", "badcell.csv"),
        _argv("estimate-total", "1h.txt", "X", "Y", "--shared-order",
               "--data1", "fraction.csv"),
        _argv("estimate-total", "1h.txt", "X", "Y", "--shared-order",
               "--data1", "missing.csv"),
        _argv("estimate-total", "missing.txt", "X", "Y",
               "--data1", "missing.csv"),
        _argv("estimate-total", "1h.txt", "Y", "X", *total, "--laplace", "0"),
        _argv("estimate-direct", "1m.txt", "X", "Y", "--shared-order",
               *direct),
        _argv("estimate-direct", "1m.txt", "Y", "X", *direct),
        _argv("estimate-direct", "1h.txt", "X", "Y", "--shared-order",
               *direct),
        _argv("estimate-direct", "1m.txt", "X", "Y", "--shared-order",
               "--data1", "disc1.csv"),
    ]
    pair = ["--data1", "disc1.csv", "--data2", "disc2.csv"]
    cpair = ["--data1", "cont1.csv", "--data2", "cont2.csv"]
    argvs += [
        _argv("change", "1h.txt", "X", "Y", "--shared-order", *pair,
               "--discrete"),
        _argv("change", "1h.txt", "X", "Y", "--shared-order", *pair,
               "--discrete", "--laplace", "0.5"),
        _argv("change", "1h.txt", "Y", "X", *pair, "--discrete"),
        _argv("change", "1h.txt", "Y", "X", "--shared-order", *pair,
               "--discrete"),
        _argv("change", "1h.txt", "W1", "Y", "--shared-order", *pair,
               "--discrete"),
        _argv("change", "1m.txt", "Y", "X", *cpair, "--continuous"),
        _argv("change", "1m.txt", "X", "Y", "--shared-order", *cpair,
               "--continuous"),
        _argv("change", "1m.txt", "X", "Y", "--shared-order", *cpair,
               "--continuous", "--laplace", "1"),
        _argv("change", "1m.txt", "X", "Y", "--shared-order", *pair,
               "--discrete"),
        _argv("change", "1h.txt", "X", "Y", "--shared-order",
               "--data1", "disc1.csv", "--data2", "nocol.csv", "--discrete"),
        _argv("change", "1h.txt", "X", "Y", "--shared-order",
               "--data1", "disc1.csv", "--data2", "missing.csv",
               "--discrete"),
    ]
    argvs += [
        [],
        ["check-total", "--exposure", "X", "--outcome", "Y"],
        _argv("change", "1h.txt", "X", "Y", *pair),
        _argv("change", "1h.txt", "X", "Y", *pair, "--discrete",
               "--continuous"),
        _argv("estimate-total", "1h.txt", "X", "Y", *total, "--discrete"),
        _argv("estimate-total", "1h.txt", "X", "Y", *total, "--laplace",
               "x"),
        _argv("check-direct", "1h.txt", "X", "Y", "--laplace", "1"),
    ]
    # a positivity fault in population 2
    argvs.append(_argv("change", "1h.txt", "X", "Y", "--shared-order",
                       "--data1", "disc1.csv", "--data2", "sparse.csv",
                       "--discrete"))
    return argvs


def run(argv):
    """Exit code, stdout and stderr of ``main(argv)`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def simulate_digests():
    """Run ``SIMULATE_ARGV`` in the working directory, which holds the
    inputs, and digest the files it writes."""
    result = run(SIMULATE_ARGV)
    assert result["exit"] == 0, result["stderr"]
    return {name: hashlib.sha256(
                (pathlib.Path("sim") / name).read_bytes()).hexdigest()
            for name in ("data1.csv", "data2.csv", "manifest.json")}


def surface():
    """The subcommands' names and help lines in order, and for the root
    parser and each subcommand the fields of every argument in order."""
    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    fields = ("option_strings", "dest", "metavar", "required", "default",
              "help")
    return {
        "subcommands": [[a.dest, a.help] for a in sub._choices_actions],
        "arguments": {
            p.prog: [{f: getattr(a, f) for f in fields} for a in p._actions]
            for p in (parser, *sub.choices.values())},
    }


RECORDED = (json.loads(GOLDEN.read_text(encoding="utf-8"))
            if GOLDEN.exists() else [])


@pytest.mark.parametrize("case", RECORDED,
                         ids=[f"{i}-{(c['argv'] or ['usage'])[0]}"
                              for i, c in enumerate(RECORDED)])
def test_cli_bytes_match_the_recording(case, tmp_path, monkeypatch):
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    assert run(case["argv"]) == case


def test_the_recording_covers_every_case():
    assert [c["argv"] for c in RECORDED] == cases()


def test_simulate_bytes_match_the_recording(tmp_path, monkeypatch):
    recorded = json.loads(SIMULATE_GOLDEN.read_text(encoding="utf-8"))
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert recorded["argv"] == SIMULATE_ARGV
    assert simulate_digests() == recorded["sha256"]


def test_cli_surface_matches_the_recording():
    recorded = json.loads(SURFACE_GOLDEN.read_text(encoding="utf-8"))
    assert json.loads(json.dumps(surface())) == recorded


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(tmp)
        here = os.getcwd()
        os.chdir(tmp)
        try:
            recorded = [run(argv) for argv in cases()]
            digests = simulate_digests()
        finally:
            os.chdir(here)
    GOLDEN.write_text(json.dumps(recorded, indent=1) + "\n",
                      encoding="utf-8")
    SIMULATE_GOLDEN.write_text(
        json.dumps({"argv": SIMULATE_ARGV, "sha256": digests}, indent=1)
        + "\n", encoding="utf-8")
    SURFACE_GOLDEN.write_text(json.dumps(surface(), indent=1) + "\n",
                              encoding="utf-8")
    print(f"recorded {len(recorded)} cases in {GOLDEN}, "
          f"{len(digests)} digests in {SIMULATE_GOLDEN} and the parser "
          f"surface in {SURFACE_GOLDEN}", file=sys.stderr)
