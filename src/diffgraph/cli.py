"""Command-line front end.

Exit codes separate scientific outcome from tool failure: 0 means
identifiable (or plain success), 2 means a sound NotIdentifiable verdict,
and 1 means usage, IO, or estimation errors.  ``--json`` switches
``check-*``, ``oracle-*``, ``estimate-*``, ``change`` and ``simulate``
from human-readable text to the JSON documents defined by the library
modules; ``figures`` prints its text table only and takes no flag.
"""

import argparse
import functools
import json
import os
import sys

from .dataset import Dataset
from .estimate import (
    EFFECT_KIND,
    causal_change,
    estimate_effect,
    format_change_report,
    format_interventional_table,
)
from .figures import figure_table
from .graphs import DifferenceGraph
from .identify import (
    ADJUSTMENT_IDENTIFIABLE,
    DIRECT,
    NOT_IDENTIFIABLE,
    NULL_EFFECT,
    TOTAL,
    EffectQuery,
    identify_direct,
    identify_total,
)
from .oracle import VERTEX_CAP, oracle_direct, oracle_total
from .simulate import sample_compatible_pair, sample_dataset

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_IDENTIFIABLE = 2

class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; reserve 2 for sound negatives."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _load_graph(path):
    with open(path, "r", encoding="utf-8-sig") as fh:
        return DifferenceGraph.from_edge_list(fh.read())


def _count(low, text):
    """argparse type: a decimal integer of at least ``low``, 0 or 1."""
    if not text.isdecimal() or int(text) < low:
        what = "positive" if low else "non-negative"
        raise argparse.ArgumentTypeError(
            f"expected a {what} integer, got {text!r}")
    return int(text)


def _graph_flags(sub, with_query=True):
    sub.add_argument("--graph", required=True,
                     help="difference graph in edge-list format")
    if with_query:
        sub.add_argument("--exposure", required=True, metavar="X")
        sub.add_argument("--outcome", required=True, metavar="Y")
        # a query verb without data or smoothing flags names neither
        sub.set_defaults(data1=None, data2=None, laplace=None)
    sub.add_argument("--shared-order", action="store_true",
                     help="assume both models admit one topological order")


def _emit(args, doc, text):
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(text)


def _verdict_text(args, verdict):
    head = (f"{verdict.effect} effect of {args.exposure} on "
            f"{args.outcome}: ")
    if verdict.kind == NULL_EFFECT:
        return head + (f"null effect (condition {verdict.condition}); "
                       f"{verdict.formula}")
    if verdict.kind == ADJUSTMENT_IDENTIFIABLE:
        members = ", ".join(verdict.adjustment_set)
        return head + (f"identifiable (condition {verdict.condition}); "
                       f"adjust for {{{members}}}; {verdict.formula}")
    return head + "not identifiable from the difference graph alone"


def _oracle_text(args, verdict):
    mode = "shared-order" if args.shared_order else "general"
    head = (f"oracle ({mode} mode), {verdict.effect} effect of "
            f"{args.exposure} on {args.outcome}: ")
    if verdict.kind == NULL_EFFECT:
        return head + ("null effect in every compatible model; "
                       f"{verdict.formula}")
    if verdict.kind == ADJUSTMENT_IDENTIFIABLE:
        members = ", ".join(verdict.adjustment_set)
        return head + (f"identifiable; {{{members}}} is admissible in every "
                       f"compatible model; {verdict.formula}")
    text = head + ("not identifiable: no single adjustment set serves "
                   "every compatible model")
    for i, g in enumerate(verdict.witness, start=1):
        body = "    ".join(g.to_edge_list().splitlines(True))
        text += f"\nwitness model {i}:\n    {body.rstrip()}"
    return text


def _query(args, effect, oracle=False):
    """Decide one query and print the verdict, then estimate from the data
    files the command names.

    ``check-*`` and ``oracle-*`` take no data; they decide with the closed
    form and with the brute-force oracle, whose text lists witness models.
    ``estimate-*`` and ``change`` decide with the closed form.  A
    NotIdentifiable verdict is printed alone (exit 2).  Otherwise each data
    file (``--data1``, and ``--data2`` for ``change``) is read after the
    graph, as the effect's data kind, and estimated by :func:`estimate_effect`
    (one file) or :func:`causal_change` (two), printed after the verdict.
    """
    d = _load_graph(args.graph)
    x, y = args.exposure, args.outcome
    if oracle:
        decide = oracle_total if effect == TOTAL else oracle_direct
        verdict = decide(d, x, y, shared_order=args.shared_order)
    else:
        q = EffectQuery(d, x, y, shared_order_assumed=args.shared_order)
        verdict = identify_total(q) if effect == TOTAL else identify_direct(q)
    text = (_oracle_text if oracle else _verdict_text)(args, verdict)
    doc = verdict.as_dict()
    paths = [path for path in (args.data1, args.data2) if path is not None]
    if paths and verdict.kind != NOT_IDENTIFIABLE:
        data = [Dataset.from_csv(path, EFFECT_KIND[effect]) for path in paths]
        if len(data) == 2:
            report = causal_change(verdict, *data, x, y, laplace=args.laplace)
            doc = {"verdict": doc, "report": report.as_dict()}
            text += "\n" + format_change_report(report, x, y)
        else:
            est = estimate_effect(verdict, *data, x, y, laplace=args.laplace)
            total = effect == TOTAL
            doc = {"verdict": doc, "estimate": est.as_dict() if total else est}
            text += "\n" + (format_interventional_table(est, x, y) if total
                            else f"alpha({x}->{y}) estimate: {est:.6f}")
    _emit(args, doc, text)
    return (EXIT_NOT_IDENTIFIABLE if verdict.kind == NOT_IDENTIFIABLE
            else EXIT_OK)


def _cmd_simulate(args):
    d = _load_graph(args.graph)
    pair = sample_compatible_pair(d, shared_order=args.shared_order,
                                  seed=args.seed)
    draws = [sample_dataset(scm, args.n, seed=args.seed + i)
             for i, scm in enumerate((pair.scm1, pair.scm2), start=1)]
    os.makedirs(args.out, exist_ok=True)
    paths = [os.path.join(args.out, name)
             for name in ("data1.csv", "data2.csv", "manifest.json")]
    for data, path in zip(draws, paths):
        data.to_csv(path)
    manifest = {
        "seed": args.seed,
        "n": args.n,
        "shared_order": args.shared_order,
        "difference_graph": d.to_edge_list(),
        "scm1": pair.scm1.as_dict(),
        "scm2": pair.scm2.as_dict(),
        "datasets": {"data1": "data1.csv", "data2": "data2.csv",
                     "seed1": args.seed + 1, "seed2": args.seed + 2},
    }
    with open(paths[2], "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    _emit(args, manifest,
          f"wrote {paths[0]}, {paths[1]} and {paths[2]} "
          f"(n={args.n}, seed={args.seed})")
    return EXIT_OK


def _cmd_figures(args):
    sys.stdout.write(figure_table())
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="diffgraph",
                     description="Decide and estimate causal-effect changes "
                                 "between two populations from a difference "
                                 "graph.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    cap = f"({VERTEX_CAP}-vertex cap)"
    for name, effect, summary, oracle, reads_data in (
            ("check-total", TOTAL, "closed-form total-effect verdict",
             False, False),
            ("check-direct", DIRECT, "closed-form direct-effect verdict",
             False, False),
            ("oracle-total", TOTAL, f"brute-force total-effect verdict {cap}",
             True, False),
            ("oracle-direct", DIRECT,
             f"brute-force direct-effect verdict {cap}", True, False),
            ("estimate-total", TOTAL, "estimate P(y|do(x)) from one dataset",
             False, True),
            ("estimate-direct", DIRECT,
             "estimate the path coefficient from one dataset", False, True)):
        p = sub.add_parser(name, help=summary)
        _graph_flags(p)
        if reads_data:
            p.add_argument("--data1", required=True, metavar="CSV")
            if effect == TOTAL:
                p.add_argument("--laplace", type=float, metavar="ALPHA")
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=lambda a, e=effect, o=oracle: _query(a, e, o))

    p = sub.add_parser("change",
                       help="estimate the causal change between two "
                            "populations (--discrete: total effect, "
                            "--continuous: direct effect)")
    _graph_flags(p)
    p.add_argument("--data1", required=True, metavar="CSV")
    p.add_argument("--data2", required=True, metavar="CSV")
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--discrete", action="store_true",
                      help="datasets hold non-negative integer codes")
    kind.add_argument("--continuous", action="store_true",
                      help="datasets hold real-valued columns")
    p.add_argument("--laplace", type=float, metavar="ALPHA")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=lambda a: _query(a, TOTAL if a.discrete else DIRECT))

    p = sub.add_parser("simulate",
                       help="draw a compatible linear-SCM pair and sample "
                            "two datasets")
    _graph_flags(p, with_query=False)
    p.add_argument("--seed", type=functools.partial(_count, 0), default=0)
    p.add_argument("--n", type=functools.partial(_count, 1), default=10000)
    p.add_argument("--out", default=".", metavar="DIR")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("figures",
                       help="verdict table for the bundled example graphs")
    p.set_defaults(func=_cmd_figures)

    return parser


@functools.cache
def _parser():
    """The parser ``main`` uses, built once per process: building it costs
    more than a fast subcommand, and parsing leaves it as it was."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
