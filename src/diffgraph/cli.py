"""Command-line front end.

Exit codes separate scientific outcome from tool failure: 0 means
identifiable (or plain success), 2 means a sound NotIdentifiable verdict,
and 1 means usage, IO, or estimation errors.  ``--json`` switches every
command from human-readable text to the JSON documents defined by the
library modules.
"""

import argparse
import json
import os
import sys

from .estimate import (
    EFFECT_KIND,
    Dataset,
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
from .oracle import oracle_direct, oracle_total
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


def _graph_flags(sub, with_query=True):
    sub.add_argument("--graph", required=True,
                     help="difference graph in edge-list format")
    if with_query:
        sub.add_argument("--exposure", required=True, metavar="X")
        sub.add_argument("--outcome", required=True, metavar="Y")
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


def _identify(args, effect):
    d = _load_graph(args.graph)
    q = EffectQuery(d, args.exposure, args.outcome,
                    shared_order_assumed=args.shared_order)
    return identify_total(q) if effect == TOTAL else identify_direct(q)


def _exit_code(verdict):
    return (EXIT_NOT_IDENTIFIABLE if verdict.kind == NOT_IDENTIFIABLE
            else EXIT_OK)


def _emit_verdict(args, verdict):
    _emit(args, verdict.as_dict(), _verdict_text(args, verdict))
    return _exit_code(verdict)


def _cmd_check(args, effect):
    return _emit_verdict(args, _identify(args, effect))


def _cmd_oracle(args, effect):
    d = _load_graph(args.graph)
    fn = oracle_total if effect == TOTAL else oracle_direct
    verdict = fn(d, args.exposure, args.outcome,
                 shared_order=args.shared_order)
    mode = "shared-order" if args.shared_order else "general"
    head = (f"oracle ({mode} mode), {effect} effect of "
            f"{args.exposure} on {args.outcome}: ")
    if verdict.kind == NULL_EFFECT:
        text = head + f"null effect in every compatible model; {verdict.formula}"
    elif verdict.kind == ADJUSTMENT_IDENTIFIABLE:
        members = ", ".join(verdict.adjustment_set)
        text = head + (f"identifiable; {{{members}}} is admissible in every "
                       f"compatible model; {verdict.formula}")
    else:
        text = head + ("not identifiable: no single adjustment set serves "
                       "every compatible model")
        if verdict.witness is not None:
            for i, g in enumerate(verdict.witness, start=1):
                body = "    ".join(g.to_edge_list().splitlines(True))
                text += f"\nwitness model {i}:\n    {body.rstrip()}"
    _emit(args, verdict.as_dict(), text)
    return _exit_code(verdict)


def _cmd_estimate(args, effect):
    x, y = args.exposure, args.outcome
    verdict = _identify(args, effect)
    if verdict.kind == NOT_IDENTIFIABLE:
        return _emit_verdict(args, verdict)
    data = Dataset.from_csv(args.data1, EFFECT_KIND[effect])
    estimate = estimate_effect(verdict, data, x, y, laplace=args.laplace)
    if effect == TOTAL:
        shown = format_interventional_table(estimate, x, y)
        doc = estimate.as_dict()
    else:
        shown = f"alpha({x}->{y}) estimate: {estimate:.6f}"
        doc = estimate
    _emit(args, {"verdict": verdict.as_dict(), "estimate": doc},
          _verdict_text(args, verdict) + "\n" + shown)
    return EXIT_OK


def _cmd_change(args):
    effect = TOTAL if args.discrete else DIRECT
    verdict = _identify(args, effect)
    if verdict.kind == NOT_IDENTIFIABLE:
        return _emit_verdict(args, verdict)
    kind = EFFECT_KIND[effect]
    data1 = Dataset.from_csv(args.data1, kind)
    data2 = Dataset.from_csv(args.data2, kind)
    report = causal_change(verdict, data1, data2, args.exposure,
                           args.outcome, laplace=args.laplace)
    text = (_verdict_text(args, verdict) + "\n"
            + format_change_report(report, args.exposure, args.outcome))
    _emit(args, {"verdict": verdict.as_dict(), "report": report.as_dict()},
          text)
    return EXIT_OK


def _cmd_simulate(args):
    d = _load_graph(args.graph)
    pair = sample_compatible_pair(d, shared_order=args.shared_order,
                                  seed=args.seed)
    data1 = sample_dataset(pair.scm1, args.n, seed=args.seed + 1)
    data2 = sample_dataset(pair.scm2, args.n, seed=args.seed + 2)
    os.makedirs(args.out, exist_ok=True)
    path1 = os.path.join(args.out, "data1.csv")
    path2 = os.path.join(args.out, "data2.csv")
    manifest_path = os.path.join(args.out, "manifest.json")
    data1.to_csv(path1)
    data2.to_csv(path2)
    manifest = {
        "seed": args.seed,
        "n": args.n,
        "shared_order": args.shared_order,
        "difference_graph": d.to_edge_list(),
        "scm1": pair.scm1.as_dict(),
        "scm2": pair.scm2.as_dict(),
        "datasets": {"data1": path1, "data2": path2,
                     "seed1": args.seed + 1, "seed2": args.seed + 2},
    }
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    _emit(args, manifest,
          f"wrote {path1}, {path2} and {manifest_path} "
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

    for name, effect in (("check-total", TOTAL), ("check-direct", DIRECT)):
        p = sub.add_parser(name, help=f"closed-form {effect}-effect verdict")
        _graph_flags(p)
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=lambda a, e=effect: _cmd_check(a, e))

    for name, effect in (("oracle-total", TOTAL), ("oracle-direct", DIRECT)):
        p = sub.add_parser(name, help=f"brute-force {effect}-effect verdict "
                                      "(5-vertex cap)")
        _graph_flags(p)
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=lambda a, e=effect: _cmd_oracle(a, e))

    for name, effect, summary in (
            ("estimate-total", TOTAL, "estimate P(y|do(x)) from one dataset"),
            ("estimate-direct", DIRECT,
             "estimate the path coefficient from one dataset")):
        p = sub.add_parser(name, help=summary)
        _graph_flags(p)
        p.add_argument("--data1", required=True, metavar="CSV")
        if effect == TOTAL:
            p.add_argument("--laplace", type=float, metavar="ALPHA")
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=lambda a, e=effect: _cmd_estimate(a, e),
                       laplace=None)

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
    p.set_defaults(func=_cmd_change)

    p = sub.add_parser("simulate",
                       help="draw a compatible linear-SCM pair and sample "
                            "two datasets")
    _graph_flags(p, with_query=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--out", default=".", metavar="DIR")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("figures",
                       help="verdict table for the bundled example graphs")
    p.set_defaults(func=_cmd_figures)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
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
