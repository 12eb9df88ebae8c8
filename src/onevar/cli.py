"""Batch command-line surface.

Machine-readable JSON goes to stdout (or ``--out``); human-readable summary
lines go to stderr.  Exit status: 0 success, 1 negative verdict (formula
false at the point, or a countermodel found), 2 usage or input error,
3 internal check failure.  Every subcommand is deterministic given identical
flags and seeds.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from onevar.formulas import (FormulaStore, ModalityError, ParseError,
                             dag_listing, dag_size, parse, render)
from onevar.kripke import ModelFormatError, ProductModel, check, sat_set
from onevar.search import (CALIBRATION_CORPUS, CheckerDisagreement,
                           FactorClass, NoPassingVariant, SearchBudget,
                           calibrate_variants, differential_suite,
                           search_countermodel)
from onevar.surgery import (ExtractionFailed, PreconditionFailed,
                            TransferFailed, check_kept_points_marked,
                            check_marker_agreement, check_marker_exactness,
                            check_subformula_preservation,
                            extract_countermodel, transfer_countermodel)
from onevar.translation import (DEFAULT_VARIANT, K_MODE_DEFAULT_VARIANT,
                                VARIANT_GRID, ReservedVariableError,
                                TranslationContext, variant_by_name)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

# Default formulas for the suite subcommand: refutable instances exercising
# both directions, plus product validities whose searches must come up empty.
DEFAULT_SUITE_CORPUS = (
    "F", "[1]F", "~p1", "p1", "p1 -> [1]p1", "<1>p1 -> p1",
    "[1]p1 -> p1", "[1][2]p1 -> [2][1]p1", "p1 | ~p1",
)


def _emit(args, payload: dict, summary: str) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.format == "text":
        body = summary
    else:
        body = text
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        if args.format == "text":
            print(summary)
    else:
        print(body)
    print(summary, file=sys.stderr)


def _variant(args, k_mode: bool):
    if args.variant:
        return variant_by_name(args.variant)
    return K_MODE_DEFAULT_VARIANT if k_mode else DEFAULT_VARIANT


def _classes(names: str) -> tuple[FactorClass, ...]:
    return tuple(FactorClass.from_name(part) for part in names.split(","))


def _budget(args) -> SearchBudget:
    if args.max_worlds < 1:
        raise ValueError("--max-worlds must be at least 1")
    if args.max_valuations < 1:
        raise ValueError("--max-valuations must be at least 1")
    if args.time_limit is not None and not args.time_limit >= 0:
        # NaN fails every comparison and would switch the limit off
        raise ValueError("--time-limit must be a non-negative number")
    per_factor = None
    if getattr(args, "per_factor_worlds", None):
        per_factor = tuple(int(x) for x in args.per_factor_worlds.split(","))
    return SearchBudget(max_worlds_per_factor=args.max_worlds,
                        per_factor_max=per_factor,
                        max_valuations=args.max_valuations,
                        exhaustive=args.exhaustive,
                        time_limit=args.time_limit,
                        seed=args.seed)


def _load_model(path: str) -> ProductModel:
    """A model file, or a command's output with the model under "model"."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if (isinstance(doc, dict) and "factors" not in doc
            and isinstance(doc.get("model"), dict)):
        doc = doc["model"]
    return ProductModel.from_json(doc)


def cmd_translate(args) -> int:
    store = FormulaStore()
    f = parse(args.formula, args.arity, store)
    ctx = TranslationContext.for_formula(store, f, args.arity,
                                         _variant(args, args.k_mode))
    reduced = ctx.reduce(f)
    dag = dag_size(reduced)
    payload = {
        "formula": render(f),
        "arity": args.arity,
        "variant": ctx.variant.name,
        "metrics": {
            "source": {"tree_size": f.tree_size, "dag_size": dag_size(f),
                       "modal_depth": f.depth},
            "reduction": {"tree_size": reduced.tree_size, "dag_size": dag,
                          "modal_depth": reduced.depth},
        },
        "reduction_dag": dag_listing(reduced),
    }
    if args.expand:
        payload["reduction"] = render(reduced)
    summary = (f"reduced {render(f)!r}: tree {reduced.tree_size}, "
               f"dag {dag}, depth {reduced.depth}")
    _emit(args, payload, summary)
    return EXIT_OK


def cmd_check(args) -> int:
    store = FormulaStore()
    model = _load_model(args.model)
    f = parse(args.formula, len(model.factors), store)
    verdict = check(model, model.point, f)
    payload = {"verdict": verdict,
               "point": list(model.coords_of(model.point))}
    if args.sat_set:
        payload["sat_set"] = sorted(list(model.coords_of(w))
                                    for w in sat_set(model, f))
    _emit(args, payload, f"formula is {str(verdict).lower()} at the point")
    return EXIT_OK if verdict else EXIT_NEGATIVE


def cmd_search(args) -> int:
    store = FormulaStore()
    classes = _classes(args.classes)
    f = parse(args.formula, len(classes), store)
    budget = _budget(args)
    outcome = search_countermodel(f, classes, budget)
    payload = {"status": outcome.status, "stats": outcome.stats}
    if outcome.found:
        payload["model"] = outcome.model.to_json()
    _emit(args, payload, f"search: {outcome.status}")
    return EXIT_NEGATIVE if outcome.found else EXIT_OK


def cmd_transfer(args) -> int:
    store = FormulaStore()
    base = _load_model(args.model)
    f = parse(args.formula, len(base.factors), store)
    ctx = TranslationContext.for_formula(store, f, len(base.factors),
                                         _variant(args, args.k_mode))
    result = transfer_countermodel(base, f, ctx, k_mode=args.k_mode)
    payload = result.to_json()
    payload["report"] = {
        "marker_agreement": check_marker_agreement(result, base, ctx).to_json(),
        "marker_exactness": check_marker_exactness(result, ctx).to_json(),
        "subformula_preservation":
            check_subformula_preservation(base, result, f, ctx).to_json(),
    }
    _emit(args, payload, "transfer verified")
    return EXIT_OK


def cmd_extract(args) -> int:
    store = FormulaStore()
    counter = _load_model(args.model)
    f = parse(args.formula, len(counter.factors), store)
    ctx = TranslationContext.for_formula(store, f, len(counter.factors),
                                         _variant(args, args.k_mode))
    result = extract_countermodel(counter, f, ctx)
    payload = result.to_json()
    payload["report"] = {
        "kept_points_marked":
            check_kept_points_marked(counter, result, ctx).to_json(),
    }
    _emit(args, payload, "extraction verified")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    class_pairs = [_classes(part) for part in args.classes.split(";")]
    budget = _budget(args)
    corpus = tuple(CALIBRATION_CORPUS)
    if args.k_mode:
        corpus = corpus + ("[1]p1 -> p1",)
    report = calibrate_variants(VARIANT_GRID, corpus, class_pairs, budget,
                                k_mode=args.k_mode)
    _emit(args, report.to_json(),
          f"calibration selected {report.selected} "
          f"(ties: {', '.join(report.ties)})")
    return EXIT_OK


def cmd_suite(args) -> int:
    classes = _classes(args.classes)
    if args.corpus:
        with open(args.corpus, encoding="utf-8") as fh:
            lines = [line.strip() for line in fh]
        corpus = [line for line in lines if line and not line.startswith("#")]
    else:
        corpus = list(DEFAULT_SUITE_CORPUS)
    report = differential_suite(corpus, classes, _budget(args),
                                args.reduction_worlds,
                                _variant(args, args.k_mode),
                                k_mode=args.k_mode)
    _emit(args, report.to_json(),
          f"suite {'passed' if report.passed else 'FAILED'} over "
          f"{len(corpus)} formulas")
    return EXIT_OK if report.passed else EXIT_INTERNAL


def cmd_bench(args) -> int:
    if args.max_depth < 0:
        raise ValueError("--max-depth must be at least 0")
    store = FormulaStore()
    rows = ["depth,guard_tree_size,guard_dag_size,reduction_tree_size,"
            "reduction_dag_size,build_seconds"]
    for d in range(1, args.max_depth + 1):
        t0 = time.perf_counter()
        ctx = TranslationContext(store, args.arity, args.var_limit, d,
                                 _variant(args, args.k_mode))
        guard = ctx.uniform_guard()
        # canonical depth-d source: nested first-modality boxes over p1
        f = store.var(1)
        for _ in range(d):
            f = store.box(1, f)
        reduced = ctx.reduce(f)
        elapsed = time.perf_counter() - t0
        rows.append(f"{d},{guard.tree_size},{dag_size(guard)},"
                    f"{reduced.tree_size},{dag_size(reduced)},{elapsed:.6f}")
    csv = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv)
    else:
        print(csv, end="")
    print(f"bench: {args.max_depth} depths, arity {args.arity}",
          file=sys.stderr)
    return EXIT_OK


def _add_k_mode(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--k-mode", action="store_true",
                     help="irreflexive gadgets, no reflexivity requirements")


def _add_variant(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--variant", help="variant name override")
    _add_k_mode(sub)


def _add_output(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", help="write the JSON payload to this path")
    sub.add_argument("--format", choices=("json", "text"), default="json")


def _add_budget(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--max-worlds", type=int, default=3)
    sub.add_argument("--per-factor-worlds",
                     help="comma-separated per-factor world bounds")
    sub.add_argument("--max-valuations", type=int, default=512)
    sub.add_argument("--exhaustive", action="store_true",
                     help="refuse valuation sampling: error out instead "
                          "of weakening an exhaustiveness certificate")
    sub.add_argument("--time-limit", type=float, default=None)
    sub.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onevar",
        description="single-variable reductions for products of modal logics")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("translate", help="reduce a formula to one variable")
    p.add_argument("formula")
    p.add_argument("--arity", type=int, default=2)
    p.add_argument("--expand", action="store_true",
                   help="include the fully expanded rendering")
    _add_variant(p)
    _add_output(p)
    p.set_defaults(func=cmd_translate)

    p = subs.add_parser("check", help="evaluate a formula on a model file")
    p.add_argument("model")
    p.add_argument("formula")
    p.add_argument("--sat-set", action="store_true",
                   help="include the full satisfaction set")
    _add_output(p)
    p.set_defaults(func=cmd_check)

    p = subs.add_parser("search", help="look for a product countermodel")
    p.add_argument("formula")
    p.add_argument("--classes", default="T,T",
                   help="comma-separated factor classes, e.g. T,S5")
    _add_output(p)
    _add_budget(p)
    p.set_defaults(func=cmd_search)

    p = subs.add_parser("transfer",
                        help="extend a source countermodel to the reduction")
    p.add_argument("model")
    p.add_argument("formula")
    _add_variant(p)
    _add_output(p)
    p.set_defaults(func=cmd_transfer)

    p = subs.add_parser("extract",
                        help="carve a source countermodel out of a "
                             "reduction countermodel")
    p.add_argument("model")
    p.add_argument("formula")
    _add_variant(p)
    _add_output(p)
    p.set_defaults(func=cmd_extract)

    p = subs.add_parser("calibrate", help="score every variant reading")
    p.add_argument("--classes", default="T,T;T,S5",
                   help="semicolon-separated class tuples of any arity, "
                        "e.g. T,T;T,T,T")
    _add_k_mode(p)
    _add_output(p)
    _add_budget(p)
    p.set_defaults(func=cmd_calibrate)

    p = subs.add_parser("suite", help="run the differential suite")
    p.add_argument("--corpus", help="file with one formula per line")
    p.add_argument("--classes", default="T,T")
    p.add_argument("--reduction-worlds", type=int, default=4,
                   help="first-factor bound for the reduction direction")
    _add_variant(p)
    _add_output(p)
    _add_budget(p)
    p.set_defaults(func=cmd_suite)

    p = subs.add_parser("bench", help="size and build-time growth CSV")
    p.add_argument("--max-depth", type=int, default=5)
    p.add_argument("--arity", type=int, default=2)
    p.add_argument("--var-limit", type=int, default=1)
    _add_variant(p)
    p.add_argument("--out", help="write the CSV to this path")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ModalityError, ReservedVariableError,
            ModelFormatError, PreconditionFailed, ValueError,
            OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TransferFailed, ExtractionFailed, NoPassingVariant,
            CheckerDisagreement) as exc:
        print(f"internal check failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
