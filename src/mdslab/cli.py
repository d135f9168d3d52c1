"""Command-line front end.

Subcommands: construct, classify, schur, search, verify.  Exit codes: 0 on
success, 1 when a verification counterexample turned up, 2 for usage and
config errors.  All output is deterministic for identical inputs, including
--seed and --jobs, so runs can be diffed byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

from .gf import Field, FieldError, parse_field
from .linalg import Matrix
from .codes import LinearCode, classify, grs_code, grs_consistency_test
from .construction import (
    CRITERIA,
    EvalConfig,
    criteria,
    family_code,
    gapped_grs_code,
    gapped_grs_one_column_code,
    grs_three_column_code,
    grs_two_column_code,
    parity_check_matrix,
)
from .search import (
    BudgetExceededError,
    CODE_CLASSES,
    DEFAULT_BUDGET,
    SearchJob,
    SearchMismatchError,
    records_to_csv,
    records_to_json,
    records_to_text,
    run_search,
)
from .verify import SUITE_NAMES, SWEEP_SUITES, run_suites


class UsageError(ValueError):
    """Bad flag combination or malformed value; exits with status 2."""


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _emit(text: str, args) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _require_field(args) -> Field:
    if not args.field:
        raise UsageError("missing --field")
    return parse_field(args.field)


def _element_list(field: Field, text: str, what: str) -> tuple[int, ...]:
    toks = [t.strip() for t in text.split(",")]
    if any(not t for t in toks):
        raise UsageError(f"empty entry in {what}: {text!r}")
    return tuple(field.parse_element(t) for t in toks)


def _config_parts(args) -> tuple[Field, tuple[int, ...], tuple[int, ...], int,
                                 int | None]:
    """(field, nodes, v, k, delta) from --config or from the flags; delta is
    None when the flags give no --delta."""
    if args.config:
        with open(args.config) as fh:
            cfg = EvalConfig.from_json(json.load(fh))
        return cfg.field, cfg.alphas, cfg.v, cfg.k, cfg.delta
    field = _require_field(args)
    if not args.points:
        raise UsageError("missing --points (or --config)")
    if args.k is None:
        raise UsageError("missing --k")
    alphas = _element_list(field, args.points, "--points")
    v = _element_list(field, args.v, "--v") if args.v else (1,) * len(alphas)
    delta = None if args.delta is None else field.parse_element(args.delta)
    return field, alphas, v, args.k, delta


def _config_from_args(args) -> EvalConfig:
    field, alphas, v, k, delta = _config_parts(args)
    if delta is None:
        raise UsageError("missing --delta")
    return EvalConfig(field, alphas, v, k, delta)


def _code_from_args(args) -> tuple[LinearCode, EvalConfig | None]:
    """The code of --matrix, or the family code of the config; the config is
    None for --matrix."""
    _refuse_unread(args)
    if args.matrix is not None:
        return LinearCode(Matrix.parse(_require_field(args), args.matrix)), None
    cfg = _config_from_args(args)
    return family_code(cfg), cfg


def _report_line(rep) -> str:
    line = f"{rep.criterion}: {'holds' if rep.holds else 'fails'}"
    if rep.witness is not None:
        line += " witness=" + rep.clause + ":" + "+".join(map(str, rep.witness))
    return line


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

# --which -> (builder, the flags it reads besides --field, --points and --k);
# the builders take those flags as keyword arguments of the same name, and
# gk builds from an EvalConfig instead
FAMILIES = {
    "gk": (None, ("v", "delta")),
    "g1": (grs_two_column_code, ("delta",)),
    "g2": (grs_three_column_code, ("delta", "tau", "pi")),
    "g3": (gapped_grs_code, ()),
    "g4": (gapped_grs_one_column_code, ()),
    "grs": (grs_code, ("v",)),
}


# input of a code -> the flags it reads; classify and schur read --points as gk
INPUT_READS = {"matrix": ("matrix", "field"), "config": ("config",),
               **{which: ("field", "points", "k") + reads
                  for which, (_, reads) in FAMILIES.items()}}


def _refuse_unread(args, which: str = "gk") -> None:
    """Refuse each input flag given beside an input that does not read it."""
    given = [name for name in ("matrix", "config", "field", "points", "v", "k",
                               "tau", "pi", "delta")
             if getattr(args, name, None) is not None]
    source = next((name for name in given if name in ("matrix", "config")), which)
    reads = INPUT_READS[source]
    if source == "config":  # a config carries no --tau or --pi
        reads += tuple(name for name in INPUT_READS[which] if name in ("tau", "pi"))
    unread = [name for name in given if name not in reads]
    if unread:
        where = f"--which {source}" if source in FAMILIES else f"--{source}"
        raise UsageError(f"--{unread[0]} does not apply to {where}")


def cmd_construct(args) -> int:
    which = args.which
    builder, reads = FAMILIES[which]
    _refuse_unread(args, which)
    if args.parity_check and which != "gk":
        raise UsageError("--parity-check only applies to the gk family")
    if builder is None:
        cfg = _config_from_args(args)
        out = {"generator": family_code(cfg).generator.format()}
        if args.parity_check:
            out["parity_check"] = parity_check_matrix(cfg).format()
    else:
        field, alphas, v, k, delta = _config_parts(args)
        values = {"v": v, "delta": delta}
        for name in ("tau", "pi"):
            text = getattr(args, name)
            values[name] = None if text is None else field.parse_element(text)
        missing = [f"--{name}" for name in reads if values[name] is None]
        if missing:
            raise UsageError("missing " + " and ".join(missing))
        code = builder(field, alphas, k=k, **{name: values[name] for name in reads})
        out = {"generator": code.generator.format()}
    if args.format == "json":
        _emit(json.dumps(out, indent=2), args)
    elif args.parity_check:
        _emit(f"generator: {out['generator']}\n"
              f"parity_check: {out['parity_check']}", args)
    else:
        _emit(out["generator"], args)
    return 0


def cmd_classify(args) -> int:
    code, cfg = _code_from_args(args)
    cls = classify(code)
    payload = cls.to_json()
    crit = None
    if cfg is not None:
        crit = criteria(cfg)
        payload["criteria_class"] = crit.kind
        payload["criteria"] = crit.to_json()
        if any(holds != truth for _, holds, truth in crit.checks(cls)):
            print("counterexample: criteria disagree with brute force\n"
                  + json.dumps(cfg.to_json()), file=sys.stderr)
            return 1
    if args.format == "json":
        _emit(json.dumps(payload, indent=2), args)
    else:
        lines = [f"{key}: {payload[key]}" for key in
                 ("length", "dimension", "min_distance", "dual_min_distance",
                  "singleton_defect", "dual_defect", "class")]
        if crit is not None:
            lines.append(f"criteria_class: {payload['criteria_class']}")
            lines += [_report_line(crit.report(name)) for name in CRITERIA]
        _emit("\n".join(lines), args)
    return 0


def cmd_schur(args) -> int:
    rep = grs_consistency_test(_code_from_args(args)[0])
    if args.format == "json":
        _emit(json.dumps(rep.to_json(), indent=2), args)
    else:
        evidence = "none" if rep.evidence is None else rep.evidence
        _emit(f"method: {rep.method}\nevidence: {evidence}\n"
              f"verdict: {rep.verdict}", args)
    return 0


def _parse_k_spec(spec: str, n: int) -> tuple[int, ...]:
    if spec == "all":
        return tuple(range(3, n + 1))
    if "-" in spec:
        lo, _, hi = spec.partition("-")
        try:
            return tuple(range(int(lo), int(hi) + 1))
        except ValueError:
            raise UsageError(f"bad --k range {spec!r}")
    try:
        return (int(spec),)
    except ValueError:
        raise UsageError(f"bad --k value {spec!r}")


def cmd_search(args) -> int:
    field = _require_field(args)
    if args.delta == "all":
        deltas = None
    else:
        deltas = _element_list(field, args.delta, "--delta")
    subsets = None
    if args.points:
        subsets = tuple(_element_list(field, p, "--points") for p in args.points)
    target = None if args.filter == "any" else args.filter
    job = SearchJob(
        field=field, n=args.n, k_values=_parse_k_spec(args.k, args.n),
        deltas=deltas, subsets=subsets, sample=args.sample, seed=args.seed,
        target=target, budget=args.budget, jobs=args.jobs)
    records = run_search(job)
    if args.format == "csv":
        _emit(records_to_csv(records), args)
    elif args.format == "json":
        _emit(records_to_json(records), args)
    else:
        _emit(records_to_text(records), args)
    return 0


# verify suite -> the scope flags it reads; where --quick is not listed, it
# only picks the default --orders and --max-n, so beside both it is unread
VERIFY_READS = {"det": ("orders", "quick"), "schur": ("quick",),
                "all": ("orders", "max_n", "quick"),
                **dict.fromkeys(("powersum",) + SWEEP_SUITES, ("orders", "max_n"))}


def cmd_verify(args) -> int:
    reads = VERIFY_READS[args.suite]
    if args.orders is None or args.max_n is None:
        reads += ("quick",)
    unread = [name for name in ("orders", "max_n", "quick")
              if getattr(args, name) not in (None, False) and name not in reads]
    if unread:
        where = f"verify {args.suite}"
        if unread[0] == "quick":
            where += " with --orders and --max-n"
        raise UsageError(f"--{unread[0].replace('_', '-')} does not apply to "
                         f"{where}")
    if args.max_n is not None and args.max_n < 3:
        raise UsageError(f"--max-n must be at least 3, got {args.max_n}")
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    fields = None
    if args.orders is not None:
        try:
            orders = [int(tok) for tok in args.orders.split(",")]
        except ValueError:
            raise UsageError(f"bad --orders value {args.orders!r}") from None
        if min(orders) < 3:
            raise UsageError("--orders: field orders must be at least 3, "
                             f"got {min(orders)}")
        repeated = [q for i, q in enumerate(orders) if q in orders[:i]]
        if repeated:
            raise UsageError(f"repeated field order {repeated[0]} in --orders")
        fields = tuple(Field.from_order(q) for q in orders)
    results = run_suites(names, fields=fields, max_n=args.max_n,
                         quick=args.quick)
    failed = [r for r in results if not r.passed]
    if args.format == "json":
        _emit(json.dumps([r.to_json() for r in results], indent=2), args)
    else:
        lines = []
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"{r.suite}: {status} ({r.checked} checks)")
            if r.counterexample is not None:
                lines.append("counterexample: " + json.dumps(r.counterexample))
        _emit("\n".join(lines), args)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Raises UsageError where argparse would print its usage block and exit,
    so a bad flag is reported like any other bad input: one line, exit 2."""

    def error(self, message):
        raise UsageError(message)


def _output_flags(*formats: str) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--format", choices=formats, default="text")
    p.add_argument("--out", help="write output to this path instead of stdout")
    return p


def build_parser() -> argparse.ArgumentParser:
    out = _output_flags("text", "json")

    src = argparse.ArgumentParser(add_help=False)
    src.add_argument("--field", help="field spec, e.g. gf(7) or gf(2^3):1,1,0,1")
    src.add_argument("--config", help="EvalConfig JSON file")
    src.add_argument("--points", help="comma-separated node list, e.g. 0,1,g^2")
    src.add_argument("--v", help="comma-separated column multipliers")
    src.add_argument("--k", type=int)
    src.add_argument("--delta")

    p = _Parser(
        prog="mdslab",
        description="Build, classify, and search a family of gapped "
                    "evaluation codes over small finite fields.")
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("construct", parents=[out, src],
                        help="print a generator matrix")
    pc.add_argument("--which", choices=tuple(FAMILIES), default="gk")
    pc.add_argument("--tau", help="g2 only")
    pc.add_argument("--pi", help="g2 only")
    pc.add_argument("--parity-check", action="store_true",
                    help="also print the parity-check matrix (gk only)")
    pc.set_defaults(func=cmd_construct)

    for name, func, help_text in (
            ("classify", cmd_classify, "distances, defects, and class of a code"),
            ("schur", cmd_schur, "GRS consistency screen via Schur squares")):
        pl = sub.add_parser(name, parents=[out, src], help=help_text)
        pl.add_argument("--matrix", help="raw generator, rows ';' entries ','")
        pl.set_defaults(func=func)

    pr = sub.add_parser("search", parents=[_output_flags("text", "json", "csv")],
                        help="sweep (A, k, delta) space and report classes")
    pr.add_argument("--field", help="field spec, e.g. gf(7) or gf(2^3):1,1,0,1")
    pr.add_argument("--n", type=int, required=True)
    pr.add_argument("--k", default="all", help="single value or range a-b")
    pr.add_argument("--delta", default="all", help="'all' or explicit list")
    pr.add_argument("--points", action="append",
                    help="explicit node set; repeatable")
    pr.add_argument("--sample", type=int,
                    help="random node-set sample of this size (seeded)")
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--filter", default="any",
                    choices=("any",) + CODE_CLASSES)
    pr.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    pr.add_argument("--jobs", type=int, default=1)
    pr.set_defaults(func=cmd_search)

    pv = sub.add_parser("verify", parents=[out], help="run invariant sweeps")
    pv.add_argument("suite", choices=SUITE_NAMES + ("all",))
    pv.add_argument("--quick", action="store_true")
    pv.add_argument("--max-n", type=int, default=None)
    pv.add_argument("--orders", help="field orders for the sweep, e.g. 4,5,7")
    pv.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SearchMismatchError as e:
        return _fail(e, 1)
    except (FieldError, ValueError, OSError, BudgetExceededError) as e:
        return _fail(e, 2)
    except Exception as e:  # a bug, not a counterexample: never exit 1
        where = traceback.extract_tb(e.__traceback__)[-1]
        return _fail(f"unexpected {type(e).__name__} at "
                     f"{Path(where.filename).name}:{where.lineno}: {e}", 2)


def _fail(message, status: int) -> int:
    """One-line error on stderr; returns the exit status."""
    print("error: " + " ".join(str(message).splitlines()), file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
