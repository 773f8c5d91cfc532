"""Experiment front end: flat-spec parsing, runs, sweeps, audits, selftest.

Specs take two shapes, one reader each.  key=value (leading tag optional):
  space     lp:p=<real>,n=<int>
  dict      dict:<kind>,N=<int>,seed=<int>
  target    target:a1,k=<int>,seed=<int> | target:a1dense,seed=<int>
            | target:noisy,k=<int>,eps=<real>,seed=<int>
  errors    err:delta=<seq>,eta=<seq>,eps=<eps>[,seed=<int>]
<kind>:<v>,..., with as many values as the kind's form shows:
  weakness  const:<t> | pow:<t0>,<a> | list:<v>,<v>,...
  <seq>     const:<v> | pow:<c>,<a> | prop72auto | list:<v>,<v>,...
  <eps>     derived | list:<v>,<v>,...

``run`` and ``sweep`` share one path.  ``_specs`` pairs each algorithm name
with ``--errors``, parses each spec once and builds the dictionary and the
targets; each run then calls ``run_greedy``, which checks the run options
(--rule, --iters, --stop-tol) before its first step.  So every usage error
comes before the first output file is written.

Exit codes: 0 on success / all checks passing, 1 on any audit failure,
2 on usage errors.  LPGREEDY_OUT_DIR, when set, re-roots relative output
paths (the only environment override).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .algorithms import (AWBGA_IDS, RunReport, WeaknessSchedule, run_greedy,
                         run_id)
from .diagnostics import (BOUND_IDS, DEFAULT_COND_TOLS, BoundSpec,
                          _worst_margin, audit_conditions, bound_curve,
                          error_reduction_margins, verify_rates)
from .dictionary import TargetSpec, build_dictionary, make_target
from .perturbation import ErrorSchedule, SequenceSpec
from .space import LpSpace, lp_space

CSV_HEADER = ("m,algo,residual_norm,gs_lhs,gs_rhs,bo_abs,er_reference,"
              "t_m,delta_m,eta_m,eps_m,bound_cor52,wall_ns")


def _out_path(path: str) -> Path:
    """Relative outputs land under LPGREEDY_OUT_DIR when it is set."""
    p = Path(path)
    root = os.environ.get("LPGREEDY_OUT_DIR")
    if root and not p.is_absolute():
        p = Path(root) / p
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _fields(spec: str, tag: str) -> list:
    """The comma-separated fields of ``spec`` after its optional ``tag``; a
    token without '=' rejoins the field before it, as in pow:<c>,<a>."""
    body = spec[len(tag):] if spec.startswith(tag) else spec
    out = []
    for tok in body.split(","):
        if "=" in tok or not out:
            out.append(tok)
        else:
            out[-1] = out[-1] + "," + tok
    return out


_REQUIRED = object()  # the default of a field that a spec must give


def _read_kv(spec: str, fields: list, what: str, table: dict,
             form: str) -> dict:
    """The key=value ``fields`` of the ``what`` spec ``spec``, each read as
    its ``table`` row (reader, default) says, by int, float or a parser of
    the text.  An unknown, repeated or missing field, or a number off the
    spec's ``form``, is a usage error."""
    given = {}
    for f in fields:
        if "=" not in f:
            raise ValueError(f"malformed field {f!r}: expected key=value")
        k, v = (x.strip() for x in f.split("=", 1))
        if k in given:
            raise ValueError(f"spec {spec!r} gives field {k!r} twice")
        given[k] = v
    unknown = [k for k in given if k not in table]
    if unknown:
        raise ValueError(f"spec {spec!r} has unknown field(s) {unknown}; "
                         f"expected {list(table)}")
    values = {}
    for k, (read, default) in table.items():
        if k not in given:
            if default is _REQUIRED:
                raise ValueError(f"{what} spec {spec!r} missing field {k!r}")
            values[k] = default
        elif read in (int, float):
            values[k], = _numbers(given[k], spec, form, 1, read)
        else:
            values[k] = read(given[k])
    return values


def _numbers(text: str, spec: str, form: str, count: int = 0,
             kind: type = float) -> tuple:
    """The comma-separated numbers of ``text``, each read by ``kind``
    (float or int): exactly ``count`` of them, or at least one when
    ``count`` is 0.  Anything else is a usage error naming the ``spec`` and
    the ``form`` it should take."""
    try:
        vals = tuple(kind(v) for v in text.split(","))
    except ValueError:
        vals = ()
    if not vals or (count and len(vals) != count):
        raise ValueError(f"spec {spec!r} does not match the form {form}")
    return vals


def _read_sequence(spec: str, forms: dict, what: str) -> tuple:
    """(kind, values) of a ``<kind>:<v>,...`` spec, its kind a key of
    ``forms``.  A kind's form gives its number of values: one per <...>,
    one or more if it ends in "...", none if it has no ':'."""
    kind, colon, rest = spec.partition(":")
    if kind not in forms:
        raise ValueError(f"unknown {what} {spec!r}")
    form = forms[kind]
    if ":" not in form:
        if colon:
            raise ValueError(f"spec {spec!r} does not match the form {form}")
        return kind, ()
    count = 0 if form.endswith("...") else form.count("<")
    return kind, _numbers(rest, spec, form, count)


# each key=value spec: its name, its fields with their (reader, default),
# and its form
_SPACE = ("space", {"p": (float, _REQUIRED), "n": (int, _REQUIRED)},
          "lp:p=<real>,n=<int>")
_DICT = ("dict", {"N": (int, None), "seed": (int, 0)},
         "dict:<kind>,N=<int>,seed=<int>")
# each target mode: its TargetSpec mode, its fields and its form
_TARGETS = {
    "a1": ("a1_sparse", {"k": (int, _REQUIRED), "seed": (int, 0)},
           "target:a1,k=<int>,seed=<int>"),
    "a1dense": ("a1_dense", {"seed": (int, 0)}, "target:a1dense,seed=<int>"),
    "noisy": ("general_plus_noise",
              {"k": (int, _REQUIRED), "eps": (float, _REQUIRED),
               "seed": (int, 0)},
              "target:noisy,k=<int>,eps=<real>,seed=<int>")}

# each <kind>:<v>,... spec: the form of each of its kinds
_LIST_FORM = "list:<v>,<v>,..."
_WEAKNESS_FORMS = {"const": "const:<t>", "pow": "pow:<t0>,<a>",
                   "list": _LIST_FORM}
_SEQUENCE_FORMS = {"const": "const:<v>", "pow": "pow:<c>,<a>",
                   "prop72auto": "prop72auto", "list": _LIST_FORM}
_EPS_FORMS = {"derived": "derived", "list": _LIST_FORM}


def parse_space(spec: str) -> LpSpace:
    return lp_space(**_read_kv(spec, _fields(spec, "lp:"), *_SPACE))


def parse_dict_spec(spec: str) -> tuple:
    """(kind, N, seed); N is None when omitted, which means N = n."""
    kind, *fields = _fields(spec, "dict:")
    kv = _read_kv(spec, fields, *_DICT)
    size, seed = kv["N"], kv["seed"]
    if size is not None and size < 1:
        raise ValueError(f"dictionary size N must be positive, got {size}")
    if seed < 0:
        raise ValueError(f"dictionary seed must be nonnegative, got {seed}")
    return kind, size, seed


def parse_target_spec(spec: str) -> TargetSpec:
    mode, *fields = _fields(spec, "target:")
    if mode not in _TARGETS:
        raise ValueError(f"unknown target mode {mode!r}")
    spec_mode, table, form = _TARGETS[mode]
    return TargetSpec(mode=spec_mode,
                      **_read_kv(spec, fields, "target", table, form))


def parse_weakness(spec: str) -> WeaknessSchedule:
    kind, vals = _read_sequence(spec, _WEAKNESS_FORMS, "weakness spec")
    if kind == "list":
        return WeaknessSchedule(kind="explicit_list", t0=vals[0] or 1.0,
                                values=vals)
    # const:<t0> or pow:<t0>,<exponent>
    return WeaknessSchedule({"const": "constant", "pow": "power_decay"}[kind],
                            *vals)


def _parse_sequence(spec: str) -> SequenceSpec:
    kind, vals = _read_sequence(spec, _SEQUENCE_FORMS, "error sequence spec")
    if kind == "list":
        return SequenceSpec(kind="list", values=vals)
    return SequenceSpec(kind, *vals)  # const:<c>, pow:<c>,<a> or prop72auto


def _parse_eps(spec: str) -> tuple:
    """(eps_mode, eps_values) of the eps= field of an error spec."""
    mode, vals = _read_sequence(spec, _EPS_FORMS, "eps mode")
    return mode, vals or None


_ERRORS = ("error", {"delta": (_parse_sequence, _REQUIRED),
                     "eta": (_parse_sequence, _REQUIRED),
                     "eps": (_parse_eps, ("derived", None)),
                     "seed": (int, 0)},
           "err:delta=<spec>,eta=<spec>,eps=derived|list:<...>[,seed=<int>]")


def parse_errors(spec: str) -> ErrorSchedule:
    kv = _read_kv(spec, _fields(spec, "err:"), *_ERRORS)
    eps_mode, eps_values = kv["eps"]
    return ErrorSchedule(delta=kv["delta"], eta=kv["eta"], eps_mode=eps_mode,
                         eps_values=eps_values, seed=kv["seed"])


def _specs(args: argparse.Namespace, names: list,
           seeds: tuple = None) -> tuple:
    """(weakness, dictionary, runs, targets) of the spec options that
    ``_add_spec_options`` adds: one (id, errors) pair per algorithm name of
    ``names``, and one target per seed of ``seeds``, the target spec's own
    seed when None.  Each spec is parsed once, after every name is paired
    with ``--errors``; the run options are left to ``run_greedy``."""
    ids = []
    for name in names:
        algorithm, approximate = run_id(name.lower())
        if args.errors and not approximate:
            raise ValueError(f"error schedules apply to {'/'.join(AWBGA_IDS)} only")
        if approximate and not args.errors:
            raise ValueError("approximate algorithms need an --errors schedule")
        ids.append(algorithm)
    space = parse_space(args.space)
    kind, size, dseed = parse_dict_spec(args.dict)
    tspec = parse_target_spec(args.target)
    tau = parse_weakness(args.weakness)
    errors = parse_errors(args.errors) if args.errors else None
    D = build_dictionary(space, kind, space.n if size is None else size, dseed)
    tspecs = ([tspec] if seeds is None
              else [replace(tspec, seed=s) for s in seeds])
    return (tau, D, [(algorithm, errors) for algorithm in ids],
            [make_target(D, t) for t in tspecs])


def emit_csv(report: RunReport, path: str, timings: bool = False) -> None:
    """One row per iteration, 17 significant digits, byte-deterministic.

    The wall-clock column is written as 0 unless ``timings`` is requested;
    true timings always remain in the JSON report.
    """
    spec = BoundSpec.from_report("cor52", report)
    bounds = bound_curve(spec, report).tolist()
    lines = [CSV_HEADER]
    for r, bound in zip(report.records, bounds):
        vals = [f"{r.m}", report.algorithm]
        for x in (r.residual_norm, r.gs_lhs, r.gs_rhs, r.bo_abs,
                  r.er_reference, r.t_m, r.delta_m, r.eta_m, r.eps_m, bound):
            vals.append(f"{x:.17g}")
        vals.append(str(r.wall_ns if timings else 0))
        lines.append(",".join(vals))
    Path(path).write_text("\n".join(lines) + "\n")


def summarize(reports: list) -> str:
    """Per-algorithm medians at checkpoints, tightness quartiles, failures."""
    if not reports:
        raise ValueError("nothing to summarize")
    checkpoints = (10, 25, 50, 100)
    by_algo: dict = {}
    for rep in reports:
        by_algo.setdefault(rep.algorithm, []).append(rep)
    head = ("algo    runs " + " ".join(f"med@{c:<4d}" for c in checkpoints)
            + "  tight q1/q2/q3   fails")
    lines = [head]
    for algo in sorted(by_algo):
        reps = by_algo[algo]
        cols = []
        for c in checkpoints:
            vals = [rep.records[min(c, len(rep.records)) - 1].residual_norm
                    for rep in reps if rep.records]
            cols.append(f"{np.median(vals):.2e}" if vals else "    -   ")
        tight = []
        for rep in reps:
            if rep.target_meta.get("in_hull") and rep.records:
                b = bound_curve(BoundSpec.from_report("cor52", rep), rep)
                tight.extend((rep.residual_norms() / b).tolist())
        tcol = ("/".join(f"{q:.2f}" for q in np.percentile(tight, [25, 50, 75]))
                if tight else "      -       ")
        fails = sum(0 if audit_conditions(rep).passed else 1 for rep in reps)
        lines.append(f"{algo:<7s} {len(reps):<4d} " + " ".join(cols)
                     + f"  {tcol}  {fails}")
    return "\n".join(lines)


def _cmd_run(args: argparse.Namespace) -> int:
    tau, D, [(algorithm, errors)], [target] = _specs(args, [args.algo])
    report = run_greedy(algorithm, target.f, D, tau, errors=errors,
                        max_m=args.iters, stop_tol=args.stop_tol,
                        rule=args.rule, target=target)
    out = _out_path(args.out)
    emit_csv(report, out, timings=args.timings)
    out.with_suffix(".json").write_text(report.to_json())
    last = report.records[-1].residual_norm if report.records else 0.0
    print(f"{report.algorithm}: m={len(report.records)} residual={last:.6e} "
          f"termination={report.termination}")
    print(f"wrote {out} and {out.with_suffix('.json')}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    # every usage error, the dictionary and each seed's target come before
    # the first run, and that run's checks of the run options before the
    # output directory; the target spec's seed is replaced by each seed
    seeds = _numbers(args.seeds, args.seeds, "--seeds <int>,<int>,...", 0, int)
    algos = args.algos.lower().split(",")
    for option, vals in (("--algos", algos), ("--seeds", seeds)):
        twice = [v for i, v in enumerate(vals) if v in vals[:i]]
        if twice:
            raise ValueError(f"{option} gives {twice[0]!r} twice")
    tau, D, runs, targets = _specs(args, algos, seeds)
    reports = []
    for algorithm, errors in runs:
        for seed, target in zip(seeds, targets):
            report = run_greedy(algorithm, target.f, D, tau, errors=errors,
                                max_m=args.iters, stop_tol=args.stop_tol,
                                rule=args.rule, target=target)
            k = report.target_meta["k"]
            # _out_path creates --out-dir, so not before a run has returned
            stem = _out_path(os.path.join(
                args.out_dir, f"{report.algorithm}_k{k}_s{seed}"))
            emit_csv(report, stem.with_suffix(".csv"))
            stem.with_suffix(".json").write_text(report.to_json())
            reports.append(report)
    print(summarize(reports))
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    if args.out and len(args.reports) > 1:
        raise ValueError(f"audit --out takes one report, got {len(args.reports)}")
    # every report is read before the first is audited
    reports = [(p, RunReport.from_json(Path(p).read_text())) for p in args.reports]
    ok = True
    for path, report in reports:
        audit = audit_conditions(report)
        print(f"{path}: conditions {audit.verdict}")
        for c in audit.checks:
            if c.applicable:
                print(f"  {c.name:<18s} {'PASS' if c.passed else 'FAIL':<4s} "
                      f"worst margin {c.worst_margin:+.3e}")
            else:
                print(f"  {c.name:<18s} SKIP ({c.reason})")
        ok = ok and audit.passed
        if report.target_meta.get("certificate"):
            worst = _worst_margin(error_reduction_margins(report))
            passed = worst >= -DEFAULT_COND_TOLS[1]
            ok = ok and passed
            print(f"  error_reduction_rhs {'PASS' if passed else 'FAIL'} "
                  f"worst margin {worst:+.3e}")
        if args.bound:
            for rc in verify_rates(report, args.bound):
                if not rc.applicable:
                    print(f"  bound {rc.bound_id:<8s} SKIP ({rc.reason})")
                    continue
                ok = ok and rc.passed
                print(f"  bound {rc.bound_id:<8s} "
                      f"{'PASS' if rc.passed else 'FAIL'} "
                      f"worst margin {rc.worst_margin:+.3e} "
                      f"tightness {rc.max_tightness:.3f}")
        if args.out:
            _out_path(args.out).write_text(audit.to_json())
    return 0 if ok else 1


def _cmd_selftest(_args: argparse.Namespace) -> int:
    from .selftest import run_all
    results = run_all()
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}  {r.detail}")
    n_fail = sum(1 for r in results if not r.passed)
    print(f"{len(results) - n_fail}/{len(results)} selftest checks passed")
    return 0 if n_fail == 0 else 1


def _add_spec_options(parser: argparse.ArgumentParser) -> None:
    """The eight options ``run`` and ``sweep`` share: the specs of a run."""
    for name in ("--space", "--dict", "--target"):
        parser.add_argument(name, required=True)
    parser.add_argument("--weakness", default="const:1.0")
    parser.add_argument("--errors", default=None)
    parser.add_argument("--iters", type=int, default=100)
    parser.add_argument("--stop-tol", type=float, default=1e-12)
    parser.add_argument("--rule", default="exact_argmax")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="lpgreedy",
                                 description="greedy lp approximation runner")
    sub = ap.add_subparsers(dest="cmd", required=True)

    run = sub.add_parser("run", help="execute one experiment")
    run.add_argument("--algo", required=True)
    _add_spec_options(run)
    run.add_argument("--out", required=True)
    run.add_argument("--timings", action="store_true",
                     help="write real wall clocks into the CSV "
                          "(breaks byte determinism)")
    run.set_defaults(fn=_cmd_run)

    sweep = sub.add_parser("sweep", help="cross algorithms x seeds")
    sweep.add_argument("--algos", required=True)
    sweep.add_argument("--seeds", required=True)
    _add_spec_options(sweep)
    sweep.add_argument("--out-dir", required=True)
    sweep.set_defaults(fn=_cmd_sweep)

    audit = sub.add_parser("audit", help="audit stored JSON reports")
    audit.add_argument("reports", nargs="+")
    audit.add_argument("--bound", action="append", choices=BOUND_IDS,
                       default=None)
    audit.add_argument("--out", default=None)
    audit.set_defaults(fn=_cmd_audit)

    st = sub.add_parser("selftest", help="run the oracle/property suite")
    st.set_defaults(fn=_cmd_selftest)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call of the process.  Parsing
    leaves it unchanged, so every later ``main`` call reuses it."""
    return build_parser()


def main(argv: list = None) -> int:
    ap = _parser()
    try:
        args = ap.parse_args(argv)
        return args.fn(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
