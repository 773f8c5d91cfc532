"""Experiment front end: flat-spec parsing, runs, sweeps, audits, selftest.

Spec grammar (the leading tag is optional on the CLI):
  space     lp:p=<real>,n=<int>
  dict      dict:<kind>,N=<int>,seed=<int>
  target    target:a1,k=<int>,seed=<int>
            target:a1dense,seed=<int>
            target:noisy,k=<int>,eps=<real>,seed=<int>
  weakness  const:<t> | pow:<t0>,<a> | list:<v>,<v>,...
  errors    err:delta=<spec>,eta=<spec>,eps=derived|list:<...>[,seed=<int>]
            with <spec> one of const:<v> | pow:<c>,<a> | prop72auto | list:...

Exit codes: 0 on success / all checks passing, 1 on any audit failure,
2 on usage errors.  LPGREEDY_OUT_DIR, when set, re-roots relative output
paths (the only environment override).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .algorithms import (AWBGA_IDS, RunReport, WeaknessSchedule, run_greedy,
                         run_id)
from .diagnostics import (BOUND_IDS, BoundSpec, audit_conditions, bound_curve,
                          error_reduction_margins, verify_rates)
from .dictionary import TargetSpec, build_dictionary, make_target
from .perturbation import ErrorSchedule, SequenceSpec
from .space import LpSpace, lp_space

CSV_HEADER = ("m,algo,residual_norm,gs_lhs,gs_rhs,bo_abs,er_reference,"
              "t_m,delta_m,eta_m,eps_m,bound_cor52,wall_ns")


def _strip_tag(spec: str, tag: str) -> str:
    return spec[len(tag):] if spec.startswith(tag) else spec


def _out_path(path: str) -> Path:
    """Relative outputs land under LPGREEDY_OUT_DIR when it is set."""
    p = Path(path)
    root = os.environ.get("LPGREEDY_OUT_DIR")
    if root and not p.is_absolute():
        p = Path(root) / p
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _fields(body: str) -> list:
    """Split on commas, re-attaching tokens that lack '=' to the previous
    field (so pow:<c>,<a> and list:... survive the comma split)."""
    out = []
    for tok in body.split(","):
        if "=" in tok or not out:
            out.append(tok)
        else:
            out[-1] = out[-1] + "," + tok
    return out


def _kv(fields: list, spec: str, keys: tuple) -> dict:
    """key=value fields as a dict; a key outside ``keys``, or one given
    twice, is a usage error naming the ``spec`` it came from."""
    d = {}
    for f in fields:
        if "=" not in f:
            raise ValueError(f"malformed field {f!r}: expected key=value")
        k, v = (x.strip() for x in f.split("=", 1))
        if k in d:
            raise ValueError(f"spec {spec!r} gives field {k!r} twice")
        d[k] = v
    unknown = [k for k in d if k not in keys]
    if unknown:
        raise ValueError(f"spec {spec!r} has unknown field(s) {unknown}; "
                         f"expected {list(keys)}")
    return d


# accepted fields of each target mode, and the form of its spec
_TARGET_KEYS = {"a1": ("k", "seed"), "a1dense": ("seed",),
                "noisy": ("k", "eps", "seed")}
_TARGET_FORMS = {"a1": "target:a1,k=<int>,seed=<int>",
                 "a1dense": "target:a1dense,seed=<int>",
                 "noisy": "target:noisy,k=<int>,eps=<real>,seed=<int>"}
_SPACE_FORM = "lp:p=<real>,n=<int>"
_DICT_FORM = "dict:<kind>,N=<int>,seed=<int>"
_ERRORS_FORM = "err:delta=<spec>,eta=<spec>,eps=derived|list:<...>[,seed=<int>]"


def parse_space(spec: str) -> LpSpace:
    kv = _kv(_fields(_strip_tag(spec, "lp:")), spec, ("p", "n"))
    try:
        return lp_space(p=_number(kv["p"], spec, _SPACE_FORM),
                        n=_number(kv["n"], spec, _SPACE_FORM, int))
    except KeyError as e:
        raise ValueError(f"space spec {spec!r} missing field {e}") from e


def parse_dict_spec(spec: str) -> tuple:
    """(kind, N, seed); N is None when omitted, which means N = n."""
    body = _fields(_strip_tag(spec, "dict:"))
    kind = body[0]
    kv = _kv(body[1:], spec, ("N", "seed"))
    size = _number(kv["N"], spec, _DICT_FORM, int) if "N" in kv else None
    if size is not None and size < 1:
        raise ValueError(f"dictionary size N must be positive, got {size}")
    return kind, size, _number(kv.get("seed", "0"), spec, _DICT_FORM, int)


def parse_target_spec(spec: str) -> TargetSpec:
    body = _fields(_strip_tag(spec, "target:"))
    mode = body[0]
    if mode not in _TARGET_KEYS:
        raise ValueError(f"unknown target mode {mode!r}")
    kv = _kv(body[1:], spec, _TARGET_KEYS[mode])
    form = _TARGET_FORMS[mode]
    seed = _number(kv.get("seed", "0"), spec, form, int)
    try:
        if mode == "a1":
            return TargetSpec(mode="a1_sparse",
                              k=_number(kv["k"], spec, form, int), seed=seed)
        if mode == "a1dense":
            return TargetSpec(mode="a1_dense", seed=seed)
        return TargetSpec(mode="general_plus_noise",
                          k=_number(kv["k"], spec, form, int),
                          eps=_number(kv["eps"], spec, form), seed=seed)
    except KeyError as e:
        raise ValueError(f"target spec {spec!r} missing field {e}") from e


_LIST_FORM = "list:<v>,<v>,..."


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


def _number(text: str, spec: str, form: str, kind: type = float):
    """One number field of ``spec``, read by ``kind``, or a usage error."""
    return _numbers(text, spec, form, 1, kind)[0]


def parse_weakness(spec: str) -> WeaknessSchedule:
    kind, _, rest = spec.partition(":")
    if kind == "const":
        t0, = _numbers(rest, spec, "const:<t>", 1)
        return WeaknessSchedule(kind="constant", t0=t0)
    if kind == "pow":
        t0, a = _numbers(rest, spec, "pow:<t0>,<a>", 2)
        return WeaknessSchedule(kind="power_decay", t0=t0, exponent=a)
    if kind == "list":
        vals = _numbers(rest, spec, _LIST_FORM)
        return WeaknessSchedule(kind="explicit_list", t0=vals[0] or 1.0,
                                values=vals)
    raise ValueError(f"unknown weakness spec {spec!r}")


def _parse_sequence(spec: str) -> SequenceSpec:
    kind, _, rest = spec.partition(":")
    if kind == "const":
        c, = _numbers(rest, spec, "const:<v>", 1)
        return SequenceSpec(kind="const", c=c)
    if kind == "pow":
        c, a = _numbers(rest, spec, "pow:<c>,<a>", 2)
        return SequenceSpec(kind="pow", c=c, a=a)
    if kind == "prop72auto":
        return SequenceSpec(kind="prop72auto")
    if kind == "list":
        return SequenceSpec(kind="list", values=_numbers(rest, spec, _LIST_FORM))
    raise ValueError(f"unknown error sequence spec {spec!r}")


def parse_errors(spec: str) -> ErrorSchedule:
    kv = _kv(_fields(_strip_tag(spec, "err:")), spec,
             ("delta", "eta", "eps", "seed"))
    eps = kv.get("eps", "derived")
    if eps == "derived":
        eps_mode, eps_values = "derived", None
    elif eps.startswith("list:"):
        eps_mode = "list"
        eps_values = _numbers(eps[5:], eps, _LIST_FORM)
    else:
        raise ValueError(f"unknown eps mode {eps!r}")
    try:
        delta, eta = kv["delta"], kv["eta"]
    except KeyError as e:
        raise ValueError(f"error spec {spec!r} missing field {e}") from e
    return ErrorSchedule(delta=_parse_sequence(delta), eta=_parse_sequence(eta),
                         eps_mode=eps_mode, eps_values=eps_values,
                         seed=_number(kv.get("seed", "0"), spec, _ERRORS_FORM,
                                      int))


@dataclass
class ExperimentConfig:
    """One run's flat configuration: the spec strings of the CLI."""

    space: str
    dict_spec: str
    target: str
    algorithm: str
    weakness: str = "const:1.0"
    errors: Optional[str] = None
    max_m: int = 100
    stop_tol: float = 1e-12
    rule: str = "exact_argmax"

    def validate(self) -> tuple:
        """Check every field; returns what the specs parse to: (space,
        (kind, N, seed), TargetSpec, WeaknessSchedule, ErrorSchedule or
        None)."""
        approximate = run_id(self.algorithm.lower())[1]
        if self.errors and not approximate:
            raise ValueError(f"error schedules apply to {'/'.join(AWBGA_IDS)} only")
        if approximate and not self.errors:
            raise ValueError("approximate algorithms need an --errors schedule")
        parsed = (parse_space(self.space), parse_dict_spec(self.dict_spec),
                  parse_target_spec(self.target), parse_weakness(self.weakness),
                  parse_errors(self.errors) if self.errors else None)
        if self.rule not in ("exact_argmax", "threshold_first"):
            raise ValueError(f"unknown selection rule {self.rule!r}")
        if self.max_m < 1:
            raise ValueError(f"max_m (--iters) must be at least 1, got {self.max_m}")
        if not (math.isfinite(self.stop_tol) and self.stop_tol >= 0.0):
            raise ValueError(f"stop_tol (--stop-tol) must be finite and "
                             f"nonnegative, got {self.stop_tol}")
        return parsed


def execute(config: ExperimentConfig) -> RunReport:
    """Run one experiment described by a config, deterministically."""
    space, (kind, size, dseed), tspec, tau, errs = config.validate()
    D = build_dictionary(space, kind, space.n if size is None else size, dseed)
    target = make_target(D, tspec)
    return run_greedy(run_id(config.algorithm.lower())[0], target.f, D, tau,
                      errors=errs, max_m=config.max_m,
                      stop_tol=config.stop_tol, rule=config.rule, target=target)


def emit_csv(report: RunReport, path: str, timings: bool = False) -> None:
    """One row per iteration, 17 significant digits, byte-deterministic.

    The wall-clock column is written as 0 unless ``timings`` is requested;
    true timings always remain in the JSON report.
    """
    bounds = (bound_curve(BoundSpec.from_report("cor52", report), report)
              if report.records else np.array([]))
    lines = [CSV_HEADER]
    for i, r in enumerate(report.records):
        vals = [f"{r.m}", report.algorithm]
        for x in (r.residual_norm, r.gs_lhs, r.gs_rhs, r.bo_abs,
                  r.er_reference, r.t_m, r.delta_m, r.eta_m, r.eps_m,
                  float(bounds[i])):
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
            vals = []
            for rep in reps:
                if rep.records:
                    idx = min(c, len(rep.records)) - 1
                    vals.append(rep.records[idx].residual_norm)
            cols.append(f"{np.median(vals):.2e}" if vals else "    -   ")
        tight = []
        for rep in reps:
            if rep.target_meta.get("in_hull") and rep.records:
                spec = BoundSpec.from_report("cor52", rep)
                b = bound_curve(spec, rep)
                tight.extend((rep.residual_norms() / b).tolist())
        if tight:
            q1, q2, q3 = np.percentile(tight, [25, 50, 75])
            tcol = f"{q1:.2f}/{q2:.2f}/{q3:.2f}"
        else:
            tcol = "      -       "
        fails = sum(0 if audit_conditions(rep).passed else 1 for rep in reps)
        lines.append(f"{algo:<7s} {len(reps):<4d} " + " ".join(cols)
                     + f"  {tcol}  {fails}")
    return "\n".join(lines)


def _config(args: argparse.Namespace, algorithm: str,
            target: str) -> ExperimentConfig:
    """The config of one run from the options ``_add_spec_options`` adds."""
    return ExperimentConfig(
        space=args.space, dict_spec=args.dict, target=target,
        algorithm=algorithm, weakness=args.weakness, errors=args.errors,
        max_m=args.iters, stop_tol=args.stop_tol, rule=args.rule)


def _cmd_run(args: argparse.Namespace) -> int:
    report = execute(_config(args, args.algo, args.target))
    out = _out_path(args.out)
    emit_csv(report, out, timings=args.timings)
    out.with_suffix(".json").write_text(report.to_json())
    last = report.records[-1].residual_norm if report.records else 0.0
    print(f"{report.algorithm}: m={len(report.records)} residual={last:.6e} "
          f"termination={report.termination}")
    print(f"wrote {out} and {out.with_suffix('.json')}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    seeds = _numbers(args.seeds, args.seeds, "--seeds <int>,<int>,...", 0, int)
    parse_target_spec(args.target)  # a bad mode raises before _TARGET_KEYS
    body = _fields(_strip_tag(args.target, "target:"))
    kv = _kv(body[1:], args.target, _TARGET_KEYS[body[0]])
    runs = []
    for algo in args.algos.split(","):
        for seed in seeds:
            # the target spec with this sweep instance's seed
            kv["seed"] = str(seed)
            tspec = "target:" + ",".join([body[0]] + [f"{k}={v}"
                                                      for k, v in kv.items()])
            config = _config(args, algo, tspec)
            config.validate()  # every usage error before the first run
            runs.append((algo, seed, config))
    out_dir = _out_path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    reports = []
    for algo, seed, config in runs:
        report = execute(config)
        stem = out_dir / f"{algo}_k{report.target_meta['k']}_s{seed}"
        emit_csv(report, stem.with_suffix(".csv"))
        stem.with_suffix(".json").write_text(report.to_json())
        reports.append(report)
    print(summarize(reports))
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    ok = True
    for path in args.reports:
        report = RunReport.from_json(Path(path).read_text())
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
            margins = error_reduction_margins(report)
            worst = min(margins) if margins else 0.0
            passed = worst >= -1e-6
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
