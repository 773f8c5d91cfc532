import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lpgreedy import (BoundSpec, RunReport, build_dictionary, harness,
                      lp_space, make_target, rate_bound, run_greedy, selftest,
                      solvers)
from lpgreedy.algorithms import run_id
from lpgreedy.harness import (CSV_HEADER, emit_csv, main, parse_dict_spec,
                              parse_errors, parse_space, parse_target_spec,
                              parse_weakness, summarize)
from lpgreedy.perturbation import ZERO_ERRORS

RUN_ARGS = ["run", "--algo", "wcga", "--space", "lp:p=2,n=8",
            "--dict", "random_gauss,N=24,seed=7", "--target", "a1,k=3,seed=3",
            "--weakness", "const:1.0", "--iters", "10"]


SRC = Path(__file__).resolve().parents[1] / "src"


def sweep_args(tmp_path, *overrides):
    """A small sweep's arguments, with ``overrides`` as option, value pairs:
    each replaces that option's value, or is appended."""
    args = ["sweep", "--algos", "wcga", "--seeds", "1",
            "--space", "lp:p=2,n=8", "--dict", "random_gauss,N=24,seed=7",
            "--target", "a1,k=3,seed=0", "--iters", "4",
            "--out-dir", str(tmp_path / "sweep")]
    for option, value in zip(overrides[::2], overrides[1::2]):
        if option in args:
            args[args.index(option) + 1] = value
        else:
            args += [option, value]
    return args


def small_run(algorithm="wcga", target="a1,k=3,seed=3", errors=None,
              max_m=10, **options):
    """The run of RUN_ARGS, made by a library user: the named algorithm on
    a target of that spec, ``errors`` the spec of its schedule."""
    D = build_dictionary(lp_space(2.0, 8), "random_gauss", 24, seed=7)
    t = make_target(D, parse_target_spec(target))
    return run_greedy(run_id(algorithm)[0], t.f, D, parse_weakness("const:1.0"),
                      errors=parse_errors(errors) if errors else None,
                      max_m=max_m, target=t, **options)


class TestSpecParsing:
    def test_space_round_trip(self):
        s = parse_space("lp:p=2.5,n=16")
        assert s.p == 2.5 and s.n == 16
        assert parse_space(s.spec_string()).p == 2.5
        assert parse_space("p=3,n=4").p == 3.0  # tag optional

    def test_space_rejects_p_one(self):
        with pytest.raises(ValueError, match="not uniformly smooth"):
            parse_space("lp:p=1,n=8")

    def test_dict_spec(self):
        assert parse_dict_spec("dict:random_gauss,N=256,seed=7") == \
            ("random_gauss", 256, 7)
        assert parse_dict_spec("canonical,N=8,seed=0") == ("canonical", 8, 0)
        assert parse_dict_spec("canonical,seed=2") == ("canonical", None, 2)

    def test_target_specs(self):
        t = parse_target_spec("target:a1,k=16,seed=3")
        assert t.mode == "a1_sparse" and t.k == 16 and t.seed == 3
        t = parse_target_spec("a1dense,seed=2")
        assert t.mode == "a1_dense"
        t = parse_target_spec("target:noisy,k=4,eps=0.05,seed=1")
        assert t.mode == "general_plus_noise" and t.eps == 0.05

    def test_weakness_specs(self):
        assert parse_weakness("const:0.5").value(9) == 0.5
        tau = parse_weakness("pow:1.0,0.5")
        assert tau.value(4) == pytest.approx(0.5)
        tau = parse_weakness("list:1,0.5,0.25")
        assert tau.value(2) == 0.5
        with pytest.raises(ValueError):
            parse_weakness("geometric:0.5")

    def test_error_specs(self):
        errs = parse_errors("err:delta=pow:0.1,1.1,eta=const:0.05,eps=derived,seed=5")
        assert errs.delta.kind == "pow" and errs.delta.c == 0.1
        assert errs.delta.a == 1.1
        assert errs.eta.c == 0.05
        assert errs.eps_mode == "derived" and errs.seed == 5
        errs = parse_errors("delta=prop72auto,eta=prop72auto,eps=list:0.5,0.1")
        assert errs.eps_mode == "list" and errs.eps_values == (0.5, 0.1)

    def test_report_records_the_default_solver(self):
        solver = small_run().solver
        assert solver == {"tol": solvers.TOL, "grad_tol": solvers.GRAD_TOL,
                          "max_iters": solvers.MAX_ITERS}
        assert json.dumps(solver, sort_keys=True) == (
            '{"grad_tol": 1e-10, "max_iters": 500, "tol": 1e-08}')

    @pytest.mark.parametrize("config", [
        RUN_ARGS,
        [a if a != "wcga" else "awcga" for a in RUN_ARGS]
        + ["--weakness", "pow:1.0,0.25",
           "--errors", "err:delta=const:0.1,eta=list:0.1,0.05,eps=derived"]])
    def test_execute_parses_each_spec_once(self, monkeypatch, tmp_path,
                                           config):
        # a run command parses each of its specs once, in this order
        calls = []
        for name in ("parse_space", "parse_dict_spec", "parse_target_spec",
                     "parse_weakness", "parse_errors"):
            def counted(spec, _name=name, _parse=getattr(harness, name)):
                calls.append(_name)
                return _parse(spec)
            monkeypatch.setattr(harness, name, counted)
        assert main(config + ["--out", str(tmp_path / "r.csv")]) == 0
        want = ["parse_space", "parse_dict_spec", "parse_target_spec",
                "parse_weakness"] + (["parse_errors"] if "--errors" in config
                                     else [])
        assert calls == want

    def test_config_validation(self, tmp_path, capsys):
        # the id and --errors pairing is the CLI's; rule and max_m are
        # run_greedy's, checked in test_algorithms.py for every id
        out = tmp_path / "r.csv"
        errors = ["--errors", "err:delta=const:0,eta=const:0,eps=derived"]
        for argv, problem in (
                ([a if a != "wcga" else "omp" for a in RUN_ARGS],
                 "unknown algorithm 'omp'"),
                (RUN_ARGS + errors, "apply to"),
                ([a if a != "wcga" else "arwrga" for a in RUN_ARGS],
                 "need an --errors schedule")):
            assert main(argv + ["--out", str(out)]) == 2
            assert problem in capsys.readouterr().err
            assert not out.exists()


class TestEmitCsv:
    def test_header_and_rows(self, tmp_path):
        rep = small_run(max_m=2, stop_tol=0.0)
        out = tmp_path / "toy.csv"
        emit_csv(rep, out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        assert all(len(line.split(",")) == 13 for line in lines)

    def test_exact_class_zero_error_columns(self, tmp_path):
        rep = small_run()
        out = tmp_path / "r.csv"
        emit_csv(rep, out)
        for line in out.read_text().strip().split("\n")[1:]:
            cols = line.split(",")
            assert cols[8] == "0" and cols[9] == "0" and cols[10] == "0"

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(small_run(), a)
        emit_csv(small_run(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_bound_column_is_the_pointwise_cor52_bound(self, tmp_path):
        # the column comes from one curve per report, and each field must
        # print exactly what the one-point bound prints
        rep = small_run(algorithm="rwrga", errors="err:delta=pow:0.1,1.1,"
                        "eta=pow:0.1,1.1", max_m=12)
        out = tmp_path / "r.csv"
        emit_csv(rep, out)
        spec = BoundSpec.from_report("cor52", rep)
        rows = out.read_text().strip().split("\n")[1:]
        assert len(rows) == len(rep.records) > 1
        for row, r, s in zip(rows, rep.records, rep.partial_tp_sums()):
            assert row.split(",")[11] == f"{rate_bound(spec, r.m, s):.17g}"

    def test_residual_below_bound_column(self, tmp_path):
        rep = small_run(algorithm="rwrga", max_m=8)
        out = tmp_path / "r.csv"
        emit_csv(rep, out)
        for line in out.read_text().strip().split("\n")[1:]:
            cols = line.split(",")
            assert float(cols[2]) <= float(cols[11]) + 1e-9


class TestCli:
    def test_run_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        rc = main(RUN_ARGS + ["--out", str(out)])
        assert rc == 0
        assert out.exists() and out.with_suffix(".json").exists()
        rep = RunReport.from_json(out.with_suffix(".json").read_text())
        assert rep.algorithm == "wcga"
        assert "termination" in capsys.readouterr().out

    def test_run_rejects_non_smooth_space(self, tmp_path, capsys):
        args = list(RUN_ARGS)
        args[args.index("lp:p=2,n=8")] = "lp:p=1,n=8"
        rc = main(args + ["--out", str(tmp_path / "r.csv")])
        assert rc == 2
        assert "not uniformly smooth" in capsys.readouterr().err

    def test_audit_passes_on_good_report(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        main(RUN_ARGS + ["--out", str(out)])
        rc = main(["audit", str(out.with_suffix(".json")),
                   "--bound", "cor52", "--bound", "thm52"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "conditions PASS" in text and "tightness" in text

    def test_audit_fails_on_tampered_report(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        main(RUN_ARGS + ["--out", str(out)])
        blob = json.loads(out.with_suffix(".json").read_text())
        blob["records"][0]["gs_lhs"] = blob["records"][0]["gs_rhs"] - 0.5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(blob))
        rc = main(["audit", str(bad)])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_audit_fails_on_nan_in_a_later_record(self, tmp_path, capsys):
        # a NaN margin fails wherever it sits, not only in the first record
        out = tmp_path / "r.csv"
        main(RUN_ARGS + ["--out", str(out)])
        blob = json.loads(out.with_suffix(".json").read_text())
        blob["records"][2]["residual_norm"] = float("nan")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(blob))
        assert main(["audit", str(bad)]) == 1
        assert ("error_reduction_rhs FAIL worst margin +nan"
                in capsys.readouterr().out)

    @pytest.mark.parametrize("timings", [True, False])
    def test_run_timings_fill_the_wall_clock_column(self, tmp_path, timings):
        out = tmp_path / "r.csv"
        flag = ["--timings"] if timings else []
        assert main(RUN_ARGS + flag + ["--out", str(out)]) == 0
        rows = out.read_text().strip().split("\n")
        assert rows[0].split(",")[-1] == "wall_ns"
        csv_ns = [int(row.split(",")[-1]) for row in rows[1:]]
        records = json.loads(out.with_suffix(".json").read_text())["records"]
        if timings:
            assert csv_ns == [r["wall_ns"] for r in records]
            assert all(ns > 0 for ns in csv_ns)
        else:
            assert csv_ns == [0] * len(records)

    def test_audit_missing_file(self, capsys):
        rc = main(["audit", "/nonexistent/report.json"])
        assert rc == 2

    def test_run_target_missing_field_is_usage_error(self, tmp_path, capsys):
        args = list(RUN_ARGS)
        args[args.index("a1,k=3,seed=3")] = "a1,seed=3"
        rc = main(args + ["--out", str(tmp_path / "r.csv")])
        assert rc == 2
        assert "missing field 'k'" in capsys.readouterr().err

    def test_run_errors_missing_field_is_usage_error(self, tmp_path, capsys):
        rc = main(["run", "--algo", "awcga", "--space", "lp:p=2,n=8",
                   "--dict", "random_gauss,N=24,seed=7",
                   "--target", "a1,k=3,seed=3", "--errors", "err:eta=const:0",
                   "--iters", "3", "--out", str(tmp_path / "a.csv")])
        assert rc == 2
        assert "missing field 'delta'" in capsys.readouterr().err

    def test_audit_unknown_algorithm_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        main(RUN_ARGS + ["--out", str(out)])
        blob = json.loads(out.with_suffix(".json").read_text())
        blob["algorithm"] = "zzz"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(blob))
        rc = main(["audit", str(bad)])
        assert rc == 2
        assert "unknown algorithm 'zzz'" in capsys.readouterr().err

    @pytest.mark.parametrize("blob,problem", [
        ([{"records": []}], "JSON object, not list"),
        ({"algorithm": "wcga"}, "no 'records' list"),
    ])
    def test_audit_malformed_report_is_usage_error(self, tmp_path, capsys,
                                                   blob, problem):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match=problem):
            RunReport.from_json(bad.read_text())
        rc = main(["audit", str(bad)])
        assert rc == 2
        assert problem in capsys.readouterr().err

    @pytest.mark.parametrize("edit,problem", [
        (lambda b: b["records"][0].update(residual_norm="x"),
         "'residual_norm' is not a number"),
        (lambda b: b["space_meta"].pop("q"), "'space_meta' lacks ['q']"),
        (lambda b: b["space_meta"].pop("gamma"),
         "'space_meta' lacks ['gamma']"),
        (lambda b: b["space_meta"].pop("p_conj"),
         "'space_meta' lacks ['p_conj']"),
        (lambda b: b["target_meta"].pop("eps"),
         "'target_meta' lacks ['eps']"),
        (lambda b: b["target_meta"].pop("a_eps"),
         "'target_meta' lacks ['a_eps']"),
        (lambda b: b["weakness"].pop("kind"), "'weakness' lacks ['kind']"),
        (lambda b: b["weakness"].pop("t0"), "'weakness' lacks ['t0']"),
        (lambda b: b["space_meta"].update(q=1), "differs from the constants"),
        (lambda b: b["space_meta"].update(gamma=-1),
         "differs from the constants"),
        (lambda b: b["space_meta"].update(p=1.0), "not uniformly smooth"),
        (lambda b: b["space_meta"].pop("n"), "'space_meta' lacks ['n']"),
        (lambda b: b["weakness"].update(t0=0), "t0 must lie in (0, 1]"),
        (lambda b: b["weakness"].update(exponent="x"),
         "malformed weakness schedule"),
        (lambda b: b.update(initial_residual="x"),
         "['initial_residual'] are not numbers"),
        (lambda b: b.update(max_m=None), "['max_m'] are not numbers"),
        (lambda b: b.update(errors="x"), "malformed error schedule"),
        (lambda b: b.update(errors={"delta": {"kind": "const"}}),
         "malformed error schedule"),
        # a name and errors that disagree would audit under the wrong checks
        (lambda b: b.update(errors=ZERO_ERRORS.as_dict()),
         "report of 'wcga' has errors"),
        (lambda b: b.update(algorithm="awcga"), "report of 'awcga' lacks errors"),
    ])
    def test_audit_malformed_nested_field_is_usage_error(self, tmp_path, capsys,
                                                         edit, problem):
        out = tmp_path / "r.csv"
        main(RUN_ARGS + ["--out", str(out)])
        blob = json.loads(out.with_suffix(".json").read_text())
        assert blob["target_meta"]["certificate"]
        edit(blob)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(blob))
        with pytest.raises(ValueError) as e:
            RunReport.from_json(bad.read_text())
        assert problem in str(e.value)
        rc = main(["audit", str(bad)])
        assert rc == 2
        assert problem in capsys.readouterr().err

    def test_audit_directory_is_usage_error(self, tmp_path, capsys):
        assert main(["audit", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_out_below_a_file_is_usage_error(self, tmp_path, capsys):
        # like --out /dev/null/x.csv: the parent directory cannot be made
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(RUN_ARGS + ["--out", str(blocker / "x.csv")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("option,spec,problem", [
        ("--target", "noisy,k=2,eps=nan,seed=3", "eps must be finite"),
        ("--target", "noisy,k=2,eps=inf,seed=3", "eps must be finite"),
        ("--dict", "random_gauss,N=-3,seed=7", "N must be positive"),
        ("--dict", "random_gauss,N=0,seed=7", "N must be positive"),
        ("--dict", "random_gauss,N=16,sed=5", "unknown field(s) ['sed']"),
        ("--target", "a1,k=2,sed=5", "unknown field(s) ['sed']"),
        ("--target", "a1dense,k=3", "unknown field(s) ['k']"),
        ("--target", "noisy,k=2,eps=0.1,sd=1", "unknown field(s) ['sd']"),
        ("--dict", "random_gauss,N=16,seed=1,seed=2", "field 'seed' twice"),
        ("--space", "lp:p=3,n=8,x=1", "unknown field(s) ['x']"),
        ("--weakness", "pow:0.5,nan", "decay exponent must be finite"),
        ("--weakness", "pow:0.5,inf", "decay exponent must be finite"),
        ("--weakness", "pow:0.5", "does not match the form pow:<t0>,<a>"),
        ("--weakness", "pow:0.5,1,2", "does not match the form pow:<t0>,<a>"),
        ("--weakness", "pow:0.5,x", "does not match the form pow:<t0>,<a>"),
        ("--weakness", "const:", "does not match the form const:<t>"),
        ("--weakness", "list:", "does not match the form list:<v>,<v>,..."),
        ("--weakness", "list:0.5,,1", "does not match the form list:"),
        ("--space", "lp:p=x,n=8",
         "'lp:p=x,n=8' does not match the form lp:p=<real>,n=<int>"),
        ("--target", "noisy,k=3,eps=abc,seed=3",
         "'noisy,k=3,eps=abc,seed=3' does not match the form "
         "target:noisy,k=<int>,eps=<real>,seed=<int>"),
    ])
    def test_bad_spec_number_is_usage_error(self, tmp_path, capsys, option,
                                            spec, problem):
        args = list(RUN_ARGS)
        args[args.index(option) + 1] = spec
        out = tmp_path / "r.csv"
        assert main(args + ["--out", str(out)]) == 2
        assert problem in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("option,spec,form", [
        ("--space", "lp:p=3,n=8x", "lp:p=<real>,n=<int>"),
        ("--dict", "random_gauss,N=1x,seed=7", "dict:<kind>,N=<int>,seed=<int>"),
        ("--dict", "random_gauss,N=24,seed=7.5",
         "dict:<kind>,N=<int>,seed=<int>"),
        ("--target", "a1,k=3,seed=x", "target:a1,k=<int>,seed=<int>"),
        ("--target", "a1,k=three,seed=3", "target:a1,k=<int>,seed=<int>"),
        ("--target", "noisy,k=2.5,eps=0.1,seed=3",
         "target:noisy,k=<int>,eps=<real>,seed=<int>"),
    ])
    def test_integer_fields_name_their_form(self, tmp_path, capsys, option,
                                            spec, form):
        args = list(RUN_ARGS)
        args[args.index(option) + 1] = spec
        assert main(args + ["--out", str(tmp_path / "r.csv")]) == 2
        err = capsys.readouterr().err
        assert f"{spec!r} does not match the form {form}" in err

    def test_error_seed_names_its_form(self, tmp_path, capsys):
        args = [a if a != "wcga" else "awcga" for a in RUN_ARGS]
        args += ["--errors", "err:delta=const:0,eta=const:0,seed=1x",
                 "--out", str(tmp_path / "r.csv")]
        assert main(args) == 2
        assert "[,seed=<int>]" in capsys.readouterr().err

    def test_sweep_seeds_name_their_form(self, tmp_path, capsys):
        rc = main(["sweep", "--algos", "wcga", "--seeds", "1,x",
                   "--space", "lp:p=2,n=8", "--dict", "random_gauss,N=24,seed=7",
                   "--target", "a1,k=3,seed=0", "--iters", "4",
                   "--out-dir", str(tmp_path / "sweep")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'1,x' does not match the form --seeds <int>,<int>,..." in err
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("option,spec,problem", [
        ("--seeds", "1,-1", "target seed must be nonnegative, got -1"),
        ("--dict", "random_gauss,N=24,seed=-5",
         "dictionary seed must be nonnegative, got -5"),
        ("--errors", "err:delta=const:0,eta=const:0,seed=-3",
         "error schedule seed must be nonnegative, got -3")])
    def test_sweep_rejects_negative_seeds(self, tmp_path, capsys, option,
                                          spec, problem):
        # rejected while each spec is parsed, before the output directory
        args = ["sweep", "--algos", "awcga", "--seeds", "1",
                "--space", "lp:p=2,n=8", "--dict", "random_gauss,N=24,seed=7",
                "--target", "a1,k=3,seed=0", "--iters", "4",
                "--errors", "err:delta=const:0,eta=const:0",
                "--out-dir", str(tmp_path / "sweep")]
        args[args.index(option) + 1] = spec
        assert main(args) == 2
        assert problem in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_run_rejects_negative_target_seed(self, tmp_path, capsys):
        args = list(RUN_ARGS)
        args[args.index("--target") + 1] = "a1,k=3,seed=-2"
        out = tmp_path / "run" / "r.csv"
        assert main(args + ["--out", str(out)]) == 2
        assert ("target seed must be nonnegative, got -2"
                in capsys.readouterr().err)
        assert not out.parent.exists()

    def test_noisy_eps_above_one_is_usage_error(self, tmp_path, capsys):
        # the certificate's A(eps) is 1: a report with eps > 1 would fail
        # audit's "certificate requires A(eps) >= eps"; eps = 1 audits
        args, out = list(RUN_ARGS), tmp_path / "r.csv"
        args[args.index("--target") + 1] = "noisy,k=3,eps=2,seed=2"
        assert main(args + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "noisy target eps must be at most 1" in err
        assert "A(eps) >= eps" in err
        assert not out.exists()
        args[args.index("--target") + 1] = "noisy,k=3,eps=1,seed=2"
        assert main(args + ["--out", str(out)]) == 0
        assert main(["audit", str(out.with_suffix(".json"))]) in (0, 1)

    @pytest.mark.parametrize("algos,errors,problem", [
        ("agg,wcga", "err:delta=const:0.01,eta=const:0.01",
         "error schedules apply to"),
        ("wcga,zzz", None, "unknown algorithm 'zzz'")])
    def test_sweep_checks_every_run_before_the_first(self, tmp_path, capsys,
                                                     algos, errors, problem):
        # a usage error in a later algorithm writes no file of an earlier one
        args = ["sweep", "--algos", algos, "--seeds", "1,2",
                "--space", "lp:p=2,n=8", "--dict", "random_gauss,N=24,seed=7",
                "--target", "a1,k=3,seed=0", "--iters", "4",
                "--out-dir", str(tmp_path / "sweep")]
        if errors:
            args += ["--errors", errors]
        assert main(args) == 2
        assert problem in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    def test_sweep_names_dense_targets_by_their_atoms(self, tmp_path):
        # an a1dense target is built on all N atoms: k = N in the file name
        rc = main(["sweep", "--algos", "wcga", "--seeds", "1",
                   "--space", "lp:p=2,n=8", "--dict", "random_gauss,N=24,seed=7",
                   "--target", "a1dense,seed=0", "--iters", "4",
                   "--out-dir", str(tmp_path / "sweep")])
        assert rc == 0
        files = sorted(p.name for p in (tmp_path / "sweep").iterdir())
        assert files == ["wcga_k24_s1.csv", "wcga_k24_s1.json"]
        report = json.loads((tmp_path / "sweep" / files[1]).read_text())
        assert report["target_meta"]["k"] == 24

    @pytest.mark.parametrize("errors,problem", [
        ("err:delta=pow:0.1,eta=const:0", "'pow:0.1' does not match the form "
                                          "pow:<c>,<a>"),
        ("err:delta=pow:0.1,1,2,eta=const:0", "does not match the form "
                                              "pow:<c>,<a>"),
        ("err:delta=const:0,eta=list:", "'list:' does not match the form "
                                        "list:<v>,<v>,..."),
        ("err:delta=const:0,eta=const:0,eps=list:", "does not match the form "
                                                    "list:<v>,<v>,..."),
    ])
    def test_bad_error_numbers_are_usage_errors(self, tmp_path, capsys, errors,
                                                problem):
        out = tmp_path / "a.csv"
        rc = main(["run", "--algo", "awcga", "--space", "lp:p=2,n=8",
                   "--dict", "random_gauss,N=24,seed=7",
                   "--target", "a1,k=3,seed=3", "--errors", errors,
                   "--iters", "3", "--out", str(out)])
        assert rc == 2
        assert problem in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("eps", ["list:nan", "list:0.1,inf", "list:-0.1"])
    def test_bad_eps_list_is_usage_error(self, tmp_path, capsys, eps):
        out = tmp_path / "a.csv"
        rc = main(["run", "--algo", "awcga", "--space", "lp:p=2,n=8",
                   "--dict", "random_gauss,N=24,seed=7",
                   "--target", "a1,k=3,seed=3",
                   "--errors", f"err:delta=const:0,eta=const:0,eps={eps}",
                   "--iters", "3", "--out", str(out)])
        assert rc == 2
        assert "eps list values" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("iters", ["0", "-3"])
    def test_nonpositive_iters_is_usage_error(self, tmp_path, capsys, iters):
        args = list(RUN_ARGS)
        args[args.index("--iters") + 1] = iters
        out = tmp_path / "r.csv"
        assert main(args + ["--out", str(out)]) == 2
        assert "must be at least 1" in capsys.readouterr().err
        assert not out.exists()
        rc = main(["sweep", "--algos", "wcga", "--seeds", "1",
                   "--space", "lp:p=2,n=8", "--dict", "random_gauss,N=24,seed=7",
                   "--target", "a1,k=3,seed=0", "--iters", iters,
                   "--out-dir", str(tmp_path / "sweep")])
        assert rc == 2
        assert not list((tmp_path / "sweep").glob("*.json"))

    @pytest.mark.parametrize("errors", [
        "err:delta=const:2,eta=const:0", "err:delta=const:0,eta=const:-0.5",
        "err:delta=const:nan,eta=const:0", "err:delta=pow:-0.1,1.1,eta=const:0",
        "err:delta=pow:0.1,-1,eta=const:0", "err:delta=const:0,eta=list:0.1,2",
        "err:delta=pow:inf,1,eta=const:0"])
    def test_out_of_range_errors_is_usage_error(self, tmp_path, capsys, errors):
        out = tmp_path / "a.csv"
        rc = main(["run", "--algo", "awcga", "--space", "lp:p=2,n=8",
                   "--dict", "random_gauss,N=24,seed=7",
                   "--target", "a1,k=3,seed=3", "--errors", errors,
                   "--iters", "3", "--out", str(out)])
        assert rc == 2
        assert "sequence" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_error_field_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "a.csv"
        rc = main(["run", "--algo", "awcga", "--space", "lp:p=2,n=8",
                   "--dict", "random_gauss,N=24,seed=7",
                   "--target", "a1,k=3,seed=3",
                   "--errors", "err:delta=const:0,eta=const:0,sed=4",
                   "--iters", "3", "--out", str(out)])
        assert rc == 2
        assert "unknown field(s) ['sed']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_bad_stop_tol_is_usage_error(self, tmp_path, capsys, tol):
        out = tmp_path / "r.csv"
        assert main(RUN_ARGS + ["--stop-tol", tol, "--out", str(out)]) == 2
        assert "stop_tol" in capsys.readouterr().err
        assert not out.exists()
        rc = main(["sweep", "--algos", "wcga", "--seeds", "1",
                   "--space", "lp:p=2,n=8", "--dict", "random_gauss,N=24,seed=7",
                   "--target", "a1,k=3,seed=0", "--stop-tol", tol,
                   "--out-dir", str(tmp_path / "sweep")])
        assert rc == 2

    def test_awbga_run_via_cli(self, tmp_path):
        out = tmp_path / "a.csv"
        rc = main(["run", "--algo", "arwrga", "--space", "lp:p=2,n=8",
                   "--dict", "random_gauss,N=24,seed=7",
                   "--target", "a1,k=3,seed=3",
                   "--errors", "err:delta=pow:0.1,1.1,eta=pow:0.1,1.1,eps=derived",
                   "--iters", "10", "--out", str(out)])
        assert rc == 0
        rep = RunReport.from_json(out.with_suffix(".json").read_text())
        assert rep.errors is not None
        assert rep.records[0].delta_m > 0

    def test_agg_run_and_audit_via_cli(self, tmp_path, capsys):
        # agg is gg under an error schedule; wdga is no WBGA member
        args = ["--space", "lp:p=3,n=8", "--dict", "random_gauss,N=24,seed=7",
                "--target", "a1,k=3,seed=3",
                "--errors", "err:delta=pow:0.1,1.1,eta=pow:0.1,1.1",
                "--iters", "10"]
        out = tmp_path / "agg.csv"
        assert main(["run", "--algo", "agg", *args, "--out", str(out)]) == 0
        rep = RunReport.from_json(out.with_suffix(".json").read_text())
        assert rep.algorithm == "agg" and rep.records[0].delta_m > 0
        assert main(["audit", str(out.with_suffix(".json")),
                     "--bound", "prop72", "--bound", "thm72"]) == 0
        capsys.readouterr()
        assert main(["run", "--algo", "awdga", *args,
                     "--out", str(tmp_path / "awdga.csv")]) == 2
        assert "unknown algorithm 'awdga'" in capsys.readouterr().err

    def test_out_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LPGREEDY_OUT_DIR", str(tmp_path / "rooted"))
        rc = main(RUN_ARGS + ["--out", "sub/r.csv"])
        assert rc == 0
        assert (tmp_path / "rooted" / "sub" / "r.csv").exists()
        assert (tmp_path / "rooted" / "sub" / "r.json").exists()

    def test_sweep_writes_cross_product(self, tmp_path, capsys):
        rc = main(["sweep", "--algos", "wcga,rwrga", "--seeds", "1,2",
                   "--space", "lp:p=2,n=8", "--dict", "random_gauss,N=24,seed=7",
                   "--target", "a1,k=3,seed=0", "--iters", "8",
                   "--out-dir", str(tmp_path / "sweep")])
        assert rc == 0
        files = sorted(p.name for p in (tmp_path / "sweep").glob("*.csv"))
        assert files == ["rwrga_k3_s1.csv", "rwrga_k3_s2.csv",
                         "wcga_k3_s1.csv", "wcga_k3_s2.csv"]
        text = capsys.readouterr().out
        assert "wcga" in text and "rwrga" in text


class TestSweep:
    """``sweep`` parses each spec once, builds the dictionary once and each
    seed's target once, and creates ``--out-dir`` only once the first run
    has returned."""

    @pytest.mark.parametrize("option,spec,problem", [
        ("--dict", "nosuch,N=24,seed=1", "unknown dictionary kind 'nosuch'"),
        ("--dict", "random_gauss,N=4,seed=1",
         "dictionary does not span: size 4 < dimension 8"),
        ("--target", "a1,k=30", "sparsity k=30 out of range")])
    def test_build_errors_leave_no_out_dir(self, tmp_path, capsys, option,
                                           spec, problem):
        assert main(sweep_args(tmp_path, option, spec)) == 2
        assert problem in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("option,values,problem", [
        ("--seeds", "1,2,1", "--seeds gives 1 twice"),
        ("--algos", "wcga,rwrga,WCGA", "--algos gives 'wcga' twice")])
    def test_repeated_runs_are_usage_errors(self, tmp_path, capsys, option,
                                            values, problem):
        assert main(sweep_args(tmp_path, option, values)) == 2
        out, err = capsys.readouterr()
        assert problem in err and out == ""
        assert not (tmp_path / "sweep").exists()

    def test_file_stems_use_the_lower_case_id(self, tmp_path):
        assert main(sweep_args(tmp_path, "--algos", "WCGA,RWRGA")) == 0
        assert sorted(p.name for p in (tmp_path / "sweep").iterdir()) == [
            "rwrga_k3_s1.csv", "rwrga_k3_s1.json",
            "wcga_k3_s1.csv", "wcga_k3_s1.json"]

    def test_one_dictionary_and_one_target_per_seed(self, tmp_path,
                                                    monkeypatch):
        calls = []
        for name in ("parse_space", "parse_dict_spec", "parse_target_spec",
                     "parse_weakness", "parse_errors", "build_dictionary",
                     "make_target"):
            def counted(*args, _name=name, _fn=getattr(harness, name)):
                calls.append((_name, args[1].seed) if _name == "make_target"
                             else _name)
                return _fn(*args)
            monkeypatch.setattr(harness, name, counted)
        assert main(sweep_args(tmp_path, "--algos", "awcga,arwrga",
                               "--seeds", "4,2,9", "--errors",
                               "err:delta=const:0.1,eta=const:0.1")) == 0
        assert calls.count("build_dictionary") == 1
        assert [c[1] for c in calls if c[0] == "make_target"] == [4, 2, 9]
        for name in ("parse_space", "parse_dict_spec", "parse_target_spec",
                     "parse_weakness", "parse_errors"):
            assert calls.count(name) == 1

    def test_writes_what_execute_writes_run_by_run(self, tmp_path, capsys):
        def zero_clocks(text):
            blob = json.loads(text)
            for r in blob["records"]:
                r["wall_ns"] = 0
            return blob

        errors = "err:delta=pow:0.1,1.1,eta=pow:0.1,1.1"
        assert main(sweep_args(tmp_path, "--algos", "awcga,arwrga", "--seeds",
                               "5,3", "--iters", "6", "--errors", errors)) == 0
        summary = capsys.readouterr().out
        reports = []
        for algo in ("awcga", "arwrga"):
            for seed in (5, 3):
                report = small_run(algo, f"a1,k=3,seed={seed}", errors,
                                   max_m=6)
                reports.append(report)
                stem = tmp_path / "sweep" / f"{algo}_k3_s{seed}"
                emit_csv(report, tmp_path / "one.csv")
                assert (stem.with_suffix(".csv").read_bytes()
                        == (tmp_path / "one.csv").read_bytes())
                assert (zero_clocks(stem.with_suffix(".json").read_text())
                        == zero_clocks(report.to_json()))
        assert summary == summarize(reports) + "\n"
        assert len(list((tmp_path / "sweep").iterdir())) == 8


class TestAuditInputs:
    """``audit`` reads every report before it prints, and ``--out`` takes
    one report."""

    @pytest.fixture
    def report(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main(RUN_ARGS + ["--out", str(out)]) == 0
        capsys.readouterr()
        return out.with_suffix(".json")

    def test_out_takes_one_report(self, tmp_path, capsys, report):
        x = tmp_path / "x.json"
        assert main(["audit", str(report), str(report), "--out", str(x)]) == 2
        out, err = capsys.readouterr()
        assert "audit --out takes one report, got 2" in err
        assert out == "" and not x.exists()

    def test_bad_report_stops_before_the_first_audit(self, tmp_path, capsys,
                                                     report):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["audit", str(report), str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "error:" in err
        y = tmp_path / "y.json"
        assert main(["audit", str(report), "--out", str(y)]) == 0
        assert json.loads(y.read_text())["verdict"] == "PASS"


class TestUntracedPaths:
    @pytest.mark.parametrize("passed,code", [(True, 0), (False, 1)])
    def test_selftest_exit_code(self, monkeypatch, capsys, passed, code):
        monkeypatch.setattr(selftest, "run_all", lambda: [
            selftest.CheckResult("first", True, "ok"),
            selftest.CheckResult("second", passed, "detail")])
        assert main(["selftest"]) == code
        out = capsys.readouterr().out
        assert f"{'PASS' if passed else 'FAIL'}  second  detail" in out
        assert f"{1 + passed}/2 selftest checks passed" in out

    def test_audit_skips_cor21_under_power_weakness(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        args = RUN_ARGS + ["--out", str(out)]
        args[args.index("--weakness") + 1] = "pow:1.0,0.5"
        assert main(args) == 0
        assert main(["audit", str(out.with_suffix(".json")),
                     "--bound", "cor21"]) == 0
        assert ("  bound cor21    SKIP (requires a constant weakness sequence)"
                in capsys.readouterr().out.splitlines())

    def test_summarize_noisy_targets_have_no_tightness(self):
        reps = [small_run(target=f"noisy,k=3,eps=0.1,seed={s}", max_m=6)
                for s in (1, 2)]
        row = summarize(reps).splitlines()[1].split()
        assert row[:2] == ["wcga", "2"] and row[-2] == "-"


class TestEntryPoint:
    """``python -m lpgreedy.harness`` exits with the code ``main`` returns."""

    @staticmethod
    def _exit_code(*args) -> int:
        # the package is not installed: the child finds it on PYTHONPATH
        env = dict(os.environ, PYTHONPATH=str(SRC))
        return subprocess.run([sys.executable, "-m", "lpgreedy.harness", *args],
                              env=env, capture_output=True,
                              timeout=120).returncode

    def test_exit_codes(self, tmp_path):
        out = tmp_path / "r.csv"
        assert main(RUN_ARGS + ["--out", str(out)]) == 0
        report = out.with_suffix(".json")
        assert self._exit_code("audit", str(report)) == 0
        blob = json.loads(report.read_text())
        blob["records"][1]["residual_norm"] = 2 * blob["initial_residual"]
        raised = tmp_path / "raised.json"
        raised.write_text(json.dumps(blob))
        assert self._exit_code("audit", str(raised)) == 1
        assert self._exit_code(*sweep_args(tmp_path, "--seeds", "1,1")) == 2
        assert not (tmp_path / "sweep").exists()


class TestParserReuse:
    """``main`` builds its parser once per process; a reused parser must
    answer every call as a freshly built one does."""

    @staticmethod
    def _call(argv, tmp_path, capsys):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse's own usage errors
            code = e.code
        out, err = capsys.readouterr()
        csv = tmp_path / "r.csv"
        return code, out, err, csv.read_bytes() if csv.exists() else None

    def test_one_parser_answers_like_fresh_ones(self, tmp_path, capsys):
        report = str(tmp_path / "r.json")
        calls = [RUN_ARGS + ["--out", str(tmp_path / "r.csv")],
                 ["audit", report, "--bound", "cor52"],
                 ["run", "--algo", "wcga"],  # required arguments missing
                 ["audit", report, "--bound", "nope"],
                 RUN_ARGS + ["--iters", "4", "--out", str(tmp_path / "r.csv")]]
        harness._parser.cache_clear()
        reused = [self._call(argv, tmp_path, capsys) for argv in calls]
        assert harness._parser.cache_info().misses == 1
        fresh = []
        for argv in calls:
            harness._parser.cache_clear()
            fresh.append(self._call(argv, tmp_path, capsys))
        assert reused == fresh
        assert [c[0] for c in reused] == [0, 0, 2, 2, 0]


class TestSummarize:
    def test_single_report(self):
        rep = small_run(algorithm="rwrga", max_m=12)
        table = summarize([rep])
        assert len(table.strip().split("\n")) == 2
        assert "rwrga" in table

    def test_one_row_per_algorithm(self):
        reps = [small_run(algorithm=a, max_m=6)
                for a in ("wcga", "rwrga", "wgafr")]
        table = summarize(reps)
        assert len(table.strip().split("\n")) == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])
