import ast
import hashlib
import importlib.util
import inspect
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from slagcy import Jet, cli, family_from_entries, phi_curve, solve_calabi_yau
from slagcy.jets import FLOAT
from slagcy.cli import (
    KINDS,
    ScenarioError,
    _family_from_scenario,
    emit_report,
    load_scenario,
    main,
    report_json,
)
from slagcy import hodge
from slagcy.dsl import parse
from slagcy.families import FamilyCheckReport
from slagcy.hodge import phi_csv
from slagcy.solver import dump_structure

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"


def write_scenario(tmp_path, text, name="case.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def structure_dump(order="2", base_point="0 0 0 0 0 0", line="0 0 0 0 0 0 : 1"):
    return (f"slagcy-structure v1\nmode = exact\norder = {order}\n"
            f"base_point = {base_point}\n[A 1 1]\n{line}\n")


# the complete dump of the flat structure at order 2, exact and float
FLAT_DUMP = dump_structure(solve_calabi_yau(
    [[Jet.constant(int(i == j), 2) for j in range(3)] for i in range(3)], 2))
FLAT_FLOAT_DUMP = dump_structure(solve_calabi_yau(
    [[Jet.constant(int(i == j), 2, FLOAT) for j in range(3)] for i in range(3)], 2))


def family_scenario(kind="family-check", **fields):
    """A family scenario; a t_min or t_max of None leaves that key out."""
    v = {"grid": "16", "t_samples": "3", "constructor": "direct",
         "t_min": "0", "t_max": "1", "entries": 'g11 = "1"\ng22 = "1"\ng33 = "1"\n'}
    v.update(fields)
    dim = f"dim = {v['dim']}\n" if "dim" in v else ""
    t_lines = "".join(f"{k} = {v[k]}\n" for k in ("t_min", "t_max") if v[k] is not None)
    return (f"[scenario]\nkind = {kind}\nmode = float\ngrid = {v['grid']}\n"
            f"t_samples = {v['t_samples']}\n\n[family]\nconstructor = {v['constructor']}\n"
            f"{dim}{t_lines}{v['entries']}")


def run_scenario(path):
    """Load and execute one scenario file, as ``main`` does before it writes anything."""
    return cli._execute(load_scenario(path))


# an admissible family whose det is 1 at every t
UNIT_DET_ENTRIES = ('g11 = "exp(t*sin(2*pi*x1))"\ng22 = "exp(-t*sin(2*pi*x1))"\n'
                    'g33 = "1"\n')


def embed_scenario(scenario="", sections=""):
    return (f"[scenario]\nkind = embed\norder = 4\nmode = exact\n{scenario}\n"
            f'[metric]\ng11 = "1"\ng22 = "1"\ng33 = "1"\n{sections}')


# label -> (subcommand, scenario text or, for verify, the dump text, extra flags
#           [, the key the one error line must name]); <tmp> in a flag or a key is the
#           directory the case runs in
MALFORMED = {
    "dump order": ("verify", structure_dump(order="two"), []),
    "dump base point": ("verify", structure_dump(base_point="0 0 zero 0 0 0"), []),
    "dump base point off the origin": ("verify", structure_dump(base_point="1 0 0 0 0 0"), [],
                                       "base_point"),
    "dump coefficient": ("verify", structure_dump(line="0 0 0 0 0 0 : one"), []),
    "dump zero denominator": ("verify", structure_dump(line="0 0 0 0 0 0 : 1/0"), []),
    "dump multi-index": ("verify", structure_dump(line="0 0 x 0 0 0 : 1"), []),
    "dump junk header line": ("verify", structure_dump(base_point="0 0 0 0 0 0\njunk"), [],
                              "'junk'"),
    "dump unknown header key": ("verify", structure_dump(order="2\ncolour = red"), [],
                                "'colour = red'"),
    "dump repeated order": ("verify", structure_dump(order="4\norder = 9"), [], "'order = 9'"),
    "dump order past the key range": ("verify", structure_dump(order="70000"), [],
                                      "order must be <= 65535, got 70000"),
    "order past the key range": ("embed", embed_scenario(), ["--order", "70000"],
                                 "order 70000"),
    "family dim": ("family-check", family_scenario(dim="three"), []),
    "family dim of 401 digits": ("family-check", family_scenario(dim="1" + "0" * 400), [],
                                 "dim must be 2 or 3"),
    "family t_min": ("family-check", family_scenario(t_min="zero"), []),
    "family t_max": ("family-check", family_scenario(t_max="1.0.0"), []),
    "family t1": ("family-check", family_scenario(constructor="collapse22",
                                                  entries='w = "0"\nt1 = soon\n'), []),
    "infinite family t_max": ("family-check", family_scenario(t_max="inf"), [], "t_max"),
    "infinite family t_min": ("family-check", family_scenario(t_min="-inf"), [], "t_min"),
    "infinite family t1": ("family-check", family_scenario(constructor="collapse22",
                                                           entries='w = "0"\nt1 = inf\n'), [],
                           "t1"),
    "periodic flag word": ("family-check", family_scenario(
        entries='periodic = 1 1 banana\ng11 = "1"\ng22 = "1"\ng33 = "1"\n'), [],
        "periodic", "'banana'"),
    "cone conformal factor not positive": ("family-check", family_scenario(
        constructor="cone", t_min="0.1", entries='f = "-1"\n'), [], "leading minor 2"),
    "grid in file": ("family-check", family_scenario(grid="1"), []),
    "t_samples in file": ("family-check", family_scenario(t_samples="0"), []),
    "grid flag": ("phi", family_scenario(kind="phi"), ["--grid", "1"]),
    "t_samples flag": ("phi", family_scenario(kind="phi"), ["--t-samples", "0"]),
    "phi on a 2D family": ("phi", family_scenario(kind="phi", dim="2",
                                                  entries='g11 = "1"\ng22 = "1"\n'), []),
    "entry outside its domain": ("family-check", family_scenario(
        entries='g11 = "log(x1 - 2)"\ng22 = "1"\ng33 = "1"\n'), []),
    "metric lower-triangle key": ("embed", embed_scenario(sections='g21 = "x1"\n'), [], "g21"),
    "block family leftover key": ("family-check", family_scenario(
        constructor="block", entries='q21 = "banana"\n'), [], "q21"),
    "misspelled scenario key": ("embed", embed_scenario(scenario="oder = 10\n"), [], "oder"),
    "cone family dim and periodic": ("family-check", family_scenario(
        constructor="cone", dim="2", entries='f = "1"\nperiodic = 1 1\n'), [], "dim", "periodic"),
    "metric in a family-check": ("family-check", family_scenario()
                                 + '\n[metric]\ng11 = "banana("\n', [], "[metric]"),
    "family in an embed": ("embed", embed_scenario(sections='\n[family]\nconstructor = cone\n'),
                           [], "[family]"),
    "input in an embed": ("embed", embed_scenario(sections='\n[input]\nstructure = s.txt\n'),
                          [], "[input]"),
    "csv output of an embed": ("embed", embed_scenario(sections='\n[output]\ncsv = phi.csv\n'),
                               [], "csv"),
    "misspelled section": ("embed", embed_scenario(sections='[outptu]\njson = "r.json"\n'),
                           [], "[outptu]"),
    "phi_tolerance in an embed": ("embed", embed_scenario(scenario="phi_tolerance = 5\n"), [],
                                  "phi_tolerance"),
    "t_samples in an embed": ("embed", embed_scenario(scenario="t_samples = 3\n"), [],
                              "t_samples"),
    "grid in an embed": ("embed", embed_scenario(scenario="grid = 64\n"), [], "grid"),
    "order in a family-check": ("family-check", family_scenario().replace(
        "grid = 16\n", "grid = 16\norder = 4\n"), [], "order"),
    "phi_tolerance in a phi": ("phi", family_scenario(kind="phi").replace(
        "grid = 16\n", "grid = 16\nphi_tolerance = 1e-8\n"), [], "phi_tolerance"),
    "dump cut before [gamma re]": ("verify", FLAT_DUMP[:FLAT_DUMP.index("[gamma re]")], [],
                                   "[gamma re]"),
    "dump with an extra section": ("verify", FLAT_DUMP + "[A 1 4]\n", [], "[A 1 4]"),
    "exact tolerance in float mode": ("embed", embed_scenario(scenario="tolerance = 1/3\n"),
                                      ["--mode", "float"], "tolerance"),
    "float flag on an exact dump": ("verify", FLAT_DUMP, ["--mode", "float"], "float", "exact"),
    "exact scenario on a float dump": ("verify", FLAT_FLOAT_DUMP, [], "float", "exact"),
    "exact family-check": ("family-check", family_scenario().replace("float", "exact"), [],
                           "mode"),
    "exact phi": ("phi", family_scenario(kind="phi"), ["--mode", "exact"], "mode"),
    "exact phi2d": ("phi2d", family_scenario(kind="phi2d", dim="2", entries='g11 = "1"\n'
                                             'g22 = "1"\n'), ["--mode", "exact"], "mode"),
    "family-check t_samples above 17": ("family-check", family_scenario(t_samples="40"), [],
                                        "t_samples", "17"),
    "family-check t_samples below 2": ("family-check", family_scenario(), ["--t-samples", "1"],
                                       "t_samples", "2"),
    "exact tolerance 1e5000": ("embed", embed_scenario(scenario="tolerance = 1e5000\n"), [],
                               "tolerance"),
    "exact tolerance 1e1000": ("embed", embed_scenario(scenario="tolerance = 1e1000\n"), [],
                               "tolerance"),
    "exact tolerance of 4999 digits": ("embed", embed_scenario(
        scenario=f"tolerance = {'9' * 4000}e999\n"), [], "tolerance"),
    "negative exact tolerance": ("embed", embed_scenario(scenario="tolerance = -1/2\n"), [],
                                 "tolerance"),
    "infinite float tolerance": ("embed", embed_scenario(scenario="tolerance = inf\n"),
                                 ["--mode", "float"], "tolerance"),
    "nan float tolerance": ("embed", embed_scenario(scenario="tolerance = nan\n"),
                            ["--mode", "float"], "tolerance"),
    "negative power of a zero sample": ("family-check", family_scenario(
        entries='g11 = "1 + x1^-2"\ng22 = "1"\ng33 = "1"\n'), [], "negative power",
        "grid index (0, 0, 0)"),
    "sample overflow": ("family-check", family_scenario(
        entries='g11 = "exp(800*x1)"\ng22 = "1"\ng33 = "1"\n'), [], "non-finite",
        "grid index (15, 0, 0)"),
    "collapse22 normalizer overflow": ("family-check", family_scenario(
        constructor="collapse22", t_max="1", entries='w = "800*x1"\nt1 = 2\n'), [],
        "not finite at t=0.0", "overflow"),
    "collapse22 squared normalizer overflow": ("family-check", family_scenario(
        constructor="collapse22", t_max="1", entries='w = "730*x1"\nt1 = 2\n'), [],
        "not finite at t=0.0", "out of range"),
    "collapse21 squared normalizer overflow": ("family-check", family_scenario(
        constructor="collapse21", t_max="1", entries='w = "730*x1"\nv = "0"\nt1 = 2\n'), [],
        "not finite at t=0.0", "out of range"),
    "float jet overflow": ("embed", embed_scenario().replace('g11 = "1"',
                                                            'g11 = "exp(1000 + x1)"'),
                           ["--mode", "float"], "g11", "float overflow"),
    "non-finite float jet": ("embed", embed_scenario().replace('g11 = "1"',
                                                              'g11 = "(2+x1)^2000"'),
                             ["--mode", "float"], "g11", "non-finite"),
    "phi on a non-periodic family": ("phi", family_scenario(
        kind="phi", entries='periodic = 0 1 1\ng11 = "1"\ng22 = "1"\ng33 = "1"\n'), [],
        "torus", "periodic = 0 1 1"),
    "phi2d on a non-periodic family": ("phi2d", family_scenario(
        kind="phi2d", dim="2", entries='periodic = 1 0\ng11 = "1"\ng22 = "1"\n'), [],
        "torus", "periodic = 1 0"),
    "nan in a float dump": ("verify", FLAT_FLOAT_DUMP.replace(" : 1.0\n", " : nan\n", 1),
                            ["--mode", "float"], "not finite", ": nan"),
    "inf in a float dump": ("verify", FLAT_FLOAT_DUMP.replace(" : 1.0\n", " : -inf\n", 1),
                            ["--mode", "float"], "not finite", ": -inf"),
    "infinite phi_tolerance": ("phi2d", family_scenario(kind="phi2d", dim="2", entries='g11 = "1"\n'
                                                        'g22 = "1"\n').replace(
        "grid = 16\n", "grid = 16\nphi_tolerance = inf\n"), [], "phi_tolerance"),
    "negative phi_tolerance": ("phi2d", family_scenario(kind="phi2d", dim="2", entries='g11 = "1"\n'
                                                        'g22 = "1"\n').replace(
        "grid = 16\n", "grid = 16\nphi_tolerance = -1e-8\n"), [], "phi_tolerance"),
    "phi2d grid above 256": ("phi2d", family_scenario(kind="phi2d", dim="2", entries='g11 = "1"\n'
                                                      'g22 = "1"\n'), ["--grid", "300"],
                             "grid", "256"),
    "phi grid above 256": ("phi", family_scenario(kind="phi"), ["--grid", "300"], "grid", "256"),
    "family-check grid above 256": ("family-check", family_scenario(), ["--grid", "300"],
                                    "grid", "256"),
    "family-check on a point t-range": ("family-check", family_scenario(
        t_min="0.5", t_max="0.5", entries=UNIT_DET_ENTRIES), [], "t_range"),
    "phi on a point t-range": ("phi", family_scenario(
        kind="phi", t_min="0.5", t_max="0.5", entries=UNIT_DET_ENTRIES), [], "t_range"),
    "phi t_samples above 4096": ("phi", family_scenario(kind="phi"),
                                 ["--t-samples", "1000000000"], "t_samples", "4096"),
    "phi2d t_samples above 4096": ("phi2d", family_scenario(kind="phi2d", dim="2",
                                                            entries='g11 = "1"\ng22 = "1"\n'),
                                   ["--t-samples", "4097"], "t_samples", "4096"),
    # <tmp> is the directory the case runs in, which holds the scenario file case.ini
    "out-json naming a directory": ("family-check", family_scenario(), ["--out-json", "<tmp>"],
                                    "cannot write <tmp>: Is a directory"),
    "out-json below a file": ("family-check", family_scenario(),
                              ["--out-json", "<tmp>/case.ini/r.json"],
                              "cannot write <tmp>/case.ini/r.json: File exists"),
}


class TestScenarioLoading:
    def test_flat_scenario_parses(self):
        sc = load_scenario(SCENARIOS / "flat_embed.ini")
        assert sc.kind == "embed"
        assert sc.order == 6
        assert sc.mode == "exact"
        assert str(sc.tolerance) == "0"

    def test_unknown_kind(self, tmp_path):
        path = write_scenario(tmp_path, "[scenario]\nkind = fly\n")
        with pytest.raises(ScenarioError, match="kind"):
            load_scenario(path)

    def test_missing_required_section(self, tmp_path):
        path = write_scenario(tmp_path, "[scenario]\nkind = embed\n")
        with pytest.raises(ScenarioError, match="metric"):
            load_scenario(path)

    def test_missing_file(self):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario("/nonexistent/path.ini")

    def test_inline_comments_stripped(self, tmp_path):
        path = write_scenario(
            tmp_path,
            '[scenario]\nkind = embed  ; one of the five kinds\norder = 4\n'
            'mode = exact\n\n[metric]\ng11 = "1"\ng22 = "1"\ng33 = "1"\n')
        sc = load_scenario(path)
        assert sc.kind == "embed"
        assert sc.order == 4


    @pytest.mark.parametrize("text, value", [("0", 0), ("1/3", Fraction(1, 3)),
                                             ("0.1", Fraction(1, 10)), ("2.5E+3", 2500),
                                             ("1e-999", Fraction(1, 10 ** 999))])
    def test_exact_tolerance_reads_exactly(self, text, value, tmp_path):
        sc = load_scenario(write_scenario(tmp_path, embed_scenario(f"tolerance = {text}\n")))
        assert type(sc.tolerance) is Fraction and sc.tolerance == value

    def test_shipped_float_tolerance_reads_in_exact_mode(self):
        sc = load_scenario(SCENARIOS / "trig_embed.ini", {"mode": "exact"})
        assert sc.tolerance == Fraction(1, 10 ** 12)

    @pytest.mark.parametrize("key, default", [("tolerance", 1e-12), ("phi_tolerance", 1e-8)])
    def test_empty_tolerance_takes_its_default(self, key, default, tmp_path):
        text = family_scenario(kind="phi2d", dim="2", entries='g11 = "1"\ng22 = "1"\n')
        text = text.replace("grid = 16\n", f"grid = 16\n{key} =\n")
        assert getattr(load_scenario(write_scenario(tmp_path, text)), key) == default


def perfbench_workloads(monkeypatch):
    """The benchmark's `perfbench/workloads.py`, imported by path."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  REPO / "perfbench" / "workloads.py")
    W = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, W)  # its dataclasses look themselves up
    spec.loader.exec_module(W)
    return W


class TestBenchmarkScenarios:
    def test_every_workload_scenario_loads(self, tmp_path, monkeypatch):
        # pass 0 of each benchmark workload, written as the benchmark writes it
        W = perfbench_workloads(monkeypatch)
        for workload in W.WORKLOADS:
            workdir = tmp_path / workload
            workdir.mkdir()
            for op in W.make_pass(workload, 0, 0):
                files = W.write_op(op, workdir)
                sc = load_scenario(files.scenario)
                if sc.kind == "embed":
                    family_from_entries({k: parse(v) for k, v in sc.metric.items()})
                if workload == "embed_exact":
                    assert load_scenario(files.verify_scenario).kind == "verify"

    @pytest.mark.parametrize("workload", ["phi_2d", "phi_3d"])
    def test_first_phi_ops_pass_the_benchmark_check(self, workload, tmp_path, monkeypatch):
        # the first five ops of pass 0, run through the CLI and checked by the
        # benchmark's own oracles (Phi == 1 in 2D, I0 ratios in 3D, and the
        # drift family of phi_3d refused with exit code 1)
        W = perfbench_workloads(monkeypatch)
        ops = W.make_pass(workload, 0, 0)[:5]
        if workload == "phi_3d":
            assert sum(op.params["drift"] for op in ops) == 1
        for op in ops:
            files = W.write_op(op, tmp_path)
            W.check_op(files, [main(argv) for argv in files.calls()])

    def test_generator_selftest_passes(self):
        # the benchmark's own generators call the jet and DSL API directly
        done = subprocess.run([sys.executable, str(REPO / "perfbench" / "selftest.py")],
                              cwd=REPO, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stdout + done.stderr

    def test_traced_replay_names_exist(self):
        # Only the traced benchmark run reaches these names: its replay calls
        # the modules' attributes and Tracer.patched wraps (object, attribute)
        # targets, so a rename would otherwise first fail there.
        tree = ast.parse((REPO / "perfbench" / "worker.py").read_text(encoding="utf-8"))
        modules = {name: importlib.import_module(f"slagcy.{name}")
                   for name in ("cli", "families", "hodge", "solver")}

        def resolve(node):
            if isinstance(node, ast.Name):
                return modules[node.id]
            return getattr(resolve(node.value), node.attr)

        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("slagcy"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                assert hasattr(modules[node.value.id], node.attr), f"{node.value.id}.{node.attr}"
        # each call into those modules binds its positional count and keywords,
        # e.g. CYStructureJet(policy=) and phi_curve(check=)
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Attribute) and isinstance(node.func.value, ast.Name)
                 and node.func.value.id in modules]
        assert len(calls) >= 15
        for call in calls:
            assert not any(isinstance(a, ast.Starred) for a in call.args)
            assert all(k.arg for k in call.keywords)
            inspect.signature(resolve(call.func)).bind(
                *call.args, **{k.arg: k.value for k in call.keywords})
        patched = next(node for node in ast.walk(tree)
                       if isinstance(node, ast.FunctionDef) and node.name == "patched")
        targets = [t.elts for node in ast.walk(patched) if isinstance(node, ast.List)
                   for t in node.elts]
        assert len(targets) == 5
        for obj, attr, _ in targets:
            assert hasattr(resolve(obj), attr.value), f"{ast.unparse(obj)}.{attr.value}"


class TestArgParser:
    PHI2D = ("[scenario]\nkind = phi2d\nmode = float\ngrid = 24\nt_samples = 3\n"
             "tolerance = 1e-10\n\n[family]\nconstructor = direct\ndim = 2\n"
             'g11 = "exp(t*cos(2*pi*x1))"\ng12 = "1/4"\ng22 = "17/16*exp(-t*cos(2*pi*x1))"\n')

    @staticmethod
    def run(argv, capsys):
        """(exit code, report without timings, whether it had timings, stderr)."""
        code = main(argv)
        out, err = capsys.readouterr()
        report = json.loads(out)
        timed = report.pop("timings", None) is not None
        return code, report, timed, err

    def test_parser_is_built_once(self):
        assert cli._build_arg_parser() is cli._build_arg_parser()

    @pytest.mark.parametrize("first", ["flags", "plain"])
    def test_no_flag_leaks_into_the_next_call(self, first, tmp_path, capsys):
        path = write_scenario(tmp_path, self.PHI2D)
        calls = {"flags": ["phi2d", "--scenario", path, "--deterministic", "--grid", "16"],
                 "plain": ["phi2d", "--scenario", path]}
        order = [first, "plain" if first == "flags" else "flags"]
        together = [self.run(calls[name], capsys) for name in order]
        for name, got in zip(order, together):
            cli._build_arg_parser.cache_clear()
            assert got == self.run(calls[name], capsys)  # a lone call on a fresh parser
        runs = dict(zip(order, together))
        assert runs["flags"][1]["scenario"]["grid"] == 16 and not runs["flags"][2]
        assert runs["plain"][1]["scenario"]["grid"] == 24 and runs["plain"][2]


class TestExitCodes:
    def test_pass_is_zero(self, tmp_path, capsys):
        code = main(["embed", "--scenario", str(SCENARIOS / "flat_embed.ini"),
                     "--out-json", str(tmp_path / "r.json")])
        assert code == 0

    def test_verdict_failure_is_one(self, tmp_path):
        code = main(["family-check", "--scenario", str(SCENARIOS / "det_drift_check.ini"),
                     "--out-json", str(tmp_path / "r.json")])
        assert code == 1
        data = json.loads((tmp_path / "r.json").read_text())
        assert any(not v["passed"] for v in data["verdicts"])

    def test_parse_error_is_two(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path,
            '[scenario]\nkind = embed\norder = 4\nmode = exact\n\n'
            '[metric]\ng11 = "sin("\ng22 = "1"\ng33 = "1"\n')
        code = main(["embed", "--scenario", path])
        assert code == 2
        assert "offset 4" in capsys.readouterr().err

    def test_kind_mismatch_is_two(self, capsys):
        code = main(["phi", "--scenario", str(SCENARIOS / "flat_embed.ini")])
        assert code == 2

    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_input_is_two(self, case, tmp_path, capsys):
        kind, text, flags, *named = MALFORMED[case]
        if kind == "verify":
            dump = tmp_path / "structure.txt"
            dump.write_text(text, encoding="utf-8")
            text = f"[scenario]\nkind = verify\nmode = exact\n\n[input]\nstructure = {dump}\n"
        flags = [flag.replace("<tmp>", str(tmp_path)) for flag in flags]
        code = main([kind, "--scenario", write_scenario(tmp_path, text), *flags])
        assert code == 2
        err = capsys.readouterr().err.replace(str(tmp_path), "<tmp>")
        assert err.startswith("error: ")
        for key in named:
            assert len(err.splitlines()) == 1 and key in err, err

    @pytest.mark.parametrize("kind,dim,g33", [("phi2d", "2", ""), ("phi", "3", 'g33 = "1"\n')])
    def test_a_metric_not_positive_definite_at_one_t_is_two(self, kind, dim, g33, tmp_path,
                                                            capsys):
        # g11 = g22 = -1 at t = 0.55, a t the admissibility check's 9 samples miss; det is 1
        # there, so the leading minors, not det > 0, refuse it
        f = '"1 - 2*exp(-100000*(t - 0.55)^2)"'
        text = family_scenario(kind=kind, dim=dim, grid="32", t_samples="21",
                               entries=f"g11 = {f}\ng22 = {f}\n{g33}")
        assert main([kind, "--scenario", write_scenario(tmp_path, text)]) == 2
        assert capsys.readouterr().err == ("error: non-positive-definite sample at t=0.55: "
                                           "leading minor 1 reaches -1.0\n")

    def test_exact_pi_error_names_the_metric_entry(self, tmp_path, capsys):
        text = embed_scenario().replace('g33 = "1"', 'g33 = "2*pi"')
        assert main(["embed", "--scenario", write_scenario(tmp_path, text)]) == 2
        assert capsys.readouterr().err == (
            "error: [metric] g33: constant pi is irrational; not representable in exact mode\n")

    @pytest.mark.parametrize("order", ["0", "-1"])
    def test_dump_order_below_two_names_the_field(self, order, tmp_path, capsys):
        dump = tmp_path / "structure.txt"
        dump.write_text(structure_dump(order=order), encoding="utf-8")
        text = f"[scenario]\nkind = verify\nmode = exact\n\n[input]\nstructure = {dump}\n"
        code = main(["verify", "--scenario", write_scenario(tmp_path, text)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {dump}: bad structure dump header: order must be >= 2, got {order}"]

    def test_tolerance_is_read_in_the_final_mode(self, tmp_path):
        text = embed_scenario(scenario="tolerance = 0.1\n").replace("exact", "float")
        out = tmp_path / "r.json"
        assert main(["embed", "--scenario", write_scenario(tmp_path, text), "--mode", "exact",
                     "--out-json", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["scenario"]["tolerance"] == "1/10"
        assert {v["tolerance"] for v in data["verdicts"]} == {"1/10"}

    def test_mode_override_takes_that_modes_default_tolerance(self, tmp_path):
        path = write_scenario(
            tmp_path,
            '[scenario]\nkind = embed\norder = 6\nmode = exact\n\n'
            '[metric]\ng11 = "1 + sin(2*pi*x1)/10"\ng22 = "1 + cos(2*pi*x2)/10"\n'
            'g33 = "1"\n')
        assert load_scenario(path).tolerance == 0
        assert load_scenario(path, {"mode": "float"}).tolerance == 1e-12
        out = tmp_path / "r.json"
        assert main(["embed", "--scenario", path, "--mode", "float",
                     "--out-json", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["scenario"]["tolerance"] == 1e-12
        assert max(v["value"] for v in data["verdicts"]) > 0  # float roundoff is judged


# [family] entries without t_min and t_max -> the constructor's own t-range
DEFAULT_RANGES = {
    "collapse22": ('w = "t*cos(pi*x1)^2"\n', (0.0, 0.9)),
    "collapse22 with t1 = 2": ('w = "t*cos(pi*x1)^2"\nt1 = 2\n', (0.0, 1.8)),
    "cone": ('f = "1"\n', (0.1, 1.0)),
}


class TestFamilyRange:
    @pytest.mark.parametrize("name", sorted(DEFAULT_RANGES))
    def test_unset_range_is_the_constructors(self, name, tmp_path, capsys):
        entries, t_range = DEFAULT_RANGES[name]
        path = write_scenario(tmp_path, family_scenario(
            constructor=name.split()[0], t_min=None, t_max=None, entries=entries))
        assert _family_from_scenario(load_scenario(path)).t_range == pytest.approx(t_range)
        assert main(["family-check", "--scenario", path]) == 0, capsys.readouterr().err

    def test_one_bound_set_keeps_the_other_default(self, tmp_path):
        path = write_scenario(tmp_path, family_scenario(
            constructor="collapse22", t_min=None, t_max="0.5", entries='w = "0"\n'))
        assert _family_from_scenario(load_scenario(path)).t_range == (0.0, 0.5)


# A valid scenario of each kind; the [input] structure of verify is never read,
# since a refused key stops the load first.
KIND_SCENARIOS = {
    "embed": embed_scenario(),
    "verify": "[scenario]\nkind = verify\nmode = exact\n\n[input]\nstructure = s.txt\n",
    "family-check": family_scenario(),
    "phi": family_scenario(kind="phi"),
    "phi2d": family_scenario(kind="phi2d", dim="2", entries='g11 = "1"\ng22 = "1"\n'),
}

# Every [scenario], [input] and [output] key with each kind that does not read
# it, and a value for it.  kind, mode, tolerance and json are read by all five.
REFUSED_KEYS = [
    ("scenario", "order", "4", "verify"), ("scenario", "order", "4", "family-check"),
    ("scenario", "order", "4", "phi"), ("scenario", "order", "4", "phi2d"),
    ("scenario", "grid", "16", "embed"), ("scenario", "grid", "16", "verify"),
    ("scenario", "t_samples", "3", "embed"), ("scenario", "t_samples", "3", "verify"),
    ("scenario", "phi_tolerance", "1e-8", "embed"), ("scenario", "phi_tolerance", "1e-8", "verify"),
    ("scenario", "phi_tolerance", "1e-8", "family-check"),
    ("scenario", "phi_tolerance", "1e-8", "phi"),
    ("input", "structure", "s.txt", "embed"), ("input", "structure", "s.txt", "family-check"),
    ("input", "structure", "s.txt", "phi"), ("input", "structure", "s.txt", "phi2d"),
    ("output", "csv", "phi.csv", "embed"), ("output", "csv", "phi.csv", "verify"),
    ("output", "csv", "phi.csv", "family-check"),
    ("output", "dump", "s.dump", "verify"), ("output", "dump", "s.dump", "family-check"),
    ("output", "dump", "s.dump", "phi"), ("output", "dump", "s.dump", "phi2d"),
]


class TestRefusedKeys:
    @pytest.mark.parametrize("section, key, value, kind", REFUSED_KEYS,
                             ids=[f"{key}-in-{kind}" for _, key, _, kind in REFUSED_KEYS])
    def test_key_the_kind_does_not_read_is_refused(self, section, key, value, kind, tmp_path,
                                                   capsys):
        text = KIND_SCENARIOS[kind]
        header = f"[{section}]\n"
        text = (text.replace(header, f"{header}{key} = {value}\n", 1) if header in text
                else f"{text}\n{header}{key} = {value}\n")
        assert main([kind, "--scenario", write_scenario(tmp_path, text)]) == 2
        # only verify reads [input], so there the section is what is named
        assert capsys.readouterr().err == (
            f"error: section [input] is not read by {kind} scenarios\n" if section == "input"
            else f"error: [{section}] keys not read by {kind} scenarios: {key}\n")

    @pytest.mark.parametrize("section, key, value, kind", REFUSED_KEYS,
                             ids=[f"{key}-in-{kind}" for _, key, _, kind in REFUSED_KEYS])
    def test_override_the_kind_does_not_read_is_refused(self, section, key, value, kind,
                                                        tmp_path):
        field = key if section == "scenario" else f"{key}_path"
        path = write_scenario(tmp_path, KIND_SCENARIOS[kind])
        with pytest.raises(ScenarioError, match=f"^overrides not read by {kind} scenarios: "
                                                f"{field}$"):
            load_scenario(path, {field: value})
        assert load_scenario(path, {field: None}).kind == kind  # None keeps the file's value

    @pytest.mark.parametrize("kind", KINDS)
    def test_each_base_scenario_loads(self, kind, tmp_path):
        assert load_scenario(write_scenario(tmp_path, KIND_SCENARIOS[kind])).kind == kind


# the subcommands that take each flag besides --scenario; --mode, --out-json
# and --deterministic are taken by all five
FAMILY_KINDS = ("family-check", "phi", "phi2d")
KIND_FLAGS = {"--order": ("embed",), "--dump": ("embed",), "--grid": FAMILY_KINDS,
              "--t-samples": FAMILY_KINDS, "--out-csv": ("phi", "phi2d")}


class TestPerKindFlags:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("flag", sorted(KIND_FLAGS))
    def test_flag_only_where_the_kind_reads_it(self, kind, flag, capsys):
        argv = [kind, "--scenario", "missing.ini", flag, "7"]
        if kind in KIND_FLAGS[flag]:
            assert main(argv) == 2  # parsed, then the missing scenario file
            assert capsys.readouterr().err.startswith("error: cannot read scenario")
        else:  # argparse: a usage line, then the error
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("usage: ") and f"unrecognized arguments: {flag} 7" in err


DENOMINATOR_RICH = """[scenario]
kind = embed
order = 6
mode = exact
tolerance = 0

[metric]
g11 = "1 + x1/2 + x2^2/3"
g12 = "x3/4 + 2*x1*x2/7"
g13 = "x1*x3/8"
g22 = "1 + x2/8 + x3^2/3"
g23 = "x2/4 + x1^2/2"
g33 = "1 + x3/2 + 2*x1^2/7"
"""

# shaped as the benchmark's float embeds: every off-diagonal entry present,
# and a trigonometric term in each coordinate
EVERY_OFF_DIAGONAL = """[scenario]
kind = embed
order = 8
mode = float
tolerance = 1e-12

[metric]
g11 = "1 + 0.1234*sin(2*pi*x2)"
g12 = "0.0321*cos(2*pi*2*x3)"
g13 = "0.0187*sin(2*pi*x1)"
g22 = "1 + 0.0876*cos(2*pi*2*x3)"
g23 = "0.0452*cos(2*pi*x2)"
g33 = "1 + 0.1421*sin(2*pi*x1)"
"""

# an admissible family-check scenario for each constructor but "direct"
CONSTRUCTOR_SCENARIOS = {
    "block": family_scenario(constructor="block", entries='u = "t*sin(2*pi*x1)"\n'
                             'q22 = "exp(-t*sin(2*pi*x1))"\n'),
    "collapse22": family_scenario(constructor="collapse22", t_max="0.7",
                                  entries='w = "(t/(1-t))*cos(pi*x1)^2"\nt1 = 1\n'),
    "collapse21": family_scenario(constructor="collapse21", t_max="0.6", entries=(
        'w = "(t/(1-t))*cos(pi*x1)^2"\nv = "(t/(1-t))*cos(pi*x2)^2*(1+sin(2*pi*x1)/4)"\n'
        't1 = 1\n')),
    "cone": family_scenario(constructor="cone", t_min="0.1",
                            entries='f = "2 + sin(2*pi*x2)*cos(2*pi*x3)/2"\n'),
}


def constructor_transcript(tmp_path, capsys) -> str:
    """Exit code, stdout and stderr of `family-check --deterministic` on each
    CONSTRUCTOR_SCENARIOS entry, in one text."""
    parts = []
    for name, text in CONSTRUCTOR_SCENARIOS.items():
        code = main(["family-check", "--scenario", write_scenario(tmp_path, text, f"{name}.ini"),
                     "--deterministic"])
        out, err = capsys.readouterr()
        parts.append(f"### {name}: exit {code}\n--- stdout\n{out}--- stderr\n{err}")
    return "".join(parts)


class TestGolden:
    def test_family_constructors_are_pinned(self, tmp_path, capsys):
        # the residuals are roundoff, so any change in how a constructor
        # samples its entries shows in the transcript
        transcript = constructor_transcript(tmp_path, capsys)
        assert transcript == (GOLDEN / "family_constructors.txt").read_text(encoding="utf-8")

    def test_poly_embed_dump_is_pinned(self, tmp_path):
        # exact-mode dumps stay byte-identical
        dump = tmp_path / "structure.txt"
        assert main(["embed", "--scenario", str(SCENARIOS / "poly_embed.ini"),
                     "--deterministic", "--dump", str(dump)]) == 0
        assert dump.read_bytes() == (GOLDEN / "poly_embed.dump").read_bytes()

    def test_denominator_rich_and_float_outputs_are_pinned(self, tmp_path):
        # sha256 of the outputs at the commit before exact jets moved to
        # integer numerators: an exact order-6 dump with denominators 2, 3, 4,
        # 7 and 8, the verify report of that dump, and a float order-8 dump
        exact = write_scenario(tmp_path, DENOMINATOR_RICH, "exact.ini")
        dump = tmp_path / "exact.dump"
        assert main(["embed", "--scenario", exact, "--deterministic", "--dump", str(dump)]) == 0
        verify = write_scenario(tmp_path, "[scenario]\nkind = verify\nmode = exact\n"
                                f"tolerance = 0\n\n[input]\nstructure = {dump}\n", "verify.ini")
        report = tmp_path / "verify.json"
        assert main(["verify", "--scenario", verify, "--deterministic",
                     "--out-json", str(report)]) == 0
        trig = write_scenario(tmp_path, (SCENARIOS / "trig_embed.ini").read_text().replace(
            "order = 6", "order = 8"), "trig.ini")
        trig_dump = tmp_path / "trig.dump"  # the verdict at order 8 is not pinned, only the dump
        main(["embed", "--scenario", trig, "--deterministic", "--dump", str(trig_dump)])
        digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in (dump, report, trig_dump)]
        assert digests == [
            "10f972b2a661a8868676cff895ab36e24569fc99cc0e9b98f0c115c122a1dbf4",
            "c048f3dc57c29d3c1f2a44ea4242fd4d14c9e8ee8d72a9207f917c9fb3cfe14e",
            "14125016f975c61ababcfddb616d73c5760228f35dc6ab73e8b164a4160ec013",
        ]

    def test_float_dump_with_every_off_diagonal_is_pinned(self, tmp_path):
        # sha256 of the dump at the commit before the truncated Horner passes,
        # the truncation-aware Cauchy sums and the one-pass slice reassembly
        dump = tmp_path / "off.dump"  # the verdict at order 8 is not pinned, only the dump
        main(["embed", "--scenario", write_scenario(tmp_path, EVERY_OFF_DIAGONAL),
              "--deterministic", "--dump", str(dump)])
        assert hashlib.sha256(dump.read_bytes()).hexdigest() == \
            "dfd61e8b897f0213a3b366ef2ed4a1a690c8167fa9773d21f2f6595490eac571"

    def test_flat_embed_json_is_byte_stable(self, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        for out in (out1, out2):
            code = main(["embed", "--scenario", str(SCENARIOS / "flat_embed.ini"),
                         "--deterministic", "--out-json", str(out)])
            assert code == 0
        b1, b2 = out1.read_bytes(), out2.read_bytes()
        assert b1 == b2
        assert b1 == (GOLDEN / "flat_embed.json").read_bytes()


class TestShippedScenarios:
    @pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.ini")), ids=lambda p: p.name)
    def test_deterministic_run_is_byte_stable(self, path, tmp_path):
        kind = load_scenario(str(path)).kind
        outputs = []
        for k in range(2):
            out = tmp_path / f"r{k}.json"
            code = main([kind, "--scenario", str(path), "--deterministic", "--out-json", str(out)])
            assert code == (1 if path.name == "det_drift_check.ini" else 0)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestPhiPipeline:
    def test_bessel_phi_report_and_csv(self, tmp_path):
        json_path = tmp_path / "phi.json"
        csv_path = tmp_path / "phi.csv"
        code = main(["phi", "--scenario", str(SCENARIOS / "bessel_phi.ini"),
                     "--out-json", str(json_path), "--out-csv", str(csv_path)])
        assert code == 0
        data = json.loads(json_path.read_text())
        assert data["schema_version"] == 1
        assert data["phi"]["classification"] == "non-constant"
        assert abs(data["phi"]["phi"][-1] - 0.70316) < 1e-4
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "t,phi,g11_int,g22_int,g33_int"
        assert len(lines) == 22  # 21 samples + header

    def test_twod_scenario_passes(self, tmp_path):
        json_path = tmp_path / "phi2d.json"
        code = main(["phi2d", "--scenario", str(SCENARIOS / "twod_offdiag_phi.ini"),
                     "--out-json", str(json_path)])
        assert code == 0
        data = json.loads(json_path.read_text())
        names = [v["name"] for v in data["verdicts"]]
        assert "phi_constant_equal_1" in names

    def test_out_csv_replaces_output_csv(self, tmp_path):
        from_file, from_flag = tmp_path / "file.csv", tmp_path / "flag.csv"
        path = write_scenario(
            tmp_path,
            family_scenario(kind="phi", grid="32",
                            entries='g11 = "exp(-2*t*sin(2*pi*x1))"\n'
                                    'g22 = "exp(t*sin(2*pi*x1))"\n'
                                    'g33 = "exp(t*sin(2*pi*x1))"\n')
            + f"\n[output]\ncsv = {from_file}\n")
        code = main(["phi", "--scenario", path, "--out-csv", str(from_flag),
                     "--out-json", str(tmp_path / "r.json")])
        assert code == 0
        assert from_flag.exists()
        assert not from_file.exists()

    def test_emitted_csv_equals_curve_csv(self, tmp_path):
        report = run_scenario(SCENARIOS / "bessel_phi.ini")
        csv_path = tmp_path / "phi.csv"
        emit_report(report, csv_path=str(csv_path))
        sc = load_scenario(SCENARIOS / "bessel_phi.ini")
        fam = family_from_entries({k: v for k, v in sc.family.items() if k.startswith("g")})
        curve = phi_curve(fam, np.linspace(0.0, 1.0, sc.t_samples), n=sc.grid, check=False)
        assert csv_path.read_text() == phi_csv(curve.t, curve.phi, curve.integrals)

    def test_json_roundtrip_reproduces_verdicts(self, tmp_path):
        report = run_scenario(SCENARIOS / "det_drift_check.ini")
        text = report_json(report, deterministic=True)
        data = json.loads(text)
        assert [v["passed"] for v in data["verdicts"]] == \
               [v["passed"] for v in report.verdicts]


NAN = float("nan")


class TestFamilyVerdicts:
    @pytest.mark.parametrize("kind", ["family-check", "phi"])
    @pytest.mark.parametrize("fields", [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (NAN, 0.0, 0.0),
                                        (0.0, NAN, 0.0), (0.0, 0.0, NAN)])
    def test_report_verdict_agrees_with_the_verdicts(self, kind, fields, tmp_path, monkeypatch):
        # the check's residuals are planted; the report's family_check.verdict, its
        # verdicts list and the exit code all read the one rule, so a nan fails all three
        planted = lambda fam, n, nt, tol: FamilyCheckReport(*fields, tol, n, nt)  # noqa: E731
        monkeypatch.setattr(cli, "check_slag_family", planted)
        monkeypatch.setattr(hodge, "phi_admissibility", planted)
        out = tmp_path / "r.json"
        code = main([kind, "--scenario", write_scenario(tmp_path, family_scenario(kind)),
                     "--out-json", str(out)])
        data = json.loads(out.read_text())
        passed = fields == (0.0, 0.0, 0.0)
        assert [v["passed"] for v in data["verdicts"]] == \
            ([passed] if kind == "phi" else [f == 0.0 for f in fields])
        assert data["family_check"]["verdict"] == ("pass" if passed else "fail")
        assert code == (0 if passed else 1)


class TestVerifyKind:
    def test_embed_dump_then_verify(self, tmp_path):
        dump = tmp_path / "structure.txt"
        code = main(["embed", "--scenario", str(SCENARIOS / "poly_embed.ini"),
                     "--dump", str(dump), "--out-json", str(tmp_path / "e.json"),
                     "--order", "4"])
        assert code == 0
        scenario = write_scenario(
            tmp_path,
            f'[scenario]\nkind = verify\nmode = exact\ntolerance = 0\n\n'
            f'[input]\nstructure = {dump}\n')
        code = main(["verify", "--scenario", scenario,
                     "--out-json", str(tmp_path / "v.json")])
        assert code == 0

    def test_verify_detects_corruption(self, tmp_path):
        dump = tmp_path / "structure.txt"
        main(["embed", "--scenario", str(SCENARIOS / "poly_embed.ini"),
              "--dump", str(dump), "--order", "4", "--out-json",
              str(tmp_path / "e.json")])
        text = dump.read_text().splitlines()
        # corrupt one a12 coefficient
        for k, line in enumerate(text):
            if line == "[A 1 2]":
                text.insert(k + 1, "1 0 0 1 0 0 : 1/100")
                break
        dump.write_text("\n".join(text) + "\n")
        scenario = write_scenario(
            tmp_path,
            f'[scenario]\nkind = verify\nmode = exact\ntolerance = 0\n\n'
            f'[input]\nstructure = {dump}\n')
        code = main(["verify", "--scenario", scenario,
                     "--out-json", str(tmp_path / "v.json")])
        assert code == 1
        data = json.loads((tmp_path / "v.json").read_text())
        failing = {v["name"] for v in data["verdicts"] if not v["passed"]}
        assert "res_symmetry" in failing


class TestEmitReport:
    def test_emits_csv_header_for_empty_phi(self, tmp_path):
        report = run_scenario(SCENARIOS / "det_drift_check.ini")
        csv_path = tmp_path / "out.csv"
        emit_report(report, csv_path=str(csv_path))
        assert csv_path.read_text() == "t,phi,g11_int,g22_int,g33_int\n"

    def test_atomic_write_creates_parents(self, tmp_path):
        report = run_scenario(SCENARIOS / "det_drift_check.ini")
        nested = tmp_path / "a" / "b" / "r.json"
        emit_report(report, json_path=str(nested))
        assert nested.exists()

    def test_an_unwritable_csv_leaves_no_json(self, tmp_path, capsys):
        # the JSON path is fine, the CSV path lies below the scenario file
        scenario = write_scenario(tmp_path, family_scenario(kind="phi", entries=UNIT_DET_ENTRIES))
        code = main(["phi", "--scenario", scenario, "--out-json", str(tmp_path / "ok.json"),
                     "--out-csv", f"{scenario}/x.csv"])
        assert code == 2
        assert capsys.readouterr().err == f"error: cannot write {scenario}/x.csv: File exists\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["case.ini"]

    @pytest.mark.parametrize("json_flag, reason", [("<tmp>/case.ini/r.json", "File exists"),
                                                   ("<tmp>/sub", "Is a directory")])
    def test_an_unwritable_json_leaves_no_dump(self, json_flag, reason, tmp_path, capsys):
        # the dump is written first; a JSON path that cannot take a file must not keep it
        (tmp_path / "sub").mkdir()
        json_path = json_flag.replace("<tmp>", str(tmp_path))
        code = main(["embed", "--scenario", write_scenario(tmp_path, embed_scenario()),
                     "--dump", str(tmp_path / "s.dump"), "--out-json", json_path])
        assert code == 2
        assert capsys.readouterr().err == f"error: cannot write {json_path}: {reason}\n"
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["case.ini", "sub"]


def fresh_python(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter that imports the package from src/."""
    done = subprocess.run([sys.executable, "-c", f"import sys\n"
                           f"sys.path.insert(0, {str(REPO / 'src')!r})\n{code}"],
                          cwd=REPO, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestNumpyLoading:
    """embed and verify are jet arithmetic: only the grid kinds load numpy."""

    def test_embed_and_verify_load_no_numpy(self, tmp_path):
        dump, report = tmp_path / "poly.dump", str(tmp_path / "r.json")
        verify = write_scenario(tmp_path, "[scenario]\nkind = verify\nmode = exact\n"
                                          f"tolerance = 0\n\n[input]\nstructure = {dump}\n")
        runs = [["embed", "--scenario", "scenarios/poly_embed.ini", "--dump", str(dump)],
                ["embed", "--scenario", "scenarios/trig_embed.ini"],
                ["verify", "--scenario", verify]]
        out = fresh_python(f"from slagcy.cli import main\nfor argv in {runs!r}:\n"
                           f"    print(main(argv + ['--out-json', {report!r}]))\n"
                           "print('numpy' in sys.modules)")
        assert out.split() == ["0", "0", "0", "False"]

    def test_the_package_imports_without_numpy_and_resolves_phi_curve(self):
        out = fresh_python("import slagcy, slagcy.cli\nbare = 'numpy' in sys.modules\n"
                           "from slagcy import phi_curve\n"
                           "print(bare, phi_curve.__module__, 'numpy' in sys.modules)")
        assert out.split() == ["False", "slagcy.hodge", "True"]

    def test_a_phi2d_run_loads_numpy(self, tmp_path):
        argv = ["phi2d", "--scenario", "scenarios/twod_offdiag_phi.ini", "--grid", "16",
                "--t-samples", "3", "--out-json", str(tmp_path / "r.json")]
        out = fresh_python(f"from slagcy.cli import main\n"
                           f"print(main({argv!r}), 'numpy' in sys.modules)")
        assert out.split() == ["0", "True"]
