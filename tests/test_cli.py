import ast
import hashlib
import importlib.util
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from slagcy import Jet, family_from_entries, phi_curve, solve_calabi_yau
from slagcy.jets import FLOAT
from slagcy.cli import (
    KINDS,
    ScenarioError,
    emit_report,
    load_scenario,
    main,
    report_json,
    run_scenario,
)
from slagcy.dsl import parse
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
    v = {"grid": "16", "t_samples": "3", "constructor": "direct",
         "t_min": "0", "t_max": "1", "entries": 'g11 = "1"\ng22 = "1"\ng33 = "1"\n'}
    v.update(fields)
    dim = f"dim = {v['dim']}\n" if "dim" in v else ""
    return (f"[scenario]\nkind = {kind}\nmode = float\ngrid = {v['grid']}\n"
            f"t_samples = {v['t_samples']}\n\n[family]\nconstructor = {v['constructor']}\n"
            f"{dim}t_min = {v['t_min']}\nt_max = {v['t_max']}\n{v['entries']}")


def embed_scenario(scenario="", sections=""):
    return (f"[scenario]\nkind = embed\norder = 4\nmode = exact\n{scenario}\n"
            f'[metric]\ng11 = "1"\ng22 = "1"\ng33 = "1"\n{sections}')


# label -> (subcommand, scenario text or, for verify, the dump text, extra flags
#           [, the key the one error line must name])
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
    "family dim": ("family-check", family_scenario(dim="three"), []),
    "family t_min": ("family-check", family_scenario(t_min="zero"), []),
    "family t_max": ("family-check", family_scenario(t_max="1.0.0"), []),
    "family t1": ("family-check", family_scenario(constructor="collapse22",
                                                  entries='w = "0"\nt1 = soon\n'), []),
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


class TestBenchmarkScenarios:
    def test_every_workload_scenario_loads(self, tmp_path, monkeypatch):
        # pass 0 of each benchmark workload, written as the benchmark writes it
        spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                      REPO / "perfbench" / "workloads.py")
        W = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, W)  # its dataclasses look themselves up
        spec.loader.exec_module(W)
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
        patched = next(node for node in ast.walk(tree)
                       if isinstance(node, ast.FunctionDef) and node.name == "patched")
        targets = [t.elts for node in ast.walk(patched) if isinstance(node, ast.List)
                   for t in node.elts]
        assert len(targets) == 5
        for obj, attr, _ in targets:
            assert hasattr(resolve(obj), attr.value), f"{ast.unparse(obj)}.{attr.value}"


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
        code = main([kind, "--scenario", write_scenario(tmp_path, text), *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        for key in named:
            assert len(err.splitlines()) == 1 and key in err, err

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


class TestGolden:
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
