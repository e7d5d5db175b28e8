"""Scenario-driven command line front end.

A scenario is a sectioned key = value file (INI syntax) with DSL expressions
in double quotes::

    [scenario]
    kind = embed            ; embed | verify | family-check | phi | phi2d
    order = 6
    mode = exact            ; exact | float
    tolerance = 0

    [metric]
    g11 = "1 + x2^2"
    g22 = "1"
    g33 = "1"

Subcommands mirror the kinds and take --scenario plus a flag for each
[scenario] or [output] key their kind reads.  Exit codes: 0 all verdicts
pass, 1 a verdict fails, 2 input or parse error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import re
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import families as fam_mod
from . import hodge as hodge_mod
from .dsl import EvalDomainError, ParseError, parse
from .families import FamilyError, MetricFamily, check_slag_family, family_from_entries
from .hodge import HodgeError, phi_csv
from .jets import EXACT, FLOAT, JetError, within
from .solver import (
    SolverError,
    check_structure,
    dump_structure,
    load_structure,
    solve_calabi_yau,
)

SCHEMA_VERSION = 1
# The sections each kind reads, with the keys each may hold (None: checked
# when the metric or family is built); _FAMILY_KEYS are the [scenario] keys
# of family-check, phi and phi2d.
_FAMILY_KEYS = {"kind", "mode", "tolerance", "grid", "t_samples"}
_KIND_SECTIONS = {
    "embed": {"scenario": {"kind", "order", "mode", "tolerance"}, "metric": None,
              "output": {"json", "dump"}},
    "verify": {"scenario": {"kind", "mode", "tolerance"}, "input": {"structure"},
               "output": {"json"}},
    "family-check": {"scenario": _FAMILY_KEYS, "family": None, "output": {"json"}},
    "phi": {"scenario": _FAMILY_KEYS, "family": None, "output": {"json", "csv"}},
    "phi2d": {"scenario": _FAMILY_KEYS | {"phi_tolerance"}, "family": None,
              "output": {"json", "csv"}},
}
KINDS = tuple(_KIND_SECTIONS)
# The command line flag that overrides each [scenario] or [output] key; a
# subcommand takes the flags of the keys its kind reads.  Each flag's dest is
# the Scenario field it sets.
_FLAGS = {
    "order": ("--order", {"type": int, "help": "override truncation order"}),
    "grid": ("--grid", {"type": int, "help": "override grid resolution"}),
    "mode": ("--mode", {"choices": (EXACT, FLOAT), "help": "override scalar mode"}),
    "t_samples": ("--t-samples", {"type": int}),
    "json": ("--out-json", {"dest": "json_path", "help": "write the JSON report here"}),
    "csv": ("--out-csv", {"dest": "csv_path", "help": "write the phi CSV here"}),
    "dump": ("--dump", {"dest": "dump_path", "help": "write a structure dump"}),
}


class ScenarioError(Exception):
    """Unusable scenario file; maps to exit code 2."""


@dataclass
class Scenario:
    kind: str
    order: int = 6
    mode: str = FLOAT
    grid: int = 256
    t_samples: int = 21
    tolerance: object = None
    phi_tolerance: float = 1e-8
    metric: dict = field(default_factory=dict)      # key -> DSL text
    family: dict = field(default_factory=dict)
    structure_path: str | None = None
    dump_path: str | None = None
    json_path: str | None = None
    csv_path: str | None = None

    def echo(self) -> dict:
        out = {
            "kind": self.kind,
            "order": self.order,
            "mode": self.mode,
            "grid": self.grid,
            "t_samples": self.t_samples,
            "tolerance": _jsonable(self.tolerance),
            "phi_tolerance": self.phi_tolerance,
        }
        if self.metric:
            out["metric"] = dict(sorted(self.metric.items()))
        if self.family:
            out["family"] = dict(sorted(self.family.items()))
        return out


@dataclass
class RunReport:
    scenario: dict
    verdicts: list
    residuals: dict | None = None
    family_check: dict | None = None
    phi: dict | None = None
    timings: dict = field(default_factory=dict)
    dump: str | None = None  # structure dump text (embed); not part of the JSON

    def all_passed(self) -> bool:
        return all(v["passed"] for v in self.verdicts)

    def as_dict(self, deterministic: bool = False) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "kind": self.scenario.get("kind"),
            "scenario": self.scenario,
            "verdicts": self.verdicts,
            "residuals": self.residuals,
            "family_check": self.family_check,
            "phi": self.phi,
        }
        if not deterministic:
            out["timings"] = self.timings
        return out


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


# -- scenario parsing ------------------------------------------------------------


def _unquote(value: str) -> str:
    value = value.strip()
    if len(value) >= 2 and value[0] == '"' and value[-1] == '"':
        return value[1:-1]
    return value


def load_scenario(path, overrides: dict | None = None) -> Scenario:
    """Parse a scenario file, then apply ``overrides`` (field -> value, None
    keeps the file's value).  The tolerance is read in the final mode; one the
    file leaves unset takes that mode's default."""
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=(";", "#"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ScenarioError(f"malformed scenario {path}: {exc}") from exc
    if not parser.has_section("scenario"):
        raise ScenarioError("scenario file needs a [scenario] section")
    sect = parser["scenario"]
    kind = sect.get("kind", "").strip()
    if kind not in KINDS:
        raise ScenarioError(f"kind must be one of {KINDS}, got {kind!r}")
    reads = _KIND_SECTIONS[kind]
    for name in parser.sections():
        if name not in reads:
            raise ScenarioError(f"section [{name}] is not read by {kind} scenarios")
        unknown = sorted(set(parser[name]) - (reads[name] or set(parser[name])))
        if unknown:
            raise ScenarioError(f"[{name}] keys not read by {kind} scenarios: "
                                f"{', '.join(unknown)}")
    mode = sect.get("mode", FLOAT).strip()
    if mode not in (EXACT, FLOAT):
        raise ScenarioError(f"mode must be 'exact' or 'float', got {mode!r}")
    sc = Scenario(kind=kind, mode=mode)
    try:
        sc.order = sect.getint("order", sc.order)
        sc.grid = sect.getint("grid", sc.grid)
        sc.t_samples = sect.getint("t_samples", sc.t_samples)
    except ValueError as exc:
        raise ScenarioError(f"bad numeric value in [scenario]: {exc}") from exc

    if parser.has_section("metric"):
        sc.metric = {k: _unquote(v) for k, v in parser["metric"].items()}
    if parser.has_section("family"):
        sc.family = {k: _unquote(v) for k, v in parser["family"].items()}
    if parser.has_section("input"):
        sc.structure_path = _unquote(parser["input"].get("structure", "")) or None
    if parser.has_section("output"):
        out = parser["output"]
        sc.json_path = _unquote(out.get("json", "")) or None
        sc.csv_path = _unquote(out.get("csv", "")) or None
        sc.dump_path = _unquote(out.get("dump", "")) or None
    for key, value in (overrides or {}).items():
        if value is not None:
            setattr(sc, key, value)
    if "phi_tolerance" in sect:
        sc.phi_tolerance = _tolerance("phi_tolerance", sect["phi_tolerance"], FLOAT)
    if sc.tolerance is None:
        default = "0" if sc.mode == EXACT else "1e-12"
        sc.tolerance = _tolerance("tolerance", sect.get("tolerance") or default, sc.mode)
    _validate(sc)
    return sc


# an exact tolerance: p, p/q or a decimal whose exponent has at most 3 digits
_EXACT_TOLERANCE = re.compile(r"[0-9]+/[0-9]+|([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]{1,3})?")


def _tolerance(key: str, text: str, mode: str):
    """A finite, non-negative tolerance read in ``mode``; str() of it, which
    the report echoes, must stay within 4300 digits."""
    try:
        if mode == FLOAT or _EXACT_TOLERANCE.fullmatch(text):
            value = float(text) if mode == FLOAT else Fraction(text)
            if 0 <= value < float("inf") and str(value):
                return value
    except (ValueError, ZeroDivisionError):
        pass
    raise ScenarioError(f"bad {key} {text!r} in {mode} mode: need a finite number >= 0")


def _validate(sc: Scenario) -> None:
    if sc.grid < 2 or sc.t_samples < 1:
        raise ScenarioError(f"need grid >= 2 and t_samples >= 1, "
                            f"got grid = {sc.grid}, t_samples = {sc.t_samples}")
    if sc.kind == "embed" and not sc.metric:
        raise ScenarioError("embed scenarios need a [metric] section")
    if sc.kind == "verify" and not sc.structure_path:
        raise ScenarioError("verify scenarios need [input] structure = <path>")
    if sc.kind in ("family-check", "phi", "phi2d"):
        if not sc.family:
            raise ScenarioError(f"{sc.kind} scenarios need a [family] section")
        if sc.mode == EXACT:
            raise ScenarioError(f"{sc.kind} samples families in floats: mode must be float")
    if sc.kind == "family-check" and not 2 <= sc.t_samples <= 17:
        raise ScenarioError(f"family-check needs 2 <= t_samples <= 17, got {sc.t_samples}")
    if sc.kind in ("family-check", "phi", "phi2d") and sc.grid > 256:
        raise ScenarioError(f"{sc.kind} needs grid <= 256, got {sc.grid}")


def _parse_expr(text: str, where: str):
    try:
        return parse(text)
    except ParseError as exc:
        raise ScenarioError(f"in {where}: {exc}") from exc


def _pop_number(spec: dict, key: str, default: str, kind=float):
    text = spec.pop(key, default)
    try:
        value = kind(text)
        if abs(value) < float("inf"):  # False for nan
            return value
    except ValueError:
        pass
    raise ScenarioError(f"[family] {key}: not a finite number: {text!r}")


_PERIODIC_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _periodic_flag(word: str) -> bool:
    try:
        return _PERIODIC_WORDS[word.lower()]
    except KeyError:
        raise ScenarioError(f"[family] periodic: {word!r} is not one of "
                            f"0/1/true/false/yes/no") from None


def _pop_expr(spec: dict, key: str, default: str):
    return _parse_expr(spec.pop(key, default), f"[family] {key}")


def _family_from_scenario(sc: Scenario) -> MetricFamily:
    """The [family] section's family; a key that no code reads is an error."""
    spec = dict(sc.family)
    constructor = spec.pop("constructor", "direct").strip()
    # a t-range the scenario leaves out is the constructor's own
    bounds = {} if spec.keys().isdisjoint({"t_min", "t_max"}) else {"t_range": (
        _pop_number(spec, "t_min", "0"), _pop_number(spec, "t_max", "1"))}
    name = spec.pop("name", constructor)
    if constructor == "direct":
        dim = _pop_number(spec, "dim", "3", int)
        flags = tuple(map(_periodic_flag, spec.pop("periodic", "").split()))
        if flags and len(flags) != dim:
            raise ScenarioError("periodic needs one flag per x-variable")
        entries = {k: _pop_expr(spec, k, "") for k in list(spec)}
        build = partial(family_from_entries, entries, dim=dim, periodic=flags or None)
    elif constructor == "block":
        u, q, q11, q12, q22 = (_pop_expr(spec, key, default) for key, default in
                               (("u", "0"), ("q", "1"), ("q11", "1"), ("q12", "0"), ("q22", "1")))
        build = partial(fam_mod.make_block_family, u, [[q11, q12], [q12, q22]], q)
    elif constructor == "collapse22":
        build = partial(fam_mod.make_collapsing_22, _pop_expr(spec, "w", "0"),
                        _pop_number(spec, "t1", "1"))
    elif constructor == "collapse21":
        build = partial(fam_mod.make_collapsing_21, _pop_expr(spec, "w", "0"),
                        _pop_expr(spec, "v", "0"), _pop_number(spec, "t1", "1"))
    elif constructor == "cone":
        build = partial(fam_mod.make_cone_family, _pop_expr(spec, "f", "1"))
    else:
        raise ScenarioError(f"unknown family constructor {constructor!r}")
    if spec:
        raise ScenarioError(f"[family] keys not read by constructor {constructor!r}: "
                            f"{', '.join(sorted(spec))}")
    try:
        return build(**bounds, name=name)
    except FamilyError as exc:
        raise ScenarioError(f"[family]: {exc}") from exc


# -- scenario execution -------------------------------------------------------------


def _verdict(name: str, value, tolerance) -> dict:
    return {"name": name, "passed": within(value, tolerance),
            "value": _jsonable(value), "tolerance": _jsonable(tolerance)}


def _residual_verdicts(report, tol) -> tuple:
    residuals = {k: _jsonable(v) for k, v in report.as_dict().items()}
    residuals["details"] = {k: _jsonable(v) for k, v in report.details.items()}
    residuals["effective_orders"] = dict(report.effective_orders)
    verdicts = [_verdict(name, value, tol) for name, value in report.as_dict().items()]
    return residuals, verdicts


def _run_embed(sc: Scenario) -> RunReport:
    """Solve the [metric] entries, read as a family at t = 0."""
    entries = {k: _parse_expr(v, f"[metric] {k}") for k, v in sc.metric.items()}
    try:
        g = fam_mod.metric_jets(family_from_entries(entries, dim=3), 0, sc.order, sc.mode)
    except FamilyError as exc:
        raise ScenarioError(f"[metric] {exc}") from exc
    t0 = time.perf_counter()
    structure = solve_calabi_yau(g, sc.order)
    solve_s = time.perf_counter() - t0
    report = check_structure(structure)
    residuals, verdicts = _residual_verdicts(report, sc.tolerance)
    return RunReport(scenario=sc.echo(), verdicts=verdicts, residuals=residuals,
                     timings={"solve_s": solve_s},
                     dump=dump_structure(structure) if sc.dump_path else None)


def _run_verify(sc: Scenario) -> RunReport:
    try:
        with open(sc.structure_path, "r", encoding="utf-8") as fh:
            structure = load_structure(fh.read())
    except OSError as exc:
        raise ScenarioError(f"cannot read structure {sc.structure_path}: {exc}") from exc
    except SolverError as exc:
        raise ScenarioError(f"{sc.structure_path}: {exc}") from exc
    if structure.mode != sc.mode:
        raise ScenarioError(f"scenario mode {sc.mode} does not match the {structure.mode} "
                            f"mode of {sc.structure_path}")
    report = check_structure(structure)
    residuals, verdicts = _residual_verdicts(report, sc.tolerance)
    return RunReport(scenario=sc.echo(), verdicts=verdicts, residuals=residuals)


def _run_family_check(sc: Scenario) -> RunReport:
    fam = _family_from_scenario(sc)
    tol = float(sc.tolerance)
    report = check_slag_family(fam, n=sc.grid, nt=sc.t_samples, tol=tol)
    verdicts = [_verdict(name, getattr(report, name), tol) for name in
                ("det_t_independence", "det_x1_independence", "closure_residual")]
    return RunReport(scenario=sc.echo(), verdicts=verdicts,
                     family_check=_jsonable(report.as_dict()))


def _run_phi(sc: Scenario) -> RunReport:
    """Both phi kinds: the admissibility verdict, then the curve; phi2d also
    judges Phi == 1."""
    fam = _family_from_scenario(sc)
    two_d = sc.kind == "phi2d"
    if two_d and fam.dim != 2:
        raise ScenarioError("phi2d needs a 2-dimensional family")
    tol = float(sc.tolerance)
    ts = np.linspace(fam.t_range[0], fam.t_range[1], sc.t_samples)
    check = hodge_mod.phi_admissibility(fam, sc.grid, sc.t_samples, tol)
    report = RunReport(scenario=sc.echo(),
                       verdicts=[_verdict("family_admissible", check.worst, tol)],
                       family_check=_jsonable(check.as_dict()))
    if not check.passed():
        return report
    if two_d:
        curve = hodge_mod.phi_2d(fam, ts, n=sc.grid, check=False)
        report.verdicts.append(_verdict("phi_constant_equal_1",
                                        float(np.max(np.abs(curve.phi - 1.0))),
                                        sc.phi_tolerance))
    else:
        curve = hodge_mod.phi_curve(fam, ts, n=sc.grid, check=False)
    report.phi = {"t": _jsonable(curve.t), "phi": _jsonable(curve.phi),
                  "spread": curve.spread(), "classification": curve.classification(tol),
                  "integrals": _jsonable(curve.integrals)}
    return report


_RUNNERS = {
    "embed": _run_embed,
    "verify": _run_verify,
    "family-check": _run_family_check,
    "phi": _run_phi,
    "phi2d": _run_phi,
}


def _execute(sc: Scenario) -> RunReport:
    t0 = time.perf_counter()
    try:
        report = _RUNNERS[sc.kind](sc)
    except (FamilyError, SolverError, JetError, HodgeError, EvalDomainError) as exc:
        raise ScenarioError(str(exc)) from exc
    report.timings["total_s"] = time.perf_counter() - t0
    return report


# -- report emission ------------------------------------------------------------------


def _atomic_write(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def report_json(report: RunReport, deterministic: bool = False) -> str:
    return json.dumps(report.as_dict(deterministic), indent=2, sort_keys=True) + "\n"


def emit_report(report: RunReport, json_path=None, csv_path=None,
                deterministic: bool = False, dump_path=None) -> None:
    """Write the report's artifacts atomically: the JSON report, the phi CSV
    (a header only when the report has no curve) and the structure dump."""
    if dump_path and report.dump is not None:
        _atomic_write(dump_path, report.dump)
    if json_path:
        _atomic_write(json_path, report_json(report, deterministic))
    if csv_path is not None:
        phi = report.phi or {}
        _atomic_write(csv_path, phi_csv(phi.get("t") or [], phi.get("phi") or [],
                                        phi.get("integrals")))


# -- entry point ------------------------------------------------------------------------


@cache  # built once per process; parse_args leaves the parser unchanged
def _build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="slagcy",
                                 description="Calabi-Yau structures around special "
                                             "Lagrangian tori: solve, verify, and "
                                             "measure the semi-flat obstruction.")
    sub = ap.add_subparsers(dest="kind", required=True)
    for kind, sections in _KIND_SECTIONS.items():
        p = sub.add_parser(kind)
        p.add_argument("--scenario", required=True, help="scenario file path")
        for key, (flag, options) in _FLAGS.items():
            if key in sections["scenario"] | sections["output"]:
                p.add_argument(flag, **options)
        p.add_argument("--deterministic", action="store_true",
                       help="omit volatile fields (timings) from the JSON report")
    return ap


def main(argv=None) -> int:
    overrides = vars(_build_arg_parser().parse_args(argv))
    kind, path = overrides.pop("kind"), overrides.pop("scenario")
    deterministic = overrides.pop("deterministic")
    try:
        sc = load_scenario(path, overrides)  # every other flag sets a Scenario field
        if sc.kind != kind:
            raise ScenarioError(f"scenario kind {sc.kind!r} does not match subcommand {kind!r}")
        report = _execute(sc)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    emit_report(report, json_path=sc.json_path, csv_path=sc.csv_path,
                deterministic=deterministic, dump_path=sc.dump_path)
    if not sc.json_path:
        sys.stdout.write(report_json(report, deterministic))
    for v in report.verdicts:
        state = "pass" if v["passed"] else "FAIL"
        print(f"[{state}] {v['name']}: {v['value']} (tol {v['tolerance']})",
              file=sys.stderr)
    return 0 if report.all_passed() else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
