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

The scenario schema ``_KEYS`` declares each [scenario], [input] and [output]
key once; loading, key refusal, the ``Scenario`` fields, the report's echo and
the subcommands' flags follow from it.  Subcommands mirror the kinds and take
--scenario plus the flag of each key their kind reads.  Exit codes: 0 all
verdicts pass, 1 a verdict fails, 2 input or parse error.
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
from collections import namedtuple
from dataclasses import dataclass, field, make_dataclass
from fractions import Fraction
from functools import cache, partial
from pathlib import Path

from . import families as fam_mod
from .dsl import EvalDomainError, ParseError, parse
from .families import FamilyError, MetricFamily, check_slag_family, family_from_entries
from .jets import EXACT, FLOAT, JetError, within
from .solver import (
    SolverError,
    check_structure,
    dump_structure,
    load_structure,
    solve_calabi_yau,
)

SCHEMA_VERSION = 1
# The section of DSL entries each kind reads, checked when its metric or family is built
_ENTRIES = {"embed": "metric", "verify": None, "family-check": "family", "phi": "family",
            "phi2d": "family"}
KINDS = tuple(_ENTRIES)
_FAMILY_KINDS = tuple(kind for kind, entries in _ENTRIES.items() if entries == "family")


class ScenarioError(Exception):
    """Unusable scenario file; maps to exit code 2."""


# The key readers: (text, the mode read so far) -> value; a ValueError is a bad number.
def _integer(text: str, mode) -> int:
    return int(text)


def _path(text: str, mode) -> str | None:
    return _unquote(text) or None


class _Key(namedtuple("_Key", "section name kinds default read flag options",
                       defaults=(None, {}))):
    """A scenario key: the kinds that read it, the text it takes when the file
    leaves it out, its reader, and the flag (with argparse options) overriding it."""

    @property
    def field(self) -> str:
        """The Scenario field it sets; an [input] or [output] key sets a path."""
        return self.name if self.section == "scenario" else f"{self.name}_path"


# Every scenario key, in the order the file is read: each key's file text is
# read, then its flag applies, so the tolerance (unset or empty: the default of
# the final mode) comes last; an unset or empty phi_tolerance is 1e-8.  A key
# with choices takes only those words.
_KEYS = (
    _Key("scenario", "kind", KINDS, "", lambda text, mode: text.strip()),  # checked first
    _Key("scenario", "order", ("embed",), "6", _integer,
         "--order", {"type": int, "help": "override truncation order"}),
    _Key("scenario", "grid", _FAMILY_KINDS, "256", _integer,
         "--grid", {"type": int, "help": "override grid resolution"}),
    _Key("scenario", "mode", KINDS, FLOAT, lambda text, mode: text.strip(),
         "--mode", {"choices": (EXACT, FLOAT), "help": "override scalar mode"}),
    _Key("scenario", "t_samples", _FAMILY_KINDS, "21", _integer, "--t-samples", {"type": int}),
    _Key("scenario", "phi_tolerance", ("phi2d",), "",
         lambda text, mode: _tolerance("phi_tolerance", text or "1e-8", FLOAT)),
    _Key("scenario", "tolerance", KINDS, "", lambda text, mode: _tolerance(
        "tolerance", text or ("0" if mode == EXACT else "1e-12"), mode)),
    _Key("input", "structure", ("verify",), "", _path),
    _Key("output", "json", KINDS, "", _path, "--out-json", {"help": "write the JSON report here"}),
    _Key("output", "csv", ("phi", "phi2d"), "", _path,
         "--out-csv", {"help": "write the phi CSV here"}),
    _Key("output", "dump", ("embed",), "", _path, "--dump", {"help": "write a structure dump"}),
)


def _echo(self) -> dict:
    out = {key.name: _jsonable(getattr(self, key.field)) for key in _KEYS
           if key.section == "scenario"}
    out.update((name, dict(sorted(getattr(self, name).items())))
               for name in ("metric", "family") if getattr(self, name))
    return out


# A field per key and per section of DSL entries; echo() is the report's copy.
Scenario = make_dataclass("Scenario", [key.field for key in _KEYS] + [
    (name, dict, field(default_factory=dict)) for name in ("metric", "family")],
    namespace={"echo": _echo})


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
    if hasattr(value, "tolist"):  # a numpy scalar or array: Python numbers and lists
        value = value.tolist()
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
    keeps the file's value; a field the kind does not read is refused).  The
    tolerance is read in the final mode; one the file leaves unset takes that
    mode's default."""
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=(";", "#"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ScenarioError(f"malformed scenario {path}: {exc}") from exc
    sections = {name: parser[name] for name in parser.sections()}
    if "scenario" not in sections:
        raise ScenarioError("scenario file needs a [scenario] section")
    kind = sections["scenario"].get("kind", "").strip()
    if kind not in KINDS:
        raise ScenarioError(f"kind must be one of {KINDS}, got {kind!r}")
    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    refused = sorted(overrides.keys() - {key.field for key in _KEYS if kind in key.kinds})
    if refused:
        raise ScenarioError(f"overrides not read by {kind} scenarios: {', '.join(refused)}")
    entries = _ENTRIES[kind]
    reads = {entries: None} if entries else {}  # section -> the keys it may hold (None: any)
    for key in _KEYS:
        if kind in key.kinds:
            reads.setdefault(key.section, set()).add(key.name)
    for name, sect in sections.items():
        if name not in reads:
            raise ScenarioError(f"section [{name}] is not read by {kind} scenarios")
        unknown = sorted(set(sect) - (reads[name] or set(sect)))
        if unknown:
            raise ScenarioError(f"[{name}] keys not read by {kind} scenarios: "
                                f"{', '.join(unknown)}")
    values = {}
    for key in _KEYS:  # a file's bad value is refused even where a flag overrides it
        try:
            value = key.read(sections.get(key.section, {}).get(key.name, key.default),
                             values.get("mode"))
        except ValueError as exc:
            raise ScenarioError(f"bad numeric value in [{key.section}]: {exc}") from exc
        choices = key.options.get("choices")
        if choices and value not in choices:
            raise ScenarioError(f"{key.name} must be {' or '.join(map(repr, choices))}, "
                                f"got {value!r}")
        values[key.field] = overrides.get(key.field, value)
    if entries in sections:
        values[entries] = {k: _unquote(v) for k, v in sections[entries].items()}
    sc = Scenario(**values)
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
    entries = _ENTRIES[sc.kind]
    if entries and not getattr(sc, entries):
        raise ScenarioError(f"{sc.kind} scenarios need a [{entries}] section")
    if sc.kind == "verify" and not sc.structure_path:
        raise ScenarioError("verify scenarios need [input] structure = <path>")
    if entries == "family" and sc.mode == EXACT:
        raise ScenarioError(f"{sc.kind} samples families in floats: mode must be float")
    lo, hi = (2, 17) if sc.kind == "family-check" else (1, 4096)  # 4096: one linspace of t
    if entries == "family" and not lo <= sc.t_samples <= hi:
        raise ScenarioError(f"{sc.kind} needs {lo} <= t_samples <= {hi}, got {sc.t_samples}")
    if entries == "family" and sc.grid > 256:
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


# Each constructor but "direct": its builder, and the [family] keys passed to it, in
# order, with the text each takes when left out (t1 is a number, the rest expressions)
_CONSTRUCTORS = {
    "block": (lambda u, q, q11, q12, q22, **named: fam_mod.make_block_family(
        u, [[q11, q12], [q12, q22]], q, **named),
        {"u": "0", "q": "1", "q11": "1", "q12": "0", "q22": "1"}),
    "collapse22": (fam_mod.make_collapsing_22, {"w": "0", "t1": "1"}),
    "collapse21": (fam_mod.make_collapsing_21, {"w": "0", "v": "0", "t1": "1"}),
    "cone": (fam_mod.make_cone_family, {"f": "1"}),
}


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
    elif constructor in _CONSTRUCTORS:
        builder, keys = _CONSTRUCTORS[constructor]
        build = partial(builder, *((_pop_number if key == "t1" else _pop_expr)(spec, key, text)
                                   for key, text in keys.items()))
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
    judges Phi == 1.  The grid kinds alone load hodge, and with it numpy."""
    from numpy import linspace
    from . import hodge
    fam = _family_from_scenario(sc)
    two_d = sc.kind == "phi2d"
    if two_d and fam.dim != 2:
        raise ScenarioError("phi2d needs a 2-dimensional family")
    tol = float(sc.tolerance)
    ts = linspace(fam.t_range[0], fam.t_range[1], sc.t_samples)
    check = hodge.phi_admissibility(fam, sc.grid, sc.t_samples, tol)
    report = RunReport(scenario=sc.echo(),
                       verdicts=[_verdict("family_admissible", check.worst, tol)],
                       family_check=_jsonable(check.as_dict()))
    if not check.passed():
        return report
    curve = (hodge.phi_2d if two_d else hodge.phi_curve)(fam, ts, n=sc.grid, check=False)
    if two_d:
        report.verdicts.append(_verdict("phi_constant_equal_1",
                                        float(abs(curve.phi - 1.0).max()), sc.phi_tolerance))
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
    except (FamilyError, SolverError, JetError, EvalDomainError) as exc:
        raise ScenarioError(str(exc)) from exc
    report.timings["total_s"] = time.perf_counter() - t0
    return report


# -- report emission ------------------------------------------------------------------


def _write_together(files) -> None:
    """Write each (path, text) of ``files`` to a temp file beside its path, and rename them
    into place once all are written; a failure unlinks every temp file it leaves."""
    temps = []
    try:
        for path, text in files:
            path = Path(path)
            if path.is_dir():  # os.replace would refuse it only after the earlier renames
                raise ScenarioError(f"cannot write {path}: Is a directory")
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
            temps.append((tmp, path))
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
        for tmp, path in temps:
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp, _ in temps:
            Path(tmp).unlink(missing_ok=True)  # a renamed one is gone already
        if isinstance(exc, OSError):  # an output path is part of the scenario; name it
            raise ScenarioError(f"cannot write {path}: {exc.strerror}") from exc
        raise


def report_json(report: RunReport, deterministic: bool = False) -> str:
    return json.dumps(report.as_dict(deterministic), indent=2, sort_keys=True) + "\n"


def emit_report(report: RunReport, json_path=None, csv_path=None,
                deterministic: bool = False, dump_path=None) -> None:
    """Write the report's artifacts together (`_write_together`): the structure dump,
    the JSON report and the phi CSV (a header only when the report has no curve)."""
    files = []
    if dump_path and report.dump is not None:
        files.append((dump_path, report.dump))
    if json_path:
        files.append((json_path, report_json(report, deterministic)))
    if csv_path is not None:
        from .hodge import phi_csv
        phi = report.phi or {}
        files.append((csv_path, phi_csv(phi.get("t") or [], phi.get("phi") or [],
                                        phi.get("integrals"))))
    _write_together(files)


# -- entry point ------------------------------------------------------------------------


@cache  # built once per process; parse_args leaves the parser unchanged
def _build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="slagcy",
                                 description="Calabi-Yau structures around special "
                                             "Lagrangian tori: solve, verify, and "
                                             "measure the semi-flat obstruction.")
    sub = ap.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind)
        p.add_argument("--scenario", required=True, help="scenario file path")
        for key in _KEYS:
            if key.flag and kind in key.kinds:
                p.add_argument(key.flag, dest=key.field, **key.options)
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
        emit_report(report, json_path=sc.json_path, csv_path=sc.csv_path,
                    deterministic=deterministic, dump_path=sc.dump_path)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not sc.json_path:
        sys.stdout.write(report_json(report, deterministic))
    for v in report.verdicts:
        state = "pass" if v["passed"] else "FAIL"
        print(f"[{state}] {v['name']}: {v['value']} (tol {v['tolerance']})",
              file=sys.stderr)
    return 0 if report.all_passed() else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
