"""Seeded scenario generators and output checks for the four workloads.

Every parameter comes from ``random.Random(f"{workload}:{seed}:{pass}")``,
so one seed always yields the same scenario files.  The program under test
only ever sees the generated ``.ini`` files; the parameters kept in
``OpSpec.params`` are the benchmark's own knowledge, used to check the
program's answers independently of its verdicts.

This module imports only the standard library, so the launcher can use it
before numpy is loaded.
"""

from __future__ import annotations

import configparser
import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("embed_float", "embed_exact", "phi_3d", "phi_2d")

# Ops in one pass.  A run measures whole passes, each over freshly generated
# ops, as many as fit in its time and at least one; on the seed code one
# pass takes 15-25 s on a shared 2-core machine.
PASS_OPS = {"embed_float": 20, "embed_exact": 20, "phi_3d": 15, "phi_2d": 40}
# The traced run replays the first ops of the first pass.
TRACE_OPS = {"embed_float": 5, "embed_exact": 5, "phi_3d": 5, "phi_2d": 10}
DRIFT_EVERY = 5   # phi_3d: one drift family in each group of five

EMBED_FLOAT_ORDER = 8
EMBED_EXACT_ORDER = 6
PHI_3D_GRID = 256
PHI_2D_GRID = 128
T_SAMPLES = 21

# Bounds of the benchmark's own correctness checks.
FLOAT_REL_RESIDUAL = 1e-12
PHI_3D_ABS_ERR = 1e-10
PHI_2D_ABS_ERR = 1e-8

MONOMIALS = ("x1", "x2", "x3", "x1^2", "x2^2", "x3^2", "x1*x2", "x1*x3", "x2*x3")
PAIRS = ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))


class CheckFailure(Exception):
    """An op's output disagrees with what the benchmark knows to be right."""


@dataclass
class OpSpec:
    """One generated op: its scenario text and the parameters behind it."""

    workload: str
    index: int
    scenario: str
    params: dict = field(default_factory=dict)


def _decimal(rng: random.Random, lo: float, hi: float, digits: int = 4) -> str:
    """A uniform draw in [lo, hi] written with ``digits`` decimals."""
    return f"{rng.uniform(lo, hi):.{digits}f}"


def _balanced(rng: random.Random, levels, n: int) -> list:
    """n draws from ``levels`` in which every level occurs equally often (up
    to one), in random order.  Structural choices are drawn this way per
    pass, so that passes of different seeds do the same mix of work."""
    out = [levels[k % len(levels)] for k in range(n)]
    rng.shuffle(out)
    return out


# -- generators ------------------------------------------------------------------


def _embed_float(rng: random.Random, n: int) -> list:
    """Each upper entry is delta_ij + a*sin|cos(2*pi*k*x_v).  The diagonal
    takes each coordinate once, so every direction of the torus carries a
    trigonometric term."""
    diag_vars = _balanced(rng, list(itertools.permutations((1, 2, 3))), n)
    cols = {(i, j): (_balanced(rng, ("sin", "cos"), n), _balanced(rng, (1, 2), n),
                     _balanced(rng, (1, 2, 3), n)) for i, j in PAIRS}
    ops = []
    for r in range(n):
        lines, amps = [], {}
        for i, j in PAIRS:
            fns, ks, vs = cols[i, j]
            a = _decimal(rng, 0.05, 0.15) if i == j else _decimal(rng, 0.01, 0.05)
            v = diag_vars[r][i - 1] if i == j else vs[r]
            term = f"{a}*{fns[r]}(2*pi*{ks[r]}*x{v})"
            lines.append(f'g{i}{j} = "{"1 + " + term if i == j else term}"\n')
            amps[f"g{i}{j}"] = float(a)
        text = ("[scenario]\nkind = embed\nmode = float\n"
                f"order = {EMBED_FLOAT_ORDER}\ntolerance = 1e-12\n\n[metric]\n") + "".join(lines)
        ops.append((text, {"amplitudes": amps}))
    return ops


def _embed_exact(rng: random.Random, n: int) -> list:
    """Each entry is delta_ij plus two distinct monomials of degree 1 or 2
    with coefficients p/q, p in 1..3, q in {2, 4, 8}."""
    cols = {}
    for i, j in PAIRS:
        monos = _balanced(rng, MONOMIALS, 2 * n)
        for r in range(0, 2 * n, 2):        # keep the two monomials of an entry distinct
            if monos[r] == monos[r + 1]:
                s = next(s for s in range(2 * n) if monos[s] != monos[r] and s // 2 != r // 2
                         and monos[r] not in monos[2 * (s // 2):2 * (s // 2) + 2])
                monos[r + 1], monos[s] = monos[s], monos[r + 1]
        cols[i, j] = (monos, _balanced(rng, (1, 2, 3), 2 * n), _balanced(rng, (2, 4, 8), 2 * n))
    ops = []
    for r in range(n):
        lines, coeffs = [], {}
        for i, j in PAIRS:
            monos, ps, qs = cols[i, j]
            terms = []
            for slot in (2 * r, 2 * r + 1):
                c = Fraction(ps[slot], qs[slot])
                terms.append(f"{c}*{monos[slot]}")
                coeffs.setdefault(f"g{i}{j}", []).append(str(c))
            body = " + ".join(terms)
            lines.append(f'g{i}{j} = "{"1 + " + body if i == j else body}"\n')
        text = ("[scenario]\nkind = embed\nmode = exact\n"
                f"order = {EMBED_EXACT_ORDER}\ntolerance = 0\n\n[metric]\n") + "".join(lines)
        ops.append((text, {"coefficients": coeffs}))
    return ops


def _phi_3d(rng: random.Random, n: int) -> list:
    """diag(e^-2u, e^u, e^u), u = c*t*sin(2*pi*k*x1); one family in each
    group of five multiplies g11 by e^(eps*t), so its determinant drifts."""
    ks = _balanced(rng, (1, 2, 3), n)
    drift_at = {g + rng.randrange(DRIFT_EVERY) for g in range(0, n, DRIFT_EVERY)}
    ops = []
    for r in range(n):
        c = _decimal(rng, 0.5, 1.5, 3)
        u = f"{c}*t*sin(2*pi*{ks[r]}*x1)"
        g11 = f"exp(-2*{u})"
        params = {"c": float(c), "k": ks[r], "drift": r in drift_at}
        if params["drift"]:
            eps = _decimal(rng, 0.05, 0.2, 3)
            g11 = f"exp({eps}*t)*{g11}"
            params["eps"] = float(eps)
        text = ("[scenario]\nkind = phi\nmode = float\n"
                f"grid = {PHI_3D_GRID}\nt_samples = {T_SAMPLES}\ntolerance = 1e-10\n\n"
                "[family]\nconstructor = direct\ndim = 3\nt_min = 0\nt_max = 1\n"
                f'g11 = "{g11}"\ng22 = "exp({u})"\ng33 = "exp({u})"\n')
        ops.append((text, params))
    return ops


def _phi_2d(rng: random.Random, n: int) -> list:
    """g11 = e^w, g12 = b, g22 = (C(x2) + b^2) e^-w with w = c*t*cos(2*pi*k*x1)
    and C = 1 + a*cos(2*pi*x2): admissible, with det = C(x2)."""
    ks = _balanced(rng, (1, 2, 3), n)
    ops = []
    for r in range(n):
        c = _decimal(rng, 0.5, 1.5, 3)
        a = _decimal(rng, 0.1, 0.5, 3)
        b = Fraction(rng.randint(1, 8), 16)
        w = f"{c}*t*cos(2*pi*{ks[r]}*x1)"
        text = ("[scenario]\nkind = phi2d\nmode = float\n"
                f"grid = {PHI_2D_GRID}\nt_samples = {T_SAMPLES}\ntolerance = 1e-10\n"
                "phi_tolerance = 1e-8\n\n"
                "[family]\nconstructor = direct\ndim = 2\nt_min = 0\nt_max = 1\n"
                f'g11 = "exp({w})"\ng12 = "{b}"\n'
                f'g22 = "(1 + {a}*cos(2*pi*x2) + ({b})^2)*exp(-{w})"\n')
        ops.append((text, {"c": float(c), "k": ks[r], "a": float(a), "b": str(b)}))
    return ops


_GENERATORS = {"embed_float": _embed_float, "embed_exact": _embed_exact,
               "phi_3d": _phi_3d, "phi_2d": _phi_2d}


def make_pass(workload: str, seed: int, index: int) -> list:
    """The ops of pass ``index`` of a workload for a seed; index -1 is the
    warm-up pass."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    ops = _GENERATORS[workload](rng, PASS_OPS[workload])
    base = index * PASS_OPS[workload]
    return [OpSpec(workload, base + r, text, params) for r, (text, params) in enumerate(ops)]


def section(scenario: str, name: str) -> dict:
    """One section of a generated scenario, with the quotes of its values removed."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(scenario)
    return {k: v.strip().strip('"') for k, v in parser[name].items()}


# -- files and command lines -------------------------------------------------------


@dataclass
class OpFiles:
    """Where one op's inputs and outputs live, and the CLI calls it makes."""

    spec: OpSpec
    scenario: Path
    report: Path
    dump: Path | None = None
    verify_scenario: Path | None = None
    verify_report: Path | None = None
    cli_output: str = ""          # what the CLI printed on its last run

    def calls(self) -> list:
        """argv lists for ``slagcy.cli.main``, in order."""
        wl = self.spec.workload
        if wl in ("phi_3d", "phi_2d"):
            kind = "phi" if wl == "phi_3d" else "phi2d"
            return [[kind, "--scenario", str(self.scenario), "--out-json", str(self.report)]]
        out = [["embed", "--scenario", str(self.scenario), "--out-json", str(self.report),
                "--dump", str(self.dump)]]
        if self.verify_scenario is not None:
            out.append(["verify", "--scenario", str(self.verify_scenario),
                        "--out-json", str(self.verify_report)])
        return out


def write_op(spec: OpSpec, workdir: Path) -> OpFiles:
    stem = workdir / f"op{spec.index:04d}"
    files = OpFiles(spec, stem.with_suffix(".ini"), stem.with_suffix(".json"))
    files.scenario.write_text(spec.scenario, encoding="utf-8")
    if spec.workload.startswith("embed"):
        files.dump = stem.with_suffix(".dump")
    if spec.workload == "embed_exact":
        files.verify_scenario = workdir / f"op{spec.index:04d}_verify.ini"
        files.verify_report = workdir / f"op{spec.index:04d}_verify.json"
        files.verify_scenario.write_text(
            "[scenario]\nkind = verify\nmode = exact\ntolerance = 0\n\n"
            f'[input]\nstructure = "{files.dump}"\n', encoding="utf-8")
    return files


# -- correctness checks ---------------------------------------------------------------


def expected_exits(spec: OpSpec) -> tuple:
    """Exit codes each call of the op may return.  Float embeds may exit 1:
    their verdicts gate absolute residuals that grow with the order, which
    the benchmark's relative check below does not count as wrong."""
    if spec.workload == "embed_float":
        return ((0, 1),)
    if spec.workload == "embed_exact":
        return ((0,), (0,))
    if spec.workload == "phi_3d" and spec.params["drift"]:
        return ((1,),)
    return ((0,),)


def residual_values(report: dict) -> list:
    """Every residual value of a report: the constraint maxima and details."""
    res = report.get("residuals") or {}
    vals = [v for k, v in res.items() if k.startswith("res_")]
    vals.extend((res.get("details") or {}).values())
    if not vals:
        raise CheckFailure("report has no residuals")
    return vals


def dump_max_coeff(text: str) -> float:
    """Largest |coefficient| over all sections of a structure dump."""
    best = 0.0
    for line in text.splitlines():
        if line.startswith("[") or ":" not in line:
            continue
        best = max(best, abs(float(Fraction(line.partition(":")[2].strip()))))
    return best


def _load(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def i0_ratio(c: float, ts) -> list:
    """Phi(t) = I0(ct)^2 / I0(2ct) for the Bessel-type family."""
    import numpy as np
    ts = np.asarray(ts, dtype=np.float64)
    return list(np.i0(c * ts) ** 2 / np.i0(2 * c * ts))


def check_op(files: OpFiles, exits: list) -> dict:
    """Check one op's outputs.  Raises CheckFailure; returns figures the
    traced run reports (relative residual, Phi error)."""
    spec = files.spec
    allowed = expected_exits(spec)
    if len(exits) != len(allowed):
        raise CheckFailure(f"op {spec.index}: {len(exits)} CLI calls, expected {len(allowed)}")
    for code, ok in zip(exits, allowed):
        if code not in ok:
            raise CheckFailure(f"op {spec.index}: exit {code}, expected one of {ok}")
    out: dict = {}
    wl = spec.workload
    if wl == "embed_float":
        scale = dump_max_coeff(files.dump.read_text(encoding="utf-8"))
        worst = max(float(v) for v in residual_values(_load(files.report)))
        if not (scale > 0 and worst <= FLOAT_REL_RESIDUAL * scale):
            raise CheckFailure(f"op {spec.index}: residual {worst} vs max |coeff| {scale}")
        out["rel_residual"] = worst / scale
    elif wl == "embed_exact":
        for path in (files.report, files.verify_report):
            bad = [v for v in residual_values(_load(path)) if v != "0"]
            if bad:
                raise CheckFailure(f"op {spec.index}: non-zero exact residuals {bad[:3]}")
        out["rel_residual"] = 0.0
    else:
        report = _load(files.report)
        if wl == "phi_3d" and spec.params["drift"]:
            verdicts = {v["name"]: v["passed"] for v in report["verdicts"]}
            if verdicts.get("family_admissible") is not False or report.get("phi") is not None:
                raise CheckFailure(f"op {spec.index}: drift family was not rejected")
            return out
        phi = report.get("phi") or {}
        ts, values = phi.get("t") or [], phi.get("phi") or []
        if len(ts) != T_SAMPLES or len(values) != T_SAMPLES:
            raise CheckFailure(f"op {spec.index}: expected {T_SAMPLES} Phi samples")
        if any(abs(t - k / (T_SAMPLES - 1)) > 1e-12 for k, t in enumerate(ts)):
            raise CheckFailure(f"op {spec.index}: Phi is not sampled at t = k/{T_SAMPLES - 1}")
        if wl == "phi_3d":
            want, bound = i0_ratio(spec.params["c"], ts), PHI_3D_ABS_ERR
        else:
            want, bound = [1.0] * len(ts), PHI_2D_ABS_ERR
        err = max(abs(p - w) for p, w in zip(values, want))
        if not err <= bound:
            raise CheckFailure(f"op {spec.index}: |Phi - expected| = {err} > {bound}")
        out["phi_err"] = err
    return out
