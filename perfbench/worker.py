"""One workload process: run ops through ``slagcy.cli.main`` (untraced) or
replay them through the public functions with spans (traced).

Started by ``run.py`` with the thread-count environment already set; writes
one JSON record to ``--out`` and nothing else the launcher relies on.

Untraced run (``--trace 0``): one warm-up op, then whole passes of freshly
generated ops while the next pass is expected to end within ``--seconds``
(at least one pass).  Each op is the CLI call(s) of its workload; its
latency is measured around those calls only, between two timings of the
workload's reference computation, and its outputs are checked afterwards.

Traced run (``--trace 1``): the layer probes of the workload (order sweep,
jet product, family check sizes), then the first ops of the first pass, each
run once through the CLI and once as a replay of the same stages through the
public functions, every stage inside a span.  The replay's residuals, dumps
and Phi values must equal the CLI's bit for bit.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import random
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as W  # noqa: E402

from slagcy import cli, families, hodge, solver  # noqa: E402
from slagcy.dsl import eval_jet, parse  # noqa: E402
from slagcy.jets import X1, X2, X3, Jet  # noqa: E402

ORDER_SWEEP = range(4, 11)


# -- spans -------------------------------------------------------------------------


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, op id]."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.op = None

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def patched(self):
        """Wrap the functions the replayed calls reach internally, so their
        time shows as child spans; restore them afterwards."""
        targets = [
            (solver, "holomorphic_extend", "jets.holomorphic_extend"),
            (families.MetricFamily, "sample_matrix", "families.sample_matrix"),
            (hodge, "harmonic_basis_diag3", "hodge.basis"),
            (hodge, "harmonic_basis_2d", "hodge.basis"),
            (hodge, "gram_L2", "hodge.gram"),
        ]
        saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in targets]
        try:
            for (obj, attr, name), (_, _, fn) in zip(targets, saved):
                setattr(obj, attr, self.wrap(fn, name))
            yield
        finally:
            for obj, attr, fn in saved:
                setattr(obj, attr, fn)

    def per_op(self) -> dict:
        """{op id: {"top": summed top-level seconds, name: summed seconds}}."""
        out: dict = {}
        for name, start, end, parent, op in self.spans:
            rec = out.setdefault(op, {"top": 0.0})
            rec[name] = rec.get(name, 0.0) + (end - start)
            if parent is None:
                rec["top"] += end - start
        return out


# -- running ops through the CLI ------------------------------------------------------


def run_cli(files: W.OpFiles) -> tuple:
    """Run the op's CLI calls; return (seconds, exit codes).  What the CLI
    prints is kept and shown only when the op fails its check."""
    codes = []
    out = io.StringIO()
    with contextlib.redirect_stderr(out), contextlib.redirect_stdout(out):
        t0 = time.perf_counter()
        for argv in files.calls():
            codes.append(cli.main(argv))
        dt = time.perf_counter() - t0
    files.cli_output = out.getvalue()
    return dt, codes


def _report_failure(files: W.OpFiles) -> None:
    traceback.print_exc()
    sys.stderr.write(files.cli_output)


# -- reference computations --------------------------------------------------------
#
# The machine this benchmark was tuned on is shared: for minutes at a time,
# interpreter-bound code runs up to 1.7x slower while streaming numpy code
# barely changes.  Each op is therefore also expressed in units of a fixed
# reference computation timed right before and after it, one with the cost
# profile of the workload's dominant layer.  The reference uses no slagcy
# code, so a change to the program moves the ratio as it moves the op.

_REF_POLY = {(i, j, k): 1.0 + 0.001 * (i + 2 * j + 3 * k)
             for i in range(6) for j in range(6 - i) for k in range(6 - i - j)}


def _ref_interp() -> float:
    """Sparse dict polynomial products, like the jet arithmetic."""
    for _ in range(15):
        out: dict = {}
        for ka, va in _REF_POLY.items():
            for kb, vb in _REF_POLY.items():
                key = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
                out[key] = out.get(key, 0.0) + va * vb
    return out[(0, 0, 0)]


def _ref_stream() -> float:
    """Elementwise functions and a gradient over a 96^3 grid, like the family check."""
    grid = np.linspace(0.0, 1.0, 96 ** 3).reshape(96, 96, 96)
    return float(np.max(np.abs(np.gradient(np.exp(np.sin(grid)), axis=0))))


REFERENCE = {"embed_float": _ref_interp, "embed_exact": _ref_interp,
             "phi_3d": _ref_stream, "phi_2d": _ref_interp}


def _time_ref(ref) -> float:
    t0 = time.perf_counter()
    ref()
    return time.perf_counter() - t0


def untraced(args, workdir: Path) -> dict:
    ref = REFERENCE[args.workload]
    (workdir / "warm").mkdir()
    run_cli(W.write_op(W.make_pass(args.workload, args.seed, -1)[0], workdir / "warm"))
    _time_ref(ref)
    start = time.perf_counter()
    lat, rel, refs, pass_walls, pass_rel = [], [], [], [], []
    attempted = failed = verdict_fail = 0
    while not pass_walls or (time.perf_counter() - start + statistics.mean(pass_walls)
                             <= args.seconds):
        ops = [W.write_op(s, workdir) for s in W.make_pass(args.workload, args.seed,
                                                            len(pass_walls))]
        wall = wall_rel = 0.0
        before = _time_ref(ref)
        refs.append(before)
        for files in ops:
            attempted += 1
            try:
                dt, codes = run_cli(files)
                after = _time_ref(ref)
                refs.append(after)
                lat.append(dt)
                rel.append(dt / ((before + after) / 2))
                before = after
                wall += dt
                wall_rel += rel[-1]
                W.check_op(files, codes)
                verdict_fail += _verdict_fail(files, codes)
            except Exception:  # an op that raises or fails its check is counted, not fatal
                failed += 1
                _report_failure(files)
        pass_walls.append(wall)
        pass_rel.append(wall_rel)
    return {
        "attempted": attempted, "failed": failed, "verdict_fail_ops": verdict_fail,
        "op_latencies_s": lat, "op_latencies_ref": rel, "reference_s": refs,
        "pass_walls_s": pass_walls, "pass_walls_ref": pass_rel,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _verdict_fail(files: W.OpFiles, codes: list) -> int:
    """1 when the CLI exits 1 on an op whose answer the benchmark accepts
    and which it does not expect to be rejected."""
    rejected = files.spec.workload == "phi_3d" and files.spec.params["drift"]
    return int(not rejected and 1 in codes)


# -- replay through the public functions --------------------------------------------------


class ReplayMismatch(Exception):
    """The replay's numbers differ from the CLI's for the same inputs."""


def _load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _plain(value):
    return str(value) if isinstance(value, Fraction) else float(value)


def _residual_payload(report) -> dict:
    residuals = {k: _plain(v) for k, v in report.as_dict().items()}
    residuals["details"] = {k: _plain(v) for k, v in report.details.items()}
    residuals["effective_orders"] = dict(report.effective_orders)
    return residuals


def _emit_residuals(sc, report, path: Path) -> dict:
    residuals = _residual_payload(report)
    verdicts = [{"name": k, "passed": bool(v <= sc.tolerance), "value": _plain(v),
                 "tolerance": _plain(sc.tolerance)} for k, v in report.as_dict().items()]
    cli.emit_report(cli.RunReport(scenario=sc.echo(), verdicts=verdicts, residuals=residuals),
                    json_path=path)
    return residuals


def metric_jets(metric: dict, order: int, mode: str) -> list:
    """The metric's upper entries parsed and expanded into jets, as the CLI does."""
    gens = {"x1": Jet.variable(X1, order, mode), "x2": Jet.variable(X2, order, mode),
            "x3": Jet.variable(X3, order, mode), "t": Jet.constant(0, order, mode)}
    g = [[None] * 3 for _ in range(3)]
    for i in range(1, 4):
        for j in range(i, 4):
            jet = eval_jet(parse(metric.get(f"g{i}{j}", "0")), gens)
            g[i - 1][j - 1] = g[j - 1][i - 1] = jet
    return g


def family_of(spec: dict) -> families.MetricFamily:
    """A scenario's [family] section built through the public constructor."""
    spec = dict(spec)
    dim = int(spec.pop("dim"))
    t_range = (float(spec.pop("t_min")), float(spec.pop("t_max")))
    name = spec.pop("constructor")
    return families.family_from_entries({k: parse(v) for k, v in spec.items()}, dim=dim,
                                        t_range=t_range, name=name)


def replay_embed(tr: Tracer, files: W.OpFiles, outdir: Path) -> dict:
    with tr.span("cli.load_scenario"):
        sc = cli.load_scenario(files.scenario)
    with tr.span("dsl.expand"):
        g = metric_jets(sc.metric, sc.order, sc.mode)
    with tr.span("solver.build_gamma"):
        gamma = solver.build_gamma(g)
    zero = g[0][0].zero_like()
    entries = {f"a{i}{j}": g[i - 1][j - 1] for i in (1, 2, 3) for j in (1, 2, 3)}
    entries.update({"b12": zero, "b13": zero, "b23": zero})
    state = solver.HermitianJet(entries)
    for step in (1, 2, 3):
        with tr.span(f"solver.ck_step{step}"):
            state = solver.ck_step(step, state, gamma)
    structure = solver.CYStructureJet(h=state, gamma=gamma, g=tuple(tuple(r) for r in g),
                                      policy=solver.CONSTANT_POLICY, order=sc.order)
    with tr.span("solver.check_structure"):
        report = solver.check_structure(structure)
    with tr.span("solver.dump"):
        dump = solver.dump_structure(structure)
    with tr.span("cli.emit"):
        (outdir / "replay.dump").write_text(dump, encoding="utf-8")
        out = {"structure": structure, "dump": dump,
               "residuals": _emit_residuals(sc, report, outdir / "replay.json")}
    if files.verify_scenario is None:
        return out
    with tr.span("cli.load_scenario"):
        vsc = cli.load_scenario(files.verify_scenario)
    with tr.span("solver.load"):
        with open(vsc.structure_path, "r", encoding="utf-8") as fh:
            loaded = solver.load_structure(fh.read())
    with tr.span("solver.check_structure"):
        vreport = solver.check_structure(loaded)
    with tr.span("cli.emit"):
        out["verify_residuals"] = _emit_residuals(vsc, vreport, outdir / "replay_verify.json")
    return out


def replay_phi(tr: Tracer, files: W.OpFiles, outdir: Path) -> dict:
    with tr.span("cli.load_scenario"):
        sc = cli.load_scenario(files.scenario)
    with tr.span("dsl.expand"):
        fam = family_of(sc.family)
    tol = float(sc.tolerance)
    ts = np.linspace(fam.t_range[0], fam.t_range[1], sc.t_samples)
    with tr.span("families.check"):
        check = families.check_slag_family(fam, n=min(sc.grid, 128),
                                           nt=max(2, min(sc.t_samples, 9)), tol=tol)
    payload = None
    if check.passed():
        with tr.span("hodge.curve"):
            if fam.dim == 3:
                curve = hodge.phi_curve(fam, ts, n=sc.grid, check=False)
            else:
                curve = hodge.phi_2d(fam, ts, n=min(sc.grid, 256), check=False)
        payload = {"t": curve.t.tolist(), "phi": curve.phi.tolist(), "spread": curve.spread(),
                   "classification": curve.classification(tol),
                   "integrals": curve.integrals.tolist()}
    worst = max(check.det_t_independence, check.det_x1_independence, check.closure_residual)
    verdicts = [{"name": "family_admissible", "passed": bool(worst <= tol), "value": worst,
                 "tolerance": tol}]
    with tr.span("cli.emit"):
        cli.emit_report(cli.RunReport(scenario=sc.echo(), verdicts=verdicts,
                                      family_check=check.as_dict(), phi=payload),
                        json_path=outdir / "replay.json")
    return {"family_check": check.as_dict(), "phi": payload}


def compare(files: W.OpFiles, replay: dict) -> None:
    """Raise ReplayMismatch unless the replay reproduced the CLI's numbers."""
    where = f"op {files.spec.index}"
    pairs = []
    if "dump" in replay:
        pairs.append(("dump", replay["dump"], files.dump.read_text(encoding="utf-8")))
        for key, path in (("residuals", files.report), ("verify_residuals", files.verify_report)):
            if key not in replay:
                continue
            got = _load_json(path)["residuals"]
            mine = replay[key]
            pairs += [(f"{key}.{k}", v, got.get(k))
                      for k, v in mine.items() if k.startswith("res_")]
            pairs += [(f"{key}.details.{k}", v, got["details"].get(k))
                      for k, v in mine["details"].items()]
    else:
        got = _load_json(files.report)
        pairs += [(f"family_check.{k}", v, got["family_check"].get(k))
                  for k, v in replay["family_check"].items()]
        pairs.append(("phi", (replay["phi"] or {}).get("phi"), (got["phi"] or {}).get("phi")))
    for name, mine, theirs in pairs:
        if mine != theirs:
            raise ReplayMismatch(f"{where}: {name} differs between replay and CLI")


# -- layer probes -----------------------------------------------------------------------


def _timed(fn, repeats: int = 1) -> tuple:
    times, result = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def sweep_metric(workload: str, seed: int) -> dict:
    """The metric of the order sweep.  Float: the workload's first op.  Exact:
    one seeded degree-2 monomial per entry, the shape of the shipped
    polynomial scenario; the workload's own two-monomial metrics take about
    30 s at order 10, too long for a run."""
    if workload == "embed_float":
        return W.section(W.make_pass(workload, seed, 0)[0].scenario, "metric")
    rng = random.Random(f"sweep:{seed}")
    metric = {}
    for i, j in W.PAIRS:
        c = Fraction(rng.randint(1, 3), rng.choice((2, 4, 8)))
        mono = rng.choice(W.MONOMIALS[3:])
        metric[f"g{i}{j}"] = f"1 + {c}*{mono}" if i == j else f"{c}*{mono}"
    return metric


def probes(args) -> dict:
    """Layer probes.  Probes of a layer the workload does not run read 0."""
    out: dict = {f"solver.solve_s.{mode}.o{order}": 0.0
                 for mode in ("float", "exact") for order in ORDER_SWEEP}
    out.update({"families.check_s.n64": 0.0, "families.check_s.n128": 0.0,
                "families.check_peak_alloc_mb": 0.0, "families.check_computed_bytes": 0,
                "jets.mul_s": 0.0, "jets.mul_terms": 0})
    wl = args.workload
    if wl.startswith("embed"):
        mode = "float" if wl == "embed_float" else "exact"
        metric = sweep_metric(wl, args.seed)
        for order in ORDER_SWEEP:
            g = metric_jets(metric, order, mode)
            out[f"solver.solve_s.{mode}.o{order}"], _ = _timed(
                lambda: solver.solve_calabi_yau(g, order))
    else:
        admissible = next(s for s in W.make_pass(wl, args.seed, 0) if not s.params.get("drift"))
        fam = family_of(W.section(admissible.scenario, "family"))
        for n, reps in ((64, 3), (128, 1)):
            out[f"families.check_s.n{n}"], _ = _timed(
                lambda: families.check_slag_family(fam, n=n, nt=9, tol=1e-10), reps)
        tracemalloc.start()
        try:
            families.check_slag_family(fam, n=128, nt=9, tol=1e-10)
            out["families.check_peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        out["families.check_computed_bytes"] = 9 * 128 ** fam.dim * 8
    return out


_SPAN_METRICS = (
    ("cli.load_scenario_s", "cli.load_scenario"), ("cli.emit_s", "cli.emit"),
    ("dsl.expand_s", "dsl.expand"), ("families.sample_matrix_s", "families.sample_matrix"),
    ("jets.holomorphic_extend_s", "jets.holomorphic_extend"),
    ("solver.build_gamma_s", "solver.build_gamma"), ("solver.ck_step1_s", "solver.ck_step1"),
    ("solver.ck_step2_s", "solver.ck_step2"), ("solver.ck_step3_s", "solver.ck_step3"),
    ("solver.check_structure_s", "solver.check_structure"), ("solver.dump_s", "solver.dump"),
    ("solver.load_s", "solver.load"), ("families.check_s", "families.check"),
    ("hodge.basis_s", "hodge.basis"), ("hodge.gram_s", "hodge.gram"),
    ("hodge.curve_s", "hodge.curve"),
)


def traced(args, workdir: Path) -> dict:
    """Probes, then each traced op through the CLI and as a replay."""
    layer = probes(args)
    tr = Tracer()
    replay = replay_embed if args.workload.startswith("embed") else replay_phi
    specs = W.make_pass(args.workload, args.seed, 0)[:W.TRACE_OPS[args.workload]]
    cli_lat, replay_wall = [], {}
    failed = verdict_fail = mismatches = rejected = 0
    rel_res, phi_err, terms, dump_bytes, structures = [], [], [], [], []
    for files in [W.write_op(s, workdir) for s in specs]:
        outdir = workdir / f"replay{files.spec.index:04d}"
        outdir.mkdir()
        try:
            dt, codes = run_cli(files)
            cli_lat.append(dt)
            checked = W.check_op(files, codes)
            verdict_fail += _verdict_fail(files, codes)
            tr.op = files.spec.index
            with tr.patched():
                t0 = time.perf_counter()
                info = replay(tr, files, outdir)
                replay_wall[files.spec.index] = time.perf_counter() - t0
            compare(files, info)
        except Exception as exc:  # an op that raises or fails its check is counted, not fatal
            failed += 1
            mismatches += isinstance(exc, ReplayMismatch)
            _report_failure(files)
            continue
        finally:
            tr.op = None
        if "structure" in info:
            s = info["structure"]
            structures.append(s)
            terms.append(sum(len(j.coeffs) for j in s.h.entries.values())
                         + len(s.gamma.re.coeffs) + len(s.gamma.im.coeffs))
            dump_bytes.append(len(info["dump"].encode("utf-8")))
            rel_res.append(checked["rel_residual"])
        else:
            rejected += info["phi"] is None
            phi_err.extend([checked["phi_err"]] if "phi_err" in checked else [])
    if structures:   # the two largest entries of the last solved structure
        a, b = sorted(structures[-1].h.entries.values(), key=lambda j: len(j.coeffs))[-2:]
        layer["jets.mul_s"], prod = _timed(lambda: a * b, 3)
        layer["jets.mul_terms"] = len(prod.coeffs)

    per_op = tr.per_op()
    for metric, span in _SPAN_METRICS:
        vals = [per_op[op][span] for op in replay_wall if span in per_op[op]]
        layer[metric] = statistics.median(vals) if vals else 0.0
    coverage = [per_op[op]["top"] / wall for op, wall in replay_wall.items()]
    drift = sum(bool(s.params.get("drift")) for s in specs)
    layer.update({
        "jets.structure_terms": statistics.median(terms) if terms else 0,
        "solver.dump_bytes": statistics.median(dump_bytes) if dump_bytes else 0,
        "solver.max_rel_residual": max(rel_res, default=0.0),
        "hodge.phi_max_err": max(phi_err, default=0.0),
        "families.reject_share_err": abs(rejected - drift) / len(specs),
        "cli.verdict_fail_ops": verdict_fail,
        "trace.coverage": statistics.median(coverage) if coverage else 0.0,
        "trace.overhead_s": (statistics.median(replay_wall.values()) - statistics.median(cli_lat)
                             if replay_wall else 0.0),
        "trace.ops": len(replay_wall),
        "cli.op_p50_s": statistics.median(cli_lat) if cli_lat else 0.0,
        "fail_share": failed / len(specs),
    })
    return {
        "attempted": len(specs), "failed": failed, "replay_mismatches": mismatches,
        "drift_share": drift / len(specs), "reject_share": rejected / len(specs),
        "layer": layer, "spans": tr.spans,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    workdir = Path(args.workdir)
    record = traced(args, workdir) if args.trace else untraced(args, workdir)
    record["numpy"] = np.__version__
    record["slagcy_file"] = cli.__file__
    Path(args.out).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
