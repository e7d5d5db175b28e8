"""Self-test of the benchmark's generators, independent of any timing.

    python3 perfbench/selftest.py

For the first pass of each of the seeds in ``SEEDS`` it checks that

* float embed metrics are diagonally dominant (from their amplitudes) and
  positive definite on a 12^3 sample grid;
* exact embed metrics are the identity at the base point, so positive
  definite there, with coefficients p/q, p in 1..3, q in {2, 4, 8};
* every group of five phi_3d ops holds exactly one drift family, the admissible
  families pass the slice check and the drift families fail it;
* phi_2d families pass the slice check with det = C(x2) > 0;
* the same seed gives byte-identical scenarios and another seed does not.

Exits 1 and names the first failing case.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402
from slagcy.dsl import eval_grid, eval_jet, parse  # noqa: E402
from slagcy.families import check_slag_family  # noqa: E402
from slagcy.jets import EXACT, X1, X2, X3, Jet  # noqa: E402
from worker import family_of  # noqa: E402

SEEDS = range(6)
_COEFFS = {Fraction(p, q) for p in (1, 2, 3) for q in (2, 4, 8)}


def _metric_samples(metric: dict, n: int) -> np.ndarray:
    x = np.arange(n) / n
    env = {"x1": x[:, None, None], "x2": x[None, :, None], "x3": x[None, None, :], "t": 0.0}
    g = np.empty((n, n, n, 3, 3))
    for i, j in W.PAIRS:
        vals = np.broadcast_to(eval_grid(parse(metric[f"g{i}{j}"]), env), (n, n, n))
        g[..., i - 1, j - 1] = g[..., j - 1, i - 1] = vals
    return g


def check_embed_float(spec: W.OpSpec) -> None:
    amps = spec.params["amplitudes"]
    for i in (1, 2, 3):
        off = sum(amps[f"g{min(i, j)}{max(i, j)}"] for j in (1, 2, 3) if j != i)
        if not 1 - amps[f"g{i}{i}"] > off:
            raise AssertionError(f"row {i} is not diagonally dominant")
    low = float(np.min(np.linalg.eigvalsh(_metric_samples(W.section(spec.scenario, "metric"), 12))))
    if not low > 0:
        raise AssertionError(f"metric is not positive definite (eigenvalue {low})")


def check_embed_exact(spec: W.OpSpec) -> None:
    gens = {"x1": Jet.variable(X1, 2, EXACT), "x2": Jet.variable(X2, 2, EXACT),
            "x3": Jet.variable(X3, 2, EXACT), "t": Jet.constant(0, 2, EXACT)}
    metric = W.section(spec.scenario, "metric")
    for i, j in W.PAIRS:
        jet = eval_jet(parse(metric[f"g{i}{j}"]), gens)
        if jet.constant_term != (1 if i == j else 0):
            raise AssertionError(f"g{i}{j} has constant term {jet.constant_term}")
    for cs in spec.params["coefficients"].values():
        for c in map(Fraction, cs):
            if c not in _COEFFS:
                raise AssertionError(f"coefficient {c} outside p/q, p in 1..3, q in 2, 4, 8")


def check_phi(specs: list) -> None:
    if specs[0].workload == "phi_3d":
        for g in range(0, len(specs), W.DRIFT_EVERY):
            drifts = sum(bool(s.params["drift"]) for s in specs[g:g + W.DRIFT_EVERY])
            if drifts != 1:
                raise AssertionError(f"ops {g}..{g + W.DRIFT_EVERY - 1} hold {drifts} drifts")
    for spec in specs:
        report = check_slag_family(family_of(W.section(spec.scenario, "family")), n=32, nt=5,
                                   tol=1e-10)
        if report.passed() == bool(spec.params.get("drift")):
            raise AssertionError(f"op {spec.index}: slice check verdict {report.verdict} "
                                 f"for drift={spec.params.get('drift')}")
        if spec.workload == "phi_2d" and not 1 - spec.params["a"] > 0:
            raise AssertionError(f"op {spec.index}: C(x2) reaches 0")


def main() -> int:
    checked = 0
    for wl in W.WORKLOADS:
        for seed in SEEDS:
            specs = W.make_pass(wl, seed, 0)
            texts = [s.scenario for s in specs]
            if [s.scenario for s in W.make_pass(wl, seed, 0)] != texts:
                print(f"FAIL {wl} seed {seed}: generator is not deterministic")
                return 1
            if [s.scenario for s in W.make_pass(wl, seed + 1, 0)] == texts:
                print(f"FAIL {wl} seed {seed}: seeds {seed} and {seed + 1} give equal inputs")
                return 1
            try:
                if wl == "embed_float":
                    for spec in specs:
                        check_embed_float(spec)
                elif wl == "embed_exact":
                    for spec in specs:
                        check_embed_exact(spec)
                else:
                    check_phi(specs)
            except AssertionError as exc:
                print(f"FAIL {wl} seed {seed}: {exc}")
                return 1
            checked += len(specs)
    print(f"ok: {checked} generated ops over {len(SEEDS)} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
