"""The "same outputs" manifest: one sha256 per artifact of every shipped scenario,
of the first op of each benchmark workload and of phi_3d's first drifting family,
each run in-process through ``slagcy.cli.main``.

The artifacts of a run are its ``--deterministic`` JSON report, its structure
dump (embed) or phi CSV (phi, phi2d), its stdout, its stderr and its exit code;
each embed dump is also run through ``verify``.  Each ``MALFORMED`` case of
``tests/test_cli.py`` adds its stderr and exit code, and each
``ORACLE_FAMILIES`` entry of ``tests/test_families.py`` its family-check
reports at two sizes and its Phi CSV (or the error that refuses the curve).
The temporary directory's path is replaced by ``<tmp>`` before hashing.
``tests/test_golden_outputs.py`` recomputes the manifest and names each
artifact that moved.  To rewrite it::

    PYTHONPATH=src python tests/golden_outputs.py
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from slagcy.cli import load_scenario, main
from slagcy.families import CHECK_TOL, FamilyError, check_slag_family
from slagcy.hodge import phi_csv, phi_curve

REPO = Path(__file__).resolve().parent.parent
MANIFEST = REPO / "tests" / "golden" / "outputs.sha256"
BENCH_SEED = 0  # the benchmark ops are taken from pass 0 of this seed


def run_main(argv) -> dict:
    """The stdout, stderr and exit code of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": str(code)}


def run_artifacts(name: str, path: Path, workdir: Path) -> dict:
    """``name:part`` -> text of each artifact of running the scenario at ``path``
    (and ``name:verify:part`` for the verify of its dump); files go to ``workdir``."""
    sc = load_scenario(path)
    stem = str(workdir / name.replace("/", "_").replace(":", "_"))
    outputs = {"json": Path(f"{stem}.json")}
    argv = [sc.kind, "--scenario", str(path), "--deterministic",
            "--out-json", str(outputs["json"])]
    if sc.kind == "embed":
        outputs["dump"] = Path(f"{stem}.dump")
        argv += ["--dump", str(outputs["dump"])]
    if sc.kind in ("phi", "phi2d"):
        outputs["csv"] = Path(f"{stem}.csv")
        argv += ["--out-csv", str(outputs["csv"])]
    texts = run_main(argv)
    texts.update({part: p.read_text(encoding="utf-8") if p.exists() else "<none>"
                  for part, p in outputs.items()})
    found = {f"{name}:{part}": text for part, text in texts.items()}
    if "dump" in outputs and outputs["dump"].exists():
        verify = Path(f"{stem}.verify.ini")
        verify.write_text(f"[scenario]\nkind = verify\nmode = {sc.mode}\n"
                          f"tolerance = {sc.tolerance}\n\n"
                          f'[input]\nstructure = "{outputs["dump"]}"\n', encoding="utf-8")
        found.update(run_artifacts(f"{name}:verify", verify, workdir))
    return found


def benchmark_workloads():
    """The benchmark's ``perfbench/workloads.py``, imported by path."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  REPO / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def artifacts(workdir: Path) -> dict:
    """Every artifact's text by name, with ``workdir`` written as ``<tmp>``."""
    found = {}
    for path in sorted((REPO / "scenarios").glob("*.ini")):
        found.update(run_artifacts(f"scenarios/{path.name}", path, workdir))
    bench = benchmark_workloads()
    for workload in bench.WORKLOADS:
        ops = bench.make_pass(workload, BENCH_SEED, 0)
        picked = {0: ops[0]}
        if workload == "phi_3d":  # and the first drifting family, which fails admissibility
            drift = next(op for op in ops if op.params["drift"])
            picked[drift.index] = drift
        for index, op in picked.items():
            path = workdir / f"{workload}_op{index}.ini"
            path.write_text(op.scenario, encoding="utf-8")
            found.update(run_artifacts(f"perfbench/{workload}/op{index}", path, workdir))
    found.update(malformed_artifacts(workdir))
    found.update(oracle_artifacts())
    return {name: text.replace(str(workdir), "<tmp>") for name, text in found.items()}


def malformed_artifacts(workdir: Path) -> dict:
    """``malformed/<case>:stderr`` and ``:exit`` of each ``MALFORMED`` case of
    ``tests/test_cli.py``, run as ``test_malformed_input_is_two`` runs it."""
    from test_cli import MALFORMED
    found = {}
    for case, (kind, text, flags, *_) in MALFORMED.items():
        if kind == "verify":
            dump = workdir / "structure.txt"
            dump.write_text(text, encoding="utf-8")
            text = f"[scenario]\nkind = verify\nmode = exact\n\n[input]\nstructure = {dump}\n"
        path = workdir / "case.ini"
        path.write_text(text, encoding="utf-8")
        flags = [flag.replace("<tmp>", str(workdir)) for flag in flags]
        texts = run_main([kind, "--scenario", str(path), *flags])
        found.update({f"malformed/{case}:{part}": texts[part] for part in ("stderr", "exit")})
    return found


def oracle_artifacts() -> dict:
    """``oracle/<name>:check_n<n>`` (the family-check report as JSON) and
    ``oracle/<name>:phi`` (the Phi CSV at five t, or the error that refuses the
    curve) of each ``ORACLE_FAMILIES`` entry of ``tests/test_families.py``."""
    from test_families import ORACLE_FAMILIES
    found = {}
    for name, make in sorted(ORACLE_FAMILIES.items()):
        fam = make()
        for n, nt in ((24, 5), (64, 9)):
            report = check_slag_family(fam, n=n, nt=nt, tol=CHECK_TOL)
            found[f"oracle/{name}:check_n{n}"] = json.dumps(report.as_dict(), indent=2,
                                                           sort_keys=True) + "\n"
        try:
            curve = phi_curve(fam, np.linspace(*fam.t_range, 5), n=32)
            found[f"oracle/{name}:phi"] = phi_csv(curve.t, curve.phi, curve.integrals)
        except FamilyError as exc:  # a HodgeError is one
            found[f"oracle/{name}:phi"] = f"{type(exc).__name__}: {exc}\n"
    return found


def manifest(workdir: Path) -> dict:
    """Artifact name -> sha256 of its text."""
    return {name: hashlib.sha256(text.encode("utf-8")).hexdigest()
            for name, text in artifacts(workdir).items()}


def moved(pinned: dict, now: dict) -> list:
    """The artifacts whose hash differs between two manifests, or that one lacks."""
    return sorted(name for name in pinned.keys() | now.keys() if pinned.get(name) != now.get(name))


def read_manifest(text: str) -> dict:
    return {name: digest for digest, name in (line.split("  ", 1) for line in text.splitlines())}


def manifest_text(hashes: dict) -> str:
    return "".join(f"{digest}  {name}\n" for name, digest in sorted(hashes.items()))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        MANIFEST.write_text(manifest_text(manifest(Path(tmp))), encoding="utf-8")
    print(f"wrote {MANIFEST}")
