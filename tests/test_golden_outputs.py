"""Every shipped scenario and benchmark op keeps its outputs byte for byte."""

from golden_outputs import MANIFEST, REPO, manifest, manifest_text, moved, read_manifest


def pinned() -> dict:
    return read_manifest(MANIFEST.read_text(encoding="utf-8"))


def test_every_artifact_matches_the_manifest(tmp_path):
    # rewrite the manifest (see golden_outputs.py) only for a change that means
    # to move an output, and name each moved artifact in CHANGES.md
    assert moved(pinned(), manifest(tmp_path)) == []


def test_the_manifest_covers_every_scenario_and_workload():
    runs = {name.split(":")[0] for name in pinned()}
    assert {f"scenarios/{p.name}" for p in (REPO / "scenarios").glob("*.ini")} <= runs
    assert {run.split("/")[1] for run in runs if run.startswith("perfbench/")} == {
        "embed_float", "embed_exact", "phi_3d", "phi_2d"}
    assert "scenarios/poly_embed.ini:verify:json" in pinned()


def test_the_comparison_names_each_moved_artifact():
    hashes = {"a:json": "11", "b:dump": "22"}
    assert read_manifest(manifest_text(hashes)) == hashes
    assert moved(hashes, {"a:json": "11", "b:dump": "33", "c:csv": "44"}) == ["b:dump", "c:csv"]
