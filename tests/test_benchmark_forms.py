"""Outside ``perfbench/``, each form that only the benchmark needs is read by
one test alone, which pins it to the composition that runs: the change that
retires a form deletes it with that test and edits no other."""

import ast
from pathlib import Path

import radarvitals as rv

# the one list of these forms, as <module>.<name>: <test module>::<pinning test>
PINNED = {
    "preprocess.sma_filter":
        "test_preprocess::test_sma_filter_is_sma_rows_with_the_stamps_trimmed",
    **dict.fromkeys(("preprocess.segment", "preprocess.SegmentedCube"),
                    "test_preprocess::test_segment_is_view_preserving_samples_and_stamps"),
    "modelorder.estimate_order":
        "test_modelorder::test_estimate_order_is_the_p_hat_of_order_diagnostics",
    "dataio.read_container": "test_dataio::test_read_container_is_every_row_read_and_checked",
    "vitals.extract_displacement":
        "test_vitals::test_extract_displacement_is_displacements_of_the_beamformed_cube",
    **dict.fromkeys(("pipeline.detections_csv", "pipeline.breathing_csv", "pipeline.report_csv"),
                    "test_pipeline::test_csv_forms_are_the_tables_the_cli_writes"),
}
# a form is read from its own module or from the package root, so that
# ``args.segment`` is not ``preprocess.segment``
_OWNED = {(owner, form.partition(".")[2]): form for form in PINNED
          for owner in (form.partition(".")[0], "rv", "radarvitals")}
_ACCESSORS = ("getattr", "setattr", "delattr", "hasattr")


def _references(path):
    """(<module>::<top-level definition>, form) for each form that the test
    module at ``path`` reads: as an attribute, an imported name, or the
    attribute that getattr, setattr or monkeypatch.setattr take."""
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        where = f"{path.stem}::{getattr(top, 'name', '<module>')}"
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute):
                refs = [(ast.unparse(node.value), node.attr)]
            elif isinstance(node, ast.ImportFrom):
                refs = [(node.module or "", alias.name) for alias in node.names]
            elif isinstance(node, ast.Call) and len(node.args) > 1 and getattr(
                    node.func, "id", getattr(node.func, "attr", None)) in _ACCESSORS:
                # (owner, "name", ...) or ("package.module.name", value)
                args = [arg.value if isinstance(arg, ast.Constant) else ast.unparse(arg)
                        for arg in node.args]
                refs = [args[:2], str(args[0]).rpartition(".")[::2]]
            else:
                continue
            for owner, name in refs:
                if form := _OWNED.get((str(owner).rpartition(".")[2], name)):
                    yield where, form


def test_each_benchmark_form_is_read_by_its_pinning_test_alone():
    found = {ref for path in Path(__file__).parent.glob("*.py") for ref in _references(path)}
    assert sorted(ref for ref in found if ref[0] != PINNED[ref[1]]) == []
    assert {form for _, form in found} == set(PINNED)  # every pinning test reads its form
    # perfbench calls rv.read_container; no other form is a package-root name
    root = {form for form in PINNED if form.partition(".")[2] in dir(rv)}
    assert root == {"dataio.read_container"}
