"""Each command imports only the modules it runs, and `import tokalign` is lazy.

Module sets are read in a fresh interpreter, since this test process has
imported every module already.
"""

import importlib
import json
import subprocess
import sys

import pytest

import tokalign

PIPELINE = ("tokalign.sweep", "tokalign.tokenizers", "tokalign.ibm1",
            "tokalign.metrics", "tokalign.stats")


def _modules_after(code):
    """The modules loaded once `code` has run in a fresh interpreter."""
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


def test_curate_loads_no_pipeline_module_and_no_process_pool(tmp_path):
    features = tmp_path / "features.tsv"
    features.write_text("l1\tkamit\tN;ACC\nl2\tbura\tV\n", encoding="utf-8")
    segments = tmp_path / "segments.tsv"
    segments.write_text("kamit\tkam|it\nbura\tbura\n", encoding="utf-8")
    argv = ["curate", "--features", str(features), "--segmentations", str(segments),
            "--out", str(tmp_path / "curated.tsv")]
    modules = _modules_after(
        f"from tokalign import cli\nassert cli.main({argv!r}) == 0"
    )
    assert "tokalign.corpus" in modules
    assert modules.isdisjoint(PIPELINE + ("concurrent.futures.process",))
    assert (tmp_path / "curated.tsv").exists()


def test_bare_import_lists_every_name_and_loads_no_module_of_the_package():
    modules = _modules_after(
        "import tokalign\nassert set(tokalign.__all__) <= set(dir(tokalign))"
    )
    assert {m for m in modules if m.startswith("tokalign")} == {"tokalign"}


def test_public_names_are_the_objects_their_modules_define():
    for name in tokalign.__all__:
        value = getattr(tokalign, name)
        assert value.__module__.startswith("tokalign."), name
        assert getattr(importlib.import_module(value.__module__), name) is value


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        tokalign.no_such_name  # noqa: B018


def test_pipeline_modules_resolve_as_attributes():
    modules = _modules_after(
        "import tokalign\nassert tokalign.ibm1.train_ibm1 is tokalign.train_ibm1"
    )
    assert "tokalign.ibm1" in modules
