"""Only `tokalign.cli` puts off its imports, which keeps `curate` and a finished rerun small.

Module sets are read in a fresh interpreter, since this test process has
imported every module already.  The last test keeps every definition in
the package reachable from the package or the benchmark scripts.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import tokalign
from test_cli import _sweep_setup
from tokalign import cli
from tokalign.metrics import ScoreRow, write_score_rows

POOL = "concurrent.futures.process"
# What telling a finished sweep by its keys needs, and no more.
FINISHED_RERUN = {f"tokalign.{name}" for name in
                  ("choices", "cli", "errors", "files", "layout")}
# What curating needs: no pipeline module but `tokalign.corpus`.
CURATE = {f"tokalign.{name}" for name in ("choices", "cli", "corpus", "errors", "files")}


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
    assert _package_modules(modules) == CURATE
    # `dataclasses` loads `inspect` and the modules it needs, which took
    # most of the time `tokalign curate` spent starting the package.
    assert modules.isdisjoint([POOL, "dataclasses"])
    assert (tmp_path / "curated.tsv").exists()


def test_bare_import_loads_no_module_of_the_package():
    modules = _modules_after("import tokalign")
    assert {m for m in modules if m.startswith("tokalign")} == {"tokalign"}


def _package_modules(modules):
    return {m for m in modules if m.startswith("tokalign.")}


def test_report_loads_no_process_pool(tmp_path):
    scores = tmp_path / "scores.csv"
    rows = [ScoreRow("toy", "bpe", size, "split", "mean", 0.01, size / 1000, 0.5,
                     size / 2000, 0.4, 0) for size in (100, 200, 300)]
    with scores.open("w", encoding="utf-8") as stream:
        write_score_rows(rows, stream, seed=0)
    argv = ["report", "--scores", str(scores), "--out", str(tmp_path / "corr.csv")]
    modules = _modules_after(f"from tokalign import cli\nassert cli.main({argv!r}) == 0")
    assert POOL not in modules
    assert (tmp_path / "corr.csv").exists()


def test_finished_sweep_rerun_loads_only_the_result_path(tmp_path):
    config_path = _sweep_setup(tmp_path)
    argv = ["sweep", "--config", str(config_path), "--jobs", "2"]
    assert cli.main(argv[:-1] + ["1"]) == 0
    modules = _modules_after(f"from tokalign import cli\nassert cli.main({argv!r}) == 0")
    assert _package_modules(modules) == FINISHED_RERUN
    assert "dataclasses" not in modules


def test_rerun_without_a_combined_key_loads_no_process_pool(tmp_path):
    config_path = _sweep_setup(tmp_path)
    argv = ["sweep", "--config", str(config_path), "--jobs", "2"]
    assert cli.main(argv[:-1] + ["1"]) == 0
    key = tmp_path / "out" / "correlations.csv.key"
    key.unlink()
    # Every point is fresh, so the full sweep runs no job.
    modules = _modules_after(f"from tokalign import cli\nassert cli.main({argv!r}) == 0")
    assert POOL not in modules
    assert key.exists()


def test_sweep_at_one_job_loads_no_process_pool(tmp_path):
    argv = ["sweep", "--config", str(_sweep_setup(tmp_path)), "--jobs", "1"]
    modules = _modules_after(f"from tokalign import cli\nassert cli.main({argv!r}) == 0")
    assert POOL not in modules
    assert (tmp_path / "out" / "correlations.csv").exists()


def test_finished_sweep_rerun_never_loads_hashlib(tmp_path):
    # `hashlib` loads OpenSSL; `test_pool_workers_inherit_the_pipeline_modules`
    # checks the full sweep, which hashes its inputs before its pool forks.
    argv = ["sweep", "--config", str(_sweep_setup(tmp_path))]
    assert cli.main(argv) == 0
    code = f"from tokalign import cli\nassert cli.main({argv!r}) == 0"
    assert "hashlib" not in _modules_after(code)


def test_the_package_imports_only_the_standard_library_and_itself():
    allowed = sys.stdlib_module_names | {"tokalign"}
    allowed |= {"_sha2", "_sha256"}  # one sha256 module, renamed in Python 3.12
    for path in Path(tokalign.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.partition(".")[0] in allowed, f"{path.name} imports {name}"


def _imports_the_package(node):
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").partition(".")[0] == "tokalign"
    if isinstance(node, ast.Import):
        return any(alias.name.partition(".")[0] == "tokalign" for alias in node.names)
    return False


def test_outside_cli_every_package_import_is_at_the_top_of_its_module():
    # An import below the top waits for its code to run; only `cli` puts
    # imports off, so that it alone decides what a command loads.
    for path in Path(tokalign.__file__).parent.glob("*.py"):
        if path.name == "cli.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        below = [node.lineno for node in ast.walk(tree)
                 if _imports_the_package(node) and node not in tree.body]
        assert below == [], f"{path.name} imports the package below its top"


def test_pool_workers_inherit_the_pipeline_modules(tmp_path):
    config_path = _sweep_setup(tmp_path)
    argv = ["sweep", "--config", str(config_path), "--jobs", "2"]
    # Forked workers share what the parent loaded before the pool started.
    code = (
        "import concurrent.futures, sys\n"
        "from tokalign import cli\n"
        "real = concurrent.futures.ProcessPoolExecutor\n"
        "loaded = []\n"
        "def recording(*args, **kwargs):\n"
        "    loaded.append(set(sys.modules))\n"
        "    return real(*args, **kwargs)\n"
        "concurrent.futures.ProcessPoolExecutor = recording\n"
        f"assert cli.main({argv!r}) == 0\n"
        "assert len(loaded) == 1\n"
        "assert {'tokalign.tokenizers', 'tokalign.ibm1'} <= loaded[0]\n"
    )
    assert "hashlib" not in _modules_after(code)
    assert (tmp_path / "out" / "scores.csv").exists()


SRC = Path(tokalign.__file__).parent
BENCH = Path(__file__).resolve().parent.parent / "bench"
# `stats.spearman` is the rank correlation that acceptance criterion 6
# pins to fixed points, and criterion 7 compares `build_report`'s rho
# with it; the report itself correlates ranks through `_pearson`.
NO_CALLER_NEEDED = {("stats", "spearman")}


def _definitions(tree):
    """Each function, class, method and module-level name a module defines, with its node."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                found += [(item.name, item) for item in node.body
                          if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(name.id, node) for target in targets for name in ast.walk(target)
                      if isinstance(name, ast.Name)]
    return [(name, node) for name, node in found
            if not (name.startswith("__") and name.endswith("__"))]


def _references(tree):
    """Each name a module loads, reads as an attribute or imports, with its node."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node


def test_every_definition_has_a_caller_outside_tests():
    # A definition that only tests reach is a second API beside the one
    # the commands run; the tests should check the commands' path.
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py"))}
    references = {}
    for tree in trees.values():
        for name, at in _references(tree):
            references.setdefault(name, []).append(at)
    unused = []
    for path, tree in trees.items():
        if path.parent != SRC:
            continue
        for name, node in _definitions(tree):
            inside = set(map(id, ast.walk(node)))
            used = any(id(at) not in inside for at in references.get(name, ()))
            if not used and (path.stem, name) not in NO_CALLER_NEEDED:
                unused.append(f"{path.stem}.{name}")
    assert not unused, "no caller outside tests: " + ", ".join(unused)
