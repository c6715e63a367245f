"""The public surface resolves: every name in the ``__all__`` of
``rbtlse`` and of each of its submodules, and every ``rbtlse.<name>`` the
benchmark workloads reach, so a refactor that drops or renames one fails
here instead of in a benchmark run.  The README's Python examples run.
AST checks keep the layout of the package and of its tests: each test
file is named after a module or a listed suite, or waits in a list of
stale names, and no test module keeps a behaviour as _real/_complex
twins."""

import ast
import functools
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import rbtlse
import rbtlse.cli

MODULES = ["rbtlse"] + sorted(
    f"rbtlse.{m.name}" for m in pkgutil.iter_modules(rbtlse.__path__))

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def _rbtlse_path(node):
    """'a.b' for an attribute chain rbtlse.a.b, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "rbtlse":
        return ".".join(reversed(parts))
    return None


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


# the package's 43 public names, written out, so that a name added to or
# dropped from any module's list fails here until this set says so
PUBLIC = {
    "RbtlseError", "DimensionMismatch", "AssumptionViolated",
    "GapConditionFailed", "BlockNotInvertible", "ConditioningUndefined",
    "FactorizationFailed", "NonFiniteInput", "FileFormatError",
    "RBMatrix", "mat_mul", "real_block_column", "complex_block_column",
    "from_real_block_column", "from_complex_block_column",
    "frobenius_norm", "read_rbmat", "write_rbmat",
    "TlseProblem", "TlseSolution", "solve_real", "solve_complex",
    "residuals_real", "residuals_complex",
    "LseSolution", "lse_solve_real", "lse_solve_complex",
    "PerturbationInstance", "ConditionReport", "condition_real",
    "condition_complex", "epsilon_n", "scaled_to",
    "EXPERIMENTS", "ExperimentConfig", "ExperimentRecord",
    "accuracy_sizes", "gen_instance", "gen_compare_instance",
    "random_perturbation", "run_experiment", "write_csv",
    "__version__",
}
REEXPORTED = ("errors", "rb_core", "tlse", "perturbation", "bench")


def test_no_name_in_two_module_lists():
    """A name in two modules' __all__ would be shadowed silently by the
    package's star imports, the later module's winning."""
    owners = {}
    for module in MODULES[1:]:
        for name in importlib.import_module(module).__all__:
            owners.setdefault(name, []).append(module)
    assert {n: m for n, m in owners.items() if len(m) > 1} == {}


def test_package_list_is_the_module_lists_joined():
    """rbtlse.__all__ is the re-exported modules' lists joined, plus
    __version__: the one declaration of each public name is its
    module's list."""
    joined = [name for module in REEXPORTED
              for name in getattr(rbtlse, module).__all__] + ["__version__"]
    assert rbtlse.__all__ == joined
    assert len(set(joined)) == len(joined)
    assert set(joined) == PUBLIC


def test_benchmark_names_resolve():
    tree = ast.parse(WORKLOADS.read_text())
    used = {path for node in ast.walk(tree)
            if (path := _rbtlse_path(node))}
    assert used
    missing = []
    for path in sorted(used):
        try:
            functools.reduce(getattr, path.split("."), rbtlse)
        except AttributeError:
            missing.append(path)
    assert missing == []


def test_readme_examples_run():
    examples = re.findall(r"```python\n(.*?)```",
                          (ROOT / "README.md").read_text(), re.DOTALL)
    assert examples
    for index, code in enumerate(examples):
        exec(compile(code, f"README.md example {index}", "exec"), {})


def test_component_storage_stays_in_rb_core():
    """Only rb_core reads the component views p0..p3; every other module
    goes through its functions, so the storage layout lives in one
    place."""
    readers = []
    for path in sorted((ROOT / "src" / "rbtlse").glob("*.py")):
        if path.name == "rb_core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute)
                    and node.attr in ("p0", "p1", "p2", "p3")):
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []


def test_representations_stay_in_the_solvers():
    """Only rb_core, which defines the block-column maps
    real_block_column and complex_block_column, tlse, whose entry points
    pass them to both constrained solves and whose residuals multiply a
    plain X on the complex block column, the package's __init__, which
    re-exports them, and bench, whose compare generator multiplies its
    plain X* the same way and already names the inverse map, name them;
    every other module reads what it needs from the problem or the
    solution.  A plain X is X + 0*j, so one complex product is the half
    of mat_mul, the product of two RB matrices, that is not zero."""
    names = {"real_block_column", "complex_block_column"}
    readers = []
    for path in sorted((ROOT / "src" / "rbtlse").glob("*.py")):
        if path.name in ("rb_core.py", "tlse.py", "__init__.py", "bench.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            # a Name's id, an Attribute's attr or an import alias's name
            if names & {getattr(node, key, None)
                        for key in ("id", "attr", "name")}:
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []


def test_no_svd_based_least_squares():
    """No module calls ``lstsq``: its divide-and-conquer SVD does more
    than a full-rank least squares solve needs, and the baseline takes
    its rank verdict and solution from a reduced QR instead."""
    callers = []
    for path in sorted((ROOT / "src" / "rbtlse").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if "lstsq" in {getattr(node, key, None)
                           for key in ("id", "attr", "name")}:
                callers.append(f"{path.name}:{node.lineno}")
    assert callers == []


def test_bench_has_one_error_row_path():
    """The experiment harness turns an RbtlseError into an error row in
    one except handler, so the rows' error text, and anything added to
    it, has one place to change."""
    tree = ast.parse((ROOT / "src" / "rbtlse" / "bench.py").read_text())
    handlers = [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.ExceptHandler) and node.type
                and "RbtlseError" in ast.unparse(node.type)]
    assert len(handlers) == 1, handlers


def _strided(node) -> bool:
    """Whether ``node`` is a subscript of ``.components`` with a step."""
    if not (isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "components"):
        return False
    index = node.slice
    parts = index.elts if isinstance(index, ast.Tuple) else [index]
    return any(isinstance(p, ast.Slice) and p.step is not None
               for p in parts)


def test_one_complex_encoder():
    """complex_block_column is the one function that takes the complex
    parts off the component array by striding it (components 0, 2 real,
    1, 3 imaginary), so a second complex encoder with its own copy of
    that order fails here."""
    encoders = set()
    for path in sorted((ROOT / "src" / "rbtlse").glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if (isinstance(func, (ast.FunctionDef, ast.Lambda))
                    and any(map(_strided, ast.walk(func)))):
                encoders.add(f"{path.name}:{getattr(func, 'name', 'lambda')}")
    assert encoders == {"rb_core.py:complex_block_column"}


def _over_range_4(node) -> bool:
    """Whether ``node`` is a comprehension, starred or not, over
    range(4)."""
    if isinstance(node, ast.Starred):
        node = node.value
    return (isinstance(node, (ast.GeneratorExp, ast.ListComp))
            and any(ast.unparse(g.iter) == "range(4)"
                    for g in node.generators))


def test_one_four_component_draw_in_the_tests():
    """Only tests/instances.py builds an RBMatrix from a comprehension
    over range(4), the draw of four components in turn, so every test
    draws its RB data through instances.rand_rb or gen_instance and a
    second copy of the draw fails here."""
    builders = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        if path.name == "instances.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and "RBMatrix" in {getattr(node.func, key, None)
                                       for key in ("id", "attr")}
                    and any(map(_over_range_4, node.args))):
                builders.append(f"{path.name}:{node.lineno}")
    assert builders == []


def test_no_test_module_has_algebra_twins():
    """No test module defines both <name>_real and <name>_complex: a
    behaviour of both algebras is one test over instances.ALGEBRAS, its
    per-algebra data parametrized."""
    twins = []
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        names = {node.name for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.FunctionDef)}
        twins += [f"{path.name}:{name}" for name in sorted(names)
                  if name.endswith("_real")
                  and name.removesuffix("_real") + "_complex" in names]
    assert twins == []


# the test files named after a suite rather than a module of src/rbtlse,
# each with what it tests
SUITES = {
    "acceptance": "the acceptance criteria, on the paper's experiments",
    "golden": "the seeded runs and reports pinned in tests/golden.json",
    "properties": "property-based tests over the solve, RBMAT and the CLI",
    "public_surface": "the package's names and the code and test layout",
}

# the test files whose name is stale, each with the stem it is to take;
# a rename changes the id of every test the file holds, so they move one
# at a time, and the entry goes with the move
TO_RENAME = {
    "dense_kernels": "oracles: dense_kernels is gone; it tests oracles.py",
    "lse_baseline": "lse: the paper's RBLSE baseline, which lives in tlse",
    "tlse_real": "tlse: its solver tests run over both algebras",
    "tlse_complex": "tlse: the complex solve's own symmetries",
}


def test_every_test_file_names_a_module_or_a_suite():
    """Each tests/test_<stem>.py names a module of src/rbtlse or a suite
    of SUITES, or waits in TO_RENAME, and each entry of both has its
    file, so a test file cannot outlive the module it is named after."""
    modules = {path.stem for path in (ROOT / "src" / "rbtlse").glob("*.py")}
    stems = {path.stem.removeprefix("test_")
             for path in (ROOT / "tests").glob("test_*.py")}
    assert stems - modules - SUITES.keys() - TO_RENAME.keys() == set()
    assert SUITES.keys() | TO_RENAME.keys() <= stems


def test_only_the_solve_builds_a_solution():
    """tlse._solve is the one place a TlseSolution is built, and no module
    copies a dataclass with dataclasses.replace: code that needs a
    solution's arrays scaled or changed works on them, so every
    TlseSolution holds the factors of its own problem's solve."""
    builders, copiers = set(), []
    for path in sorted((ROOT / "src" / "rbtlse").glob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.Lambda)):
                builders |= {
                    f"{path.name}:{getattr(func, 'name', 'lambda')}"
                    for node in ast.walk(func)
                    if isinstance(node, ast.Call)
                    and "TlseSolution" in {getattr(node.func, key, None)
                                           for key in ("id", "attr")}}
        for node in ast.walk(tree):
            if ((isinstance(node, ast.ImportFrom)
                 and node.module == "dataclasses"
                 and "replace" in {alias.name for alias in node.names})
                    or (isinstance(node, ast.Attribute)
                        and ast.unparse(node) == "dataclasses.replace")):
                copiers.append(f"{path.name}:{node.lineno}")
    assert builders == {"tlse.py:_solve"}
    assert copiers == []


def test_every_error_class_is_raised():
    """Each error class of errors.__all__ but the base RbtlseError has a
    ``raise <Class>(`` site in the package, so an error that nothing
    raises, and the exit code and documentation kept for it, fails
    here."""
    raised = set()
    for path in sorted((ROOT / "src" / "rbtlse").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and isinstance(node.exc.func, ast.Name)):
                raised.add(node.exc.func.id)
    unraised = set(rbtlse.errors.__all__) - {"RbtlseError"} - raised
    assert unraised == set()
