"""The package's public surface: ``koopmankit.__all__`` and the README's list of it."""

import ast
import builtins
import importlib
import pathlib
import re

import koopmankit

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_public_api():
    """{module: [names]} from the README's "Public API" section."""
    text = README.read_text()
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    groups = {}
    for item in re.split(r"\n- ", section)[1:]:
        module, *names = re.findall(r"`([^`]+)`", item.split("\n\n", 1)[0])
        groups[module] = names
    return groups


def test_every_exported_name_resolves_once():
    assert len(koopmankit.__all__) == len(set(koopmankit.__all__))
    for name in koopmankit.__all__:
        assert hasattr(koopmankit, name), name


def test_the_readme_lists_exactly_the_exported_names_under_their_modules():
    groups = readme_public_api()
    listed = [name for names in groups.values() for name in names]
    assert sorted(listed) == sorted(koopmankit.__all__)
    for module, names in groups.items():
        defining = importlib.import_module(module)
        for name in names:
            assert getattr(defining, name) is getattr(koopmankit, name), (module, name)


# The package's modules from the bottom layer up: each imports only earlier ones.
LAYERS = ("exceptions", "polynomials", "numerics", "dynamics", "lifting", "artifacts",
          "identification", "spectral", "control", "registry", "cli", "__main__")
PACKAGE = pathlib.Path(koopmankit.__file__).resolve().parent


def _package_imports(tree):
    """(imported module, import node) for each package-relative import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                yield node.module.split(".")[0], node
            else:  # from . import a, b: each name that is a module
                for alias in node.names:
                    if alias.name in LAYERS:
                        yield alias.name, node


def test_each_module_imports_only_earlier_layers_and_only_at_module_level():
    for path in sorted(PACKAGE.glob("*.py")):
        name = path.stem
        if name == "__init__":
            continue
        assert name in LAYERS, f"place the new module {name} in LAYERS"
        tree = ast.parse(path.read_text())
        top_level = set(map(id, tree.body))
        for imported, node in _package_imports(tree):
            assert id(node) in top_level, f"{name}.py:{node.lineno} imports {imported} in a body"
            assert LAYERS.index(imported) < LAYERS.index(name), \
                f"{name}.py:{node.lineno} imports the later module {imported}"



# tests/_reference.py holds what the bit-identity tests compare kernels with. A reference
# that ran a kernel's code would move with it, so it may import from koopmankit only these
# names, call no method of the package's classes, and call no polynomial it is handed.
REFERENCE_MAY_IMPORT = {"BlowUp", "Trajectory", "BLOWUP_LIMIT", "CONTINUOUS", "_differentiate_series"}
KERNEL_METHODS = {name for cls in vars(koopmankit).values() if isinstance(cls, type)
                  for name in vars(cls) if not name.startswith("__")}
REFERENCE_MAY_CALL = {"step", "rhs", "controller", "advance", "pow", *dir(builtins)}


def _kernel_uses(source):
    """(line, name) of each import from koopmankit off the allowlist, each call of a package
    method, and each call of a name that is not imported, defined or a callback or builtin."""
    tree, found = ast.parse(source), []
    known = REFERENCE_MAY_CALL | {getattr(n, "asname", None) or n.name for n in ast.walk(tree)
                                  if isinstance(n, (ast.alias, ast.FunctionDef))}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if a.name.startswith("koopmankit")]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("koopmankit"):
            found += [(node.lineno, a.name) for a in node.names if a.name not in REFERENCE_MAY_IMPORT]
        elif isinstance(node, ast.Call):
            attr, name = getattr(node.func, "attr", None), getattr(node.func, "id", None)
            if attr in KERNEL_METHODS or name and name not in known:
                found.append((node.lineno, attr or name))
    return found


def test_the_test_references_share_no_code_with_the_kernels_they_check():
    assert _kernel_uses((pathlib.Path(__file__).parent / "_reference.py").read_text()) == []
    for kernel in ("PolynomialMap", "eval_library", "_compose_all", "_linear_sum", "_advances"):
        assert _kernel_uses(f"from koopmankit.lifting import {kernel}") == [(1, kernel)]
    assert _kernel_uses("import koopmankit.polynomials") == [(1, "koopmankit.polynomials")]
    for method in ("compose", "lie_derivative", "derivative", "linear_combination", "feedback"):
        assert _kernel_uses(f"obs.{method}(x)") == [(1, method)]
    assert _kernel_uses("def f(ps, x):\n    return [p(x) for p in ps]") == [(2, "p")]
