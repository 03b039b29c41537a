"""Every public top-level name of the library modules has a runtime caller.

A name-based census over the package's ASTs: the roots are every top-level
definition of ``cli`` and the allowlisted names; a definition reached from
them reaches each package name that its source mentions, either bare (its
own module's definitions and the names imported from sibling modules) or
as ``module.name`` of an imported sibling.  A name counts as reached when
it merely appears, so the census can only undercount what is unreachable.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "phqm")
LIBRARY = ("biortho", "classical", "em", "errors", "linalg", "metric", "models",
           "perturbation", "statespace")

# (module, name) -> why it stays without a caller in cli
ALLOWLIST = {
    ("linalg", "hermitian_function"): "benchmark",
    ("linalg", "commutator"): "benchmark",
    ("perturbation", "PerturbationProblem"): "benchmark",
    ("perturbation", "QSeries"): "benchmark",
    ("perturbation", "solve_commutator"): "benchmark",
    ("perturbation", "q_series"): "benchmark",
    ("perturbation", "metric_from_q"): "benchmark",
    ("perturbation", "metric_residual"): "benchmark",
    ("metric", "charge_operator"): "ROADMAP item 6: metric with sigma records C",
    ("metric", "observable_map"): "ROADMAP item 6: hermitize gates criterion 11",
    ("classical", "SymplecticParams"): "ROADMAP item 6: classical gates criterion 9",
    ("classical", "J_STANDARD"): "ROADMAP item 6: classical gates criterion 9",
    ("classical", "bracket"): "ROADMAP item 6: classical gates criterion 9",
    ("classical", "DarbouxPoint"): "ROADMAP item 6: classical gates criterion 9",
    ("classical", "to_darboux"): "ROADMAP item 6: classical gates criterion 9",
    ("classical", "standard_bracket"): "ROADMAP item 6: classical gates criterion 9",
    ("classical", "phase_functions"): "ROADMAP item 6: classical gates criterion 9",
}


def _modules() -> dict:
    return {name[:-3]: ast.parse(open(os.path.join(SRC, name)).read())
            for name in sorted(os.listdir(SRC)) if name.endswith(".py")}


def _defined(stmt) -> list:
    """Names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _census(trees: dict):
    """(definitions, references): (module, name) -> its top-level statements,
    and (module, name) -> the package names those statements mention."""
    definitions, references = {}, {}
    for module, tree in trees.items():
        names, siblings = {}, {}
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
                for alias in stmt.names:
                    local = alias.asname or alias.name
                    if stmt.module is None:
                        siblings[local] = alias.name
                    else:
                        names[local] = (stmt.module, alias.name)
            for name in _defined(stmt):
                names[name] = (module, name)
                definitions.setdefault((module, name), []).append(stmt)
        for key, stmts in definitions.items():
            if key[0] != module:
                continue
            found = set()
            for node in (n for s in stmts for n in ast.walk(s)):
                if isinstance(node, ast.Name) and node.id in names:
                    found.add(names[node.id])
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id in siblings):
                    found.add((siblings[node.value.id], node.attr))
            references[key] = found
    return definitions, references


def _reached(references: dict, roots) -> set:
    seen, stack = set(), list(roots)
    while stack:
        key = stack.pop()
        if key not in seen:
            seen.add(key)
            stack.extend(references.get(key, ()))
    return seen


def _public(definitions: dict) -> set:
    return {key for key in definitions if key[0] in LIBRARY and not key[1].startswith("_")}


def test_every_public_library_name_has_a_runtime_caller_or_a_reason():
    definitions, references = _census(_modules())
    cli_roots = [key for key in definitions if key[0] == "cli"]
    unreached = _public(definitions) - _reached(references, cli_roots + list(ALLOWLIST))
    assert not sorted(unreached), "neither cli nor an allowlisted name reaches these"


def test_no_allowlisted_name_is_reached_from_cli_alone():
    definitions, references = _census(_modules())
    assert set(ALLOWLIST) <= _public(definitions), "an allowlisted name is gone"
    from_cli = _reached(references, [key for key in definitions if key[0] == "cli"])
    assert not sorted(set(ALLOWLIST) & from_cli), "cli reaches these; drop them from the list"
