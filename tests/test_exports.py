import ast
import importlib
import inspect
import os
import pkgutil
import re
from pathlib import Path

import pytest

import fedcal

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(fedcal.__path__))
README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def quote_owners():
    """Each fedcal submodule, and each class defined in one, by its name."""
    owners = {name: importlib.import_module(f"fedcal.{name}") for name in SUBMODULES}
    for module in list(owners.values()):
        owners.update((k, v) for k, v in vars(module).items()
                      if inspect.isclass(v) and v.__module__ == module.__name__)
    return owners


def readme_signature_quotes():
    """Each `owner.name(a, b=default)` quote of README.md whose owner is in
    quote_owners and whose arguments are bare names, each optionally with
    =default: (quote, dotted name, [(argument, default text or None)])."""
    with open(README, encoding="utf-8") as f:
        text = re.sub(r"```.*?```", "", f.read(), flags=re.S)     # code blocks hold calls
    owners = quote_owners()
    quotes = []
    for quote, dotted, args in re.findall(r"(`(\w+(?:\.\w+)+)\(([^`()]*)\)`)", text):
        parsed = [re.fullmatch(r"(\w+)(?:\s*=\s*(\S+))?", a.strip()) for a in args.split(",")]
        if dotted.split(".")[0] in owners and all(parsed):
            quotes.append((" ".join(quote.split()), dotted, [m.groups() for m in parsed]))
    return quotes


QUOTES = readme_signature_quotes()


@pytest.mark.parametrize("name", SUBMODULES)
def test_each_exported_name_is_defined_in_its_module(name):
    # a name left in __all__ after its function moved would fail here
    module = importlib.import_module(f"fedcal.{name}")
    for export in module.__all__:
        assert hasattr(module, export), f"{module.__name__} has no {export}"
        value = getattr(module, export)
        if inspect.isfunction(value) or inspect.isclass(value):
            assert value.__module__ == module.__name__, (
                f"{module.__name__}.{export} is defined in {value.__module__}")


@pytest.mark.parametrize("quote, dotted, args", QUOTES, ids=[q for q, _, _ in QUOTES])
def test_readme_signature_quote_lists_the_parameters(quote, dotted, args):
    # a parameter added, dropped or renamed in code but not in README fails here
    head, *rest = dotted.split(".")
    obj = quote_owners()[head]
    for part in rest:
        obj = getattr(obj, part)
    params = list(inspect.signature(obj).parameters.values())
    if params and params[0].name == "self":       # a method quoted on its class
        params = params[1:]
    assert [name for name, _ in args] == [p.name for p in params]
    for (name, default), p in zip(args, params):
        assert default is None or default == repr(p.default), name


def test_readme_signature_quotes_are_found():
    # the pattern above must keep finding the quotes it checks
    dotted = [d for _, d, _ in QUOTES]
    assert "model.total_loss" in dotted and "HopAggregator.positions" in dotted
    assert "fedsim.export_history" not in dotted        # a call example, not a signature


# the defaults of public functions that no call in fedcal overrides, each kept
# for a reason of its own, as "module.function.parameter"
KEPT_DEFAULTS = {
    "cli.main.argv": "the console script, which parses sys.argv",
    "graph.split_masks.ratios": "the tests' training-heavy splits (criterion 3's small_instance)",
    "refine.refine_all_anchors.tau": "library callers that set the anchor refinement",
    "refine.refine_all_anchors.eta": "library callers that set the anchor refinement",
    "structural.sinkhorn_match.epsilon": "the tests that drive non-convergence",
    "structural.sinkhorn_match.max_iters": "the tests that drive non-convergence",
    "structural.sinkhorn_match.tol": "the tests that drive non-convergence",
    "structural.sinkhorn_match.debug": "criterion 4, which reads the dual trace",
}


# the nodes that open a scope of their own for the names bound in them
SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def scope_nodes(scope):
    """The nodes of one scope, down to but not into the scopes nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def alias_values(value):
    """The names that `value` can evaluate to when it is a name or an
    IfExp of names, else the empty set."""
    if isinstance(value, ast.Name):
        return {value.id}
    if isinstance(value, ast.IfExp):
        body, orelse = alias_values(value.body), alias_values(value.orelse)
        return body | orelse if body and orelse else set()
    return set()


def passed_arguments(source):
    """(function name, keyword or position) of each argument that a call in
    `source` passes, and (function name, "*") for a call that passes *args
    or **kwargs. A call through a name bound in the same scope as
    `f = a` or `f = a if c else b` counts for each of a and b."""
    passed = set()
    scopes = [n for n in ast.walk(ast.parse(source)) if isinstance(n, SCOPES)]
    for nodes in (list(scope_nodes(scope)) for scope in scopes):
        aliases = {}
        for node in nodes:
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                aliases.setdefault(node.targets[0].id, set()).update(alias_values(node.value))
        for node in nodes:
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute):
                funcs = {node.func.attr}
            else:
                name = getattr(node.func, "id", None)
                funcs = aliases.get(name) or {name}
            for func in funcs:
                passed.update((func, i) for i in range(len(node.args)))
                passed.update((func, k.arg) for k in node.keywords if k.arg is not None)
                if (any(isinstance(a, ast.Starred) for a in node.args)
                        or any(k.arg is None for k in node.keywords)):
                    passed.add((func, "*"))
    return passed


def overridden_parameters():
    """passed_arguments over every module of fedcal's source."""
    return set().union(*(passed_arguments(path.read_text(encoding="utf-8"))
                         for path in sorted(Path(fedcal.__path__[0]).glob("*.py"))))


def test_a_call_through_a_local_alias_counts_for_each_function_it_names():
    passed = passed_arguments("""
def setup(g, m, seed, overlapping):
    partition = partition_overlapping if overlapping else partition_nonoverlapping
    return partition(g, m, seed=seed)

def other(g):
    step = refine
    step(g)
    return partition(g)
""")
    for func in ("partition_overlapping", "partition_nonoverlapping"):
        assert {(func, 0), (func, 1), (func, "seed")} <= passed
    assert (("refine", 0) in passed and ("step", 0) not in passed
            and ("partition", 0) in passed and ("partition", 1) not in passed)


def test_every_public_default_is_overridden_in_src_or_kept_for_a_reason():
    # a default that nothing in fedcal overrides is a parameter with one value in use
    passed = overridden_parameters()
    unused = set()
    for name in SUBMODULES:
        module = importlib.import_module(f"fedcal.{name}")
        for export in module.__all__:
            value = getattr(module, export)
            if not inspect.isfunction(value):
                continue
            for i, p in enumerate(inspect.signature(value).parameters.values()):
                if p.default is not p.empty and not passed & {(export, i), (export, p.name),
                                                              (export, "*")}:
                    unused.add(f"{name}.{export}.{p.name}")
    assert unused == set(KEPT_DEFAULTS)
