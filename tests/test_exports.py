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


def overridden_parameters():
    """(function name, keyword or position) of each argument that a call in
    fedcal's source passes, and (function name, "*") for a call that
    passes *args or **kwargs."""
    passed = set()
    for path in sorted(Path(fedcal.__path__[0]).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(
                node.func, "id", None)
            passed.update((func, i) for i in range(len(node.args)))
            passed.update((func, k.arg) for k in node.keywords if k.arg is not None)
            if (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords)):
                passed.add((func, "*"))
    return passed


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
