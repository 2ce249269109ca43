"""No module imports a name it never uses, the package defines nothing
that nothing names, the tests' oracles share no library evaluator, no
checker reaches the builder it checks, no parameter restates a
truncation its inputs carry, no value is changed after it is built, and
only `cli.main` writes to the standard streams.

AST scans of every module of the package and of the test suite: a name
bound by an import statement (at any depth) must be read somewhere in the
same module, or be re-exported through its `__all__`; every function,
method and class the package defines (dunder methods aside, which Python
calls by protocol) must be named somewhere in the package, the tests or
the benchmark besides its own definition; `tests/reference.py` reaches
none of the library's evaluators; the package's call closure keeps each
library checker off a pinned set of builders; no parameter named like
a truncation is left but those a pinned allowlist gives a reason for; no
function but an `__init__` assigns an attribute, but those another
pinned allowlist gives a reason for; and in `cli` only `main` reads
`sys.stdout` or `sys.stderr`.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "ainfinity").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
NAMING = MODULES + sorted((ROOT / "perfbench").glob("*.py"))
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def unused_imports(source):
    """Names bound by imports in `source` that no expression reads and
    `__all__` does not list, in order of appearance."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_scan_flags_an_unused_import():
    source = "import os\nfrom sys import argv, path\n__all__ = ['path']\n"
    assert unused_imports(source) == ["os", "argv"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: "%s/%s" % (p.parent.name, p.name))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def definitions(tree):
    """Names of the functions, methods and classes defined in `tree`, at
    any depth, dunder methods aside."""
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def references(tree, own):
    """Names `tree` can reach a definition by from another module: an
    attribute, an imported name, or a part of a dotted string such as a
    span or mutation target.  With `own`, plain names too: how a module
    names its own definitions.  A plain name elsewhere is that module's own
    binding, so a test helper never keeps a library function alive just by
    sharing its name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            names.update(node.value.split("."))
        elif own and isinstance(node, ast.Name):
            names.add(node.id)
    return names


def dead_definitions(defining, naming):
    """(label, name) for each definition in the sources `defining` ({label:
    source}) that neither its own source nor any other source in `naming`
    names."""
    trees = {label: ast.parse(source) for label, source in naming.items()}
    foreign = {label: references(tree, own=False)
               for label, tree in trees.items()}
    dead = []
    for label, source in sorted(defining.items()):
        tree = ast.parse(source)
        named = references(tree, own=True).union(
            *[names for other, names in foreign.items() if other != label])
        dead += [(label, name) for name in sorted(definitions(tree) - named)]
    return dead


def test_dead_definition_scan_flags_a_stranded_function():
    lib = ("def used():\n    return helper()\n\ndef helper():\n    pass\n\n"
           "def stranded():\n    pass\n\nclass Box:\n    def method(self):\n"
           "        pass\n    def __repr__(self):\n        return ''\n")
    # a test's own function of the same name does not keep `stranded` alive
    test = ("from lib import used, Box\n\ndef stranded():\n    pass\n\n"
            "used(); stranded(); Box().method()\n")
    assert dead_definitions({"lib": lib}, {"lib": lib, "test": test}) == [
        ("lib", "stranded")]
    spans = 'SPANS = [("lib", "Box.method"), ("lib", "stranded")]\n'
    assert dead_definitions({"lib": lib}, {"lib": lib, "spans": spans}) == [
        ("lib", "used")]


def test_every_package_definition_is_named():
    naming = {str(path.relative_to(ROOT)): path.read_text() for path in NAMING}
    package = {label: source for label, source in naming.items()
               if label.startswith("src")}
    assert dead_definitions(package, naming) == []


# the library's evaluators: an oracle that called one would agree with the
# library by construction, however wrong the library's signs
LIBRARY_EVALUATORS = {"_product_into", "map_sum", "compose_product",
                      "compose", "tensor_into", "tensor_residual",
                      "_lift_blocks", "operator_sum"}


def library_evaluators_reached(source):
    """The library evaluators (and `lift_*`) that `source` imports from the
    package or reads off a package module it imports, sorted."""
    tree = ast.parse(source)
    modules, names = set(), set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "ainfinity"):
            for alias in node.names:
                names.add(alias.name)
                modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names
                           if alias.name.split(".")[0] == "ainfinity")
    names.update(node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name)
                 and node.value.id in modules)
    return sorted(name for name in names
                  if name in LIBRARY_EVALUATORS or name.startswith("lift_"))


def test_reference_reaches_no_library_evaluator():
    source = (ROOT / "tests" / "reference.py").read_text()
    assert library_evaluators_reached(source) == []
    for line, name in [
            ("from ainfinity.graded import tensor_into", "tensor_into"),
            ("from ainfinity.graded import compose_product as cp",
             "compose_product"),
            ("from ainfinity import coalgebra\ncoalgebra.lift_morphism(op)",
             "lift_morphism")]:
        assert library_evaluators_reached(line + "\n" + source) == [name]


def call_graph(sources):
    """{qualified name: the qualified names its body reaches} for every
    function, class and method defined at the top of the modules `sources`
    ({module stem: source}), named "module.f" and "module.Class.method".
    A body reaches each name it reads that is defined in its module or
    imported from a sibling module, `mod.f` of a sibling module `mod`, and
    `C.m` of a class C it names (`self.m` and `cls.m` in C's methods); any
    other `x.m` reaches every method named m in the caller's module if
    there is one, else every method named m in the package.  A class
    reaches its `__init__`.  Operators (`+`, `==`) are not followed."""
    trees = {mod: ast.parse(source) for mod, source in sources.items()}
    bodies, methods = {}, {}
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                bodies[mod + "." + node.name] = (mod, None, node)
            elif isinstance(node, ast.ClassDef):
                cls = mod + "." + node.name
                bodies[cls] = (mod, cls, None)
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        bodies[cls + "." + item.name] = (mod, cls, item)
                        methods.setdefault(item.name, set()).add(
                            cls + "." + item.name)
    scopes = {}
    for mod, tree in trees.items():
        scope = scopes[mod] = {node.name: mod + "." + node.name
                               for node in tree.body
                               if isinstance(node, (ast.FunctionDef,
                                                    ast.ClassDef))}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    scope[alias.asname or alias.name] = (
                        node.module + "." + alias.name if node.module
                        else alias.name)

    def attribute(mod, cls, node):
        base = node.value.id if isinstance(node.value, ast.Name) else None
        if base in ("self", "cls") and cls:
            return {cls + "." + node.attr}
        owner = scopes[mod].get(base)
        if owner in sources or (owner in bodies and bodies[owner][2] is None):
            return {owner + "." + node.attr}
        named = methods.get(node.attr, set())
        return {q for q in named if q.startswith(mod + ".")} or named

    graph = {}
    for qual, (mod, cls, node) in bodies.items():
        if node is None:
            graph[qual] = {qual + ".__init__"}
            continue
        reached = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in scopes[mod]:
                reached.add(scopes[mod][sub.id])
            elif isinstance(sub, ast.Attribute):
                reached |= attribute(mod, cls, sub)
        graph[qual] = reached & set(bodies)
    return graph


def reached_from(graph, start):
    """Every qualified name `start` reaches in `graph`, itself included."""
    seen, todo = set(), [start]
    while todo:
        qual = todo.pop()
        if qual not in seen:
            seen.add(qual)
            todo.extend(graph.get(qual, ()))
    return seen


def package_sources(**replaced):
    """{module stem: source} of the package, with the sources `replaced`
    ({stem: (old, new)}) edited, each fragment exactly once."""
    sources = {path.stem: path.read_text() for path in PACKAGE}
    for mod, (old, new) in replaced.items():
        assert sources[mod].count(old) == 1
        sources[mod] = sources[mod].replace(old, new)
    return sources


# Which builders each library checker may not reach: a check that ran the
# code it checks would agree with it by construction.  The colinearity check
# builds no lift and makes its own flanks; the componentwise relation
# checks run on components, never on operators or lifts; the unshifted
# recursions and checkers never pass through the shifted convention they
# are cross-checked against.
SHIFTED = {"kernels._suspended_p", "kernels._suspended_q"}
COMPONENTWISE = {"coalgebra.operator_sum", "coalgebra._meetings",
                 "coalgebra._lift_blocks", "graded.tensor_into"}
COLINEARITY = {"graded.tensor_into", "coalgebra._lift_blocks",
               "coalgebra._lift_level", "coalgebra._flanks",
               "coalgebra.CoalgebraOperator.identity"}
CHECKERS = {
    "coalgebra.lift_residual": COLINEARITY,
    # the chunk checker of the swept route: its construction checks the
    # lower layer, and `residual` each chunk
    "coalgebra.SweptCheck": COLINEARITY,
    "coalgebra.SweptCheck.residual": COLINEARITY,
    "coalgebra.check_codifferential": COMPONENTWISE,
    "coalgebra.check_morphism_components": COMPONENTWISE,
    "coalgebra.check_homotopy_components": COMPONENTWISE,
    "kernels.p_kernels": SHIFTED,
    "kernels.q_kernels": SHIFTED,
    "ainfty.check_structure": SHIFTED,
    "ainfty.check_morphism": SHIFTED,
    "ainfty.check_homotopy": SHIFTED,
}


def builders_reached(graph):
    """(checker, builder) for each forbidden builder a checker of CHECKERS
    reaches in `graph`, sorted; every function of `suspension` named
    suspend_* or desuspend_* is forbidden with the shifted builders."""
    shifts = {q for q in graph if q.startswith(("suspension.suspend_",
                                                "suspension.desuspend_"))}
    found = []
    for checker, forbidden in sorted(CHECKERS.items()):
        assert checker in graph, checker
        if forbidden is SHIFTED:
            forbidden = SHIFTED | shifts
        found += [(checker, q)
                  for q in sorted(reached_from(graph, checker) & forbidden)]
    return found


def test_call_closure_flags_a_checker_that_builds():
    graph = call_graph(package_sources())
    reached = reached_from(graph, "coalgebra.lift_residual")
    assert {"graded.tensor_residual", "coalgebra._walked_blocks",
            "coalgebra._IdentityBlock.get", "graded.MultiMap.shift",
            "graded.GradedModule.shifted"} <= reached
    assert "kernels.DeformationRetract.__init__" not in reached
    assert {"suspension.suspend_components",
            "suspension.desuspend_components"} <= reached_from(
                graph, "kernels.transfer")
    # the colinearity check reading the builder's view of the identity
    borrowed = call_graph(package_sources(coalgebra=(
        "left = {(m, m): _IdentityBlock(V, m) for m in range(1, N)}",
        "left = CoalgebraOperator.identity(V, N - 1).blocks")))
    assert builders_reached(borrowed) == [
        ("coalgebra.SweptCheck", "coalgebra.CoalgebraOperator.identity"),
        ("coalgebra.lift_residual", "coalgebra.CoalgebraOperator.identity")]
    # a componentwise check summing operators, through a method call
    summed = call_graph(package_sources(coalgebra=(
        "    report = CheckReport(\"codifferential\")",
        "    report = CheckReport(\"codifferential\")\n    family.compose(1)")))
    assert builders_reached(summed) == [
        ("coalgebra.check_codifferential", "coalgebra._meetings"),
        ("coalgebra.check_codifferential", "coalgebra.operator_sum")]


def test_checkers_never_reach_their_builders():
    assert builders_reached(call_graph(package_sources())) == []


# the kernel route: the recursions, their checks and the package they build
KERNEL_ROUTE = {"kernels.transfer", "kernels.p_kernels", "kernels.q_kernels",
                "kernels._suspended_p", "kernels._suspended_q",
                "kernels.check_p_identity", "kernels.check_q_identity"}


def test_the_hpl_route_calls_no_kernel_recursion():
    """The perturbation-lemma route shares only the input check with the
    kernel route (`DeformationRetract.require_on_big_side`), never a
    computation, so the comparison of the two is a cross-check."""
    graph = call_graph(package_sources())
    assert KERNEL_ROUTE <= set(graph)
    reached = reached_from(graph, "perturbation.hpl_transfer")
    assert {"coalgebra.SweptLift.chunk", "coalgebra.SweptCheck.residual",
            "kernels.DeformationRetract.require_on_big_side"} <= reached
    assert reached & KERNEL_ROUTE == set()


# Every parameter of the package named like a truncation, with the reason
# it stays: a run reads its arity off the structure, map or operator it runs
# on, so a parameter that restates it is a second source of truth.
TRUNCATION_NAMES = {"N", "n_max", "trunc", "truncation"}
TRUNCATION_PARAMETERS = {
    "ainfty.AInfinity.__init__ truncation":
        "constructor: a structure states the arity it is known to",
    "coalgebra.ComponentFamily.__init__ trunc":
        "constructor: a family states its truncation",
    "coalgebra.CoalgebraOperator.__init__ trunc":
        "constructor: an operator states its truncation",
    "docio.Document.__init__ truncation":
        "constructor: a document states the truncation it was written at",
    "coalgebra.ComponentFamily.strict_morphism trunc":
        "no object: a single map carries no truncation",
    "coalgebra.ComponentFamily.identity trunc":
        "no object: a module carries no truncation",
    "coalgebra.CoalgebraOperator.identity trunc":
        "no object: a module carries no truncation",
    "corpus.random_dga truncation": "generator: the structure it makes",
    "retracts.instance_massey truncation": "generator: the structure it makes",
    "retracts.instance_forms truncation": "generator: the structure it makes",
    "coalgebra._lift_blocks trunc":
        "builds a homotopy's left flank one homogeneity short of the family",
    "coalgebra._walked_blocks trunc":
        "walks a homotopy's left flank one homogeneity short of the family",
    "coalgebra._check_flanks N":
        "the check's flanks for a swept operator, whose family is not yet "
        "known at N",
    "cli._selftest_instance N": "generator: the --arity of the selftest",
    "docio._parse_structure truncation":
        "parser: the document's truncation, read before the structure",
    "docio._parse_transfer truncation":
        "parser: the document's truncation, read before the transfer",
    "ainfty.check_structure n_max":
        "perfbench/test_perfbench.py calls check_structure(a, 6)",
}


def truncation_parameters(source, module):
    """Each parameter of a function or method in `source` whose name is in
    TRUNCATION_NAMES, as "module.Qualified.name parameter", sorted."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                params = (args.posonlyargs + args.args + args.kwonlyargs
                          + [a for a in (args.vararg, args.kwarg) if a])
                found.extend("%s.%s%s %s" % (module, prefix, child.name, a.arg)
                             for a in params if a.arg in TRUNCATION_NAMES)
                visit(child, prefix + child.name + ".")

    visit(ast.parse(source), "")
    return sorted(found)


def test_truncation_scan_flags_a_restated_arity():
    source = (ROOT / "src" / "ainfinity" / "kernels.py").read_text()
    assert "kernels.p_kernels N" not in truncation_parameters(source,
                                                             "kernels")
    restated = source.replace("def p_kernels(retract, mu):",
                              "def p_kernels(retract, mu, N):")
    assert restated != source
    assert "kernels.p_kernels N" in truncation_parameters(restated, "kernels")


def test_no_parameter_restates_a_truncation():
    found = []
    for path in PACKAGE:
        found += truncation_parameters(path.read_text(), path.stem)
    assert found == sorted(TRUNCATION_PARAMETERS)
    assert len(found) == 17


# Every function of the package other than an `__init__` that assigns an
# attribute, with the reason it may: values are complete when built and
# never changed after, so a function that sets an attribute either builds
# the object it sets it on or keeps a cache that changes no value.  A class
# listed here covers all of its methods.
ATTRIBUTE_WRITERS = {
    "graded.MultiMap._raw": "the internal constructor: fills the map it makes",
    "graded.MultiMap.columns": "memo cache of the map's columns",
    "reports.CheckReport.renamed": "builds the report it returns",
    "cli.ReportWriter": "a report being written: its lines and its failure",
}


def attribute_writers(source, module):
    """Each function or method in `source` other than an `__init__` whose
    own body (nested definitions aside) assigns or deletes an attribute, or
    calls `setattr`, as "module.Qualified.name", sorted."""
    found = set()

    def visit(node, prefix, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", None)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = prefix + child.name
                visit(child, qual + ".",
                      None if child.name == "__init__" else module + "." + qual)
            else:
                if owner and (
                        (isinstance(child, ast.Attribute)
                         and isinstance(child.ctx, (ast.Store, ast.Del)))
                        or (isinstance(child, ast.Call)
                            and isinstance(child.func, ast.Name)
                            and child.func.id == "setattr")):
                    found.add(owner)
                visit(child, prefix, owner)

    visit(ast.parse(source), "", None)
    return sorted(found)


def test_attribute_scan_flags_a_value_changed_after_construction():
    synthetic = ("class Box:\n    def __init__(self):\n        self.a = 1\n"
                 "        def inner(b):\n            b.c = 2\n"
                 "    def grow(self):\n        self.a, x = 2, 3\n"
                 "    def mark(self):\n        setattr(self, 'a', 4)\n"
                 "    def read(self):\n        return self.a\n\n"
                 "def reset(box):\n    box.a += 1\n")
    assert attribute_writers(synthetic, "lib") == [
        "lib.Box.__init__.inner", "lib.Box.grow", "lib.Box.mark", "lib.reset"]
    # the rename of the reports `transfer` returned, and the series filled
    # in by the nilpotency check, as they once were
    kernels = (ROOT / "src" / "ainfinity" / "kernels.py").read_text()
    assert "kernels.transfer" not in attribute_writers(kernels, "kernels")
    renaming = kernels.replace(
        "    return TransferPackage(",
        "    for name, report in reports.items():\n"
        "        report.name = name\n    return TransferPackage(")
    assert "kernels.transfer" in attribute_writers(renaming, "kernels")
    perturbation = (ROOT / "src" / "ainfinity" / "perturbation.py").read_text()
    check = "perturbation.PerturbationData.verify_nilpotency"
    assert check not in attribute_writers(perturbation, "perturbation")
    filling = perturbation.replace(
        '        report = CheckReport("nilpotency")\n',
        '        report = CheckReport("nilpotency")\n        self.S = None\n')
    assert check in attribute_writers(filling, "perturbation")


def test_no_value_is_changed_after_it_is_built():
    found = []
    for path in PACKAGE:
        found += attribute_writers(path.read_text(), path.stem)
    allowed = [q for q in found if q in ATTRIBUTE_WRITERS
               or q.rpartition(".")[0] in ATTRIBUTE_WRITERS]
    assert found == allowed
    # every entry still names a writer
    assert {q if q in ATTRIBUTE_WRITERS else q.rpartition(".")[0]
            for q in found} == set(ATTRIBUTE_WRITERS)


STREAMS = {"stdout", "stderr"}


def stream_writers(source):
    """The top-level definitions of `source` ("<module>" for code outside
    any) that touch a standard stream: read `sys.stdout` or `sys.stderr`,
    import either from sys, or call `print`; sorted."""
    found = set()
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if ((isinstance(node, ast.Attribute) and node.attr in STREAMS
                 and isinstance(node.value, ast.Name)
                 and node.value.id == "sys")
                    or (isinstance(node, ast.ImportFrom)
                        and node.module == "sys"
                        and any(a.name in STREAMS for a in node.names))
                    or (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "print")):
                found.add(getattr(top, "name", "<module>"))
    return sorted(found)


def test_stream_scan_flags_a_command_that_writes():
    synthetic = ("import sys\nfrom sys import stderr\n\n"
                 "def report():\n    print('x')\n\n"
                 "class Box:\n    def show(self):\n"
                 "        sys.stdout.write('x')\n\n"
                 "def main():\n    return sys.exit(0)\n")
    assert stream_writers(synthetic) == ["<module>", "Box", "report"]
    cli = (ROOT / "src" / "ainfinity" / "cli.py").read_text()
    old = '        out.note("all checks passed at truncation %d" % doc.truncation)\n'
    assert cli.count(old) == 1
    writing = cli.replace(old, old + "    sys.stdout.write(out.render())\n")
    assert stream_writers(writing) == ["cmd_check", "main"]


def test_only_main_writes_the_standard_streams():
    """Each command returns its report and raises its refusal, and `main`
    writes the one to stdout and the other, bounded, to stderr."""
    cli = (ROOT / "src" / "ainfinity" / "cli.py").read_text()
    assert stream_writers(cli) == ["main"]
