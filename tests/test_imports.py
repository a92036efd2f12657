"""Source hygiene: no module imports a name it never uses, and no function
mutates module-level state."""

import ast
from pathlib import Path

import pytest

import redop

MODULES = sorted(
    p for p in Path(redop.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted("%s (line %d)" % (name, line)
                    for name, line in imported.items() if name not in used)
    assert not unused, "unused imports: " + ", ".join(unused)


MUTATORS = {"update", "append", "add", "setdefault", "pop", "clear"}


def _module_level_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_mutates_module_level_containers(path):
    tree = ast.parse(path.read_text())
    shared = _module_level_names(tree)
    hits = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
                target = node.value
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in MUTATORS:
                target = node.func.value
            else:
                continue
            if isinstance(target, ast.Name) and target.id in shared:
                hits.add("%s (line %d)" % (target.id, node.lineno))
    assert not hits, "module-level state mutated: " + ", ".join(sorted(hits))


def test_every_call_passes_the_session_on():
    """A function that takes the run's Session gets it from every caller in
    the package, so no sampled verdict falls back to the defaults."""
    trees = {path.name: ast.parse(path.read_text()) for path in MODULES}
    takes = {}
    for tree in trees.values():
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                names = [a.arg for a in fn.args.args]
                if "session" in names:
                    takes[fn.name] = names.index("session")
    assert {"is_zero", "backlund_verify", "verify_bijection"} <= set(takes)
    misses = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                if callee in takes and len(node.args) <= takes[callee] \
                        and all(k.arg != "session" for k in node.keywords):
                    misses.append("%s (line %d): %s" % (name, node.lineno, callee))
    assert not misses, "session not passed on: " + ", ".join(misses)


def test_branch_decisions_read_the_proof_alone():
    """The elimination axis, whether Phi depends on u and whether zeta_u
    vanishes are read from normal forms: the functions that decide them
    take no Session and call no is_zero."""
    branches = ("eliminate_on_Q", "zeta_from_family", "adjoint_operator")
    found = {}
    for path in MODULES:
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef) and fn.name in branches:
                calls = {getattr(n.func, "id", None) for n in ast.walk(fn) if isinstance(n, ast.Call)}
                found[fn.name] = ("session" in [a.arg for a in fn.args.args], "is_zero" in calls)
    assert found == dict.fromkeys(branches, (False, False))


def test_no_module_names_factor_list():
    """Every split is read from a ring form: least exponents of single atoms,
    or the content in some generators (reduce_with_ansatz). No module
    factors, so none draws from sympy's global generator."""
    paths = Path(redop.__file__).parent.glob("*.py")
    assert [p.name for p in paths if "factor_list" in p.read_text()] == []


def test_no_module_calls_sympy_cancel():
    """normalize cancels in a polynomial ring (PolyElement.cancel); sympy's
    cancel front end (factor_terms, signsimp) is never used."""
    users = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "cancel" \
                    and isinstance(node.value, ast.Name) and node.value.id in ("sp", "sympy"):
                users.append("%s (line %d)" % (path.name, node.lineno))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sympy") \
                    and any(alias.name == "cancel" for alias in node.names):
                users.append("%s (line %d)" % (path.name, node.lineno))
    assert not users, "sympy.cancel referenced: " + ", ".join(users)


def test_only_core_converts_into_rings():
    """normalize is the one kernel: the exp merging and the ring conversion
    of its general route are referenced in core.py alone."""
    users = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, "attr", None), getattr(node, "id", None)}
            if isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            if names & {"powsimp", "sring"}:
                users.add(path.name)
    assert users == {"core.py"}


def test_only_the_ansatz_reduction_substitutes_atoms_alone():
    """Families substitute u = f through jets.substitute_jets, which also
    rewrites the formal arguments of declared functions; core.substitute,
    which replaces atoms only, is referenced by reduction.py alone."""
    users = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, "attr", None), getattr(node, "id", None)}
            if isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            if "substitute" in names:
                users.add(path.name)
    assert users == {"reduction.py"}


def test_numerators_are_read_from_the_ring_form():
    """split_nonvanishing, primitive_equation, is_zero and the ansatz
    reduction read numerators from core.ring_form: as_numer_denom is called
    in core._cancelled's general route alone, and sympy.Poly nowhere."""
    users = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.name == "core.py":
            for fn in ast.walk(tree):
                if isinstance(fn, ast.FunctionDef) and fn.name == "_cancelled":
                    allowed.update(id(n) for n in ast.walk(fn))
        for node in ast.walk(tree):
            names = {getattr(node, "attr", None), getattr(node, "id", None)}
            if isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            if "Poly" in names or ("as_numer_denom" in names and id(node) not in allowed):
                users.append("%s (line %d)" % (path.name, node.lineno))
    assert not users, "numerator read outside the ring form: " + ", ".join(users)


def test_runner_names_no_status():
    """Every status in a report comes from a rule in report.py applied to
    the outcome that decided it; runner picks none by hand. It names
    UNDECIDABLE only where no outcome exists: a leader that cannot be
    solved for, and a coefficient split that does not exist."""
    path = Path(redop.__file__).parent / "runner.py"
    tree = ast.parse(path.read_text())
    picked = []
    undecidable = 0
    for node in ast.walk(tree):
        names = {getattr(node, "attr", None), getattr(node, "id", None)}
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        if isinstance(node, ast.Constant):
            names.add(node.value)
        if names & {"PROVED", "SAMPLED", "FAILED", "proved", "sampled", "failed", "undecidable"}:
            picked.append("line %d" % node.lineno)
        if isinstance(node, ast.Name) and node.id == "UNDECIDABLE":
            undecidable += 1
    assert not picked, "status named in runner.py: " + ", ".join(picked)
    assert undecidable == 2


def _scopes(tree):
    """(scope, node) for each module-level statement and each statement of
    a module-level class: a function or method by its qualified name, any
    other class-body statement by its class name, the rest by None."""
    for top in tree.body:
        if isinstance(top, ast.ClassDef):
            for node in top.body:
                if isinstance(node, ast.FunctionDef):
                    yield "%s.%s" % (top.name, node.name), node
                else:
                    yield top.name, node
        else:
            yield getattr(top, "name", None), top


def _callers(name):
    """(module, scope) of each call of name, as a function or a method."""
    return {(path.name, scope)
            for path in MODULES
            for scope, node in _scopes(ast.parse(path.read_text()))
            if _calls(node, {name})}


def test_only_the_parser_declares_functions():
    """Every unknown function gets its identity in one place: the jet context
    makes its zeta and phi, and add_function is called only by the parser's
    fn statement, so nothing declares a name in a parsed problem afterwards;
    ensure_function is neither defined nor called."""
    ensured = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, "attr", None), getattr(node, "id", None),
                     getattr(node, "name", None)}
            if "ensure_function" in names:
                ensured.append("%s (line %d)" % (path.name, node.lineno))
    assert not ensured, "ensure_function referenced: " + ", ".join(ensured)
    assert _callers("add_function") == {("problems.py", "_Parser.stmt_fn")}


def test_unknown_functions_are_made_in_core_and_jets_alone():
    """An UnknownFunction is constructed only for a declared inverse, by the
    function it inverts, and by the jet context: its zeta and phi, and
    add_function."""
    assert _callers("UnknownFunction") == {
        ("core.py", "UnknownFunction.__init__"),
        ("jets.py", "JetContext.__init__"),
        ("jets.py", "JetContext.add_function"),
    }


JET_RULE = {"chain_jets", "derivation", "_replace_jets", "substitute_jets"}


def _calls(node, names):
    return [n for n in ast.walk(node) if isinstance(n, ast.Call)
            and getattr(n.func, "id", getattr(n.func, "attr", None)) in names]


def test_one_chain_rule():
    """jets.derivation is the one chain rule through jets: no other function
    loops over chain_jets and differentiates (_d or diff) by the jets it
    returns, and the read and rewrite halves of the jet rule (chain_jets,
    derivation, _replace_jets, substitute_jets) are defined in jets.py alone."""
    defined = set()
    sites = set()
    for path in MODULES:
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            if fn.name in JET_RULE:
                defined.add((path.name, fn.name))
            for node in ast.walk(fn):
                if isinstance(node, ast.For):
                    loops, body = [node], node.body
                elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                    loops, body = node.generators, [node]
                else:
                    continue
                for loop in loops:
                    if not _calls(loop.iter, {"chain_jets"}):
                        continue
                    jets = {n.id for n in ast.walk(loop.target) if isinstance(n, ast.Name)}
                    for call in (c for stmt in body for c in _calls(stmt, {"_d", "diff"})):
                        if any(isinstance(n, ast.Name) and n.id in jets
                               for arg in call.args for n in ast.walk(arg)):
                            sites.add((path.name, fn.name))
    assert sites == {("jets.py", "derivation")}
    assert defined == {("jets.py", name) for name in JET_RULE}


def test_the_elimination_owns_the_coorder_and_the_leader():
    """The strong co-order and the jet it is solved for are decided by
    singular.Elimination alone: _top_kept_jet is gone, the order of an
    associated function (a hat) is taken inside Elimination only, and every
    solve_for_leader call solves for an attribute named leader."""
    misses = []
    for path in sorted(Path(redop.__file__).parent.glob("*.py")):
        for scope, top in _scopes(ast.parse(path.read_text())):
            for node in ast.walk(top):
                names = {getattr(node, "attr", None), getattr(node, "id", None),
                         getattr(node, "name", None)}
                if isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
                if "_top_kept_jet" in names:
                    misses.append("%s (line %d): _top_kept_jet" % (path.name, node.lineno))
                if not isinstance(node, ast.Call):
                    continue
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                arg_names = [getattr(a, "attr", getattr(a, "id", None)) for a in node.args]
                if callee == "ord" and arg_names[:1] == ["hat"] and not (
                        path.name == "singular.py" and scope.startswith("Elimination.")):
                    misses.append("%s (line %d): ord of a hat" % (path.name, node.lineno))
                if callee == "solve_for_leader" and not (
                        len(node.args) > 1 and isinstance(node.args[1], ast.Attribute)
                        and node.args[1].attr == "leader"):
                    misses.append("%s (line %d): solve_for_leader" % (path.name, node.lineno))
    assert not misses, "leader decided outside the Elimination: " + ", ".join(misses)


def _references(tree):
    """Names and attributes that tree reads, leaving out those inside the
    definition of the name itself (a recursive call is no caller)."""
    refs = set()

    def walk(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if isinstance(node, (ast.Name, ast.Attribute)) and name not in defining:
            refs.add(name)
        for child in ast.iter_child_nodes(node):
            walk(child, defining)

    walk(tree, frozenset())
    return refs


def test_every_exported_name_has_a_caller():
    """Each name the package exports is reached by a command, an acceptance
    criterion or the benchmark's tracer: another module of the package
    references it, tests/test_acceptance.py does, or bench/spans.py traces it."""
    init = Path(redop.__file__)
    exported = {alias.asname or alias.name
                for node in ast.parse(init.read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    reached = set()
    for path in MODULES:
        reached |= _references(ast.parse(path.read_text()))
    here = Path(__file__).parent
    reached |= _references(ast.parse((here / "test_acceptance.py").read_text()))
    spans = ast.parse((here.parent / "bench" / "spans.py").read_text())
    for node in spans.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            reached |= {attr.split(".")[0] for _, _, attr in ast.literal_eval(node.value)}
    unreached = sorted(exported - reached)
    assert not unreached, "exported without a caller: " + ", ".join(unreached)
