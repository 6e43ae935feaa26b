"""src/ holds only what a command runs.

Every module-level function, private helpers included, and every public
class method under src/invforge must be named somewhere in src/ outside
its own definition.  A reference from inside a kept or an unreferenced
name does not count, since neither serves a command.  The exceptions are
KEEP, one reason each.  A test-only reference implementation belongs in
tests/reference.py instead, and there every module-level function must be
named by some tests/test_*.py, directly or through another such function.
"""

import ast
import os

import invforge

SRC = os.path.dirname(invforge.__file__)
TESTS = os.path.dirname(os.path.abspath(__file__))

KEEP = {
    "ring.Poly.evaluate": "the tests' pointwise oracle for every evaluator",
    "boolfun.BoolFun6.value": "the tests' pointwise read of a truth table, and the "
                              "closure step oracle's function lookup",
    "cipher.random_wiring": "the planned solve, invariants and degree-d searches "
                            "sample wirings with it",
    "lincycle.synthetic_permutation": "the planned minimal-polynomial period reader "
                                      "is checked on synthetic permutations",
    "data.fixture_path": "the public path of a shipped data file",
    "data.fixture_text": "the public text of a shipped data file",
}


def _modules():
    for base, _dirs, files in os.walk(SRC):
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(base, f)
                rel = os.path.relpath(path, SRC)[:-3].replace(os.sep, ".")
                name = rel[:-len(".__init__")] if rel.endswith(".__init__") else rel
                yield name, _parse(path)


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def _names(tree):
    """Every bare name and attribute name under an AST node."""
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def _public(name):
    return not name.startswith("_")


def _definitions(module, tree):
    """(qualified name, bare name, node) of each module-level function and
    public method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield "%s.%s" % (module, node.name), node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _public(item.name):
                    yield "%s.%s.%s" % (module, node.name, item.name), item.name, item


def _unreferenced():
    """Qualified names of the definitions that no live code names.

    Code is live unless it lies inside a kept definition or one found
    unreferenced, so a name reached only from dead or kept code is dead too.
    """
    trees = list(_modules())
    defs = [d for module, tree in trees for d in _definitions(module, tree)]
    holder = {id(n): qual for qual, _, node in defs for n in ast.walk(node)}
    holders = {}  # bare name -> the definition around each reference (None: none)
    for _module, tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                holders.setdefault(n.id, []).append(holder.get(id(n)))
            elif isinstance(n, ast.Attribute):
                holders.setdefault(n.attr, []).append(holder.get(id(n)))
    dead = set()
    while True:
        silent = set(KEEP) | dead
        found = {qual for qual, name, _ in defs
                 if all(q == qual or q in silent for q in holders.get(name, ()))}
        if found == dead:
            return dead
        dead = found


def test_every_public_name_serves_a_command():
    unused = _unreferenced() - set(KEEP)
    assert not unused, ("names in src/ that no code in src/ reaches; delete "
                        "them or move them into tests/reference.py: %s"
                        % ", ".join(sorted(unused)))


def test_keep_list_holds_only_unreferenced_names():
    # a kept name that a command starts to use leaves the list
    assert set(KEEP) <= _unreferenced(), sorted(set(KEEP) - _unreferenced())
    assert all(reason.strip() for reason in KEEP.values())


def test_every_reference_helper_serves_a_test():
    # an oracle that no test reaches, directly or through another helper,
    # checks nothing: delete it rather than let it rot
    helpers = {node.name: node for node in _parse(os.path.join(TESTS, "reference.py")).body
               if isinstance(node, ast.FunctionDef)}
    todo = set().union(*(_names(_parse(os.path.join(TESTS, f))) for f in os.listdir(TESTS)
                         if f.startswith("test_") and f.endswith(".py"))) & helpers.keys()
    live = set()
    while todo:
        name = todo.pop()
        live.add(name)
        todo |= (_names(helpers[name]) & helpers.keys()) - live
    assert live == helpers.keys(), ("tests/reference.py helpers that no test reaches: %s"
                                    % ", ".join(sorted(helpers.keys() - live)))
