"""The Smith route and the quotient route to B(X)_0 share no code.

``chow.report`` accepts B(X)_0 only when the Smith diagonal of ``snf``
and the quotient route of ``chow.compute_b0`` agree.  That check finds a
fault only if the fault cannot sit in both routes at once, so this test
walks the syntax trees of ``exact_linalg`` and ``chow`` and takes the
package code each route can reach.

A name reaches the function, class or constant it names; ``Class.attr``
reaches that member, looked up along the bases; ``x.attr`` on anything
else reaches every member called ``attr`` of every class, so a method
call on an instance is followed whatever the instance is.  ``@`` reaches
``__matmul__``, a formatted value ``__str__`` (``__repr__`` under
``!r``), and a class its constructor.  Inside a method, ``self`` and
``cls`` stand for its class, which no class of the two modules
subclasses.  So the walk can find more shared code than there is, never
less.
"""

import ast
import inspect

import pytest

from chowfiber import chow, exact_linalg

ROUTES = {
    "smith": ("snf", "_verify_snf", "_replay"),
    "quotient": (
        "chow.compute_b0",
        "_bezout_vector",
        "_xgcd",
        "local_invariant_factors",
        "_rank_and_minor",
    ),
    "oracle": ("determinantal_divisors", "invariant_factors_from_divisors"),
}

#: What two routes may both reach: the value classes, the constructors
#: and accessors of ``IntMatrix``, the error every check raises, and the
#: printing of values and numbers that error messages reach.
SHARED = frozenset(
    {
        "_value.Value",
        "IntMatrix",
        "IntMatrix.__init__",
        "IntMatrix._trusted",
        "IntMatrix._store",
        "IntMatrix.shape",
        "IntMatrix.__str__",
        "FGAbelianGroup.__str__",
        "int_text",
        "SelfCheckError",
    }
)


class CallGraph:
    """The package code each definition in ``exact_linalg`` and ``chow`` names.

    Nodes of ``exact_linalg`` go by their bare name, those of ``chow``
    with ``chow.`` in front, and names from other package modules with
    their module in front; a method is ``Class.method``.  Inside a
    method, ``self.attr`` and ``cls.attr`` are members of its class.
    """

    def __init__(self):
        self.body, self.bases, self.members = {}, {}, {}
        for module, prefix in ((exact_linalg, ""), (chow, "chow.")):
            scope = {}
            for node in ast.parse(inspect.getsource(module)).body:
                if isinstance(node, ast.ImportFrom) and node.level == 1:
                    home = "" if node.module == "exact_linalg" else node.module + "."
                    scope.update((a.asname or a.name, home + a.name) for a in node.names)
                elif isinstance(node, ast.Assign | ast.AnnAssign):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    scope.update((t.id, prefix + t.id) for t in targets if isinstance(t, ast.Name))
                elif isinstance(node, ast.FunctionDef | ast.ClassDef):
                    name = scope[node.name] = prefix + node.name
                    self.body[name] = (node, scope, None)
                    if isinstance(node, ast.ClassDef):
                        bases = [getattr(b, "id", None) for b in node.bases]
                        self.bases[name] = [scope[b] for b in bases if b in scope]
                        for item in node.body:
                            if isinstance(item, ast.FunctionDef):
                                member = f"{name}.{item.name}"
                                self.body[member] = (item, scope, name)
                                self.members.setdefault(item.name, []).append(member)

    def member(self, cls, attr):
        """``cls.attr`` looked up along the first bases, else the first base from elsewhere."""
        while f"{cls}.{attr}" not in self.body:
            cls = next(iter(self.bases[cls]), None)
            if cls not in self.bases:
                return cls
        return f"{cls}.{attr}"

    def edges(self, name):
        if name not in self.body:
            return set()  # a constant, or a name from another module
        node, scope, owner = self.body[name]
        if isinstance(node, ast.ClassDef):
            return {self.member(name, "__init__")} - {None}
        scope = {**scope, "self": owner, "cls": owner}
        found, skip = set(), set()
        for sub in (sub for statement in node.body for sub in ast.walk(statement)):
            if id(sub) in skip:
                continue
            if isinstance(sub, ast.AnnAssign):
                skip.update(map(id, ast.walk(sub.annotation)))
            elif isinstance(sub, ast.Attribute):
                base = scope.get(sub.value.id) if isinstance(sub.value, ast.Name) else None
                if base in self.bases:
                    found.add(self.member(base, sub.attr))
                elif base:
                    found.add(base)  # a member of a name from another module
                else:  # an instance: any class may define the member
                    found.update(self.members.get(sub.attr, ()))
                if base:
                    skip.add(id(sub.value))
            elif isinstance(sub, ast.Name) and sub.id != "self":  # an instance, not its class
                found.add(scope.get(sub.id))
            elif isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.MatMult):
                found.update(self.members.get("__matmul__", ()))
            elif isinstance(sub, ast.FormattedValue):
                shown = "__repr__" if sub.conversion == ord("r") else "__str__"
                found.update(self.members.get(shown, ()))
        return found - {None}

    def closure(self, roots):
        seen, todo = set(), list(roots)
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo.extend(self.edges(name))
        return seen


@pytest.fixture(scope="module")
def graph():
    return CallGraph()


@pytest.mark.parametrize("other", ["quotient", "oracle"])
def test_the_smith_route_shares_no_code(graph, other):
    shared = graph.closure(ROUTES["smith"]) & graph.closure(ROUTES[other])
    assert shared - SHARED == set()


def test_the_oracle_shares_the_bareiss_pass_with_the_quotient_route(graph):
    # Only the comparisons with snf check the local route independently.
    shared = graph.closure(ROUTES["oracle"]) & graph.closure(ROUTES["quotient"])
    assert shared - SHARED == {"_rank_and_minor"}


def test_the_walk_follows_class_members_and_instance_methods(graph):
    assert {"IntMatrix._trusted", "IntMatrix._store", "FGAbelianGroup.quotient"} <= graph.closure(
        ["chow.compute_b0"]
    )
    # solve_in_lattice reads dec.u, a property that replays the Smith log.
    assert "_replay" in graph.closure(["solve_in_lattice"])
    assert "FGAbelianGroup.__init__" in graph.closure(["FGAbelianGroup.quotient"])
