"""No function in the package mutates a module-level dict or list.

State kept between calls is shared by every caller in the process, so one
test could change the next.  It belongs on the object it serves (a member
keeps its chain and contexts) or in a functools cache, which has one owner
and can be cleared.
"""

import ast
import os

import kleinlat

MUTATING_METHODS = {
    "append", "extend", "insert", "pop", "remove", "clear", "update", "setdefault",
    "popitem", "sort", "reverse", "__setitem__", "__delitem__",
}
CONTAINER_CALLS = {"dict", "list", "defaultdict", "OrderedDict"}


def _module_containers(tree):
    """Names bound at module level to a dict or list."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        container = isinstance(value, (ast.Dict, ast.List, ast.DictComp, ast.ListComp)) or (
            isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id in CONTAINER_CALLS
        )
        if container:
            out.update(t.id for t in targets if isinstance(t, ast.Name))
    return out


def _mutations(fn, containers):
    """(line, name) of each mutation of a module-level container inside fn."""
    declared_global = {n for node in ast.walk(fn) if isinstance(node, ast.Global) for n in node.names}
    args = fn.args
    local = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    local |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    local |= {node.id for node in ast.walk(fn)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    shared = (containers - local) | (containers & declared_global)
    out = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            base = node.value
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in MUTATING_METHODS:
            base = node.func.value
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            base = node.target
        else:
            continue
        if isinstance(base, ast.Name) and base.id in shared:
            out.append((node.lineno, base.id))
    return out


def _findings(source, filename):
    tree = ast.parse(source, filename)
    containers = _module_containers(tree)
    return [
        (filename, fn.name, line, name)
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for line, name in _mutations(fn, containers)
    ]


def test_the_scan_sees_each_kind_of_mutation():
    source = (
        "CACHE = {}\n"
        "SEEN: list = []\n"
        "TABLE = dict()\n"
        "def store(k, v):\n"
        "    CACHE[k] = v\n"
        "def push(x):\n"
        "    SEEN.append(x)\n"
        "def fill():\n"
        "    TABLE.update(a=1)\n"
        "def drop(k):\n"
        "    del CACHE[k]\n"
        "def grow():\n"
        "    global SEEN\n"
        "    SEEN += [1]\n"
        "def shadow(CACHE):\n"
        "    CACHE[0] = 1\n"
        "def local():\n"
        "    SEEN = []\n"
        "    SEEN.append(1)\n"
        "def read(k):\n"
        "    return CACHE.get(k), SEEN[0]\n"
    )
    found = [(fn, name) for _f, fn, _line, name in _findings(source, "example.py")]
    assert found == [("store", "CACHE"), ("push", "SEEN"), ("fill", "TABLE"),
                     ("drop", "CACHE"), ("grow", "SEEN")]


def test_no_function_in_the_package_mutates_a_module_level_container():
    root = os.path.dirname(os.path.abspath(kleinlat.__file__))
    found = []
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name)) as fh:
                found += _findings(fh.read(), name)
    assert found == []
