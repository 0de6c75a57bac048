"""Every module-level import in the package is read by its module, every
module-level private function or class is read by the package, every
parameter of every function is read by its body, and one step stores
every tail memo entry."""

import ast
import pathlib

import pytest

import sawkit

PACKAGE = sorted(pathlib.Path(sawkit.__file__).parent.glob("*.py"))
MODULES = [path for path in PACKAGE if path.name != "__init__.py"]


def _unused_imports(source: str) -> list:
    """The names a module's top-level import statements bind that no
    expression of the module reads; __future__ imports bind nothing."""
    tree = ast.parse(source)
    bound = [(alias.asname or alias.name).split(".")[0]
             for node in tree.body
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_the_scan_sees_an_unused_import():
    assert _unused_imports("import os\nfrom typing import Any, List\n"
                           "x: List = os.sep\n") == ["Any"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_import_is_read(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def _unread_private_defs(sources: dict) -> list:
    """(module, name) of each module-level ``_private`` function or class
    whose name no top-level statement of the package reads, other than
    its own definition.  A read is a loaded name, an attribute or an
    imported name."""
    reads = []          # (top-level statement, names it reads)
    defs = []
    for mod, source in sources.items():
        for stmt in ast.parse(source).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and \
                        isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
            reads.append((stmt, names))
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and \
                    stmt.name.startswith("_") and \
                    not stmt.name.startswith("__"):
                defs.append((mod, stmt))
    return [(mod, d.name) for mod, d in defs
            if not any(d.name in names for stmt, names in reads
                       if stmt is not d)]


def test_the_scan_sees_an_unread_private_def():
    sources = {"a": "def _used():\n    return _used()\n"
                    "def _gone(x):\n    return _gone(x - 1)\n"
                    "class _Kept:\n    pass\n",
               "b": "from .a import _used\nimport a\nY = a._Kept\n"}
    assert _unread_private_defs(sources) == [("a", "_gone")]


def test_every_private_def_is_read():
    assert _unread_private_defs({path.name: path.read_text(encoding="utf-8")
                                 for path in PACKAGE}) == []


def _unread_parameters(source: str) -> list:
    """(function, parameter) for each parameter of a ``def`` that no
    loaded name in its body reads, ``self`` and ``cls`` aside.  A stub
    whose body, after any docstring, only raises NotImplementedError is
    exempt: its parameters fix the interface that overrides implement."""
    unread = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
        if len(body) == 1 and isinstance(body[0], ast.Raise) and \
                "NotImplementedError" in {node.id for node in
                                          ast.walk(body[0])
                                          if isinstance(node, ast.Name)}:
            continue
        args = fn.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                  + [a for a in (args.vararg, args.kwarg) if a]]
        read = {node.id for stmt in body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and
                isinstance(node.ctx, ast.Load)}
        unread.extend((fn.name, p) for p in params
                      if p not in read and p not in ("self", "cls"))
    return unread


def test_the_scan_sees_an_unread_parameter():
    source = ("def f(a, b, *rest, c=1, **kw):\n"
              "    return a + g(c, *rest)\n"
              "class K:\n"
              "    def stub(self, x):\n"
              "        '''Overridden.'''\n"
              "        raise NotImplementedError\n"
              "    def closure(self, y, z):\n"
              "        def inner(w=z):\n"
              "            return lambda: y + w\n"
              "        return inner\n")
    assert _unread_parameters(source) == [("f", "b"), ("f", "kw")]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert _unread_parameters(path.read_text(encoding="utf-8")) == []


def _unpassed_defaults(sources: dict) -> list:
    """(module, function, parameter) for each defaulted parameter of a
    module-level ``_private`` function that no call in the package
    passes, by keyword or by position.  A call of ``partial`` passes its
    first argument's parameters too, and ``*args`` or ``**kwargs`` in a
    call pass every parameter."""
    trees = {mod: ast.parse(source) for mod, source in sources.items()}
    passed = {}         # callee name -> positions and keywords passed
    for tree in trees.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            fn, args = call.func, call.args
            if getattr(fn, "id", getattr(fn, "attr", None)) == "partial" \
                    and args:
                fn, args = args[0], args[1:]
            name = getattr(fn, "id", getattr(fn, "attr", None))
            got = passed.setdefault(name, set())
            if any(isinstance(a, ast.Starred) for a in args):
                got.add("*")
            got.update(range(len(args)))
            got.update(kw.arg or "**" for kw in call.keywords)
    unpassed = []
    for mod, tree in trees.items():
        for fn in tree.body:
            if not (isinstance(fn, ast.FunctionDef)
                    and fn.name.startswith("_")
                    and not fn.name.startswith("__")):
                continue
            got = passed.get(fn.name, set())
            positional = fn.args.posonlyargs + fn.args.args
            defaulted = [(i, a.arg) for i, a in enumerate(positional)
                         if i >= len(positional) - len(fn.args.defaults)]
            defaulted += [(None, a.arg) for a, d in
                          zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d]
            unpassed.extend(
                (mod, fn.name, arg) for i, arg in defaulted
                if arg not in got and "**" not in got
                and (i is None or (i not in got and "*" not in got)))
    return unpassed


def test_the_scan_sees_an_unpassed_default():
    sources = {"a": "def _f(a, b=1, c=2, *, d=3, e=4):\n    return a\n"
                    "def _g(a, b=1):\n    return a\n"
                    "def h(a=1):\n    return a\n",
               "b": "from functools import partial\nfrom . import a\n"
                    "a._f(0, 1, e=5)\nk = partial(a._g, 0, 1)\n"}
    assert _unpassed_defaults(sources) == [("a", "_f", "c"),
                                           ("a", "_f", "d")]


def test_every_private_default_is_passed():
    assert _unpassed_defaults({path.name: path.read_text(encoding="utf-8")
                               for path in PACKAGE}) == []


BOUND_SOURCES = {"bridge_bounds", "bridge_counts", "degree_bound",
                 "from_constant"}


def _bound_sources_outside_bounds(sources: dict) -> list:
    """(module, name), sorted, for each read of a lower-bound source (a
    call, or the function passed on) in a module other than bounds.py:
    :func:`sawkit.bounds.lower_bounds` is the one place that picks a
    graph's lower bound."""
    found = []
    for mod, source in sources.items():
        if mod == "bounds.py":
            continue
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name in BOUND_SOURCES:
                found.append((mod, name))
    return sorted(found)


def test_the_scan_sees_a_bound_chosen_outside_bounds():
    sources = {"bounds.py": "def degree_bound(d):\n    return d\n"
                            "x = bridge_counts(1, 2)\n",
               "cli.py": "from .bounds import bridge_bounds, Seq\n"
                         "b = Seq.from_constant(1, 'g')\n"
                         "f = partial(bridge_bounds, 2)\n",
               "other.py": "from .bounds import degree_bound\n"
                           "bridge_counts = 3\n"}
    assert _bound_sources_outside_bounds(sources) == [
        ("cli.py", "bridge_bounds"), ("cli.py", "from_constant")]


def test_only_bounds_chooses_a_lower_bound():
    assert _bound_sources_outside_bounds(
        {path.name: path.read_text(encoding="utf-8")
         for path in PACKAGE}) == []


def _is_tail_memo(node) -> bool:
    """Whether ``node``, subscripts peeled off, reads a tail memo: a name
    that holds "memo", or the ``memos`` attribute of an id table (the
    check table's ``memo`` in certificate.py is another cache)."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return "memo" in getattr(node, "id", "") or \
        getattr(node, "attr", "") == "memos"


def _memo_writes(source: str) -> list:
    """The functions (outermost ``def`` by name, "" at module level), in
    source order, that store an entry into a tail memo: by a subscript
    assignment, also chained or augmented, or by ``setdefault`` or
    ``update``."""
    writes = []

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = fn or node.name
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AugAssign) else []
        if any(isinstance(t, ast.Subscript) and _is_tail_memo(t.value)
               for t in targets) or (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("setdefault", "update")
                and _is_tail_memo(node.func.value)):
            writes.append(fn)
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(ast.parse(source), "")
    return writes


def test_the_scan_sees_a_memo_write():
    source = ("def a(memo, k):\n"
              "    got = memo[k] = 1\n"
              "    return got, memo[k]\n"
              "class T:\n"
              "    def b(self, c, k):\n"
              "        def inner():\n"
              "            self.memos[c][k] += 1\n"
              "        self.tails[k] = self.memo[k] = None\n"
              "        return inner\n"
              "def c(tail_memo, k):\n"
              "    return tail_memo.setdefault(k, 0), tail_memo.get(k)\n")
    assert _memo_writes(source) == ["a", "b", "c"]


def test_src_stores_a_memo_entry_in_one_step():
    # the SAW and bridge walkers share the miss-then-store step
    writes = [(path.name, fn) for path in PACKAGE
              for fn in _memo_writes(path.read_text(encoding="utf-8"))]
    assert writes == [("counting.py", "_store_tail")]


SPLIT_INTERNALS = {"_run_split", "_merge_prefixes", "_IdTable"}


def _calls(source: str, names: set) -> list:
    """(enclosing definition, name), in source order, for each call of a
    function or class in ``names``, also through ``partial``.  The
    enclosing definition is dotted from the module's top level, as
    "_Split.counts", and "" at module level."""
    found = []

    def name_of(node):
        return getattr(node, "id", getattr(node, "attr", None))

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            where = f"{where}.{node.name}" if where else node.name
        if isinstance(node, ast.Call):
            fn = node.func
            if name_of(fn) == "partial" and node.args:
                fn = node.args[0]
            if name_of(fn) in names:
                found.append((where, name_of(fn)))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "")
    return found


def _split_internals_outside(sources: dict) -> list:
    """(module, definition, name) for each call that goes round the one
    count path: of ``_run_split`` or ``_merge_prefixes`` anywhere but in
    counting.py's ``_Split.counts``, or of ``_IdTable`` outside
    counting.py."""
    return [(mod, where, name) for mod, source in sources.items()
            for where, name in _calls(source, SPLIT_INTERNALS)
            if mod != "counting.py" or (
                name != "_IdTable" and where != "_Split.counts")]


def test_the_scan_sees_a_count_outside_the_split():
    sources = {"counting.py": "class _Split:\n"
                              "    def counts(self):\n"
                              "        t = _merge_prefixes(self.levels)\n"
                              "        return _run_split(t)\n"
                              "def _series_split(g):\n"
                              "    return _IdTable(g.neighbors)\n"
                              "def _fresh(g, n):\n"
                              "    return _run_split(n, _IdTable(g))\n",
               "events.py": "from .counting import _IdTable\n"
                            "def f(t: _IdTable):\n"
                            "    return partial(_merge_prefixes, t)\n"
                            "class _Split:\n"
                            "    def counts(self, q):\n"
                            "        return counting._IdTable(q.drow)\n"}
    assert _split_internals_outside(sources) == [
        ("counting.py", "_fresh", "_run_split"),
        ("events.py", "f", "_merge_prefixes"),
        ("events.py", "_Split.counts", "_IdTable")]


def test_every_count_runs_through_a_split():
    # _Split.counts is the one path from a table to the walker
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in PACKAGE}
    assert _split_internals_outside(sources) == []
    assert sorted(_calls(sources["counting.py"],
                         {"_run_split", "_merge_prefixes"})) == \
        [("_Split.counts", "_merge_prefixes"), ("_Split.counts", "_run_split")]


def _cell_map_builds(source: str) -> list:
    """(enclosing definition, name), in source order, for each statement
    that builds or changes a (pi, t) cell map: it binds a name ``pi`` or
    ``pi`` and digits to a dict display, comprehension or ``dict(...)``
    call, also within a tuple assignment, or stores into such a name by
    subscript.  The enclosing definition is dotted as in :func:`_calls`."""
    found = []

    def is_pi(node):
        name = getattr(node, "id", "")
        return name == "pi" or name[:2] == "pi" and name[2:].isdigit()

    def is_dict(node):
        return isinstance(node, (ast.Dict, ast.DictComp)) or (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "dict")

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            where = f"{where}.{node.name}" if where else node.name
        pairs = []
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            for target in targets:
                if isinstance(target, ast.Tuple) and isinstance(
                        node.value, ast.Tuple) and len(target.elts) == len(
                            node.value.elts):
                    pairs.extend(zip(target.elts, node.value.elts))
                else:
                    pairs.append((target, node.value))
        for target, value in pairs:
            if is_pi(target) and value is not None and is_dict(value):
                found.append((where, target.id))
            elif isinstance(target, ast.Subscript) and is_pi(target.value):
                found.append((where, target.value.id))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "")
    return found


def test_the_scan_sees_a_cell_map_built():
    source = ("def _cell_maps(c0, c1):\n"
              "    pi, t = {c0: c1}, {c0: 0}\n"
              "    def extend(pi, t):\n"
              "        pi2, t2 = {**pi, 1: 2}, dict(t)\n"
              "        return pi2\n"
              "    return extend(pi, t)\n"
              "def _tail_balls(cells):\n"
              "    pi = {c: c for c in cells}\n"
              "    pi[0] += 1\n"
              "    for pi, t in _cell_maps(0, 1):\n"
              "        pi3: dict = dict(pi)\n"
              "        pick = {0: 0}\n"
              "    return pi, pick\n")
    assert _cell_map_builds(source) == [
        ("_cell_maps", "pi"), ("_cell_maps.extend", "pi2"),
        ("_tail_balls", "pi"), ("_tail_balls", "pi"),
        ("_tail_balls", "pi3")]


def test_one_function_builds_cell_maps():
    # the stabiliser and the tail memo's cell classes find their
    # automorphisms by one search
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in PACKAGE}
    builds = [(mod, where.split(".")[0]) for mod, source in sources.items()
              for where, _name in _cell_map_builds(source)]
    assert builds and set(builds) == {("counting.py", "_cell_maps")}
    assert sorted(_calls(sources["counting.py"], {"_cell_maps"})) == [
        ("_stabiliser", "_cell_maps"), ("_tail_balls", "_cell_maps")]
    assert [(mod, where) for mod, source in sources.items()
            for where, _name in _calls(source, {"_cell_maps"})
            if mod != "counting.py"] == []


def test_one_generator_gives_the_linear_parts():
    # the stabiliser and the tail memo's cell classes try the linear parts
    # of one generator
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in PACKAGE}
    assert sorted(_calls(sources["counting.py"], {"_linear_parts"})) == [
        ("_stabiliser", "_linear_parts"), ("_tail_balls", "_linear_parts")]
    assert [(mod, where) for mod, source in sources.items()
            for where, _name in _calls(source, {"_linear_parts"})
            if mod != "counting.py"] == []


LIBM_LOGS = {"log", "log1p"}


def _libm_logs(source: str) -> list:
    """(line, name), in source order, for each read of ``math.log`` or
    ``math.log1p`` and each import of either from ``math``; an
    ``Interval``'s own ``log`` and ``log1p`` are not libm reads."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in LIBM_LOGS and \
                getattr(node.value, "id", None) == "math":
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend((node.lineno, alias.name) for alias in node.names
                         if alias.name in LIBM_LOGS)
    return sorted(found)


def test_the_scan_sees_a_libm_log():
    source = ("import math\n"
              "from math import exp, log1p\n"
              "def ln_g(z, c):\n"
              "    return -z * math.log(z) + c * log1p(-z)\n"
              "f = math.log\n"
              "y = Interval.point(z).log() + z.log1p() + math.exp(z)\n")
    assert _libm_logs(source) == [(2, "log1p"), (4, "log"), (5, "log")]


def test_certificate_takes_every_log_on_intervals():
    # every log of the certificate chain is an Interval log in _Inputs,
    # so no float copy of a formula sits beside it
    source = (pathlib.Path(sawkit.__file__).parent / "certificate.py") \
        .read_text(encoding="utf-8")
    assert _libm_logs(source) == []
