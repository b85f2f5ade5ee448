"""Source hygiene checks on src/catlin, by static analysis with ``ast``."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "catlin"
PERFBENCH = ROOT / "perfbench"
TESTS = ROOT / "tests"


def _private_definitions(tree):
    """(name, statement) for module-level private names (not dunders)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [t.id for tgt in targets for t in ast.walk(tgt)
                     if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield name, node


def _references(node):
    """Each name that ``node`` reads, imports or takes as an attribute, once
    per occurrence."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def unused_private_names(src: Path):
    """Entries "file:name" for each module-level private name that no
    statement of any module in ``src`` references, other than the one
    defining it."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    statements = [(stmt, set(_references(stmt)))
                  for tree in trees.values() for stmt in tree.body]
    unused = []
    for fname, tree in trees.items():
        for name, defn in _private_definitions(tree):
            if not any(name in refs for stmt, refs in statements
                       if stmt is not defn):
                unused.append(f"{fname}:{name}")
    return unused


def _public_definitions(tree):
    """(qualified name, node) for each module-level public function or class,
    and for each public method of a module-level class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub


def _attributes(node):
    """Each attribute name that ``node`` takes (``x.name``), once per
    occurrence."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            yield sub.attr


def unreferenced_public_names(src: Path, readers=()):
    """Entries "file:name" ("file:Class.method" for a method) for each
    public function, class or method in ``src`` that nothing outside its own
    definition references, in ``src`` or in the ``readers`` directories.
    Names match by spelling: a function or class by any reference, a method
    only by attribute access, so a function of the same name does not count
    as a reader of the method.  An import in an ``__init__.py`` re-exports a
    name and does not read it."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    readers_trees = [(path.name, ast.parse(path.read_text(encoding="utf-8")))
                     for directory in readers
                     for path in sorted(directory.glob("*.py"))]
    names, attributes = Counter(), Counter()
    for fname, tree in list(trees.items()) + readers_trees:
        for stmt in tree.body:
            if fname == "__init__.py" \
                    and isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            names.update(_references(stmt))
            attributes.update(_attributes(stmt))
    unreferenced = []
    for fname, tree in trees.items():
        for qualname, defn in _public_definitions(tree):
            refs, total = (_attributes, attributes) if "." in qualname \
                else (_references, names)
            own = sum(1 for name in refs(defn) if name == defn.name)
            if total[defn.name] == own:
                unreferenced.append(f"{fname}:{qualname}")
    return unreferenced


def _parameters(fn):
    """A function's parameter names in signature order."""
    a = fn.args
    out = a.posonlyargs + a.args + [a.vararg] + a.kwonlyargs + [a.kwarg]
    return [arg.arg for arg in out if arg is not None]


def unread_parameters(src: Path):
    """Entries "file:function(parameter)" for each parameter of a function
    or lambda in ``src`` that no node of its body reads.  Dunder methods,
    whose signatures a protocol fixes, and ``_``-prefixed parameters are
    skipped."""
    unread = []
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, ast.Lambda):
                name, body = "<lambda>", [fn.body]
            elif isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name, body = fn.name, fn.body
            else:
                continue
            if name.startswith("__") and name.endswith("__"):
                continue
            read = {sub.id for stmt in body for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Name)
                    and isinstance(sub.ctx, ast.Load)}
            unread += [f"{path.name}:{name}({arg})" for arg in _parameters(fn)
                       if not arg.startswith("_") and arg not in read]
    return unread


def _is_dataclass(decorator):
    """Whether a decorator is ``dataclass`` or ``dataclass(...)``, imported
    or taken from its module."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return getattr(decorator, "id", getattr(decorator, "attr", None)) \
        == "dataclass"


def unread_dataclass_fields(src: Path, readers=()):
    """Entries "file:Class.field" for each field of a module-level dataclass
    in ``src`` that no attribute read (``x.field``, not an assignment) in
    ``src`` or in the ``readers`` directories takes.  Fields match by
    spelling, like methods in ``unreferenced_public_names``."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    readers_trees = [ast.parse(path.read_text(encoding="utf-8"))
                     for directory in readers
                     for path in sorted(directory.glob("*.py"))]
    read = {sub.attr for tree in list(trees.values()) + readers_trees
            for sub in ast.walk(tree)
            if isinstance(sub, ast.Attribute)
            and isinstance(sub.ctx, ast.Load)}
    unread = []
    for fname, tree in trees.items():
        for node in tree.body:
            if not (isinstance(node, ast.ClassDef)
                    and any(map(_is_dataclass, node.decorator_list))):
                continue
            unread += [f"{fname}:{node.name}.{sub.target.id}"
                       for sub in node.body
                       if isinstance(sub, ast.AnnAssign)
                       and isinstance(sub.target, ast.Name)
                       and sub.target.id not in read]
    return unread


def test_no_unread_parameters():
    assert unread_parameters(SRC) == []


def test_unread_parameters_detector(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(x, y, _z, *args, key=1, **kw):\n"
        "    def inner():\n        return x\n"
        "    return inner, kw\n"
        "class C:\n"
        "    def __eq__(self, other):\n        return True\n"
        "    def method(self, v):\n        v = 1\n        return self\n"
        "g = lambda a, b: a\n")
    assert unread_parameters(tmp_path) == [
        "a.py:f(y)", "a.py:f(args)", "a.py:f(key)", "a.py:method(v)",
        "a.py:<lambda>(b)"]


def test_no_unused_private_module_names():
    assert unused_private_names(SRC) == []


def test_unused_private_names_detector(tmp_path):
    (tmp_path / "a.py").write_text(
        "_LIVE = 1\n"
        "def _dead(x):\n    return _dead(x)\n"
        "def _helper():\n    return _LIVE\n")
    (tmp_path / "b.py").write_text(
        "from .a import _helper\n"
        "def public():\n    return _helper()\n")
    assert unused_private_names(tmp_path) == ["a.py:_dead"]


def test_no_unreferenced_public_names():
    # public code with no reader in the package or the benchmark harness is
    # dead or test-only
    assert unreferenced_public_names(SRC, [PERFBENCH]) == []


def test_unreferenced_public_names_detector(tmp_path):
    src, bench = tmp_path / "src", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "a.py").write_text(
        "def used():\n    return 1\n"
        "def dead():\n    return dead()\n"
        "def timed():\n    return 2\n"
        "def twin():\n    return 3\n"
        "def exported():\n    return 4\n"
        "def hooked():\n    return 5\n"
        "class K:\n"
        "    def live(self):\n        return self.helper()\n"
        "    def helper(self):\n        return 1\n"
        "    def orphan(self):\n        return used()\n"
        "    def twin(self):\n        return 0\n"
        "    def __eq__(self, other):\n        return True\n"
        "class _Hidden:\n"
        "    def unread(self):\n        return 0\n")
    (src / "b.py").write_text(
        "from .a import K, twin\n"
        "def entry():\n    return K().live(), twin()\n"
        "print(entry)\n")
    # a re-export is no reader; a statement of __init__.py that uses the
    # name is
    (src / "__init__.py").write_text(
        "from .a import exported, hooked\n"
        "HOOK = hooked\n")
    (bench / "run.py").write_text("import a\na.timed()\n")
    assert unreferenced_public_names(src, [bench]) == [
        "a.py:dead", "a.py:exported", "a.py:K.orphan", "a.py:K.twin",
        "a.py:_Hidden.unread"]
    assert unreferenced_public_names(src) == [
        "a.py:dead", "a.py:timed", "a.py:exported", "a.py:K.orphan",
        "a.py:K.twin", "a.py:_Hidden.unread"]


def test_no_unread_dataclass_fields():
    # a field that nothing reads is dead data, however it is constructed
    assert unread_dataclass_fields(SRC, [TESTS, PERFBENCH]) == []


def test_unread_dataclass_fields_detector(tmp_path):
    src, tests = tmp_path / "src", tmp_path / "tests"
    src.mkdir()
    tests.mkdir()
    (src / "a.py").write_text(
        "import dataclasses\n"
        "from dataclasses import dataclass, field\n"
        "@dataclass\n"
        "class R:\n"
        "    kept: int\n"
        "    spare: int\n"
        "    seen: list = field(default_factory=list)\n"
        "    def total(self):\n        return self.kept\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class S:\n"
        "    stored: int\n"
        "    tested: int\n"
        "class Plain:\n"
        "    ignored: int\n"
        "def build():\n"
        "    r = R(kept=1, spare=2)\n"
        "    r.spare = 3\n"
        "    return r\n")
    (tests / "t.py").write_text("def test(s):\n    assert s.tested\n"
                                "    assert build().seen == []\n")
    assert unread_dataclass_fields(src, [tests]) == [
        "a.py:R.spare", "a.py:S.stored"]
    assert unread_dataclass_fields(src) == [
        "a.py:R.spare", "a.py:R.seen", "a.py:S.stored", "a.py:S.tested"]
