"""The package ships only what runs: every public top-level name in src/smcflab,
and every public method of its classes, has a reader in src/ or perfbench/
besides its own definition.  Reference code that only tests call lives in
tests/oracles.py."""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "smcflab")


def _sources(*dirs):
    out = {}
    for top in dirs:
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            for name in files:
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    with open(path, encoding="utf-8") as fh:
                        out[path] = fh.read()
    return out


def _public_definitions():
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield f"{name}:{node.lineno} {node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield f"{name}:{member.lineno} {node.name}.{member.name}", member.name


def test_every_public_name_has_a_caller_outside_the_tests():
    texts = list(_sources("src", "perfbench").values())
    unread = []
    for where, name in _public_definitions():
        word = re.compile(rf"\b{re.escape(name)}\b")
        # the definition itself is one occurrence
        if sum(len(word.findall(text)) for text in texts) <= 1:
            unread.append(where)
    assert not unread, "only tests read these; move them to tests/oracles.py or delete them: " + ", ".join(unread)


# numpy.fft's transforms (not fftfreq or fftshift)
_TRANSFORM = re.compile(r"^i?[rh]?fft(2|n)?$")
# the dense-DFT matrices of a small grid and the products that apply them
_DENSE_DFT = {"_dft", "_along_last", "_along_leading"}
# where each kind of guarded use may sit: every transform inside Grid.fft or
# Grid.ifft, and every read of a tiny grid's operator matrices, the tables
# keyed ("operator", name), inside the one method that applies them
_SITES = {"transform": {"Grid.fft", "Grid.ifft"}, "operator": {"Grid._operator"}}
# where each np.ascontiguousarray may sit, by module: in grid.py, whose operators
# return C order on every path, the Grid methods and write_field; in
# geometry.py, pointwise_inverse, whose d = 3 np.linalg.inv output is a moveaxis
# view.  A copy anywhere else reorders what an operator already returned.
_LAYOUT_SITES = {"grid.py": ("Grid", "write_field"), "geometry.py": ("pointwise_inverse",)}


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _guarded_uses(tree):
    """(kind, scope, line, what) of every numpy.fft transform and dense-DFT member
    the module reads ("transform"), of every ("operator", ...) table key it
    builds ("operator") and of every np.ascontiguousarray it reads ("layout"),
    scope being the dotted name of the enclosing class or function."""

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            for alias in node.names:
                if node.module == "numpy.fft" or alias.name == "fft":
                    yield "transform", scope, node.lineno, f"from {node.module} import {alias.name}"
                if alias.name == "ascontiguousarray":
                    yield "layout", scope, node.lineno, f"from {node.module} import {alias.name}"
        if isinstance(node, ast.Attribute):
            name = _dotted(node)
            if name.split(".")[0] in ("np", "numpy") and ".fft." in name and _TRANSFORM.match(node.attr):
                yield "transform", scope, node.lineno, name
            if node.attr in _DENSE_DFT:
                yield "transform", scope, node.lineno, name
            if name in ("np.ascontiguousarray", "numpy.ascontiguousarray"):
                yield "layout", scope, node.lineno, name
        if isinstance(node, ast.Tuple) and node.elts:
            first = node.elts[0]
            if isinstance(first, ast.Constant) and first.value == "operator":
                yield "operator", scope, node.lineno, ast.unparse(node)
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)

    yield from visit(tree, "")


def test_transforms_run_only_inside_grid_fft_and_ifft():
    # one point of instrumentation: every transform, numpy.fft or dense DFT,
    # passes through Grid.fft or Grid.ifft, where the transform counters sit;
    # a tiny grid's operator matrices, which replace a transform pair, are
    # applied only in Grid._operator
    stray = []
    for path, text in _sources("src").items():
        for kind, scope, line, what in _guarded_uses(ast.parse(text)):
            if kind in _SITES and scope not in _SITES[kind]:
                stray.append(f"{os.path.relpath(path, ROOT)}:{line} {scope or '<module>'} {what}")
    assert not stray, "transforms or operator matrices outside their one site: " + ", ".join(stray)


def test_the_transform_guard_sees_a_stray_call():
    tree = ast.parse(
        "import numpy as np\n"
        "def spectrum(x):\n"
        "    return np.fft.rfftn(x)\n"
        "class Grid:\n"
        "    def fft(self, x):\n"
        "        return np.fft.fftn(x) + np.fft.fftfreq(4)\n"
        "    def apply(self, x):\n"
        "        return self._along_last(x, self._dft[0])\n"
        "    def _operator(self, name, x):\n"
        "        return self.table(('operator', name), None) @ x\n"
        "    def grad(self, x):\n"
        "        return self.table(('operator', 'grad'), None) @ x\n"
    )
    assert [(kind, scope, what) for kind, scope, _, what in _guarded_uses(tree)] == [
        ("transform", "spectrum", "np.fft.rfftn"),
        ("transform", "Grid.fft", "np.fft.fftn"),
        ("transform", "Grid.apply", "self._along_last"),
        ("transform", "Grid.apply", "self._dft"),
        ("operator", "Grid._operator", "('operator', name)"),
        ("operator", "Grid.grad", "('operator', 'grad')"),
    ]


def _stray_layout_copies(module, tree):
    sites = _LAYOUT_SITES.get(module, ())
    return [
        (scope, what)
        for kind, scope, _, what in _guarded_uses(tree)
        if kind == "layout" and not any(scope == site or scope.startswith(site + ".") for site in sites)
    ]


def test_c_order_is_forced_only_where_it_is_decided():
    # every named operator and Grid.apply return C order, so a caller that
    # copies their output into C order copies for nothing
    stray = []
    for path, text in _sources("src").items():
        for scope, what in _stray_layout_copies(os.path.basename(path), ast.parse(text)):
            stray.append(f"{os.path.relpath(path, ROOT)} {scope or '<module>'} {what}")
    assert not stray, "np.ascontiguousarray outside grid.py and pointwise_inverse: " + ", ".join(stray)


def test_the_layout_guard_sees_a_stray_copy():
    source = (
        "import numpy as np\n"
        "from numpy import ascontiguousarray\n"
        "class Grid:\n"
        "    def apply(self, x):\n"
        "        return np.ascontiguousarray(x)\n"
        "def write_field(x):\n"
        "    return np.ascontiguousarray(x)\n"
        "def pointwise_inverse(x):\n"
        "    return numpy.ascontiguousarray(x)\n"
        "class SecondForm:\n"
        "    def w(self):\n"
        "        return np.ascontiguousarray(self.x)\n"
    )
    tree = ast.parse(source)
    assert _stray_layout_copies("grid.py", tree) == [
        ("", "from numpy import ascontiguousarray"),
        ("pointwise_inverse", "numpy.ascontiguousarray"),
        ("SecondForm.w", "np.ascontiguousarray"),
    ]
    assert _stray_layout_copies("geometry.py", tree) == [
        ("", "from numpy import ascontiguousarray"),
        ("Grid.apply", "np.ascontiguousarray"),
        ("write_field", "np.ascontiguousarray"),
        ("SecondForm.w", "np.ascontiguousarray"),
    ]
