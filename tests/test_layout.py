"""The package ships only what runs: every public top-level name in src/smcflab
has a reader in src/ or perfbench/ besides its own definition.  Reference code
that only tests call lives in tests/oracles.py."""

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
                yield f"{name}:{node.lineno}", node.name


def test_every_public_name_has_a_caller_outside_the_tests():
    texts = list(_sources("src", "perfbench").values())
    unread = []
    for where, name in _public_definitions():
        word = re.compile(rf"\b{re.escape(name)}\b")
        # the definition itself is one occurrence
        if sum(len(word.findall(text)) for text in texts) <= 1:
            unread.append(f"{where} {name}")
    assert not unread, "only tests read these; move them to tests/oracles.py or delete them: " + ", ".join(unread)
