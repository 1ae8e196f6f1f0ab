"""Docstrings, comments and README.md name only what the package defines.

A rename that leaves a mention behind fails here: every `_private` name
(dotted or not) and every backticked identifier in the docstrings and
comments of src/ambiseg/*.py and in README.md must be a name, attribute
or argument of the package's code, or, for a backticked identifier, one
of its string constants (a subcommand, a split, a file magic).
"""

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "ambiseg").glob("*.py"))
MODULES = {path.stem for path in SOURCES}

# `_x` after a word character is inside a name, and after `*` is a file
# glob's (masks/*_aJ.pgm)
PRIVATE = re.compile(r"(?<![\w*])_[A-Za-z]\w*")
BACKTICKED = re.compile(r"`([^`\n]+)`")
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
FILE_NAME = re.compile(r"\w+\.(?:py|tsv|toml)")
# backticked names from outside the package: a third-party module, the
# pytest marker of the slow tests and the sample ids of a dataset manifest
FOREIGN = {"scipy.ndimage", "slow", "m000", "u000", "v000", "t000"}


def code_names(tree: ast.AST) -> set[str]:
    """Every name, attribute, argument, definition and import in `tree`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
            names.add(node.asname or node.name)
    return names


def string_constants(tree: ast.AST) -> set[str]:
    """The str and bytes constants of `tree` that are one word."""
    words = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (str, bytes)):
            value = node.value
            if isinstance(value, bytes):
                value = value.decode("latin-1")
            if re.fullmatch(r"\w+", value):
                words.add(value)
    return words


def doc_texts(path: Path, tree: ast.AST) -> list[tuple[str, str]]:
    """(where, text) of each docstring and comment of one source file."""
    texts = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                texts.append((f"{path.name} {getattr(node, 'name', 'module')}", doc))
    for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
        if tok.type == tokenize.COMMENT:
            texts.append((f"{path.name}:{tok.start[0]}", tok.string))
    return texts


def package_index():
    """Names per module, every name, every one-word string constant, and
    the (where, text) pairs to check."""
    per_module, constants, texts = {}, set(), []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        per_module[path.stem] = code_names(tree)
        constants |= string_constants(tree)
        texts += doc_texts(path, tree)
    texts.append(("README.md", (ROOT / "README.md").read_text()))
    every = set().union(*per_module.values()) | MODULES | {"ambiseg"}
    return per_module, every, constants, texts


def unknown_parts(dotted: str, per_module: dict, every: set) -> list[str]:
    """The parts of a dotted name that the package does not define; a part
    after a module's name must be defined in that module."""
    parts = dotted.split(".")
    missing = []
    for i, part in enumerate(parts):
        owner = parts[i - 1] if i else None
        known = per_module[owner] | MODULES if owner in per_module else every
        if part not in known:
            missing.append(part)
    return missing


def test_index_sees_the_package():
    per_module, every, constants, texts = package_index()
    assert MODULES >= {"cli", "model", "training"}
    assert {"_prediction_row", "forward", "caches"} <= per_module["model"]
    assert {"eval", "MSEN"} <= constants
    assert "_no_such_name" not in every
    assert any(where.startswith("training.py") for where, _ in texts)
    assert any(where.startswith("cli.py:") for where, _ in texts)  # a comment


def test_docs_name_only_what_the_package_defines():
    per_module, every, constants, texts = package_index()
    stale = []
    for where, text in texts:
        for match in re.finditer(rf"(?:\w+\.)*{PRIVATE.pattern}", text):
            for part in unknown_parts(match.group(), per_module, every):
                if part.startswith("_"):
                    stale.append(f"{where}: {match.group()}")
        for match in BACKTICKED.finditer(text):
            span = match.group(1)
            if not DOTTED.fullmatch(span) or FILE_NAME.fullmatch(span):
                continue
            if span in FOREIGN or span in constants:
                continue
            if unknown_parts(span, per_module, every):
                stale.append(f"{where}: `{span}`")
    assert stale == []
