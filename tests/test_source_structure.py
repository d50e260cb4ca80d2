"""Structure checks on the package source, read with `ast`.

Every module keeps its private names to itself: no module imports a name
with a leading underscore from another package module, or reads one off an
imported package module.  The packed-vector format has one owner: `struct`,
`int.to_bytes` and `int.from_bytes` appear in `vectors.py` alone, so every
other module packs and reads slots through its codec.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "graphflag"
SOURCES = sorted(SRC.glob("*.py"))
MODULES = {path.stem for path in SOURCES}
CODEC_OWNER = "vectors.py"
CODEC_NAMES = {"struct", "to_bytes", "from_bytes"}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _package_import(node):
    # a `from ... import` of this package: relative, or by its name
    return node.level > 0 or (node.module or "").split(".")[0] == "graphflag"


def _private_uses(tree):
    """(line, name) of each private name this module takes from another."""
    modules = set()  # local names bound to package modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _package_import(node):
            for alias in node.names:
                if _private(alias.name):
                    found.append((node.lineno, alias.name))
                elif alias.name in MODULES and node.module in (None, "graphflag"):
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("graphflag.") and alias.asname:
                    modules.add(alias.asname)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _private(node.attr)
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def _codec_uses(tree):
    """(line, name) of each use of struct, to_bytes or from_bytes."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if a.name == "struct"]
        elif isinstance(node, ast.ImportFrom) and node.module == "struct":
            found.append((node.lineno, "struct"))
        elif isinstance(node, ast.Name) and node.id in CODEC_NAMES:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in CODEC_NAMES:
            found.append((node.lineno, node.attr))
    return sorted(found)


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_the_sources_are_found():
    assert CODEC_OWNER in {path.name for path in SOURCES}
    assert {"flagvectors", "polytope", "graphs"} <= MODULES


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_takes_a_private_name_from_another(path):
    assert _private_uses(_tree(path)) == []


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != CODEC_OWNER], ids=lambda path: path.name
)
def test_only_the_codec_owner_packs_bytes(path):
    assert _codec_uses(_tree(path)) == []


def test_the_codec_owner_is_where_the_byte_calls_are():
    # the check above would pass vacuously if it never matched anything
    uses = {name for _, name in _codec_uses(_tree(SRC / CODEC_OWNER))}
    assert uses == CODEC_NAMES


def test_the_checks_catch_what_they_look_for():
    source = (
        "import struct\n"
        "from . import flagvectors\n"
        "from .flagvectors import _slots, concise_flag_vector\n"
        "import graphflag.polytope as poly\n"
        "x = flagvectors._anchor_system(3)\n"
        "y = poly._tight_points([], [])\n"
        "z = (5).to_bytes(1, 'little') + int.from_bytes(b'', 'little')\n"
    )
    tree = ast.parse(source)
    assert _private_uses(tree) == [
        (3, "_slots"),
        (5, "flagvectors._anchor_system"),
        (6, "poly._tight_points"),
    ]
    assert {name for _, name in _codec_uses(tree)} == CODEC_NAMES
