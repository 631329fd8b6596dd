"""Every field of a dataclass in the package is read as an attribute
somewhere in the package, the benchmark or the demos.

A field that no code reads only repeats what its constructor's caller
already had.  Reads in the tests do not count: a test of such a field
checks an echo.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "ticketlab").glob("*.py"))
READERS = MODULES + [p for d in ("bench", "demos") for p in sorted((ROOT / d).glob("*.py"))]
# bench/ passes each phase's epochs to PruneRunConfig as these keywords;
# its __post_init__ reads them through getattr, by name
EXEMPT = {"PruneRunConfig.mask_train_epochs", "PruneRunConfig.finetune_epochs"}


def _is_dataclass(decorator):
    # @dataclass or @dataclass(...)
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(target, ast.Name) and target.id == "dataclass"


def dataclass_fields(source):
    """Class.field of each annotated field of each dataclass in `source`."""
    fields = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
            fields.extend(f"{node.name}.{stmt.target.id}" for stmt in node.body
                          if isinstance(stmt, ast.AnnAssign)
                          and isinstance(stmt.target, ast.Name))
    return fields


def attributes_read(source):
    """The names read as an attribute (`x.name`, not assigned) in `source`."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unread_fields(field_sources, reader_sources):
    """The fields of `field_sources`' dataclasses that no reader reads, sorted."""
    read = set().union(*map(attributes_read, reader_sources))
    fields = [f for source in field_sources for f in dataclass_fields(source)]
    return sorted(f for f in fields if f.split(".")[1] not in read)


def test_scan_finds_unread_fields():
    source = ("@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int = 0\n"
              "@dataclass\nclass B:\n    z: int\n"
              "class C:\n    w: int\n"
              "def f(a, z):\n    a.y = z\n    return a.x\n")
    assert unread_fields([source], [source]) == ["A.y", "B.z"]


def texts(paths):
    return [p.read_text(encoding="utf-8") for p in paths]


def test_exempt_fields_exist():
    assert EXEMPT <= {f for source in texts(MODULES) for f in dataclass_fields(source)}


def test_every_dataclass_field_is_read():
    unread = unread_fields(texts(MODULES), texts(READERS))
    assert [f for f in unread if f not in EXEMPT] == []
