"""DESIGN.md's module map lists every module under ``src/repro`` once."""

import os

ROOT = os.path.join(os.path.dirname(__file__), "..")
PACKAGE = os.path.join(ROOT, "src", "repro")


def _mapped_files():
    """Relative paths named by the map's code block, in map order.

    A package line (``core/``) stands for its ``__init__.py`` and the
    root line for ``repro/__init__.py``; file lines nest under the last
    package line unless they sit at package indentation.
    """
    with open(os.path.join(ROOT, "DESIGN.md")) as fh:
        text = fh.read()
    section = text[text.index("## 3. System inventory"):]
    block = section.split("```")[1]
    files = []
    package = ""
    for line in block.splitlines():
        if not line.strip():
            continue
        indent = len(line) - len(line.lstrip())
        name = line.split()[0]
        if indent == 0:
            assert name == "src/repro/", line
            files.append("__init__.py")
        elif name.endswith("/"):
            package = name
            files.append(package + "__init__.py")
        elif indent == 2:
            files.append(name)
        else:
            files.append(package + name)
    return files


def _source_files():
    found = set()
    for directory, _, names in os.walk(PACKAGE):
        for name in names:
            if name.endswith(".py"):
                path = os.path.relpath(os.path.join(directory, name), PACKAGE)
                found.add(path.replace(os.sep, "/"))
    return found


def test_module_map_lists_every_module_once():
    mapped = _mapped_files()
    duplicates = sorted({name for name in mapped if mapped.count(name) > 1})
    assert not duplicates, f"listed twice: {duplicates}"
    source = _source_files()
    assert sorted(source - set(mapped)) == [], "modules missing from the map"
    assert sorted(set(mapped) - source) == [], "map entries with no module"
