"""The oracles in `tests/oracles.py` stand apart from the kernels they check:
an oracle that called a fast kernel would agree with it by construction."""

import ast
from pathlib import Path

import d2t_selftrain
import oracles

# The fast kernels and the shared analysis they read.
_KERNELS = {
    "_advance",
    "_lane_distances",
    "_lcs_len",
    "_ter_edits",
    "_match_masks",
    "_Text",
    "_analysed",
    "_max_ref_counts",
    "delinearize",
    "_record_from_segment",
    "infer_record_set",
    "osf",
    "tokenize",
    "source_values",
    "folded_values",
    "record_keys",
    "find_bounded",
}


def _kernel_references(source: str) -> list[tuple[int, str]]:
    """Each kernel name that `source` imports or reads as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [part for alias in node.names for part in alias.name.split(".")]
            if isinstance(node, ast.ImportFrom) and node.module:
                names += node.module.split(".")
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found += [(node.lineno, name) for name in names if name in _KERNELS]
    return sorted(found)


def test_oracles_import_no_kernel_they_check():
    source = Path(oracles.__file__).read_text(encoding="utf-8")
    assert _kernel_references(source) == []


def test_every_kernel_is_defined_in_the_package():
    # a kernel deleted or renamed must leave the set too, or the set guards
    # the oracles against a name no longer there
    defined = set()
    for path in Path(d2t_selftrain.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
    assert _KERNELS <= defined, sorted(_KERNELS - defined)


def test_kernel_references_are_found():
    source = (
        "from d2t_selftrain.metrics import _ter_edits as fast\n"
        "from d2t_selftrain import gateway\n"
        "gateway.infer_record_set('')\n"
        "import d2t_selftrain.metrics._advance\n"
    )
    assert _kernel_references(source) == [
        (1, "_ter_edits"),
        (3, "infer_record_set"),
        (4, "_advance"),
    ]
