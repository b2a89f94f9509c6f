"""Only ``tensors`` reads a process tensor's entries by index.

The other modules reach a tensor through ``tensor_diagonal``,
``success_probability``, ``_coherence_blocks`` and ``_block_product``, so a
new storage layout for the same entries changes ``tensors.py`` alone. Photon
addition is the one producer that writes bands: ``models._paired_bands``
fills them through ``_shift_block``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cvmaps"
INDEX_READS = (".elements[", "np.ix_", "_coherence_order")


def _modules():
    return [path for path in sorted(SRC.glob("*.py")) if path.name != "tensors.py"]


def _functions_using(path, name):
    """The functions that use ``name`` (None for module level); imports do not count."""
    found = set()

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if ((isinstance(child, ast.Name) and child.id == name)
                    or (isinstance(child, ast.Attribute) and child.attr == name)):
                found.add(func)
            inner = child.name if isinstance(child, (ast.FunctionDef,
                                                     ast.AsyncFunctionDef)) else func
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_only_tensors_indexes_tensor_entries():
    hits = [f"{path.name}:{no}: {token}"
            for path in _modules()
            for no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            for token in INDEX_READS if token in line]
    assert not hits, hits


def test_only_paired_bands_writes_shift_blocks():
    users = {path.name: _functions_using(path, "_shift_block") for path in _modules()}
    assert {name: f for name, f in users.items() if f} == {"models.py": {"_paired_bands"}}


def test_kernels_apply_tensors_through_block_product():
    # FactoredKernel applies E through tensors._block_product, so whether a
    # map is contracted by coherence block or as one full block is decided in
    # tensors alone
    assert _functions_using(SRC / "kernels.py", "matrix") == set()
