"""Only ``tensors`` builds a process tensor, reads its entries or decides
phase symmetry, and inside it the code path follows the storage layout.

The other modules reach a tensor through ``tensor_diagonal``,
``success_probability``, ``_block_product`` and ``_harmonics``, write bands
through ``_band_tensor`` and ``_corner_tensor`` and gate phase symmetry
through ``require_phase_invariant``, so the choice between the band and the
dense layout is made in ``tensors.py`` alone. Inside ``tensors``, apply and
serial composition multiply by E only through ``_block_product`` (two band
tensors compose block by block), coherence blocks are read only by
``_coherence_blocks`` and only from band storage, and the products and the
CP gate choose their path by layout, never by ``phase_invariance_defect``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cvmaps"
INDEX_READS = (".elements[", "np.ix_", "_coherence_order")
NUMPY_PRODUCTS = {"dot", "matmul", "einsum", "tensordot", "inner", "vdot"}


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


def test_only_tensors_constructs_tensors():
    # a band tensor's layout is chosen by its producer in tensors, and a
    # band tensor's elements are built on access, so no other module builds
    # a ProcessTensor or reads a tensor's elements
    calls = {path.name: [n.lineno for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                         if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                         and n.func.id == "ProcessTensor"]
             for path in _modules()}
    assert {name: lines for name, lines in calls.items() if lines} == {}
    readers = {path.name: _functions_using(path, "elements") for path in _modules()}
    assert {name: f for name, f in readers.items() if f} == {}


def test_only_tensors_writes_shift_blocks():
    for index in ("_shift_block", "_shift_index"):
        users = {path.name: _functions_using(path, index) for path in _modules()}
        assert {name: f for name, f in users.items() if f} == {}, index


def test_paths_follow_the_layout_not_the_phase_defect():
    # the defect is a diagnostic: products and the CP gate test the layout,
    # and the block reader reads band views, never a dense tensor's entries
    tensors_py = SRC / "tensors.py"
    deciders = {"_block_product", "cp_defect", "compose_serial"}
    assert deciders <= _functions_using(tensors_py, "_BandTensor")
    assert not deciders & _functions_using(tensors_py, "phase_invariance_defect")
    assert "_coherence_blocks" not in _functions_using(tensors_py, "elements")


def test_apply_and_compose_contract_through_block_product():
    # neither multiplies by E's matrix itself: the coherence-block decision
    # is made in _block_product alone
    tree = ast.parse((SRC / "tensors.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("apply_tensor", "compose_serial"):
        nodes = list(ast.walk(functions[name]))
        matmuls = [n.lineno for n in nodes
                   if isinstance(n, ast.BinOp) and isinstance(n.op, ast.MatMult)]
        called = {n.func.attr if isinstance(n.func, ast.Attribute) else n.func.id
                  for n in nodes if isinstance(n, ast.Call)
                  and isinstance(n.func, (ast.Attribute, ast.Name))}
        assert not matmuls, (name, matmuls)
        assert not called & NUMPY_PRODUCTS, (name, called & NUMPY_PRODUCTS)
        assert "_block_product" in called, name


def test_kernels_apply_tensors_through_block_product():
    # FactoredKernel applies E through tensors._block_product, so whether a
    # map is contracted by coherence block or as one full block is decided in
    # tensors alone
    assert _functions_using(SRC / "kernels.py", "matrix") == set()


def test_only_tensors_reads_coherence_blocks():
    users = {path.name: _functions_using(path, "_coherence_blocks") for path in _modules()}
    assert {name: f for name, f in users.items() if f} == {}


def test_kernels_and_cli_leave_the_phase_decision_to_tensors():
    # radial_form and the kernel command gate through require_phase_invariant;
    # neither reads the defect itself
    for name in ("kernels.py", "cli.py"):
        assert _functions_using(SRC / name, "phase_invariance_defect") == set(), name


def test_block_reader_builds_no_mask():
    tree = ast.parse((SRC / "tensors.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("_coherence_blocks", "_block_product", "_harmonics"):
        used = {n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(functions[name]) if isinstance(n, (ast.Name, ast.Attribute))}
        assert "ix_" not in used, name
