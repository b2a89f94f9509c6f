"""Only ``tensors`` builds a process tensor, reads its entries or decides
phase symmetry, and inside it the code path follows the storage layout.

The other modules reach a tensor through ``tensor_diagonal``,
``success_probability`` and the one real product ``_block_product``, write bands
through ``_band_tensor`` alone and gate phase symmetry through
``require_phase_invariant``, so the choice between the band and the Kraus
layout is made in ``tensors.py`` alone. Inside ``tensors``, each layout has
one way in: band storage is built only by the writer ``_band_tensor`` and the
band algebra (``_band_product``, ``combine_heralding``, ``scale_tensor``),
and Kraus operators come from Choi eigenpairs only in ``_kraus_from_choi``.
Shift blocks are indexed only by the writer and the reader ``_choi_blocks``,
and the amplifier's former corner writer stays gone. Band storage holds the
orders q >= 0 alone: no offset of an order -q is computed, only ``_choi_blocks``
and ``require_phase_invariant`` loop over all 2D - 1 shifts, and the band CP
gate leaves the Hermiticity check ``_hermitian_eigh`` to the Kraus conversion
and the trace form. Apply multiplies by E only through ``_block_product``,
serial composition leaves its products to one helper per layout
(``_band_product`` block by block, ``_kraus_product`` operator by operator),
coherence blocks are read only by ``_coherence_blocks`` and only from band
storage, and the products and the CP gate choose their path by layout, never
by ``phase_invariance_defect``.
Transfer functions are computed in real Hermitian coordinates: ``kernels`` and
``wigner`` take no conjugate, real or imaginary part and allocate no complex
array (the public complex element ``wigner_basis`` aside), the complex
evaluators ``_basis_values`` and ``_harmonics`` stay gone, and only
``fock._band_values`` computes basis rows; ``wigner`` keeps no basis table
and no cache of one.
No function in the package allocates a D^4 array, ``tensors`` defines no
``elements`` view of one, and the dense layout's names stay gone. No
D^2 x D^2 Choi matrix is formed: the only D^2 x D^2 reshapes are the
two-mode unitaries, and a tensor is built from its own fields
``(dim, ops, weights)``, never from an array of entries. The amplifier collapses its herald sums
instead of contracting whole splitter tables: ``models`` holds no einsum of
more than four operands, splitter amplitudes come from one
``eigh`` per total-photon block, in ``elements.beam_splitter_block`` alone,
and ``models`` reads its splitters through the closed-form
``beam_splitter_columns``, never a block or a whole table.
Paths whose callers moved elsewhere stay gone: ``tensors`` caches no phase
defect, ``GridKernel`` copies every caller array with no sub-floor scan, and
``models`` decides every detector weight in ``_click_weights`` alone.
Dense kernel samples have one route in: no module calls the ``GridKernel``
constructor, whose caller arrays must be real, one helper reads the dense
cap (in ``wigner``, which streams the basis under it), and ``kernels`` scans
no imaginary part of a sample array.
The CLI renders tables by column: no cell is formatted by its own
``format_float`` call, and JSON records are not indented by ``json.dumps``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cvmaps"
INDEX_READS = (".elements[", "np.ix_", "_coherence_order")
NUMPY_PRODUCTS = {"dot", "matmul", "einsum", "tensordot", "inner", "vdot"}


def _modules():
    return [path for path in sorted(SRC.glob("*.py")) if path.name != "tensors.py"]


def _nodes_by_function(path):
    """(function, node) for every node of a module (None for module level)."""
    return _source_nodes_by_function(path.read_text(encoding="utf-8"))


def _source_nodes_by_function(source):
    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            yield func, child
            inner = child.name if isinstance(child, (ast.FunctionDef,
                                                     ast.AsyncFunctionDef)) else func
            yield from visit(child, inner)

    return visit(ast.parse(source), None)


def _functions_using(path, name):
    """The functions that use ``name`` (None for module level); imports do not count."""
    return {func for func, node in _nodes_by_function(path)
            if (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name)}


def _calls_to(path, name):
    """(function, call) for each call of ``name`` (None for module level)."""
    return [(func, node) for func, node in _nodes_by_function(path)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == name]


def _names(path):
    """Every name a module uses, defines or imports."""
    return {n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute)
            else n.name for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(n, (ast.Name, ast.Attribute, ast.FunctionDef, ast.ClassDef,
                              ast.alias))}


def test_only_tensors_indexes_tensor_entries():
    hits = [f"{path.name}:{no}: {token}"
            for path in _modules()
            for no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            for token in INDEX_READS if token in line]
    assert not hits, hits


def test_only_tensors_constructs_tensors():
    # a band tensor's layout is chosen by its producer in tensors, so no
    # other module builds a ProcessTensor or reads a tensor's elements
    calls = {path.name: [n.lineno for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                         if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                         and n.func.id == "ProcessTensor"]
             for path in _modules()}
    assert {name: lines for name, lines in calls.items() if lines} == {}
    readers = {path.name: _functions_using(path, "elements") for path in _modules()}
    assert {name: f for name, f in readers.items() if f} == {}


def test_only_tensors_writes_shift_blocks():
    for index in ("_shift_rows", "_shift_index"):
        users = {path.name: _functions_using(path, index) for path in _modules()}
        assert {name: f for name, f in users.items() if f} == {}, index


def test_band_storage_has_one_writer_and_the_band_algebra():
    builders = {func for func, _ in _calls_to(SRC / "tensors.py", "_BandTensor")}
    assert builders == {"_band_tensor", "_band_product", "combine_heralding", "scale_tensor"}
    for path in _modules():
        assert _calls_to(path, "_BandTensor") == [], path.name


def test_one_conversion_turns_choi_eigenpairs_into_operators():
    # _hermitian_eigh(c, True) or vectors=... asks for eigenvectors
    askers = {func for func, call in _calls_to(SRC / "tensors.py", "_hermitian_eigh")
              if len(call.args) > 1 or any(k.arg == "vectors" for k in call.keywords)}
    assert askers == {"_kraus_from_choi"}


def test_hermiticity_is_checked_only_for_caller_arrays_and_the_trace_form():
    # Choi blocks read from band storage are Hermitian by construction
    callers = {func for func, _ in _calls_to(SRC / "tensors.py", "_hermitian_eigh")}
    assert callers == {"_kraus_from_choi", "tni_defect"}


def _shift_loops(source):
    """The functions that call range(1 - x, x): a loop over every shift s."""
    return {func for func, node in _source_nodes_by_function(source)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "range" and len(node.args) == 2
            and ast.unparse(node.args[0]) == f"1 - {ast.unparse(node.args[1])}"}


def test_the_shift_loop_scan_finds_each_spelling():
    assert _shift_loops("""
def plain(d):
    return range(1 - d, d)

def attribute(t):
    return range(1 - t.dim.size, t.dim.size)

def fine(d):
    return range(d), range(1 - d, 3)
""") == {"plain", "attribute"}


def test_band_storage_holds_orders_q_ge_0_alone():
    source = (SRC / "tensors.py").read_text(encoding="utf-8")
    assert "q + d - 1" not in source  # the offset of a stored order -q
    assert _shift_loops(source) == {"_choi_blocks", "require_phase_invariant"}


def test_shift_blocks_are_indexed_by_the_writer_and_the_reader_alone():
    assert _functions_using(SRC / "tensors.py", "_shift_index") == {"_band_tensor",
                                                                    "_choi_blocks"}


def test_the_corner_writer_is_gone():
    for path in sorted(SRC.glob("*.py")):
        assert "_corner_tensor" not in _names(path), path.name


def test_moved_paths_stay_gone():
    # the defect is scanned per call, a caller's grid samples are always
    # copied, and one function reads the detector catalog for the models
    assert "cached_property" not in _names(SRC / "tensors.py")
    assert "_holds_sub_floor" not in _names(SRC / "kernels.py")
    for detector in ("apd_click", "photon_counter", "vacuum_projector"):
        callers = {func for func, _ in _calls_to(SRC / "models.py", detector)}
        assert callers == {"_click_weights"}, (detector, callers)


def test_dense_samples_have_one_route_and_one_cap():
    # producers hand real samples to GridKernel._of_floored, and kernels reads
    # no imaginary part: radial_form's harmonics come from real products
    for path in sorted(SRC.glob("*.py")):
        assert _calls_to(path, "GridKernel") == [], path.name
    kernels_py = SRC / "kernels.py"
    assert _functions_using(SRC / "wigner.py", "_MAX_GRID_VALUES") == {None, "_require_capped"}
    assert _functions_using(kernels_py, "_MAX_GRID_VALUES") == set()
    assert _functions_using(kernels_py, "imag") == set()


def test_tables_are_rendered_by_column():
    # each distinct float of a column is formatted once, and each JSON record
    # comes from one template instead of json's pure-Python indenting encoder
    cli_py = SRC / "cli.py"
    assert {func for func, _ in _calls_to(cli_py, "format_float")} == {"_theta_tag"}
    dumps = [(call.lineno, {k.arg for k in call.keywords})
             for func, call in _nodes_by_function(cli_py)
             if func == "render_json_table" and isinstance(call, ast.Call)
             and isinstance(call.func, ast.Attribute) and call.func.attr == "dumps"]
    assert dumps, "render_json_table writes its keys through json.dumps"
    assert [line for line, keywords in dumps if "indent" in keywords] == []


def test_paths_follow_the_layout_not_the_phase_defect():
    # the defect is a diagnostic: products and the CP gate test the layout,
    # and the block reader reads band views, never a dense tensor's entries
    tensors_py = SRC / "tensors.py"
    deciders = {"_block_product", "cp_defect", "compose_serial"}
    assert deciders <= _functions_using(tensors_py, "_BandTensor")
    assert not deciders & _functions_using(tensors_py, "phase_invariance_defect")


def test_apply_and_compose_leave_products_to_the_layout_helpers():
    # neither multiplies anything itself: apply contracts through
    # _block_product, and compose_serial picks the product of its layout
    tree = ast.parse((SRC / "tensors.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    helpers = {"apply_tensor": {"_block_product"},
               "compose_serial": {"_band_product", "_kraus_product"}}
    for name, needed in helpers.items():
        nodes = list(ast.walk(functions[name]))
        matmuls = [n.lineno for n in nodes
                   if isinstance(n, ast.BinOp) and isinstance(n.op, ast.MatMult)]
        called = {n.func.attr if isinstance(n.func, ast.Attribute) else n.func.id
                  for n in nodes if isinstance(n, ast.Call)
                  and isinstance(n.func, (ast.Attribute, ast.Name))}
        assert not matmuls, (name, matmuls)
        assert not called & NUMPY_PRODUCTS, (name, called & NUMPY_PRODUCTS)
        assert needed <= called, name


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
    for name in ("_coherence_blocks", "_block_product"):
        used = {n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(functions[name]) if isinstance(n, (ast.Name, ast.Attribute))}
        assert "ix_" not in used, name


def _complex_arithmetic(source):
    """(function, line, what) of each conjugate, real or imaginary part,
    complex literal and complex dtype in a module (None for module level)."""
    found = []
    for func, node in _source_nodes_by_function(source):
        if isinstance(node, ast.Attribute) and node.attr in ("conj", "conjugate", "real", "imag"):
            found.append((func, node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in ("conj", "conjugate", "real", "imag"):
            found.append((func, node.lineno, node.id))
        elif isinstance(node, ast.Constant) and isinstance(node.value, complex):
            found.append((func, node.lineno, "complex literal"))
        elif (isinstance(node, ast.keyword) and node.arg == "dtype"
              and "complex" in ast.dump(node.value)):
            found.append((func, node.lineno, "complex dtype"))
    return found


def test_the_complex_arithmetic_scan_finds_each_form():
    source = """
def f(a, b):
    c = np.conj(a) @ b
    d = (a @ b).real + a.conj().imag
    return np.zeros(3, dtype=complex) + 1j * np.empty(2, dtype=np.complex128)
"""
    found = {(line, what) for _, line, what in _complex_arithmetic(source)}
    assert found == {(3, "conj"), (4, "real"), (4, "conj"), (4, "imag"),
                     (5, "complex dtype"), (5, "complex literal")}


def test_kernels_and_wigner_compute_in_real_coordinates():
    # the real transfer matrix between real basis tables: no conjugate, no
    # real or imaginary part of a product and no complex allocation, except
    # in the public complex element wigner_basis
    hits = {name: [hit for hit in _complex_arithmetic((SRC / name).read_text(encoding="utf-8"))
                   if hit[0] != "wigner_basis"]
            for name in ("kernels.py", "wigner.py")}
    assert hits == {"kernels.py": [], "wigner.py": []}


def test_the_complex_evaluators_are_gone():
    for path in sorted(SRC.glob("*.py")):
        assert not _names(path) & {"_harmonics", "_basis_values"}, path.name


def test_only_band_values_computes_basis_rows():
    # the Laguerre recurrence and its coefficients live in _band_values alone;
    # the grid stream, the local tables of dense samples and radial forms,
    # the public element and the displacement read its rows
    for path in sorted(SRC.glob("*.py")):
        users = _functions_using(path, "lgamma")
        assert users == ({"_band_values"} if path.name == "fock.py" else set()), path.name
    callers = {path.name: {func for func, _ in _calls_to(path, "_band_values")}
               for path in sorted(SRC.glob("*.py"))}
    assert {name: f for name, f in callers.items() if f} == {
        "fock.py": {"displacement_matrix"},
        "wigner.py": {"_grid_bands", "_basis_rows", "wigner_basis"}}
    callers = {path.name: {func for func, _ in _calls_to(path, "_basis_rows")}
               for path in sorted(SRC.glob("*.py"))}
    assert {name: f for name, f in callers.items() if f} == {
        "kernels.py": {"radial_form", "dense"}}
    # the grid products stream the basis and never build a whole table
    for name, expected in (("_synthesize", {"kernels.py": {"_push", "_pull"},
                                            "wigner.py": {"wigner_of", "weyl_symbol"}}),
                           ("_analyze", {"kernels.py": {"_push", "_pull"}})):
        callers = {path.name: {func for func, _ in _calls_to(path, name)}
                   for path in sorted(SRC.glob("*.py"))}
        assert {path: f for path, f in callers.items() if f} == expected, name
    for path in sorted(SRC.glob("*.py")):
        assert not _names(path) & {"wigner_basis_table", "_tables", "_table_stats",
                                   "_MAX_TABLE_BYTES", "weakref"}, path.name


ALLOCATORS = {"zeros", "empty", "ones", "full", "reshape", "broadcast_to", "ndarray"}
DENSE_NAMES = {"_MAX_ELEMENTS", "choi", "ChoiMatrix", "_phase_invariance_scan"}


def _is_quartic_shape(node):
    """(x,) * 4, or a tuple of four copies of one expression."""
    if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and isinstance(node.left, ast.Tuple) and len(node.left.elts) == 1
            and isinstance(node.right, ast.Constant) and node.right.value == 4):
        return True
    return (isinstance(node, ast.Tuple) and len(node.elts) == 4
            and len({ast.dump(e) for e in node.elts}) == 1)


def _quartic_allocations(source):
    """(function, line) of each call that allocates or reshapes to a (d,) * 4
    shape, given directly or through a local name bound to one."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        shapes = {t.id for n in ast.walk(func) if isinstance(n, ast.Assign)
                  and _is_quartic_shape(n.value) for t in n.targets if isinstance(t, ast.Name)}
        for call in ast.walk(func):
            if not (isinstance(call, ast.Call)
                    and isinstance(call.func, (ast.Attribute, ast.Name))):
                continue
            called = call.func.attr if isinstance(call.func, ast.Attribute) else call.func.id
            args = list(call.args) + [k.value for k in call.keywords]
            if called in ALLOCATORS and any(
                    _is_quartic_shape(a) or (isinstance(a, ast.Name) and a.id in shapes)
                    for a in args):
                found.append((func.name, call.lineno))
    return found


def test_the_scan_finds_quartic_allocations():
    source = """
def direct(d):
    return np.zeros((d,) * 4)

def spelled(d):
    return np.empty((d, d, d, d), dtype=complex)

def named(dim):
    shape = (dim.size,) * 4
    return x.reshape(shape)

def fine(d):
    return np.zeros((d, d)), np.zeros((2, d, d, d))
"""
    assert _quartic_allocations(source) == [("direct", 3), ("spelled", 6), ("named", 10)]


def test_no_function_allocates_a_quartic_array():
    hits = {path.name: _quartic_allocations(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in hits.items() if found} == {}


def test_tensors_define_no_elements_view():
    # neither layout offers its D^4 array of entries; tests read it through
    # oracles.entries
    assert "elements" not in _names(SRC / "tensors.py")


def test_the_dense_layout_is_gone():
    for path in sorted(SRC.glob("*.py")):
        assert not _names(path) & DENSE_NAMES, (path.name, _names(path) & DENSE_NAMES)


def _einsum_operand_counts(path):
    """(function, operand count) of each einsum call in a module."""
    return [(func, len(call.args) - 1) for func, call in _nodes_by_function(path)
            if isinstance(call, ast.Call) and isinstance(call.func, (ast.Attribute, ast.Name))
            and (call.func.attr if isinstance(call.func, ast.Attribute)
                 else call.func.id) == "einsum"]


def test_the_amplifier_collapses_its_sums():
    counts = _einsum_operand_counts(SRC / "models.py")
    assert counts and all(n <= 4 for _, n in counts), counts
    assert "_UNCAPPED" not in _names(SRC / "models.py")


def test_splitter_amplitudes_have_one_eigh():
    assert _functions_using(SRC / "elements.py", "eigh") == {"beam_splitter_block"}
    assert _functions_using(SRC / "models.py", "eigh") == set()


def test_models_read_splitters_by_columns():
    # the amplifier's few columns per photon total come in closed form; no
    # total-photon block or whole splitter table is built for them
    assert not _names(SRC / "models.py") & {"beam_splitter_block", "beam_splitter_amplitudes"}


def _is_square(node):
    """d * d or d ** 2."""
    return isinstance(node, ast.BinOp) and (
        (isinstance(node.op, ast.Mult) and ast.dump(node.left) == ast.dump(node.right))
        or (isinstance(node.op, ast.Pow) and isinstance(node.right, ast.Constant)
            and node.right.value == 2))


def _call_args(call):
    """A call's positional arguments, or the elements of its one tuple argument."""
    if len(call.args) == 1 and isinstance(call.args[0], ast.Tuple):
        return call.args[0].elts
    return call.args


def _is_choi_permutation(node):
    """transpose(0, 2, 1, 3), the axes spelled out or as one tuple."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "transpose"
            and [a.value if isinstance(a, ast.Constant) else None
                 for a in _call_args(node)] == [0, 2, 1, 3])


def _choi_matrices(source):
    """(function, line) of each reshape to a D^2 x D^2 shape, two copies of
    one square given directly or through a local name, and of each reshape of
    a transpose(0, 2, 1, 3), chained or through a local name."""
    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound = [(t.id, n.value) for n in ast.walk(func) if isinstance(n, ast.Assign)
                 for t in n.targets if isinstance(t, ast.Name)]
        squares = {name: ast.dump(value) for name, value in bound if _is_square(value)}
        permuted = {name for name, value in bound if _is_choi_permutation(value)}
        for call in ast.walk(func):
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "reshape"):
                continue
            shape = _call_args(call)
            sides = {squares.get(a.id) if isinstance(a, ast.Name)
                     else ast.dump(a) if _is_square(a) else None for a in shape}
            receiver = call.func.value
            if ((len(shape) == 2 and len(sides) == 1 and None not in sides)
                    or _is_choi_permutation(receiver)
                    or (isinstance(receiver, ast.Name) and receiver.id in permuted)):
                found.add((func.name, call.lineno))
    return sorted(found, key=lambda hit: hit[1])


def _tensors_not_built_from_fields(source):
    """(function, line) of each ProcessTensor call that does not pass its
    three fields (dim, ops, weights)."""
    return [(func, call.lineno) for func, call in _source_nodes_by_function(source)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id == "ProcessTensor" and len(call.args) + len(call.keywords) != 3]


def test_the_scans_find_choi_matrices_and_tensors_built_from_arrays():
    source = """
def chained(arr, d):
    return arr.transpose(0, 2, 1, 3).reshape(d * d, d * d)

def named(arr, dim):
    side = dim.size ** 2
    return arr.reshape((side, side))

def permuted(arr, n):
    c = arr.transpose((0, 2, 1, 3))
    return c.reshape(-1, n)

def fine(x, d):
    return x.reshape(d * d, -1), x.reshape(d, d), x.transpose(0, 1, 3, 2).reshape(-1)

def from_array(dim, arr):
    return ProcessTensor(dim, arr)

def from_fields(dim, ops, weights):
    return ProcessTensor(dim, ops, weights=weights)
"""
    assert _choi_matrices(source) == [("chained", 3), ("named", 7), ("permuted", 11)]
    assert _tensors_not_built_from_fields(source) == [("from_array", 17)]


# D^2 x D^2 reshapes that are no Choi matrix: the two-mode unitaries,
# which act on states
NOT_CHOI = {("elements.py", "beam_splitter_matrix"), ("elements.py", "two_mode_squeeze_matrix")}


def test_the_package_forms_no_choi_matrix():
    hits = {path.name: [hit for hit in _choi_matrices(path.read_text(encoding="utf-8"))
                        if (path.name, hit[0]) not in NOT_CHOI]
            for path in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in hits.items() if found} == {}


def test_tensors_are_built_from_their_fields():
    hits = {path.name: _tensors_not_built_from_fields(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in hits.items() if found} == {}
    tree = ast.parse((SRC / "tensors.py").read_text(encoding="utf-8"))
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "ProcessTensor")
    assert "__init__" not in {n.name for n in cls.body if isinstance(n, ast.FunctionDef)}
