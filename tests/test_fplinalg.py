import ast
import itertools
from pathlib import Path

import numpy as np
import pytest
import reference
from dense import dense, equal, matrix, vector
from hypothesis import given, settings
from hypothesis import strategies as st

import cechkit
from cechkit import fplinalg
from cechkit.cli import main
from cechkit.documents import canonical_json
from cechkit.fplinalg import (
    F2,
    MAX_PRIME,
    DimensionMismatch,
    FMatrix,
    ModulusTooLarge,
    NotPrime,
    PrimeField,
    block_matrix,
    echelon,
    entry_matrix,
    rref,
)
from cechkit.gallery import gallery_document


def brute_force_image_size(a: np.ndarray, p: int) -> int:
    """Count distinct images of A over all input vectors; equals p^rank."""
    seen = set()
    for vec in itertools.product(range(p), repeat=a.shape[1]):
        seen.add(tuple((a @ np.array(vec)) % p))
    return len(seen)


def test_prime_validation():
    PrimeField(2)
    PrimeField(13)
    for bad in (0, 1, 4, 9, 15):
        with pytest.raises(NotPrime):
            PrimeField(bad)


def test_prime_bound_keeps_int64_arithmetic_exact():
    p = MAX_PRIME
    field = PrimeField(p)
    row = FMatrix([[p - 1] * 3], field)
    assert (row @ FMatrix([[p - 1]] * 3, field)).tolist() == [[3]]
    for big in (p + 1, 65537, 2 ** 31 - 1, 2305843009213693951):
        with pytest.raises(ModulusTooLarge, match="exceeds 65521"):
            PrimeField(big)


def test_rank_nullity_trivial():
    assert FMatrix.zeros(3, 3, F2).rank_nullity() == (0, 3)
    assert FMatrix.identity(4, F2).rank_nullity() == (4, 0)


def test_rank_against_brute_force_image():
    # coboundary of the 4-cycle, transposed orientation irrelevant for rank
    a = np.array([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]])
    m = FMatrix(a, F2)
    assert 2 ** m.rank() == brute_force_image_size(a, 2)
    assert m.rank() == 3


def test_rank_equals_transpose_rank():
    rng = np.random.default_rng(7)
    for p in (2, 3, 5):
        field = PrimeField(p)
        for _ in range(20):
            a = rng.integers(0, p, size=(4, 6))
            m = FMatrix(a, field)
            assert m.rank() == m.T.rank()


def test_kernel_basis():
    assert FMatrix.identity(3, F2).kernel_basis().cols == 0
    z = FMatrix.zeros(2, 5, F2).kernel_basis()
    assert z.cols == 5
    a = FMatrix(np.array([[1, 1, 0], [0, 1, 1]]), F2)
    k = a.kernel_basis()
    assert k.cols == 1
    assert not dense(a @ k).any()


def test_kernel_vectors_annihilated_everywhere():
    rng = np.random.default_rng(3)
    for p in (2, 5):
        field = PrimeField(p)
        a = FMatrix(rng.integers(0, p, size=(3, 5)), field)
        k = a.kernel_basis()
        assert a.rank_nullity()[1] == k.cols
        assert not dense(a @ k).any()


def test_solve_identity_and_unsolvable():
    b = vector([1, 0, 1], F2)
    assert FMatrix.identity(3, F2).solve(b).equals(b)
    assert FMatrix.zeros(3, 3, F2).solve(vector([1, 0, 0], F2)) is None
    assert FMatrix.zeros(2, 2, F2).solve(vector([0, 0], F2)) is not None


def test_solve_cross_checked_by_rank():
    rng = np.random.default_rng(11)
    for p in (2, 3):
        field = PrimeField(p)
        for _ in range(30):
            a = FMatrix(rng.integers(0, p, size=(4, 4)), field)
            b = rng.integers(0, p, size=4)
            x = a.solve(vector(b, field))
            aug = FMatrix(np.column_stack([dense(a), b]), field)
            consistent = aug.rank() == a.rank()
            assert (x is not None) == consistent
            if x is not None:
                assert np.array_equal((dense(a) @ dense(x)[:, 0]) % p, b % p)


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        FMatrix.identity(3, F2).solve(vector([1, 0], F2))


def diagonal(blocks, field):
    """block_matrix with block i, an array wrapped in an FMatrix, at (i, i)."""
    return block_matrix({i: b.shape[0] for i, b in enumerate(blocks)}, {i: b.shape[1] for i, b in enumerate(blocks)},
                        [(i, i, matrix(b, field)) for i, b in enumerate(blocks)], field)


def test_block_diagonal_places_blocks_in_order_including_empty_ones():
    blocks = [np.array([[1, 2]]), np.zeros((0, 3), dtype=np.int64), np.array([[4], [5]]),
              np.zeros((2, 0), dtype=np.int64)]
    m = diagonal(blocks, PrimeField(3))
    assert m.tolist() == [[1, 2, 0, 0, 0, 0],
                          [0, 0, 0, 0, 0, 1],
                          [0, 0, 0, 0, 0, 2],
                          [0, 0, 0, 0, 0, 0],
                          [0, 0, 0, 0, 0, 0]]
    assert dense(diagonal([], F2)).shape == (0, 0)


@pytest.mark.parametrize("p", (2, 5))
def test_block_matrix_refuses_blocks_that_share_a_position(p):
    field = PrimeField(p)
    blocks = [("r", "a", FMatrix(np.array([[1, 2]]), field)), ("r", "b", FMatrix(np.array([[3]]), field)),
              ("r", "a", FMatrix(np.array([[4, -2]]), field))]
    with pytest.raises(DimensionMismatch, match="'r', 'a' is placed twice"):
        block_matrix({"r": 1}, {"a": 2, "b": 1}, blocks, field)
    # a repeated key is refused even where the blocks would cancel
    eye = FMatrix.identity(2, field)
    with pytest.raises(DimensionMismatch):
        block_matrix({0: 2}, {0: 2}, [(0, 0, eye), (0, 0, -eye)], field)
    # the same block at two positions is placed at each
    assert block_matrix({0: 2}, {0: 2, 1: 2}, [(0, 0, eye), (0, 1, eye)], field).tolist() == [[1, 0, 1, 0],
                                                                                             [0, 1, 0, 1]]


def test_block_matrix_lays_out_keys_in_the_order_of_the_maps_not_of_the_blocks():
    f3 = PrimeField(3)
    blocks = [("y", "q", FMatrix(np.array([[1]]), f3)), ("x", "p", FMatrix(np.array([[2, 2]]), f3))]
    m = block_matrix({"x": 1, "y": 1}, {"p": 2, "q": 1}, blocks, f3)
    assert m.tolist() == [[2, 2, 0], [0, 0, 1]]
    swapped = block_matrix({"y": 1, "x": 1}, {"q": 1, "p": 2}, blocks, f3)
    assert swapped.tolist() == [[1, 0, 0], [0, 2, 2]]
    # keys of size 0 take no rows or columns, and a map may have no blocks at all
    assert block_matrix({"x": 0, "y": 2}, {"p": 3}, [], F2).tolist() == [[0, 0, 0], [0, 0, 0]]


def test_block_matrix_refuses_a_block_of_the_wrong_shape():
    # (1 x 2) where (2 x 1) belongs: numpy would broadcast a (1 x 1) block silently
    with pytest.raises(DimensionMismatch):
        block_matrix({0: 2}, {0: 1}, [(0, 0, FMatrix(np.array([[1, 1]]), F2))], F2)
    with pytest.raises(DimensionMismatch):
        block_matrix({0: 2}, {0: 2}, [(0, 0, FMatrix(np.array([[1]]), F2))], F2)
    # a block over another field would bring entries outside [0, p) unreduced
    with pytest.raises(DimensionMismatch):
        block_matrix({0: 1}, {0: 1}, [(0, 0, FMatrix(np.array([[4]]), PrimeField(5)))], PrimeField(3))


def test_views_pivots_negation_and_a_matrix_right_hand_side():
    f3 = PrimeField(3)
    a = FMatrix(np.array([[1, 2, 0], [2, 1, 1]]), f3)
    assert a[1:].tolist() == [[2, 1, 1]] and a[:, [2, 0]].tolist() == [[0, 1], [1, 2]]
    for not_a_matrix in (0, (0, 1), ([[0]], slice(None)), (slice(None), [[0, 1]])):
        with pytest.raises(ValueError):
            a[not_a_matrix]
    # column 1 is twice column 0
    assert a.pivots() == [0, 2]
    b = FMatrix(np.array([[1], [0]]), f3)
    x = a.solve(b)
    assert isinstance(x, FMatrix) and x.column(0) == [1, 0, 1] and (a @ x).equals(b)
    assert (-a).tolist() == [[2, 1, 0], [1, 2, 2]]
    over_f2 = FMatrix(np.array([[1, 0]]), F2)
    assert -over_f2 is over_f2
    assert (a @ FMatrix(np.eye(3, dtype=np.int64), f3)).tolist() == a.tolist() == [[1, 2, 0], [2, 1, 1]]


def test_the_constructor_reads_integers_only_and_reduces_them_at_any_size():
    f3 = PrimeField(3)
    # a float is not read as an integer, however close to one
    for bad in ([[1.7, 2.2]], [[1, 2.0]], [[1, "2"]], [[1, None]], [[[1], [2]]]):
        with pytest.raises((TypeError, ValueError)):
            FMatrix(bad, f3)
    # an int beyond int64 is reduced mod p, as entry_matrix reduces it
    assert FMatrix([[2 ** 70, 1]], f3).tolist() == [[1, 1]] and FMatrix([[2 ** 70 + 1, -1]], F2).tolist() == [[1, 1]]
    assert FMatrix(np.array([[4, -1]]), f3).tolist() == [[1, 2]] and FMatrix([(4, 3)], f3).tolist() == [[1, 0]]
    for bad in ([], [1, 2], [[1, 2], [3]], 5):
        with pytest.raises(ValueError):
            FMatrix(bad, f3)


def test_entry_matrix_places_entries_and_reduces_them():
    m = entry_matrix((2, 3), [(0, 2, -1), (1, 0, 4), (1, 1, 1)], PrimeField(3))
    assert m.tolist() == [[0, 0, 2], [1, 1, 0]]
    assert entry_matrix((2, 2), iter([(0, 1, 1), (1, 0, -1)]), F2).tolist() == [[0, 1], [1, 0]]
    # a value that is 0 mod p is not stored: over odd p no key, over F_2 no bit
    zeros = {p: entry_matrix((2, 2), [(0, 0, p), (1, 1, 2 * p), (1, 0, 1)], PrimeField(p)) for p in (2, 5)}
    assert all(z.tolist() == [[0, 0], [1, 0]] for z in zeros.values())
    assert zeros[5]._rows == [{}, {0: 1}] and zeros[2]._rows == [0, 0b10]
    assert entry_matrix((1, 1), [(0, 0, -1)], PrimeField(65521)).tolist() == [[65520]]


def test_entry_matrix_with_no_entries_is_zero_of_its_shape():
    for p in (2, 5):
        for shape in ((0, 0), (0, 4), (3, 0), (2, 5)):
            m = entry_matrix(shape, (), PrimeField(p))
            assert dense(m).shape == shape and m.is_zero()


def test_inverse():
    field = PrimeField(5)
    a = FMatrix(np.array([[1, 2], [3, 4]]), field)
    inv = a.inverse()
    assert (a @ inv).equals(FMatrix.identity(2, field))
    with pytest.raises(ZeroDivisionError):
        FMatrix(np.array([[1, 1], [1, 1]]), F2).inverse()


def test_pivot_columns_deterministic():
    a = FMatrix(np.array([[1, 1, 0], [1, 1, 1]]), F2)
    cb = a[:, a.pivots()]
    assert cb.cols == 2
    assert cb.column(0) == [1, 1]


@st.composite
def matrices(draw) -> FMatrix:
    p = draw(st.sampled_from((2, 3, 5)))
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 8))
    values = draw(st.lists(st.integers(0, p - 1), min_size=rows * cols, max_size=rows * cols))
    return matrix(np.array(values, dtype=np.int64).reshape(rows, cols), PrimeField(p))


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_pivot_columns_match_greedy_loop(m):
    # the pivot columns are the columns that raise the rank of the ones before them
    a = dense(m)
    want = [j for j in range(m.cols) if reference.rank(a[:, :j + 1], m.field.p) > reference.rank(a[:, :j], m.field.p)]
    assert m.pivots() == want and equal(m[:, m.pivots()], a[:, want])


def test_pivot_columns_run_one_elimination(count_eliminations):
    calls = count_eliminations()
    m = FMatrix(np.arange(42).reshape(6, 7), PrimeField(5))
    basis = m[:, m.pivots()]
    assert calls == [(6, 7)]
    # the rank and a second read of the pivots use the echelon the first one kept
    assert m.rank() == basis.cols and m[:, m.pivots()].equals(basis)
    assert calls == [(6, 7)]


def kernel_references(tree: ast.AST, kernels: set[str]) -> set[str]:
    """The innermost function around each name or attribute naming a kernel."""
    found: set[str] = set()

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name in kernels:
                return
            scope = node.name
        if isinstance(node, ast.Name) and node.id in kernels or \
                isinstance(node, ast.Attribute) and node.attr in kernels:
            found.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return found


def test_only_the_counted_entry_points_reach_the_elimination_kernels():
    # count_eliminations counts calls of the ELIMINATIONS entry points; a
    # function reaching a kernel around them would make counting tests pass
    # without counting its work.
    from conftest import ELIMINATIONS
    kernels = {"_f2_echelon", "_odd_echelon"}
    callers = {(path.stem, scope)
               for path in sorted(Path(cechkit.__file__).parent.glob("*.py"))
               for scope in kernel_references(ast.parse(path.read_text(encoding="utf-8")), kernels)}
    assert callers == {("fplinalg", name) for name in ELIMINATIONS}


ARRAY_JOINS = {"hstack", "vstack", "column_stack", "concatenate"}


def storage_reads(tree: ast.AST) -> set[tuple[str, str]]:
    """The innermost function around each `.entries` read, numpy array join,
    and import from fplinalg of `product`, `echelon` or a row codec (`_f2_*`,
    `_odd_*`), with what it is."""
    found: set[tuple[str, str]] = set()

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Attribute) and node.attr == "entries":
            found.add((scope, ".entries"))
        if isinstance(node, ast.Attribute) and node.attr in ARRAY_JOINS and \
                isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
            found.add((scope, f"np.{node.attr}"))
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("fplinalg"):
            found.update((scope, f"import {a.name}") for a in node.names
                         if a.name in ("product", "echelon") or a.name.startswith(("_f2_", "_odd_")))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return found


def test_no_module_but_fplinalg_reads_matrix_storage():
    # FMatrix owns the storage, so changing it changes fplinalg alone.
    assert storage_reads(ast.parse("from .fplinalg import echelon\ndef f(m):\n    return np.vstack([m.entries])")) == {
        ("<module>", "import echelon"), ("f", ".entries"), ("f", "np.vstack")}
    assert storage_reads(ast.parse("from .fplinalg import FMatrix, _f2_rows, _odd_rows, _ranges")) == {
        ("<module>", "import _f2_rows"), ("<module>", "import _odd_rows")}
    found = {(path.stem, scope, what)
             for path in sorted(Path(cechkit.__file__).parent.glob("*.py")) if path.stem != "fplinalg"
             for scope, what in storage_reads(ast.parse(path.read_text(encoding="utf-8")))}
    assert found == set()


def numpy_uses(tree: ast.AST) -> set[tuple[str, str]]:
    """The innermost function around each use of numpy: an import of it, also
    under `if TYPE_CHECKING:`, or a name `np`/`numpy`, also in an annotation."""
    found: set[tuple[str, str]] = set()

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "numpy" for a in node.names) or \
                isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            found.add((scope, "import numpy"))
        if isinstance(node, ast.Name) and node.id in ("np", "numpy"):
            found.add((scope, node.id))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return found


def test_cochain_maps_are_built_without_numpy():
    # FMatrix takes and gives FMatrix values and plain ints, so no module,
    # fplinalg included, names numpy, not even for type checking.
    assert numpy_uses(ast.parse(
        "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    import numpy as np\n"
        "def f(v: np.ndarray) -> np.ndarray:\n    return g(v)\n")) == {("<module>", "import numpy"), ("f", "np")}
    assert numpy_uses(ast.parse("from numpy import ndarray\ndef f(v):\n    return numpy.asarray(v)")) == {
        ("<module>", "import numpy"), ("f", "numpy")}
    modules = {path.stem: path for path in sorted(Path(cechkit.__file__).parent.glob("*.py"))}
    assert {"fplinalg", "bundles", "cochains", "mv", "cli"} <= set(modules)
    assert {m: numpy_uses(ast.parse(path.read_text(encoding="utf-8"))) for m, path in modules.items()} == \
        dict.fromkeys(modules, set())


@pytest.mark.parametrize("p", (2, 3))
def test_every_command_eliminates_reduced_entries(p, monkeypatch, tmp_path):
    # echelon reads an FMatrix's rows as stored: a matrix is reduced once,
    # when it is built, so every stored row must already be reduced, an F_2
    # row an int of at most ncols bits and every odd-p value in [1, p).
    from conftest import ELIMINATIONS, GALLERY_CASES, patch_bindings
    seen, unreduced = [], []
    for name in ELIMINATIONS:
        real = getattr(fplinalg, name)

        def checked(a, real=real):
            seen.append(a.shape)
            q = a.field.p if isinstance(a, FMatrix) else None
            if q is None:
                unreduced.append((a.shape, type(a)))
            elif q == 2 and any(not 0 <= x < 1 << a.cols for x in a._rows) or \
                    q != 2 and any(not 1 <= v < q or not 0 <= c < a.cols for x in a._rows for c, v in x.items()):
                unreduced.append((a.shape, q))
            return real(a)

        patch_bindings(monkeypatch, fplinalg, name, checked)
    for gallery, kwargs in GALLERY_CASES + [("random_admissible", {"seed": 3})]:
        doc = gallery_document(gallery, field=p, **kwargs)
        path = tmp_path / f"{gallery}.json"
        path.write_text(canonical_json(doc), encoding="utf-8")
        for command in ("cohomology", "mv", "fibred", "count", "bundles", "refine-check"):
            # count and bundles need F_2; refine-check needs a refinement block
            refused = (command in ("count", "bundles") and p != 2
                       or command == "refine-check" and "refinement" not in doc)
            assert main([command, str(path)]) == (2 if refused else 0), (gallery, command)
    assert seen and unreduced == []


def test_determinism_repeated_runs():
    a = np.arange(30).reshape(5, 6)
    m = FMatrix(a, PrimeField(7))
    first = (m.rank_nullity(), m.kernel_basis().tolist())
    for _ in range(3):
        again = FMatrix(a, PrimeField(7))
        assert (again.rank_nullity(), again.kernel_basis().tolist()) == first


def test_entries_are_read_only_and_rank_runs_one_elimination(count_eliminations, count_backsubstitutions):
    source = np.arange(42).reshape(6, 7)
    m = FMatrix(source, PrimeField(5))
    source[0, 0] = 4
    assert m.tolist()[0][0] == 0
    # each read is a new list, so writing to one changes nothing
    m.tolist()[0][0] = 1
    assert m.tolist()[0][0] == 0 and m.column(0)[0] == 0
    calls, backsubs = count_eliminations(), count_backsubstitutions()
    assert m.rank() == m.rank() == m.rank_nullity()[0]
    assert calls == [(6, 7)] and backsubs == []
    # a kernel read after the rank back-substitutes the same echelon
    kernel = m.kernel_basis()
    assert kernel.cols == m.rank_nullity()[1] and (m @ kernel).is_zero()
    assert calls == [(6, 7)] and backsubs == [(6, 7)]


def assert_kernel_matches_dense(a: np.ndarray, p: int, rng: np.random.Generator) -> None:
    field = PrimeField(p)
    rows, cols = a.shape
    want, want_pivots = reference.rref(a, p)
    m = matrix(a, field)
    got, got_pivots = rref(m)
    got = dense(got)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want) and got_pivots == want_pivots
    assert echelon(m).pivots == want_pivots

    assert m.rank() == len(want_pivots)
    kernel = dense(m.kernel_basis())
    assert kernel.dtype == np.int64 and np.array_equal(kernel, reference.kernel(a, p))
    assert np.array_equal(dense(m[:, m.pivots()]), (a % p)[:, want_pivots])
    # a selection picks columns in any order, repeats included
    js = [int(j) for j in rng.integers(0, cols, size=rng.integers(0, 2 * cols + 1))] if cols else []
    assert np.array_equal(dense(m[:, js]), (a % p)[:, js])
    # a remainder is 0 in every pivot column and differs from its row by a row of m's row space
    batch = rng.integers(-p, 2 * p, size=(3, cols))
    left = batch % p
    for k, c in enumerate(want_pivots):
        left = (left - np.outer(left[:, c], want[k])) % p
    assert np.array_equal(dense(m.remainder(matrix(batch, field))), left)

    consistent = (a @ rng.integers(0, p, size=cols)) % p
    left_kernel = reference.kernel(a.T, p)
    # b = e_i with y_i != 0 for some y in the left kernel: y.b != 0, so no solution
    outside = np.zeros(rows, dtype=np.int64)
    if left_kernel.shape[1]:
        outside[np.flatnonzero(left_kernel[:, 0])[0]] = 1
    for b in (consistent, rng.integers(-p, 2 * p, size=rows), outside):
        x, want_x = m.solve(vector(b, field)), reference.solve(a, b, p)
        assert (x is None) == (want_x is None)
        if x is not None:
            assert x.shape == (cols, 1) and np.array_equal(dense(x)[:, 0], want_x)
    if left_kernel.shape[1]:
        assert m.solve(vector(outside, field)) is None

    # A 2-d right-hand side is one elimination of [A | B]; it must agree with
    # column-by-column solves, and be None when any one column is inconsistent.
    batches = [np.zeros((rows, 0), dtype=np.int64),
               (a @ rng.integers(0, p, size=(cols, 3))) % p,
               rng.integers(-p, 2 * p, size=(rows, 4))]
    if left_kernel.shape[1]:
        batches.append(np.column_stack([consistent, outside, consistent]))
    for batch in batches:
        x, want = m.solve(matrix(batch, field)), [reference.solve(a, b, p) for b in batch.T]
        assert (x is None) == any(w is None for w in want)
        if x is not None:
            assert x.shape == (cols, batch.shape[1])
            for j, b in enumerate(batch.T):
                assert x.column(j) == m.solve(vector(b, field)).column(0) and np.array_equal(x.column(j), want[j])

    if rows == cols:
        reduced, pivots = reference.rref(np.column_stack([a, np.eye(rows, dtype=np.int64)]), p)
        if pivots[:rows] == list(range(rows)):
            assert np.array_equal(dense(m.inverse()), reduced[:, rows:])
        else:
            with pytest.raises(ZeroDivisionError):
                m.inverse()


KERNEL_PRIMES = (2, 3, 5, 7, MAX_PRIME)


@st.composite
def kernel_cases(draw) -> tuple[np.ndarray, int, int]:
    """A matrix over F_2, F_3, F_5, F_7 or F_65521 (entries in [-p, 2p)), p and a seed.

    Kinds: uniform entries, sparse (about 1 in 8 nonzero), cochain (each
    row either q + 2 entries of alternating sign, as in a coboundary, or
    one nonzero, as in a restriction), all zero, full rank min(rows, cols),
    and duplicated or rescaled rows.
    """
    p = draw(st.sampled_from(KERNEL_PRIMES))
    rows, cols = draw(st.integers(0, 30)), draw(st.integers(0, 40))
    kind = draw(st.sampled_from(("uniform", "sparse", "cochain", "zero", "full_rank", "duplicate_rows")))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    a = rng.integers(-p, 2 * p, size=(rows, cols))
    if kind == "sparse":
        a[rng.random((rows, cols)) < 7 / 8] = 0
    elif kind == "cochain":
        a[:] = 0
        for i in range(rows if cols else 0):
            if rng.random() < 0.5:
                a[i, rng.integers(cols)] = rng.integers(1, p)
            else:
                k = min(cols, int(rng.integers(2, 6)))
                a[i, rng.choice(cols, size=k, replace=False)] = (-1) ** np.arange(k)
    elif kind == "zero":
        a[:] = 0
    elif kind == "full_rank":
        for i in range(min(rows, cols)):
            a[i, :i] = 0
            a[i, i] = 1
        a = a[rng.permutation(rows)][:, rng.permutation(cols)]
    elif kind == "duplicate_rows" and rows >= 2:
        for _ in range(rows // 2):
            src, dst = rng.integers(0, rows, size=2)
            a[dst] = a[src] * rng.integers(1, p)
    return a, p, seed


@settings(max_examples=400, deadline=None)
@given(kernel_cases())
def test_kernel_matches_the_dense_loop(case):
    a, p, seed = case
    assert_kernel_matches_dense(a, p, np.random.default_rng(seed))


@pytest.mark.parametrize("p", KERNEL_PRIMES)
@pytest.mark.parametrize("a", (
    np.zeros((0, 0), dtype=np.int64), np.zeros((0, 5), dtype=np.int64),
    np.zeros((5, 0), dtype=np.int64), np.zeros((4, 4), dtype=np.int64),
    np.eye(12, dtype=np.int64), np.eye(12, 14, 2, dtype=np.int64),
    np.ones((12, 14), dtype=np.int64), np.tile(np.arange(14), (12, 1)),
), ids=("0x0", "0x5", "5x0", "zero4x4", "identity12", "shifted_identity12x14", "ones12x14",
        "equal_rows12x14"))
def test_kernel_matches_the_dense_loop_on_edge_shapes(a, p):
    assert_kernel_matches_dense(a, p, np.random.default_rng(0))


PRODUCT_PRIMES = (2, 3, 5, MAX_PRIME)


@st.composite
def product_cases(draw) -> tuple[np.ndarray, np.ndarray, int]:
    """Operands with entries in [0, p) and p.

    Any dimension may be 0; kinds: uniform entries, every entry p - 1
    (the largest sums), and a left or right operand of zeros.  The right
    operand is sometimes one vector, taken as a one-column matrix.
    """
    p = draw(st.sampled_from(PRODUCT_PRIMES))
    m, k, n = (draw(st.integers(0, 9)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a, b = rng.integers(0, p, size=(m, k)), rng.integers(0, p, size=(k, n))
    kind = draw(st.sampled_from(("uniform", "top", "zero_left", "zero_right")))
    if kind == "top":
        a[:], b[:] = p - 1, p - 1
    elif kind == "zero_left":
        a[:] = 0
    elif kind == "zero_right":
        b[:] = 0
    if n and draw(st.booleans()):
        b = b[:, 0]
    return a, b, p


@settings(max_examples=300, deadline=None)
@given(product_cases())
def test_product_matches_the_int64_product(case):
    # @ gathers rows; it must give the int64 product mod p
    a, b, p = case
    field = PrimeField(p)
    want = (a @ b) % p
    got = dense(matrix(a, field) @ (matrix(b, field) if b.ndim == 2 else vector(b, field)))
    got = got if b.ndim == 2 else got[:, 0]
    assert got.dtype == np.int64 and got.shape == want.shape
    assert np.array_equal(got, want)
