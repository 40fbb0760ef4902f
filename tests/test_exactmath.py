import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import Matrix, Rational

from toricfib import exactmath
from toricfib.exactmath import (
    InvariantViolation,
    det,
    ensure_rational,
    inverse,
    is_primitive,
    parallelepiped_points,
    primitive,
    smith_normal_form,
    solve_in_basis,
)
from oracles import adjugate, box_lattice_points, sublattice_index

nonzero_vectors = st.lists(st.integers(-50, 50), min_size=1, max_size=5).filter(
    lambda v: any(e != 0 for e in v)
)


class TestPrimitive:
    def test_divides_by_gcd(self):
        assert primitive((2, 4, 6)) == (1, 2, 3)

    def test_identity_on_primitive(self):
        assert primitive((1, 0)) == (1, 0)

    def test_preserves_signs(self):
        result = primitive((0, -3, 6))
        assert result == (0, -1, 2)
        assert tuple(3 * e for e in result) == (0, -3, 6)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero vector"):
            primitive((0, 0, 0))

    def test_float_entries_rejected(self):
        with pytest.raises(TypeError):
            primitive((1.0, 2))

    @given(nonzero_vectors)
    def test_idempotent(self, v):
        assert primitive(primitive(v)) == primitive(v)

    @given(nonzero_vectors)
    def test_positive_multiple(self, v):
        p = primitive(v)
        g = next(abs(a) // abs(b) for a, b in zip(v, p) if b != 0)
        assert tuple(g * e for e in p) == tuple(v)


class TestIsPrimitive:
    @given(st.lists(st.integers(-12, 12), min_size=1, max_size=5))
    @example([0])
    @example([0, 0, 0])
    @example([-3, 0, 6])
    @example([-1])
    @example([0, -1])
    @example([6, 10, 15])
    def test_matches_the_primitive_definition(self, v):
        # entries this small make zero vectors and gcds > 1 common
        expected = any(e != 0 for e in v) and primitive(v) == tuple(v)
        assert is_primitive(v) == expected

    def test_validates_entries(self):
        with pytest.raises(TypeError):
            is_primitive((1.0, 2))
        with pytest.raises(ValueError, match="dimension"):
            is_primitive(())


def test_ensure_rational_returns_a_fraction_unchanged():
    x = Fraction(3, 7)
    assert ensure_rational(x) is x
    assert type(ensure_rational(-4)) is Fraction and ensure_rational(-4) == -4


class TestSolveInBasis:
    def test_skew_pair(self):
        assert solve_in_basis([(4, 1), (0, -1)], (1, 0)) == (Fraction(1, 4), Fraction(1, 4))

    def test_standard_basis(self):
        assert solve_in_basis([(1, 0), (0, 1)], (3, 5)) == (3, 5)

    def test_half_coefficients(self):
        assert solve_in_basis([(2, 1), (0, -1)], (1, 0)) == (Fraction(1, 2), Fraction(1, 2))

    def test_outside_span_is_none(self):
        assert solve_in_basis([(1, 0, 0), (0, 1, 0)], (0, 0, 1)) is None

    def test_dependent_generators_rejected(self):
        with pytest.raises(ValueError, match="not independent"):
            solve_in_basis([(1, 2), (2, 4)], (1, 0))
        with pytest.raises(ValueError, match="not independent"):
            solve_in_basis([(1, 0), (0, 1), (1, 1)], (1, 0))

    # Square and overdetermined systems, as rel_lin_equiv poses them: the
    # rows are rays, so the generators are the columns.
    def test_unique_solution(self):
        assert solve_in_basis([(1, 0), (0, 2)], (3, 4)) == (3, 2)

    def test_inconsistent_returns_none(self):
        assert solve_in_basis([(1, 1, 0), (0, 0, 1)], (1, 2, 0)) is None

    def test_underdetermined_system_rejected(self):
        # x + y = 5 in three unknowns: more generators than coordinates
        with pytest.raises(ValueError, match="not independent"):
            solve_in_basis([(1,), (1,), (0,)], (5,))

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=60)
    def test_reconstruction_random(self, seed):
        rng = random.Random(seed)
        d = rng.randint(1, 4)
        k = rng.randint(1, d)
        while True:
            gens = [tuple(rng.randint(-9, 9) for _ in range(d)) for _ in range(k)]
            if all(any(g) for g in gens) and Matrix(gens).rank() == k:
                break
        coeffs = [Fraction(rng.randint(-12, 12), rng.randint(1, 7)) for _ in range(k)]
        target = tuple(
            sum((c * g[i] for c, g in zip(coeffs, gens)), Fraction(0)) for i in range(d)
        )
        assert solve_in_basis(gens, target) == tuple(coeffs)


    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=150)
    def test_matches_sympy(self, seed):
        rng = random.Random(seed)
        d = rng.randint(1, 6)
        if rng.random() < 0.5:
            # k generators in Q^d
            length, k = d, rng.randint(1, d)
        else:
            # the d columns of a (rays x d) matrix, as in rel_lin_equiv
            length, k = d + rng.randint(0, 4), d
        gens = [[rng.randint(-6, 6) for _ in range(length)] for _ in range(k)]
        if k > 1 and rng.random() < 0.25:
            # one generator a combination of the others: dependent
            j = rng.randrange(k)
            weights = [0 if jj == j else rng.randint(-2, 2) for jj in range(k)]
            gens[j] = [sum(w * g[i] for w, g in zip(weights, gens)) for i in range(length)]
        if rng.random() < 0.5:
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(k)]
            target = [sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(length)]
        else:
            target = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(length)]
        target = [int(t) if t.denominator == 1 and rng.random() < 0.5 else t for t in target]
        matrix = Matrix(length, k, lambda i, j: gens[j][i])
        rhs = Matrix(length, 1, lambda i, _: Rational(target[i].numerator, target[i].denominator))
        if matrix.rank() < k:
            with pytest.raises(ValueError, match="not independent"):
                solve_in_basis(gens, target)
            return
        try:
            expected, params = matrix.gauss_jordan_solve(rhs)
        except ValueError:
            assert solve_in_basis(gens, target) is None
            return
        assert not params
        assert solve_in_basis(gens, target) == tuple(
            Fraction(int(x.p), int(x.q)) for x in expected
        )


square_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n)
)


class TestDet:
    @given(square_matrices)
    @example([[0]])
    @example([[2, 3], [0, 0]])  # a zero row
    @example([[1, 2, 3], [4, 5, 6], [1, 2, 3]])  # a repeated row
    @example([[0, 1, 0], [2, 0, 1], [1, 1, 3]])  # a zero leading entry forces a swap
    @example([[0, 0, 1], [0, 1, 0], [1, 0, 0]])  # one swap, from the last row
    @example([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])  # two swaps
    @settings(max_examples=300)
    def test_matches_sympy(self, a):
        assert det(a) == Matrix(a).det()

    @pytest.mark.parametrize("a", [[[1, 2, 3], [4, 5, 6]], [[1, 2], [3]], [[1], [2]]])
    def test_not_square_rejected(self, a):
        with pytest.raises(ValueError, match="not square"):
            det(a)


class TestSmithNormalForm:
    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=80)
    def test_transforms_and_shape(self, seed):
        rng = random.Random(seed)
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        u, d, v = smith_normal_form(a)
        ua = [[sum(u[i][k] * a[k][j] for k in range(m)) for j in range(n)] for i in range(m)]
        uav = [[sum(ua[i][k] * v[k][j] for k in range(n)) for j in range(n)] for i in range(m)]
        assert uav == d
        assert abs(det(u)) == 1
        assert abs(det(v)) == 1
        diag = [d[i][i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert d[i][j] == 0
        assert all(x >= 0 for x in diag)
        for x, y in zip(diag, diag[1:]):
            if x != 0:
                assert y % x == 0
            else:
                assert y == 0


class TestAdjugate:
    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40)
    def test_definition(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        d = det(a)
        if d == 0:
            assert inverse(a) is None
            return
        adj, base = inverse(a)
        assert base == d
        prod = [[sum(adj[i][k] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        assert prod == [[d if i == j else 0 for j in range(n)] for i in range(n)]

    @given(st.integers(0, 10 ** 6), st.integers(1, 5))
    @settings(max_examples=100)
    def test_matches_cofactor_oracle(self, seed, n):
        rng = random.Random(seed)
        while True:
            a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            if det(a) != 0:
                break
        assert inverse(a) == (adjugate(a), det(a))

    @given(st.integers(0, 10 ** 6), st.integers(1, 5))
    @example(0, 3)
    @settings(max_examples=200, deadline=None)
    def test_sparse_ray_like_matrices(self, seed, n):
        # entries mostly 0, else -1, 1 or 2, as in the ray matrices of user
        # fans: pivot columns often hold a 0 off the pivot and pivots are
        # often 1, which the elimination skips or leaves undivided
        rng = random.Random(seed)
        a = [[rng.choice((0, 0, 0, 0, -1, 1, 2)) for _ in range(n)] for _ in range(n)]
        if n > 1 and seed % 4 == 0:
            a[-1] = list(a[0])  # a repeated row: singular
        columns = list(zip(*a))
        expected = Matrix(a).det()
        assert det(a) == expected
        if expected == 0:
            assert inverse(a) is None
            with pytest.raises(ValueError, match="not independent"):
                solve_in_basis(columns, [1] * n)
            return
        assert inverse(a) == (adjugate(a), expected)
        assert Matrix(inverse(a)[0]) == Matrix(a).adjugate()
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
        target = [sum(c * x for c, x in zip(coeffs, row)) for row in a]
        assert solve_in_basis(columns, target) == tuple(coeffs)
        if n > 1:
            # the last column is outside the span of the others
            assert solve_in_basis(columns[:-1], columns[-1]) is None

    @pytest.mark.parametrize(
        "a",
        [
            [[0]],
            [[1, 2], [2, 4]],
            [[0, 0], [3, 1]],
            [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
            [[0, 1, 2], [0, 3, 4], [0, 5, 6]],
            [[2, -1, 0, 1], [1, 1, 1, 1], [3, 0, 1, 2], [5, 2, 3, 6]],
        ],
    )
    def test_singular_is_rejected(self, a):
        assert det(a) == 0
        assert inverse(a) is None

    def test_row_swaps_keep_the_sign(self):
        # the first pivot needs a swap, so the elimination's own determinant
        # is the negative of det
        a = [[0, 1, 0], [2, 0, 1], [1, 1, 3]]
        assert inverse(a) == (adjugate(a), det(a))
        assert det(a) == -5

    def test_empty_matrix(self):
        assert inverse([]) == ([], 1)
        assert det([]) == 1

    def test_not_square_rejected(self):
        with pytest.raises(ValueError, match="not square"):
            inverse([[1, 2, 3], [4, 5, 6]])


class TestParallelepiped:
    def test_unit_square_only_origin(self):
        assert parallelepiped_points([(1, 0), (0, 1)]) == [((0, 0), (0, 0))]

    def test_skew_cone_points(self):
        pts = parallelepiped_points([(4, 1), (0, -1)])
        assert [p for p, _ in pts] == [(0, 0), (1, 0), (2, 0), (3, 0)]
        coeffs = {c for _, c in pts}
        assert coeffs == {(Fraction(k, 4), Fraction(k, 4)) for k in range(4)}

    def test_doubled_axis(self):
        pts = parallelepiped_points([(2, 0), (0, 1)])
        assert [p for p, _ in pts] == [(0, 0), (1, 0)]
        assert pts[1][1] == (Fraction(1, 2), 0)

    def test_dependent_rejected(self):
        with pytest.raises(ValueError, match="not independent"):
            parallelepiped_points([(1, 1), (2, 2)])

    def test_wrong_transform_detected(self, monkeypatch):
        # with V replaced by the identity the coset (0, 1/4) maps to (0, -1/4)
        u, dg, _ = smith_normal_form([[4, 0], [1, -1]])
        monkeypatch.setattr(exactmath, "smith_normal_form", lambda _: (u, dg, [[1, 0], [0, 1]]))
        with pytest.raises(InvariantViolation, match="not a lattice point"):
            parallelepiped_points([(4, 1), (0, -1)])

    def test_count_equals_index(self):
        rng = random.Random(7)
        checked = 0
        while checked < 40:
            d = rng.choice((2, 3))
            k = rng.randint(1, d)
            gens = [tuple(rng.randint(-5, 5) for _ in range(d)) for _ in range(k)]
            if any(not any(g) for g in gens) or Matrix(gens).rank() != k:
                continue
            index = sublattice_index(gens)
            if index > 60:
                continue
            pts = parallelepiped_points(gens)
            assert len(pts) == index
            checked += 1

    def test_matches_bounding_box_oracle(self):
        rng = random.Random(11)
        checked = 0
        while checked < 40:
            d = rng.choice((2, 3))
            k = rng.randint(1, d) if checked % 2 else d
            gens = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(k)]
            if any(not any(g) for g in gens) or Matrix(gens).rank() != k:
                continue
            if sublattice_index(gens) > 40:
                continue
            assert parallelepiped_points(gens) == box_lattice_points(gens)
            checked += 1

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=80)
    def test_box_properties_random(self, seed):
        rng = random.Random(seed)
        d = rng.randint(2, 4)
        k = rng.randint(1, d)
        while True:
            gens = [tuple(rng.randint(-6, 6) for _ in range(d)) for _ in range(k)]
            if all(any(g) for g in gens) and Matrix(gens).rank() == k and sublattice_index(gens) <= 300:
                break
        pts = parallelepiped_points(gens)
        assert len(pts) == sublattice_index(gens)
        assert len({p for p, _ in pts}) == len(pts)
        for point, coeffs in pts:
            assert all(0 <= c < 1 for c in coeffs)
            rebuilt = tuple(
                sum((c * g[i] for c, g in zip(coeffs, gens)), Fraction(0)) for i in range(d)
            )
            assert rebuilt == point

    def test_reconstruction(self):
        gens = [(3, 1, 0), (0, 2, 1), (0, 0, 2)]
        for point, coeffs in parallelepiped_points(gens):
            rebuilt = tuple(
                sum((c * g[i] for c, g in zip(coeffs, gens)), Fraction(0)) for i in range(3)
            )
            assert rebuilt == point
            assert all(0 <= c < 1 for c in coeffs)
