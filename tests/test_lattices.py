"""Lattice layer: hyperbolic normalization, reflection, cones, enumeration."""

import itertools
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hk4 import lattices
from hk4.lattices import (
    U,
    U2,
    QuadLattice,
    cone_report,
    hyperbolic_pair_normalize,
    prime_exceptional_scan,
    reflection_about,
)
from hk4.rationals import Q, RatPoly


class TestQuadLattice:
    def test_hyperbolic_values(self):
        assert U.q((1, 0)) == 0
        assert U.q((0, 1)) == 0
        assert U.pair((1, 0), (0, 1)) == 1
        assert U.q((1, 1)) == 2
        assert U.q((-1, 1)) == -2

    def test_symmetry_exhaustive(self):
        rng = range(-5, 6)
        for v in itertools.product(rng, rng):
            for w in itertools.product(rng, rng):
                assert U.pair(v, w) == U.pair(w, v)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            QuadLattice(((0, 1), (2, 0)))

    def test_from_json(self):
        lat = QuadLattice.from_json({"rank": 2, "gram": [[0, 1], [1, 0]]})
        assert lat.gram == U.gram
        with pytest.raises(ValueError):
            QuadLattice.from_json({"rank": 3, "gram": [[0, 1], [1, 0]]})

    def test_u2_orthogonal_sum(self):
        assert U2.q((1, 1, 1, -1)) == 0
        assert U2.pair((1, 1, 1, -1), (1, 0, 0, 0)) == 1
        assert U2.pair((1, 1, 1, -1), (0, 1, 0, 0)) == 1


def _dense_pair(gram, v, w):
    """Test-only reference: the full double sum v_i G_ij w_j."""
    n = len(gram)
    return sum(v[i] * gram[i][j] * w[j] for i in range(n) for j in range(n))


#: Coordinates of each type ``pair`` takes, zero among them (``RatPoly()`` is the zero polynomial).
COORDINATES = {
    "int": st.integers(-50, 50),
    "Fraction": st.one_of(st.just(Q(0)), st.fractions(-50, 50, max_denominator=12)),
    "RatPoly": st.lists(st.fractions(-9, 9, max_denominator=6), max_size=3).map(RatPoly),
}


@st.composite
def gram_and_vectors(draw, coordinate=COORDINATES["int"]):
    """A symmetric integer Gram matrix of rank 1-4, mostly zero, and two vectors."""
    n = draw(st.integers(1, 4))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-30, 30))
    upper = {(i, j): draw(entry) for i in range(n) for j in range(i, n)}
    gram = tuple(tuple(upper[min(i, j), max(i, j)] for j in range(n)) for i in range(n))
    vec = st.lists(coordinate, min_size=n, max_size=n)
    return gram, draw(vec), draw(vec)


class TestPairIsTheDenseSum:
    """QuadLattice.pair sums the non-zero Gram entries only; a dense double loop agrees."""

    @given(gram_and_vectors())
    @settings(max_examples=200)
    def test_matches_dense_sum(self, data):
        gram, v, w = data
        value = QuadLattice(gram).pair(v, w)
        assert type(value) is int
        assert value == _dense_pair(gram, v, w)

    @pytest.mark.parametrize("kind", ["Fraction", "RatPoly"])  # ints: test_matches_dense_sum
    @given(data=st.data())
    @settings(max_examples=100)
    def test_keeps_the_type_of_the_dense_sum(self, kind, data):
        # the same 0 + t1 + t2 ... as sum(), so an int, a Fraction or a RatPoly comes back
        gram, v, w = data.draw(gram_and_vectors(COORDINATES[kind]))
        value, dense = QuadLattice(gram).pair(v, w), _dense_pair(gram, v, w)
        if any(map(any, gram)):
            assert type(value) is type(dense)
            assert value == dense
        else:  # no term to add: the start value, as sum() of nothing
            assert type(value) is int and value == 0

    @pytest.mark.parametrize("zero", [0, Q(0), RatPoly()])
    def test_all_zero_coordinates(self, zero):
        v = (zero,) * 4
        value, dense = U2.pair(v, v), _dense_pair(U2.gram, v, v)
        assert type(value) is type(dense) is type(zero)
        assert value == dense == zero

    def test_zero_gram(self):
        assert QuadLattice(((0, 0), (0, 0))).pair((3, 4), (5, 6)) == 0
        value = QuadLattice(((0, 0), (0, 0))).pair((Q(1, 2), Q(3)), (Q(5), Q(1, 7)))
        assert type(value) is int and value == 0

    def test_length_check(self):
        with pytest.raises(ValueError):
            U.pair((1, 0, 0), (0, 1))
        with pytest.raises(ValueError):
            U2.q((1, 1))

    def test_integral_entries_convert_exactly(self):
        lat = QuadLattice(((Q(4, 2), Q(1)), (1, 0)))
        assert lat.gram == ((2, 1), (1, 0))
        assert all(type(x) is int for row in lat.gram for x in row)

    @pytest.mark.parametrize("bad", [Q(1, 2), 1.5, Q(-7, 3)])
    def test_non_integral_entry_raises(self, bad):
        with pytest.raises(ValueError):
            QuadLattice(((bad, 0), (0, 1)))
        with pytest.raises(ValueError):
            QuadLattice(((0, bad), (bad, 0)))


class TestQIsPairOnTheDiagonal:
    """q sums the entries on and above the diagonal; the definition is pair(v, v)."""

    @pytest.mark.parametrize("kind", sorted(COORDINATES))
    @given(data=st.data())
    @settings(max_examples=100)
    def test_random_grams(self, kind, data):
        gram, v, _ = data.draw(gram_and_vectors(COORDINATES[kind]))
        lat = QuadLattice(gram)
        value, defined = lat.q(v), lat.pair(v, v)
        assert type(value) is type(defined) and value == defined

    @pytest.mark.parametrize("kind", sorted(COORDINATES))
    @given(data=st.data())
    @settings(max_examples=60)
    def test_the_engine_lattices(self, kind, data):
        from hk4.h4 import H4

        for lat in (U, U2, H4):
            v = data.draw(st.lists(COORDINATES[kind], min_size=lat.rank, max_size=lat.rank))
            value, defined = lat.q(v), lat.pair(v, v)
            assert type(value) is type(defined) and value == defined

    def test_u_sums_one_term(self):
        assert U._upper == ((0, 1, 2),)


class TestHyperbolicPairNormalize:
    def test_already_normalized(self):
        n = hyperbolic_pair_normalize(0, 0, 1)
        assert (n["gamma"], n["sign_flip"], n["shift"]) == (0, False, 0)

    def test_shift(self):
        n = hyperbolic_pair_normalize(0, 6, 1)
        assert (n["gamma"], n["sign_flip"], n["shift"]) == (0, False, -3)
        assert n["q_m"] == 0

    def test_shift_with_q2(self):
        n = hyperbolic_pair_normalize(0, 3, 2)
        assert n["shift"] == -1 and n["q_m"] == -1 and n["q_lm"] == 2
        assert n["gamma"] == Q(-1, 2)

    def test_sign_flip(self):
        n = hyperbolic_pair_normalize(0, 0, -1)
        assert n["sign_flip"] and n["q_lm"] == 1

    def test_errors(self):
        with pytest.raises(ValueError):
            hyperbolic_pair_normalize(2, 0, 1)
        with pytest.raises(ValueError):
            hyperbolic_pair_normalize(0, 4, 0)

    def test_idempotent(self):
        for q_m in range(-9, 10):
            for q_lm in [x for x in range(-4, 5) if x]:
                n = hyperbolic_pair_normalize(0, q_m, q_lm)
                assert -n["q_lm"] < n["q_m"] <= n["q_lm"]
                again = hyperbolic_pair_normalize(0, n["q_m"], n["q_lm"])
                assert (again["sign_flip"], again["shift"]) == (False, 0)
                assert again["gamma"] == n["gamma"]

    @given(st.integers(-10**12, 10**12), st.integers(-10**6, 10**6).filter(bool))
    @settings(max_examples=300)
    def test_the_shift_lands_in_the_window(self, q_m, q_lm):
        # the docstring's proof: 1 - p <= q_m - 2pk <= p, with no check left in the engine
        n = hyperbolic_pair_normalize(0, q_m, q_lm)
        p = abs(q_lm)
        assert n["q_lm"] == p and n["sign_flip"] == (q_lm < 0)
        assert -p < n["q_m"] == q_m + 2 * n["shift"] * p <= p
        assert n["gamma"] == Q(n["q_m"], p)


class TestReflection:
    def test_swaps_l_and_m(self):
        refl = reflection_about((-1, 1))
        assert refl((1, 0)) == (0, 1)
        assert refl((0, 1)) == (1, 0)

    def test_negates_e(self):
        refl = reflection_about((-1, 1))
        assert refl((-1, 1)) == (1, -1)

    def test_involution_and_isometry_exhaustive(self):
        refl = reflection_about((-1, 1))
        rng = range(-10, 11)
        for v in itertools.product(rng, rng):
            assert refl(refl(v)) == v
            assert U.q(refl(v)) == U.q(v)

    def test_requires_square_minus_two(self):
        with pytest.raises(ValueError):
            reflection_about((1, 1))  # q = 2
        with pytest.raises(ValueError):
            reflection_about((-2, 2))  # q = -8


class TestReflectionIsItsDefinition:
    """reflection_about(e) takes q(., e) once; the definition is v + U.pair(v, e) * e."""

    @pytest.mark.parametrize("e", [(-1, 1), (1, -1)])
    @given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
    @settings(max_examples=100)
    def test_matches_the_definition(self, e, t, u):
        c = U.pair((t, u), e)
        assert reflection_about(e)((t, u)) == (t + c * e[0], u + c * e[1])

    @pytest.mark.parametrize("v", [(), (1,), (1, 0, 0)])
    def test_a_vector_of_another_rank_raises(self, v):
        with pytest.raises(ValueError, match="rank"):
            reflection_about((-1, 1))(v)


class TestPrimeExceptional:
    def test_exactly_the_two_classes(self):
        assert prime_exceptional_scan()["prime_exceptional"] == [(-1, 1), (1, -1)]

    def test_candidates_have_square_minus_two_and_primitive(self):
        for v in prime_exceptional_scan()["prime_exceptional"]:
            assert U.q(v) == -2
            assert gcd(*v) == 1

    def test_rejections(self):
        scan = prime_exceptional_scan()
        found, argument = scan["prime_exceptional"], scan["divisibility_argument"]
        assert scan["window"] == 10
        assert (-1, 1) in found and (1, -1) in found
        # non-primitive multiple and a q = -4 class both fail
        assert (2, -2) not in found
        assert (-1, 2) not in found
        assert "1/t" in argument or "|t| = |u| = 1" in argument


def _prime_exceptional_reference():
    """Test-only reference: the window scan with every dual form value as a Fraction."""
    found, rejected = [], []
    for t in range(-10, 11):
        for u in range(-10, 11):
            v = (t, u)
            qe = U.q(v)
            if qe >= 0:
                continue
            if gcd(t, u) != 1:
                rejected.append((v, "not primitive"))
                continue
            for b in ((1, 0), (0, 1)):
                val = Q(-2 * U.pair(v, b), qe)
                if val.denominator != 1:
                    rejected.append((v, f"dual form value {val} on basis not integral"))
                    break
            else:
                found.append(v)
    return sorted(found), rejected[:6]


class TestPrimeExceptionalIntegerTest:
    """The scan tests q(E) | 2 q(E, b) in integers; the reference builds every Fraction."""

    def test_whole_dict_matches_fraction_reference(self):
        found, sample = _prime_exceptional_reference()
        scan = prime_exceptional_scan()
        assert scan == {
            "prime_exceptional": found,
            "window": 10,
            "divisibility_argument": scan["divisibility_argument"],
            "rejected_sample": sample,
        }
        assert any("dual form value" in reason for _, reason in sample)

    def test_only_the_kept_rejections_are_formatted(self, monkeypatch):
        built = []

        def counted(*args):
            built.append(args)
            return Q(*args)

        monkeypatch.setattr(lattices, "Q", counted)
        sample = prime_exceptional_scan()["rejected_sample"]
        assert len(built) == sum("dual form value" in reason for _, reason in sample) == 2


class TestCones:
    def test_case_c1_all_equal(self):
        rep = cone_report(0)
        assert rep["case"] == "C1"
        assert rep["positive"] == rep["movable"] == rep["nef"] == rep["psef"]
        assert rep["exceptional"] is None

    def test_case_c2(self):
        rep = cone_report(1)
        assert rep["case"] == "C2"
        assert rep["movable"] == ((1, 0), (1, 1))
        assert rep["psef"] == ((1, 0), (-1, 1))
        assert rep["exceptional"] == (-1, 1)

    @pytest.mark.parametrize("t0", [0, 1])
    def test_movable_psef_duality(self, t0):
        rep = cone_report(t0)
        assert all(x >= 0 for x in rep["duality_products"])
        # the equality pattern: each extremal movable ray kills one psef ray
        assert rep["duality_products"].count(0) == 2

    def test_rejects_bad_t0(self):
        with pytest.raises(ValueError):
            cone_report(2)
