import itertools

import numpy as np
import pytest

from cofrelay import lattice
from cofrelay.errors import ConfigError, DimensionError, NestingError

Z = lattice.scaled_integers(1.0)
Z2 = lattice.scaled_integers(1.0, 2)
Z4 = lattice.scaled_integers(4.0)
Z8 = lattice.scaled_integers(8.0)
CHAIN = lattice.NestedChain(fine=Z, mid=Z4, coarse=Z8)


def brute_force_codebook_1d(fine_scale, shaping_scale):
    """Independent enumeration: integers inside the shaping Voronoi cell,
    boundary cosets resolved to the lexicographically smaller member."""
    half = shaping_scale / 2.0
    reach = int(2 * shaping_scale / fine_scale) + 1
    pts = []
    for x in (k * fine_scale for k in range(-reach, reach + 1)):
        if -half <= x < half:
            pts.append(float(x))
        elif x == half:  # the +boundary point loses to its -boundary twin
            pts.append(-half)
    return sorted(set(pts))


def brute_force_codebook(fine_diag, shaping_diag):
    """The product of the per-axis `brute_force_codebook_1d` enumerations,
    sorted lexicographically: the codebook of a diagonal chain."""
    axes = [brute_force_codebook_1d(abs(f), abs(s))
            for f, s in zip(fine_diag, shaping_diag)]
    return sorted(itertools.product(*axes))


class TestQuantize:
    def test_z2_rounding(self):
        assert np.array_equal(lattice.quantize(Z2, [0.4, -1.6]), [0.0, -2.0])

    def test_zero_vector(self):
        assert np.array_equal(lattice.quantize(Z4, [0.0]), [0.0])

    def test_nearest_multiple_of_four(self):
        assert np.array_equal(lattice.quantize(Z4, [1.0]), [0.0])

    def test_tie_goes_to_smaller_point(self):
        assert lattice.quantize(Z4, [2.0])[0] == 0.0
        assert lattice.quantize(Z4, [-2.0])[0] == -4.0
        assert lattice.quantize(Z8, [4.0])[0] == 0.0

    def test_general_generator_rejected(self):
        # a rotated Z^2 copy: only products of scaled integer lines are
        # lattices here, and any 2-D input is refused, diagonal or not
        th = 0.3
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        for generator in (rot, np.diag([1.0, 4.0])):
            with pytest.raises(DimensionError):
                lattice.Lattice(generator)

    def test_tie_on_negative_diagonal(self):
        # scales (-4, -0.5): halfway points still go to the smaller coordinate
        lat = lattice.Lattice([-4.0, -0.5])
        assert np.array_equal(lattice.quantize(lat, [2.0, 0.25]), [0.0, 0.0])
        assert np.array_equal(lattice.quantize(lat, [-2.0, -0.25]), [-4.0, -0.5])
        assert np.array_equal(lattice.quantize(lat, [6.0, 0.75]), [4.0, 0.5])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            lattice.quantize(Z2, [1.0])


class TestScales:
    def test_conditioning(self):
        # max|s| / min|s| is the 2-norm condition number of diag(s); up to
        # 1e12 is accepted, whatever the signs
        for scales in ([1.0, -1e12], [-3e-6, 3e6], [5.0]):
            lat = lattice.Lattice(scales)
            assert lat.dimension == len(scales)
            assert lat.scales.dtype == float
        for scales in ([1.0, 1e12 * (1 + 1e-15)], [0.0, 4.0], [0.0, 0.0],
                       [np.nan, 4.0], [1.0, np.inf], [1e-300, 1e300]):
            with pytest.raises(DimensionError, match="well conditioned"):
                lattice.Lattice(scales)

    def test_not_one_dimensional(self):
        for scales in (4.0, [], [[4.0]]):
            with pytest.raises(DimensionError):
                lattice.Lattice(scales)

    def test_identity_equality_and_hash(self):
        # the ndarray field has no truth value, so value equality would
        # raise; every array-holding record compares by identity
        fine, coarse = lattice.Lattice([1.0, 2.0]), lattice.Lattice([4.0, 8.0])
        twin = lattice.Lattice([1.0, 2.0])
        chain = lattice.NestedChain(fine=fine, mid=fine, coarse=coarse)
        entry = lattice.enumerate_codebook(fine, coarse)[0]
        for x, other in ((fine, twin),
                         (chain, lattice.NestedChain(fine, fine, coarse)),
                         (entry, lattice.CodebookEntry(entry.point,
                                                       entry.index))):
            assert x == x and x != other
            assert len({x, other, x}) == 2
        assert np.array_equal(fine.scales, twin.scales)

    def test_volume(self):
        assert lattice.Lattice([-4.0, 0.5, 3.0]).volume == 6.0
        assert lattice.scaled_integers(2.0, 5).volume == 32.0

    def test_second_moment_matches_generator_product(self):
        # reference: the samples times the dense generator diag(s)^T, whose
        # extra terms are exact zeros, so the estimate keeps every bit
        s = np.array([0.3, -7.0, 1e5])
        lat = lattice.Lattice(s)
        pts = (np.random.default_rng(5).random((1000, 3)) - 0.5) @ np.diag(s).T
        v = pts - np.array([lattice.quantize(lat, p) for p in pts])
        vals = np.sum(v * v, axis=1) / 3
        est = lattice.second_moment(lat, 1000, seed=5)
        assert est.value == float(np.mean(vals))
        assert est.stderr == float(np.std(vals, ddof=1) / np.sqrt(1000))


class TestMod:
    def test_known_values(self):
        assert lattice.mod_lattice(Z, [2.7])[0] == pytest.approx(-0.3)
        assert lattice.mod_lattice(Z4, [8.0])[0] == 0.0
        assert lattice.mod_lattice(Z, [-0.3])[0] == pytest.approx(-0.3)

    def test_idempotent_and_periodic(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-30, 30, size=(2000, 1))
        for p in pts:
            m = lattice.mod_lattice(Z4, p)
            assert np.array_equal(lattice.mod_lattice(Z4, m), m)
            shift = p + 4.0 * rng.integers(-5, 6)
            assert np.allclose(lattice.mod_lattice(Z4, shift), m, atol=1e-9)

    def test_quantize_plus_mod_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            p = rng.uniform(-20, 20, 2)
            assert np.array_equal(lattice.quantize(Z2, p) + lattice.mod_lattice(Z2, p), p)


class TestSecondMoment:
    def test_unit_interval(self):
        est = lattice.second_moment(Z, 100000, seed=10)
        assert abs(est.value - 1.0 / 12.0) <= 3.0 * est.stderr

    def test_scaling(self):
        est = lattice.second_moment(Z4, 100000, seed=11)
        assert abs(est.value - 16.0 / 12.0) <= 3.0 * est.stderr

    def test_product_lattice_per_dimension(self):
        est = lattice.second_moment(Z2, 50000, seed=12)
        assert abs(est.value - 1.0 / 12.0) <= 3.0 * est.stderr

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            lattice.second_moment(Z, 10)


class TestCodebook:
    def test_z_in_4z(self):
        expected = brute_force_codebook_1d(1.0, 4.0)
        assert expected == [-2.0, -1.0, 0.0, 1.0]  # frozen oracle output
        got = [e.point[0] for e in lattice.enumerate_codebook(Z, Z4)]
        assert got == expected

    def test_degenerate_nesting(self):
        cb = lattice.enumerate_codebook(Z, Z)
        assert len(cb) == 1 and cb[0].point[0] == 0.0

    def test_z2_in_2z2(self):
        # brute force over the square cell [-1, 1)^2 with boundary election
        shaping = lattice.scaled_integers(2.0, 2)
        members = []
        for k in itertools.product(range(-3, 4), repeat=2):
            p = np.asarray(k, dtype=float)
            d0 = p @ p
            near = [np.asarray(v) * 2.0 for v in itertools.product(range(-2, 3), repeat=2)
                    if any(v)]
            if all(d0 <= (p - lam) @ (p - lam) + 1e-12 for lam in near):
                members.append(tuple(p))
        cosets = {}
        for p in members:
            key = tuple(np.mod(p, 2.0))
            cosets.setdefault(key, []).append(p)
        expected = sorted(min(v) for v in cosets.values())
        got = [tuple(e.point) for e in lattice.enumerate_codebook(Z2, shaping)]
        assert got == expected
        assert len(got) == 4

    @pytest.mark.parametrize("fine,shaping", [
        ((0.5, -1.0), (1.5, 3.0)),
        ((0.1, 0.1), (0.2, 0.3)),
        ((1.0, -1.0, 0.5), (4.0, 3.0, -2.0)),
        ((-1.0, 0.25, 2.0), (2.0, -1.0, 6.0))])
    def test_product_chain_matches_brute_force(self, fine, shaping):
        # negative and non-integer scales, odd and even indices per axis
        got = lattice.enumerate_codebook(lattice.Lattice(fine),
                                         lattice.Lattice(shaping))
        expected = brute_force_codebook(fine, shaping)
        assert len(got) == len(expected)
        assert [e.index for e in got] == list(range(len(got)))
        for e, p in zip(got, expected):
            assert np.allclose(e.point, p, rtol=0.0, atol=1e-12)

    def test_size_matches_covolume_ratio(self):
        for fine_s, shape_s in ((1.0, 3.0), (1.0, 5.0), (2.0, 8.0)):
            fine = lattice.scaled_integers(fine_s)
            shaping = lattice.scaled_integers(shape_s)
            cb = lattice.enumerate_codebook(fine, shaping)
            assert len(cb) == round(shaping.volume / fine.volume)
            assert [e.index for e in cb] == list(range(len(cb)))

    def test_nesting_violation(self):
        with pytest.raises(NestingError):
            lattice.enumerate_codebook(Z4, Z)  # 1Z is not a sublattice of 4Z

    @pytest.mark.parametrize("fine,shaping", [
        # the int64 cast would give -2^63
        pytest.param(1e-300, 8.0, id="index-8e300"),
        pytest.param(1e-320, 1e300, id="ratio-overflows"),
        # index 0 passes the 1e-9 subset tolerance
        pytest.param(1.0, 1e-12, id="index-0"),
        # the first index an int64 cannot hold
        pytest.param(1.0, 2.0 ** 63, id="index-2^63")])
    def test_index_out_of_int64_range(self, fine, shaping):
        with pytest.raises(NestingError, match="index"):
            lattice.enumerate_codebook(lattice.scaled_integers(fine),
                                       lattice.scaled_integers(shaping))

    def test_size_limit(self):
        # the largest codebook is built; one more codeword is refused, and a
        # product of 1e15 codewords fails before its axes are allocated
        big = lattice.scaled_integers(float(lattice.MAX_CODEBOOK))
        assert len(lattice.enumerate_codebook(Z, big)) == lattice.MAX_CODEBOOK
        for fine, shaping in ((Z, lattice.scaled_integers(
                                   lattice.MAX_CODEBOOK + 1.0)),
                              (Z2, lattice.Lattice([1e15, 1e15]))):
            with pytest.raises(ConfigError, match="codebook"):
                lattice.enumerate_codebook(fine, shaping)


class TestChain:
    def test_valid_chain(self):
        lattice.NestedChain(fine=Z, mid=Z4, coarse=Z8)

    def test_broken_chain(self):
        with pytest.raises(NestingError):
            lattice.NestedChain(fine=Z, mid=lattice.scaled_integers(3.0),
                                coarse=lattice.scaled_integers(7.0))


class TestMmseAlpha:
    def test_values(self):
        assert lattice.mmse_alpha(1, 1, 2) == pytest.approx(0.5)
        assert lattice.mmse_alpha(5, 0, 0) == pytest.approx(1.0)
        assert lattice.mmse_alpha(3, 1, 1) == pytest.approx(0.8)

    def test_all_zero(self):
        with pytest.raises(ValueError):
            lattice.mmse_alpha(0, 0, 0)

    def test_negative(self):
        with pytest.raises(ValueError):
            lattice.mmse_alpha(-1, 1, 1)


class TestCofRoundtrip:
    def test_hand_evaluated_case(self):
        # t = (3 + 1 - Q_{4Z}(1)) mod 8Z = 4 mod 8Z = 4
        te, td = lattice.cof_roundtrip(CHAIN, [3], [1], [0], [0], 1.0, 1.0, 0.0)
        assert te[0] == 4.0 and td[0] == 4.0

    def test_zero_codewords(self):
        te, td = lattice.cof_roundtrip(CHAIN, [0], [0], [0], [0], 1.0, 1.0, 0.0)
        assert te[0] == 0.0 and td[0] == 0.0

    def test_dither_invariance(self):
        te, td = lattice.cof_roundtrip(CHAIN, [3], [1], [0], [0.5], 1.0, 1.0, 0.0)
        assert np.allclose(te, td, atol=1e-12)

    def test_exhaustive_noiseless(self):
        cb1 = lattice.enumerate_codebook(Z, Z8)
        cb2 = lattice.enumerate_codebook(Z, Z4)
        assert len(cb1) * len(cb2) == 32
        rng = np.random.default_rng(3)
        for e1 in cb1:
            for e2 in cb2:
                te, td = lattice.cof_roundtrip(CHAIN, e1.point, e2.point,
                                               [0.0], [0.0], 1.0, 1.0, 0.0)
                assert np.allclose(te, td, atol=1e-9)
                u1 = lattice.mod_lattice(Z8, rng.uniform(-8, 8, 1))
                u2 = lattice.mod_lattice(Z4, rng.uniform(-4, 4, 1))
                te, td = lattice.cof_roundtrip(CHAIN, e1.point, e2.point,
                                               u1, u2, 1.0, 1.0, 0.0)
                assert np.allclose(te, td, atol=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            lattice.cof_roundtrip(CHAIN, [3, 1], [1], [0], [0], 1.0, 1.0, 0.0)
