import csv
import math

import numpy as np
import pytest
from scipy.special import ndtr

from fdrkit import (
    DiscoverySet,
    DomainError,
    ShapeError,
    bh,
    storey_bh,
    z_to_pvalue,
)


def brute_force_step_up(p, alpha):
    """Independent oracle: test every candidate rejection count directly."""
    p = np.asarray(p)
    n = p.size
    order = np.sort(p)
    for m in range(n, 0, -1):
        if order[m - 1] <= m * alpha / n:
            return set(np.flatnonzero(p <= order[m - 1]).tolist())
    return set()


class TestZToPvalue:
    def test_zero_two_sided(self):
        assert z_to_pvalue(0.0) == 1.0

    def test_zero_left(self):
        assert z_to_pvalue(0.0, "left") == 0.5

    def test_196_two_sided_against_erfc(self):
        # independent CDF route: 2*Phi(-x) = erfc(x / sqrt(2))
        expected = math.erfc(1.96 / math.sqrt(2.0))
        assert z_to_pvalue(1.96) == pytest.approx(expected, rel=1e-12)
        assert z_to_pvalue(1.96) == pytest.approx(0.0500, abs=5e-5)

    def test_right_tail(self):
        assert z_to_pvalue(3.0, "right") == pytest.approx(
            1.0 - 0.5 * (1.0 + math.erf(3.0 / math.sqrt(2.0))), rel=1e-10
        )

    def test_unknown_sidedness(self):
        with pytest.raises(DomainError):
            z_to_pvalue(0.0, "both")

    def test_vectorized(self):
        out = z_to_pvalue(np.array([0.0, 1.0, -1.0]))
        assert out.shape == (3,)
        assert out[1] == pytest.approx(out[2])

    def test_scalar_gives_a_float(self):
        for sidedness in ("two_sided", "left", "right"):
            assert type(z_to_pvalue(np.float64(1.5), sidedness)) is float

    @pytest.mark.parametrize("sidedness, reference", [
        ("two_sided", lambda z: 2.0 * ndtr(-np.abs(z))),
        ("left", ndtr),
        ("right", lambda z: ndtr(-z)),
    ])
    def test_against_scipy_ndtr(self, sidedness, reference):
        rng = np.random.default_rng(11)
        for lim, rel in ((10.0, 5e-15), (37.0, 1e-13)):
            z = rng.uniform(-lim, lim, 100_000).reshape(-1, 4)
            got, want = z_to_pvalue(z, sidedness), reference(z)
            assert got.shape == z.shape
            assert np.all((got >= 0.0) & (got <= 1.0))
            np.testing.assert_allclose(got, want, rtol=rel, atol=0.0)


def _assert_caller_array_untouched(arr, before, record_view):
    """``arr`` is writeable and unchanged, and writing it later leaves
    ``record_view()``, the record's copy, as it was."""
    assert arr.flags.writeable
    np.testing.assert_array_equal(arr, before)
    held = record_view().copy()
    arr[...] = 0
    np.testing.assert_array_equal(record_view(), held)


class TestBH:
    def test_caller_pvalues_stay_writeable(self):
        p = np.array([0.001, 0.5, 0.002, 0.9])
        ds = bh(p, alpha=0.05)
        _assert_caller_array_untouched(p, [0.001, 0.5, 0.002, 0.9],
                                       lambda: ds.scores)

    def test_hand_example(self):
        ds = bh([0.01, 0.02, 0.2, 0.9], alpha=0.05)
        assert set(ds.rejected.tolist()) == {0, 1}

    def test_nothing_rejected(self):
        assert bh([0.9, 0.8], alpha=0.05).n_rejected == 0

    def test_all_tiny_rejected(self):
        ds = bh(np.full(100, 1e-9), alpha=0.1)
        assert ds.n_rejected == 100

    def test_pvalue_domain_checked(self):
        with pytest.raises(DomainError):
            bh([0.5, 1.5], alpha=0.1)
        with pytest.raises(DomainError):
            bh([0.5, -0.1], alpha=0.1)

    def test_alpha_domain_checked(self):
        with pytest.raises(DomainError):
            bh([0.5], alpha=0.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            n = int(rng.integers(1, 51))
            p = rng.uniform(size=n) ** rng.uniform(0.3, 3.0)
            alpha = float(rng.uniform(0.01, 0.3))
            got = set(bh(p, alpha).rejected.tolist())
            assert got == brute_force_step_up(p, alpha)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(7)
        p = rng.uniform(size=60) ** 2
        counts = [bh(p, a).n_rejected for a in np.linspace(0.01, 0.5, 25)]
        assert all(c2 >= c1 for c1, c2 in zip(counts, counts[1:]))


class TestStoreyBH:
    def test_caller_pvalues_stay_writeable(self):
        p = np.array([0.001, 0.5, 0.002, 0.9])
        ds = storey_bh(p, alpha=0.05)
        _assert_caller_array_untouched(p, [0.001, 0.5, 0.002, 0.9],
                                       lambda: ds.scores)

    def test_pi0_clips_to_one(self):
        p = [0.01, 0.2, 0.6, 0.8, 0.9]
        # #{p > 0.5} = 3, (1 - 0.5) * 5 = 2.5 -> pi0 = 1, identical to bh
        np.testing.assert_array_equal(
            storey_bh(p, 0.05).rejected, bh(p, 0.05).rejected
        )

    def test_all_above_lambda0_no_rejections(self):
        p = [0.6, 0.7, 0.8, 0.95]
        assert storey_bh(p, 0.05).n_rejected == 0

    def test_hand_count_example(self):
        p = [0.001, 0.002] + [0.9] * 8
        np.testing.assert_array_equal(
            storey_bh(p, 0.05).rejected, bh(p, 0.05).rejected
        )

    def test_equals_bh_whenever_pi0_is_one(self):
        rng = np.random.default_rng(99)
        checked = 0
        for _ in range(1000):
            n = int(rng.integers(2, 40))
            p = rng.uniform(size=n)
            pi0 = min(1.0, np.count_nonzero(p > 0.5) / (0.5 * n))
            if pi0 < 1.0:
                continue
            checked += 1
            np.testing.assert_array_equal(
                storey_bh(p, 0.1).rejected, bh(p, 0.1).rejected
            )
        assert checked > 100

    def test_adaptive_gains_power(self):
        # many signals -> pi0 < 1 -> storey rejects at least as much as bh
        rng = np.random.default_rng(5)
        p = np.r_[rng.uniform(0, 0.01, 40), rng.uniform(size=20)]
        assert storey_bh(p, 0.1).n_rejected >= bh(p, 0.1).n_rejected

    def test_lambda0_domain(self):
        with pytest.raises(DomainError):
            storey_bh([0.5], 0.1, lambda0=1.0)


class TestDiscoverySet:
    def test_invariants(self):
        with pytest.raises(DomainError):
            DiscoverySet(rejected=[0, 5], scores=[0.1, 0.2], alpha=0.1, method="x")
        with pytest.raises(DomainError):
            DiscoverySet(rejected=[1, 0], scores=[0.1, 0.2], alpha=0.1, method="x")
        with pytest.raises(DomainError):
            DiscoverySet(rejected=[0], scores=[0.1], alpha=1.5, method="x")

    @pytest.mark.parametrize("rejected,scores", [
        ([[0, 1]], [0.1, 0.2]),
        ([0], [[0.1, 0.2]]),
        (0, [0.1, 0.2]),
        ([0], 0.1),
    ], ids=["2d_rejected", "2d_scores", "scalar_rejected", "scalar_scores"])
    def test_non_vectors_refused(self, rejected, scores):
        with pytest.raises(DomainError, match="1-d"):
            DiscoverySet(rejected=rejected, scores=scores, alpha=0.1,
                         method="x")

    def test_caller_arrays_stay_writeable(self):
        r = np.array([0, 2], dtype=np.int64)
        scores = np.array([0.01, 0.7, 0.02])
        ds = DiscoverySet(rejected=r, scores=scores, alpha=0.1, method="x")
        assert not (ds.rejected.flags.writeable or ds.scores.flags.writeable)
        _assert_caller_array_untouched(r, [0, 2], lambda: ds.rejected)
        _assert_caller_array_untouched(scores, [0.01, 0.7, 0.02],
                                       lambda: ds.scores)

    def test_csv_export(self, tmp_path):
        ds = bh([0.001, 0.5, 0.002], alpha=0.05)
        path = tmp_path / "d.csv"
        ds.write_csv(path, ids=["a", "b", "c"])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "id,score,rejected"
        assert lines[1].startswith("a,") and lines[1].endswith(",1")
        assert lines[2].endswith(",0")

    @pytest.mark.parametrize("ids", [["a"], ["a", "b", "c", "d"], [],
                                     iter("abcd")])
    def test_csv_ids_must_match_the_tests(self, tmp_path, ids):
        ds = bh([0.001, 0.5, 0.9], alpha=0.1)
        path = tmp_path / "d.csv"
        with pytest.raises(ShapeError, match=r"^[014] ids for 3 tests$"):
            ds.write_csv(path, ids=ids)
        assert not path.exists()

    def test_csv_ids_from_any_iterable(self, tmp_path):
        ds = bh([0.001, 0.5, 0.9], alpha=0.1)
        ds.write_csv(tmp_path / "list.csv", ids=["a", "b", "c"])
        ds.write_csv(tmp_path / "gen.csv", ids=(c for c in "abc"))
        assert ((tmp_path / "gen.csv").read_bytes()
                == (tmp_path / "list.csv").read_bytes())

    def test_csv_bytes_for_plain_ids(self, tmp_path):
        scores = np.random.default_rng(1).uniform(size=9)
        ds = bh(scores, alpha=0.3)
        path = tmp_path / "d.csv"
        ds.write_csv(path)
        mask = ds.rejected_mask()
        want = "id,score,rejected\n" + "".join(
            f"{i},{float(s)!r},{int(mask[i])}\n" for i, s in enumerate(scores))
        assert path.read_bytes() == want.encode("utf-8")

    def test_ids_needing_quotes_round_trip(self, tmp_path):
        ids = ["r,1", 'say "hi"', "two\nlines", "cr\ronly", "plain"]
        ds = bh([0.001, 0.5, 0.002, 0.9, 0.003], alpha=0.05)
        path = tmp_path / "d.csv"
        ds.write_csv(path, ids=ids)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["id", "score", "rejected"]
        assert [r[0] for r in rows[1:]] == ids
        assert [float(r[1]) for r in rows[1:]] == ds.scores.tolist()
        assert [r[2] for r in rows[1:]] == ["1", "0", "1", "0", "1"]
