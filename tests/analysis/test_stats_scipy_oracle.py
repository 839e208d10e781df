"""The in-repo §IV-D statistics against scipy, which serves only as the
oracle here.

The accuracy bounds are the ones DESIGN.md "Statistics without scipy"
states; the corpus replay shows that no campaign-stopping decision moves.
"""

import itertools
import math
import warnings
from statistics import NormalDist

import numpy as np
import pytest
from scipy import stats as sps

from repro.analysis.stats import _swilk_coefficients, shapiro_wilk, t_quantile
from repro.core.campaign import meets_stopping_rule, would_converge
from repro.experiments.common import SCALES

CONFIDENCES = (0.8, 0.9, 0.95, 0.99, 0.999)


class TestTQuantile:
    def test_relative_error_df_1_to_1000(self):
        worst = 0.0
        for confidence in CONFIDENCES:
            q = 0.5 + confidence / 2.0
            df = np.arange(1, 1001)
            expected = sps.t.ppf(q, df)
            for d, ref in zip(df.tolist(), expected.tolist()):
                worst = max(worst, abs(t_quantile(q, d) - ref) / ref)
        assert worst <= 1e-12

    @pytest.mark.parametrize("df", [1, 2])
    def test_closed_forms_match_bit_for_bit(self, df):
        # df 1 and 2 are the quick scale's only degrees of freedom, so the
        # reported margins there equal scipy's exactly.
        grid = np.linspace(0.5001, 0.9999, 2000)
        mine = np.array([t_quantile(q, df) for q in grid.tolist()])
        assert np.array_equal(mine, sps.t.ppf(grid, df))

    def test_lower_tail_is_symmetric(self):
        for df in (1, 2, 5, 19):
            assert t_quantile(0.1, df) == -t_quantile(0.9, df)
            assert t_quantile(0.5, df) == 0.0

    @pytest.mark.parametrize("q, df", [(0.0, 3), (1.0, 3), (0.9, 0)])
    def test_rejects_out_of_range(self, q, df):
        with pytest.raises(ValueError):
            t_quantile(q, df)


def test_normal_quantile_relative_error():
    """``wilson_interval``'s quantile, ``NormalDist().inv_cdf``."""
    inv_cdf = NormalDist().inv_cdf
    grid = np.linspace(1e-6, 1 - 1e-6, 2001)
    expected = sps.norm.ppf(grid)
    for p, ref in zip(grid.tolist(), expected.tolist()):
        if ref == 0.0:
            assert inv_cdf(p) == 0.0
        else:
            assert abs(inv_cdf(p) - ref) <= 1e-15 * abs(ref)


def _shapiro_samples():
    rng = np.random.default_rng(1995)
    for n in [*range(3, 31), 50, 100, 257, 1000, 5000]:
        yield rng.normal(0.4, 0.1, n)
        yield rng.integers(0, 101, n) / 100  # SDC rates of 100-experiment campaigns: ties
        yield rng.exponential(1.0, n)
        yield 0.5 + 1e-12 * rng.standard_normal(n)  # near-zero range
    yield np.array([0.0, 1e-21, 2e-21])  # range below AS R94's 1e-19 floor
    yield np.array([0.3, 0.3, 0.3, 0.3 + 1e-20])
    yield np.array([0.0] * 10 + [1.0])  # W far in the tail at n <= 11
    for n in (4, 12):  # a sample equal to its weights: W = 1, or past it by rounding
        yield np.array(_swilk_coefficients(n))


class TestShapiroWilk:
    @pytest.mark.parametrize("x", list(_shapiro_samples()), ids=lambda x: f"n{len(x)}")
    def test_matches_scipy(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # scipy warns on zero range
            ref = sps.shapiro(x)
        w, p = shapiro_wilk(x)
        assert abs(w - ref.statistic) <= 1e-9
        assert abs(p - ref.pvalue) <= 1e-9

    def test_every_quick_scale_triple(self):
        """n = 3 is the quick scale's one Shapiro-Wilk size (exact branch):
        every triple of 25-experiment SDC rates."""
        triples = np.array(list(itertools.product(range(26), repeat=3))) / 25
        triples = triples[~np.isclose(triples, triples[:, :1]).all(axis=1)]
        ref = sps.shapiro(triples, axis=1)
        mine = np.array([shapiro_wilk(x) for x in triples.tolist()])
        assert np.abs(mine[:, 0] - ref.statistic).max() <= 1e-9
        assert np.abs(mine[:, 1] - ref.pvalue).max() <= 1e-9

    def test_uses_unsorted_middle_element_for_centring(self):
        # scipy gh-15777: the shift is x[n // 2] of the input as given, so
        # the input's order moves the last bits of W.  Both orders of this
        # sample reproduce scipy bit for bit.
        x = [0.95, 0.63, 0.69, 0.9, 0.58, 0.78]
        results = []
        for order in (x, sorted(x)):
            ref = sps.shapiro(order)
            assert shapiro_wilk(order) == (ref.statistic, ref.pvalue)
            results.append(ref.statistic)
        assert results[0] != results[1]

    def test_needs_three_samples(self):
        with pytest.raises(ValueError):
            shapiro_wilk([0.1, 0.2])


def _sdc_rate_corpus(rng, count, length, per_campaign):
    """Seeded SDC-rate sequences: per-campaign rates scattered around a
    per-sequence base rate, and a share of bimodal sequences that fail the
    normality check."""
    base = rng.uniform(0.0, 1.0, (count, 1))
    spread = rng.uniform(0.0, 0.12, (count, 1))
    p = np.clip(base + spread * rng.standard_normal((count, length)), 0.0, 1.0)
    bimodal = rng.uniform(size=count) < 0.15
    p[bimodal] = np.where(rng.uniform(size=(bimodal.sum(), length)) < 0.5, 0.05, 0.9)
    return rng.binomial(per_campaign, p) / per_campaign


def _scipy_decisions(seqs, config):
    """``out[i, n]``: the scipy-backed stopping rule on ``seqs[i, :n]``, as
    the code before the in-repo statistics computed it, batched per prefix
    length."""
    count, length = seqs.shape
    out = np.zeros((count, length + 1), dtype=bool)
    for n in range(max(config.min_campaigns, 2), length + 1):
        # numpy's row-wise std of a contiguous block equals, bit for bit,
        # the 1-D std the rule takes of each prefix.
        prefix = np.ascontiguousarray(seqs[:, :n])
        s = prefix.std(axis=1, ddof=1)
        t_star = sps.t.ppf(0.5 + config.confidence / 2.0, n - 1)
        moe = np.where(s == 0.0, 0.0, t_star * s / math.sqrt(n))
        ok = moe <= config.margin_target
        if config.require_normality and n >= 3:
            test = ok & ~np.isclose(prefix, prefix[:, :1]).all(axis=1)
            if test.any():
                ok[test] = sps.shapiro(prefix[test], axis=1).pvalue > 0.05
        out[:, n] = ok
    return out


@pytest.mark.parametrize("scale", ["quick", "full"])
def test_stopping_decisions_replay_identically(scale):
    """10k seeded sequences, replayed as a live run would: every step up to
    the first stop, then the prefix-evaluated convergence flag."""
    config = SCALES[scale]
    seqs = _sdc_rate_corpus(
        np.random.default_rng(2016), 10_000, config.max_campaigns,
        config.experiments_per_campaign,
    )
    expected = _scipy_decisions(seqs, config)
    stops = 0
    for seq, want in zip(seqs.tolist(), expected):
        for n in range(config.min_campaigns, len(seq) + 1):
            decision = meets_stopping_rule(seq[:n], config)
            assert decision == want[n], (seq[:n], want[n])
            if decision:
                stops += 1
                break
        assert would_converge(seq, config) == bool(want.any()), seq
    # The corpus exercises both outcomes of the rule.
    assert 0 < stops < len(seqs)
