import dataclasses
import math

import numpy as np
import pytest

from trajbounds.engine import inject_arbitrage, price
from trajbounds.grid import Payoff
from trajbounds.model import (
    GridSpec,
    MARule,
    MBRule,
    ModifiedRule,
    NodeClass,
    TransitionRule,
    bjn_rule,
    classify_node,
    column_moves,
    reachable,
    reachable_masks,
    spec_for_rule,
    spec_from_total_variance,
    validate_model,
)


def make_spec(rule, n1, n2, lam=None, s0=1.0, step=0.01):
    return spec_for_rule(rule, s0=s0, delta=step, beta=step, n1=n1, n2=n2, lam=lam)


class TestGridSpec:
    def test_rejects_unreachable_top_rows(self):
        with pytest.raises(ValueError, match="n1 <= p"):
            GridSpec(1.0, 0.01, 0.01, p=1, n1=11, n2=10, lam=(10,))

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            GridSpec(1.0, 0.01, 0.01, 1, 5, 5, lam=(3, 3, 5))
        with pytest.raises(ValueError, match="equal n2"):
            GridSpec(1.0, 0.01, 0.01, 1, 5, 5, lam=(4,))
        with pytest.raises(ValueError, match="non-empty"):
            GridSpec(1.0, 0.01, 0.01, 1, 5, 5, lam=())

    def test_rejects_nonpositive_scalars(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, 0.01, 0.01, 1, 5, 5, lam=(5,))
        with pytest.raises(ValueError):
            GridSpec(1.0, -0.01, 0.01, 1, 5, 5, lam=(5,))
        for beta in (math.nan, math.inf):
            with pytest.raises(ValueError, match="beta must be finite"):
                GridSpec(1.0, 0.01, beta, 1, 5, 5, lam=(5,))

    @pytest.mark.parametrize("field, value", [("lam", (2.7, 4)), ("lam", (True, 4)), ("n1", 2.5), ("n1", True),
                                              ("p", True), ("n2", np.float64(4.0))], ids=repr)
    def test_rejects_non_integer_sizes(self, field, value):
        # int() would truncate 2.7 to 2 and take True for 1; numpy integers are read as ints.
        sizes = dict(p=1, n1=4, n2=4, lam=(2, 4))
        with pytest.raises(ValueError, match="must be an integer >= 1, got"):
            GridSpec(1.0, 0.01, 0.01, **{**sizes, field: value})
        spec = GridSpec(1.0, 0.01, 0.01, np.int64(1), np.int32(4), np.int64(4), (np.int64(2), 4))
        assert spec == GridSpec(1.0, 0.01, 0.01, **sizes) and type(spec.n1) is type(spec.lam[0]) is int

    @pytest.mark.parametrize("s0, delta, n1", [(1.0, 1.0, 710), (1e300, 0.1, 200)])
    def test_rejects_overflowing_top_price(self, s0, delta, n1):
        # exp(710) overflows; 1e300 * exp(20) is finite factors, infinite product.
        with pytest.raises(ValueError, match=r"s0=.*delta=.*n1=") as e:
            GridSpec(s0, delta, delta, p=1, n1=n1, n2=n1, lam=(n1,))
        assert "not finite" in str(e.value)


    @pytest.mark.parametrize("rule", [bjn_rule(), MARule(3), MARule(2, allow_flat=True), MBRule(3, 2),
                                      inject_arbitrage(MARule(2), 0.1, 1)], ids=repr)
    @pytest.mark.parametrize("wider", [1, 3])
    def test_cone_wider_than_rule_prices_the_same(self, rule, wider):
        spec = spec_from_total_variance(rule, 1.0, 0.0067, 20, (10, 20))
        for z in (Payoff.call(1.0), Payoff.butterfly(0.95, 1.05)):
            assert repr(price(dataclasses.replace(spec, p=rule.p + wider), rule, z)) == repr(price(spec, rule, z))


class TestReachable:
    def test_ma_p2_from_origin(self):
        rule = MARule(2)
        spec = make_spec(rule, 10, 10)
        got = reachable(spec, rule, (0, 0))
        assert got == [(-1, 1), (1, 1), (-1, 2), (1, 2), (-1, 3), (1, 3),
                       (-2, 4), (-1, 4), (1, 4), (2, 4)]

    def test_bjn_from_origin(self):
        rule = bjn_rule()
        spec = make_spec(rule, 10, 10)
        assert reachable(spec, rule, (0, 0)) == [(-1, 1), (1, 1)]

    def test_terminal_column_empty(self):
        rule = bjn_rule()
        spec = make_spec(rule, 10, 10)
        assert reachable(spec, rule, (3, 10)) == []

    def test_output_in_grid_and_j_increases(self):
        rule = MARule(3)
        spec = make_spec(rule, 12, 8)
        rng = np.random.default_rng(5)
        for _ in range(50):
            j = int(rng.integers(0, spec.n2))
            w = spec.column_half_width(j)
            k = int(rng.integers(-w, w + 1))
            for kk, jj in reachable(spec, rule, (k, j)):
                assert spec.in_grid(kk, jj)
                assert jj > j

    def test_monotone_in_p(self):
        # Larger jump caps only enlarge the admissible successor set.
        rng = np.random.default_rng(11)
        for p in (1, 2, 3):
            small, big = MARule(p), MARule(p + 1)
            spec_s = make_spec(small, 10, 10)
            spec_b = make_spec(big, 10, 10)
            for _ in range(30):
                j = int(rng.integers(0, 10))
                w = spec_s.column_half_width(j)
                k = int(rng.integers(-w, w + 1))
                if not spec_b.in_grid(k, j):
                    continue
                assert set(reachable(spec_s, small, (k, j))) <= \
                    set(reachable(spec_b, big, (k, j)))

    def test_rejects_vertex_outside_grid(self):
        rule = bjn_rule()
        spec = make_spec(rule, 10, 10)
        with pytest.raises(ValueError):
            reachable(spec, rule, (5, 2))


class TestRules:
    def test_bjn_is_unit_jump_ma(self):
        assert bjn_rule().kind == "BJN"
        assert MARule(2).kind == "MA"
        assert MARule(1, allow_flat=True).kind == "MA"

    def test_mb_integer_windows(self):
        rule = MBRule(p_max=3, A=2)
        bands = dict((dk, (lo, hi)) for dk, lo, hi in rule.bands())
        # |dk| = 3 needs dj in [4.5, 4.5]: no integer, so the band is dropped.
        assert set(bands) == {-2, -1, 1, 2}
        assert bands[1] == (1, 4) and bands[2] == (2, 4)
        assert rule.max_dj == 4

    def test_mb_unit_jump_needs_unit_horizon(self):
        with pytest.raises(ValueError, match="p = 1"):
            MBRule(p_max=1, A=2)
        assert MBRule(p_max=1, A=1).bands() == MARule(1).bands()

    def test_mb_rejects_empty_rule(self):
        with pytest.raises(ValueError, match="no admissible"):
            MBRule(p_max=2, A=5)

    @pytest.mark.parametrize("flat", [False, True])
    def test_ma_is_mb_with_unit_horizon(self, flat):
        for p in range(1, 10):
            ma, mb = MARule(p, flat), MBRule(p, 1, flat)
            assert ma.bands() == mb.bands()
            assert (ma.p, ma.max_dj) == (mb.p, mb.max_dj) == (p, p * p)
            assert ma.kind == ("BJN" if p == 1 and not flat else "MA")
            assert mb.kind == "MB"
        assert repr(MARule(3)) == "MARule(p_max=3, allow_flat=False)"
        assert repr(MARule(2, allow_flat=True)) == "MARule(p_max=2, allow_flat=True)"
        with pytest.raises(ValueError, match="p must be >= 1"):
            MARule(0)

    def test_modified_requires_ma_family(self):
        with pytest.raises(ValueError):
            ModifiedRule(base=MBRule(2, 2), fraction=0.1, seed=1)
        with pytest.raises(ValueError):
            ModifiedRule(base=bjn_rule(), fraction=1.5, seed=1)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            ModifiedRule(base=MARule(3), fraction=0.1, seed=-1)


class TestClassify:
    def test_interior_up_down(self):
        rule = MARule(1)
        spec = make_spec(rule, 10, 10)
        assert classify_node(spec, rule, (0, 0)) is NodeClass.UP_DOWN

    def test_boundary_with_flats_is_arbitrage(self):
        # n1 < p * n2: at k = +n1 only flats and down moves remain admissible.
        rule = MARule(3, allow_flat=True)
        spec = make_spec(rule, 5, 10)
        assert classify_node(spec, rule, (5, 8)) is NodeClass.NEGATIVE_ARBITRAGE
        assert classify_node(spec, rule, (-5, 8)) is NodeClass.POSITIVE_ARBITRAGE

    def test_boundary_without_flats_is_not_zero_neutral(self):
        rule = MARule(3)
        spec = make_spec(rule, 5, 10)
        assert classify_node(spec, rule, (5, 8)) is NodeClass.NOT_ZERO_NEUTRAL

    def test_modified_vertices_become_arbitrage(self):
        base = bjn_rule()
        mod = ModifiedRule(base=base, fraction=1.0, seed=3)
        spec = make_spec(mod, 6, 6)
        for v in ((0, 0), (2, 2), (1, 3)):
            expect = NodeClass.NEGATIVE_ARBITRAGE if v[0] >= 0 \
                else NodeClass.POSITIVE_ARBITRAGE
            assert classify_node(spec, mod, v) is expect, v

    def test_terminal_column_rejected(self):
        rule = bjn_rule()
        spec = make_spec(rule, 4, 4)
        with pytest.raises(ValueError):
            classify_node(spec, rule, (0, 4))

    def test_matches_flag_reimplementation(self):
        # Classification is a pure function of move signs, order-independent.
        rule = MARule(2, allow_flat=True)
        spec = make_spec(rule, 6, 8)
        rng = np.random.default_rng(7)
        for _ in range(40):
            j = int(rng.integers(0, 8))
            w = spec.column_half_width(j)
            k = int(rng.integers(-w, w + 1))
            succ = reachable(spec, rule, (k, j))
            rng.shuffle(succ)
            up = any(kk > k for kk, _ in succ)
            dn = any(kk < k for kk, _ in succ)
            fl = any(kk == k for kk, _ in succ)
            got = classify_node(spec, rule, (k, j))
            if up and dn:
                assert got is NodeClass.UP_DOWN
            elif up and fl:
                assert got is NodeClass.POSITIVE_ARBITRAGE
            elif dn and fl:
                assert got is NodeClass.NEGATIVE_ARBITRAGE
            elif fl:
                assert got is NodeClass.FLAT
            else:
                assert got is NodeClass.NOT_ZERO_NEUTRAL


class DoubleStepRule(TransitionRule):
    """Test-only rule: unit price moves, variation always advances by 2."""

    kind = "DOUBLE"

    @property
    def p(self):
        return 1

    @property
    def max_dj(self):
        return 2

    def bands(self):
        return ((-1, 2, 2), (1, 2, 2))


class FlatTailRule(TransitionRule):
    """Test-only rule: a flat step of one column, unit price moves of two.

    Column ``n2 - 1`` has only the flat move, so every vertex there is flat.
    """

    kind = "FLATTAIL"

    @property
    def p(self):
        return 1

    @property
    def max_dj(self):
        return 2

    def bands(self):
        return ((0, 1, 1), (-1, 2, 2), (1, 2, 2))


class OverlapRule(TransitionRule):
    """Test-only rule: bands out of dk order, two of them overlapping in dk = 1."""

    kind = "OVERLAP"

    @property
    def p(self):
        return 1

    @property
    def max_dj(self):
        return 3

    def bands(self):
        return ((1, 2, 3), (-1, 1, 3), (1, 1, 1), (1, 1, 2))


class TestValidate:
    def test_unit_jump_all_up_down(self):
        rule = MARule(1)
        spec = make_spec(rule, 10, 10)
        report = validate_model(spec, rule)
        assert report.ok
        assert set(report.counts) == {NodeClass.UP_DOWN}
        assert all(cls is NodeClass.UP_DOWN for cls in report.classes.values())

    def test_no_flat_models_with_square_grid_are_up_down(self):
        for rule in (MARule(2), MARule(3), MBRule(p_max=3, A=2)):
            spec = make_spec(rule, 10, 10)
            report = validate_model(spec, rule)
            assert report.ok
            assert set(report.counts) == {NodeClass.UP_DOWN}, rule.kind

    def test_boundary_arbitrage_flagged_but_zero_neutral(self):
        rule = MARule(3, allow_flat=True)
        spec = make_spec(rule, 5, 10)
        report = validate_model(spec, rule)
        assert report.ok
        assert report.arbitrage_vertices
        assert all(abs(k) == 5 and j <= 9 for k, j in report.arbitrage_vertices)

    def test_boundary_without_flats_fails_zero_neutrality(self):
        rule = MARule(3)
        spec = make_spec(rule, 5, 10)
        report = validate_model(spec, rule)
        assert not report.ok
        assert report.not_zero_neutral
        with pytest.raises(ValueError):
            report.raise_if_failed()

    def test_parity_mismatch_fails_liquidation_reach(self):
        rule = DoubleStepRule()
        spec = spec_for_rule(rule, 1.0, 0.01, 0.01, n1=9, n2=9, lam=(9,))
        report = validate_model(spec, rule)
        assert not report.ok
        assert not landable(spec, rule)[(0, 0)]
        # Only even columns are reachable, so column 9 is never hit: column 8 is all dead ends.
        assert report.not_zero_neutral == ((-4, 8), (-2, 8), (0, 8), (2, 8), (4, 8))

    def test_unlandable_vertex_fails_audit(self):
        # validate_model checks only 0-neutrality; its docstring proves that an
        # unlandable reachable vertex breaks it.  Guard that proof over random grids.
        rules = (bjn_rule(), MARule(2), MARule(3, allow_flat=True), MBRule(3, 2),
                 MBRule(4, 3, allow_flat=True), inject_arbitrage(MARule(3), 0.3, 7),
                 inject_arbitrage(MARule(2, allow_flat=True), 0.1, 1),
                 DoubleStepRule(), FlatTailRule(), OverlapRule())
        rng = np.random.default_rng(14)
        failing = 0
        for _ in range(200):
            rule = rules[rng.integers(len(rules))]
            n2 = int(rng.integers(1, 21))
            n1 = int(rng.integers(1, rule.p * n2 + 1))
            inner = rng.choice(np.arange(1, n2), min(int(rng.integers(4)), n2 - 1), replace=False)
            spec = make_spec(rule, n1, n2, tuple(sorted(inner.tolist())) + (n2,))
            land = landable(spec, rule)
            if not all(land[v] for v in bfs_reachable(spec, rule)):
                failing += 1
                report = validate_model(spec, rule)
                assert report.not_zero_neutral and not report.ok, (rule, n1, spec.lam)
        assert failing

    def test_report_covers_exactly_reachable_vertices(self):
        rule = bjn_rule()
        spec = make_spec(rule, 6, 6)
        report = validate_model(spec, rule)
        reach = reachable_masks(spec, rule)
        expected = {(int(i) - 6, j) for j in range(6) for i in np.flatnonzero(reach[j])}
        assert set(report.classes) == expected
        # Unit-jump parity: only k = j (mod 2) vertices are live.
        assert all((k - j) % 2 == 0 for k, j in report.classes)


def bfs_reachable(spec, rule):
    """Vertices reachable from (0, 0), one admissible move at a time."""
    seen = {(0, 0)}
    todo = [(0, 0)]
    while todo:
        for w in reachable(spec, rule, todo.pop()):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def landable(spec, rule):
    """Per vertex: on a lam column, or some admissible move reaches a landable vertex."""
    land = {}
    for j in range(spec.n2, -1, -1):
        w = spec.column_half_width(j)
        for k in range(-w, w + 1):
            land[(k, j)] = j in spec.lam or any(
                land[s] for s in reachable(spec, rule, (k, j)))
    return land


VECTOR_CASES = {
    "bjn": (bjn_rule(), 10, 10, None, True),
    "ma2": (MARule(2), 10, 10, None, True),
    "ma3": (MARule(3), 12, 12, None, True),
    "ma2_flat": (MARule(2, allow_flat=True), 10, 10, None, True),
    "ma3_flat": (MARule(3, allow_flat=True), 12, 12, None, True),
    "mb3_a2": (MBRule(p_max=3, A=2), 12, 12, None, True),
    "injected_ma3": (ModifiedRule(base=MARule(3), fraction=0.1, seed=1), 12, 12, None, True),
    "injected_bjn": (ModifiedRule(base=bjn_rule(), fraction=0.3, seed=3), 10, 10, None, True),
    "injected_seed7": (ModifiedRule(base=MARule(3), fraction=0.3, seed=7), 14, 14, None, False),
    "narrow_ma3": (MARule(3), 5, 10, None, False),
    "narrow_ma3_flat": (MARule(3, allow_flat=True), 5, 10, None, True),
    "inner_lam_ma2": (MARule(2), 12, 12, (4, 9, 12), True),
    "inner_lam_mb3_a2": (MBRule(p_max=3, A=2), 12, 12, (5, 12), True),
    "inner_lam_injected": (ModifiedRule(base=MARule(2), fraction=0.3, seed=5), 10, 10,
                           (3, 7, 10), True),
    "double_step": (DoubleStepRule(), 9, 9, None, False),
    "double_step_inner_lam": (DoubleStepRule(), 9, 9, (4, 9), False),
    "jump_wider_than_grid": (MARule(8), 3, 6, None, False),
    "jump_wider_than_grid_flat": (MARule(8, allow_flat=True), 3, 6, (2, 6), True),
}


def reachable_reference(spec, rule, v):
    """Every (dk, dj) of every band, kept when in the grid, sorted by (j, k)."""
    k, j = v
    out = [(k + dk, j + dj) for dk, lo, hi in rule.bands_at(spec, k, j)
           for dj in range(lo, hi + 1) if spec.in_grid(k + dk, j + dj)]
    return sorted(out, key=lambda w: (w[1], w[0]))


REACHABLE_CASES = {**{name: case[:4] for name, case in VECTOR_CASES.items()},
                   "overlap": (OverlapRule(), 8, 8, None)}


class TestReachableDefinition:
    """``reachable``'s list, order and duplicates included, is its definition."""

    @pytest.mark.parametrize("case", list(REACHABLE_CASES))
    def test_matches_reference_at_every_vertex(self, case):
        rule, n1, n2, lam = REACHABLE_CASES[case]
        spec = make_spec(rule, n1, n2, lam)
        for j in range(n2):
            w = spec.column_half_width(j)
            for k in range(-w, w + 1):
                assert reachable(spec, rule, (k, j)) == reachable_reference(spec, rule, (k, j))

    def test_overlapping_unsorted_bands_keep_duplicates(self):
        rule = OverlapRule()
        spec = make_spec(rule, 8, 8)
        assert reachable(spec, rule, (0, 0)) == [(-1, 1), (1, 1), (1, 1), (-1, 2), (1, 2),
                                                 (1, 2), (-1, 3), (1, 3)]


class TestVectorPasses:
    """The whole-column passes against per-vertex definitions."""

    @pytest.mark.parametrize("case", list(VECTOR_CASES))
    def test_match_per_vertex_definitions(self, case):
        rule, n1, n2, lam, ok = VECTOR_CASES[case]
        spec = make_spec(rule, n1, n2, lam)
        live = bfs_reachable(spec, rule)
        reach = reachable_masks(spec, rule)
        assert {(int(i) - n1, int(j)) for j, i in zip(*np.nonzero(reach))} == live

        report = validate_model(spec, rule)
        inner = sorted((v for v in live if v[1] < n2), key=lambda v: (v[1], v[0]))
        expected = {v: classify_node(spec, rule, v) for v in inner}
        assert report.classes == expected
        arb = (NodeClass.POSITIVE_ARBITRAGE, NodeClass.NEGATIVE_ARBITRAGE)
        assert report.arbitrage_vertices == tuple(v for v in inner if expected[v] in arb)
        assert report.not_zero_neutral == tuple(
            v for v in inner if expected[v] is NodeClass.NOT_ZERO_NEUTRAL)

        land = landable(spec, rule)
        if not all(land[v] for v in inner):
            assert report.not_zero_neutral and not report.ok
        assert report.ok is ok


class TestColumnMoves:
    """The cut class table that every column pass reads."""

    @pytest.mark.parametrize("case", list(REACHABLE_CASES))
    def test_entries_are_column_bands_cut_at_last_column(self, case):
        rule, n1, n2, lam = REACHABLE_CASES[case]
        spec = make_spec(rule, n1, n2, lam)
        moves = column_moves(spec, rule)
        assert len(moves) == n2
        for j, got in enumerate(moves):
            want = [(mask, tuple((dk, lo, min(hi, n2 - j)) for dk, lo, hi in bands if lo <= min(hi, n2 - j)))
                    for mask, bands in rule.column_classes(spec, j)]
            want = [(mask, bands) for mask, bands in want if bands]
            assert [bands for _, bands in got] == [bands for _, bands in want]
            assert all(g[0] is w[0] for g, w in zip(got, want))

    @pytest.mark.parametrize("rule, n2, lists", [(bjn_rule(), 1200, 1), (MARule(8), 200, 64)])
    def test_vertex_independent_rule_shares_lists(self, rule, n2, lists):
        moves = column_moves(spec_from_total_variance(rule, 1.0, 0.0067, n2), rule)
        assert len({id(m) for m in moves}) == lists
        assert all(moves[j] is moves[0] for j in range(n2 - rule.max_dj + 1))

    def test_injected_columns_without_selection_share_one_list(self):
        rule = inject_arbitrage(MARule(3), 0.01, 1)
        spec = make_spec(rule, 40, 40)
        moves = column_moves(spec, rule)
        selected = {j for _, j in rule.selection(spec)}
        free = [j for j in range(40) if j not in selected]
        early = [j for j in free if 40 - j >= rule.max_dj]
        late = [j for j in free if 40 - j < rule.max_dj]
        assert selected and early and late
        assert len({id(moves[j]) for j in early}) == 1
        assert len({id(moves[j]) for j in early[:1] + late}) == 1 + len(late)
        assert len({id(moves[j]) for j in selected}) == len(selected)


def modified_bands_by_definition(rule, spec, k, j):
    """``ModifiedRule``'s bands at (k, j) from its docstring: at a selected
    vertex with k >= 0, dk in [-p, 0] with dj in [1, p**2]; mirrored for k < 0;
    the base bands everywhere else."""
    p = rule.p
    if (k, j) not in rule.selection(spec):
        return sorted(rule.base.bands())
    dks = range(-p, 1) if k >= 0 else range(0, p + 1)
    return sorted((dk, 1, p * p) for dk in dks)


class TestModifiedBands:
    @pytest.mark.parametrize("base", [MARule(3), bjn_rule()], ids=["ma3", "bjn"])
    @pytest.mark.parametrize("fraction", [0.1, 0.3])
    def test_bands_at_matches_definition(self, base, fraction):
        rule = inject_arbitrage(base, fraction, seed=7)
        spec = make_spec(rule, 10, 10)
        assert rule.selection(spec)
        for j in range(spec.n2):
            w = spec.column_half_width(j)
            for k in range(-w, w + 1):
                assert sorted(rule.bands_at(spec, k, j)) == \
                    modified_bands_by_definition(rule, spec, k, j), (k, j)

    PARTITION_RULES = {f"{fraction}-{name}": inject_arbitrage(base, fraction, seed=7)
                       for name, base in [("ma3", MARule(3)), ("bjn", bjn_rule()),
                                          ("ma2_flat", MARule(2, allow_flat=True))]
                       for fraction in (0.1, 0.3, 1.0)}
    PARTITION_RULES.update(bjn=bjn_rule(), ma3=MARule(3), mb3a2_flat=MBRule(3, 2, allow_flat=True))

    @pytest.mark.parametrize("name", list(PARTITION_RULES))
    def test_masks_partition_each_column(self, name):
        # The classes are disjoint and cover the column, a None mask is the
        # only class, and bands_at reads the bands of the class that holds a vertex.
        rule = self.PARTITION_RULES[name]
        spec = make_spec(rule, 10, 10)
        split = 0
        for j in range(spec.n2):
            classes = rule.column_classes(spec, j)
            masks = [m for m, _ in classes]
            if any(m is None for m in masks):
                assert len(masks) == 1, j
            else:
                assert (np.sum(masks, axis=0) == 1).all(), j
                split += 1
            w = spec.column_half_width(j)
            for k in range(-w, w + 1):
                (want,) = [bands for m, bands in classes if m is None or m[k + spec.n1]]
                assert rule.bands_at(spec, k, j) == want, (k, j)
        assert bool(split) == isinstance(rule, ModifiedRule)


class TestModifiedSelection:
    def test_fraction_zero_is_identity(self):
        base = bjn_rule()
        mod = ModifiedRule(base=base, fraction=0.0, seed=9)
        spec = make_spec(mod, 8, 8)
        for j in range(8):
            w = spec.column_half_width(j)
            for k in range(-w, w + 1):
                assert reachable(spec, mod, (k, j)) == reachable(spec, base, (k, j))

    def test_selections_nested_across_fractions(self):
        base = bjn_rule()
        spec = make_spec(base, 10, 10)
        sel = [ModifiedRule(base=base, fraction=f, seed=4).selection(spec)
               for f in (0.1, 0.3, 0.7)]
        assert sel[0] <= sel[1] <= sel[2]

    def test_selection_size_and_determinism(self):
        base = bjn_rule()
        spec = make_spec(base, 10, 10)
        pool = int(sum(reachable_masks(spec, base)[j].sum() for j in range(10)))
        a = ModifiedRule(base=base, fraction=0.3, seed=4).selection(spec)
        b = ModifiedRule(base=base, fraction=0.3, seed=4).selection(spec)
        assert a == b
        assert len(a) == round(0.3 * pool)
        assert all(j < spec.n2 for _, j in a)

    def test_selection_cached_per_grid_shape(self, monkeypatch):
        # The selection reads only (n1, n2, p), so an s0 scan computes it,
        # and so its one base reachability pass, once.
        calls = []

        def counted(spec, rule):
            calls.append(spec)
            return reachable_masks(spec, rule)

        rule = ModifiedRule(base=MARule(3), fraction=0.1, seed=1)
        specs = [spec_from_total_variance(rule, s0, 0.0067, 60) for s0 in (0.9, 1.0, 1.1)]
        monkeypatch.setattr("trajbounds.model.reachable_masks", counted)
        for spec in specs:
            price(spec, rule, Payoff.call(1.0))
        assert len(calls) == 1
        monkeypatch.undo()
        assert rule.selection(specs[0]) == rule.selection(specs[1]) == rule.selection(specs[2])
