import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varsparse.envs import (
    CoverageReport,
    EnvironmentSet,
    InterventionRegime,
    check_sufficient_coverage,
    coverage_from_supports,
    leave_one_out_design,
    separating_design,
    support_sets,
)


def _brute_force_coverage(d, supports):
    # literal evaluation of the set equation, used as the oracle
    ok = True
    for j in range(d):
        union = set()
        for s in supports:
            if j not in s:
                union.update(s)
        ok = ok and union == set(range(d)) - {j}
    return ok


def test_support_is_target_complement():
    envs = EnvironmentSet(
        3,
        (
            InterventionRegime((0, 1), (1.0, 1.0)),
            InterventionRegime((), ()),
        ),
    )
    assert support_sets(envs) == [frozenset({2}), frozenset({0, 1, 2})]
    envs4 = EnvironmentSet(4, (InterventionRegime((0, 2), (0.1, 0.2)),))
    assert support_sets(envs4) == [frozenset({1, 3})]


def test_coverage_rejects_coupled_interventions():
    # coordinates 0 and 1 only ever intervened together: each is missing
    # from the other's reachable union
    report = coverage_from_supports(
        3, [frozenset({2}), frozenset({2}), frozenset({0, 1})]
    )
    assert not report.passed
    assert report.missing == {0: frozenset({1}), 1: frozenset({0})}
    assert "coordinate 0" in str(report)


def test_coverage_accepts_one_survivor_per_regime():
    report = coverage_from_supports(3, [frozenset({2}), frozenset({0}), frozenset({1})])
    assert report.passed
    assert report.missing == {}


def test_coverage_matches_brute_force_exhaustively():
    # every multiset of up to 3 distinct supports for d <= 4
    for d in (2, 3, 4):
        subsets = [frozenset(s) for r in range(d + 1) for s in itertools.combinations(range(d), r)]
        for k in (1, 2, 3):
            for supports in itertools.combinations(subsets, k):
                got = coverage_from_supports(d, list(supports)).passed
                assert got == _brute_force_coverage(d, supports)


def test_always_targeted_coordinate_breaks_coverage():
    for d in (2, 3, 5):
        for j in range(d):
            # every regime targets j plus one rotating extra coordinate
            regimes = []
            for extra in range(d):
                if extra == j:
                    continue
                targets = tuple(sorted({j, extra}))
                regimes.append(InterventionRegime(targets, (1.0,) * len(targets)))
            report = check_sufficient_coverage(EnvironmentSet(d, tuple(regimes)))
            assert not report.passed
            assert any(j in miss for miss in report.missing.values())


def test_adding_regimes_never_breaks_a_passing_set():
    base = leave_one_out_design(4, 0)
    assert check_sufficient_coverage(base).passed
    for extra_targets in [(), (0,), (1, 2), (0, 1, 2)]:
        extra = InterventionRegime(extra_targets, (0.5,) * len(extra_targets))
        grown = EnvironmentSet(4, base.regimes + (extra,))
        assert check_sufficient_coverage(grown).passed


def test_leave_one_out_supports_are_singletons():
    envs = leave_one_out_design(3, 7)
    assert support_sets(envs) == [frozenset({0}), frozenset({1}), frozenset({2})]
    assert support_sets(leave_one_out_design(2, 7)) == [frozenset({0}), frozenset({1})]


def test_leave_one_out_passes_coverage_up_to_30():
    for d in range(2, 31):
        assert check_sufficient_coverage(leave_one_out_design(d, 1)).passed


def test_leave_one_out_rejects_small_d():
    with pytest.raises(ValueError, match="d >= 2"):
        leave_one_out_design(1, 0)


def test_design_constants_fixed_and_in_range():
    a = leave_one_out_design(5, 3)
    b = leave_one_out_design(5, 3)
    c = leave_one_out_design(5, 4)
    for ra, rb in zip(a.regimes, b.regimes):
        assert ra.values == rb.values
    assert any(ra.values != rc.values for ra, rc in zip(a.regimes, c.regimes))
    assert all(-2.0 <= v <= 2.0 for r in a.regimes for v in r.values)


def test_separating_design_small_cases():
    four = separating_design(4, 0)
    assert [r.targets for r in four.regimes] == [(1, 3), (0, 2), (2, 3), (0, 1)]
    two = separating_design(2, 0)
    assert [r.targets for r in two.regimes] == [(1,), (0,)]


def test_separating_design_count_and_coverage_up_to_64():
    prev = 0
    for d in range(2, 65):
        envs = separating_design(d, 2)
        bound = 2 * math.ceil(math.log2(d))
        assert len(envs) <= bound
        assert len(envs) >= prev  # nondecreasing in d
        prev = len(envs)
        assert check_sufficient_coverage(envs).passed


def test_separating_design_rejects_small_d():
    with pytest.raises(ValueError):
        separating_design(1, 0)


def test_regime_validation():
    with pytest.raises(ValueError, match="duplicate"):
        InterventionRegime((1, 1), (0.0, 0.0))
    with pytest.raises(ValueError, match="values"):
        InterventionRegime((1, 2), (0.0,))
    with pytest.raises(ValueError, match="negative"):
        InterventionRegime((0, -1), (0.0, 0.0))
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="values must be finite"):
            InterventionRegime((0,), (value,))
    # targets are validated, not coerced: a bool or a float is no index
    for target in (0.7, 1.0, True, "1"):
        with pytest.raises(ValueError, match="target must be an integer"):
            InterventionRegime((target,), (0.0,))
    assert InterventionRegime((np.int64(2),), (0.0,)).targets == (2,)
    # so are values: a bool or a string is no number
    for value in (True, np.True_, "1.5", None, 1j):
        with pytest.raises(ValueError, match="intervention value must be a real number"):
            InterventionRegime((0,), (value,))
    assert InterventionRegime((0, 1), (np.float32(0.5), 2)).values == (0.5, 2.0)
    reg = InterventionRegime((3, 1), (0.3, 0.1))
    assert reg.targets == (1, 3)
    assert reg.values == (0.1, 0.3)  # pairing preserved under sorting


def test_environment_set_validation():
    reg = InterventionRegime((2,), (1.0,))
    with pytest.raises(ValueError, match="outside"):
        EnvironmentSet(2, (reg,))
    with pytest.raises(ValueError, match="dimension"):
        EnvironmentSet(0, ())
    assert len(EnvironmentSet(3, (reg, reg))) == 2


def test_environment_set_json_round_trip():
    envs = leave_one_out_design(4, 9)
    back = EnvironmentSet.from_json(envs.to_json())
    assert back.d == envs.d
    assert back.regimes == envs.regimes
    with pytest.raises(ValueError, match="malformed"):
        EnvironmentSet.from_json("{\"regimes\": []}")
    for text in (
        '{"d": 3.9, "regimes": []}',
        '{"d": true, "regimes": []}',
        '{"d": 3, "regimes": [{"targets": [0.7, true], "values": [1.0, 2.0]}]}',
        '{"d": 3, "regimes": [{"targets": [0], "values": [NaN]}]}',
        '{"d": 2, "regimes": [{"targets": [0], "values": [true]}]}',
        '{"d": 2, "regimes": [{"targets": [1], "values": ["1.5"]}]}',
    ):
        with pytest.raises(ValueError, match="malformed"):
            EnvironmentSet.from_json(text)


@st.composite
def _design_and_permutation(draw):
    d = draw(st.integers(1, 7))
    regimes = draw(
        st.lists(
            st.lists(st.integers(0, d - 1), unique=True).map(
                lambda t: InterventionRegime(tuple(t), tuple(float(k) for k in range(len(t))))
            ),
            max_size=8,
        )
    )
    return EnvironmentSet(d, tuple(regimes)), draw(st.permutations(range(d)))


@settings(max_examples=300, deadline=None)
@given(_design_and_permutation())
def test_coverage_verdict_survives_relabelled_coordinates(design_and_permutation):
    envs, perm = design_and_permutation
    relabelled = EnvironmentSet(
        envs.d,
        tuple(
            InterventionRegime(tuple(perm[t] for t in r.targets), r.values) for r in envs.regimes
        ),
    )
    report = check_sufficient_coverage(envs)
    moved = check_sufficient_coverage(relabelled)
    assert moved.passed == report.passed
    assert moved.missing == {
        perm[j]: frozenset(perm[i] for i in miss) for j, miss in report.missing.items()
    }
