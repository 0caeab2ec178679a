import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varsparse._rng import substream
from varsparse.envs import InterventionRegime
from varsparse.experiments import ExperimentConfig, make_dataset
from varsparse.scm import (
    DagAdjacency,
    LinearMechanism,
    NoiseSpec,
    Scm,
    builtin_nonlinear_scm,
    chain_example_scm,
    sample,
    sample_er_dag,
    sample_linear_scm,
)


def test_er_dag_p0_is_empty():
    for seed in range(20):
        assert sample_er_dag(6, 0.0, seed).n_edges == 0


def test_er_dag_p1_is_complete():
    for seed in range(20):
        dag = sample_er_dag(6, 1.0, seed)
        assert dag.n_edges == 15  # 6*5/2 forward slots


def test_er_dag_edge_fraction_matches_p():
    # 10^4 seeds at d=10, p=0.5: 45 Bernoulli slots each, so the mean
    # fraction concentrates tightly around 0.5
    total_slots = 10 * 9 // 2
    fracs = [sample_er_dag(10, 0.5, seed).n_edges / total_slots for seed in range(10_000)]
    assert abs(np.mean(fracs) - 0.5) < 0.02


def test_er_dag_is_acyclic():
    for seed in range(50):
        dag = sample_er_dag(8, 0.7, seed)
        order = dag.topological_order()
        pos = {node: k for k, node in enumerate(order)}
        src, dst = np.nonzero(dag.edges)
        assert all(pos[i] < pos[j] for i, j in zip(src, dst))


def test_er_dag_rejects_bad_p():
    with pytest.raises(ValueError):
        sample_er_dag(4, -0.1, 0)
    with pytest.raises(ValueError):
        sample_er_dag(4, 1.5, 0)


def test_adjacency_rejects_cycles_and_self_loops():
    edges = np.zeros((3, 3), dtype=bool)
    edges[0, 1] = edges[1, 2] = edges[2, 0] = True
    with pytest.raises(ValueError, match="cycle"):
        DagAdjacency(3, edges)
    loop = np.zeros((2, 2), dtype=bool)
    loop[0, 0] = True
    with pytest.raises(ValueError, match="self-loop"):
        DagAdjacency(2, loop)


def test_linear_scm_roots_are_pure_noise():
    dag = DagAdjacency(3, np.zeros((3, 3), dtype=bool))
    scm = sample_linear_scm(dag, 0)
    z = sample(scm, 100_000, rng_seed=1)
    assert np.allclose(z.mean(axis=0), 0.0, atol=0.01)
    assert np.allclose(z.var(axis=0), 0.1, atol=0.01)


def test_linear_coefficients_stay_in_range():
    for seed in range(1000):
        scm = sample_linear_scm(sample_er_dag(5, 0.8, seed), seed)
        for mech in scm.mechanisms:
            if len(mech.coeffs):
                assert mech.coeffs.min() >= -0.1
                assert mech.coeffs.max() <= 1.0


def test_linear_mechanism_coefficient_count_enforced():
    with pytest.raises(ValueError):
        LinearMechanism((0, 1), np.array([1.0]))


def test_builtin_graph_is_fixed():
    want = [(), (0,), (0, 1), (0, 1, 2), (0, 2, 3), (1, 2, 3, 4)]
    for which in (1, 2):
        scm = builtin_nonlinear_scm(which)
        assert [m.parents for m in scm.mechanisms] == want
        assert np.allclose(scm.noise.variances, 0.1)


def test_builtin_quadratic_node_values():
    scm = builtin_nonlinear_scm(1)
    # second node: square of its single parent
    out = scm.mechanisms[1].evaluate(np.array([[2.0]]), np.zeros(1))
    assert out[0] == pytest.approx(4.0)
    # third node: sum of two squared parents
    out = scm.mechanisms[2].evaluate(np.array([[1.0, 3.0]]), np.zeros(1))
    assert out[0] == pytest.approx(10.0)


def test_builtin_nonlinear2_node_values():
    scm = builtin_nonlinear_scm(2)
    out = scm.mechanisms[1].evaluate(np.array([[0.0]]), np.zeros(1))
    assert out[0] == pytest.approx(0.0)  # sin(0)
    out = scm.mechanisms[3].evaluate(np.array([[1.0, 1.0, 2.0]]), np.zeros(1))
    assert out[0] == pytest.approx(np.log(2.0) + 4.0)


def test_builtin_nonlinear2_domain_guards():
    scm = builtin_nonlinear_scm(2)
    # sqrt argument negative: floored, stays finite
    out = scm.mechanisms[2].evaluate(np.array([[-5.0, 1.0]]), np.zeros(1))
    assert np.isfinite(out).all()
    # log argument zero: floored
    out = scm.mechanisms[3].evaluate(np.array([[0.0, 0.0, 1.0]]), np.zeros(1))
    assert np.isfinite(out).all()
    # exp exponent divides by zero: clamped
    out = scm.mechanisms[5].evaluate(np.array([[1.0, 1.0, 3.0, 0.0]]), np.zeros(1))
    assert np.isfinite(out).all()
    # full samples stay finite too
    z = sample(scm, 50_000, rng_seed=3)
    assert np.isfinite(z).all()


def test_builtin_rejects_unknown_model():
    with pytest.raises(ValueError):
        builtin_nonlinear_scm(3)


def test_chain_intervention_pins_columns():
    scm = chain_example_scm()
    regime = InterventionRegime((0, 1), (1.0, 1.0))
    z = sample(scm, 10_000, intervention=regime, rng_seed=2)
    assert (z[:, 0] == 1.0).all()
    assert (z[:, 1] == 1.0).all()
    # last node becomes 2 + noise with unit variance
    assert z[:, 2].var() == pytest.approx(1.0, rel=0.05)
    assert z[:, 2].mean() == pytest.approx(2.0, abs=0.05)


def test_chain_observational_variances():
    # var(Z1)=1, var(Z2)=2, and Z3 = 2*eta1 + eta2 + eta3 so var(Z3)=6
    z = sample(chain_example_scm(), 100_000, rng_seed=4)
    assert z[:, 0].var() == pytest.approx(1.0, rel=0.05)
    assert z[:, 1].var() == pytest.approx(2.0, rel=0.05)
    assert z[:, 2].var() == pytest.approx(6.0, rel=0.05)


def test_intervened_columns_have_exactly_zero_variance():
    scm = builtin_nonlinear_scm(1)
    regime = InterventionRegime((1, 4), (0.3, -1.7))
    z = sample(scm, 5000, intervention=regime, rng_seed=9)
    assert np.ptp(z[:, 1]) == 0.0
    assert np.ptp(z[:, 4]) == 0.0
    untouched = [0, 2, 3, 5]
    assert (z[:, untouched].var(axis=0) > 1e-8).all()


def test_sampling_is_deterministic_and_seed_sensitive():
    scm = chain_example_scm()
    a = sample(scm, 500, rng_seed=11)
    b = sample(scm, 500, rng_seed=11)
    c = sample(scm, 500, rng_seed=12)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sampling_independent_of_topo_order():
    # diamond 0->{1,2}, {1,2}->3 admits two topological orders; per-node
    # noise streams must make the draw identical under both
    edges = np.zeros((4, 4), dtype=bool)
    edges[0, 1] = edges[0, 2] = edges[1, 3] = edges[2, 3] = True
    dag = DagAdjacency(4, edges)
    mechs = (
        LinearMechanism((), np.array([])),
        LinearMechanism((0,), np.array([0.5])),
        LinearMechanism((0,), np.array([-0.5])),
        LinearMechanism((1, 2), np.array([1.0, 1.0])),
    )
    noise = NoiseSpec.iid(4, 0.0, 0.1)
    one, two = Scm(dag, mechs, noise), Scm(dag, mechs, noise)
    object.__setattr__(one, "topo_order", (0, 1, 2, 3))
    object.__setattr__(two, "topo_order", (0, 2, 1, 3))
    assert np.array_equal(sample(one, 200, rng_seed=5), sample(two, 200, rng_seed=5))


def test_scm_validation():
    scm = chain_example_scm()
    bad_mechs = (scm.mechanisms[0], scm.mechanisms[0], scm.mechanisms[2])
    with pytest.raises(ValueError, match="parents"):
        Scm(scm.dag, bad_mechs, scm.noise)
    with pytest.raises(ValueError):
        NoiseSpec(np.zeros(2), np.array([0.1, 0.0]))


def test_sample_argument_errors():
    scm = chain_example_scm()
    with pytest.raises(ValueError):
        sample(scm, 0, rng_seed=0)
    with pytest.raises(ValueError, match="outside"):
        sample(scm, 10, intervention=InterventionRegime((5,), (1.0,)), rng_seed=0)

    class Lopsided:
        targets = (0, 1)
        values = (1.0,)

    with pytest.raises(ValueError, match="constants"):
        sample(scm, 10, intervention=Lopsided(), rng_seed=0)


def _reference_sample(scm, n, intervention, rng_seed):
    """sample() with one strided column fill per intervention target."""
    do = dict(zip(intervention.targets, intervention.values))
    z = np.empty((n, scm.d))
    stds = np.sqrt(scm.noise.variances)
    for j in scm.topo_order:
        if j in do:
            z[:, j] = do[j]
            continue
        noise = substream(rng_seed, j).normal(scm.noise.means[j], stds[j], size=n)
        parents = scm.mechanisms[j].parents
        z[:, j] = scm.mechanisms[j].evaluate(z[:, parents], noise)
    return z


@st.composite
def _scm_and_targets(draw):
    kind = draw(st.sampled_from(("linear", "nonlinear-1", "nonlinear-2")))
    if kind == "linear":
        d = draw(st.integers(1, 8))
        dag = sample_er_dag(d, draw(st.floats(0.0, 1.0)), draw(st.integers(0, 2**32)))
        scm = sample_linear_scm(dag, draw(st.integers(0, 2**32)))
    else:
        scm = builtin_nonlinear_scm(1 if kind == "nonlinear-1" else 2)
    edges = scm.dag.edges
    nodes = range(scm.d)
    choice = draw(st.sampled_from(("empty", "all", "roots", "sinks", "random")))
    targets = {
        "empty": [],
        "all": list(nodes),
        "roots": [j for j in nodes if not edges[:, j].any()],
        "sinks": [j for j in nodes if not edges[j].any()],
        "random": draw(st.lists(st.sampled_from(list(nodes)), unique=True)),
    }[choice]
    values = draw(st.lists(st.floats(-5.0, 5.0), min_size=len(targets), max_size=len(targets)))
    return scm, InterventionRegime(tuple(targets), tuple(values))


@settings(max_examples=200, deadline=None)
@given(_scm_and_targets(), st.integers(1, 300), st.integers(0, 2**32))
def test_sample_matches_per_column_reference(scm_and_targets, n, rng_seed):
    scm, regime = scm_and_targets
    got = sample(scm, n, intervention=regime, rng_seed=rng_seed)
    want = _reference_sample(scm, n, regime, rng_seed)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "design, digest",
    [
        ("leave-one-out", "c5d3c1c43f778b9b35574b0d793c9331b2a1c5365b487ceecef087a1375f59c5"),
        ("separating", "0fa231ff45fe2898309c0107a5bdab34af2cabafea009f51dfd8176964abfabf"),
    ],
)
def test_small_dataset_bytes_are_pinned(design, digest):
    # any change to sampling, mixing or the design constants moves this digest
    dataset, _ = make_dataset(ExperimentConfig(d=6, n_per_env=64, design=design), seed=0)
    h = hashlib.sha256()
    for z, x in zip(dataset.latents, dataset.observed):
        h.update(z.tobytes())
        h.update(x.tobytes())
    assert h.hexdigest() == digest
