"""Quick checks of the benchmark's reference computations and operation lists."""

import checks
import inputs
import reference


def test_reference_matches_hand_values():
    reference.self_check()


def test_workload_sizes():
    decide = inputs.make_ops("decide_sweep", 0)
    products = [op for op in decide if op["meta"]["kind"] == "product"]
    assert len(products) == 2 * 4242 + 4 * 20 + 2 * 10 + 2 * 30
    assert len(decide) == len(products) + len(inputs.R9_TREES) + inputs.TREE_COUNT
    assert len(inputs.make_ops("certify_ladder", 0)) >= 100
    census = inputs.make_ops("orbit_census", 0)
    assert sum(op["meta"]["kind"] == "pair" for op in census) == 84
    assert len(census) >= 100


def test_inputs_follow_the_seed():
    texts = [[op["text"] for op in inputs.make_ops("decide_sweep", s)] for s in (3, 3, 4)]
    assert texts[0] == texts[1] != texts[2]


def test_checks_flag_a_wrong_count():
    ops = inputs.make_ops("orbit_census", 0)[:1]
    a, b = ops[0]["meta"]["factors"]
    n, q = ops[0]["meta"]["n"], ops[0]["meta"]["q"]
    points = reference.flag_point_count(a, n, q) * reference.flag_point_count(b, n, q)
    orbits = reference.flag_pair_orbits(a, b, n)
    assert checks.orbit_census(ops, [[points, orbits]]) == {}
    assert checks.orbit_census(ops, [[points, orbits + 1]])[0][0] == "wrong"
