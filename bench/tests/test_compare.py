"""Verdicts of ``bench/compare.py`` on made-up runs paired by seed."""

from bench.compare import verdict

PARENT = {seed: 100.0 + seed for seed in range(10)}  # q1..q3 spread ~5%


def shifted(factor):
    return {seed: value * factor for seed, value in PARENT.items()}


def test_a_clear_win_is_improved():
    assert verdict(PARENT, shifted(0.8), True, 0.1) == "improved"
    assert verdict(PARENT, shifted(1.2), False, 0.1) == "improved"


def test_a_loss_beyond_the_bound_is_regressed():
    assert verdict(PARENT, shifted(1.2), True, 0.1) == "regressed"


def test_a_small_move_is_unchanged():
    assert verdict(PARENT, shifted(1.01), True, 0.1) == "unchanged"


def test_a_parent_wider_than_the_bound_is_unresolved():
    assert verdict(PARENT, shifted(1.01), True, 0.02) == "unresolved"


def test_per_layer_metrics_get_the_pair_rule_only():
    assert verdict(PARENT, shifted(0.8), True, None) == "improved"
    assert verdict(PARENT, shifted(1.2), True, None) == "worse"
    assert verdict(PARENT, shifted(1.01), True, None) == "-"
