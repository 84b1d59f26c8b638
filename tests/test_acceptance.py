"""Runs every acceptance criterion at its stated tolerance.

One test per criterion; each prints its PASS/FAIL line so the suite output
doubles as the acceptance report.
"""
import numpy as np
import pytest

from catalab.acceptance import ALL_CRITERIA, _random_stab_state


@pytest.mark.parametrize("key", sorted(ALL_CRITERIA))
def test_criterion(key, capsys):
    result = ALL_CRITERIA[key]()
    with capsys.disabled():
        print(f"\n{result.line()}")
    assert result.passed, (
        f"criterion {key} failed: "
        f"{ {k: v for k, v in result.details.items() if k != 'reports'} }"
    )


def test_random_stabilizer_states_cover_one_site():
    # One site takes no two-site gate, so criterion 8's generator draws H
    # and S only there, and stays pure: all six one-qubit states occur.
    seen = set()
    for seed in range(20):
        for mixed in (False, True):
            state = _random_stab_state(1, np.random.default_rng(seed), mixed)
            assert (state.n, state.k) == (1, 1)
            seen.add(str(state.generators[0]))
    assert seen == {"+X", "-X", "+Y", "-Y", "+Z", "-Z"}
