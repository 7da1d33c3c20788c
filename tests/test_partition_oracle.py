"""Ward-Dutton partition rule against a 100-digit oracle at every corner.

``data/partition_oracle.csv`` is written by ``scripts/partition_oracle.py``:
end charges (q_s, q_d) from the Householder solver at 27 corners x 10 bias
points, half of them at small drain-source splits, with the channel-average
and drain-weighted charges integrated by mpmath at 100 digits.
"""

import pathlib

import numpy as np

from synapsim.mosfet import MosParams, _partition_quadrature, terminal_charges

from conftest import box_param_sets

TABLE = pathlib.Path(__file__).parent / "data" / "partition_oracle.csv"
TOL = 1e-13


def _corners():
    """{(n_a, t_si, eot): rows} of the oracle table."""
    rows = np.loadtxt(TABLE, delimiter=",", skiprows=2)
    out = {}
    for row in rows:
        out.setdefault(tuple(row[:3]), []).append(row[3:])
    return {key: np.array(val) for key, val in out.items()}


def test_table_covers_every_box_corner():
    table = _corners()
    assert set(table) == {(p.n_a, p.t_si, p.eot) for p in box_param_sets()}
    for rows in table.values():
        q_s, q_d = rows[:, 0], rows[:, 1]
        split = (q_s - q_d) / (q_s + q_d)
        assert np.all(split > 0.0)
        assert np.min(split) < 1e-4 and np.max(split) > 0.9


def test_partition_rule_matches_oracle_at_every_corner():
    worst = {}
    for (n_a, t_si, eot), rows in _corners().items():
        p = MosParams(n_a=n_a, t_si=t_si, eot=eot)
        q_s, q_d, avg_o, drain_o = rows.T
        avg, drain = _partition_quadrature(p, q_s, q_d)
        worst[(n_a, t_si, eot)] = max(np.max(np.abs(avg - avg_o) / avg_o),
                                      np.max(np.abs(drain - drain_o) / drain_o))
    corner = max(worst, key=worst.get)
    assert worst[corner] <= TOL, f"rel err {worst[corner]:.2e} at {corner}"


def test_terminal_charges_match_oracle_off_symmetry():
    """The public function, given the table's end charges, reproduces the
    oracle's charges on every row, the small-split half included."""
    for (n_a, t_si, eot), rows in _corners().items():
        p = MosParams(n_a=n_a, t_si=t_si, eot=eot)
        q_s, q_d, avg_o, drain_o = rows.T
        tc = terminal_charges(p, 0.0, 1.0, q_is=q_s, q_id=q_d)
        area = p.w * p.l
        np.testing.assert_allclose(tc.q_d, -area * drain_o, rtol=TOL)
        np.testing.assert_allclose(tc.q_s, -area * (avg_o - drain_o), rtol=TOL)
        np.testing.assert_allclose(tc.q_g, area * (avg_o + p.q_b), rtol=TOL)
