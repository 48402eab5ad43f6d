import numpy as np
import pytest

from sdpxlab.auxgraph import aux_graph_stable
from sdpxlab.colors import Algo, run_to_stable
from sdpxlab.core import SdpInstance, SizeGuardError, SparseSymMatrix
from sdpxlab.verify import (
    latin_square_instance,
    prop_diag_pair_instance,
    sample_instances,
)

from oracles import reference_aux_graph_stable


def _assert_matches_oracle(inst):
    got, ref = aux_graph_stable(inst), reference_aux_graph_stable(inst)
    assert got == ref and got.rounds == ref.rounds, (inst.n, inst.m)
    return got


def test_matches_direct_on_named_instances():
    for inst in (prop_diag_pair_instance(), latin_square_instance()):
        direct, _ = run_to_stable(Algo.VC2FWL, inst)
        assert _assert_matches_oracle(inst) == direct


def test_matches_direct_on_sampled_instances():
    for inst in sample_instances(23, per_generator=1, n_lo=3, n_hi=8):
        direct, _ = run_to_stable(Algo.VC2FWL, inst)
        assert aux_graph_stable(inst) == direct


@pytest.mark.parametrize("seed", range(6))
def test_partition_and_rounds_match_the_python_oracle(seed):
    # the instance sets of verify's aux_graph and equivariance cases
    for inst in (sample_instances(seed, 2, 3, 8)
                 + sample_instances(seed, per_generator=1, n_lo=4, n_hi=9)):
        _assert_matches_oracle(inst)


def test_instance_without_constraints():
    inst = SdpInstance(n=3, C=[[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 3.0]],
                       A=(), b=[])
    part = _assert_matches_oracle(inst)
    assert part.con.shape == (0,)
    assert part == run_to_stable(Algo.VC2FWL, inst)[0]


def test_constraint_without_entries():
    inst = SdpInstance(n=2, C=np.eye(2),
                       A=(SparseSymMatrix.from_coords(2, []),
                          SparseSymMatrix.from_coords(2, [(0, 1, 1.0)])),
                       b=[0.0, 1.0])
    part = _assert_matches_oracle(inst)
    assert part == run_to_stable(Algo.VC2FWL, inst)[0]
    assert part.con[0] != part.con[1]


def test_entry_values_color_the_constraint_edges():
    # (0, 0) and (1, 1) differ only in their coefficient in the one constraint
    inst = SdpInstance(n=2, C=np.eye(2),
                       A=(SparseSymMatrix.from_coords(2, [(0, 0, 1.0), (1, 1, 2.0)]),),
                       b=[1.0])
    part = _assert_matches_oracle(inst)
    assert part == run_to_stable(Algo.VC2FWL, inst)[0]
    assert part.var[0, 0] != part.var[1, 1]


def test_single_cell_instance():
    inst = SdpInstance(n=1, C=[[2.0]],
                       A=(SparseSymMatrix.from_coords(1, [(0, 0, 1.0)]),),
                       b=[1.0])
    part = _assert_matches_oracle(inst)
    assert part.n_var_classes == 1 and part.n_con_classes == 1


def test_size_guard():
    n = 25
    inst = SdpInstance(n=n, C=np.zeros((n, n)),
                       A=(SparseSymMatrix.from_coords(n, [(0, 0, 1.0)]),),
                       b=[1.0])
    with pytest.raises(SizeGuardError):
        aux_graph_stable(inst)
    # raised before the instance's quantized view is even built
    assert "int_view" not in vars(inst)
