"""Working-memory bounds of generating, testing and decoding one large instance,
and of the closed-form moments at a large N.

tracemalloc sees numpy's data allocations, so a T x N temporary shows in
these peaks. The instance has the size of the ``decode_large`` benchmark's:
N=5000, T=400, k=50, p=1/51, a 2 MB matrix.
"""

import tracemalloc

import pytest

from grouptest import DECODERS, DesignSpec, dd, decode, generate, run_tests, sample_defective_set, theory

N_ITEMS, N_TESTS, N_DEFECTIVES = 5000, 400, 50
SPEC = DesignSpec("bernoulli", N_ITEMS, N_TESTS, inclusion_prob=1 / (N_DEFECTIVES + 1), seed=7)
MIB = 2**20


def _peak(call) -> int:
    """Peak bytes traced while ``call()`` ran, above those traced before it."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()


@pytest.fixture(scope="module")
def instance():
    # One full pass first, so that imports made on first use are not counted.
    matrix = generate(SPEC)
    truth = sample_defective_set(N_ITEMS, N_DEFECTIVES, 8)
    outcomes = run_tests(matrix, truth)
    dd(matrix, outcomes)
    return matrix, truth, outcomes


def test_generate_holds_the_matrix_and_one_block(instance):
    nbytes = instance[0].dense.nbytes
    assert _peak(lambda: generate(SPEC)) <= nbytes + 2 * MIB


def test_run_tests_reads_only_the_defective_columns(instance):
    matrix, truth, _ = instance
    assert _peak(lambda: run_tests(matrix, truth)) < matrix.dense.nbytes / 10


@pytest.mark.parametrize("name", DECODERS)
def test_dd_works_on_the_potential_defective_columns(instance, name):
    # Every decoder builds the whole COMP/DD stage, which stays below the
    # matrix; SCOMP and W-SCOMP add their float64 increments over the greedy block.
    matrices = 2 if name in ("scomp", "wscomp") else 1
    matrix, _, outcomes = instance
    assert _peak(lambda: decode(name, matrix, outcomes)) < matrices * matrix.dense.nbytes


def test_weighted_moments_take_o_n_memory():
    # A k x (N-k) float64 array alone would be 76 MiB here; O(N) arrays are 0.8 MB each.
    theory.weighted_moments(100, 10, 0.1)  # first use, as in ``instance``
    assert _peak(lambda: theory.weighted_moments(10**5, 100, 1 / 101)) <= 16 * MIB
