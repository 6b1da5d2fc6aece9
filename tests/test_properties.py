"""Randomized invariant checks over small chains."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from xxchain.chain import ChainSpec, build_single_particle
from xxchain.amplitudes import propagator
from xxchain.fidelity import average_fidelity_exact
from xxchain.sector_oracle import (
    TwoQubitState,
    build_sector_hamiltonians,
    evolve,
    reduced_receiver_state,
)
from xxchain.spectral import diagonalize

common = settings(max_examples=25, deadline=None, derandomize=True)

chain_specs = st.builds(
    ChainSpec,
    N=st.integers(min_value=6, max_value=14),
    h=st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
)
times = st.floats(min_value=0.0, max_value=20.0, allow_nan=False)


def random_state(seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=4) + 1j * rng.normal(size=4)
    return TwoQubitState.from_vector(z / np.linalg.norm(z))


@common
@given(chain_specs, times)
def test_propagator_unitary(spec, t):
    amp = propagator(diagonalize(build_single_particle(spec)), t)
    assert np.allclose(amp.f @ amp.f.conj().T, np.eye(spec.N), atol=1e-10)


@common
@given(chain_specs, times)
def test_edge_amplitude_constraint(spec, t):
    amp = propagator(diagonalize(build_single_particle(spec)), t)
    s1 = spec.senders[0]
    r1, r2 = spec.receivers
    assert abs(amp.entry(s1, r1)) ** 2 + abs(amp.entry(s1, r2)) ** 2 <= 1.0 + 1e-9


@common
@given(chain_specs, times)
def test_mirror_symmetry(spec, t):
    amp = propagator(diagonalize(build_single_particle(spec)), t)
    N = spec.N
    for n, m in ((1, N - 1), (2, N), (1, N)):
        assert abs(abs(amp.entry(n, m)) - abs(amp.entry(N + 1 - n, N + 1 - m))) < 1e-10


@common
@given(chain_specs, times)
def test_average_fidelity_bounds(spec, t):
    v = average_fidelity_exact(spec, t).value
    assert -1e-9 <= v <= 1.0 + 1e-9


@common
@given(chain_specs)
def test_average_fidelity_initial(spec):
    assert abs(average_fidelity_exact(spec, 0.0).value - 0.25) < 1e-12


@common
@given(chain_specs, times, st.integers(min_value=0, max_value=2**31))
def test_evolution_preserves_norm(spec, t, seed):
    state = random_state(seed)
    es = evolve(spec, state, t)
    assert abs(es.norm() - 1.0) < 1e-10


@common
@given(chain_specs, times, st.integers(min_value=0, max_value=2**31))
def test_reduced_state_density_matrix(spec, t, seed):
    state = random_state(seed)
    rho = reduced_receiver_state(spec, evolve(spec, state, t))
    assert np.allclose(rho, rho.conj().T, atol=1e-10)
    assert abs(np.trace(rho).real - 1.0) < 1e-10
    assert np.min(np.linalg.eigvalsh(rho)) > -1e-10


@common
@given(
    st.integers(min_value=6, max_value=9),
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
)
def test_pair_sector_spectrum_is_pairwise_sums(N, h):
    spec = ChainSpec(N=N, h=h)
    h1, h2 = build_sector_hamiltonians(spec)
    e1 = np.linalg.eigvalsh(h1)
    expected = np.sort([e1[i] + e1[j] for i in range(N) for j in range(i + 1, N)])
    assert np.allclose(np.linalg.eigvalsh(h2), expected, atol=1e-8)
